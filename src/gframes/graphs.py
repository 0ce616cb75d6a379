"""Simple undirected graphs and their standard matrices.

Vertices are 0-based integers everywhere in the Python API. The 1-based
labels of the edge-list file format are translated exactly once, at the
parse boundary; reports rendered by the CLI translate back.

All matrices returned here hold exact integers stored as floats, so no
rounding error originates in this module.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import EdgeListError


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph on vertices ``0..n-1``.

    Edges are stored as a frozenset of ``(u, v)`` pairs with ``u < v``;
    self-loops are rejected and duplicates collapse by set semantics.
    The vertex count and the labels must be integers (numpy integers
    included, ``bool`` excluded for the count); anything else raises
    ``ValueError`` rather than being truncated.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        try:
            n = operator.index(self.n)
        except TypeError:
            n = 0
        if isinstance(self.n, bool) or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        normalized = set()
        for edge in self.edges:
            u, v = edge
            try:
                u, v = operator.index(u), operator.index(v)
            except TypeError:
                raise ValueError(f"edge {edge!r} has a non-integer vertex label") from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {edge!r} out of range for n={self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency_lists(self) -> tuple:
        neighbors = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neighbors)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only symmetric 0/1 adjacency matrix with zero diagonal; a
        caller that writes takes a copy."""
        a = np.zeros((self.n, self.n))
        if self.edges:
            u, v = np.array(list(self.edges)).T
            a[u, v] = 1.0
            a[v, u] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def components(self) -> tuple:
        """Connected components as sorted vertex tuples, ordered by smallest member."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            queue = deque([start])
            seen[start] = True
            members = []
            while queue:
                v = queue.popleft()
                members.append(v)
                for w in self.adjacency_lists[v]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
            comps.append(tuple(sorted(members)))
        return tuple(comps)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``n m`` header, then ``m`` lines ``u v``.

    Lines starting with ``#`` and blank lines are ignored. Vertex labels in
    the file are 1-based. Duplicate edges (including reversed repeats),
    self-loops, and out-of-range labels are reported with their line number.
    """
    n = m = None
    edges = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise EdgeListError(f"expected header 'n m', got {line!r}", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise EdgeListError(f"non-integer header {line!r}", lineno) from None
            if n < 1:
                raise EdgeListError(f"vertex count must be positive, got {n}", lineno)
            if m < 0:
                raise EdgeListError(f"edge count must be nonnegative, got {m}", lineno)
            continue
        if len(parts) != 2:
            raise EdgeListError(f"expected edge 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListError(f"non-integer edge {line!r}", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise EdgeListError(f"vertex out of range [1, {n}] in edge {u} {v}", lineno)
        if u == v:
            raise EdgeListError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v) - 1, max(u, v) - 1)
        if key in edges:
            raise EdgeListError(
                f"duplicate edge {u} {v} (first seen at line {edges[key]})", lineno
            )
        if len(edges) == m:
            raise EdgeListError(f"more than the declared {m} edges", lineno)
        edges[key] = lineno
    if n is None:
        raise EdgeListError("missing 'n m' header")
    if len(edges) != m:
        raise EdgeListError(f"declared {m} edges but found {len(edges)}")
    return Graph(n, frozenset(edges))


def degree_sequence(g: Graph) -> list:
    """Number of neighbors of each vertex."""
    return [len(ns) for ns in g.adjacency_lists]


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix; every row sums to zero."""
    lap = -g.adjacency
    lap[np.diag_indices(g.n)] = degree_sequence(g)
    return lap


def is_regular(g: Graph) -> Optional[int]:
    """The common vertex degree, or ``None`` if degrees differ."""
    degrees = degree_sequence(g)
    return degrees[0] if len(set(degrees)) == 1 else None


def relabel_by_component(g: Graph) -> tuple:
    """Relabel vertices so each component occupies a contiguous label range.

    Returns ``(relabeled_graph, mapping)`` where ``mapping[v]`` is the new
    label of original vertex ``v``. Components are ordered by their smallest
    original vertex and keep their internal vertex order, so a graph that is
    already component-contiguous comes back unchanged with the identity
    mapping.
    """
    order = [v for comp in g.components for v in comp]
    if order == list(range(g.n)):
        return g, tuple(range(g.n))
    mapping = [0] * g.n
    for new, old in enumerate(order):
        mapping[old] = new
    edges = frozenset((mapping[u], mapping[v]) for u, v in g.edges)
    return Graph(g.n, edges), tuple(mapping)
