"""Simple undirected graphs and their standard matrices.

Vertices are 0-based integers everywhere in the Python API. The 1-based
labels of the edge-list file format are translated exactly once, at the
parse boundary; reports rendered by the CLI translate back.

All matrices returned here hold exact integers stored as floats, so no
rounding error originates in this module.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np

from .exceptions import EdgeListError


def _as_int(value) -> Optional[int]:
    """``value`` as an int (numpy integers included, ``bool`` excluded), else ``None``."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph on vertices ``0..n-1``.

    Edges are stored as a frozenset of ``(u, v)`` pairs with ``u < v``;
    self-loops are rejected and duplicates collapse by set semantics.
    The vertex count and the labels must be integers (numpy integers
    included, ``bool`` excluded); anything else raises ``ValueError``
    rather than being truncated.
    """

    n: int
    edges: frozenset

    def __post_init__(self):
        n = _as_int(self.n)
        if n is None or n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        object.__setattr__(self, "n", n)
        normalized = set()
        for edge in self.edges:
            u, v = map(_as_int, edge)
            if u is None or v is None:
                raise ValueError(f"edge {edge!r} has a non-integer vertex label")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {edge!r} out of range for n={self.n}")
            normalized.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(normalized))

    @classmethod
    def _checked(cls, n: int, edges: frozenset) -> "Graph":
        """A graph from a positive int ``n`` and int pairs ``(u, v)`` with
        ``0 <= u < v < n``, which the caller has already checked."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def _ends(self) -> np.ndarray:
        """The edges' endpoints as one int array: ``u0, v0, u1, v1, ...``."""
        return np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * self.m)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Read-only symmetric 0/1 adjacency matrix with zero diagonal; a
        caller that writes takes a copy."""
        a = np.zeros((self.n, self.n))
        u, v = self._ends[0::2], self._ends[1::2]
        a[u, v] = 1.0
        a[v, u] = 1.0
        a.flags.writeable = False
        return a

    @cached_property
    def _degrees(self) -> tuple:
        """Each vertex's count among the edge endpoints; no matrix is formed,
        so the walk census's first two powers need none."""
        return tuple(np.bincount(self._ends, minlength=self.n).tolist())

    @cached_property
    def components(self) -> tuple:
        """Connected components as sorted vertex tuples, ordered by smallest member.

        Union-find over the edges with path halving: each edge links the
        larger root under the smaller, so every root is its component's
        smallest member and ``parent[v] <= v`` throughout.
        """
        parent = list(range(self.n))
        for u, v in self.edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u < v:
                parent[v] = u
            elif v < u:
                parent[u] = v
        members = {}
        for v in range(self.n):
            # parent[v] <= v, whose parent already points at its root
            parent[v] = parent[parent[v]]
            members.setdefault(parent[v], []).append(v)
        return tuple(map(tuple, members.values()))

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1


#: Comment lines up to their end: "#" after blanks, then anything but the
#: line boundaries of ``str.splitlines`` ("\r\n" is made "\n" first). A
#: string, which ``re`` compiles on first use rather than at import.
_COMMENT_LINE = r"(?m)^[ \t]*#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*"
#: Byte classes of the plain format, as a ``bytes.translate`` table:
#: 0 anything else, 1 digit, 2 blank, 3 newline.
_BYTE_CLASS = bytes(1 if chr(c) in "0123456789" else 2 if chr(c) in " \t" else 3 if chr(c) == "\n"
                    else 0 for c in range(256))
#: Longest label the plain path reads; 18 digits stay below 2^63.
_MAX_DIGITS = 18
#: Shorter files go straight to the line scan: it costs about 1 µs a line,
#: the array path about 35 µs plus 0.2 µs a line (one core, numpy 2.4).
_PLAIN_MIN_LINES = 64
#: Largest declared vertex count; the plain path's keys ``lo * n + hi`` stay below 2^63.
_MAX_VERTICES = 2**31


def _parse_plain(text: str) -> Optional[Graph]:
    """The graph of a valid edge list in the plain format, or ``None``.

    Plain means ASCII digits, spaces, tabs and line ends, with comment
    lines, and every other line blank or two labels of at most 18 digits.
    The labels are checked as one int array: in range, no self-loop, no
    repeated pair (by a sort), and exactly ``m`` of them. Any input this
    rejects, valid or not, goes to the line scan, :func:`_parse_lines`,
    which names the first error.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if "#" in text:
        text = re.sub(_COMMENT_LINE, "", text)
    if not text.isascii():
        return None
    kind = np.frombuffer(text.encode("ascii").translate(_BYTE_CLASS), dtype=np.uint8)
    if not kind.all():
        return None
    digit = kind == 1
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    last = digit.copy()
    last[:-1] &= ~digit[1:]
    starts = np.flatnonzero(first)
    if starts.size == 0 or (np.flatnonzero(last) - starts).max() >= _MAX_DIGITS:
        return None
    per_line = np.bincount(np.cumsum(kind == 3)[starts])
    if np.any((per_line != 0) & (per_line != 2)):
        return None
    labels = np.fromstring(text, dtype=np.int64, sep=" ")
    n, m = int(labels[0]), int(labels[1])
    if not 1 <= n <= _MAX_VERTICES or labels.size != 2 * m + 2:
        return None
    u, v = labels[2::2], labels[3::2]
    lo, hi = np.minimum(u, v) - 1, np.maximum(u, v) - 1
    if m and (lo.min() < 0 or hi.max() >= n or np.any(lo == hi)):
        return None
    keys = np.sort(lo * n + hi)
    if np.any(keys[1:] == keys[:-1]):
        return None
    return Graph._checked(n, frozenset(zip(lo.tolist(), hi.tolist())))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format: ``n m`` header, then ``m`` lines ``u v``.

    Lines starting with ``#`` and blank lines are ignored. Vertex labels in
    the file are 1-based, at most 2^31. Duplicate edges (including reversed repeats),
    self-loops, and out-of-range labels are reported with their line number.
    A file of at least 64 lines in the plain format is read as one array
    (:func:`_parse_plain`); any other file, or one that fails a check there,
    is read line by line.
    """
    g = _parse_plain(text) if text.count("\n") >= _PLAIN_MIN_LINES else None
    return g if g is not None else _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """Parse any edge list line by line, raising :class:`EdgeListError` at
    the first error with its line number."""
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
            if n > _MAX_VERTICES:
                raise EdgeListError(f"vertex count must be at most 2^31, got {n}", lineno)
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
    return Graph._checked(n, frozenset(edges))


def degree_sequence(g: Graph) -> list:
    """Number of neighbors of each vertex."""
    return list(g._degrees)


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Degree matrix minus adjacency matrix; every row sums to zero."""
    lap = -g.adjacency
    lap[np.diag_indices(g.n)] = degree_sequence(g)
    return lap


def is_regular(g: Graph) -> Optional[int]:
    """The common vertex degree, or ``None`` if degrees differ."""
    degrees = degree_sequence(g)
    return degrees[0] if len(set(degrees)) == 1 else None
