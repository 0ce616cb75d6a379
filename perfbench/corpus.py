"""Seeded graph corpora for the three workloads.

Every graph is made here, from named families or from a seeded random
generator, and written as an edge-list file; the program under test sees
only those files. A ``Case`` carries what the construction guarantees
(vertex-transitive or not, which components are vertex-transitive), so the
checks in ``reference.py`` can derive the expected verdicts from the
construction and numpy alone.

The same ``seed`` always gives the same corpus. Fixed families are relabelled
by a seeded vertex permutation; random graphs are drawn from the seed, except
the sweep's, which come from a fixed pool (see :func:`sweep`). The two inputs
that fail today (``spectra``) are made from fixed constants, not from the
seed, so every run fails the same operations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from pathlib import Path

import numpy as np

import reference

#: Seed of the sweep's fixed pool of irregular graphs.
SWEEP_POOL_SEED = 5
#: Seed of the fixed n = 30 irregular graph whose walk census overflows.
OVERFLOW_IRREGULAR_SEED = 30

@dataclass(frozen=True)
class Case:
    """One input graph on vertices ``0..n-1`` and what its construction guarantees.

    ``vt_vertices`` holds the vertices whose component is vertex-transitive
    (hence walk-regular); a graph is vertex-transitive when it is connected
    and every vertex is in that set.
    """

    name: str
    family: str
    n: int
    edges: tuple
    vt_vertices: frozenset
    commands: tuple
    expect_fail: tuple = ()

    @property
    def vertex_transitive(self) -> bool:
        return len(self.vt_vertices) == self.n and len(reference.components(self.n, self.edges)) == 1


@dataclass(frozen=True)
class Op:
    """One CLI call: ``gframes <command> <case file> <extra...>``."""

    case: Case
    command: str
    extra: tuple
    expect_fail: bool


def _edges(pairs) -> tuple:
    return tuple(sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))


def circulant(n: int, jumps) -> tuple:
    return _edges((i, (i + s) % n) for i in range(n) for s in jumps)


def kneser(m: int, k: int) -> tuple:
    sets = [frozenset(c) for c in combinations(range(m), k)]
    edges = [(i, j) for i, j in combinations(range(len(sets)), 2) if not sets[i] & sets[j]]
    return len(sets), _edges(edges)


def paley(q: int) -> tuple:
    squares = {(x * x) % q for x in range(1, q)}
    return q, _edges((i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares)


def rook(m: int) -> tuple:
    cells = [(a, b) for a in range(m) for b in range(m)]
    edges = [(i, j) for i, j in combinations(range(m * m), 2)
             if (cells[i][0] == cells[j][0]) != (cells[i][1] == cells[j][1])]
    return m * m, _edges(edges)


def hypercube(d: int) -> tuple:
    return 2**d, _edges((v, v ^ (1 << b)) for v in range(2**d) for b in range(d))


def random_connected(rng, n: int, p: float, max_degree: int = 0) -> tuple:
    """A random spanning tree plus independent extra edges with probability ``p``.

    With ``max_degree`` set, no vertex exceeds it; vertices of the tree attach
    only to vertices with spare degree. The result is connected and, by
    resampling, never regular.
    """
    while True:
        order = [int(v) for v in rng.permutation(n)]
        degree = [0] * n
        edges = set()
        for i in range(1, n):
            open_ = [w for w in order[:i] if not max_degree or degree[w] < max_degree]
            w = open_[int(rng.integers(0, len(open_)))]
            v = order[i]
            edges.add((min(v, w), max(v, w)))
            degree[v] += 1
            degree[w] += 1
        for u, v in combinations(range(n), 2):
            if (u, v) in edges or rng.random() >= p:
                continue
            if max_degree and (degree[u] >= max_degree or degree[v] >= max_degree):
                continue
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
        if len(set(degree)) > 1:
            return _edges(edges)


def relabel(rng, n: int, edges, vt=()) -> tuple:
    """Apply a seeded vertex permutation to a graph and its vertex-transitive set."""
    perm = [int(v) for v in rng.permutation(n)]
    return _edges((perm[u], perm[v]) for u, v in edges), frozenset(perm[v] for v in vt)


def interleave(rng, n: int, a: int, edges, vt=()) -> tuple:
    """Spread the labels of components ``0..a-1`` and ``a..n-1`` over each other
    at seeded positions, keeping vertex 0 in the first and each component's
    internal vertex order. The program relabels by component, so it sees the
    same frame for every seed: the dual-family search and the spark
    enumeration do the same work however the labels fall."""
    first = [0] + sorted(int(v) + 1 for v in rng.choice(n - 1, a - 1, replace=False))
    second = sorted(set(range(n)) - set(first))
    perm = first + second
    return _edges((perm[u], perm[v]) for u, v in edges), frozenset(perm[v] for v in vt)


def disjoint_union(parts) -> tuple:
    """Disjoint union of ``(n, edges, vertex_transitive)`` parts."""
    offset, edges, vt = 0, [], set()
    for n, part_edges, transitive in parts:
        edges.extend((u + offset, v + offset) for u, v in part_edges)
        if transitive:
            vt.update(range(offset, offset + n))
        offset += n
    return offset, _edges(edges), vt


def _vt_case(rng, name, n, edges, commands) -> Case:
    edges, vt = relabel(rng, n, edges, range(n))
    return Case(name, "vertex-transitive", n, edges, vt, commands)


def _irregular_case(rng, name, n, p, commands, max_degree=0) -> Case:
    return Case(name, "irregular", n, random_connected(rng, n, p, max_degree), frozenset(), commands)


def _repeats(case: Case, command: str, copies: int) -> list:
    """Further files holding ``case``'s graph with the same labels, run by
    ``command`` only: operations of equal work. The tail percentile of a
    pass falls among a block of them rather than on one operation that
    borders a gap between costs."""
    return [replace(case, name=f"{case.name}-again{i + 1}", commands=(command,))
            for i in range(copies)]


def _two_component_case(shape_rng, label_rng, name, family, sizes, commands, want_od1) -> Case:
    """Two components; with ``want_od1`` the first is a cycle whose (constant)
    product beats every product of the irregular second component, so the
    verdict is ``OD_1_ERASURE``; otherwise both are irregular and no
    certificate applies (``INCONCLUSIVE``)."""
    a, b = sizes
    while True:
        if want_od1:
            first = (a, circulant(a, [1]), True)
        else:
            first = (a, random_connected(shape_rng, a, 0.4), False)
        second = (b, random_connected(shape_rng, b, 0.4), False)
        n, edges, vt = disjoint_union([first, second])
        products = reference.products(n, edges)
        if not want_od1 or products[:a].min() > products[a:].max() * (1 + 1e-6):
            break
    edges, vt = interleave(label_rng, n, a, edges, vt)
    return Case(name, family, n, edges, vt, commands)


SWEEP_COMMANDS = ("graph-info", "od-verdict", "od-search")
SPECTRA_COMMANDS = ("graph-info", "frame-build", "od-verdict")
ERASURE_COMMANDS = ("dr-table", "frame-spark")


def sweep(seed: int) -> list:
    """Many small graphs; ``od-search`` (the dual-family search) does most of the work.

    The search works in the frame's eigenbasis, so its cost changes with the
    graph and even with the vertex labels, several times over. A pass
    holds only 23 searches, so the irregular graphs come from a
    fixed pool with fixed labels; the seed relabels the vertex-transitive
    graphs and interleaves the components of the two-component ones.

    Per pass, the searches on the irregular graphs with n = 14, 12 and 10
    are the costliest operations (about 1.3, 0.9 and 0.8 s), then those
    with n = 9 and 13 (about 0.75 s) and n = 11 (0.6 s). The n = 13 search
    runs three times, so p90 (the 6th of 56 operations from the top) falls
    in the middle of a block of four of about 0.75 s.
    """
    pool = np.random.default_rng(SWEEP_POOL_SEED)
    rng = np.random.default_rng([seed, 1])
    c = SWEEP_COMMANDS
    cases = [_irregular_case(pool, f"irregular{i}-n{n}", n, 0.3, c)
             for i, n in enumerate((5, 6, 7, 8, 9, 10, 11, 12, 13, 14))]
    cases += _repeats(cases[8], "od-search", 2)
    for name, n, edges in [("circulant7-12", 7, circulant(7, [1, 2])),
                           ("kneser5-2", *kneser(5, 2)),
                           ("circulant14-13", 14, circulant(14, [1, 3]))]:
        cases.append(_vt_case(rng, name, n, edges, c))
    for sizes in ((6, 3), (9, 5)):
        cases.append(_two_component_case(pool, rng, f"od1-{sizes[0]}+{sizes[1]}", "od1",
                                         sizes, c, True))
    for sizes in ((3, 4), (4, 6), (5, 7)):
        cases.append(_two_component_case(pool, rng, f"inconclusive-{sizes[0]}+{sizes[1]}",
                                         "inconclusive", sizes, c, False))
    return cases


def spectra(seed: int) -> list:
    """Single-graph analyses at n = 30..80: eigensolves and the walk census.

    Per pass, the successful operations costlier than ``od-verdict`` on
    Paley(37) (about 0.6 s) are ``graph-info`` on Paley(37), K(7,3) and the
    rook's graph and ``frame-build`` at n = 80 (0.7 to 0.9 s); that verdict
    runs three times, so p85 (the 6th of 39 successful operations from the
    top) falls in the middle of that block.
    """
    rng = np.random.default_rng([seed, 2])
    c = SPECTRA_COMMANDS
    cases = []
    for name, (n, edges) in [("paley37", paley(37)),
                             ("kneser7-3", kneser(7, 3)),
                             ("rook6", rook(6)),
                             ("hypercube5", hypercube(5)),
                             ("circulant36-12", (36, circulant(36, [1, 2]))),
                             ("circulant32-1234", (32, circulant(32, [1, 2, 3, 4])))]:
        cases.append(_vt_case(rng, name, n, edges, c))
    cases += _repeats(cases[0], "od-verdict", 2)
    # Irregular with maximum degree 3 and n <= 39: closed-walk counts stay
    # below 3^39 < 2^63 at every power the census can reach.
    for i, n in enumerate((31, 35)):
        cases.append(_irregular_case(rng, f"sparse{i}-n{n}", n, 0.05, c, max_degree=3))
    # Denser random graphs overflow the census for most seeds, so they run
    # only frame-build, which has no census.
    for i, n in enumerate((30, 33, 36, 40, 44, 48, 52, 56, 60, 64, 80)):
        cases.append(_irregular_case(rng, f"random{i}-n{n}", n, 0.12, ("frame-build",)))
    # Fixed inputs that exit 2 today: the walk census overflows int64 in
    # linalg._exact_power_diagonals although the verdict is decidable.
    failing = ("graph-info", "od-verdict")
    cases.append(Case("overflow-irregular-n30", "irregular", 30,
                      random_connected(np.random.default_rng(OVERFLOW_IRREGULAR_SEED), 30, 0.15),
                      frozenset(), c, failing))
    cases.append(Case("overflow-circulant60-12345", "vertex-transitive", 60,
                      circulant(60, [1, 2, 3, 4, 5]), frozenset(range(60)), c, failing))
    return cases


def erasures(seed: int) -> list:
    """Worst-case erasure tables and spark; per-subset work dominates.

    Two-component graphs have equal halves: the spark enumeration stops at
    the first dependent subset, and with unequal halves how soon it meets
    the smaller one would depend on the labels.

    On a connected graph ``frame-spark`` checks every subset of fewer than n
    columns, so its work depends on n alone. Five such calls at n = 14 come
    just after the three largest ``dr-table`` calls and hold the tail
    percentile (about the 6th of 28 operations from the top of a pass); four
    at n = 12, with the n = 12 table's own spark and the 5+5 table, hold the
    median (the 14th to 15th). So neither falls in a gap between costs.
    """
    rng = np.random.default_rng([seed, 3])
    both = ERASURE_COMMANDS
    cases = [_irregular_case(rng, f"connected{i}-n{n}", n, 0.3, both)
             for i, n in enumerate((8, 9, 10, 11, 12))]
    cases += [_irregular_case(rng, f"spark{i}-n{n}", n, 0.3, ("frame-spark",))
              for i, n in enumerate((9, 10, 11, 12, 12, 12, 12, 14, 14, 14, 14, 14))]
    for half in (4, 5, 6):
        cases.append(_two_component_case(rng, rng, f"split-{half}+{half}", "two-component",
                                         (half, half), both, False))
    return cases


WORKLOADS = {"sweep": sweep, "spectra": spectra, "erasures": erasures}

_EXTRA = {"dr-table": ("--max-r", "3")}


def write_case(case: Case, directory: Path) -> Path:
    path = directory / f"{case.name}.edges"
    lines = [f"# {case.family}", f"{case.n} {len(case.edges)}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in case.edges)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def operations(cases) -> list:
    return [Op(case, command, _EXTRA.get(command, ()), command in case.expect_fail)
            for case in cases for command in case.commands]
