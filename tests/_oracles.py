"""Independent oracles and shared fixtures for the test suite: in-code
constructions of the bundled edge-list graphs, and every connected graph
on a few vertices up to isomorphism.

Everything here is deliberately computed by a route different from the
library under test: components by breadth-first search, determinants
by fraction-free elimination, closed walks by explicit enumeration or
unbounded Python-int matrix products, symmetric eigendecompositions by
cyclic Jacobi sweeps, ranks and norms by numpy's LAPACK bindings (the
spark by one SVD per column subset), minimum-norm points by Frank-Wolfe,
convex minima by trisection, the dual-family search by random sampling,
error operators and basis changes by explicit k x k matrices (the
orthogonal Procrustes witness), the generalized Vandermonde determinant
by its closed form, pseudoinverse diagonals in exact rational
arithmetic, and frames from hand-entered block-structured eigenbases.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import deque
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np

from gframes import Frame, Graph
from gframes.cli import main as cli_main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.edges"


# In-code definitions of the bundled ``fixtures/*.edges`` graphs, so file
# parsing is cross-checked against an independent construction.


def k3() -> Graph:
    """Complete graph on 3 vertices."""
    return Graph(3, frozenset({(0, 1), (0, 2), (1, 2)}))


def c4() -> Graph:
    """Cycle on 4 vertices."""
    return Graph(4, frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}))


def path3() -> Graph:
    """Path on 3 vertices; the smallest non-regular connected graph."""
    return Graph(3, frozenset({(0, 1), (1, 2)}))


def two_triangles() -> Graph:
    """Disjoint union of two triangles."""
    return Graph(6, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}))


def k33() -> Graph:
    """Complete bipartite graph on parts {0,1,2} and {3,4,5}."""
    return Graph(6, frozenset((u, v) for u in range(3) for v in range(3, 6)))


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle, inner pentagram, matching spokes."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, frozenset(outer + spokes + inner))


def k3_plus_c4() -> Graph:
    """Disjoint union of a triangle on {0,1,2} and a 4-cycle on {3,4,5,6}.

    The smallest fixture whose frame is not full spark, and whose canonical
    dual is optimal for one erasure without being the unique such dual.
    """
    return Graph(7, frozenset({(0, 1), (0, 2), (1, 2), (3, 4), (3, 6), (4, 5), (5, 6)}))


def cubic8() -> Graph:
    """Connected 3-regular graph on 8 vertices that is not walk-regular:
    its two triangles avoid vertices 0 and 5, so closed 3-walk counts
    differ between vertices. Canonical-dual products are non-constant."""
    edges = {(0, 1), (0, 4), (0, 5), (1, 2), (1, 7), (2, 3), (2, 7),
             (3, 4), (3, 6), (4, 6), (5, 6), (5, 7)}
    return Graph(8, frozenset(edges))


def c4_corona() -> Graph:
    """C4∘K1: a 4-cycle on {0,1,2,3} with a pendant vertex ``i + 4`` at each
    vertex ``i``. Irregular, so not walk-regular, yet every canonical
    product is √(9/8): the canonical dual is the unique optimal dual by
    constancy alone."""
    cycle = {(0, 1), (1, 2), (2, 3), (0, 3)}
    return Graph(8, frozenset(cycle | {(i, i + 4) for i in range(4)}))


def k4_corona() -> Graph:
    """K4∘K1: a complete graph on {0,1,2,3} with a pendant vertex ``i + 4``
    at each vertex ``i``. Irregular, yet every canonical product is 1."""
    clique = {(u, v) for u in range(4) for v in range(u + 1, 4)}
    return Graph(8, frozenset(clique | {(i, i + 4) for i in range(4)}))


def near_tie() -> Graph:
    """G2 (vertices 0–8; edges 1-7 1-8 2-5 2-7 2-8 3-4 3-6 3-8 4-6 4-9 5-9 7-8
    8-9 in 1-based labels) plus the walk-regular circulant C38(1,6) on
    vertices 9–46. The circulant's constant product 1.1607733849890514 lies
    4.38e-10 relative below vertex 5's 1.1607733854976168, inside the 1e-9 tie
    rule, yet only G2, whose products are not constant, attains the maximum."""
    g2 = {(0, 6), (0, 7), (1, 4), (1, 6), (1, 7), (2, 3), (2, 5), (2, 7), (3, 5), (3, 8),
          (4, 8), (6, 7), (7, 8)}
    circulant = {tuple(sorted((9 + i, 9 + (i + j) % 38))) for i in range(38) for j in (1, 6)}
    return Graph(47, frozenset(g2 | circulant))


#: Registry keyed by the bundled edge-list file stems, but for ``near_tie``,
#: whose 47 vertices are beyond the subset-enumeration oracles that every
#: registry entry runs through.
FIXTURES = {
    "k3": k3,
    "c4": c4,
    "path3": path3,
    "two_triangles": two_triangles,
    "k33": k33,
    "petersen": petersen,
    "figure1": k3_plus_c4,
    "figure2": cubic8,
    "c4_corona": c4_corona,
    "k4_corona": k4_corona,
}

#: Fixtures that are walk-regular (hence regular with equal-diagonal
#: pseudoinverses and constant canonical products).
WALK_REGULAR = ("k3", "c4", "two_triangles", "k33", "petersen")

#: Fixtures that fail walk-regularity; the coronas still have constant
#: canonical products.
NOT_WALK_REGULAR = ("path3", "figure1", "figure2", "c4_corona", "k4_corona")


def run_cli(argv) -> tuple:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def bareiss_det(matrix) -> float:
    """Determinant by fraction-free (Bareiss) Gaussian elimination."""
    a = [list(map(float, row)) for row in np.asarray(matrix, dtype=float)]
    n = len(a)
    if n == 1:
        return a[0][0]
    sign = 1.0
    prev = 1.0
    for j in range(n - 1):
        if a[j][j] == 0.0:
            for i in range(j + 1, n):
                if a[i][j] != 0.0:
                    a[j], a[i] = a[i], a[j]
                    sign = -sign
                    break
            else:
                return 0.0
        for i in range(j + 1, n):
            for c in range(j + 1, n):
                a[i][c] = (a[i][c] * a[j][j] - a[i][j] * a[j][c]) / prev
        prev = a[j][j]
    return sign * a[n - 1][n - 1]


def jacobi_eigh(matrix, max_sweeps: int = 100) -> tuple:
    """Eigenvalues (descending) and eigenvectors of a real symmetric matrix
    by cyclic Jacobi rotations, in pure Python loops over numpy arrays."""
    m = np.asarray(matrix, dtype=float)
    a = 0.5 * (m + m.T)
    n = a.shape[0]
    v = np.eye(n)
    threshold = 1e-12 * float(np.linalg.norm(a))
    for sweep in range(max_sweeps + 1):
        if float(np.linalg.norm(a - np.diag(np.diag(a)))) <= threshold:
            break
        if sweep == max_sweeps:
            raise AssertionError(f"Jacobi sweep did not converge within {max_sweeps} sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(diff) > 1e8 * abs(apq):
                    # theta = diff / (2 apq) is so large that theta^2 + 1
                    # rounds to theta^2 or overflows: t = 1 / (2 theta)
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v[:, order]


def neighbour_lists(g: Graph) -> list:
    """Sorted neighbours of each vertex, read off the edge set."""
    neighbours = [[] for _ in range(g.n)]
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    return [sorted(ns) for ns in neighbours]


def components_by_bfs(g: Graph) -> tuple:
    """Connected components as sorted vertex tuples, ordered by smallest
    member, by breadth-first search over the neighbour lists."""
    neighbours = neighbour_lists(g)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        queue = deque([start])
        seen[start] = True
        members = []
        while queue:
            v = queue.popleft()
            members.append(v)
            for w in neighbours[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(tuple(sorted(members)))
    return tuple(comps)


def count_closed_walks(g: Graph, start: int, length: int) -> int:
    """Closed walks of the given length at ``start``, by explicit enumeration."""
    neighbours = neighbour_lists(g)

    def extend(v, remaining):
        if remaining == 0:
            return 1 if v == start else 0
        return sum(extend(w, remaining - 1) for w in neighbours[v])

    return extend(start, length)


def object_power_diagonals(m, p_max: int) -> list:
    """Diagonals of m^1..m^p_max by Python-int matrix products, unbounded."""
    base = np.asarray(m).astype(object)
    power, diagonals = base, []
    for p in range(1, p_max + 1):
        if p > 1:
            power = power @ base
        diagonals.append([int(x) for x in power.diagonal()])
    return diagonals


def circulant_graph(n: int, jumps) -> Graph:
    return Graph(n, frozenset((min(i, (i + s) % n), max(i, (i + s) % n))
                              for i in range(n) for s in jumps))


def paley_graph(q: int) -> Graph:
    squares = {(x * x) % q for x in range(1, q)}
    return Graph(q, frozenset((i, j) for i, j in combinations(range(q), 2) if (j - i) % q in squares))


def hypercube_graph(d: int) -> Graph:
    return Graph(2**d, frozenset((v, v | (1 << b)) for v in range(2**d) for b in range(d)
                                 if not v & (1 << b)))


def kneser_graph(m: int, k: int) -> Graph:
    sets = [frozenset(c) for c in combinations(range(m), k)]
    return Graph(len(sets), frozenset((i, j) for i, j in combinations(range(len(sets)), 2)
                                      if not sets[i] & sets[j]))


def rook_graph(m: int) -> Graph:
    """The m x m rook's graph: cells adjacent when they share a row or a column."""
    return Graph(m * m, frozenset((i, j) for i, j in combinations(range(m * m), 2)
                                  if i // m == j // m or i % m == j % m))


def regular_census_graphs() -> dict:
    """Vertex-transitive graphs whose walk census runs every power up to k in int64."""
    return {"C36(1,2)": circulant_graph(36, (1, 2)),
            "C32(1..4)": circulant_graph(32, (1, 2, 3, 4)),
            "Paley(13)": paley_graph(13),
            "Paley(37)": paley_graph(37),
            "Q5": hypercube_graph(5),
            "K(7,3)": kneser_graph(7, 3)}


def random_connected_graph(rng, n_min: int = 4, n_max: int = 10) -> Graph:
    """Random spanning tree plus independent extra edges; always connected."""
    n = int(rng.integers(n_min, n_max + 1))
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        a = int(order[i])
        b = int(order[int(rng.integers(0, i))])
        edges.add((min(a, b), max(a, b)))
    p = float(rng.uniform(0.1, 0.5))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, frozenset(edges))


def connected_graphs(n_max: int) -> dict:
    """Every connected graph on 2..n_max vertices up to isomorphism, as
    ``{n: [Graph, ...]}``. Deleting a non-cut vertex leaves a connected graph,
    so joining a new vertex to each nonempty vertex set of every connected
    (n−1)-vertex graph reaches them all; copies are told apart by a
    brute-force canonical form, the least edge code over all vertex orders."""
    found = {1: [frozenset()]}
    for n in range(2, n_max + 1):
        orders = np.array(list(permutations(range(n))))
        rows, cols = np.triu_indices(n, 1)
        weights = 1 << np.arange(len(rows), dtype=np.int64)
        forms = {}
        for edges in found[n - 1]:
            for mask in range(1, 2 ** (n - 1)):
                grown = edges | {(v, n - 1) for v in range(n - 1) if mask >> v & 1}
                a = np.zeros((n, n), dtype=np.int64)
                for u, v in grown:
                    a[u, v] = a[v, u] = 1
                relabelled = a[orders[:, :, None], orders[:, None, :]][:, rows, cols]
                forms.setdefault(int((relabelled @ weights).min()), frozenset(grown))
        found[n] = list(forms.values())
    return {n: [Graph(n, edges) for edges in graphs] for n, graphs in found.items() if n > 1}


def read_graph6(line: str) -> Graph:
    """A graph from one graph6 line with fewer than 63 vertices: the vertex
    count as ``chr(63 + n)``, then the upper triangle column by column, six
    bits per character, each offset by 63."""
    n = ord(line[0]) - 63
    bits = "".join(format(ord(ch) - 63, "06b") for ch in line[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return Graph(n, frozenset(pair for pair, bit in zip(pairs, bits) if bit == "1"))


def exact_pinv_diagonal(g: Graph) -> list:
    """``diag L⁺`` of a connected graph as fractions, from ``L⁺ = (L + J/n)⁻¹ − J/n``
    by Gauss-Jordan elimination in exact rational arithmetic."""
    n = g.n
    rows = [[Fraction(1, n) for _ in range(n)] + [Fraction(int(i == j)) for j in range(n)]
            for i in range(n)]
    for u, v in g.edges:
        rows[u][u] += 1
        rows[v][v] += 1
        rows[u][v] -= 1
        rows[v][u] -= 1
    for j in range(n):
        pivot = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[pivot] = rows[pivot], rows[j]
        head = rows[j][j]
        rows[j] = [x / head for x in rows[j]]
        for i in range(n):
            if i != j and rows[i][j] != 0:
                factor = rows[i][j]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[j])]
    return [rows[i][n + i] - Fraction(1, n) for i in range(n)]


def random_tree(rng, n: int) -> Graph:
    """Random recursive tree over a seeded vertex order: each vertex joins a
    uniformly drawn earlier one."""
    order = rng.permutation(n)
    edges = set()
    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        edges.add((min(a, b), max(a, b)))
    return Graph(n, frozenset(edges))


def tree_squared_products(g: Graph) -> list:
    """``n²·d_i·P_ii`` of a tree as exact integers, ``d_i·(n·D_i − W)``.

    In a tree the effective resistance is the distance, so ``P_ii = D_i/n −
    W/n²``, with ``D_i`` vertex i's distance sum and ``W`` the Wiener index.
    The distance sums come from one BFS and rerooting: moving the root from
    a vertex to its child c changes the sum by ``n − 2·size(c)``."""
    n = g.n
    neighbours = neighbour_lists(g)
    parent = {0: None}
    order = [0]
    for v in order:
        for w in neighbours[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    depth, size = [0] * n, [1] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    sums = [sum(depth)] * n
    for v in order[1:]:
        sums[v] = sums[parent[v]] + n - 2 * size[v]
    wiener = sum(sums) // 2
    return [len(neighbours[i]) * (n * sums[i] - wiener) for i in range(n)]


def spark_by_subsets(frame: Frame, rank_tol: float = 1e-8) -> int:
    """Spark by one SVD per column subset, smallest size first, with the
    rank rule ``sigma > rank_tol * max(1, sigma_1)``; ``dim + 1`` when
    every subset of at most ``dim`` columns is independent."""
    k, n = frame.dim, frame.count
    for s in range(1, k + 1):
        for subset in combinations(range(n), s):
            svals = np.linalg.svd(frame.synthesis[:, subset], compute_uv=False)
            if np.sum(svals > rank_tol * max(1.0, float(svals[0]))) < s:
                return s
    return k + 1


def error_operator(frame: Frame, dual, indices) -> np.ndarray:
    """The reconstruction error operator for the erased coefficient set:
    the sum of ``h_i f_i^T`` over the given column indices, as a k x k matrix."""
    h = np.asarray(dual, dtype=float)
    subset = sorted(set(int(i) for i in indices))
    if subset and not (0 <= subset[0] and subset[-1] < frame.count):
        raise IndexError(f"erasure indices out of range [0, {frame.count})")
    if not subset:
        return np.zeros((frame.dim, frame.dim))
    return h[:, subset] @ frame.synthesis[:, subset].T


def unitary_equivalence_witness(f1: Frame, f2: Frame, gram_tol: float = 1e-8,
                                residual_tol: float = 1e-7):
    """Orthogonal ``U`` with ``U @ f2.synthesis == f1.synthesis``, or ``None``.

    Frames with equal Gramians differ by an orthogonal map; the witness is
    the polar factor of ``synthesis1 @ synthesis2^T`` (orthogonal
    Procrustes). A rank-deficient cross product leaves freedom on the
    orthogonal complement, which the SVD pairing fixes deterministically.
    """
    if f1.dim != f2.dim or f1.count != f2.count:
        raise ValueError("frames must share dim and count")
    if float(np.abs(f1.gramian - f2.gramian).max()) > gram_tol:
        return None
    u, _, vt = np.linalg.svd(f1.synthesis @ f2.synthesis.T)
    witness = u @ vt
    if float(np.abs(witness @ f2.synthesis - f1.synthesis).max()) > residual_tol:
        return None
    return witness


def generalized_vandermonde_det(values) -> float:
    """Closed form for det of the matrix with rows (a_1^p, ..., a_n^p), p = 1..n:
    the product of all a_i times the product of all pairwise differences a_i - a_j, i > j."""
    a = np.asarray(values, dtype=float)
    det = float(np.prod(a))
    for i in range(a.size):
        for j in range(i):
            det *= a[i] - a[j]
    return det


def min_norm_in_hull_frank_wolfe(points, iterations: int = 400) -> tuple:
    """Minimum-norm point of the convex hull of the given row vectors by
    Frank-Wolfe with exact line search, started at the first point. Returns
    ``(x, gap)`` with the duality gap ``|x|² − min_j p_j·x``, which bounds
    ``|x − x*|²``; convergence is sublinear, so callers check the gap."""
    points = np.asarray(points, dtype=float)
    x = points[0].copy()
    gap = math.inf
    for _ in range(iterations):
        dots = points @ x
        j = int(np.argmin(dots))
        gap = float(x @ x - dots[j])
        if gap <= 1e-15 * max(1.0, float(x @ x)):
            break
        step = x - points[j]
        denom = float(step @ step)
        if denom <= 0.0:
            break
        x = x - min(1.0, gap / denom) * step
    return x, gap


def sampled_shift_d1(bundle, rng, samples: int, radius: float, centre=None) -> np.ndarray:
    """D^1 of ``samples`` random duals of the bundle's shift family: each
    component's shift is ``centre``'s row (zero by default) plus a point
    drawn uniformly from the ball of the given radius, and each dual's D^1
    is the largest product of its column norms with the frame's, computed
    from the assembled ``k x n`` dual."""
    m, k = bundle.component_count, bundle.frame.dim
    gauss = rng.standard_normal((samples, m, k))
    lengths = np.maximum(np.linalg.norm(gauss, axis=2, keepdims=True), 1e-300)
    radii = radius * rng.random((samples, m, 1)) ** (1.0 / k)
    shifts = gauss / lengths * radii + (0.0 if centre is None else np.asarray(centre))
    f_norms = np.linalg.norm(bundle.frame.synthesis, axis=0)
    values = np.empty(samples)
    for s, x in enumerate(shifts):
        dual = bundle.canonical + x[bundle.column_component].T
        values[s] = (np.linalg.norm(dual, axis=0) * f_norms).max()
    return values


def trisect(probe, lo: float, hi: float, steps: int = 60) -> float:
    """Minimiser of a convex function on ``[lo, hi]`` by ``steps``
    trisections, moving left on ties."""
    for _ in range(steps):
        third = (hi - lo) / 3.0
        if probe(lo + third) <= probe(hi - third):
            hi -= third
        else:
            lo += third
    return 0.5 * (lo + hi)


def edge_list_text(g: Graph) -> str:
    """The edge-list file format: a ``n m`` header, then 1-based edges."""
    lines = [f"{g.n} {g.m}"] + [f"{u + 1} {v + 1}" for u, v in sorted(g.edges)]
    return "\n".join(lines) + "\n"


def random_symmetric(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def _block_eigenbasis_two_component():
    """Exact block-structured orthonormal eigenbasis of the triangle-plus-4-cycle
    Laplacian, with eigenvalue order (4, 2, 2, 3, 3, 0, 0)."""
    i2 = 1.0 / np.sqrt(2.0)
    i6 = 1.0 / np.sqrt(6.0)
    i3 = 1.0 / np.sqrt(3.0)
    m = np.array([
        [0.0, 0.0, 0.0, i2, -i6, i3, 0.0],
        [0.0, 0.0, 0.0, 0.0, 2 * i6, i3, 0.0],
        [0.0, 0.0, 0.0, -i2, -i6, i3, 0.0],
        [0.5, i2, 0.0, 0.0, 0.0, 0.0, 0.5],
        [-0.5, 0.0, i2, 0.0, 0.0, 0.0, 0.5],
        [0.5, -i2, 0.0, 0.0, 0.0, 0.0, 0.5],
        [-0.5, 0.0, -i2, 0.0, 0.0, 0.0, 0.5],
    ])
    eigenvalues = np.array([4.0, 2.0, 2.0, 3.0, 3.0, 0.0, 0.0])
    return m, eigenvalues


def alt_frame_two_component() -> Frame:
    """Alternate realization of the triangle-plus-4-cycle frame: same Gramian,
    different eigenvector basis (block order puts the 4-cycle first)."""
    m, eigenvalues = _block_eigenbasis_two_component()
    synthesis = np.sqrt(eigenvalues[:5])[:, None] * m[:, :5].T
    return Frame(synthesis)


def _eigenbasis_cubic8():
    """Exact orthonormal eigenbasis of the 8-vertex cubic fixture's Laplacian,
    eigenvalue order (4, 4, 2, 4-sqrt2, 4+sqrt2, 3-sqrt3, 3+sqrt3, 0)."""
    r3, r6, r2 = np.sqrt(3.0), np.sqrt(6.0), np.sqrt(2.0)
    am = 2.0 * np.sqrt(3.0 - r3)
    ap = 2.0 * np.sqrt(3.0 + r3)
    m = np.array([
        [r3 / 6, -r6 / 12, 0.5, 0.5, 0.5, 0.0, 0.0, r2 / 4],
        [0.0, r6 / 4, 0.0, r2 / 4, -r2 / 4, 1 / am, 1 / ap, r2 / 4],
        [r3 / 6, -r6 / 12, -0.5, 0.0, 0.0, (r3 - 1) / am, -(r3 + 1) / ap, r2 / 4],
        [r3 / 6, -r6 / 12, -0.5, 0.0, 0.0, (1 - r3) / am, (r3 + 1) / ap, r2 / 4],
        [-r3 / 3, -r6 / 12, 0.0, r2 / 4, -r2 / 4, -1 / am, -1 / ap, r2 / 4],
        [r3 / 6, -r6 / 12, 0.5, -0.5, -0.5, 0.0, 0.0, r2 / 4],
        [0.0, r6 / 4, 0.0, -r2 / 4, r2 / 4, -1 / am, -1 / ap, r2 / 4],
        [-r3 / 3, -r6 / 12, 0.0, -r2 / 4, r2 / 4, 1 / am, 1 / ap, r2 / 4],
    ])
    eigenvalues = np.array([4.0, 4.0, 2.0, 4.0 - r2, 4.0 + r2, 3.0 - r3, 3.0 + r3, 0.0])
    return m, eigenvalues


def alt_frame_cubic8() -> Frame:
    """Alternate realization of the cubic 8-vertex frame from a hand-entered
    eigenbasis whose degenerate eigenvalue-4 plane differs from the solver's."""
    m, eigenvalues = _eigenbasis_cubic8()
    synthesis = np.sqrt(eigenvalues[:7])[:, None] * m[:, :7].T
    return Frame(synthesis)
