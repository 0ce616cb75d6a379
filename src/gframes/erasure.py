"""Worst-case erasure diagnostics and optimal-dual verdicts.

Losing the frame coefficients indexed by a set Λ leaves a reconstruction
error operator; its worst operator norm over all r-subsets, written D^r,
measures how badly a dual frame can fail under r erasures. For a single
erasure the norm factorizes, so D^1 is just the largest product
``|f_i| * |h_i|``, and the canonical dual is the best dual exactly when
those products are constant — for connected graphs this is an if and only
if. The verdict procedure certifies optimality where a certificate exists
and otherwise searches the dual family (one shift vector per component,
which exhausts all duals of a graph frame) for something strictly better.

Every function here takes a dual as a plain ``k x n`` matrix whose column
``i`` is ``h_i``; the canonical dual's is ``GraphFrameBundle.canonical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Optional

import numpy as np

from .exceptions import EnumerationGuardError
from .frames import Frame, GraphFrameBundle, dual_family_member
from .graphs import Graph
from .linalg import numerical_rank
from .walkreg import is_walk_regular

VERDICT_UNIQUE_ALL = "UNIQUE_OD_ALL_ERASURES"
VERDICT_OD_SINGLE = "OD_1_ERASURE"
VERDICT_NOT_OD = "NOT_OD"
VERDICT_INCONCLUSIVE = "INCONCLUSIVE"

#: The dual-family search covers canonical-dual shifts by one vector per
#: component; for graph frames that family is taken to be every dual.
SHIFT_FAMILY_NOTE = "per-component shifts of the canonical dual (all duals of a graph frame)"

_IMPROVEMENT_TOL = 1e-9

#: Relative distance from the maximum within which norms count as tied.
_TIE_TOL = 1e-9
#: Subsets evaluated per batch of stacked r×r Gramian blocks.
_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class ConstancyCertificate:
    is_constant: bool
    spread: float


@dataclass(frozen=True, eq=False)
class NonOptimalityWitness:
    """Certificate that the canonical dual is not optimal for one erasure:
    the argmax frame vectors are linearly independent, yet a dependence
    with nowhere-zero coefficients exists (all-ones, since every
    component's vectors sum to zero)."""

    vertices: tuple
    coefficients: np.ndarray
    dependence_residual: float


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best dual found over the shift family, with the sampling parameters
    that produced it; ``improved`` means it beats the canonical D^1 by more
    than 1e-9."""

    shifts: np.ndarray
    d1: float
    canonical_d1: float
    improved: bool
    trials: int
    radius: float
    seed: int


@dataclass(frozen=True, eq=False)
class ErasureReport:
    """Single-erasure diagnostics of the canonical dual, in vertex order,
    plus the optimality verdict and the certificate behind it."""

    d1_canonical: float
    per_vertex_products: np.ndarray
    lambda1: tuple
    constancy: ConstancyCertificate
    verdict: str
    verdict_basis: dict
    search_best: Optional[SearchResult]


def _dual_matrix(frame: Frame, dual) -> np.ndarray:
    h = np.asarray(dual, dtype=float)
    if h.shape != frame.synthesis.shape:
        raise ValueError(f"expected dual of shape {frame.synthesis.shape}, got {h.shape}")
    return h


def error_operator(frame: Frame, dual, indices) -> np.ndarray:
    """The reconstruction error operator for the erased coefficient set:
    the sum of ``h_i f_i^T`` over the given column indices."""
    h = _dual_matrix(frame, dual)
    subset = sorted(set(int(i) for i in indices))
    if subset and not (0 <= subset[0] and subset[-1] < frame.count):
        raise IndexError(f"erasure indices out of range [0, {frame.count})")
    if not subset:
        return np.zeros((frame.dim, frame.dim))
    return h[:, subset] @ frame.synthesis[:, subset].T


def d1_fast(frame: Frame, dual) -> tuple:
    """D^1 via the rank-one factorization: the largest ``|f_i| * |h_i|``.
    Returns ``(value, per-column products)``."""
    h = _dual_matrix(frame, dual)
    products = np.linalg.norm(frame.synthesis, axis=0) * np.linalg.norm(h, axis=0)
    return float(products.max()), products


def _worst_subset(frame: Frame, h: np.ndarray, subsets: np.ndarray) -> tuple:
    """The largest error-operator norm over the erased sets in the rows of
    ``subsets``, and the first row within a relative ``_TIE_TOL`` of it.
    Each norm uses ``‖H_Λ F_Λ^T‖² = λmax(G_H[Λ,Λ] · G_F[Λ,Λ])``, whose r×r
    product of positive semidefinite blocks has real, non-negative
    eigenvalues; blocks are stacked ``_CHUNK`` subsets at a time."""
    g_f, g_h = frame.gramian, h.T @ h
    squares = np.empty(len(subsets))
    for start in range(0, len(subsets), _CHUNK):
        chunk = subsets[start:start + _CHUNK]
        rows, cols = chunk[:, :, None], chunk[:, None, :]
        eig = np.linalg.eigvals(g_h[rows, cols] @ g_f[rows, cols])
        squares[start:start + _CHUNK] = eig.real.max(axis=1)
    norms = np.sqrt(np.maximum(squares, 0.0))
    top = float(norms.max())
    first = int(np.argmax(norms >= top * (1.0 - _TIE_TOL)))
    return top, tuple(int(i) for i in subsets[first])


def _check_r(frame: Frame, r) -> None:
    if not isinstance(r, int) or not 1 <= r < frame.count:
        raise ValueError(f"need 1 <= r < {frame.count}, got {r!r}")


def d_r(frame: Frame, dual, r: int, guard: int = 10**6) -> tuple:
    """Exhaustive D^r: the largest error-operator norm over all r-subsets.

    Returns ``(value, subset)``: the maximum, from one r×r eigenproblem on
    Gramian blocks per subset, and the first r-subset of frame columns in
    ``combinations`` order whose norm is within a relative 1e-9 of it, so
    rounding never picks among tied subsets. Enumeration beyond ``guard``
    subsets raises :class:`EnumerationGuardError` instead of silently
    subsampling; see :func:`d_r_lower_bound` for the sampled alternative.
    """
    h = _dual_matrix(frame, dual)
    _check_r(frame, r)
    total = math.comb(frame.count, r)
    if total > guard:
        raise EnumerationGuardError(
            f"D^{r} needs {total} subsets (guard {guard}); use d_r_lower_bound to sample"
        )
    flat = chain.from_iterable(combinations(range(frame.count), r))
    subsets = np.fromiter(flat, dtype=np.intp, count=total * r).reshape(total, r)
    return _worst_subset(frame, h, subsets)


def d_r_lower_bound(frame: Frame, dual, r: int, samples: int, seed: int = 0) -> tuple:
    """Monte-Carlo lower bound on D^r from ``samples`` random r-subsets;
    a bound only, clearly weaker than the exhaustive maximum. The subset
    returned is the first drawn within a relative 1e-9 of the bound."""
    h = _dual_matrix(frame, dual)
    _check_r(frame, r)
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    draws = [np.sort(rng.choice(frame.count, size=r, replace=False)) for _ in range(samples)]
    return _worst_subset(frame, h, np.array(draws, dtype=np.intp))


def canonical_products(bundle: GraphFrameBundle) -> np.ndarray:
    """Per-vertex products ``|f_i| * |S^-1 f_i|``."""
    b = bundle.frame.synthesis
    return np.linalg.norm(b, axis=0) * np.linalg.norm(bundle.canonical, axis=0)


def lambda1_set(bundle: GraphFrameBundle, tie_tol: float = _TIE_TOL) -> tuple:
    """Sorted vertices whose canonical product attains the maximum, with
    products within a relative ``tie_tol`` counted as tied."""
    products = canonical_products(bundle)
    top = float(products.max())
    return tuple(int(v) for v in np.flatnonzero(products >= top * (1.0 - tie_tol)))


def constancy_certificate(bundle: GraphFrameBundle, tol: float = _TIE_TOL) -> ConstancyCertificate:
    """Whether the canonical products are constant across vertices."""
    products = canonical_products(bundle)
    spread = float(products.max() - products.min())
    return ConstancyCertificate(spread <= tol * max(1.0, float(products.max())), spread)


def non_optimality_witness(bundle: GraphFrameBundle, tie_tol: float = _TIE_TOL,
                           rank_tol: float = 1e-8) -> Optional[NonOptimalityWitness]:
    """Witness that the canonical dual is not optimal for one erasure, or
    ``None`` when the argmax vectors are dependent and no such certificate
    exists down this route."""
    vertices = lambda1_set(bundle, tie_tol)
    sub = bundle.frame.synthesis[:, list(vertices)]
    if numerical_rank(sub, rank_tol) < len(vertices):
        return None
    coefficients = np.ones(bundle.frame.count)
    residual = float(np.abs(bundle.frame.synthesis @ coefficients).max())
    return NonOptimalityWitness(vertices, coefficients, residual)


def _component_subgraph(g: Graph, members: tuple) -> Graph:
    index = {v: i for i, v in enumerate(members)}
    edges = {(index[u], index[v]) for u, v in g.edges if u in index}
    return Graph(len(members), frozenset(edges))


def _tie_dual(bundle: GraphFrameBundle, lambda1: set):
    """A different dual attaining exactly the canonical D^1, built by
    shifting one component whose vertices all sit strictly below the
    maximum product; ``None`` when every component touches the argmax."""
    products = canonical_products(bundle)
    top = float(products.max())
    f_norms = np.linalg.norm(bundle.frame.synthesis, axis=0)
    h_norms = np.linalg.norm(bundle.canonical, axis=0)
    for c, members in enumerate(bundle.graph.components):
        if not lambda1.isdisjoint(members):
            continue
        cols = list(members)
        margins = top / f_norms[cols] - h_norms[cols]
        step = 0.5 * float(margins.min())
        if step <= 1e-12:
            continue
        shifts = np.zeros((bundle.component_count, bundle.frame.dim))
        shifts[c, 0] = step
        candidate = dual_family_member(bundle, shifts)
        value, _ = d1_fast(bundle.frame, candidate)
        return c, shifts, value
    return None


def perturbation_search(bundle: GraphFrameBundle, trials: int = 1000,
                        radius: float = 0.01, seed: int = 0) -> SearchResult:
    """Search the dual family for a smaller D^1 than the canonical dual's.

    Seeded and fully deterministic: ``trials`` shift stacks are drawn
    uniformly from per-component balls of the given radius, the canonical
    dual itself is always a candidate, and the best point is refined by
    cyclic coordinate descent followed by steepest descent for the max
    (moving against the minimum-norm point of the active products'
    gradients, which handles ties no single coordinate can improve).
    Both descents evaluate each probe in closed form from per-vertex
    quadratics instead of rebuilding the dual; the reported ``d1`` is
    recomputed from the full dual of the returned shifts.
    """
    if not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    k = bundle.frame.dim
    m = bundle.component_count
    comp = bundle.column_component
    a0 = bundle.canonical
    f_norms = np.linalg.norm(bundle.frame.synthesis, axis=0)

    def value(shifts):
        h = a0 + shifts[comp].T
        return float((np.linalg.norm(h, axis=0) * f_norms).max())

    canonical = value(np.zeros((m, k)))

    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((trials, m, k))
    radii = radius * rng.random((trials, m)) ** (1.0 / k)
    lengths = np.linalg.norm(gauss, axis=2)
    lengths[lengths == 0.0] = 1.0
    samples = gauss / lengths[:, :, None] * radii[:, :, None]
    batch = a0[None, :, :] + samples[:, comp, :].transpose(0, 2, 1)
    batch_vals = (np.linalg.norm(batch, axis=1) * f_norms).max(axis=1)

    best = np.zeros((m, k))
    pick = int(np.argmin(batch_vals))
    if value(samples[pick]) < canonical:
        best = samples[pick].copy()

    best = _coordinate_descent(bundle, best, radius)
    best = _minimax_descent(bundle, best, radius)
    best_val = value(best)

    improved = canonical - best_val > _IMPROVEMENT_TOL
    return SearchResult(best, best_val, canonical, improved, trials, radius, seed)


class _ShiftState:
    """Shifts ``x`` of the canonical dual together with, per component, the
    dual's columns ``h``, their squared norms ``sq`` and the largest weighted
    one ``top`` (``max w_i²|h_i|²`` with ``w_i = |f_i|``), kept current as
    single coordinates move. The squared objective is ``max(top)``."""

    def __init__(self, bundle: GraphFrameBundle, x):
        synthesis = bundle.frame.synthesis
        comp = bundle.column_component
        columns = [np.flatnonzero(comp == c) for c in range(bundle.component_count)]
        self.x = np.array(x, dtype=float)
        self.a0 = [bundle.canonical[:, cols] for cols in columns]
        self.w2 = [(synthesis[:, cols] ** 2).sum(axis=0) for cols in columns]
        self.h = [a + s[:, None] for a, s in zip(self.a0, self.x)]
        self.sq = [(h * h).sum(axis=0) for h in self.h]
        self.top = [float((w * q).max()) for w, q in zip(self.w2, self.sq)]

    def coordinate_probe(self, c: int, d: int):
        """The squared objective with ``x[c, d]`` set to ``t``, as a function
        of ``t``: only row ``d`` of component ``c``'s columns changes, so it
        is ``max(out², max_i w_i²(sq_i − h_di² + (a0_di + t)²))``, with
        ``out²`` the largest value over the other components."""
        out2 = max((top for j, top in enumerate(self.top) if j != c), default=0.0)
        w2, a = self.w2[c], self.a0[c][d]
        rest = self.sq[c] - self.h[c][d] ** 2
        return lambda t: max(out2, (w2 * (rest + (a + t) ** 2)).max())

    def move(self, c: int, d: int, t: float) -> None:
        """Set ``x[c, d] = t``, updating only component ``c``'s columns."""
        self.x[c, d] = t
        h = self.h[c]
        h[d] = self.a0[c][d] + t
        self.sq[c] = (h * h).sum(axis=0)
        self.top[c] = float((self.w2[c] * self.sq[c]).max())


def _line_probe(h: np.ndarray, w2: np.ndarray, u: np.ndarray):
    """The squared objective along the dual ``h + t·u`` as a function of
    ``t``: column ``i`` contributes ``w_i²|h_i + t·u_i|² = α_i + 2tβ_i +
    t²γ_i``, the per-component weighted 1-center form, so each probe is one
    O(n) expression in the precomputed ``α``, ``β`` and ``γ``."""
    alpha = w2 * (h * h).sum(axis=0)
    two_beta = 2.0 * w2 * (h * u).sum(axis=0)
    gamma = w2 * (u * u).sum(axis=0)
    return lambda t: (alpha + t * (two_beta + t * gamma)).max()


def _coordinate_descent(bundle, x, radius, passes: int = 40, steps: int = 60):
    """Cyclic coordinate descent, one trisection per shift coordinate; a
    move is kept when it lowers the objective. A component with no vertex
    at the maximum is skipped: moving it cannot lower the maximum."""
    state = _ShiftState(bundle, x)
    m, k = state.x.shape
    for _ in range(passes):
        gained = 0.0
        for c in range(m):
            for d in range(k):
                fx2 = max(state.top)
                if state.top[c] < fx2:
                    break  # and nothing changes for the rest of c's block
                probe = state.coordinate_probe(c, d)
                lo, hi = state.x[c, d] - radius, state.x[c, d] + radius
                for _ in range(steps):
                    third = (hi - lo) / 3.0
                    if probe(lo + third) <= probe(hi - third):
                        hi -= third
                    else:
                        lo += third
                t = 0.5 * (lo + hi)
                fy2 = probe(t)
                if fy2 < fx2:
                    gained += math.sqrt(fx2) - math.sqrt(fy2)
                    state.move(c, d, t)
        if gained < 1e-13:
            break
    return state.x


def _min_norm_in_hull(points: np.ndarray) -> np.ndarray:
    """Minimum-norm point of the convex hull of the given row vectors
    (Frank-Wolfe with exact line search; ample for a handful of points)."""
    x = points[0].copy()
    for _ in range(400):
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
    return x


def _minimax_descent(bundle, x, radius, iterations: int = 300):
    """Steepest descent for the max of the per-vertex products: the descent
    direction is the negated minimum-norm point of the active gradients,
    and the step is a trisection of the closed-form line probe."""
    k = bundle.frame.dim
    m = bundle.component_count
    comp = bundle.column_component
    a0 = bundle.canonical
    f_norms = np.linalg.norm(bundle.frame.synthesis, axis=0)
    w2 = (bundle.frame.synthesis ** 2).sum(axis=0)
    x = x.copy()
    for _ in range(iterations):
        h = a0 + x[comp].T
        h_norms = np.linalg.norm(h, axis=0)
        products = h_norms * f_norms
        top = float(products.max())
        active = np.where(products >= top - 1e-7 * max(1.0, top))[0]
        grads = np.zeros((active.size, m * k))
        for row, i in enumerate(active):
            block = int(comp[i]) * k
            grads[row, block:block + k] = f_norms[i] * h[:, i] / max(h_norms[i], 1e-300)
        direction = _min_norm_in_hull(grads)
        norm = float(np.linalg.norm(direction))
        if norm <= 1e-12:
            break
        unit = (-direction / norm).reshape(m, k)
        probe = _line_probe(h, w2, unit[comp].T)
        lo, hi = 0.0, radius
        for _ in range(80):
            third = (hi - lo) / 3.0
            if probe(lo + third) <= probe(hi - third):
                hi -= third
            else:
                lo += third
        t = 0.5 * (lo + hi)
        if math.sqrt(probe(t)) >= top - 1e-15:
            break
        x = x + t * unit
    return x


def canonical_verdict(bundle: GraphFrameBundle, trials: int = 1000, radius: float = 0.01,
                      seed: int = 0, tie_tol: float = _TIE_TOL,
                      group_tol: float = 1e-8) -> ErasureReport:
    """Optimality verdict for the canonical dual, first certificate wins:

    1. walk-regular graph — unique optimal dual for any number of erasures;
    2. constant products — same conclusion for any frame;
    3. connected with non-constant products — not optimal, with the
       independence/dependence witness;
    4. a walk-regular component attains the maximum product — optimal for
       one erasure, possibly not uniquely (a tie dual is attached whenever
       some component avoids the argmax set entirely);
    5. otherwise inconclusive; the report carries the best dual a seeded
       search of the shift family could find.
    """
    products = canonical_products(bundle)
    d1 = float(products.max())
    lam1 = lambda1_set(bundle, tie_tol)
    certificate = constancy_certificate(bundle, tie_tol)
    report = dict(
        d1_canonical=d1,
        per_vertex_products=products,
        lambda1=lam1,
        constancy=certificate,
        search_best=None,
    )

    if is_walk_regular(bundle.graph, group_tol).is_walk_regular:
        basis = {"certificate": "walk_regular_graph", "uniqueness": "unique"}
        return ErasureReport(verdict=VERDICT_UNIQUE_ALL, verdict_basis=basis, **report)

    if certificate.is_constant:
        basis = {
            "certificate": "constant_norm_products",
            "uniqueness": "unique",
            "spread": certificate.spread,
        }
        return ErasureReport(verdict=VERDICT_UNIQUE_ALL, verdict_basis=basis, **report)

    if bundle.graph.is_connected:
        witness = non_optimality_witness(bundle, tie_tol)
        if witness is None:
            raise RuntimeError(
                "connected graph with non-constant products must yield a witness; this is a bug"
            )
        basis = {
            "certificate": "independent_argmax_with_global_dependence",
            "witness_vertices": list(witness.vertices),
            "dependence_residual": witness.dependence_residual,
        }
        return ErasureReport(verdict=VERDICT_NOT_OD, verdict_basis=basis, **report)

    lam1_vertices = set(lam1)
    for c, members in enumerate(bundle.graph.components):
        if lam1_vertices.isdisjoint(members):
            continue
        sub = _component_subgraph(bundle.graph, members)
        if not is_walk_regular(sub, group_tol).is_walk_regular:
            continue
        basis = {"certificate": "walk_regular_component_attains_max", "component": c}
        tie = _tie_dual(bundle, lam1_vertices)
        if tie is not None:
            tie_component, tie_shifts, tie_value = tie
            basis["uniqueness"] = "not_unique"
            basis["tie_component"] = tie_component
            basis["tie_shifts"] = tie_shifts.tolist()
            basis["tie_d1"] = tie_value
        else:
            basis["uniqueness"] = "unresolved"
        return ErasureReport(verdict=VERDICT_OD_SINGLE, verdict_basis=basis, **report)

    search = perturbation_search(bundle, trials, radius, seed)
    report["search_best"] = search
    basis = {"certificate": "none", "search_improved": search.improved}
    return ErasureReport(verdict=VERDICT_INCONCLUSIVE, verdict_basis=basis, **report)
