"""Worst-case erasure diagnostics and optimal-dual verdicts.

Losing the frame coefficients indexed by a set Λ leaves a reconstruction
error operator; its worst operator norm over all r-subsets, written D^r,
measures how badly a dual frame can fail under r erasures. For a single
erasure the norm factorizes, so D^1 is just the largest product
``|f_i| * |h_i|``, and the canonical dual is the best dual exactly when
those products are constant — for connected graphs this is an if and only
if, certified by the argmax vectors being independent (a column set is
dependent exactly when it holds a whole component) while all vectors sum
to zero. Each component minimises its own maximum, so a disconnected graph's
canonical dual is optimal for one erasure when a component that attains
the maximum has constant products. The verdict is decided by such
certificates alone and never searches; :func:`perturbation_search`
separately searches the dual family (one shift vector per component, which
exhausts all duals of a graph frame) for something strictly better, by
steepest descent from the canonical dual.

Every function here takes a dual as a plain ``k x n`` matrix whose column
``i`` is ``h_i``; the canonical dual's is ``GraphFrameBundle.canonical``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .exceptions import EnumerationGuardError
from .frames import Frame, GraphFrameBundle, _dual_matrix, d1_fast, dual_family_member
from .graphs import is_regular
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
#: Largest exhaustive subset enumeration :func:`d_r` runs.
DR_GUARD = 10**6
#: Subsets evaluated per batch of stacked r×r Gramian blocks.
_CHUNK = 4096


@dataclass(frozen=True, eq=False)
class ConstancyCertificate:
    is_constant: bool
    spread: float


@dataclass(frozen=True, eq=False)
class SearchResult:
    """Best dual found over the shift family; ``improved`` means it beats
    the canonical D^1 by more than 1e-9."""

    shifts: np.ndarray
    d1: float
    canonical_d1: float
    improved: bool


@dataclass(frozen=True, eq=False)
class ErasureReport:
    """Single-erasure diagnostics of the canonical dual, in vertex order,
    plus the optimality verdict and the certificate behind it: the products
    ``|f_i| * |S^-1 f_i|``, their argmax set ``lambda1`` (products within a
    relative 1e-9 of the maximum tie) and their ``constancy``."""

    d1_canonical: float
    per_vertex_products: np.ndarray
    lambda1: tuple
    constancy: ConstancyCertificate
    verdict: str
    verdict_basis: dict


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


def d_r(frame: Frame, dual, r: int) -> tuple:
    """Exhaustive D^r: the largest error-operator norm over all r-subsets.

    Returns ``(value, subset)``: the maximum, from one r×r eigenproblem on
    Gramian blocks per subset, and the first r-subset of frame columns in
    ``combinations`` order whose norm is within a relative 1e-9 of it, so
    rounding never picks among tied subsets. Beyond the fixed guard
    ``DR_GUARD`` (10^6 subsets) it raises :class:`EnumerationGuardError`
    rather than subsample; :func:`d_r_lower_bound` is the sampled bound.
    """
    h = _dual_matrix(frame, dual)
    _check_r(frame, r)
    total = math.comb(frame.count, r)
    if total > DR_GUARD:
        raise EnumerationGuardError(
            f"D^{r} needs {total} subsets (guard {DR_GUARD}); use d_r_lower_bound to sample"
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


def _canonical_norms(bundle: GraphFrameBundle) -> tuple:
    """Column norms ``(|f_i|, |S^-1 f_i|)`` of the frame and its canonical dual."""
    return (np.linalg.norm(bundle.frame.synthesis, axis=0),
            np.linalg.norm(bundle.canonical, axis=0))


def _constancy(products: np.ndarray) -> ConstancyCertificate:
    """Whether ``products`` are constant: their spread is at most 1e-9 times
    ``max(1, largest product)``."""
    spread = float(products.max() - products.min())
    return ConstancyCertificate(spread <= _TIE_TOL * max(1.0, float(products.max())), spread)


def _tie_dual(bundle: GraphFrameBundle, lambda1: set, norms: tuple):
    """A different dual attaining exactly the canonical D^1, built by
    shifting one component whose vertices all sit strictly below the
    maximum product; ``None`` when every component touches the argmax.
    ``norms`` are the :func:`_canonical_norms` of the bundle."""
    f_norms, h_norms = norms
    top = float((f_norms * h_norms).max())
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
        return c, shifts, d1_fast(bundle.frame, dual_family_member(bundle, shifts))[0]
    return None


def perturbation_search(bundle: GraphFrameBundle) -> SearchResult:
    """Search the dual family for a smaller D^1 than the canonical dual's.

    Deterministic and free of parameters: steepest descent for the maximum
    of the per-vertex products, started at the canonical dual (zero
    shifts), see :func:`_minimax_descent`. D^1 is convex in the shifts, so
    a point where no direction lowers it is a global minimum. The reported
    ``d1`` is that of the verified dual of the returned shifts.
    """
    canonical, _ = d1_fast(bundle.frame, bundle.canonical)
    best = _minimax_descent(bundle)
    best_val, _ = d1_fast(bundle.frame, dual_family_member(bundle, best))
    return SearchResult(best, best_val, canonical, canonical - best_val > _IMPROVEMENT_TOL)


def _line_quadratics(h: np.ndarray, w2: np.ndarray, u: np.ndarray) -> tuple:
    """The squared objective along the dual ``h + t·u``: column ``i``
    contributes ``w_i²|h_i + t·u_i|² = α_i + 2tβ_i + t²γ_i``, the
    per-component weighted 1-center form. Returns ``(α, 2β, γ)``."""
    alpha = w2 * (h * h).sum(axis=0)
    two_beta = 2.0 * w2 * (h * u).sum(axis=0)
    gamma = w2 * (u * u).sum(axis=0)
    return alpha, two_beta, gamma


def _envelope_minimiser(c0, c1, c2, lo: float, hi: float) -> tuple:
    """The exact minimiser on ``[lo, hi]`` of the upper envelope ``max_i
    c0_i + c1_i·s + c2_i·s²`` of parabolas with ``c2_i ≥ 0`` (lines and
    constants included), and the minimum: ``(s, value)``.

    The envelope is convex, so its minimum lies at a bracket end, at a
    parabola's vertex or where two parabolas cross. The envelope never falls
    below the largest of the parabolas' minima on the bracket, so a parabola
    whose largest value there (at an end) is below it never reaches the
    envelope and is dropped. Among the ends and the remaining vertices, in
    order, those within a relative 1e-9 of the best value count as tied, so
    neither rounding nor a repeated point picks among them: the minimiser
    lies between the neighbours of the tied run. No vertex lies between
    consecutive points, so a minimiser there is a crossing of two parabolas
    that reach the envelope, and only those crossings are evaluated. A step
    costs O(q·v) for q parabolas and v vertices, plus the pairs among the
    few parabolas that reach the envelope between the neighbours.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lowest = np.fmin(np.fmax(-0.5 * c1 / c2, lo), hi)  # lines go to an end, constants to lo
        floor = (c0 + lowest * (c1 + lowest * c2)).max()
        ends = np.maximum(c0 + lo * (c1 + lo * c2), c0 + hi * (c1 + hi * c2))
        keep = ends >= floor
        c0, c1, c2 = c0[keep], c1[keep], c2[keep]
        points = np.sort(np.concatenate(([lo, hi], lowest[keep])))
        grid = c0 + points[:, None] * (c1 + points[:, None] * c2)
        values = grid.max(axis=1)
        j = int(np.argmin(values))
        tied = np.flatnonzero(values <= values[j] + _TIE_TOL * abs(values[j]))
        left, right = max(tied[0] - 1, 0), min(tied[-1] + 1, len(points) - 1)
        # monotone between consecutive points: a parabola's extremes on
        # [left, right] are among its values at the points there
        near = grid[left:right + 1]
        reach = np.maximum(near[0], near[-1]) >= near.min(axis=0).max()
        c0, c1, c2 = c0[reach], c1[reach], c2[reach]
        quad = np.subtract.outer(c2, c2)
        half = 0.5 * np.subtract.outer(c1, c1)
        const = np.subtract.outer(c0, c0)
        # the two roots of quad·s² + 2·half·s + const, without cancellation
        root = half + np.copysign(np.sqrt(half * half - quad * const), half)
        crossings = np.concatenate(((-root / quad).ravel(), (-const / root).ravel()))
        crossings = crossings[(crossings > points[left]) & (crossings < points[right])]
    if crossings.size:
        between = (c0 + crossings[:, None] * (c1 + crossings[:, None] * c2)).max(axis=1)
        i = int(np.argmin(between))
        if between[i] < values[j]:
            return float(crossings[i]), float(between[i])
    return float(points[j]), float(values[j])


#: Wolfe's stopping rule: the hull point is optimal once no point lies more
#: than this fraction of the largest squared point norm below ``|x|²``.
_HULL_TOL = 1e-14


def _affine_min_norm(points: np.ndarray) -> np.ndarray:
    """Weights ``μ`` with ``Σμ = 1`` minimising ``|μ @ points|``, from the
    bordered normal equations ``[G 1; 1ᵀ 0]``, solved by least squares so
    that affinely dependent points (duplicates, say) still get weights."""
    count = len(points)
    system = np.ones((count + 1, count + 1))
    system[:count, :count] = points @ points.T
    system[count, count] = 0.0
    rhs = np.zeros(count + 1)
    rhs[count] = 1.0
    return np.linalg.lstsq(system, rhs, rcond=None)[0][:count]


def _min_norm_in_hull(points: np.ndarray) -> tuple:
    """Minimum-norm point of the convex hull of the given row vectors and
    its convex weights over them, by Wolfe's algorithm ("Finding the nearest
    point in a polytope", Math. Programming 1976): keep a corral of points
    whose affine minimum-norm point has positive weights, add the point
    most opposed to the current ``x`` and, while some weight turns
    non-positive, step back to the corral's boundary and drop that point.
    Returns ``(x, weights)``; ``weights`` has one entry per point."""
    scaled = points / max(float(np.linalg.norm(points, axis=1).max()), 1e-300)
    corral = [int(np.argmin((scaled * scaled).sum(axis=1)))]
    weights = np.ones(1)
    x = scaled[corral[0]]
    for _ in range(4 * len(points) + 8):  # finite in exact arithmetic; caps rounding cycles
        dots = scaled @ x
        j = int(np.argmin(dots))
        if float(x @ x) - dots[j] <= _HULL_TOL or j in corral:
            break
        corral.append(j)
        weights = np.append(weights, 0.0)
        while True:
            mu = _affine_min_norm(scaled[corral])
            if (mu > _HULL_TOL).all():
                weights = mu
                break
            # step from the weights towards μ until the first weight reaches
            # zero (at once for an entering point whose μ is not positive)
            shrinking = np.flatnonzero(mu <= _HULL_TOL)
            gaps = np.maximum(weights[shrinking] - mu[shrinking], 1e-300)
            ratio = weights[shrinking] / gaps
            weights = weights + float(ratio.min()) * (mu - weights)
            live = weights > _HULL_TOL
            live[shrinking[np.argmin(ratio)]] = False
            corral = [p for p, alive in zip(corral, live) if alive]
            weights = weights[live] / weights[live].sum()
        x = weights @ scaled[corral]
        if j not in corral:
            break  # rounding refused the entering point: x is optimal to rounding
    full = np.zeros(len(points))
    full[corral] = weights
    return full @ points, full


#: The descent's line-step bracket ``[0, _LINE_BRACKET]`` and step cap.
_LINE_BRACKET = 0.01
_MAX_STEPS = 300
#: The active band, relative to ``max(1, top)``, starts at 10^-7 and is
#: refined tenfold down to 10^-13.
_BAND_START, _BAND_FLOOR = 7, 13


def _minimax_descent(bundle: GraphFrameBundle) -> np.ndarray:
    """Steepest descent for the max of the per-vertex products, from zero
    shifts: the descent direction is the negated minimum-norm point of the
    gradients of the products in the active band below the top, and the
    step moves to the exact minimiser of the closed-form line probe on
    ``[0, _LINE_BRACKET]`` (:func:`_envelope_minimiser` on the quadratics
    of :func:`_line_quadratics`). When the direction vanishes or the step
    does not lower the maximum, the band narrows tenfold, so the descent
    does not stop at points that are only stationary within the band; it
    stops at the band floor or after ``_MAX_STEPS`` steps, each narrowing
    counted as one.
    """
    k = bundle.frame.dim
    m = bundle.component_count
    comp = bundle.column_component
    a0 = bundle.canonical
    f_norms = np.linalg.norm(bundle.frame.synthesis, axis=0)
    w2 = (bundle.frame.synthesis ** 2).sum(axis=0)
    x = np.zeros((m, k))
    band = _BAND_START
    for _ in range(_MAX_STEPS):
        h = a0 + x[comp].T
        h_norms = np.linalg.norm(h, axis=0)
        products = h_norms * f_norms
        top = float(products.max())
        active = np.where(products >= top - 10.0 ** -band * max(1.0, top))[0]
        grads = np.zeros((active.size, m * k))
        blocks = comp[active][:, None] * k + np.arange(k)
        grads[np.arange(active.size)[:, None], blocks] = (
            f_norms[active] * h[:, active] / np.maximum(h_norms[active], 1e-300)).T
        direction, _ = _min_norm_in_hull(grads)
        norm = float(np.linalg.norm(direction))
        if norm > 1e-12:
            unit = (-direction / norm).reshape(m, k)
            t, value = _envelope_minimiser(*_line_quadratics(h, w2, unit[comp].T),
                                           0.0, _LINE_BRACKET)
            if math.sqrt(value) < top - 1e-15:
                x = x + t * unit
                continue
        if band == _BAND_FLOOR:
            break
        band += 1
    return x


def canonical_verdict(bundle: GraphFrameBundle) -> ErasureReport:
    """Optimality verdict for the canonical dual, first certificate wins:

    1. walk-regular graph — unique optimal dual for any number of erasures;
    2. constant products — same conclusion for any frame;
    3. connected with non-constant products — not optimal: the argmax
       vectors are independent, yet all vectors sum to zero;
    4. a component that attains the maximum product has constant products —
       optimal for one erasure, because each component minimises its own
       maximum; possibly not uniquely (a tie dual is attached whenever some
       component avoids the argmax set entirely);
    5. otherwise inconclusive; no certificate applies, and the verdict
       never searches (:func:`perturbation_search` does).

    Products within a relative 1e-9 tie; eigenvalues group within 1e-8.
    """
    norms = _canonical_norms(bundle)
    products = norms[0] * norms[1]
    d1 = float(products.max())
    lam1 = tuple(int(v) for v in np.flatnonzero(products >= d1 * (1.0 - _TIE_TOL)))
    certificate = _constancy(products)
    report = dict(
        d1_canonical=d1,
        per_vertex_products=products,
        lambda1=lam1,
        constancy=certificate,
    )

    # walk-regular implies regular (diag A² is the degree sequence), and the
    # census of an irregular graph fails at power 2, so it is skipped there;
    # the bundle's nonzero Laplacian eigenvalues and one zero per component
    # give the adjacency spectrum without a second eigensolve
    laplacian_eigenvalues = np.concatenate([bundle.eigenvalues, np.zeros(bundle.component_count)])
    if (is_regular(bundle.graph) is not None
            and is_walk_regular(bundle.graph, laplacian_eigenvalues).is_walk_regular):
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
        # non-constant products leave some vertex out of the argmax set, and
        # a column set missing a vertex of a connected graph is independent
        # (see spark_via_components); all n columns sum to zero
        all_ones = np.ones(bundle.frame.count)
        basis = {
            "certificate": "independent_argmax_with_global_dependence",
            "witness_vertices": list(lam1),
            "dependence_residual": float(np.abs(bundle.frame.synthesis @ all_ones).max()),
        }
        return ErasureReport(verdict=VERDICT_NOT_OD, verdict_basis=basis, **report)

    lam1_vertices = set(lam1)
    for c, members in enumerate(bundle.graph.components):
        if lam1_vertices.isdisjoint(members):
            continue
        component = _constancy(products[list(members)])
        if not component.is_constant:
            continue
        basis = {"certificate": "constant_component_attains_max", "component": c,
                 "spread": component.spread}
        tie = _tie_dual(bundle, lam1_vertices, norms)
        if tie is not None:
            tie_component, tie_shifts, tie_value = tie
            basis["uniqueness"] = "not_unique"
            basis["tie_component"] = tie_component
            basis["tie_shifts"] = tie_shifts.tolist()
            basis["tie_d1"] = tie_value
        else:
            basis["uniqueness"] = "unresolved"
        return ErasureReport(verdict=VERDICT_OD_SINGLE, verdict_basis=basis, **report)

    basis = {"certificate": "none"}
    return ErasureReport(verdict=VERDICT_INCONCLUSIVE, verdict_basis=basis, **report)
