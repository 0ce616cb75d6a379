"""Finite frames generated by graph Laplacians.

A graph on n vertices with p components yields a frame of n vectors in
dimension k = n - p: scale the first k Laplacian eigenvector columns by
the square roots of the nonzero eigenvalues and read the vectors off the
columns of the resulting k-by-n synthesis matrix, column ``v`` being
vertex ``v``. The eigendecomposition is taken of the Laplacian permuted
into component order, one contiguous block per component, so the basis
does not change when the components' labels interleave. The Gramian of
that frame reproduces the Laplacian exactly, the frame operator is the
diagonal of nonzero eigenvalues, and each component's vectors sum to
zero.

A dual frame is a plain read-only ``k x n`` matrix whose column ``v`` is
the dual vector of vertex ``v``. The canonical dual ``S^-1 F`` is formed
once, as :attr:`GraphFrameBundle.canonical`; every other dual of a graph
frame adds one shift vector per component to it
(:func:`dual_family_member`), and :func:`verify_dual` gives the residual
of the duality identity for any matrix.

The frame is determined only up to an orthogonal change of basis, so all
diagnostics exposed by this package are basis invariants. The frame is
full spark, every ``dim``-subset a basis, exactly when
``spark(frame) == frame.dim + 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice

import numpy as np

from .exceptions import ConvergenceError, EnumerationGuardError
from .graphs import Graph, degree_sequence, laplacian_matrix
from .linalg import eigh_symmetric, numerical_rank

_GRAMIAN_TOL = 1e-8
_NORM_TOL = 1e-9
#: Duality residual allowed per unit of the dual's D^1 (at least one unit).
_DUALITY_TOL = 1e-8
#: Largest subset enumeration :func:`spark` runs.
_SPARK_GUARD = 2_000_000
#: Float64 entries per batch of stacked column blocks in :func:`spark` (128 KB).
_CHUNK_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class Frame:
    """A spanning sequence of ``count`` vectors in dimension ``dim``,
    stored as the columns of a ``dim x count`` synthesis matrix.

    The vectors span when the frame operator ``S`` has smallest eigenvalue
    above ``1e-12 * max(1, largest)``. Gershgorin's discs bound every
    eigenvalue of ``S`` between ``min_i(S_ii − r_i)`` and ``max_i(S_ii +
    r_i)``, with ``r_i`` the off-diagonal absolute row sum. When the lower
    bound clears twice the threshold taken at the upper bound, spanning is
    proved with room for rounding; this is the case for graph frames, whose
    ``S`` is diagonal. Otherwise ``eigvalsh`` decides.
    """

    synthesis: np.ndarray

    def __post_init__(self):
        arr = np.array(self.synthesis, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"synthesis must be a matrix, got ndim {arr.ndim}")
        k, n = arr.shape
        if k < 1 or n < k:
            raise ValueError(f"need count >= dim >= 1, got dim {k}, count {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("synthesis entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "synthesis", arr)
        s = self.frame_operator
        diag = np.diag(s)
        radii = np.abs(s).sum(axis=1) - np.abs(diag)
        if (diag - radii).min() > 2e-12 * max(1.0, float((diag + radii).max())):
            return
        eigenvalues = np.linalg.eigvalsh(s)
        if eigenvalues[0] <= 1e-12 * max(1.0, float(eigenvalues[-1])):
            raise ValueError("frame vectors do not span: frame operator is singular")

    @property
    def dim(self) -> int:
        return self.synthesis.shape[0]

    @property
    def count(self) -> int:
        return self.synthesis.shape[1]

    @cached_property
    def frame_operator(self) -> np.ndarray:
        s = self.synthesis @ self.synthesis.T
        s.setflags(write=False)
        return s

    @cached_property
    def gramian(self) -> np.ndarray:
        g = self.synthesis.T @ self.synthesis
        g.setflags(write=False)
        return g


@dataclass(frozen=True, eq=False)
class GraphFrameBundle:
    """A graph and the frame it generates; frame column ``v`` is vertex ``v``.

    ``eigenvalues`` holds the ``k`` nonzero Laplacian eigenvalues in
    descending order, which are the diagonal of the frame operator;
    ``gramian_residual`` is the largest entry of ``|FᵀF − L|``, measured
    when the frame was built.
    """

    graph: Graph
    frame: Frame
    eigenvalues: np.ndarray
    gramian_residual: float

    @property
    def component_count(self) -> int:
        return len(self.graph.components)

    @cached_property
    def column_component(self) -> np.ndarray:
        """Index into ``graph.components`` of each vertex's component."""
        comp = np.empty(self.graph.n, dtype=np.intp)
        for c, members in enumerate(self.graph.components):
            comp[list(members)] = c
        return comp

    @cached_property
    def canonical(self) -> np.ndarray:
        """The canonical dual ``S^-1 F``: column ``v`` is ``S^-1 f_v``."""
        h = self.frame.synthesis / self.eigenvalues[:, None]
        h.setflags(write=False)
        return h


def _reject_isolated_vertices(g: Graph, first_label: int = 0):
    """Name the first isolated vertex, labelling vertex 0 as ``first_label``."""
    for comp in g.components:
        if len(comp) == 1:
            raise ValueError(
                f"vertex {comp[0] + first_label} is isolated; a zero Gramian row leaves no "
                "frame vector, so graphs with isolated vertices (or no edges at all) are rejected"
            )


def build_lg_frame(g: Graph) -> GraphFrameBundle:
    """Build the frame generated by ``g`` from its Laplacian eigendecomposition.

    Every component must contain an edge. The Laplacian is decomposed with
    its rows and columns permuted into component order (the components
    concatenated), so the eigenbasis does not depend on how the components'
    labels interleave; the columns are then put back in the caller's vertex
    order. The returned bundle checks its own contract: Gramian equals the
    Laplacian, squared vector norms equal the degrees, and the frame
    operator is the diagonal of nonzero Laplacian eigenvalues.
    """
    _reject_isolated_vertices(g)
    lap = laplacian_matrix(g)
    order = [v for comp in g.components for v in comp]
    spectrum = eigh_symmetric(lap[np.ix_(order, order)])
    p = len(g.components)
    k = g.n - p
    zeros = g.n - spectrum.nonzero_count
    if zeros != p:
        raise ConvergenceError(
            f"Laplacian has {zeros} numerically zero eigenvalues but the graph has {p} components"
        )
    eigenvalues = spectrum.eigenvalues[:k]
    synthesis = np.sqrt(eigenvalues)[:, None] * spectrum.eigenvectors[:, :k].T
    # np.take returns a C-ordered array; fancy indexing would return an
    # F-ordered one, whose column reductions round differently.
    frame = Frame(np.take(synthesis, np.argsort(order), axis=1))

    gram_err = float(np.abs(frame.gramian - lap).max())
    norm_err = float(np.abs(np.diag(frame.gramian) - degree_sequence(g)).max())
    s = frame.frame_operator
    s_off = float(np.abs(s - np.diag(np.diag(s))).max())
    s_diag_err = float(np.abs(np.diag(s) - eigenvalues).max())
    if gram_err > _GRAMIAN_TOL or norm_err > _NORM_TOL or s_off > _NORM_TOL or s_diag_err > _NORM_TOL:
        raise ConvergenceError(
            f"frame construction missed its tolerances (gramian {gram_err:.2e}, "
            f"norms {norm_err:.2e}, operator {max(s_off, s_diag_err):.2e})"
        )
    return GraphFrameBundle(g, frame, eigenvalues, gram_err)


def canonical_dual(bundle: GraphFrameBundle) -> np.ndarray:
    """The canonical dual ``bundle.canonical``, verified: zero shifts."""
    return dual_family_member(bundle, np.zeros((bundle.component_count, bundle.frame.dim)))


def dual_family_member(bundle: GraphFrameBundle, shifts) -> np.ndarray:
    """The dual whose column for vertex ``i`` is ``S^-1 f_i`` plus the shift
    vector of that vertex's component, as a read-only ``k x n`` matrix.

    Every member of this family is a dual because each component's frame
    vectors sum to zero; the duality identity is still verified, within
    ``1e-8 * max(1, D^1)`` because its rounding grows with the products, and
    a violation raises, since it can only mean an internal bug. Shifts that
    are not finite, or whose products overflow, raise ``ValueError``.
    """
    try:
        shifts = np.asarray(shifts, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError("shift entries must be finite") from None
    expected = (bundle.component_count, bundle.frame.dim)
    if shifts.shape != expected:
        raise ValueError(f"expected shifts of shape {expected}, got {shifts.shape}")
    h = bundle.canonical + shifts[bundle.column_component].T
    h.setflags(write=False)
    with np.errstate(over="ignore"):
        scale, _ = d1_fast(bundle.frame, h)
    if not math.isfinite(scale):  # non-finite shifts give non-finite products
        raise ValueError("shift entries must be finite, and the products |f_i| * |h_i| "
                         "must not overflow")
    residual = verify_dual(bundle.frame, h)
    if residual > _DUALITY_TOL * max(1.0, scale):
        raise RuntimeError(
            f"duality identity violated (residual {residual:.2e}); this is a bug"
        )
    return h


def _dual_matrix(frame: Frame, dual) -> np.ndarray:
    """``dual`` as a float matrix, which must have the frame's shape."""
    h = np.asarray(dual, dtype=float)
    if h.shape != frame.synthesis.shape:
        raise ValueError(f"expected dual of shape {frame.synthesis.shape}, got {h.shape}")
    return h


def verify_dual(frame: Frame, dual_matrix) -> float:
    """Max-entry residual of the duality identity: sum of h_i f_i^T minus I."""
    h = _dual_matrix(frame, dual_matrix)
    return float(np.abs(h @ frame.synthesis.T - np.eye(frame.dim)).max())


def d1_fast(frame: Frame, dual) -> tuple:
    """D^1 via the rank-one factorization: the largest ``|f_i| * |h_i|``.
    Returns ``(value, per-column products)``."""
    h = _dual_matrix(frame, dual)
    products = np.linalg.norm(frame.synthesis, axis=0) * np.linalg.norm(h, axis=0)
    return float(products.max()), products


def spark(frame: Frame) -> int:
    """Size of the smallest linearly dependent column subset, by enumeration.

    Returns ``dim + 1`` when every subset of at most ``dim`` columns is
    independent (the full spark convention). Sizes are tried smallest
    first; the subsets of one size are taken in ``combinations`` order and
    ranked as stacked ``dim x s`` column blocks, one batched SVD per chunk
    of at most 2^14 entries, with the relative singular-value threshold of
    :func:`gframes.linalg.numerical_rank`. Raises
    :class:`EnumerationGuardError` when the subsets of at most ``dim``
    columns number more than the fixed guard ``_SPARK_GUARD`` (2·10^6) —
    for graph frames, use :func:`spark_via_components` instead.
    """
    k, n = frame.dim, frame.count
    budget = sum(math.comb(n, s) for s in range(1, k + 1))
    if budget > _SPARK_GUARD:
        raise EnumerationGuardError(
            f"spark enumeration needs {budget} subsets (guard {_SPARK_GUARD}); "
            "for a graph frame, spark_via_components gives the answer directly"
        )
    for s in range(1, k + 1):
        subsets = combinations(range(n), s)
        step = max(1, _CHUNK_ENTRIES // (k * s))
        while chunk := list(islice(subsets, step)):
            blocks = np.take(frame.synthesis, chunk, axis=1).swapaxes(0, 1)
            if np.any(numerical_rank(blocks) < s):
                return s
    return k + 1


def spark_via_components(g: Graph) -> int:
    """Spark of the frame generated by ``g``: the smallest component order.

    The frame's Gramian is the Laplacian, so the columns indexed by Λ are
    dependent exactly when ``L[Λ,Λ]`` is singular, and

        xᵀL[Λ,Λ]x = Σ_{uv ∈ E(G[Λ])} (x_u − x_v)² + Σ_{v ∈ Λ} d_out(v)·x_v²,

    with ``d_out(v)`` the number of neighbours of ``v`` outside Λ. A null
    vector is constant on each component of ``G[Λ]`` and zero wherever an
    edge leaves Λ, so a column set is dependent exactly when it contains a
    whole component of ``g``: each component's vectors sum to zero.
    """
    _reject_isolated_vertices(g)
    return min(len(comp) for comp in g.components)

