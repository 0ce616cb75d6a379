"""Dense symmetric eigensolver and the matrix utilities built on it.

The eigensolver is LAPACK's symmetric driver (``np.linalg.eigh``) wrapped
in a deterministic contract: stable descending eigenvalue sort, a sign
convention that makes each eigenvector's largest-magnitude entry
positive, and an orthogonality and reconstruction check whose failure,
like a LAPACK failure, raises :class:`ConvergenceError`. Everything
downstream that reports numbers is invariant under the remaining basis
freedom.

Scalars are real throughout: every matrix this package constructs is real
symmetric, so real orthogonal eigenvector bases always exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .exceptions import ConvergenceError

_INT64_MAX = 2**63 - 1


@dataclass(frozen=True, eq=False)
class SymmetricSpectrum:
    """Eigendecomposition of a real symmetric matrix.

    ``eigenvalues`` are non-increasing; column ``j`` of ``eigenvectors``
    pairs with ``eigenvalues[j]``. Eigenvalues with ``|lam| <= zero_tol``
    are treated as exactly zero by consumers (pseudoinverse, rank counts).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tol: float

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def nonzero_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) > self.zero_tol))


def _require_square(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def eigh_symmetric(m, zero_tol: Optional[float] = None) -> SymmetricSpectrum:
    """Eigendecomposition of a real symmetric matrix via LAPACK (``np.linalg.eigh``).

    The input must be symmetric up to a 1e-12 entrywise slack (it is
    symmetrized by averaging before the solve). ``zero_tol`` defaults to
    ``1e-9 * max(1, max |eigenvalue|)``. Raises :class:`ConvergenceError`
    when LAPACK fails or the result misses its accuracy contract.
    """
    a = _require_square(m)
    scale = float(np.abs(a).max()) if a.size else 0.0
    asym = float(np.abs(a - a.T).max()) if a.size else 0.0
    if asym > 1e-12 * max(1.0, scale):
        raise ValueError(f"matrix is not symmetric within tolerance (deviation {asym:.2e})")
    sym = 0.5 * (a + a.T)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolve failed: {exc}") from None
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    columns = np.arange(vecs.shape[1])
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs[:, vecs[lead, columns] < 0.0] *= -1.0
    lam_scale = max(1.0, float(np.abs(vals).max()) if vals.size else 0.0)
    if zero_tol is None:
        zero_tol = 1e-9 * lam_scale
    ortho_err = float(np.abs(vecs.T @ vecs - np.eye(a.shape[0])).max())
    recon_err = float(np.abs((vecs * vals) @ vecs.T - sym).max())
    if ortho_err > 1e-10 or recon_err > 1e-9 * lam_scale:
        raise ConvergenceError(
            f"eigensolve accuracy contract violated "
            f"(orthogonality {ortho_err:.2e}, reconstruction {recon_err:.2e})"
        )
    return SymmetricSpectrum(vals, vecs, float(zero_tol))


def moore_penrose(m, zero_tol: Optional[float] = None) -> np.ndarray:
    """Pseudoinverse of a symmetric matrix: invert the nonzero eigenvalues,
    zero out the rest, and rebuild in the same eigenbasis."""
    spectrum = eigh_symmetric(m, zero_tol)
    vals = spectrum.eigenvalues
    inverted = np.zeros_like(vals)
    keep = np.abs(vals) > spectrum.zero_tol
    inverted[keep] = 1.0 / vals[keep]
    return (spectrum.eigenvectors * inverted) @ spectrum.eigenvectors.T


def spectral_norm(m) -> float:
    """Largest singular value, as the square root of the top eigenvalue of m^T m."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {a.ndim}")
    if a.size == 0:
        return 0.0
    gram = a.T @ a
    top = float(eigh_symmetric(gram).eigenvalues[0])
    return math.sqrt(max(top, 0.0))


def numerical_rank(m, tol: float = 1e-8) -> int:
    """Number of singular values above ``tol * max(1, largest singular value)``."""
    a = np.asarray(m, dtype=float)
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(svals > tol * max(1.0, float(svals[0]))))


def _exact_power_diagonals(m_int: np.ndarray, p_max: int) -> Iterator[list]:
    """Yield the diagonals of m, m^2, ..., m^p_max in exact integer arithmetic,
    one power at a time, so a caller can stop early.

    Entries are kept as arbitrary-precision ints but must stay inside the
    signed 64-bit range; exceeding it raises OverflowError rather than ever
    wrapping around.
    """
    base = m_int.astype(object)
    power = base
    for p in range(1, p_max + 1):
        if p > 1:
            power = power @ base
        flat = [abs(x) for x in power.ravel().tolist()]
        if flat and max(flat) > _INT64_MAX:
            raise OverflowError(f"integer matrix power overflows 64-bit range at power {p}")
        yield [int(x) for x in power.diagonal().tolist()]


def matrix_power_diagonal(m, p: int, exact: Optional[bool] = None) -> list:
    """Diagonal of ``m^p`` by repeated multiplication.

    Integer-valued input is raised exactly by default (closed-walk counts
    are integers) and a 64-bit overflow raises rather than wrapping; pass
    ``exact=False`` to force float arithmetic instead. ``exact=True`` on a
    non-integral matrix is an error.
    """
    a = _require_square(m)
    if not isinstance(p, int) or p < 1:
        raise ValueError(f"power must be a positive integer, got {p!r}")
    integral = bool(np.array_equal(a, np.rint(a)))
    if exact is None:
        exact = integral
    elif exact and not integral:
        raise ValueError("exact integer powers need an integer-valued matrix")
    if exact:
        try:
            for diag in _exact_power_diagonals(np.rint(a).astype(np.int64), p):
                pass
            return diag
        except OverflowError as exc:
            raise OverflowError(
                f"{exc}; pass exact=False for inexact float arithmetic"
            ) from None
    power = a.copy()
    for _ in range(p - 1):
        power = power @ a
    return [float(x) for x in power.diagonal()]


def generalized_vandermonde_det(values) -> float:
    """Closed form for det of the matrix with rows (a_1^p, ..., a_n^p), p = 1..n:
    the product of all a_i times the product of all pairwise differences a_i - a_j, i > j."""
    a = np.asarray(values, dtype=float)
    if a.ndim != 1 or a.size < 1:
        raise ValueError("expected a nonempty 1-D sequence")
    if not np.all(np.isfinite(a)):
        raise ValueError("values must be finite")
    det = float(np.prod(a))
    n = a.size
    for i in range(n):
        for j in range(i):
            det *= a[i] - a[j]
    return det
