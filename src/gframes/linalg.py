"""Dense symmetric eigensolver and the matrix utilities around it: the
spectral norm and the numerical rank.

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
from typing import Union

import numpy as np

from .exceptions import ConvergenceError


#: Relative singular-value threshold of :func:`numerical_rank`.
_RANK_TOL = 1e-8


def zero_threshold(largest: float) -> float:
    """Magnitude up to which an eigenvalue counts as zero when the largest is ``largest``."""
    return 1e-9 * max(1.0, largest)


@dataclass(frozen=True, eq=False)
class SymmetricSpectrum:
    """Eigendecomposition of a real symmetric matrix.

    ``eigenvalues`` are non-increasing; column ``j`` of ``eigenvectors``
    pairs with ``eigenvalues[j]``. Eigenvalues with ``|lam| <= zero_tol`` are
    treated as exactly zero by consumers (the frame build's rank count).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    zero_tol: float

    @property
    def nonzero_count(self) -> int:
        return int(np.sum(np.abs(self.eigenvalues) > self.zero_tol))


def eigh_symmetric(m) -> SymmetricSpectrum:
    """Eigendecomposition of a real symmetric matrix via LAPACK (``np.linalg.eigh``).

    The input must be symmetric up to a 1e-12 entrywise slack (it is
    symmetrized by averaging before the solve). The spectrum's ``zero_tol``,
    its :func:`zero_threshold`, also bounds the reconstruction error. Raises
    :class:`ConvergenceError` when LAPACK fails or misses that contract.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
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
    vals, vecs = vals[order], vecs[:, order]
    columns = np.arange(vecs.shape[1])
    lead = np.argmax(np.abs(vecs), axis=0)
    vecs[:, vecs[lead, columns] < 0.0] *= -1.0
    zero_tol = zero_threshold(float(np.abs(vals).max()) if vals.size else 0.0)
    ortho_err = float(np.abs(vecs.T @ vecs - np.eye(a.shape[0])).max())
    recon_err = float(np.abs((vecs * vals) @ vecs.T - sym).max())
    if ortho_err > 1e-10 or recon_err > zero_tol:
        raise ConvergenceError(
            f"eigensolve accuracy contract violated "
            f"(orthogonality {ortho_err:.2e}, reconstruction {recon_err:.2e})"
        )
    return SymmetricSpectrum(vals, vecs, zero_tol)


def spectral_norm(m) -> float:
    """Largest singular value, as the square root of the top eigenvalue of m^T m."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {a.ndim}")
    if a.size == 0:
        return 0.0
    top = float(eigh_symmetric(a.T @ a).eigenvalues[0])
    return math.sqrt(max(top, 0.0))


def numerical_rank(m) -> Union[int, np.ndarray]:
    """Number of singular values above ``1e-8 * max(1, largest singular value)``.

    An array of shape ``(..., k, s)`` is a stack of ``k x s`` blocks, ranked
    by one batched SVD: the result is an integer array of shape ``(...)``
    with each block's rank under the same rule. A single matrix gives an
    ``int``. The threshold is the fixed constant ``_RANK_TOL``.
    """
    a = np.asarray(m, dtype=float)
    svals = np.linalg.svd(a, compute_uv=False)
    ranks = np.sum(svals > _RANK_TOL * np.maximum(1.0, svals[..., :1]), axis=-1)
    return int(ranks) if a.ndim == 2 else ranks
