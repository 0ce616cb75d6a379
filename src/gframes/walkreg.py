"""Walk-regularity certification.

A graph is walk-regular when, for every length p, all vertices carry the
same number of closed p-walks — equivalently, every power of the adjacency
matrix has a constant diagonal. Checking the powers p = 1..k, where k is
the number of distinct nonzero adjacency eigenvalues, already decides the
property; the definition-based census over an explicit power range is kept
as an independent cross-check. Walk counts are exact integers, so "constant
diagonal" means exact equality, never a tolerance, and both censuses stop
at the first power whose diagonal is not constant. Powers 1 and 2 are read
off the graph (zeros, then the degrees); higher powers are products in
float64 while Δ^p ≤ 2^53, with Δ the maximum degree, in int64 while Δ^p
fits in it, and in arbitrary-precision integers checked against the
signed 64-bit range beyond.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .graphs import Graph, degree_sequence, is_regular
from .linalg import eigh_symmetric, zero_threshold

_INT64_MAX = 2**63 - 1
#: Every integer up to 2^53 is a float64.
_FLOAT64_EXACT_MAX = 2**53


@dataclass(frozen=True, eq=False)
class WalkRegularityReport:
    """Outcome of a walk-regularity check.

    ``checked_powers`` holds ``(p, diagonal of A^p)`` for every power the
    check examined; ``first_violation`` is ``(p, (u, v))`` for the smallest
    violating power and its lexicographically first vertex pair, or ``None``
    when the graph passed (the two are always consistent).
    """

    is_walk_regular: bool
    distinct_nonzero_eigenvalue_count: int
    checked_powers: tuple
    first_violation: Optional[tuple]


def distinct_nonzero_eigenvalue_count(eigenvalues) -> int:
    """Count distinct nonzero values among ``eigenvalues`` (non-increasing),
    grouping multiplicities within 1e-8 times the largest magnitude. A value
    is zero when its magnitude is at most the spectrum's
    :func:`~gframes.linalg.zero_threshold`, as in :func:`eigh_symmetric`."""
    vals = np.asarray(eigenvalues, dtype=float)
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    if scale == 0.0:
        return 0
    gap, zero_tol = 1e-8 * scale, zero_threshold(scale)
    reps = [float(vals[0])]
    for v in vals[1:]:
        if reps[-1] - float(v) > gap:
            reps.append(float(v))
    return sum(1 for r in reps if abs(r) > zero_tol)


def _power_diagonals(g: Graph, p_max: int) -> Iterator[np.ndarray]:
    """Yield the diagonals of A, A^2, ..., A^p_max in exact integer
    arithmetic, one power at a time, so a caller can stop early.

    diag(A) is zero and diag(A^2) is the degree sequence, so neither needs
    a product. Higher powers take one of three routes, chosen once per call
    from the maximum degree Δ, the largest row sum of A. Every entry of
    A^p, and every partial sum that forms one, is a non-negative integer of
    at most Δ^p, in any summation order. So when Δ^p_max ≤ 2^53 the powers
    are float64 (BLAS) products, exact because every float64 up to 2^53 is
    an integer it holds; when Δ^p_max fits in int64 they are int64 products;
    either way the diagonals are int64 and cannot overflow. Otherwise
    entries are arbitrary-precision ints (object diagonals) but must stay
    inside the signed 64-bit range; exceeding it raises OverflowError rather
    than ever wrapping around.
    """
    degrees = degree_sequence(g)
    bound = max(degrees) ** p_max
    dtype = np.int64 if bound <= _INT64_MAX else object
    if p_max >= 1:
        yield np.zeros(g.n, dtype=dtype)
    if p_max >= 2:
        yield np.array(degrees, dtype=dtype)
    if p_max < 3:
        return
    a = g.adjacency
    if bound > _FLOAT64_EXACT_MAX:  # object entries must be ints, not floats
        a = a.astype(np.int64).astype(dtype)
    power = a @ a
    for p in range(3, p_max + 1):
        power = power @ a
        if dtype is object and power.max() > _INT64_MAX:
            raise OverflowError(f"integer matrix power overflows 64-bit range at power {p}")
        yield power.diagonal().astype(dtype)


def _census(g: Graph, k: int, p_max: int) -> WalkRegularityReport:
    """Report on diag(A^1)..diag(A^p_max), kept as exact integer tuples, with
    ``k`` the distinct nonzero eigenvalue count. The census stops after the
    first non-constant diagonal: later powers cannot change the verdict, and
    an irregular graph stops at power 2, whose diagonal is the degree
    sequence. The lexicographically first unequal vertex pair there is
    ``(0, v)``, for the first v whose count differs from vertex 0's."""
    checked = []
    for p, diag in enumerate(_power_diagonals(g, p_max), start=1):
        diag = diag.tolist()
        checked.append((p, tuple(diag)))
        if min(diag) != max(diag):
            v = next(v for v, count in enumerate(diag) if count != diag[0])
            return WalkRegularityReport(False, k, tuple(checked), (p, (0, v)))
    return WalkRegularityReport(True, k, tuple(checked), None)


def is_walk_regular(g: Graph, laplacian_eigenvalues=None) -> WalkRegularityReport:
    """Certify walk-regularity from the bounded criterion: the closed-walk
    census only needs the powers 1..k, with k the number of distinct
    nonzero adjacency eigenvalues, grouped within 1e-8 times the largest
    eigenvalue magnitude (:func:`distinct_nonzero_eigenvalue_count`).

    ``laplacian_eigenvalues``, when the caller already holds them, is the
    Laplacian spectrum of ``g`` in non-increasing order, zeros included. On
    a d-regular graph A = dI − L, so A's eigenvalues are d − λ and need no
    second eigensolve; otherwise A is decomposed here.
    """
    degree = is_regular(g)
    if degree is not None and laplacian_eigenvalues is not None:
        eigenvalues = degree - np.asarray(laplacian_eigenvalues, dtype=float)[::-1]
    else:
        eigenvalues = eigh_symmetric(g.adjacency).eigenvalues
    k = distinct_nonzero_eigenvalue_count(eigenvalues)
    return _census(g, k, k)


def is_walk_regular_definition(g: Graph, p_max: int) -> WalkRegularityReport:
    """Definition-based census: check diag(A^p) for p = 1..p_max, stopping
    at the first violating power.

    For ``p_max >= 1`` this is an oracle, not a proof — but constancy up to
    p_max = n decides the property in practice, and the test suite holds
    this checker and :func:`is_walk_regular` to identical verdicts.
    """
    if not isinstance(p_max, int) or p_max < 1:
        raise ValueError(f"p_max must be a positive integer, got {p_max!r}")
    k = distinct_nonzero_eigenvalue_count(eigh_symmetric(g.adjacency).eigenvalues)
    try:
        return _census(g, k, p_max)
    except OverflowError as exc:
        raise OverflowError(f"{exc}; rerun with a smaller p_max") from None
