"""Walk-regularity certification.

A graph is walk-regular when, for every length p, all vertices carry the
same number of closed p-walks — equivalently, every power of the adjacency
matrix has a constant diagonal. Checking the powers p = 1..k, where k is
the number of distinct nonzero adjacency eigenvalues, already decides the
property; the definition-based census over an explicit power range is kept
as an independent cross-check. Walk counts use exact integer arithmetic
(int64 while Δ^p, with Δ the maximum degree, fits in it), so "constant
diagonal" means exact equality, never a tolerance, and both censuses stop
at the first power whose diagonal is not constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .graphs import Graph, degree_sequence
from .linalg import SymmetricSpectrum, eigh_symmetric

_INT64_MAX = 2**63 - 1


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


def distinct_nonzero_eigenvalue_count(spectrum: SymmetricSpectrum) -> int:
    """Count distinct nonzero eigenvalues, grouping multiplicities within
    1e-8 times the largest eigenvalue magnitude."""
    vals = spectrum.eigenvalues
    scale = float(np.abs(vals).max()) if vals.size else 0.0
    if scale == 0.0:
        return 0
    gap = 1e-8 * scale
    reps = [float(vals[0])]
    for v in vals[1:]:
        if reps[-1] - float(v) > gap:
            reps.append(float(v))
    return sum(1 for r in reps if abs(r) > spectrum.zero_tol)


def _power_diagonals(g: Graph, p_max: int) -> Iterator[np.ndarray]:
    """Yield the diagonals of A, A^2, ..., A^p_max in exact integer
    arithmetic, one power at a time, so a caller can stop early.

    The route is chosen once per call from the maximum degree Δ, the largest
    row sum of A. Every entry of A^p, and every partial sum that forms one,
    is at most Δ^p, so when Δ^p_max fits in int64 the powers are int64
    matrix products (int64 diagonals) and cannot overflow. Otherwise entries
    are arbitrary-precision ints (object diagonals) but must stay inside the
    signed 64-bit range; exceeding it raises OverflowError rather than ever
    wrapping around.
    """
    a = g.adjacency.astype(np.int64)
    exact_int64 = max(degree_sequence(g)) ** p_max <= _INT64_MAX
    if not exact_int64:
        a = a.astype(object)
    power = a
    for p in range(1, p_max + 1):
        if p > 1:
            power = power @ a
        if not exact_int64 and power.max() > _INT64_MAX:
            raise OverflowError(f"integer matrix power overflows 64-bit range at power {p}")
        yield power.diagonal()


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


def is_walk_regular(g: Graph) -> WalkRegularityReport:
    """Certify walk-regularity from the bounded criterion: the closed-walk
    census only needs the powers 1..k, with k the number of distinct
    nonzero adjacency eigenvalues, grouped within 1e-8 times the largest
    eigenvalue magnitude (:func:`distinct_nonzero_eigenvalue_count`)."""
    k = distinct_nonzero_eigenvalue_count(eigh_symmetric(g.adjacency))
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
    k = distinct_nonzero_eigenvalue_count(eigh_symmetric(g.adjacency))
    try:
        return _census(g, k, p_max)
    except OverflowError as exc:
        raise OverflowError(f"{exc}; rerun with a smaller p_max") from None
