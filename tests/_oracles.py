"""Independent oracles and shared fixtures for the test suite.

Everything here is deliberately computed by a route different from the
library under test: determinants by fraction-free elimination, closed
walks by explicit enumeration, symmetric eigendecompositions by cyclic
Jacobi sweeps, ranks and norms by numpy's LAPACK bindings, and frames
from hand-entered block-structured eigenbases.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

import numpy as np

from gframes import Frame, Graph
from gframes.cli import main as cli_main

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURE_DIR / f"{name}.edges"


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


def count_closed_walks(g: Graph, start: int, length: int) -> int:
    """Closed walks of the given length at ``start``, by explicit enumeration."""

    def extend(v, remaining):
        if remaining == 0:
            return 1 if v == start else 0
        return sum(extend(w, remaining - 1) for w in g.adjacency_lists[v])

    return extend(start, length)


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
