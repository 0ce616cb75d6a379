"""Reference values computed apart from the program, and the output checks.

Everything here uses numpy's LAPACK routines (``eigvalsh``, ``pinv``,
``eigvals``) on matrices built straight from the generated edge lists, never
gframes' Jacobi solver or its parsed graphs. The checks also hold the
outputs to the paper's theorems: vertex-transitive graphs are walk-regular
with a unique optimal canonical dual, irregular graphs are not walk-regular,
a connected graph with non-constant products is ``NOT_OD`` and the search
improves on it, and connected graphs give full-spark frames.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

#: Largest allowed |program - reference| / max(1, |reference|).
TOL = 1e-9


def _laplacian(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, v in edges:
        lap[u, v] = lap[v, u] = -1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    return lap


def components(n: int, edges) -> list:
    """Connected components as sorted vertex lists, ordered by smallest member."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def _pinv(lap: np.ndarray) -> np.ndarray:
    return np.linalg.pinv(lap, rcond=1e-10)


def _products(lap: np.ndarray, lap_pinv: np.ndarray) -> np.ndarray:
    return np.sqrt(np.diag(lap) * np.diag(lap_pinv))


def products(n: int, edges) -> np.ndarray:
    """Per-vertex products ``sqrt(deg_i * (L^+)_ii)`` of the canonical dual."""
    lap = _laplacian(n, edges)
    return _products(lap, _pinv(lap))


def subset_norms(lap: np.ndarray, lap_pinv: np.ndarray, subsets: np.ndarray) -> np.ndarray:
    """Canonical-dual error norms for erased sets Λ (rows of ``subsets``):
    ``sqrt(λmax(L⁺[Λ,Λ] · L[Λ,Λ]))``, free of any frame basis."""
    rows, cols = subsets[:, :, None], subsets[:, None, :]
    eig = np.linalg.eigvals(lap_pinv[rows, cols] @ lap[rows, cols]).real.max(axis=1)
    return np.sqrt(np.maximum(eig, 0.0))


class Reference:
    """Reference quantities of one case, computed once before timing starts."""

    def __init__(self, case):
        self.case = case
        self.lap = _laplacian(case.n, case.edges)
        self.degrees = np.diag(self.lap).astype(int).tolist()
        self.components = components(case.n, case.edges)
        self.spectrum = np.linalg.eigvalsh(self.lap)[::-1]
        self.lap_pinv = _pinv(self.lap)
        self.products = _products(self.lap, self.lap_pinv)
        self._d_r = {}
        if not case.vertex_transitive and len(set(self.degrees)) == 1:
            raise ValueError(f"{case.name}: corpus graphs are vertex-transitive or irregular")

    @property
    def d1(self) -> float:
        return float(self.products.max())

    @property
    def products_constant(self) -> bool:
        return float(self.products.max() - self.products.min()) <= 1e-9 * max(1.0, self.d1)

    def expected_verdict(self) -> str:
        if self.case.vertex_transitive or self.products_constant:
            return "UNIQUE_OD_ALL_ERASURES"
        if len(self.components) == 1:
            return "NOT_OD"
        top = np.flatnonzero(self.products >= self.d1 * (1 - 1e-9))
        if any(int(v) in self.case.vt_vertices for v in top):
            return "OD_1_ERASURE"
        return "INCONCLUSIVE"

    def d_r(self, r: int) -> float:
        """Exhaustive maximum of the subset norms over all r-subsets."""
        if r not in self._d_r:
            subsets = np.array(list(combinations(range(self.case.n), r)), dtype=np.intp)
            self._d_r[r] = float(subset_norms(self.lap, self.lap_pinv, subsets).max())
        return self._d_r[r]

    def subset_norm(self, subset) -> float:
        return float(subset_norms(self.lap, self.lap_pinv, np.array([subset], dtype=np.intp))[0])


class Checker:
    """Compares one report against a :class:`Reference`; collects problems
    and the largest relative deviation seen."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.problems = []
        self.deviation = 0.0

    def close(self, what: str, got, want):
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.problems.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        dev = float((np.abs(got - want) / np.maximum(1.0, np.abs(want))).max(initial=0.0))
        self.deviation = max(self.deviation, dev)
        if not dev <= TOL:
            self.problems.append(f"{what}: deviates from reference by {dev:.2e}")

    def equal(self, what: str, got, want):
        if got != want:
            self.problems.append(f"{what}: {got!r} != {want!r}")

    def graph(self, section: dict, with_walk: bool):
        ref, case = self.ref, self.ref.case
        self.equal("n", section["n"], case.n)
        self.equal("m", section["m"], len(case.edges))
        self.equal("degrees", section["degrees"], ref.degrees)
        self.equal("components", section["components"],
                   [[v + 1 for v in comp] for comp in ref.components])
        if not with_walk:
            return
        self.close("laplacian_spectrum", section["laplacian_spectrum"], ref.spectrum)
        walk = section["walk_regular"]
        self.equal("is_walk_regular", walk["is_walk_regular"], case.vertex_transitive)
        if not case.vertex_transitive:
            # diag(A^2) is the degree sequence, so an irregular graph first fails at power 2
            self.equal("first_violation power", walk.get("first_violation", {}).get("power"), 2)

    def frame(self, section: dict):
        ref = self.ref
        k = ref.case.n - len(ref.components)
        self.equal("frame dim", section["dim"], k)
        self.equal("frame count", section["count"], ref.case.n)
        self.close("frame_operator_diag", section["frame_operator_diag"], ref.spectrum[:k])
        self.close("norms_squared", section["norms_squared"], ref.degrees)
        if not section["gramian_residual"] <= 1e-8:
            self.problems.append(f"gramian_residual {section['gramian_residual']}")

    def erasure(self, section: dict, command: str):
        ref = self.ref
        self.close("d1_canonical", section["d1_canonical"], ref.d1)
        self.close("per_vertex_products", section["per_vertex_products"], ref.products)
        lam = {v - 1 for v in section["lambda1_set"]}
        surely_max = set(np.flatnonzero(ref.products >= ref.d1 * (1 - 1e-12)).tolist())
        maybe_max = set(np.flatnonzero(ref.products >= ref.d1 * (1 - 1e-8)).tolist())
        if not surely_max <= lam <= maybe_max:
            self.problems.append(f"lambda1_set {sorted(lam)} does not hold the argmax vertices")
        verdict = ref.expected_verdict()
        self.equal("verdict", section["verdict"], verdict)
        if command != "od-search":
            return
        best = section.get("search_best")
        if best is None:
            self.problems.append("od-search without search_best")
            return
        if not best["d1"] <= ref.d1 * (1 + TOL):
            self.problems.append(f"search d1 {best['d1']} exceeds canonical D^1 {ref.d1}")
        if verdict == "NOT_OD":
            self.equal("search improved on a NOT_OD graph", best["improved"], True)
        elif verdict in ("UNIQUE_OD_ALL_ERASURES", "OD_1_ERASURE"):
            self.equal("search improved on an optimal canonical dual", best["improved"], False)

    def dr_table(self, section: dict, max_r: int):
        ref = self.ref
        self.close("d1_canonical", section["d1_canonical"], ref.d1)
        rows = section["dr_table"]["canonical"]
        self.equal("dr rows", [row["r"] for row in rows], list(range(1, min(max_r, ref.case.n - 1) + 1)))
        for row in rows:
            want = ref.d_r(row["r"])
            self.close(f"D^{row['r']}", row["value"], want)
            subset = [v - 1 for v in row["max_subset"]]
            self.close(f"D^{row['r']} at max_subset", ref.subset_norm(subset), want)

    def spark(self, section: dict):
        ref = self.ref
        smallest = min(len(comp) for comp in ref.components)
        self.equal("spark", section["value"], smallest)
        self.equal("spark brute force", section.get("brute_force"), smallest)
        self.equal("spark full", section["full_spark"], len(ref.components) == 1)


def check(op, report: dict, ref: Reference) -> Checker:
    checker = Checker(ref)
    command = op.command
    checker.equal("command", report.get("command"), command)
    checker.graph(report["graph"], with_walk=command == "graph-info")
    if command != "graph-info":
        checker.frame(report["frame"])
    if command in ("od-verdict", "od-search"):
        checker.erasure(report["erasure"], command)
    elif command == "dr-table":
        checker.dr_table(report["erasure"], int(op.extra[op.extra.index("--max-r") + 1]))
    elif command == "frame-spark":
        checker.spark(report["spark"])
    return checker
