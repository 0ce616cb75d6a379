"""Erasure-optimal duals: when is the canonical dual the best dual?

Losing one frame coefficient costs at worst the product |f_i| |h_i|, so a
dual's single-erasure figure of merit D^1 is the largest such product.
The canonical dual minimizes D^1 among all duals exactly when its
products are constant across vertices; for connected graphs this is
an equivalence, so the verdict is all-or-nothing. Three stories:

* the triangle is walk-regular: constant products, uniquely optimal;
* the triangle-plus-4-cycle attains its maximum on a component with
  constant products, the 4-cycle: optimal, since each component minimises
  its own maximum, but provably not uniquely (a shifted dual ties);
* the cubic 8-vertex graph is regular but not walk-regular: not optimal,
  and a steepest descent over the dual family, started at the canonical
  dual, finds strictly better duals.
"""

from pathlib import Path

import numpy as np

from gframes import (
    build_lg_frame,
    canonical_dual,
    canonical_verdict,
    d1_fast,
    d_r,
    dual_family_member,
    parse_edge_list,
    perturbation_search,
    verify_dual,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def load(name):
    return parse_edge_list((FIXTURES / f"{name}.edges").read_text())


np.set_printoptions(precision=4, suppress=True)

for name in ("k3", "figure1", "figure2"):
    bundle = build_lg_frame(load(name))
    report = canonical_verdict(bundle)
    print(f"{name}:")
    print(f"  products {np.round(report.per_vertex_products, 6)}")
    print(f"  D^1 = {report.d1_canonical:.9f}, argmax vertices {report.lambda1}")
    print(f"  verdict: {report.verdict}  [{report.verdict_basis['certificate']}]")

# The error operator behind those numbers: erase one coefficient and the
# reconstruction misses by the rank-one operator h_i f_i^T, whose norm is
# the product.
bundle = build_lg_frame(load("figure2"))
report = canonical_verdict(bundle)
dual = canonical_dual(bundle)
op = np.outer(dual[:, 1], bundle.frame.synthesis[:, 1])
print("\nerasing vertex 1 of cubic8: operator norm",
      f"{np.linalg.norm(op, 2):.6f} vs product {report.per_vertex_products[1]:.6f}")
value, worst = d_r(bundle.frame, dual, 2)
print(f"worst pair of erasures: D^2 = {value:.6f} at columns {worst}")

# Searching the dual family (one shift per component) for a better dual,
# by steepest descent from the canonical dual.
result = perturbation_search(bundle)
print(f"\nsearch over shifts: canonical D^1 {result.canonical_d1:.6f}"
      f" -> best found {result.d1:.6f} (improved: {result.improved})")
best = dual_family_member(bundle, result.shifts)
print("best dual is still a dual, residual:", verify_dual(bundle.frame, best))
print("its products:", np.round(d1_fast(bundle.frame, best)[1], 6))
print("argmax set of the canonical dual:", report.lambda1)
