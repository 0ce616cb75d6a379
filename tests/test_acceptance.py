"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a pass line (visible with ``pytest -s``); a failed
criterion fails its test. Criteria 1-3 reproduce the worked fixture
analyses end to end through the CLI; 4-6 pin the structural facts on
the bundled fixtures; 7 is the seeded random-graph property suite; 8 is
the closed-form determinant oracle.
"""

import json
import time

import numpy as np
import pytest

from gframes import (
    build_lg_frame,
    canonical_dual,
    canonical_verdict,
    d1_fast,
    d_r,
    degree_sequence,
    dual_family_member,
    is_regular,
    is_walk_regular,
    is_walk_regular_definition,
    laplacian_matrix,
    perturbation_search,
    spark,
    verify_dual,
)

from _oracles import (
    FIXTURES,
    WALK_REGULAR,
    alt_frame_two_component,
    bareiss_det,
    cubic8,
    fixture_path,
    generalized_vandermonde_det,
    k3_plus_c4,
    random_connected_graph,
    run_cli,
    unitary_equivalence_witness,
)

SQRT10_OVER_4 = np.sqrt(10.0) / 4.0

PRINTED_LAPLACIAN_7 = np.array([
    [2, -1, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0],
    [-1, -1, 2, 0, 0, 0, 0],
    [0, 0, 0, 2, -1, 0, -1],
    [0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, -1, 0, -1, 2],
], dtype=float)


def _report(argv):
    code, out, err = run_cli(argv)
    assert code == 0, err
    return json.loads(out)


def test_criterion_1_disconnected_fixture_reproduction():
    start = time.perf_counter()
    build = _report(["frame-build", fixture_path("figure1")])
    spark_report = _report(["frame-spark", fixture_path("figure1")])
    elapsed = time.perf_counter() - start

    from gframes import parse_edge_list
    g = parse_edge_list(fixture_path("figure1").read_text())
    assert np.array_equal(laplacian_matrix(g), PRINTED_LAPLACIAN_7)

    assert build["frame"]["gramian_residual"] <= 1e-8
    diag = sorted(build["frame"]["frame_operator_diag"], reverse=True)
    assert np.allclose(diag, [4, 3, 3, 2, 2], atol=1e-9)

    assert spark_report["spark"]["value"] == 3
    assert spark_report["spark"]["brute_force"] == 3
    assert spark_report["spark"]["method_agreement"] is True
    assert elapsed < 1.0
    print(f"[acceptance] criterion 1 (7-vertex fixture frame + spark, {elapsed:.3f}s): PASS")


def test_criterion_2_tied_alternate_dual_reproduction():
    start = time.perf_counter()
    bundle = build_lg_frame(k3_plus_c4())
    d1, _ = d1_fast(bundle.frame, canonical_dual(bundle))
    assert abs(d1 - SQRT10_OVER_4) <= 1e-9

    witness = unitary_equivalence_witness(alt_frame_two_component(), bundle.frame)
    assert witness is not None
    mapped = witness.T @ np.array([0.0, 0.0, 0.0, 0.01, 0.01])
    dual = dual_family_member(bundle, np.vstack([mapped, np.zeros(5)]))
    shifted_d1, products = d1_fast(bundle.frame, dual)
    assert abs(shifted_d1 - SQRT10_OVER_4) <= 1e-6
    triangle = np.sort(products[:3])
    assert np.abs(triangle - np.sort([0.672, 0.647, 0.681])).max() <= 2e-3

    verdict = _report(["od-verdict", fixture_path("figure1")])["erasure"]
    assert verdict["verdict"] == "OD_1_ERASURE"
    assert verdict["verdict_basis"]["uniqueness"] == "not_unique"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"[acceptance] criterion 2 (tied alternate dual, {elapsed:.3f}s): PASS")


def test_criterion_3_cubic8_search_beats_canonical():
    start = time.perf_counter()
    bundle = build_lg_frame(cubic8())
    norms = np.sort(np.linalg.norm(canonical_dual(bundle), axis=0))
    expected = np.sort([0.5469] * 2 + [0.5761] * 4 + [0.5682] * 2)
    assert np.abs(norms - expected).max() <= 5e-4

    d1, _ = d1_fast(bundle.frame, canonical_dual(bundle))
    assert abs(d1 - 0.9978) <= 5e-4

    report = _report(["od-search", fixture_path("figure2")])["erasure"]
    assert report["verdict"] == "NOT_OD"
    assert report["search_best"]["improved"] is True
    assert report["search_best"]["d1"] <= 0.9971 + 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"[acceptance] criterion 3 (cubic-8 search d1={report['search_best']['d1']:.6f}, "
          f"{elapsed:.3f}s): PASS")


def test_criterion_4_walk_regularity():
    g = cubic8()
    start = time.perf_counter()
    report = is_walk_regular(g)
    elapsed = time.perf_counter() - start
    assert is_regular(g) == 3
    assert not report.is_walk_regular
    assert report.first_violation is not None and report.first_violation[0] >= 1
    assert elapsed < 1.0

    for name in ("k3", "c4", "petersen", "k33"):
        fixture = FIXTURES[name]()
        start = time.perf_counter()
        assert is_walk_regular(fixture).is_walk_regular
        assert time.perf_counter() - start < 1.0

    for name in sorted(FIXTURES):
        fixture = FIXTURES[name]()
        start = time.perf_counter()
        certified = is_walk_regular(fixture)
        definitional = is_walk_regular_definition(fixture, fixture.n)
        assert certified.is_walk_regular == definitional.is_walk_regular
        assert time.perf_counter() - start < 1.0
    print("[acceptance] criterion 4 (walk-regularity, certified vs definitional): PASS")


def test_criterion_5_pseudoinverse_properties():
    # the paper's equal-diagonal theorem, on LAPACK's pseudoinverse
    for name in WALK_REGULAR:
        g = FIXTURES[name]()
        for matrix in (laplacian_matrix(g), g.adjacency):
            assert np.ptp(np.diag(np.linalg.pinv(matrix))) <= 1e-9, name

    spread = np.ptp(np.diag(np.linalg.pinv(laplacian_matrix(cubic8()))))
    assert abs(spread - 0.0328) <= 1e-3
    print(f"[acceptance] criterion 5 (equal-diagonal pseudoinverses, cubic-8 spread "
          f"{spread:.4f}): PASS")


def test_criterion_6_bridge_identity():
    for name in sorted(FIXTURES):
        bundle = build_lg_frame(FIXTURES[name]())
        squared_norms = np.sum(canonical_dual(bundle) ** 2, axis=0)
        pinv_diag = np.diag(np.linalg.pinv(laplacian_matrix(bundle.graph)))
        assert np.abs(squared_norms - pinv_diag).max() <= 1e-8, name
    print("[acceptance] criterion 6 (dual norms equal pseudoinverse diagonal): PASS")


def test_criterion_7_random_graph_property_suite():
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    count = 200
    constant_seen = 0
    for trial in range(count):
        g = random_connected_graph(rng)
        bundle = build_lg_frame(g)
        lap = laplacian_matrix(bundle.graph)

        assert np.abs(bundle.frame.gramian - lap).max() <= 1e-8
        assert np.abs(np.diag(bundle.frame.gramian) - degree_sequence(bundle.graph)).max() <= 1e-9
        for members in bundle.graph.components:
            assert np.linalg.norm(bundle.frame.synthesis[:, list(members)].sum(axis=1)) <= 1e-9

        assert spark(bundle.frame) == bundle.frame.dim + 1

        shifts = 0.3 * rng.standard_normal((bundle.component_count, bundle.frame.dim))
        member = dual_family_member(bundle, shifts)
        assert verify_dual(bundle.frame, member) <= 1e-8

        fast, _ = d1_fast(bundle.frame, member)
        slow, _ = d_r(bundle.frame, member, 1)
        assert abs(fast - slow) <= 1e-10

        constant = canonical_verdict(bundle).constancy.is_constant
        result = perturbation_search(bundle)
        assert constant == (not result.improved), (
            f"graph {trial}: constant={constant} improved={result.improved}"
        )
        constant_seen += constant

    # the constancy side of the dichotomy, on connected walk-regular fixtures
    for name in ("k3", "c4", "petersen", "k33"):
        bundle = build_lg_frame(FIXTURES[name]())
        assert canonical_verdict(bundle).constancy.is_constant
        result = perturbation_search(bundle)
        assert not result.improved
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion 7 ({count} random graphs, {constant_seen} with constant "
          f"products, {elapsed:.1f}s): PASS")


def test_criterion_8_determinant_closed_form():
    rng = np.random.default_rng(123)
    checked = 0
    while checked < 500:
        n = int(rng.integers(1, 7))
        values = rng.uniform(-3.0, 3.0, size=n)
        gaps = [abs(a - b) for i, a in enumerate(values) for b in values[:i]]
        if np.any(np.abs(values) < 0.05) or (gaps and min(gaps) < 0.05):
            continue
        matrix = np.array([values ** p for p in range(1, n + 1)])
        direct = bareiss_det(matrix)
        closed = generalized_vandermonde_det(values)
        assert abs(direct - closed) <= 1e-9 * max(1.0, abs(direct))
        checked += 1
    print("[acceptance] criterion 8 (closed-form determinant vs fraction-free elimination): PASS")
