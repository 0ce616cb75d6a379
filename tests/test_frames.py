"""Frame construction, dual family, unitary equivalence, and spark."""

import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from gframes import (
    EnumerationGuardError,
    Frame,
    Graph,
    build_lg_frame,
    canonical_dual,
    d1_fast,
    degree_sequence,
    dual_family_member,
    laplacian_matrix,
    numerical_rank,
    spark,
    spark_via_components,
    verify_dual,
)

from gframes import frames
from gframes.frames import _CHUNK_ENTRIES

from _oracles import (
    FIXTURES,
    alt_frame_cubic8,
    alt_frame_two_component,
    k3_plus_c4,
    petersen,
    random_connected_graph,
    spark_by_subsets,
    two_triangles,
    unitary_equivalence_witness,
)

ALL_FIXTURES = sorted(FIXTURES)


def is_full_spark(frame):
    """Every ``dim``-subset of frame vectors is a basis."""
    return spark(frame) == frame.dim + 1


def bundle_of(name):
    return build_lg_frame(FIXTURES[name]())


class TestBuild:
    def test_k3(self):
        b = bundle_of("k3")
        assert b.frame.dim == 2 and b.frame.count == 3
        assert np.abs(b.frame.gramian - laplacian_matrix(b.graph)).max() <= 1e-8
        assert np.allclose(b.frame.frame_operator, np.diag([3.0, 3.0]), atol=1e-9)

    def test_two_component_fixture(self):
        b = bundle_of("figure1")
        assert b.frame.dim == 5 and b.frame.count == 7
        assert sorted(np.diag(b.frame.frame_operator), reverse=True) == pytest.approx(
            [4, 3, 3, 2, 2], abs=1e-9
        )
        assert b.component_count == 2
        assert b.column_component.tolist() == [0, 0, 0, 1, 1, 1, 1]

    def test_cubic8(self):
        b = bundle_of("figure2")
        assert b.frame.dim == 7 and b.frame.count == 8
        norms_sq = np.sum(b.frame.synthesis ** 2, axis=0)
        assert np.allclose(norms_sq, 3.0, atol=1e-9)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_contract_on_fixtures(self, name):
        g = FIXTURES[name]()
        b = build_lg_frame(g)
        lap = laplacian_matrix(b.graph)
        assert np.abs(b.frame.gramian - lap).max() <= 1e-8
        assert np.abs(np.diag(b.frame.gramian) - degree_sequence(b.graph)).max() <= 1e-9
        s = b.frame.frame_operator
        assert np.abs(s - np.diag(np.diag(s))).max() <= 1e-9
        k = b.frame.dim
        assert np.allclose(np.diag(s), b.eigenvalues, atol=1e-9) and b.eigenvalues.shape == (k,)
        for members in b.graph.components:
            column_sum = b.frame.synthesis[:, list(members)].sum(axis=1)
            assert np.linalg.norm(column_sum) <= 1e-9

    def test_rejects_edgeless(self):
        with pytest.raises(ValueError, match="isolated"):
            build_lg_frame(Graph(3, frozenset()))

    def test_rejects_isolated_vertex(self):
        with pytest.raises(ValueError, match="isolated"):
            build_lg_frame(Graph(4, frozenset({(0, 1), (1, 2)})))

    def test_relabeling_round_trip(self):
        g = Graph(4, frozenset({(0, 2), (1, 3)}))
        b = build_lg_frame(g)
        assert b.graph is g
        assert np.allclose(np.diag(b.frame.gramian), degree_sequence(g), atol=1e-9)

    def test_interleaved_components_in_vertex_order(self):
        # two paths whose labels interleave: 4-0-5 and 1-2-3
        g = Graph(6, frozenset({(0, 4), (0, 5), (1, 2), (2, 3)}))
        b = build_lg_frame(g)
        assert np.abs(b.frame.gramian - laplacian_matrix(g)).max() <= 1e-8
        # the same paths in component order (0, 4, 5, 1, 2, 3): 1-0-2 and 3-4-5
        contiguous = build_lg_frame(Graph(6, frozenset({(0, 1), (0, 2), (3, 4), (4, 5)})))
        assert np.array_equal(b.frame.synthesis[:, [0, 4, 5, 1, 2, 3]], contiguous.frame.synthesis)


class TestSpanningCheck:
    """A frame spans when the frame operator's smallest eigenvalue exceeds
    1e-12·max(1, largest)."""

    @pytest.mark.parametrize("synthesis", [
        [[1.0, 0.0], [0.0, 0.0]],
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]],
        [[1e3, 0.0], [0.0, 1e-5]],   # eigenvalues 1e6 and 1e-10
    ])
    def test_rejects_singular(self, synthesis):
        with pytest.raises(ValueError, match="do not span"):
            Frame(np.array(synthesis))

    @pytest.mark.parametrize("synthesis", [
        [[1.0, 0.0], [0.0, 1e-5]],   # eigenvalues 1 and 1e-10
        [[1e-3, 0.0], [0.0, 1e-5]],  # the rule's scale is at least 1
        [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
    ])
    def test_accepts_spanning(self, synthesis):
        assert Frame(np.array(synthesis)).dim == 2

    @pytest.mark.parametrize("name", ALL_FIXTURES + ["random"])
    def test_graph_frames_need_no_eigensolve(self, monkeypatch, name):
        # a graph frame's operator is diagonal, so Gershgorin's discs prove spanning
        g = random_connected_graph(np.random.default_rng(5), 60, 60) if name == "random" \
            else FIXTURES[name]()
        bundle = build_lg_frame(g)

        def refuse(_):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert Frame(bundle.frame.synthesis).dim == bundle.frame.dim

    def test_same_verdict_as_the_eigenvalue_rule(self):
        rng = np.random.default_rng(24)
        verdicts = set()
        for trial in range(300):
            k = int(rng.integers(1, 6))
            n = k + int(rng.integers(0, 4))
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            # singular values from 1 down to a smallest one near the rule's threshold
            top = 10.0 ** rng.uniform(-3, 3)
            sv = top * np.sort(10.0 ** rng.uniform(-7.5, 0, k))[::-1]
            if trial % 3 == 0:
                sv[-1] = 0.0
            basis = np.linalg.qr(rng.standard_normal((n, n)))[0][:k]
            synthesis = (q * sv) @ basis
            if trial % 5 == 0:  # rows far from orthogonal: discs that overlap zero
                synthesis[0] += synthesis[-1]
            eigenvalues = np.linalg.eigvalsh(synthesis @ synthesis.T)
            spans = eigenvalues[0] > 1e-12 * max(1.0, float(eigenvalues[-1]))
            verdicts.add(spans)
            if spans:
                assert Frame(synthesis).dim == k
            else:
                with pytest.raises(ValueError, match="do not span"):
                    Frame(synthesis)
        assert verdicts == {True, False}


class TestCanonicalDual:
    def test_k3_scalar_operator(self):
        b = bundle_of("k3")
        dual = canonical_dual(b)
        assert np.allclose(dual, b.frame.synthesis / 3.0, atol=1e-12)
        assert np.array_equal(dual, b.canonical)

    def test_two_component_products(self):
        b = bundle_of("figure1")
        dual = canonical_dual(b)
        products = np.linalg.norm(dual, axis=0) * np.linalg.norm(b.frame.synthesis, axis=0)
        assert np.allclose(products[:3], 2.0 / 3.0, atol=1e-9)
        assert np.allclose(products[3:], np.sqrt(10) / 4.0, atol=1e-9)

    def test_cubic8_norm_multiset(self):
        b = bundle_of("figure2")
        norms = np.sort(np.linalg.norm(canonical_dual(b), axis=0))
        expected = np.sort([0.546907, 0.546907, 0.568258, 0.568258,
                            0.576060, 0.576060, 0.576060, 0.576060])
        assert np.allclose(norms, expected, atol=5e-6)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_bridge_to_pseudoinverse_diagonal(self, name):
        # two routes to the same numbers: dual-vector norms vs pinv diagonal
        b = bundle_of(name)
        dual = canonical_dual(b)
        squared = np.sum(dual ** 2, axis=0)
        pinv_diag = np.diag(np.linalg.pinv(laplacian_matrix(b.graph)))
        assert np.abs(squared - pinv_diag).max() <= 1e-8


class TestDualFamily:
    def test_zero_shifts_is_canonical(self):
        b = bundle_of("figure1")
        member = dual_family_member(b, np.zeros((2, 5)))
        assert np.allclose(member, canonical_dual(b), atol=1e-14)

    @pytest.mark.parametrize("name", ALL_FIXTURES)
    def test_random_members_are_duals(self, name):
        b = bundle_of(name)
        rng = np.random.default_rng(2024)
        for _ in range(10):
            shifts = rng.standard_normal((b.component_count, b.frame.dim))
            member = dual_family_member(b, shifts)
            assert verify_dual(b.frame, member) <= 1e-8

    def test_shape_validation(self):
        b = bundle_of("figure1")
        with pytest.raises(ValueError, match="shape"):
            dual_family_member(b, np.zeros((1, 5)))
        with pytest.raises(ValueError, match="shape"):
            dual_family_member(b, np.zeros((2, 4)))

    def test_non_finite_shifts_rejected(self):
        b = bundle_of("figure1")
        shifts = np.zeros((2, 5))
        shifts[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            dual_family_member(b, shifts)

    def test_duals_are_read_only_matrices(self):
        b = bundle_of("figure1")
        member = dual_family_member(b, np.ones((2, 5)))
        for h in (b.canonical, canonical_dual(b), member):
            assert isinstance(h, np.ndarray) and h.shape == (5, 7)
            assert not h.flags.writeable
        assert b.canonical is b.canonical
        assert np.array_equal(canonical_dual(b), b.canonical)
        assert np.array_equal(member[:, :3], b.canonical[:, :3] + 1.0)

    def test_tolerance_scales_with_d1(self):
        # the rounding of sum h_i f_i^T grows with |h_i|·|f_i|, so large
        # shifts are duals within 1e-8 of their own D^1, not of 1
        b = bundle_of("figure1")
        for size in (1e4, 1e8, 1e12):
            shifts = np.zeros((2, 5))
            shifts[0, 0] = size
            member = dual_family_member(b, shifts)
            assert verify_dual(b.frame, member) <= 1e-8 * d1_fast(b.frame, member)[0]

    @pytest.mark.parametrize("size", [1e200, 1e308])
    def test_overflowing_products_rejected(self, size):
        b = bundle_of("figure1")
        shifts = np.zeros((2, 5))
        shifts[0, 0] = size
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"products \|f_i\| \* \|h_i\| must not overflow"):
                dual_family_member(b, shifts)

    def test_duality_violation_raises(self):
        b = bundle_of("figure2")
        b.__dict__["canonical"] = 2.0 * b.frame.synthesis
        with pytest.raises(RuntimeError, match="duality identity violated"):
            canonical_dual(b)


class TestVerifyDual:
    def test_canonical_residual(self):
        b = bundle_of("petersen")
        assert verify_dual(b.frame, canonical_dual(b)) <= 1e-10

    def test_zero_dual(self):
        b = bundle_of("k3")
        assert verify_dual(b.frame, np.zeros((2, 3))) == 1.0

    def test_shape_mismatch(self):
        b = bundle_of("k3")
        with pytest.raises(ValueError):
            verify_dual(b.frame, np.zeros((3, 3)))


class TestUnitaryEquivalence:
    def test_identity_witness(self):
        frame = bundle_of("k3").frame
        witness = unitary_equivalence_witness(frame, frame)
        assert witness is not None
        assert np.allclose(witness, np.eye(2), atol=1e-10)

    def test_recovers_random_rotation(self):
        rng = np.random.default_rng(9)
        frame = bundle_of("figure2").frame
        q, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        rotated = Frame(q @ frame.synthesis)
        witness = unitary_equivalence_witness(frame, rotated)
        assert witness is not None
        assert np.abs(witness.T @ witness - np.eye(7)).max() <= 1e-10
        assert np.abs(witness @ rotated.synthesis - frame.synthesis).max() <= 1e-7

    def test_sign_flipped_rebuild(self):
        b = bundle_of("k3")
        flipped = Frame(np.diag([-1.0, 1.0]) @ b.frame.synthesis)
        assert unitary_equivalence_witness(b.frame, flipped) is not None

    def test_block_basis_realizations(self):
        for bundle, alt in [
            (bundle_of("figure1"), alt_frame_two_component()),
            (bundle_of("figure2"), alt_frame_cubic8()),
        ]:
            witness = unitary_equivalence_witness(alt, bundle.frame)
            assert witness is not None
            assert np.abs(witness @ bundle.frame.synthesis - alt.synthesis).max() <= 1e-7

    def test_absent_for_different_gramians(self):
        assert unitary_equivalence_witness(bundle_of("k3").frame, bundle_of("path3").frame) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            unitary_equivalence_witness(bundle_of("k3").frame, bundle_of("c4").frame)


class TestSpark:
    def test_k3(self):
        # any 2 of the 3 vectors are independent, all 3 are dependent
        frame = bundle_of("k3").frame
        assert spark(frame) == 3
        assert is_full_spark(frame)

    def test_two_component_fixture_not_full_spark(self):
        b = bundle_of("figure1")
        assert spark(b.frame) == 3
        # the triangle's three columns are already dependent
        assert np.linalg.matrix_rank(b.frame.synthesis[:, :3]) == 2
        assert not is_full_spark(b.frame)

    def test_standard_basis_full_spark(self):
        frame = Frame(np.eye(2))
        assert spark(frame) == 3
        assert is_full_spark(frame)

    def test_repeated_vector(self):
        frame = Frame(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        assert spark(frame) == 2
        assert not is_full_spark(frame)

    @pytest.mark.parametrize("name", ["k3", "c4", "path3", "petersen", "figure2", "k33"])
    def test_connected_fixtures_full_spark(self, name):
        assert is_full_spark(bundle_of(name).frame)

    def test_guard(self, monkeypatch):
        # 20 + 190 + 1140 = 1350 subsets: within the fixed guard, beyond 1000
        monkeypatch.setattr(frames, "_SPARK_GUARD", 1000)
        rng = np.random.default_rng(0)
        frame = Frame(rng.standard_normal((3, 20)))
        with pytest.raises(EnumerationGuardError, match="needs 1350 subsets"):
            spark(frame)

    def test_guard_counts_only_enumerated_sizes(self, monkeypatch):
        # sizes 1..3 hold 12 + 66 + 220 = 298 subsets; size 4 is never enumerated
        frame = Frame(np.random.default_rng(0).standard_normal((3, 12)))
        for guard in (500, 298):
            monkeypatch.setattr(frames, "_SPARK_GUARD", guard)
            assert spark(frame) == 4
        monkeypatch.setattr(frames, "_SPARK_GUARD", 297)
        with pytest.raises(EnumerationGuardError, match="needs 298 subsets"):
            spark(frame)

    @pytest.mark.parametrize("name", ALL_FIXTURES + ["interleaved"])
    def test_matches_subset_oracle(self, name):
        if name == "interleaved":
            # two paths whose labels interleave: 4-0-5 and 1-2-3
            g = Graph(6, frozenset({(0, 4), (0, 5), (1, 2), (2, 3)}))
        else:
            g = FIXTURES[name]()
        frame = build_lg_frame(g).frame
        assert spark(frame) == spark_by_subsets(frame)

    def test_first_dependent_subset_past_first_chunk(self):
        # two 7-cycles on {0, 8..13} and {1..7}: the first dependent 7-subset
        # in combinations order is {0, 8..13}, the last of the C(13, 6) that
        # start with vertex 0
        first, second = (0, 8, 9, 10, 11, 12, 13), tuple(range(1, 8))
        edges = {(c[i], c[(i + 1) % 7]) for c in (first, second) for i in range(7)}
        frame = build_lg_frame(Graph(14, frozenset(edges))).frame
        assert math.comb(13, 6) > _CHUNK_ENTRIES // (frame.dim * 7)
        assert spark(frame) == spark_by_subsets(frame) == 7

    def test_random_frames_with_planted_dependences(self):
        # scales on both sides of 1 exercise the max(1, sigma_1) threshold
        rng = np.random.default_rng(11)
        seen = set()
        for scale in (1e-3, 1.0, 1e3):
            for _ in range(67):
                k = int(rng.integers(1, 6))
                n = int(rng.integers(k + 1, k + 5))
                synthesis = rng.standard_normal((k, n))
                planted = int(rng.integers(1, k + 2))
                if planted <= k:
                    # a zero column, a scaled repeat, or a combination of others
                    cols = rng.choice(n, size=planted, replace=False)
                    synthesis[:, cols[-1]] = synthesis[:, cols[:-1]] @ rng.standard_normal(planted - 1)
                frame = Frame(scale * synthesis)
                value = spark(frame)
                assert value == spark_by_subsets(frame), (scale, k, n)
                seen.add("full" if value == k + 1 else value)
        assert {1, 2, 3, "full"} <= seen

    def test_component_formula(self):
        assert spark_via_components(k3_plus_c4()) == 3
        assert spark_via_components(two_triangles()) == 3
        assert spark_via_components(petersen()) == 10

    def test_dependent_exactly_when_holding_a_component(self):
        # xᵀL[Λ,Λ]x = Σ_{uv ∈ E(G[Λ])} (x_u − x_v)² + Σ_{v∈Λ} d_out(v)·x_v²: the
        # columns Λ are dependent exactly when Λ contains a whole component,
        # checked on every column subset against the numerical rank at 1e-8
        rng = np.random.default_rng(4)
        outcomes = set()
        for trial in range(150):
            if trial % 3 == 2:
                a, b = (random_connected_graph(rng, 2, 4) for _ in range(2))
                g = Graph(a.n + b.n, a.edges | {(u + a.n, v + a.n) for u, v in b.edges})
            else:
                g = random_connected_graph(rng, 4, 8)
            synthesis = build_lg_frame(g).frame.synthesis
            components = [set(comp) for comp in g.components]
            for size in range(1, g.n + 1):
                subsets = list(combinations(range(g.n), size))
                ranks = numerical_rank(np.take(synthesis, subsets, axis=1).swapaxes(0, 1))
                for subset, rank in zip(subsets, ranks):
                    whole = any(comp <= set(subset) for comp in components)
                    assert (rank < size) == whole, (sorted(g.edges), subset)
                    outcomes.add((len(components), whole))
        assert outcomes == {(1, False), (1, True), (2, False), (2, True)}

    def test_component_formula_rejects_isolated(self):
        with pytest.raises(ValueError, match="isolated"):
            spark_via_components(Graph(3, frozenset({(0, 1)})))

    @pytest.mark.parametrize("name", ["figure1", "two_triangles"])
    def test_methods_agree_on_disconnected_fixtures(self, name):
        g = FIXTURES[name]()
        assert spark(build_lg_frame(g).frame) == spark_via_components(g)


class TestBasisInvariance:
    """Diagnostics agree between the solver's eigenbasis and an independently
    entered block eigenbasis of the same graph."""

    def test_two_component_fixture(self):
        b = bundle_of("figure1")
        alt = alt_frame_two_component()
        assert spark(b.frame) == spark(alt)
        mine = np.sort(np.linalg.norm(b.frame.synthesis, axis=0))
        theirs = np.sort(np.linalg.norm(alt.synthesis, axis=0))
        assert np.abs(mine - theirs).max() <= 1e-8

    def test_cubic8_dual_norms(self):
        b = bundle_of("figure2")
        alt = alt_frame_cubic8()
        mine = np.sort(np.sum(canonical_dual(b) ** 2, axis=0))
        s_alt = alt.frame_operator
        alt_dual = np.linalg.solve(s_alt, alt.synthesis)
        theirs = np.sort(np.sum(alt_dual ** 2, axis=0))
        assert np.abs(mine - theirs).max() <= 1e-8


class TestFrameType:
    def test_rejects_non_spanning(self):
        with pytest.raises(ValueError, match="span"):
            Frame(np.array([[1.0, 2.0], [0.0, 0.0]]))

    def test_rejects_fewer_vectors_than_dimension(self):
        with pytest.raises(ValueError):
            Frame(np.ones((3, 2)))

    def test_cached_operators(self):
        frame = bundle_of("c4").frame
        assert frame.frame_operator.shape == (3, 3)
        assert frame.gramian.shape == (4, 4)
        assert not frame.synthesis.flags.writeable
