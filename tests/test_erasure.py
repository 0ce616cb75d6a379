"""Erasure error operators, worst-case norms, verdicts, and the dual search."""

from itertools import combinations

import numpy as np
import pytest

from gframes import (
    EnumerationGuardError,
    Graph,
    VERDICT_INCONCLUSIVE,
    VERDICT_NOT_OD,
    VERDICT_OD_SINGLE,
    VERDICT_UNIQUE_ALL,
    build_lg_frame,
    canonical_dual,
    canonical_products,
    canonical_verdict,
    constancy_certificate,
    d1_fast,
    d_r,
    d_r_lower_bound,
    dual_family_member,
    error_operator,
    fixtures,
    lambda1_set,
    non_optimality_witness,
    perturbation_search,
    unitary_equivalence_witness,
)

from gframes import erasure

from _oracles import alt_frame_cubic8, alt_frame_two_component, random_connected_graph

SQRT10_OVER_4 = np.sqrt(10.0) / 4.0
CUBIC8_D1 = 0.9977653603356424          # sqrt(3) * max dual norm
CUBIC8_SHIFTED_D1 = 0.9972071178616011  # D^1 of the worked shifted dual


def bundle_of(name):
    return build_lg_frame(fixtures.FIXTURES[name]())


def disjoint_union(a, b):
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Graph(a.n + b.n, frozenset(a.edges | shifted))


def cycle(m):
    return Graph(m, frozenset((i, (i + 1) % m) for i in range(m)))


class TestOneCanonicalPath:
    """The products, the verdicts and D^r all read the same canonical dual."""

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_products_equal_d1_fast_on_fixtures(self, name):
        b = bundle_of(name)
        assert np.array_equal(canonical_products(b), d1_fast(b.frame, canonical_dual(b))[1])

    def test_products_equal_d1_fast_on_random_graphs(self):
        rng = np.random.default_rng(271)
        for _ in range(50):
            b = build_lg_frame(random_connected_graph(rng, 6, 30))
            assert np.array_equal(canonical_products(b), d1_fast(b.frame, canonical_dual(b))[1])


class TestPerComponentOptimality:
    def test_search_improves_unless_a_constant_component_attains_max(self):
        # Components separate, so the canonical D^1 can be lowered exactly
        # when every component meeting the argmax set has non-constant
        # products. Graphs: a cycle plus an irregular graph, or two
        # irregular graphs, n <= 12; the seed gives both outcomes.
        rng = np.random.default_rng(9)
        outcomes = []
        for trial in range(8):
            if trial % 2 == 0:
                m = int(rng.integers(4, 9))
                g = disjoint_union(cycle(m), random_connected_graph(rng, 4, min(6, 12 - m)))
            else:
                g = disjoint_union(random_connected_graph(rng, 3, 6),
                                   random_connected_graph(rng, 3, 6))
            b = build_lg_frame(g)
            products = canonical_products(b)
            top = set(lambda1_set(b))
            constant_at_max = any(
                not top.isdisjoint(members)
                and np.ptp(products[list(members)]) <= erasure._TIE_TOL * products.max()
                for members in g.components
            )
            assert perturbation_search(b).improved != constant_at_max, trial
            outcomes.append(constant_at_max)
        assert any(outcomes) and not all(outcomes)


class TestErrorOperator:
    def test_empty_subset(self):
        b = bundle_of("k3")
        assert np.array_equal(error_operator(b.frame, canonical_dual(b), []), np.zeros((2, 2)))

    def test_singleton_is_rank_one(self):
        b = bundle_of("figure1")
        dual = canonical_dual(b)
        for i in range(7):
            op = error_operator(b.frame, dual, [i])
            f_i = b.frame.synthesis[:, i]
            h_i = dual[:, i]
            assert np.linalg.norm(op, 2) == pytest.approx(
                np.linalg.norm(f_i) * np.linalg.norm(h_i), abs=1e-12
            )

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_full_subset_reconstructs_identity(self, name):
        b = bundle_of(name)
        rng = np.random.default_rng(5)
        shifts = 0.1 * rng.standard_normal((b.component_count, b.frame.dim))
        dual = dual_family_member(b, shifts)
        op = error_operator(b.frame, dual, range(b.frame.count))
        assert np.abs(op - np.eye(b.frame.dim)).max() <= 1e-8

    def test_index_out_of_range(self):
        b = bundle_of("k3")
        with pytest.raises(IndexError):
            error_operator(b.frame, canonical_dual(b), [3])


class TestDR:
    def test_single_erasure_two_component_fixture(self):
        b = bundle_of("figure1")
        value, subset = d_r(b.frame, canonical_dual(b), 1)
        assert value == pytest.approx(SQRT10_OVER_4, abs=1e-9)
        assert subset[0] in (3, 4, 5, 6)

    def test_single_erasure_cubic8(self):
        b = bundle_of("figure2")
        value, _ = d_r(b.frame, canonical_dual(b), 1)
        assert value == pytest.approx(CUBIC8_D1, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_erasures_against_lapack(self, name):
        """D^r and its lower bound against the explicit k×k error operators'
        LAPACK norms, independent of the Gramian-block identity; the subset
        reported is the first within a relative 1e-9 of the maximum."""
        b = bundle_of(name)
        rng = np.random.default_rng(17)
        shifts = 0.1 * rng.standard_normal((b.component_count, b.frame.dim))
        n = b.frame.count

        def worst(dual, subsets):
            norms = [np.linalg.norm(error_operator(b.frame, dual, s), 2) for s in subsets]
            top = max(norms)
            return top, next(s for s, v in zip(subsets, norms) if v >= top * (1 - 1e-9))

        for dual in (canonical_dual(b), dual_family_member(b, shifts)):
            for r in range(1, min(3, n - 1) + 1):
                expected, first = worst(dual, list(combinations(range(n), r)))
                value, subset = d_r(b.frame, dual, r)
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)
                assert subset == first

                draws = np.random.default_rng(r)
                sampled = [tuple(sorted(draws.choice(n, size=r, replace=False).tolist()))
                           for _ in range(6)]
                expected, first = worst(dual, sampled)
                value, subset = d_r_lower_bound(b.frame, dual, r, samples=6, seed=r)
                assert value == pytest.approx(expected, rel=1e-12, abs=1e-14)
                assert subset == first
        if name == "k3":
            assert d_r(b.frame, canonical_dual(b), 2)[0] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(fixtures.FIXTURES))
    def test_d1_fast_agrees_with_enumeration(self, name):
        b = bundle_of(name)
        rng = np.random.default_rng(31)
        duals = [canonical_dual(b)]
        duals.append(dual_family_member(b, 0.2 * rng.standard_normal((b.component_count, b.frame.dim))))
        for dual in duals:
            fast, products = d1_fast(b.frame, dual)
            slow, _ = d_r(b.frame, dual, 1)
            assert abs(fast - slow) <= 1e-10
            assert fast == products.max()

    def test_monotonicity_in_r_is_not_assumed(self):
        """Worst-case norms need not grow with r: adding an erased index can
        cancel part of the error operator. Freeze the empirical behavior on
        the fixtures — monotone on some, genuinely violated on others."""
        sequences = {}
        for name in ("k3", "c4", "figure1", "figure2"):
            b = bundle_of(name)
            dual = canonical_dual(b)
            sequences[name] = [
                d_r(b.frame, dual, r)[0] for r in range(1, min(4, b.frame.count))
            ]
        for name in ("k3", "figure1"):
            values = sequences[name]
            assert all(a <= b_ + 1e-12 for a, b_ in zip(values, values[1:]))
        # the 4-cycle: D^2 = 3/(2 sqrt 2) but D^3 drops back down
        assert sequences["c4"][1] == pytest.approx(1.060660172, abs=1e-9)
        assert sequences["c4"][2] == pytest.approx(1.032662147, abs=1e-9)
        assert sequences["c4"][2] < sequences["c4"][1]
        assert sequences["figure2"][2] < sequences["figure2"][1]
        # D^1 <= D^2 held everywhere we looked
        for values in sequences.values():
            assert values[0] <= values[1] + 1e-12

    def test_guard(self):
        b = bundle_of("petersen")
        with pytest.raises(EnumerationGuardError):
            d_r(b.frame, canonical_dual(b), 5, guard=100)

    def test_rejects_full_erasure(self):
        b = bundle_of("k3")
        with pytest.raises(ValueError):
            d_r(b.frame, canonical_dual(b), 3)

    def test_lower_bound_below_exact(self):
        b = bundle_of("figure2")
        dual = canonical_dual(b)
        exact, _ = d_r(b.frame, dual, 2)
        bound, subset = d_r_lower_bound(b.frame, dual, 2, samples=10, seed=4)
        assert bound <= exact + 1e-12
        assert len(subset) == 2


class TestLambdaSetAndConstancy:
    def test_two_component_fixture(self):
        b = bundle_of("figure1")
        assert lambda1_set(b) == (3, 4, 5, 6)
        cert = constancy_certificate(b)
        assert not cert.is_constant
        assert cert.spread == pytest.approx(SQRT10_OVER_4 - 2.0 / 3.0, abs=1e-9)

    def test_cubic8(self):
        b = bundle_of("figure2")
        assert lambda1_set(b) == (1, 4, 6, 7)
        cert = constancy_certificate(b)
        assert not cert.is_constant
        # sqrt(3) * (0.57606 - 0.546907)
        assert cert.spread == pytest.approx(0.0504948, abs=1e-6)

    def test_k3_all_tied(self):
        b = bundle_of("k3")
        assert lambda1_set(b) == (0, 1, 2)
        assert constancy_certificate(b).is_constant

    @pytest.mark.parametrize("name", fixtures.WALK_REGULAR)
    def test_walk_regular_fixtures_constant(self, name):
        assert constancy_certificate(bundle_of(name)).is_constant

    def test_products_in_vertex_order(self):
        g = Graph(4, frozenset({(0, 2), (1, 3)}))
        b = build_lg_frame(g)
        products = canonical_products(b)
        # both components are single edges, so all products coincide
        assert np.allclose(products, products[0], atol=1e-12)


class TestNonOptimalityWitness:
    def test_cubic8_found(self):
        b = bundle_of("figure2")
        witness = non_optimality_witness(b)
        assert witness is not None
        assert witness.vertices == (1, 4, 6, 7)
        assert np.array_equal(witness.coefficients, np.ones(8))
        assert witness.dependence_residual <= 1e-9

    def test_k3_absent(self):
        # the argmax set is the whole frame, which is dependent
        assert non_optimality_witness(bundle_of("k3")) is None

    def test_two_component_fixture_absent(self):
        # four 4-cycle columns span only a 3-dimensional block
        assert non_optimality_witness(bundle_of("figure1")) is None


class TestVerdicts:
    def test_k3_unique(self):
        report = canonical_verdict(bundle_of("k3"))
        assert report.verdict == VERDICT_UNIQUE_ALL
        assert report.verdict_basis["certificate"] == "walk_regular_graph"
        assert report.search_best is None

    def test_two_triangles_unique(self):
        report = canonical_verdict(bundle_of("two_triangles"))
        assert report.verdict == VERDICT_UNIQUE_ALL

    def test_constant_products_without_walk_regularity(self):
        # two single-edge components: not walk-regular as a union of K2s is,
        # actually walk-regular, so use a pair of different walk-regular
        # components with equal products instead: two triangles is covered
        # above; here force the certificate order by checking the basis tag.
        report = canonical_verdict(bundle_of("two_triangles"))
        assert report.verdict_basis["certificate"] in (
            "walk_regular_graph", "constant_norm_products"
        )

    def test_two_component_fixture_od_single_not_unique(self):
        report = canonical_verdict(bundle_of("figure1"))
        assert report.verdict == VERDICT_OD_SINGLE
        assert report.verdict_basis["uniqueness"] == "not_unique"
        assert report.verdict_basis["tie_d1"] == pytest.approx(report.d1_canonical, abs=1e-12)
        assert report.d1_canonical == pytest.approx(SQRT10_OVER_4, abs=1e-9)

    def test_cubic8_not_od(self):
        report = canonical_verdict(bundle_of("figure2"))
        assert report.verdict == VERDICT_NOT_OD
        assert report.verdict_basis["certificate"] == "independent_argmax_with_global_dependence"
        assert report.verdict_basis["witness_vertices"] == [1, 4, 6, 7]

    def test_path3_not_od(self):
        assert canonical_verdict(bundle_of("path3")).verdict == VERDICT_NOT_OD

    def test_inconclusive_with_search(self):
        # cubic8 plus a path: disconnected, non-constant, and the argmax
        # component is not walk-regular, so no certificate applies
        cubic = fixtures.cubic8()
        edges = set(cubic.edges) | {(8, 9), (9, 10)}
        g = Graph(11, frozenset(edges))
        report = canonical_verdict(g_bundle := build_lg_frame(g), trials=200, seed=3)
        assert report.verdict == VERDICT_INCONCLUSIVE
        assert report.search_best is not None
        assert report.search_best.improved
        assert lambda1_set(g_bundle) == (1, 4, 6, 7)

    def test_per_vertex_products_match_report(self):
        b = bundle_of("figure2")
        report = canonical_verdict(b)
        assert np.array_equal(report.per_vertex_products, canonical_products(b))
        assert report.lambda1 == lambda1_set(b)


class TestPerturbationSearch:
    def test_walk_regular_never_improves(self):
        for name in ("k3", "c4", "petersen"):
            b = bundle_of(name)
            for seed in range(3):
                result = perturbation_search(b, trials=300, radius=0.05, seed=seed)
                assert not result.improved
                assert result.d1 >= result.canonical_d1 - 1e-9

    def test_cubic8_improves(self):
        b = bundle_of("figure2")
        result = perturbation_search(b, trials=2000, radius=0.01, seed=0)
        assert result.improved
        assert result.canonical_d1 - result.d1 >= 0.0005
        assert result.d1 <= CUBIC8_SHIFTED_D1 + 1e-4
        member = dual_family_member(b, result.shifts)
        value, _ = d1_fast(b.frame, member)
        assert value == pytest.approx(result.d1, abs=1e-12)

    def test_path3_improves(self):
        result = perturbation_search(bundle_of("path3"), trials=500, radius=0.05, seed=1)
        assert result.improved

    def test_vanishing_radius(self):
        b = bundle_of("figure2")
        result = perturbation_search(b, trials=50, radius=1e-15, seed=0)
        assert abs(result.d1 - result.canonical_d1) <= 1e-9
        assert not result.improved

    def test_deterministic(self):
        b = bundle_of("figure2")
        a = perturbation_search(b, trials=500, radius=0.01, seed=7)
        c = perturbation_search(b, trials=500, radius=0.01, seed=7)
        assert a.d1 == c.d1
        assert np.array_equal(a.shifts, c.shifts)

    def test_validation(self):
        b = bundle_of("k3")
        with pytest.raises(ValueError):
            perturbation_search(b, trials=0)
        with pytest.raises(ValueError):
            perturbation_search(b, radius=0.0)


def probe_bundles():
    """The fixtures plus 36 seeded graphs, every third of them two components."""
    bundles = [bundle_of(name) for name in sorted(fixtures.FIXTURES)]
    rng = np.random.default_rng(4242)
    for trial in range(36):
        if trial % 3 == 0:
            g = disjoint_union(random_connected_graph(rng, 3, 7), random_connected_graph(rng, 3, 7))
        else:
            g = random_connected_graph(rng, 4, 14)
        bundles.append(build_lg_frame(g))
    return bundles


class TestClosedFormProbes:
    """The descents' closed-form probes equal D^1 of the probed dual."""

    def test_coordinate_probes(self):
        rng = np.random.default_rng(17)
        for b in probe_bundles():
            m, k = b.component_count, b.frame.dim
            x = 0.05 * rng.standard_normal((m, k))
            state = erasure._ShiftState(b, x)
            for _ in range(5):
                c, d = int(rng.integers(m)), int(rng.integers(k))
                t = state.x[c, d] + 0.1 * rng.standard_normal()
                y = state.x.copy()
                y[c, d] = t
                expected, _ = d1_fast(b.frame, dual_family_member(b, y))
                assert np.sqrt(state.coordinate_probe(c, d)(t)) == pytest.approx(expected, rel=1e-12)
                state.move(c, d, t)
                assert np.array_equal(state.x, y)
                assert np.sqrt(max(state.top)) == pytest.approx(expected, rel=1e-12)

    def test_line_probes(self):
        rng = np.random.default_rng(18)
        for b in probe_bundles():
            m, k = b.component_count, b.frame.dim
            w2 = (b.frame.synthesis ** 2).sum(axis=0)
            x = 0.05 * rng.standard_normal((m, k))
            h = dual_family_member(b, x)
            for _ in range(5):
                unit = rng.standard_normal((m, k))
                unit /= np.linalg.norm(unit)
                probe = erasure._line_probe(h, w2, unit[b.column_component].T)
                t = 0.1 * rng.random()
                expected, _ = d1_fast(b.frame, dual_family_member(b, x + t * unit))
                assert np.sqrt(probe(t)) == pytest.approx(expected, rel=1e-12)


class TestSearchQualityPins:
    """The search's d1 and ``improved`` as the search gave them when every
    probe rebuilt the whole dual. Evaluating the same probes in closed form
    changes their rounding, which may move d1 in its last digits but must
    not lose quality; a change of descent path (say, exact line
    minimisation instead of trisection) shows up here."""

    PINS = {
        "figure2": (0.9837378827737364, True),
        "cubic8-2000": (0.9837378831914146, True),
        "connected0": (0.9473093121046698, True),
        "connected1": (0.9873970495669312, True),
        "connected2": (0.9447201422182278, True),
        "connected3": (1.3404257981392123, True),
        "two0": (0.9724173491290256, True),
        "two1": (0.8701894318346964, True),
    }

    @staticmethod
    def cases():
        yield "figure2", bundle_of("figure2"), {}
        yield "cubic8-2000", build_lg_frame(fixtures.cubic8()), dict(trials=2000, radius=0.01, seed=0)
        rng = np.random.default_rng(1010)
        for i in range(4):
            g = random_connected_graph(rng, 6, 10)
            yield f"connected{i}", build_lg_frame(g), dict(trials=300, radius=0.05, seed=i)
        for i in range(2):
            g = disjoint_union(random_connected_graph(rng, 3, 6), random_connected_graph(rng, 3, 6))
            yield f"two{i}", build_lg_frame(g), dict(trials=300, radius=0.05, seed=10 + i)

    def test_no_worse_than_pinned(self):
        for name, b, kwargs in self.cases():
            pinned_d1, pinned_improved = self.PINS[name]
            result = perturbation_search(b, **kwargs)
            assert result.d1 <= pinned_d1 + 1e-8 * result.canonical_d1, name
            assert result.improved == pinned_improved, name


class TestWorkedShiftedDuals:
    """Reproduce the two worked alternate duals by mapping their shifts from
    the block eigenbasis into the solver's basis with the unitary witness."""

    def test_two_component_shift_keeps_d1(self):
        b = bundle_of("figure1")
        alt = alt_frame_two_component()
        witness = unitary_equivalence_witness(alt, b.frame)
        assert witness is not None
        shift_alt = np.array([0.0, 0.0, 0.0, 0.01, 0.01])
        shift_mine = witness.T @ shift_alt
        dual = dual_family_member(b, np.vstack([shift_mine, np.zeros(5)]))
        value, products = d1_fast(b.frame, dual)
        assert value == pytest.approx(SQRT10_OVER_4, abs=1e-9)
        triangle = np.sort(products[:3])
        assert np.allclose(triangle, sorted([0.672121, 0.680956, 0.647369]), atol=1e-6)
        assert np.allclose(products[3:], SQRT10_OVER_4, atol=1e-9)

    def test_cubic8_shift_lowers_d1(self):
        b = bundle_of("figure2")
        alt = alt_frame_cubic8()
        witness = unitary_equivalence_witness(alt, b.frame)
        assert witness is not None
        shift_alt = np.array([0.001, -0.001, 0.0, 0.0, 0.0, 0.0, 0.0])
        shift_mine = witness.T @ shift_alt
        dual = dual_family_member(b, shift_mine[None, :])
        value, products = d1_fast(b.frame, dual)
        assert value == pytest.approx(CUBIC8_SHIFTED_D1, abs=1e-9)
        assert value < CUBIC8_D1
        norms = np.sort(products / np.sqrt(3.0))
        expected = np.sort([0.547359, 0.547359, 0.575530, 0.575530,
                            0.568693, 0.568693, 0.575738, 0.575738])
        assert np.allclose(norms, expected, atol=5e-6)


class TestBasisInvariance:
    def test_dr_same_under_eigenvector_freedom(self):
        """Value and subset are basis-free: ties go to the first subset in
        enumeration order, never to whichever rounding favours."""
        for name, alt in (("figure1", alt_frame_two_component()), ("figure2", alt_frame_cubic8())):
            b = bundle_of(name)
            alt_dual = np.linalg.solve(alt.frame_operator, alt.synthesis)
            mine_dual = canonical_dual(b)
            for r in (1, 2, 3):
                mine, mine_subset = d_r(b.frame, mine_dual, r)
                theirs, their_subset = d_r(alt, alt_dual, r)
                assert abs(mine - theirs) <= 1e-8
                assert mine_subset == their_subset

    def test_lambda1_same_under_eigenvector_freedom(self):
        b = bundle_of("figure2")
        alt = alt_frame_cubic8()
        products_alt = np.linalg.norm(alt.synthesis, axis=0) * np.linalg.norm(
            np.linalg.solve(alt.frame_operator, alt.synthesis), axis=0
        )
        top = products_alt.max()
        alt_lambda1 = tuple(np.where(products_alt >= top * (1 - 1e-9))[0])
        assert alt_lambda1 == lambda1_set(b)
