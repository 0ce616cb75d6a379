"""Walk-regularity checks and the equal-diagonal pseudoinverse consequences."""

from itertools import combinations

import numpy as np
import pytest

from gframes import (
    Graph,
    build_lg_frame,
    degree_sequence,
    eigh_symmetric,
    is_regular,
    is_walk_regular,
    is_walk_regular_definition,
    laplacian_matrix,
)
from gframes import walkreg
from gframes.walkreg import distinct_nonzero_eigenvalue_count

from _oracles import (
    FIXTURES,
    NOT_WALK_REGULAR,
    WALK_REGULAR,
    c4,
    circulant_graph,
    cubic8,
    edge_list_text,
    hypercube_graph,
    k3,
    kneser_graph,
    object_power_diagonals,
    paley_graph,
    path3,
    petersen,
    regular_census_graphs,
    rook_graph,
    run_cli,
)

REGULAR_CENSUS = regular_census_graphs()

#: Regular graphs whose adjacency spectrum the census may read off the
#: Laplacian's; C60(1..5), C80(1,2) and C200(1..10) leave int64 in the census.
REGULAR_SPECTRA = {
    **{name: FIXTURES[name]() for name in sorted(FIXTURES) if is_regular(FIXTURES[name]())},
    **REGULAR_CENSUS,
    "Paley(29)": paley_graph(29),
    "K(5,2)": kneser_graph(5, 2),
    "K(8,3)": kneser_graph(8, 3),
    "Rook(4)": rook_graph(4),
    "Rook(6)": rook_graph(6),
    "Q4": hypercube_graph(4),
    "Q6": hypercube_graph(6),
    "C60(1..5)": circulant_graph(60, range(1, 6)),
    "C80(1,2)": circulant_graph(80, (1, 2)),
    "C200(1..10)": circulant_graph(200, range(1, 11)),
    "C38(1,6)": circulant_graph(38, (1, 6)),
    "C22(1,10)": circulant_graph(22, (1, 10)),
}


class TestCertifiedPath:
    def test_k3(self):
        report = is_walk_regular(k3())
        assert report.is_walk_regular
        # adjacency eigenvalues 2 and -1
        assert report.distinct_nonzero_eigenvalue_count == 2
        assert [p for p, _ in report.checked_powers] == [1, 2]
        assert report.first_violation is None

    def test_c4(self):
        assert is_walk_regular(c4()).is_walk_regular

    def test_cubic8_violation(self):
        report = is_walk_regular(cubic8())
        assert not report.is_walk_regular
        assert report.first_violation is not None
        power, (u, v) = report.first_violation
        # vertices 0 and 5 sit on no triangle, the rest each sit on one
        assert power == 3 and (u, v) == (0, 1)
        diag = dict(report.checked_powers)[3]
        assert diag[u] != diag[v]

    def test_path3_violation_at_degree_power(self):
        report = is_walk_regular(path3())
        assert not report.is_walk_regular
        assert report.first_violation == (2, (0, 1))

    def test_single_vertex(self):
        report = is_walk_regular(Graph(1, frozenset()))
        assert report.is_walk_regular
        assert report.distinct_nonzero_eigenvalue_count == 0
        assert report.checked_powers == ()

    @pytest.mark.parametrize("name", WALK_REGULAR)
    def test_walk_regular_fixtures(self, name):
        assert is_walk_regular(FIXTURES[name]()).is_walk_regular

    @pytest.mark.parametrize("name", NOT_WALK_REGULAR)
    def test_non_walk_regular_fixtures(self, name):
        assert not is_walk_regular(FIXTURES[name]()).is_walk_regular

    def test_first_violation_is_the_first_unequal_pair(self):
        graphs = [FIXTURES[name]() for name in NOT_WALK_REGULAR]
        graphs += [cubic8(), circulant_graph(12, (1, 2)),
                   Graph(4, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))]  # degrees 2, 2, 3, 1
        for g in graphs:
            report = is_walk_regular(g)
            p, diag = report.checked_powers[-1]
            pairs = [(u, v) for u, v in combinations(range(g.n), 2) if diag[u] != diag[v]]
            assert report.first_violation == ((p, pairs[0]) if pairs else None)
        assert report.first_violation == (2, (0, 2))


class TestCensus:
    @pytest.mark.parametrize("name", sorted(FIXTURES) + sorted(REGULAR_CENSUS))
    def test_checked_powers_match_object_products(self, name):
        g = FIXTURES[name]() if name in FIXTURES else REGULAR_CENSUS[name]
        report = is_walk_regular(g)
        expected = object_power_diagonals(g.adjacency.astype(np.int64),
                                          len(report.checked_powers))
        assert report.checked_powers == tuple(
            (p, tuple(diag)) for p, diag in enumerate(expected, start=1))
        if report.is_walk_regular:
            assert len(report.checked_powers) == report.distinct_nonzero_eigenvalue_count

    @pytest.mark.parametrize("name", sorted(REGULAR_CENSUS))
    def test_vertex_transitive_graphs_are_walk_regular(self, name):
        assert is_walk_regular(REGULAR_CENSUS[name]).is_walk_regular

    @pytest.mark.parametrize("n,jumps,power", [(60, (1, 2, 3, 4, 5), 21), (80, (1, 2), 34)],
                             ids=["C60(1..5)", "C80(1,2)"])
    def test_past_the_int64_range_still_raises(self, tmp_path, n, jumps, power):
        g = circulant_graph(n, jumps)
        message = f"integer matrix power overflows 64-bit range at power {power}"
        with pytest.raises(OverflowError, match=f"^{message}$"):
            is_walk_regular(g)
        path = tmp_path / "circulant.edges"
        path.write_text(edge_list_text(g))
        code, out, err = run_cli(["graph-info", path])
        assert code == 2 and out == "" and message in err


class TestAdjacencySpectrumFromLaplacian:
    """On a d-regular graph A = dI − L, so the census reads A's eigenvalues
    as d − λ from the Laplacian spectrum its caller already holds."""

    @pytest.mark.parametrize("name", sorted(REGULAR_SPECTRA))
    def test_same_count_as_the_adjacency_eigensolve(self, name):
        g = REGULAR_SPECTRA[name]
        degree = is_regular(g)
        laplacian = eigh_symmetric(laplacian_matrix(g)).eigenvalues
        expected = distinct_nonzero_eigenvalue_count(eigh_symmetric(g.adjacency).eigenvalues)
        assert distinct_nonzero_eigenvalue_count(degree - laplacian[::-1]) == expected
        # the frame bundle holds only the nonzero Laplacian eigenvalues
        bundle = build_lg_frame(g)
        padded = np.concatenate([bundle.eigenvalues, np.zeros(bundle.component_count)])
        assert distinct_nonzero_eigenvalue_count(degree - padded[::-1]) == expected

    @pytest.mark.parametrize("name", [name for name in sorted(REGULAR_SPECTRA)
                                      if REGULAR_SPECTRA[name].n < 60])
    def test_no_second_eigensolve(self, monkeypatch, name):
        g = REGULAR_SPECTRA[name]
        expected = is_walk_regular(g)
        laplacian = eigh_symmetric(laplacian_matrix(g)).eigenvalues

        def refuse(_):
            raise AssertionError("adjacency eigensolve")

        monkeypatch.setattr(walkreg, "eigh_symmetric", refuse)
        report = is_walk_regular(g, laplacian)
        assert report.is_walk_regular == expected.is_walk_regular
        assert report.distinct_nonzero_eigenvalue_count == expected.distinct_nonzero_eigenvalue_count
        assert report.checked_powers == expected.checked_powers
        assert report.first_violation == expected.first_violation

    def test_irregular_graphs_solve_the_adjacency(self):
        g = path3()
        laplacian = eigh_symmetric(laplacian_matrix(g)).eigenvalues
        # adjacency eigenvalues ±√2 and 0; the Laplacian's 3, 1, 0 would give three
        assert is_walk_regular(g, laplacian).distinct_nonzero_eigenvalue_count == 2

    def test_short_spectrum_is_refused(self):
        # K4 ∪ K3,3 is 3-regular but not walk-regular (closed 3-walks: 6 on
        # K4, 0 on the bipartite K3,3); a one-value spectrum gave k = 1, and
        # the census checked power 1 only and certified it
        k33 = {(u, v) for u in range(4, 7) for v in range(7, 10)}
        g = Graph(10, frozenset(set(combinations(range(4), 2)) | k33))
        assert not is_walk_regular(g).is_walk_regular
        for spectrum in ([0.0], np.zeros(9), np.zeros(11), np.zeros((10, 1))):
            with pytest.raises(ValueError, match="one per vertex"):
                is_walk_regular(g, spectrum)
        with pytest.raises(ValueError, match="one per vertex"):
            is_walk_regular(path3(), [0.0])  # irregular graphs check it too


class TestIrregularAtScale:
    def test_census_stops_at_the_degrees(self):
        # n = 300, the README's "a few hundred": Δ^k is far past 2^63, yet
        # powers 1 and 2 need no product, so nothing overflows or raises
        rng = np.random.default_rng(300)
        pairs = combinations(range(300), 2)
        g = Graph(300, frozenset(edge for edge in pairs if rng.random() < 0.1))
        degrees = degree_sequence(g)
        report = is_walk_regular(g)
        assert max(degrees) ** report.distinct_nonzero_eigenvalue_count > 2.0**200
        assert not report.is_walk_regular
        assert report.checked_powers == ((1, (0,) * 300), (2, tuple(degrees)))
        v = next(v for v in range(300) if degrees[v] != degrees[0])
        assert report.first_violation == (2, (0, v))


class TestDefinitionPath:
    def test_k3_six_powers(self):
        report = is_walk_regular_definition(k3(), 6)
        assert report.is_walk_regular
        assert [p for p, _ in report.checked_powers] == list(range(1, 7))
        for _, diag in report.checked_powers:
            assert min(diag) == max(diag)

    def test_cubic8_violation_found(self):
        report = is_walk_regular_definition(cubic8(), 8)
        assert not report.is_walk_regular
        assert report.first_violation[0] <= 8

    def test_single_vertex_any_power(self):
        report = is_walk_regular_definition(Graph(1, frozenset()), 12)
        assert report.is_walk_regular
        assert all(diag == (0,) for _, diag in report.checked_powers[1:])

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_agreement_with_certified_path(self, name):
        g = FIXTURES[name]()
        certified = is_walk_regular(g)
        definitional = is_walk_regular_definition(g, g.n)
        assert certified.is_walk_regular == definitional.is_walk_regular

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            is_walk_regular_definition(k3(), 0)

    def test_integer_power_follows_graph_rule(self):
        expected = is_walk_regular_definition(cubic8(), 3)
        for power in (np.int64(3), np.uint8(3)):
            report = is_walk_regular_definition(cubic8(), power)
            assert report.checked_powers == expected.checked_powers
            assert report.first_violation == expected.first_violation
        for bad in (True, False, 3.0, "3", None):
            with pytest.raises(ValueError, match="p_max must be a positive integer"):
                is_walk_regular_definition(k3(), bad)


def diagonal_spread(m) -> float:
    """max - min of the diagonal of a square matrix."""
    return float(np.ptp(np.diag(m)))


class TestEqualDiagonal:
    def test_k3_pseudoinverse(self):
        assert diagonal_spread(np.linalg.pinv(laplacian_matrix(k3()))) <= 1e-9

    def test_cubic8_laplacian_pseudoinverse(self):
        pinv = np.linalg.pinv(laplacian_matrix(cubic8()))
        assert abs(diagonal_spread(pinv) - 0.0328) <= 1e-3
        # squared canonical-dual norms, three distinct values across 8 vertices
        diag = np.sort(np.unique(np.round(np.diag(pinv), 6)))
        assert np.allclose(diag, [0.299107, 0.322917, 0.331845], atol=1e-6)

    def test_petersen_adjacency_pseudoinverse(self):
        assert diagonal_spread(np.linalg.pinv(petersen().adjacency)) <= 1e-9


class TestPseudoinverseConsequences:
    """Walk-regular graphs have equal-diagonal pseudoinverses for both the
    adjacency and the Laplacian matrix; the cubic fixture is the regular
    counterexample."""

    @pytest.mark.parametrize("name", WALK_REGULAR)
    def test_adjacency_diag_constant(self, name):
        g = FIXTURES[name]()
        assert diagonal_spread(np.linalg.pinv(g.adjacency)) <= 1e-9

    @pytest.mark.parametrize("name", WALK_REGULAR)
    def test_laplacian_diag_constant(self, name):
        g = FIXTURES[name]()
        assert diagonal_spread(np.linalg.pinv(laplacian_matrix(g))) <= 1e-9

    @pytest.mark.parametrize("name", WALK_REGULAR)
    def test_walk_regular_implies_regular(self, name):
        g = FIXTURES[name]()
        assert is_regular(g) is not None

    def test_regular_but_not_walk_regular_contrapositive(self):
        g = cubic8()
        assert is_regular(g) == 3
        assert not is_walk_regular(g).is_walk_regular
        assert not is_walk_regular_definition(g, g.n).is_walk_regular
        assert diagonal_spread(np.linalg.pinv(laplacian_matrix(g))) > 1e-9
