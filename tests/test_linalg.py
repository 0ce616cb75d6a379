"""Eigensolver contract, pseudoinverse axioms, norms, ranks, and the
closed-form determinant identity."""

import numpy as np
import pytest

from gframes import (
    ConvergenceError,
    adjacency_matrix,
    eigh_symmetric,
    fixtures,
    generalized_vandermonde_det,
    laplacian_matrix,
    matrix_power_diagonal,
    moore_penrose,
    numerical_rank,
    spectral_norm,
)
from gframes.linalg import _exact_power_diagonals, _max_abs_row_sum

from _oracles import (
    bareiss_det,
    circulant_graph,
    count_closed_walks,
    jacobi_eigh,
    object_power_diagonals,
    paley_graph,
    random_connected_graph,
    random_symmetric,
    regular_census_graphs,
)

#: Fixtures whose Laplacian and adjacency matrices the eigensolver and
#: pseudoinverse tests check. A fixed list: test ids number the matrices by
#: position, so a fixture added to the registry must not renumber them.
MATRIX_FIXTURES = ("c4", "figure1", "figure2", "k3", "k33", "path3", "petersen", "two_triangles")


def fixture_matrices():
    out = []
    for name in MATRIX_FIXTURES:
        g = fixtures.FIXTURES[name]()
        out.append((f"L({name})", laplacian_matrix(g)))
        out.append((f"A({name})", adjacency_matrix(g)))
    return out


class TestEigh:
    def test_k3_laplacian_eigenvalues(self):
        # characteristic polynomial of the triangle Laplacian: x(x-3)^2
        spectrum = eigh_symmetric(laplacian_matrix(fixtures.k3()))
        assert np.allclose(spectrum.eigenvalues, [3.0, 3.0, 0.0], atol=1e-12)

    def test_two_component_spectrum(self):
        spectrum = eigh_symmetric(laplacian_matrix(fixtures.k3_plus_c4()))
        assert np.allclose(spectrum.eigenvalues, [4, 3, 3, 2, 2, 0, 0], atol=1e-9)

    def test_cubic8_spectrum(self):
        spectrum = eigh_symmetric(laplacian_matrix(fixtures.cubic8()))
        r2, r3 = np.sqrt(2), np.sqrt(3)
        expected = sorted([4, 4, 2, 4 - r2, 4 + r2, 3 - r3, 3 + r3, 0], reverse=True)
        assert np.allclose(spectrum.eigenvalues, expected, atol=1e-9)

    @pytest.mark.parametrize("label,matrix", fixture_matrices())
    def test_contract_on_fixture_matrices(self, label, matrix):
        spectrum = eigh_symmetric(matrix)
        n = matrix.shape[0]
        assert np.abs(spectrum.eigenvectors.T @ spectrum.eigenvectors - np.eye(n)).max() <= 1e-10
        scale = max(1.0, np.abs(spectrum.eigenvalues).max())
        rebuilt = (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T
        assert np.abs(rebuilt - matrix).max() <= 1e-9 * scale
        assert np.all(np.diff(spectrum.eigenvalues) <= 1e-15)

    def test_contract_on_random_symmetric(self):
        rng = np.random.default_rng(42)
        for n in range(1, 17):
            m = random_symmetric(rng, n)
            spectrum = eigh_symmetric(m)
            assert np.abs(spectrum.eigenvectors.T @ spectrum.eigenvectors - np.eye(n)).max() <= 1e-10
            scale = max(1.0, np.abs(spectrum.eigenvalues).max())
            rebuilt = (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.T
            assert np.abs(rebuilt - m).max() <= 1e-9 * scale
            # eigenvalues agree with the LAPACK route
            assert np.allclose(spectrum.eigenvalues, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10)

    def test_deterministic(self):
        m = random_symmetric(np.random.default_rng(3), 9)
        a = eigh_symmetric(m)
        b = eigh_symmetric(m.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_sign_convention(self):
        spectrum = eigh_symmetric(laplacian_matrix(fixtures.petersen()))
        for j in range(spectrum.n):
            col = spectrum.eigenvectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_zero_matrix(self):
        spectrum = eigh_symmetric(np.zeros((4, 4)))
        assert np.array_equal(spectrum.eigenvalues, np.zeros(4))
        assert np.array_equal(spectrum.eigenvectors, np.eye(4))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            eigh_symmetric(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eigh_symmetric(m)


def _random_symmetric_matrices():
    rng = np.random.default_rng(42)
    return [(f"random(n={n})", random_symmetric(rng, n)) for n in range(1, 17)]


def _eigenspace_projectors(vecs, groups):
    return [vecs[:, g] @ vecs[:, g].T for g in groups]


class TestAgainstJacobiOracle:
    """Eigenvalues and spectral projectors are basis invariants, so they
    must agree with the Jacobi sweep even where eigenvectors need not."""

    @pytest.mark.parametrize("label,matrix", fixture_matrices() + _random_symmetric_matrices())
    def test_eigenvalues_and_projectors(self, label, matrix):
        oracle_vals, oracle_vecs = jacobi_eigh(matrix)
        spectrum = eigh_symmetric(matrix)
        scale = max(1.0, float(np.abs(oracle_vals).max()))
        assert np.abs(spectrum.eigenvalues - oracle_vals).max() <= 1e-10 * scale
        # eigenspaces: runs of eigenvalues closer than 1e-6 * scale
        breaks = np.where(-np.diff(oracle_vals) > 1e-6 * scale)[0] + 1
        groups = np.split(np.arange(len(oracle_vals)), breaks)
        ours = _eigenspace_projectors(spectrum.eigenvectors, groups)
        theirs = _eigenspace_projectors(oracle_vecs, groups)
        for mine, oracle in zip(ours, theirs):
            assert np.abs(mine - oracle).max() <= 1e-8


class TestMoorePenrose:
    def test_diagonal(self):
        assert np.allclose(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        assert np.allclose(moore_penrose(np.eye(5)), np.eye(5), atol=1e-12)

    def test_k3_closed_form(self):
        # candidate (3I - J)/9 satisfies all four axioms, hence is the pseudoinverse
        lap = laplacian_matrix(fixtures.k3())
        candidate = (3 * np.eye(3) - np.ones((3, 3))) / 9
        assert np.abs(lap @ candidate @ lap - lap).max() <= 1e-12
        assert np.abs(candidate @ lap @ candidate - candidate).max() <= 1e-12
        assert np.array_equal((lap @ candidate).T, lap @ candidate)
        assert np.array_equal((candidate @ lap).T, candidate @ lap)
        computed = moore_penrose(lap)
        assert np.abs(computed - candidate).max() <= 1e-12
        assert np.allclose(np.diag(computed), 2.0 / 9.0, atol=1e-12)

    @pytest.mark.parametrize("label,matrix", fixture_matrices())
    def test_penrose_axioms_on_fixtures(self, label, matrix):
        pinv = moore_penrose(matrix)
        assert np.abs(matrix @ pinv @ matrix - matrix).max() <= 1e-8
        assert np.abs(pinv @ matrix @ pinv - pinv).max() <= 1e-8
        assert np.abs(matrix @ pinv - (matrix @ pinv).T).max() <= 1e-10
        assert np.abs(pinv @ matrix - (pinv @ matrix).T).max() <= 1e-10

    @pytest.mark.parametrize("label,matrix", fixture_matrices())
    def test_agrees_with_lapack_pinv(self, label, matrix):
        assert np.abs(moore_penrose(matrix) - np.linalg.pinv(matrix)).max() <= 1e-9


class TestMatrixPowerDiagonal:
    def test_triangle_walk_counts(self):
        a = adjacency_matrix(fixtures.k3())
        assert matrix_power_diagonal(a, 2) == [2, 2, 2]
        assert matrix_power_diagonal(a, 3) == [2, 2, 2]

    @pytest.mark.parametrize("name", ["k3", "c4", "path3"])
    def test_matches_walk_enumeration(self, name):
        g = fixtures.FIXTURES[name]()
        a = adjacency_matrix(g)
        for p in range(1, 6):
            expected = [count_closed_walks(g, v, p) for v in range(g.n)]
            assert matrix_power_diagonal(a, p) == expected

    def test_cubic8_has_nonconstant_power(self):
        a = adjacency_matrix(fixtures.cubic8())
        spreads = [max(d) - min(d) for d in (matrix_power_diagonal(a, p) for p in range(1, 8))]
        assert any(s > 0 for s in spreads)

    def test_overflow_raises(self):
        m = np.full((2, 2), 2**31, dtype=float)
        with pytest.raises(OverflowError, match="exact=False"):
            matrix_power_diagonal(m, 3)

    def test_float_path(self):
        m = np.array([[0.5, 0.25], [0.25, 0.5]])
        diag = matrix_power_diagonal(m, 2)
        assert np.allclose(diag, np.diag(m @ m))

    def test_forced_float_path_survives_overflow(self):
        m = np.full((2, 2), 2**31, dtype=float)
        diag = matrix_power_diagonal(m, 3, exact=False)
        assert np.allclose(diag, np.diag(m @ m @ m), rtol=1e-12)

    def test_exact_on_non_integral_rejected(self):
        with pytest.raises(ValueError, match="integer-valued"):
            matrix_power_diagonal(np.array([[0.5]]), 2, exact=True)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            matrix_power_diagonal(np.eye(2), 0)



_INT64_MAX = 2**63 - 1


def python_row_sum(m) -> int:
    """Largest absolute row sum of m, summed in Python ints."""
    return max(sum(abs(int(x)) for x in row) for row in np.asarray(m).tolist())


def int64_reach(m) -> int:
    """Largest p with r^p <= 2^63 - 1, r the largest absolute row sum of m
    (capped at 200 for r <= 1): the powers the int64 census route covers."""
    r = python_row_sum(m)
    p = 0
    while p < 200 and r ** (p + 1) <= _INT64_MAX:
        p += 1
    return p


def _census_graphs():
    """The fixtures, named regular graphs, and seeded circulants."""
    graphs = [(name, fixtures.FIXTURES[name]()) for name in sorted(fixtures.FIXTURES)]
    graphs += list(regular_census_graphs().items())
    rng = np.random.default_rng(19)
    for _ in range(4):
        n = int(rng.integers(9, 41))
        jumps = rng.choice(np.arange(1, n // 2 + 1), size=int(rng.integers(1, 5)), replace=False)
        jumps = sorted(int(j) for j in jumps)
        graphs.append((f"C{n}({','.join(map(str, jumps))})", circulant_graph(n, jumps)))
    return graphs


CENSUS_GRAPHS = _census_graphs()
LAPLACIAN_GRAPHS = CENSUS_GRAPHS[:12] + [
    (f"random{i}", random_connected_graph(np.random.default_rng(40 + i))) for i in range(6)]


# the matrices the census tests put at and around the int64 bound, and
# entries whose row sums (or whose abs) leave int64
BOUND_MATRICES = [
    [[2**20, 2**20 - 1], [2**20 - 1, 2**20]],
    [[2**20, -(2**20 - 1)], [-(2**20 - 1), 2**20]],
    [[2**21]],
    [[2**20, -(2**20)], [-(2**20), 2**20]],
    [[-(2**63), 0], [0, -(2**63)]],
    [[-(2**63), 1], [1, -(2**63)]],
    [[2**63 - 1]],
    [[2**63 - 1, 1], [1, 0]],
    [[2**62, -(2**62)], [-(2**62), 2**62]],
    [[(2**63 - 1) // 3] * 3, [-((2**63 - 1) // 3)] * 3, [0, 0, 0]],
    [[(2**63 - 1) // 3 + 1] * 3, [0, 0, 0], [0, 0, 0]],
]


class TestExactCensusRoutes:
    @pytest.mark.parametrize("m", BOUND_MATRICES + [
        laplacian_matrix(g) for _, g in LAPLACIAN_GRAPHS])
    def test_row_sum_bound_matches_python_ints(self, m):
        m = np.asarray(m, dtype=np.int64)
        assert _max_abs_row_sum(m) == python_row_sum(m)

    def test_empty_matrix_has_no_walks(self):
        assert _max_abs_row_sum(np.zeros((0, 0), dtype=np.int64)) == 0
        assert matrix_power_diagonal(np.zeros((0, 0)), 3) == []

    @pytest.mark.parametrize("g", [g for _, g in CENSUS_GRAPHS],
                             ids=[label for label, _ in CENSUS_GRAPHS])
    def test_int64_route_matches_object_products(self, g):
        a = adjacency_matrix(g).astype(np.int64)
        p_max = min(int64_reach(a), g.n)
        assert p_max >= min(3, g.n)
        assert list(_exact_power_diagonals(a, p_max)) == object_power_diagonals(a, p_max)

    @pytest.mark.parametrize("name", ["k3", "c4", "path3", "petersen"])
    def test_int64_route_matches_walk_enumeration(self, name):
        g = fixtures.FIXTURES[name]()
        diagonals = list(_exact_power_diagonals(adjacency_matrix(g).astype(np.int64), 6))
        for p, diag in enumerate(diagonals, start=1):
            assert diag == [count_closed_walks(g, v, p) for v in range(g.n)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_just_inside_the_bound(self, sign):
        # rows sum to r = 2^21 - 1 in magnitude, and r^3 < 2^63 <= (r + 1)^3
        half = 2**20
        m = np.array([[half, sign * (half - 1)], [sign * (half - 1), half]], dtype=np.int64)
        assert int64_reach(m) == 3
        assert list(_exact_power_diagonals(m, 3)) == object_power_diagonals(m, 3)

    def test_just_outside_the_bound_raises_where_int64_would_wrap(self):
        m = np.array([[2**21]], dtype=np.int64)  # r^3 = 2^63
        assert (m @ m @ m)[0, 0] < 0  # int64 products wrap here
        diagonals = _exact_power_diagonals(m, 3)
        assert next(diagonals) == [2**21]
        assert next(diagonals) == [2**42]
        with pytest.raises(OverflowError, match="at power 3$"):
            next(diagonals)

    def test_beyond_the_bound_but_in_range_is_exact(self):
        # r = 2^21, but the entries of m^3 are only 2^62 in magnitude
        m = np.array([[2**20, -(2**20)], [-(2**20), 2**20]], dtype=np.int64)
        assert int64_reach(m) == 2
        assert list(_exact_power_diagonals(m, 3)) == object_power_diagonals(m, 3)

    @pytest.mark.parametrize("value", [2.0**63, -(2.0**63), 1e19, -1e300])
    def test_float_entry_past_int64_raises_at_power_one(self, value):
        with pytest.raises(OverflowError, match="at power 1; pass exact=False"):
            matrix_power_diagonal(np.array([[0.0, value], [value, 0.0]]), 3)

    @pytest.mark.parametrize("row", [[-(2**63), 0], [-(2**63), 1]])
    def test_entry_of_magnitude_2_63_raises_at_power_one(self, row):
        # abs(-2^63) wraps in int64, so the row sum must not be taken there
        m = np.array([row, row[::-1]], dtype=np.int64)
        with pytest.raises(OverflowError, match="at power 1$"):
            next(_exact_power_diagonals(m, 4))
        with pytest.raises(OverflowError, match="at power 1; pass exact=False"):
            matrix_power_diagonal(m.astype(float), 1)

    @pytest.mark.parametrize("g", [g for _, g in LAPLACIAN_GRAPHS],
                             ids=[label for label, _ in LAPLACIAN_GRAPHS])
    def test_laplacian_powers(self, g):
        # negative off-diagonal entries; r = 2 * max degree
        lap = laplacian_matrix(g)
        expected = object_power_diagonals(lap.astype(np.int64), 8)
        for p in (1, 2, 3, min(int64_reach(lap), 8), 8):
            assert matrix_power_diagonal(lap, p) == expected[p - 1]

    def test_laplacian_beyond_the_bound(self):
        lap = laplacian_matrix(paley_graph(37))  # r = 36 and 36^13 > 2^63
        assert int64_reach(lap) == 12
        assert matrix_power_diagonal(lap, 13) == object_power_diagonals(
            lap.astype(np.int64), 13)[-1]


class TestSpectralNorm:
    def test_rank_one_factorization(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            h = rng.standard_normal(int(rng.integers(1, 8)))
            f = rng.standard_normal(int(rng.integers(1, 8)))
            norm = spectral_norm(np.outer(h, f))
            assert abs(norm - np.linalg.norm(h) * np.linalg.norm(f)) <= 1e-10

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 2))) == 0.0

    def test_diagonal(self):
        assert abs(spectral_norm(np.diag([3.0, -5.0])) - 5.0) <= 1e-12

    def test_rectangular_matches_lapack(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            assert abs(spectral_norm(m) - np.linalg.norm(m, 2)) <= 1e-10


class TestNumericalRank:
    def test_two_component_laplacian(self):
        lap = laplacian_matrix(fixtures.k3_plus_c4())
        assert numerical_rank(lap, 1e-9) == 5

    def test_k3(self):
        assert numerical_rank(laplacian_matrix(fixtures.k3()), 1e-9) == 2

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3)), 1e-9) == 0

    def test_single_matrix_gives_int(self):
        assert type(numerical_rank(np.eye(3))) is int
        assert numerical_rank(np.zeros((3, 0))) == 0

    def test_stack_matches_per_matrix(self):
        rng = np.random.default_rng(2)
        stack = rng.standard_normal((2, 40, 4, 3)) * 10.0 ** rng.uniform(-4, 4, (2, 40, 1, 1))
        stack[0, ::3, :, 2] = stack[0, ::3, :, 0]
        stack[1, ::4, :, 1:] = 0.0
        ranks = numerical_rank(stack)
        assert ranks.shape == (2, 40)
        assert np.array_equal(ranks, [[numerical_rank(block) for block in row] for row in stack])
        assert set(ranks.ravel().tolist()) == {1, 2, 3}

    def test_stack_threshold_is_per_block(self):
        # tol * max(1, sigma_1) of each block: 1e-5 for the first two, 1e-8 after
        blocks = np.array([np.diag(d) for d in ([1e3, 2e-5], [1e3, 5e-6], [0.5, 5e-9], [0.5, 2e-8])])
        assert numerical_rank(blocks).tolist() == [2, 1, 1, 2]


class TestGeneralizedVandermonde:
    def test_three_values(self):
        # direct expansion of [[1,2,3],[1,4,9],[1,8,27]]
        assert abs(generalized_vandermonde_det([1.0, 2.0, 3.0]) - 12.0) <= 1e-12

    def test_singleton(self):
        assert generalized_vandermonde_det([7.0]) == 7.0

    def test_repeated_value(self):
        assert generalized_vandermonde_det([2.0, 2.0]) == 0.0

    def test_against_fraction_free_elimination(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            values = _well_separated_tuple(rng, n)
            # rows of `matrix` are values**p for p = 1..n
            matrix = np.array([values ** p for p in range(1, n + 1)])
            direct = bareiss_det(matrix)
            closed = generalized_vandermonde_det(values)
            assert abs(direct - closed) <= 1e-9 * max(1.0, abs(direct))


def _well_separated_tuple(rng, n):
    while True:
        values = rng.uniform(-3.0, 3.0, size=n)
        gaps = [abs(a - b) for i, a in enumerate(values) for b in values[:i]]
        if np.all(np.abs(values) > 0.05) and (not gaps or min(gaps) > 0.05):
            return values


class TestConvergenceGuard:
    def test_error_type_exists(self):
        assert issubclass(ConvergenceError, RuntimeError)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eigh_symmetric(np.eye(3))
