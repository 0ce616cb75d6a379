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

from _oracles import bareiss_det, count_closed_walks, jacobi_eigh, random_symmetric

ALL_FIXTURES = sorted(fixtures.FIXTURES)


def fixture_matrices():
    out = []
    for name in ALL_FIXTURES:
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
