"""Eigensolver contract, the pseudoinverse its zero split stands for,
norms, ranks, the exact adjacency-power diagonals behind the walk census,
and the closed-form determinant oracle."""

import functools
from itertools import combinations

import numpy as np
import pytest

from gframes import (
    ConvergenceError,
    Graph,
    eigh_symmetric,
    is_walk_regular_definition,
    laplacian_matrix,
    numerical_rank,
    spectral_norm,
)
from gframes import walkreg
from gframes.walkreg import _power_diagonals

from _oracles import (
    FIXTURES,
    bareiss_det,
    circulant_graph,
    count_closed_walks,
    cubic8,
    generalized_vandermonde_det,
    jacobi_eigh,
    k3,
    k3_plus_c4,
    object_power_diagonals,
    petersen,
    random_symmetric,
    regular_census_graphs,
)

#: Fixtures whose Laplacian and adjacency matrices the eigensolver and
#: pseudoinverse tests check. A fixed list: test ids number the matrices by
#: position, so a fixture added to the registry must not renumber them.
MATRIX_FIXTURES = ("c4", "figure1", "figure2", "k3", "k33", "path3", "petersen", "two_triangles")

_INT64_MAX = 2**63 - 1


def fixture_matrices():
    out = []
    for name in MATRIX_FIXTURES:
        g = FIXTURES[name]()
        out.append((f"L({name})", laplacian_matrix(g)))
        out.append((f"A({name})", g.adjacency))
    return out


class TestEigh:
    def test_k3_laplacian_eigenvalues(self):
        # characteristic polynomial of the triangle Laplacian: x(x-3)^2
        spectrum = eigh_symmetric(laplacian_matrix(k3()))
        assert np.allclose(spectrum.eigenvalues, [3.0, 3.0, 0.0], atol=1e-12)

    def test_two_component_spectrum(self):
        spectrum = eigh_symmetric(laplacian_matrix(k3_plus_c4()))
        assert np.allclose(spectrum.eigenvalues, [4, 3, 3, 2, 2, 0, 0], atol=1e-9)

    def test_cubic8_spectrum(self):
        spectrum = eigh_symmetric(laplacian_matrix(cubic8()))
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
        spectrum = eigh_symmetric(laplacian_matrix(petersen()))
        for j in range(len(spectrum.eigenvalues)):
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


def spectral_pinv(m) -> np.ndarray:
    """The pseudoinverse an :func:`eigh_symmetric` spectrum stands for:
    eigenvalues above its ``zero_tol`` inverted, the rest zeroed, rebuilt
    in the same eigenbasis."""
    spectrum = eigh_symmetric(m)
    vals = spectrum.eigenvalues
    inverted = np.zeros_like(vals)
    keep = np.abs(vals) > spectrum.zero_tol
    inverted[keep] = 1.0 / vals[keep]
    return (spectrum.eigenvectors * inverted) @ spectrum.eigenvectors.T


class TestMoorePenrose:
    """The spectrum's split at ``zero_tol``, by which the frame build counts
    components, separates the null space exactly: inverting the rest gives
    the Moore-Penrose pseudoinverse."""

    def test_diagonal(self):
        assert np.allclose(spectral_pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        assert np.allclose(spectral_pinv(np.eye(5)), np.eye(5), atol=1e-12)

    def test_k3_closed_form(self):
        # candidate (3I - J)/9 satisfies all four axioms, hence is the pseudoinverse
        lap = laplacian_matrix(k3())
        candidate = (3 * np.eye(3) - np.ones((3, 3))) / 9
        assert np.abs(lap @ candidate @ lap - lap).max() <= 1e-12
        assert np.abs(candidate @ lap @ candidate - candidate).max() <= 1e-12
        assert np.array_equal((lap @ candidate).T, lap @ candidate)
        assert np.array_equal((candidate @ lap).T, candidate @ lap)
        computed = spectral_pinv(lap)
        assert np.abs(computed - candidate).max() <= 1e-12
        assert np.allclose(np.diag(computed), 2.0 / 9.0, atol=1e-12)

    @pytest.mark.parametrize("label,matrix", fixture_matrices())
    def test_penrose_axioms_on_fixtures(self, label, matrix):
        pinv = spectral_pinv(matrix)
        assert np.abs(matrix @ pinv @ matrix - matrix).max() <= 1e-8
        assert np.abs(pinv @ matrix @ pinv - pinv).max() <= 1e-8
        assert np.abs(matrix @ pinv - (matrix @ pinv).T).max() <= 1e-10
        assert np.abs(pinv @ matrix - (pinv @ matrix).T).max() <= 1e-10

    @pytest.mark.parametrize("label,matrix", fixture_matrices())
    def test_agrees_with_lapack_pinv(self, label, matrix):
        assert np.abs(spectral_pinv(matrix) - np.linalg.pinv(matrix)).max() <= 1e-9


def power_diagonals(g, p_max):
    """diag(A^1)..diag(A^p_max) from the census kernel, as lists."""
    return [diag.tolist() for diag in _power_diagonals(g, p_max)]


class TestMatrixPowerDiagonal:
    """diag(A^p) from the walk census's kernel, which yields every power."""

    def test_triangle_walk_counts(self):
        assert power_diagonals(k3(), 3)[1:] == [[2, 2, 2], [2, 2, 2]]

    @pytest.mark.parametrize("name", ["k3", "c4", "path3"])
    def test_matches_walk_enumeration(self, name):
        g = FIXTURES[name]()
        for p, diag in enumerate(power_diagonals(g, 5), start=1):
            assert diag == [count_closed_walks(g, v, p) for v in range(g.n)]

    def test_cubic8_has_nonconstant_power(self):
        spreads = [max(d) - min(d) for d in power_diagonals(cubic8(), 7)]
        assert any(s > 0 for s in spreads)

    def test_overflow_raises(self):
        # K20: A^p has (19^p + 19(-1)^p)/20 on its diagonal and
        # (19^p - (-1)^p)/20 off it, inside int64 up to p = 15, past it at 16
        g = Graph(20, frozenset(combinations(range(20), 2)))
        a = g.adjacency.astype(np.int64)
        assert [max(diag) > _INT64_MAX for diag in object_power_diagonals(a, 16)[-2:]] == [
            False, True]
        message = "integer matrix power overflows 64-bit range at power 16"
        with pytest.raises(OverflowError, match=f"^{message}; rerun with a smaller p_max$"):
            is_walk_regular_definition(g, 16)

    def test_rejects_bad_power(self):
        for p_max in (-1, 2.0, "3"):
            with pytest.raises(ValueError, match="p_max must be a positive integer"):
                is_walk_regular_definition(k3(), p_max)


def int64_reach(g) -> int:
    """Largest p with Δ^p <= 2^63 - 1, Δ the largest row sum of the adjacency
    matrix in Python ints (capped at 200 for Δ <= 1): the powers the int64
    census route covers."""
    delta = max(sum(row) for row in g.adjacency.astype(int).tolist())
    p = 0
    while p < 200 and delta ** (p + 1) <= _INT64_MAX:
        p += 1
    return p


def _census_graphs():
    """The fixtures, named regular graphs, and seeded circulants."""
    graphs = [(name, FIXTURES[name]()) for name in sorted(FIXTURES)]
    graphs += list(regular_census_graphs().items())
    rng = np.random.default_rng(19)
    for _ in range(4):
        n = int(rng.integers(9, 41))
        jumps = rng.choice(np.arange(1, n // 2 + 1), size=int(rng.integers(1, 5)), replace=False)
        jumps = sorted(int(j) for j in jumps)
        graphs.append((f"C{n}({','.join(map(str, jumps))})", circulant_graph(n, jumps)))
    return graphs


CENSUS_GRAPHS = _census_graphs()

#: C80(1,2) has Δ = 4, so 4^31 <= 2^63 - 1 < 4^32: its census leaves int64
#: products after power 31 and its walk counts leave int64 at power 34.
C80 = circulant_graph(80, (1, 2))


@functools.cache
def c80_diagonals() -> list:
    return object_power_diagonals(C80.adjacency.astype(np.int64), 34)


def checked(diagonals) -> tuple:
    return tuple((p, tuple(diag)) for p, diag in enumerate(diagonals, start=1))


class TestExactCensusRoutes:
    """The census takes int64 products while Δ^p_max fits in int64 (its
    diagonals are int64), and Python ints checked against the int64 range
    beyond (object diagonals)."""

    @pytest.mark.parametrize("g", [g for _, g in CENSUS_GRAPHS],
                             ids=[label for label, _ in CENSUS_GRAPHS])
    def test_int64_route_matches_object_products(self, g):
        p_max = min(int64_reach(g), g.n)
        assert p_max >= min(3, g.n)
        diagonals = list(_power_diagonals(g, p_max))
        assert all(diag.dtype == np.int64 for diag in diagonals)
        a = g.adjacency.astype(np.int64)
        assert [diag.tolist() for diag in diagonals] == object_power_diagonals(a, p_max)

    @pytest.mark.parametrize("name", ["k3", "c4", "path3", "petersen"])
    def test_int64_route_matches_walk_enumeration(self, name):
        g = FIXTURES[name]()
        for p, diag in enumerate(power_diagonals(g, 6), start=1):
            assert diag == [count_closed_walks(g, v, p) for v in range(g.n)]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_just_inside_the_bound(self, sign):
        # jumps are taken mod n, so C80(-1,-2) is C80(1,2) and has the same reach
        g = circulant_graph(80, (sign, 2 * sign))
        assert (g.n, g.edges) == (C80.n, C80.edges)
        assert int64_reach(g) == 31
        assert next(_power_diagonals(g, 31)).dtype == np.int64
        report = is_walk_regular_definition(g, 31)
        assert report.is_walk_regular
        assert report.checked_powers == checked(c80_diagonals()[:31])

    def test_beyond_the_bound_but_in_range_is_exact(self):
        # 4^33 > 2^63 - 1, but every entry of A^33 is below it
        assert next(_power_diagonals(C80, 33)).dtype == object
        report = is_walk_regular_definition(C80, 33)
        assert report.is_walk_regular
        assert report.checked_powers == checked(c80_diagonals()[:33])

    def test_just_outside_the_bound_raises_where_int64_would_wrap(self):
        a = C80.adjacency.astype(np.int64)
        assert c80_diagonals()[33][0] > _INT64_MAX
        assert np.linalg.matrix_power(a, 34)[0, 0] != c80_diagonals()[33][0]  # int64 wraps
        diagonals = _power_diagonals(C80, 34)
        for expected in c80_diagonals()[:33]:
            assert next(diagonals).tolist() == expected
        with pytest.raises(OverflowError,
                           match="^integer matrix power overflows 64-bit range at power 34$"):
            next(diagonals)


class TestFloatCensusRoute:
    """Below Δ^p_max ≤ 2^53 the census multiplies in float64, which holds
    every integer up to 2^53 exactly; its diagonals are still int64."""

    @pytest.mark.parametrize("p_max", [26, 27], ids=["float64", "int64"])
    def test_c80_either_side_of_the_float_bound(self, p_max):
        # Δ = 4: 4^26 = 2^52 takes the float64 route, 4^27 = 2^54 the int64 one
        assert 4**26 <= walkreg._FLOAT64_EXACT_MAX < 4**27
        diagonals = list(_power_diagonals(C80, p_max))
        assert all(diag.dtype == np.int64 for diag in diagonals)
        assert [diag.tolist() for diag in diagonals] == c80_diagonals()[:p_max]

    @pytest.mark.parametrize("n,p_max", [(3, 53), (5, 26), (9, 17)], ids=["K3", "K5", "K9"])
    def test_complete_graphs_at_the_last_float_power(self, n, p_max):
        # K_n's walk counts are within a factor n of Δ^p, the bound itself:
        # diag(A^p) = ((n-1)^p + (n-1)(-1)^p) / n
        g = Graph(n, frozenset(combinations(range(n), 2)))
        assert (n - 1) ** p_max <= walkreg._FLOAT64_EXACT_MAX < (n - 1) ** (p_max + 1)
        diagonals = [diag.tolist() for diag in _power_diagonals(g, p_max)]
        assert diagonals == object_power_diagonals(g.adjacency.astype(np.int64), p_max)
        d = n - 1
        assert diagonals[-1] == [(d**p_max + d * (-1) ** p_max) // n] * n

    def test_first_two_powers_need_no_product(self):
        g = Graph(4, frozenset({(0, 1), (1, 2), (0, 2), (2, 3)}))
        diagonals = _power_diagonals(g, 200)  # 3^200: the arbitrary-precision route
        first, second = next(diagonals), next(diagonals)
        assert first.tolist() == [0, 0, 0, 0] and second.tolist() == [2, 2, 3, 1]
        assert first.dtype == second.dtype == object
        assert "adjacency" not in vars(g)  # no matrix was formed, let alone multiplied


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
        lap = laplacian_matrix(k3_plus_c4())
        assert numerical_rank(lap) == 5

    def test_k3(self):
        assert numerical_rank(laplacian_matrix(k3())) == 2

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

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
