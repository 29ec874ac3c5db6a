import tracemalloc

import numpy as np
import pytest
from conftest import collect

from ebmvar import covariance_engine as ce
from ebmvar import model_core as mc
from ebmvar import sde_engine as se
from ebmvar import spatial_model as sm
from ebmvar.errors import (
    NotPositiveDefinite,
    ParamOutOfRange,
    StepTooLarge,
    UnstableDrift,
)

DEFAULT = mc.default_params()


def _constant_profile_lam(theta, p):
    """Forcing that makes T = theta an exact equilibrium under constant
    boundary data and uniform insolation."""
    return p.r0 + p.r1 * theta - p.Q * mc.co_albedo(theta, p)


class TestGrid2D:
    def test_sizes(self):
        g = sm.Grid2D(Lx=2.0, Ly=1.0, Nx=4, Ny=3)
        assert g.hx == 0.5
        assert g.hy == pytest.approx(1.0 / 3.0)
        assert g.d == 6

    def test_indexing_x_fastest(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=3)
        assert g.index_of(1, 1) == 0
        assert g.index_of(3, 1) == 2
        assert g.index_of(1, 2) == 3
        pairs = g.interior_pairs()
        for m, (i, j) in enumerate(pairs):
            assert g.index_of(i, j) == m

    def test_coords_match_pairs(self):
        g = sm.Grid2D(Lx=2.0, Ly=3.0, Nx=4, Ny=5)
        coords = g.interior_coords()
        for m, (i, j) in enumerate(g.interior_pairs()):
            np.testing.assert_allclose(coords[m], [i * g.hx, j * g.hy])

    def test_invalid(self):
        with pytest.raises(ValueError):
            sm.Grid2D(Lx=1.0, Ly=1.0, Nx=1, Ny=3)
        with pytest.raises(ValueError):
            sm.Grid2D(Lx=-1.0, Ly=1.0, Nx=3, Ny=3)
        with pytest.raises(ValueError):
            sm.Grid2D(Lx=1.0, Ly=1.0, Nx=3, Ny=3).index_of(3, 1)


def _laplacian_by_stencil(g):
    """Independent oracle: entrywise five-point stencil assembly."""
    A = np.zeros((g.d, g.d))
    for m, (i, j) in enumerate(g.interior_pairs()):
        A[m, m] = -2.0 / g.hx**2 - 2.0 / g.hy**2
        for di, dj, w in [(-1, 0, 1.0 / g.hx**2), (1, 0, 1.0 / g.hx**2),
                          (0, -1, 1.0 / g.hy**2), (0, 1, 1.0 / g.hy**2)]:
            ii, jj = i + di, j + dj
            if 1 <= ii <= g.Nx - 1 and 1 <= jj <= g.Ny - 1:
                A[m, g.index_of(ii, jj)] += w
    return A


class TestLaplacian:
    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (5, 6)])
    def test_matches_stencil_oracle(self, shape):
        g = sm.Grid2D(Lx=1.3, Ly=0.7, Nx=shape[0], Ny=shape[1])
        A = sm._FivePointLaplacian(g).dense()
        np.testing.assert_allclose(A, _laplacian_by_stencil(g), atol=1e-12)

    def test_symmetric_negative_definite(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=5, Ny=4)
        A = _laplacian_by_stencil(g)
        np.testing.assert_allclose(A, A.T, atol=0.0)
        assert np.max(np.linalg.eigvalsh(A)) < 0.0

    def test_constant_field_annihilated(self):
        """A constant lifted field is harmonic: A T + g_bc = 0."""
        g = sm.Grid2D(Lx=1.0, Ly=2.0, Nx=6, Ny=5)
        theta = sm.BoundaryTrace.constant(7.5)
        A = _laplacian_by_stencil(g)
        g_bc = sm.dirichlet_load(g, theta)
        T = np.full(g.d, 7.5)
        np.testing.assert_allclose(A @ T + g_bc, 0.0, atol=1e-12)

    def test_exact_on_quadratics(self):
        """The five-point stencil is exact for u = x^2 + y^2 (Laplacian 4)."""
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=5, Ny=5)
        coords = g.interior_coords()
        u = coords[:, 0] ** 2 + coords[:, 1] ** 2
        # Boundary lifting assembled nodewise from the same quadratic.
        g_bc = np.zeros(g.d)
        for m, (i, j) in enumerate(g.interior_pairs()):
            x, y = coords[m]
            if i == 1:
                g_bc[m] += y**2 / g.hx**2  # u(0, y)
            if i == g.Nx - 1:
                g_bc[m] += (g.Lx**2 + y**2) / g.hx**2
            if j == 1:
                g_bc[m] += x**2 / g.hy**2
            if j == g.Ny - 1:
                g_bc[m] += (x**2 + g.Ly**2) / g.hy**2
        A = _laplacian_by_stencil(g)
        np.testing.assert_allclose(A @ u + g_bc, 4.0, rtol=1e-12)


GRID_SHAPES = [(2, 2), (2, 6), (6, 2), (5, 6), (9, 9)]  # (Nx, Ny)


class TestFivePointLaplacian:
    """The equilibrium solve's stencil operator against the oracle's A."""

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_products_are_the_sparse_products(self, shape):
        """A T and |A| |T| by the stencil repeat a sparse product bit for
        bit: each node sums its terms in its row's column order."""
        import scipy.sparse as sp
        g = sm.Grid2D(Lx=1.3, Ly=0.7, Nx=shape[0], Ny=shape[1])
        A = sp.csr_matrix(_laplacian_by_stencil(g))
        L = sm._FivePointLaplacian(g)
        T = 100.0 * np.random.default_rng(3).standard_normal(g.d)
        np.testing.assert_array_equal(L @ T, A @ T)
        np.testing.assert_array_equal(abs(L) @ np.abs(T), abs(A) @ np.abs(T))

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_a_centre_per_node_is_a_drift(self, shape):
        """With centre diag(M), M = A - diag(b), the stencil is M: its
        products with a batch of rows repeat the sparse products bit for
        bit, and its shifted solves, by blocks and densely, agree with the
        dense solve to rounding."""
        import scipy.sparse as sp
        g = sm.Grid2D(Lx=1.3, Ly=0.7, Nx=shape[0], Ny=shape[1])
        rng = np.random.default_rng(9)
        M = _laplacian_by_stencil(g) - np.diag(rng.uniform(0.5, 2.0, g.d))
        L = sm._FivePointLaplacian(g, np.diag(M))
        Y = 100.0 * rng.standard_normal((3, g.d))
        np.testing.assert_array_equal(L @ Y, (sp.csr_matrix(M) @ Y.T).T)
        rhs = rng.standard_normal(g.d)
        for shift in (-rng.uniform(0.0, 3.0, g.d),
                      np.full(g.d, 2.0 * np.max(np.abs(M)))):
            expected = np.linalg.solve(M + np.diag(shift), rhs)
            np.testing.assert_allclose(L.solve_shifted(shift, rhs), expected,
                                       rtol=1e-12,
                                       atol=1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_block_solve_matches_the_dense_solve(self, monkeypatch, shape):
        """With a nonpositive shift the solve eliminates block by block,
        never assembling A, and agrees with the dense solve to rounding."""
        g = sm.Grid2D(Lx=1.3, Ly=0.7, Nx=shape[0], Ny=shape[1])
        rng = np.random.default_rng(4)
        shift = -rng.uniform(0.0, 3.0, g.d)
        rhs = rng.standard_normal(g.d)
        expected = np.linalg.solve(_laplacian_by_stencil(g) + np.diag(shift), rhs)

        def dense(self):
            raise AssertionError("the block solve assembled the matrix")

        monkeypatch.setattr(sm._FivePointLaplacian, "dense", dense)
        got = sm._FivePointLaplacian(g).solve_shifted(shift, rhs)
        np.testing.assert_allclose(got, expected, rtol=1e-12,
                                   atol=1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    def test_indefinite_shift_falls_back_to_the_dense_solve(self, shape):
        """A shift that makes -(A + diag(shift)) indefinite is solved densely,
        with partial pivoting."""
        g = sm.Grid2D(Lx=1.3, Ly=0.7, Nx=shape[0], Ny=shape[1])
        A = _laplacian_by_stencil(g)
        rng = np.random.default_rng(5)
        shift = -rng.uniform(0.0, 3.0, g.d)
        shift[g.d // 2] = 2.0 * np.max(np.abs(A))
        rhs = rng.standard_normal(g.d)
        np.testing.assert_array_equal(
            sm._FivePointLaplacian(g).solve_shifted(shift, rhs),
            np.linalg.solve(A + np.diag(shift), rhs))


class TestEquilibriumProfile:
    def test_constant_solution(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=5, Ny=5)
        theta = sm.BoundaryTrace.constant(280.0)
        Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
        lam = _constant_profile_lam(280.0, DEFAULT)
        prof = sm.solve_equilibrium_profile(g, Q_field, lam, theta, DEFAULT)
        np.testing.assert_allclose(prof.values, 280.0, atol=1e-10)

    def test_nonuniform_residual(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=6, Ny=6)
        theta = sm.BoundaryTrace(left=278.0, right=284.0, bottom=280.0, top=282.0)
        coords = g.interior_coords()
        Q_field = sm.SpatialField(g, DEFAULT.Q * (1.0 + 0.1 * coords[:, 0]))
        lam = _constant_profile_lam(281.0, DEFAULT)
        prof = sm.solve_equilibrium_profile(g, Q_field, lam, theta, DEFAULT)
        A = _laplacian_by_stencil(g)
        g_bc = sm.dirichlet_load(g, theta)
        res = sm.equilibrium_residual(prof.values, A, g_bc, Q_field.values,
                                      lam, DEFAULT)
        assert np.linalg.norm(res, np.inf) <= 1e-10

    @pytest.mark.parametrize("n", [21, 32], ids=["d400", "d961"])
    def test_fine_unit_square_converges(self, n):
        """|A| grows as h^-2, so on the unit square at d = 400 and 961 the
        rounding of A T is above 1e-10; the solve stops at the rounding
        level there instead of failing to converge."""
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=n, Ny=n)
        theta = sm.BoundaryTrace.constant(280.0)
        Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
        lam = _constant_profile_lam(280.0, DEFAULT)
        prof = sm.solve_equilibrium_profile(g, Q_field, lam, theta, DEFAULT)
        np.testing.assert_allclose(prof.values, 280.0, rtol=1e-13)


class TestCoefficients:
    def test_inside_ramp(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=3, Ny=3)
        T = sm.SpatialField.constant(g, 280.0)
        Q = sm.SpatialField.constant(g, DEFAULT.Q)
        b, d, f = sm.sample_coefficients(T, Q, DEFAULT)
        s = DEFAULT.slope
        np.testing.assert_allclose(b, DEFAULT.r1 - DEFAULT.Q * s)
        np.testing.assert_allclose(d, s)
        np.testing.assert_allclose(f, mc.co_albedo(280.0, DEFAULT))

    def test_plateau_nodes(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=3, Ny=3)
        T = sm.SpatialField.constant(g, 305.0)
        Q = sm.SpatialField.constant(g, DEFAULT.Q)
        b, d, f = sm.sample_coefficients(T, Q, DEFAULT)
        np.testing.assert_allclose(b, DEFAULT.r1)
        np.testing.assert_allclose(d, 0.0)
        np.testing.assert_allclose(f, DEFAULT.beta_max)


class TestNoiseCovariance:
    def test_identity(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4)
        C = sm.build_noise_covariance(g, "identity", variance=2.0)
        np.testing.assert_allclose(C, 2.0 * np.eye(g.d))
        L = sm.cholesky_with_jitter(C, 1e-12 * 2.0)
        np.testing.assert_allclose(L @ L.T, C)

    def test_exponential(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4)
        C = sm.build_noise_covariance(g, "exponential", variance=1.0,
                                      length=0.5)
        np.testing.assert_allclose(C, C.T)
        np.testing.assert_allclose(np.diag(C), 1.0)
        assert np.all(C > 0.0)
        L = sm.cholesky_with_jitter(C, 1e-12 * 1.0)
        np.testing.assert_allclose(L @ L.T, C, atol=1e-10)
        z = g.interior_coords()
        i, j = 0, g.d - 1
        expected = np.exp(-np.linalg.norm(z[i] - z[j]) / 0.5)
        assert C[i, j] == pytest.approx(expected)

    def test_invalid_arguments(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=3, Ny=3)
        with pytest.raises(ValueError):
            sm.build_noise_covariance(g, "identity", variance=0.0)
        with pytest.raises(ValueError):
            sm.build_noise_covariance(g, "exponential", variance=1.0)
        with pytest.raises(ValueError):
            sm.build_noise_covariance(g, "gaussian", variance=1.0)

    @pytest.mark.parametrize("kernel,variance,length,match", [
        ("identity", float("nan"), None, "variance"),
        ("identity", float("inf"), None, "variance"),
        ("exponential", float("nan"), 0.5, "variance"),
        ("exponential", 1.0, float("nan"), "length"),
        ("exponential", 1.0, float("inf"), "length"),
    ])
    def test_non_finite_arguments(self, kernel, variance, length, match):
        """nan fails every comparison, so `variance <= 0` would let it in."""
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=3, Ny=3)
        with pytest.raises(ValueError, match=match):
            sm.build_noise_covariance(g, kernel, variance=variance,
                                      length=length)

    def test_cholesky_jitter_rejects_indefinite(self):
        C = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefinite):
            sm.cholesky_with_jitter(C, jitter=1e-12)


def _default_operators(nx=4, ny=4, theta=280.0):
    g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=nx, Ny=ny)
    bd = sm.BoundaryTrace.constant(theta)
    Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
    lam = _constant_profile_lam(theta, DEFAULT)
    prof = sm.solve_equilibrium_profile(g, Q_field, lam, bd, DEFAULT)
    noise = sm.build_noise_covariance(g, "identity", variance=1.0)
    return sm.build_operators(g, prof, Q_field, DEFAULT, noise)


class TestOperators:
    def test_drift_structure(self):
        ops = _default_operators()
        A = _laplacian_by_stencil(sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4))
        M = ops.M
        np.testing.assert_allclose(M, A - np.diag(ops.b_vec), atol=1e-14)

    @pytest.mark.parametrize("shape", GRID_SHAPES + [(31, 31)])
    def test_drift_and_dense_fallback_are_the_oracle_bit_for_bit(
            self, monkeypatch, shape):
        """M, filled from its stencil's five diagonals, and the matrix of a
        shifted solve's dense fallback are the entrywise oracle's bytes."""
        g = sm.Grid2D(Lx=1.3, Ly=0.7, Nx=shape[0], Ny=shape[1])
        rng = np.random.default_rng(12)
        ops = sm.build_operators(
            g, sm.SpatialField(g, rng.uniform(250.0, 300.0, g.d)),
            sm.SpatialField.constant(g, DEFAULT.Q), DEFAULT, np.eye(g.d))
        A = _laplacian_by_stencil(g)
        assert ops.M.tobytes() == (A - np.diag(ops.b_vec)).tobytes()
        assert ops.stencil.centre.tobytes() == np.diag(ops.M).tobytes()

        solved, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solved.append(a) or solve(a, b))
        shift = -rng.uniform(0.0, 3.0, g.d)
        shift[g.d // 2] = 2.0 * np.max(np.abs(A))
        rhs = rng.standard_normal(g.d)
        for L, oracle in ((sm._FivePointLaplacian(g), A), (ops.stencil, ops.M)):
            solved.clear()
            L.solve_shifted(shift, rhs)
            assert solved[-1].tobytes() == (oracle + np.diag(shift)).tobytes()

    def test_assembly_peaks_in_d_by_d_arrays(self):
        """At d = 225 the operators peak at one d x d array, M itself, and
        the exponential kernel's C at three, C included."""
        g = sm.Grid2D(Lx=8.0, Ly=8.0, Nx=16, Ny=16)
        T, Q = (sm.SpatialField.constant(g, v) for v in (280.0, DEFAULT.Q))
        C = np.eye(g.d)
        peaks = []
        for build in (lambda: sm.build_operators(g, T, Q, DEFAULT, C),
                      lambda: sm.build_noise_covariance(g, "exponential",
                                                        length=0.5)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1] / C.nbytes)
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 1.1 and peaks[1] <= 3.1, peaks

    def test_hurwitz(self):
        ops = _default_operators()
        assert sm.drift_eigenvalues(ops).w[-1] < 0.0

    def test_drift_eigenvalues_match_the_general_solver(self):
        """A grid's symmetric M gets real ascending eigenvalues, those of
        eigvals to rounding, and orthonormal eigenvectors that rebuild M; a
        nonsymmetric M is refused, by the field simulator too."""
        ops = _default_operators()
        M = ops.M
        general = np.linalg.eigvals(M)
        basis = sm.drift_eigenvalues(ops)
        w, U = basis.w, basis.U
        assert w.dtype == np.float64
        tol = 1e-12 * np.max(np.abs(general))
        np.testing.assert_allclose(w, np.sort(general.real), rtol=0.0, atol=tol)
        np.testing.assert_allclose(U @ np.diag(w) @ U.T, M, rtol=0.0, atol=tol)
        np.testing.assert_allclose(U.T @ U, np.eye(ops.d), rtol=0.0, atol=1e-12)

        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
        ops = sm.operators_from_arrays(M, np.zeros(6), np.full(6, 0.5),
                                       np.eye(6), tau=0.01)
        with pytest.raises(ParamOutOfRange, match="symmetric"):
            sm.drift_eigenvalues(ops)
        with pytest.raises(ParamOutOfRange, match="symmetric"):
            collect(sm.simulate_anomaly_field, ops,
                    se.SimConfig(dt=1e-3, n_steps=1, n_paths=1))

    def test_operator_arrays_are_read_only(self):
        """Both constructors store read-only arrays, so what an operators
        object caches, its gain and its drift basis, cannot go stale; the
        arrays a caller passed stay writeable."""
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4)
        C = np.eye(g.d)
        built = sm.build_operators(g, sm.SpatialField.constant(g, 280.0),
                                   sm.SpatialField.constant(g, DEFAULT.Q),
                                   DEFAULT, C)
        M, d_vec, C2 = np.array([[-2.0, 0.5], [0.5, -3.0]]), np.ones(2), np.eye(2)
        given = sm.operators_from_arrays(M, d_vec, [0.5, 0.5], C2, tau=0.02)
        for ops in (built, given):
            for array in (ops.b_vec, ops.d_vec, ops.f_vec, ops.M, ops.C):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
            basis = sm.drift_eigenvalues(ops)
            for array in (ops.gain, basis.w, basis.U):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0.0
        for array in (C, M, d_vec, C2):
            array[0] = 7.0  # the caller's own arrays

    def test_operators_from_arrays(self):
        M = np.array([[-2.0, 0.5], [0.5, -3.0]])
        ops = sm.operators_from_arrays(M, [0.1, 0.1], [0.5, 0.5],
                                       np.eye(2), tau=0.02)
        np.testing.assert_allclose(ops.b_vec, [2.0, 3.0])
        assert ops.d == 2


def _grid_operators(nx, ny):
    """A grid's operators about the flat profile T = 280, without a Newton
    solve: a field's drift products read only M and its grid."""
    g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=nx, Ny=ny)
    return sm.build_operators(g, sm.SpatialField.constant(g, 280.0),
                              sm.SpatialField.constant(g, DEFAULT.Q), DEFAULT,
                              np.eye(g.d))


def _dense_row_sums(ops):
    """The drift product summed over every entry of each column of M."""
    return lambda y: np.einsum("bi,ij->bj", y, ops.M)


class TestAnomalySimulation:
    @pytest.mark.parametrize("n, route", [(5, "blas"), (9, "blas"), (16, "blas"),
                                          (31, "stencil")],
                             ids=["d16", "d64", "d225", "d900"])
    def test_drift_products_are_the_dense_row_sums(self, n, route):
        """The drift's row products are BLAS's y @ M up to d = 225 and, at
        d = 900, the five-point stencil's, which equal the dense row sums
        bit for bit whatever the batch's row count; the products of an M
        without a grid are BLAS's."""
        ops = _default_operators(n, n)
        Y = np.random.default_rng(6).standard_normal((5, ops.d))
        product = sm._row_products(ops)
        if route == "blas":
            np.testing.assert_array_equal(product(Y), Y @ ops.M)
        else:
            expected = _dense_row_sums(ops)(Y)
            np.testing.assert_array_equal(product(Y), expected)
            for row in range(len(Y)):
                np.testing.assert_array_equal(product(Y[row:row + 1])[0],
                                              expected[row])
        dense = sm.operators_from_arrays(ops.M + 1e-3, ops.d_vec, ops.f_vec,
                                         ops.C, ops.tau)
        np.testing.assert_array_equal(sm._row_products(dense)(Y), Y @ dense.M)

    @pytest.mark.parametrize("nx, ny, stencil", [
        (17, 16, False), (17, 17, True), (2, 146, True), (2, 145, False),
        (146, 2, True)], ids=["d240", "d256", "d145-one-wide",
                              "d144-one-wide", "d145-one-high"])
    def test_the_stencil_takes_over_past_48_nodes_a_diagonal(self, nx, ny,
                                                             stencil):
        """A grid's M has five nonzero diagonals, three when the grid is one
        node wide, and BLAS keeps the product while 48 nodes a diagonal
        cover d; the same M without its grid always goes to BLAS."""
        ops = _grid_operators(nx, ny)
        product = sm._row_products(ops)
        taken = isinstance(getattr(product, "__self__", None),
                           sm._FivePointLaplacian)
        assert taken == stencil
        Y = np.random.default_rng(7).standard_normal((3, ops.d))
        expected = _dense_row_sums(ops)(Y) if stencil else Y @ ops.M
        np.testing.assert_array_equal(product(Y), expected)
        bare = sm.operators_from_arrays(ops.M, ops.d_vec, ops.f_vec, ops.C,
                                        ops.tau)
        assert bare.stencil is None
        np.testing.assert_array_equal(sm._row_products(bare)(Y), Y @ ops.M)

    def test_stencil_field_is_the_dense_row_sums_field(self, monkeypatch):
        """A d = 256 field run, on the stencil, repeats bit for bit the run
        whose drift products are the dense row sums."""
        ops = _default_operators(17, 17)
        assert ops.stencil is not None and ops.d == 256
        cfg = se.SimConfig(dt=1e-4, n_steps=6, n_paths=3, seed=4)
        y0 = np.random.default_rng(8).standard_normal(ops.d)
        got = collect(sm.simulate_anomaly_field, ops, cfg, y0=y0)
        monkeypatch.setattr(sm, "_row_products", _dense_row_sums)
        expected = collect(sm.simulate_anomaly_field, ops, cfg, y0=y0)
        np.testing.assert_array_equal(got, expected)
        assert np.any(got[:, -1] != got[:, 0])

    def test_zero_noise_matches_matrix_exponential(self):
        """Zero noise amplitude, D = 0 and f = 0 with C = I: the run is the
        drift's Euler flow."""
        from scipy.linalg import expm
        M = np.array([[-2.0, 0.4], [0.4, -1.5]])
        ops = sm.operators_from_arrays(M, [0.0, 0.0], [0.0, 0.0], np.eye(2),
                                       tau=0.01)
        y0 = np.array([1.0, -0.5])
        cfg = se.SimConfig(dt=1e-4, n_steps=5000, n_paths=1)
        b = collect(sm.simulate_anomaly_field, ops, cfg, y0=y0)
        expected = expm(M * se.kept_times(cfg)[-1]) @ y0
        np.testing.assert_allclose(b[0, -1], expected, rtol=1e-3)

    def test_unfactorable_covariance_is_refused(self):
        """The field factors C itself: C = 0 has no Cholesky factor, and
        its jitter, 1e-12 max(diag C), is 0."""
        ops = sm.operators_from_arrays([[-2.0, 0.4], [0.4, -1.5]], [0.0, 0.0],
                                       [0.5, 0.5], np.zeros((2, 2)), tau=0.01)
        with pytest.raises(NotPositiveDefinite):
            collect(sm.simulate_anomaly_field, ops,
                    se.SimConfig(dt=1e-3, n_steps=1, n_paths=1))

    def test_scalar_reduction_variance(self):
        """d = 1 with D = 0 reduces to an OU anomaly with variance
        tau f^2 / (2 b)."""
        b_rate, f, tau = 2.0, 0.5, 0.05
        ops = sm.operators_from_arrays([[-b_rate]], [0.0], [f], [[1.0]],
                                       tau=tau)
        cfg = se.SimConfig(dt=0.005, n_steps=4000, n_paths=300, seed=17)
        paths = collect(sm.simulate_anomaly_field, ops, cfg)
        vals = paths[:, paths.shape[1] // 2:, 0]
        target = tau * f**2 / (2.0 * b_rate)
        per_path = (vals**2).mean(axis=1)
        est = per_path.mean()
        sem = per_path.std(ddof=1) / np.sqrt(per_path.size)
        assert abs(est - target) <= 4.0 * sem

    def test_unstable_drift_rejected(self):
        ops = sm.operators_from_arrays([[1.0]], [0.0], [0.5], [[1.0]],
                                       tau=0.01)
        with pytest.raises(UnstableDrift):
            collect(sm.simulate_anomaly_field, ops,
                    se.SimConfig(dt=1e-3, n_steps=1, n_paths=1))

    def test_step_guard(self):
        ops = _default_operators()
        lam_min = sm.drift_eigenvalues(ops).w[0]
        cfg = se.SimConfig(dt=2.0 / abs(lam_min), n_steps=1, n_paths=1)
        with pytest.raises(StepTooLarge):
            collect(sm.simulate_anomaly_field, ops, cfg)

    def test_reproducible(self):
        ops = _default_operators()
        cfg = se.SimConfig(dt=1e-3, n_steps=20, n_paths=3, seed=5)
        np.testing.assert_array_equal(collect(sm.simulate_anomaly_field, ops, cfg),
                                      collect(sm.simulate_anomaly_field, ops, cfg))


class TestCoordText:
    def test_format_and_order(self, run_cli, monkeypatch):
        """gamma_stationary.txt lists Gamma's nonzero entries row by row."""
        gamma = ce.CovarianceState.from_gamma([[0.0, 1.5], [2.0, 0.0]])
        monkeypatch.setattr(ce, "stationary_covariance",
                            lambda ops: gamma)
        out = run_cli(DEFAULT, {"grid": {"Lx": 1.0, "Ly": 1.0, "Nx": 3, "Ny": 3},
                                "boundary": {"theta": 280.0},
                                "noise": {"kernel": "identity"}},
                      "spatial-stationary")
        lines = (out / "gamma_stationary.txt").read_text().strip().split("\n")
        assert lines[0] == "row,col,value"
        assert lines[1] == "0,1,1.5"
        assert lines[2] == "1,0,2"
