import numpy as np
import pytest

from ebmvar import covariance_engine as ce
from ebmvar import model_core as mc
from ebmvar import sde_engine as se
from ebmvar import spatial_model as sm
from ebmvar.errors import NotPositiveDefinite, StepTooLarge, UnstableDrift

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
        A = sm.assemble_laplacian(g).toarray()
        np.testing.assert_allclose(A, _laplacian_by_stencil(g), atol=1e-12)

    def test_symmetric_negative_definite(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=5, Ny=4)
        A = sm.assemble_laplacian(g).toarray()
        np.testing.assert_allclose(A, A.T, atol=0.0)
        assert np.max(np.linalg.eigvalsh(A)) < 0.0

    def test_constant_field_annihilated(self):
        """A constant lifted field is harmonic: A T + g_bc = 0."""
        g = sm.Grid2D(Lx=1.0, Ly=2.0, Nx=6, Ny=5)
        theta = sm.BoundaryTrace.constant(7.5)
        A = sm.assemble_laplacian(g)
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
        A = sm.assemble_laplacian(g)
        np.testing.assert_allclose(A @ u + g_bc, 4.0, rtol=1e-12)


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
        A = sm.assemble_laplacian(g)
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
        nc = sm.build_noise_covariance(g, "identity", variance=2.0)
        np.testing.assert_allclose(nc.C, 2.0 * np.eye(g.d))
        np.testing.assert_allclose(nc.L @ nc.L.T, nc.C)

    def test_exponential(self):
        g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4)
        nc = sm.build_noise_covariance(g, "exponential", variance=1.0,
                                       length=0.5)
        np.testing.assert_allclose(nc.C, nc.C.T)
        np.testing.assert_allclose(np.diag(nc.C), 1.0)
        assert np.all(nc.C > 0.0)
        np.testing.assert_allclose(nc.L @ nc.L.T, nc.C, atol=1e-10)
        z = g.interior_coords()
        i, j = 0, g.d - 1
        expected = np.exp(-np.linalg.norm(z[i] - z[j]) / 0.5)
        assert nc.C[i, j] == pytest.approx(expected)

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
        A = sm.assemble_laplacian(sm.Grid2D(Lx=1.0, Ly=1.0, Nx=4, Ny=4)).toarray()
        M = ops.M.toarray()
        np.testing.assert_allclose(M, A - np.diag(ops.b_vec), atol=1e-14)

    def test_hurwitz(self):
        ops = _default_operators()
        assert np.max(sm.drift_eigenvalues(ops).real) < 0.0

    def test_drift_eigenvalues_match_the_general_solver(self):
        """A grid's symmetric M gets real eigenvalues, those of eigvals to
        rounding; a nonsymmetric M gets eigvals' own."""
        ops = _default_operators()
        general = np.linalg.eigvals(ops.M.toarray())
        got = sm.drift_eigenvalues(ops)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, np.sort(general.real),
                                   rtol=0.0, atol=1e-12 * np.max(np.abs(general)))

        rng = np.random.default_rng(3)
        M = rng.standard_normal((6, 6)) - 4.0 * np.eye(6)
        ops = sm.operators_from_arrays(M, np.zeros(6), np.full(6, 0.5),
                                       np.eye(6), np.eye(6), tau=0.01)
        np.testing.assert_array_equal(sm.drift_eigenvalues(ops),
                                      np.linalg.eigvals(M))

    def test_operators_from_arrays(self):
        M = np.array([[-2.0, 0.5], [0.5, -3.0]])
        ops = sm.operators_from_arrays(M, [0.1, 0.1], [0.5, 0.5],
                                       np.eye(2), np.eye(2), tau=0.02)
        np.testing.assert_allclose(ops.b_vec, [2.0, 3.0])
        assert ops.d == 2


class TestAnomalySimulation:
    def test_zero_noise_matches_matrix_exponential(self):
        from scipy.linalg import expm
        M = np.array([[-2.0, 0.4], [0.4, -1.5]])
        ops = sm.operators_from_arrays(M, [0.0, 0.0], [0.5, 0.5],
                                       np.zeros((2, 2)), np.zeros((2, 2)),
                                       tau=0.01)
        y0 = np.array([1.0, -0.5])
        cfg = se.SimConfig(dt=1e-4, n_steps=5000, n_paths=1)
        b = sm.simulate_anomaly_field(ops, cfg, y0=y0)
        expected = expm(M * b.times[-1]) @ y0
        np.testing.assert_allclose(b.values[0, -1], expected, rtol=1e-3)

    def test_scalar_reduction_variance(self):
        """d = 1 with D = 0 reduces to an OU anomaly with variance
        tau f^2 / (2 b)."""
        b_rate, f, tau = 2.0, 0.5, 0.05
        ops = sm.operators_from_arrays([[-b_rate]], [0.0], [f],
                                       [[1.0]], [[1.0]], tau=tau)
        cfg = se.SimConfig(dt=0.005, n_steps=4000, n_paths=300, seed=17)
        bundle = sm.simulate_anomaly_field(ops, cfg)
        vals = bundle.values[:, bundle.values.shape[1] // 2:, 0]
        target = tau * f**2 / (2.0 * b_rate)
        per_path = (vals**2).mean(axis=1)
        est = per_path.mean()
        sem = per_path.std(ddof=1) / np.sqrt(per_path.size)
        assert abs(est - target) <= 4.0 * sem

    def test_store_stride(self):
        ops = _default_operators()
        cfg = se.SimConfig(dt=1e-3, n_steps=10, n_paths=2)
        b = sm.simulate_anomaly_field(ops, cfg, store_stride=4)
        np.testing.assert_allclose(b.times, [0.0, 4e-3, 8e-3, 10e-3])
        assert b.values.shape == (2, 4, ops.d)

    def test_unstable_drift_rejected(self):
        ops = sm.operators_from_arrays([[1.0]], [0.0], [0.5],
                                       [[1.0]], [[1.0]], tau=0.01)
        with pytest.raises(UnstableDrift):
            sm.simulate_anomaly_field(ops, se.SimConfig(dt=1e-3, n_steps=1,
                                                        n_paths=1))

    def test_step_guard(self):
        ops = _default_operators()
        lam_min = np.min(sm.drift_eigenvalues(ops).real)
        cfg = se.SimConfig(dt=2.0 / abs(lam_min), n_steps=1, n_paths=1)
        with pytest.raises(StepTooLarge):
            sm.simulate_anomaly_field(ops, cfg)

    def test_reproducible(self):
        ops = _default_operators()
        cfg = se.SimConfig(dt=1e-3, n_steps=20, n_paths=3, seed=5)
        a = sm.simulate_anomaly_field(ops, cfg)
        b = sm.simulate_anomaly_field(ops, cfg)
        np.testing.assert_array_equal(a.values, b.values)


class TestCoordText:
    def test_format_and_order(self, run_cli, monkeypatch):
        """gamma_stationary.txt lists Gamma's nonzero entries row by row."""
        gamma = ce.CovarianceState.from_gamma([[0.0, 1.5], [2.0, 0.0]])
        monkeypatch.setattr(ce, "stationary_covariance",
                            lambda ops, check_stability: gamma)
        out = run_cli(DEFAULT, {"grid": {"Lx": 1.0, "Ly": 1.0, "Nx": 3, "Ny": 3},
                                "boundary": {"theta": 280.0},
                                "noise": {"kernel": "identity"}},
                      "spatial-stationary")
        lines = (out / "gamma_stationary.txt").read_text().strip().split("\n")
        assert lines[0] == "row,col,value"
        assert lines[1] == "0,1,1.5"
        assert lines[2] == "1,0,2"
