import ast
import dataclasses
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg import solve_continuous_lyapunov
from scipy.sparse.csgraph import connected_components

from ebmvar import covariance_engine as ce
from ebmvar import model_core as mc
from ebmvar import spatial_model as sm
from ebmvar.errors import (
    NonPositiveThreshold,
    ParamOutOfRange,
    SolveFailed,
    UnstableK,
)
from test_spatial_model import _laplacian_by_stencil

DEFAULT = mc.default_params()


def _random_system(rng, d, multiplicative=True, symmetric=True):
    """Random stable system: M diagonally shifted, and symmetric unless
    asked otherwise; PSD noise covariance."""
    R = rng.standard_normal((d, d))
    if symmetric:
        R = 0.5 * (R + R.T)
    M = R - (np.max(np.abs(np.linalg.eigvals(R)).real) + 1.0) * np.eye(d)
    B = rng.standard_normal((d, d))
    C = B @ B.T + 0.1 * np.eye(d)
    d_vec = 0.1 * rng.standard_normal(d) if multiplicative else np.zeros(d)
    f_vec = rng.uniform(0.2, 0.8, d)
    return sm.operators_from_arrays(M, d_vec, f_vec, C, tau=0.05)


def _covariance_rhs_factor_sum(gamma, ops):
    """Literal sum over the factor columns of C = L L^T, L the Cholesky
    factor of ops.C: an independent oracle for covariance_rhs."""
    gamma = np.asarray(gamma, dtype=float)
    M = ops.M
    D = np.diag(ops.d_vec)
    L = np.linalg.cholesky(ops.C)
    inner = D @ gamma @ D.T + np.outer(ops.f_vec, ops.f_vec)
    noise = np.zeros_like(inner)
    for k in range(L.shape[1]):
        dk = np.diag(L[:, k])
        noise += dk @ inner @ dk
    return M @ gamma + (M @ gamma.T).T + ops.tau * noise


class TestCovarianceRhs:
    def test_two_formulations_agree(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = int(rng.integers(1, 6))
            ops = _random_system(rng, d, symmetric=False)
            G = rng.standard_normal((d, d))
            G = G + G.T
            np.testing.assert_allclose(
                ce.covariance_rhs(G, ops),
                _covariance_rhs_factor_sum(G, ops),
                rtol=1e-12, atol=1e-12,
            )

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(1)
        ops = _random_system(rng, 4, symmetric=False)
        G = rng.standard_normal((4, 4))
        G = G + G.T
        rhs = ce.covariance_rhs(G, ops)
        np.testing.assert_allclose(rhs, rhs.T, atol=1e-12)


class TestVectorisation:
    def test_matches_matrix_rhs(self):
        """K vec(G) + F reproduces vec of the matrix right-hand side."""
        rng = np.random.default_rng(2)
        for _ in range(40):
            d = int(rng.integers(1, 6))
            ops = _random_system(rng, d, symmetric=False)
            vs = ce.assemble_vectorised(ops)
            G = rng.standard_normal((d, d))
            G = G + G.T
            lhs = vs.K @ G.flatten(order="F") + vs.F
            rhs = ce.covariance_rhs(G, ops).flatten(order="F")
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_scalar_case(self):
        b, f, d_coef, tau, c = 2.0, 0.5, 0.3, 0.05, 1.0
        ops = sm.operators_from_arrays([[-b]], [d_coef], [f], [[c]], tau=tau)
        vs = ce.assemble_vectorised(ops)
        assert vs.K.toarray()[0, 0] == pytest.approx(-2.0 * b + tau * c * d_coef**2)
        assert vs.F[0] == pytest.approx(tau * c * f**2)


class TestStationaryCovariance:
    def test_scalar_reduction(self):
        """d = 1 reduces exactly to the 0-D stationary variance."""
        b, sigma0, sigma1, tau = 1.0, 0.5, 0.0086486, 1.0 / 365.0
        ops = sm.operators_from_arrays([[-b]], [sigma1], [sigma0], [[1.0]],
                                       tau=tau)
        cs = ce.stationary_covariance(ops)
        assert cs.gamma[0, 0] == pytest.approx(
            mc.stationary_variance(b, sigma0, sigma1, tau), rel=1e-12)

    def test_lyapunov_oracle_additive(self):
        """With D = 0 the stationary equation is a Lyapunov equation."""
        rng = np.random.default_rng(3)
        for _ in range(10):
            d = int(rng.integers(2, 6))
            ops = _random_system(rng, d, multiplicative=False)
            cs = ce.stationary_covariance(ops)
            Qn = ops.tau * ops.C * np.outer(ops.f_vec, ops.f_vec)
            expected = solve_continuous_lyapunov(ops.M, -Qn)
            np.testing.assert_allclose(cs.gamma, expected, rtol=1e-9, atol=1e-12)

    def test_rhs_vanishes_at_stationary_point(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            ops = _random_system(rng, d)
            cs = ce.stationary_covariance(ops)
            resid = ce.covariance_rhs(cs.gamma, ops)
            scale = max(np.max(np.abs(cs.gamma)), 1e-300)
            assert np.max(np.abs(resid)) <= 1e-9 * max(1.0, scale)

    def test_psd_flag(self):
        rng = np.random.default_rng(5)
        ops = _random_system(rng, 4)
        cs = ce.stationary_covariance(ops)
        assert cs.is_psd

    def test_psd_flag_tolerance(self):
        """Negative eigenvalues count against PSD beyond 1e-8 of the
        largest eigenvalue in magnitude, whichever end of the spectrum it
        sits at."""
        assert ce.CovarianceState.from_gamma(np.diag([1.0, -0.5e-8])).is_psd
        assert not ce.CovarianceState.from_gamma(np.diag([1.0, -2e-8])).is_psd
        assert not ce.CovarianceState.from_gamma(np.diag([-1.0, 0.5])).is_psd
        assert ce.CovarianceState.from_gamma(np.zeros((2, 2))).is_psd

    def test_unstable_rejected(self):
        ops = sm.operators_from_arrays([[1.0]], [0.0], [0.5], [[1.0]],
                                       tau=0.01)
        with pytest.raises(UnstableK):
            ce.certify(ops).require_hurwitz()

    def test_gate_agrees_with_dense_spectrum_of_k(self):
        """The Hurwitz gate (the certificate's spectral abscissa, by LOBPCG)
        accepts exactly the systems whose K has a negative spectral
        abscissa, by a dense eigensolve of K, and refuses every other one
        with UnstableK.  The systems mix stable and unstable drifts M with
        multiplicative noise strong enough to destabilise a stable M.  Every
        M is symmetric."""
        rng = np.random.default_rng(12)
        seen = {"stable": 0, "drift-unstable": 0, "noise-unstable": 0}
        for _ in range(300):
            d = int(rng.integers(1, 6))
            R = rng.standard_normal((d, d))
            R = 0.5 * (R + R.T)
            M = R - (np.max(np.linalg.eigvals(R).real)
                     + rng.uniform(-0.5, 1.5)) * np.eye(d)
            B = rng.standard_normal((d, d))
            C = B @ B.T + 0.1 * np.eye(d)
            ops = sm.operators_from_arrays(
                M, rng.uniform(0.0, 3.0) * rng.standard_normal(d),
                rng.uniform(0.2, 0.8, d), C, tau=0.5)
            alpha = np.max(np.linalg.eigvals(
                ce.assemble_vectorised(ops).K.toarray()).real)
            if abs(alpha) < 1e-6:
                continue
            try:
                ce.certify(ops).require_hurwitz()
                accepted = True
            except UnstableK:
                accepted = False
            assert accepted == (alpha < 0.0), (d, alpha)
            if alpha < 0.0:
                seen["stable"] += 1
            elif np.max(np.linalg.eigvals(M).real) >= 0.0:
                seen["drift-unstable"] += 1
            else:
                seen["noise-unstable"] += 1
        assert min(seen.values()) >= 30, seen

    def test_singular_lyapunov_operator_is_refused(self):
        """M = diag(-1, 1) makes M X + X M^T singular (w_0 + w_1 = 0): the
        solve fails, and never returns a non-finite Gamma."""
        ops = sm.operators_from_arrays(np.diag([-1.0, 1.0]), [0.0, 0.0],
                                       [0.5, 0.5], np.eye(2), tau=0.01)
        with pytest.raises(SolveFailed):
            ce.stationary_covariance(ops)

    @pytest.mark.parametrize("margin", [1e-6, -1e-6],
                             ids=["unstable", "stable"])
    def test_gate_reads_the_sign_at_the_margin(self, margin):
        """Symmetric systems shifted so that K's dense spectral abscissa is
        +-1e-6: the gate refuses each unstable one with UnstableK and
        accepts each stable one.  Shifting M by s I shifts K by 2 s I."""
        rng = np.random.default_rng(21)
        for _ in range(40):
            ops = _random_system(rng, int(rng.integers(2, 6)))
            alpha = np.max(np.linalg.eigvalsh(
                ce.assemble_vectorised(ops).K.toarray()))
            ops = dataclasses.replace(
                ops, M=ops.M + 0.5 * (margin - alpha) * np.eye(ops.d))
            K = ce.assemble_vectorised(ops).K.toarray()
            assert np.max(np.linalg.eigvalsh(K)) == pytest.approx(
                margin, rel=1e-3)
            if margin > 0.0:
                with pytest.raises(UnstableK):
                    ce.certify(ops).require_hurwitz()
            else:
                ce.certify(ops).require_hurwitz()


class TestIntegrateCovariance:
    def test_converges_to_stationary(self):
        rng = np.random.default_rng(6)
        ops = _random_system(rng, 3)
        vs = ce.assemble_vectorised(ops)
        target = ce.stationary_covariance(ops)
        # Long horizon relative to the slowest mode of K.
        absc, _ = ce.k_spectral_abscissa(ops)
        T_end = 40.0 / abs(absc)
        state = ce.integrate_covariance(ops, T_end, dt=0.25 / np.max(
            np.abs(np.linalg.eigvals(vs.K.toarray()))))
        np.testing.assert_allclose(state.gamma, target.gamma,
                                   rtol=1e-6, atol=1e-12)

    def test_zero_noise_stays_zero(self):
        ops = sm.operators_from_arrays([[-1.0]], [0.0], [0.0], [[1.0]],
                                       tau=0.05)
        state = ce.integrate_covariance(ops, 1.0, dt=0.01)
        assert state.spatial_variance == 0.0

    @pytest.mark.parametrize("T_end, dt", [
        (0.0, 0.01), (1.0, 0.0), (np.nan, 0.01), (-1.0, 0.01), (1.0, -0.01),
    ], ids=["zero-horizon", "zero-step", "nan-horizon", "negative-horizon",
            "negative-step"])
    def test_refuses_a_bad_horizon_or_step(self, T_end, dt):
        ops = sm.operators_from_arrays([[-1.0]], [0.0], [0.5], [[1.0]],
                                       tau=0.05)
        with pytest.raises(ParamOutOfRange):
            ce.integrate_covariance(ops, T_end, dt)


def _default_setup(nx=4, ny=4, theta=280.0, kernel="exponential", length=1.0):
    g = sm.Grid2D(Lx=length, Ly=length, Nx=nx, Ny=ny)
    bd = sm.BoundaryTrace.constant(theta)
    Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
    lam = DEFAULT.r0 + DEFAULT.r1 * theta - DEFAULT.Q * mc.co_albedo(theta, DEFAULT)
    noise = sm.build_noise_covariance(g, kernel, variance=1.0, length=0.5)
    prof = sm.solve_equilibrium_profile(g, Q_field, lam, bd, DEFAULT)
    ops = sm.build_operators(g, prof, Q_field, DEFAULT, noise)
    return g, bd, Q_field, lam, noise, ops


def _kronecker_gamma(ops):
    """Oracle: sparse LU of the d^2 x d^2 vectorised system (-K) q = F."""
    vs = ce.assemble_vectorised(ops)
    q = spla.splu((-vs.K).tocsc()).solve(vs.F)
    return q.reshape((ops.d, ops.d), order="F")


def _assert_matches_kronecker(ops):
    ref = _kronecker_gamma(ops)
    gamma = ce.stationary_covariance(ops).gamma
    assert np.max(np.abs(gamma - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOneGain:
    """K's noise gain tau C o d d^T is computed once per operators object,
    by `SpatialOperators.gain`, however often the RK4 steps, the residual
    checks and the eigensolves read it."""

    @pytest.fixture
    def gains(self, monkeypatch):
        made = []
        original = sm.SpatialOperators.gain.func

        def counting(ops):
            made.append(ops)
            return original(ops)

        gain = functools.cached_property(counting)
        gain.__set_name__(sm.SpatialOperators, "gain")
        monkeypatch.setattr(sm.SpatialOperators, "gain", gain)
        return made

    def test_one_gain_per_integration(self, gains):
        ops = _random_system(np.random.default_rng(6), 3)
        ce.integrate_covariance(ops, 1.0, dt=0.1)
        assert gains == [ops]

    def test_one_gain_per_sweep_point(self, gains):
        g, bd, Q_field, lam0, noise, _ = _default_setup(nx=4, ny=4)
        assert ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam0).applicable
        assert len(gains) == 1


class TestKroneckerOracle:
    """The d x d generalized-Lyapunov solve against the Kronecker LU."""

    @pytest.mark.parametrize("nx", [5, 7, 9], ids=["d16", "d36", "d64"])
    def test_grids_on_8x8_domain(self, nx):
        *_, ops = _default_setup(nx=nx, ny=nx, length=8.0)
        _assert_matches_kronecker(ops)

    @pytest.mark.parametrize("multiplicative", [True, False],
                             ids=["multiplicative", "additive"])
    def test_random_systems(self, multiplicative):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            _assert_matches_kronecker(_random_system(rng, d, multiplicative))

    def test_slow_contraction(self):
        """Multiplicative noise scaled so that rho(L_M^-1 tau C o (D . D))
        = 0.9, where a plain fixed-point iteration would need hundreds of
        sweeps; the equation is solved as a linear system either way."""
        rng = np.random.default_rng(10)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            ops = _random_system(rng, d)
            M, I = ops.M, np.eye(d)
            lyap = np.kron(I, M) + np.kron(M, I)
            noise = ops.tau * np.diag(ops.C.flatten(order="F")) @ np.kron(
                np.diag(ops.d_vec), np.diag(ops.d_vec))
            rho = np.max(np.abs(np.linalg.eigvals(np.linalg.solve(lyap, noise))))
            ops = dataclasses.replace(ops, d_vec=ops.d_vec * np.sqrt(0.9 / rho))
            _assert_matches_kronecker(ops)


class TestCertificate:
    def test_default_grid_all_green(self):
        _, _, _, _, _, ops = _default_setup()
        cert = ce.certify(ops)
        assert cert.m_spectral_abscissa < 0.0
        assert cert.k_spectral_abscissa < 0.0
        assert cert.minus_k_is_Z
        assert cert.minus_k_irreducible
        assert cert.inverse_nonnegative
        assert cert.inverse_strictly_positive
        assert cert.coercivity_ok
        assert cert.k_symmetric_part_negative_definite
        assert cert.inverse_route == "m-matrix"
        # The M-matrix reading against an explicit inverse of -K.
        K = ce.assemble_vectorised(ops).K
        inv = spla.splu((-K).tocsc()).solve(np.eye(K.shape[0]))
        assert np.min(inv) > 0.0
        d = cert.to_dict()
        assert d["minus_k_is_Z"] is True

    def test_k_abscissa_bounded_by_twice_m(self):
        """For additive noise K = I x M + M x I, so the abscissas relate
        exactly by a factor two.  M is symmetric, as the certificate
        requires."""
        rng = np.random.default_rng(7)
        ops = _random_system(rng, 3, multiplicative=False)
        # Keep K purely Kronecker.
        ops = dataclasses.replace(ops, C=np.zeros_like(ops.C))
        m_absc = np.max(np.linalg.eigvals(ops.M).real)
        k_absc, route = ce.k_spectral_abscissa(ops)
        assert route == "iterative"
        assert k_absc == pytest.approx(2.0 * m_absc, rel=1e-8)

    def test_unstable_k_is_raised_by_require_hurwitz_only(self):
        """The certificate's abscissa is the package's one Hurwitz
        decision."""
        raisers = []
        for path in Path(ce.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    raisers += [
                        (path.stem, fn.name) for node in ast.walk(fn)
                        if isinstance(node, ast.Raise) and node.exc is not None
                        and any(getattr(n, "id", getattr(n, "attr", None))
                                == "UnstableK" for n in ast.walk(node.exc))]
        assert raisers == [("covariance_engine", "require_hurwitz")]


def _certificate_oracle(ops):
    """Every certificate field read off the assembled d^2 x d^2 matrix K:
    its off-diagonal signs, its strongly connected components, and dense
    eigensolves of K and of its symmetric part."""
    K = ce.assemble_vectorised(ops).K
    Kd = K.toarray()
    n = Kd.shape[0]
    symmetric = bool(np.all(Kd == Kd.T))
    S = Kd if symmetric else 0.5 * (Kd + Kd.T)
    sym_top = sla.eigvalsh(S, subset_by_index=[n - 1, n - 1],
                           overwrite_a=not symmetric)[0]
    absc = sym_top if symmetric else np.max(np.linalg.eigvals(Kd).real)
    is_Z = bool(np.all(Kd[~np.eye(n, dtype=bool)] >= -1e-14))
    irreducible = connected_components(K, directed=True,
                                       connection="strong")[0] == 1
    m_matrix = bool(absc < 0.0) and is_Z
    return Kd, absc, {
        "minus_k_is_Z": is_Z,
        "minus_k_irreducible": irreducible,
        "inverse_nonnegative": m_matrix,
        "inverse_strictly_positive": m_matrix and irreducible,
        "coercivity_ok": bool(np.all(-ops.M.diagonal() >= 0.0)),
        "k_symmetric_part_negative_definite": bool(sym_top < 0.0),
        "eig_route": "iterative",
        "inverse_route": "m-matrix" if m_matrix else "not-asserted",
    }


def _assert_matches_certificate_oracle(ops):
    cert = ce.certify(ops).to_dict()
    Kd, absc, expected = _certificate_oracle(ops)
    assert {k: cert[k] for k in expected} == expected
    assert abs(cert["k_spectral_abscissa"] - absc) <= 1e-10 * abs(absc)
    return Kd, cert


def _oracle_system(rng, kind):
    """A random system of one kind: a Z-matrix drift, symmetric or not; a
    symmetric general drift with negative off-diagonals; a symmetric
    block-diagonal (reducible) Z-matrix drift; or d = 1.  The diagonal shift
    leaves some drifts unstable, and the multiplicative noise destabilises
    some stable ones."""
    d = 1 if kind == "scalar" else int(rng.integers(2, 7))
    if kind == "general":
        M = rng.standard_normal((d, d))
    else:
        M = rng.uniform(0.0, 1.0, (d, d)) * (rng.random((d, d)) < 0.6)
    if kind in ("symmetric", "general", "reducible"):
        M = M + M.T
    if kind == "reducible":
        k = int(rng.integers(1, d))
        M[:k, k:] = 0.0
        M[k:, :k] = 0.0
    np.fill_diagonal(M, 0.0)
    M -= (np.max(np.linalg.eigvals(M).real) + rng.uniform(-0.5, 1.5)) * np.eye(d)
    if kind == "reducible":  # every entry stored, zeros included, densified
        rows, cols = np.indices((d, d)).reshape(2, -1)
        M = sp.csr_matrix((M.ravel(), (rows, cols)), shape=(d, d)).toarray()
    B = rng.standard_normal((d, d))
    C = B @ B.T + 0.1 * np.eye(d)
    return sm.operators_from_arrays(
        M, rng.uniform(0.0, 2.0) * rng.standard_normal(d),
        rng.uniform(0.2, 0.8, d), C, tau=0.5)


class TestCertificateOracle:
    """certify, which reads M and the d x d operator, against the same
    fields read off the Kronecker matrix K; a nonsymmetric M is refused."""

    def test_random_systems(self):
        rng = np.random.default_rng(13)
        kinds = ("nonsymmetric", "symmetric", "general", "reducible", "scalar")
        seen = {}
        for i in range(100):
            kind = kinds[i % len(kinds)]
            ops = _oracle_system(rng, kind)
            if kind == "nonsymmetric":
                for solve in (ce.certify, ce.stationary_covariance):
                    with pytest.raises(ParamOutOfRange, match="symmetric"):
                        solve(ops)
                continue
            Kd, cert = _assert_matches_certificate_oracle(ops)
            if cert["inverse_strictly_positive"]:
                assert np.min(np.linalg.inv(-Kd)) > 0.0
            elif cert["inverse_nonnegative"]:
                assert np.min(np.linalg.inv(-Kd)) >= -1e-12 * np.max(
                    np.abs(np.linalg.inv(-Kd)))
            key = (cert["minus_k_is_Z"], cert["minus_k_irreducible"],
                   cert["k_spectral_abscissa"] < 0.0)
            seen[key] = seen.get(key, 0) + 1
        # Z-matrices and not, reducible and not, Hurwitz and not.
        assert len(seen) >= 6, seen

    @pytest.mark.parametrize("nx", [5, 7, 9], ids=["d16", "d36", "d64"])
    def test_grids_on_8x8_domain(self, nx):
        *_, ops = _default_setup(nx=nx, ny=nx, length=8.0)
        _, cert = _assert_matches_certificate_oracle(ops)
        assert cert["inverse_strictly_positive"]


class TestMarkovBound:
    def test_caps_at_one(self):
        assert ce.markov_bound(4.0, 1.0) == 1.0

    def test_value(self):
        assert ce.markov_bound(0.04, 2.0) == pytest.approx(0.01)

    def test_monotone_in_threshold(self):
        thetas = [0.5, 1.0, 2.0, 4.0]
        bounds = [ce.markov_bound(0.3, t) for t in thetas]
        assert all(a >= b for a, b in zip(bounds, bounds[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveThreshold):
            ce.markov_bound(0.3, 0.0)


def _profile_fd_sensitivity(g, Q_field, bd, lam):
    """Central difference of the equilibrium profile in the forcing."""
    h = 1e-4 * max(1.0, abs(lam))
    lo = sm.solve_equilibrium_profile(g, Q_field, lam - h, bd, DEFAULT)
    hi = sm.solve_equilibrium_profile(g, Q_field, lam + h, bd, DEFAULT)
    return (hi.values - lo.values) / (2.0 * h)


def _ops_at(g, Q_field, bd, noise, lam):
    """The operators of a sweep point, rebuilt at its forcing."""
    prof = sm.solve_equilibrium_profile(g, Q_field, lam, bd, DEFAULT)
    return sm.build_operators(g, prof, Q_field, DEFAULT, noise)


def _gamma_at(g, Q_field, bd, noise, lam):
    return ce.stationary_covariance(_ops_at(g, Q_field, bd, noise, lam)).gamma


def _dgamma(ops):
    """dGamma/dlambda as the sweep forms it: df/dlambda = D u."""
    return ce.covariance_derivative(ops, ops.d_vec * ce.profile_sensitivity(ops))


class TestMonotonicitySweep:
    def test_ice_band_entrywise_positive(self):
        g, bd, Q_field, lam0, noise, _ = _default_setup(nx=4, ny=4)
        lams = np.linspace(lam0 - 5.0, lam0 + 5.0, 3)
        for lam in lams:
            p = ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam)
            assert p.applicable
            assert p.min_diff_entry > 0.0
            ops = _ops_at(g, Q_field, bd, noise, p.lam)
            u = ce.profile_sensitivity(ops)
            assert p.min_diff_entry == np.min(
                ce.covariance_derivative(ops, ops.d_vec * u))
            assert p.sensitivity_positive
            fd_u = _profile_fd_sensitivity(g, Q_field, bd, p.lam)
            assert np.max(np.abs(u - fd_u) / np.abs(u)) <= 1e-4

    @pytest.mark.parametrize("nx", [5, 9], ids=["d16", "d64"])
    def test_exact_derivative_matches_central_differences(self, nx):
        """dGamma/dlambda against central differences of the stationary
        solve at lambda +- 1e-4 lambda, on the unit square."""
        g, bd, Q_field, lam0, noise, ops = _default_setup(nx=nx, ny=nx)
        p = ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam0)
        assert p.applicable
        dgamma = _dgamma(ops)
        assert p.min_diff_entry == np.min(dgamma)
        h = 1e-4 * lam0
        fd = (_gamma_at(g, Q_field, bd, noise, lam0 + h)
              - _gamma_at(g, Q_field, bd, noise, lam0 - h)) / (2.0 * h)
        scale = np.max(np.abs(dgamma))
        assert np.max(np.abs(dgamma - fd)) <= 1e-8 * scale

    def test_exact_derivative_matches_kronecker_oracle(self):
        """At d = 16: dGamma/dlambda = -K^-1 vec(tau C o (f' f^T + f f'^T)),
        with f' = D u and u from the explicit Jacobian of the profile."""
        g, bd, Q_field, lam0, noise, ops = _default_setup(nx=5, ny=5)
        p = ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam0)
        J = _laplacian_by_stencil(g) - np.diag(DEFAULT.r1 - Q_field.values * DEFAULT.slope)
        u = np.linalg.solve(J, -np.ones(g.d))
        f_df = np.outer(ops.f_vec, ops.d_vec * u)
        rhs = ops.tau * ops.C * (f_df + f_df.T)
        K = ce.assemble_vectorised(ops).K
        ref = spla.splu((-K).tocsc()).solve(rhs.flatten(order="F"))
        ref = ref.reshape((g.d, g.d), order="F")
        dgamma = _dgamma(ops)
        assert p.min_diff_entry == np.min(dgamma)
        assert np.max(np.abs(dgamma - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_one_newton_solve_and_one_eigh_per_point(self, monkeypatch):
        """The certificate's Hurwitz gate, Gamma, its derivative and the
        sensitivity u all come from the point's one eigendecomposition of M:
        the sweep never assembles K, and reads K's abscissa once a point.
        LOBPCG's Rayleigh-Ritz problems are at most 3 x 3, so the count
        keeps the d x d eigh calls only."""
        counts = {"newton": 0, "assemble": 0, "abscissa": 0, "eigh": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(ce, "solve_equilibrium_profile",
                            counting("newton", ce.solve_equilibrium_profile))
        monkeypatch.setattr(ce, "assemble_vectorised",
                            counting("assemble", ce.assemble_vectorised))
        monkeypatch.setattr(ce, "k_spectral_abscissa",
                            counting("abscissa", ce.k_spectral_abscissa))
        original_eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            counts["eigh"] += a.shape[0] > 3
            return original_eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        g, bd, Q_field, lam0, noise, _ = _default_setup(nx=4, ny=4)
        lams = np.linspace(lam0 - 5.0, lam0 + 5.0, 3)
        points = [ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam)
                  for lam in lams]
        assert all(pt.applicable and pt.min_diff_entry > 0.0 for pt in points)
        assert counts == {"newton": 3, "assemble": 0, "abscissa": 3, "eigh": 3}

    def test_memory_is_flat_in_the_point_count(self):
        """A point keeps its row only, so at d = 100 the tracemalloc peak of
        a 5-point sweep is within one d x d array of a 1-point sweep's."""
        g, bd, Q_field, lam0, noise, _ = _default_setup(nx=11, ny=11, length=8.0)
        peaks = {}
        for n in (1, 5):
            lams = np.linspace(lam0 - 4.0, lam0 + 4.0, n)
            tracemalloc.start()
            try:
                points = [ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam)
                          for lam in lams]
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert all(pt.applicable and pt.min_diff_entry > 0.0 for pt in points)
        assert abs(peaks[5] - peaks[1]) <= g.d * g.d * 8, peaks

    def test_warm_plateau_flagged_flat(self):
        g, bd, Q_field, lam0, noise, _ = _default_setup(nx=4, ny=4, theta=305.0)
        p = ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam0)
        assert not p.applicable
        assert "band" in p.note
        # On the plateau the noise amplitude is forcing-independent, so the
        # forcing derivative vanishes.
        assert abs(p.min_diff_entry) <= 1e-8

    def test_csv_contract(self, run_cli):
        # The config of _default_setup(nx=4, ny=4), swept at its lam0 only.
        g, bd, Q_field, lam0, noise, _ = _default_setup(nx=4, ny=4)
        out = run_cli(DEFAULT, {
            "grid": {"Lx": g.Lx, "Ly": g.Ly, "Nx": g.Nx, "Ny": g.Ny},
            "boundary": {"theta": bd.left},
            "noise": {"kernel": "exponential", "length": 0.5},
            "sweep": {"lambda_min": lam0, "lambda_max": lam0, "n_points": 1},
        }, "monotonicity")
        lines = (out / "monotonicity_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,applicable,trace,min_dgamma_entry,verdict,note"
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "True"


class TestCounterexample:
    def test_closed_form_matches_solver(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            s = rng.uniform(0.05, 0.95)
            c = rng.uniform(0.05, 0.95)
            lam = rng.uniform(0.0, 3.0)
            res = ce.counterexample_trace(s, c, lam)
            assert res.numeric_trace == pytest.approx(res.trace, abs=1e-10)
            slope = np.trace(ce.covariance_derivative(
                ce.counterexample_operators(s, c, lam), [1.0, 0.0]))
            assert slope == pytest.approx(res.d_trace_d_lambda, rel=1e-10,
                                          abs=1e-10)

    def test_reference_point(self):
        res = ce.counterexample_trace(0.5, 0.8, 0.2)
        assert res.trace == pytest.approx(
            (0.2**2 - 2 * 0.8 * 0.5 * 0.2 + 1.0) / (2 * (1 - 0.25)))
        assert res.d_trace_d_lambda == pytest.approx(-0.26666666666666666)

    def test_trace_decreasing_below_cs(self):
        s, c = 0.5, 0.8
        lams = np.linspace(0.0, 0.35, 8)
        traces = [ce.counterexample_trace(s, c, l).numeric_trace for l in lams]
        assert all(a > b for a, b in zip(traces, traces[1:]))

    def test_sign_change_location(self):
        s, c = 0.5, 0.8
        root = ce.counterexample_sign_change(s, c, tol=1e-8)
        assert root == pytest.approx(c * s, abs=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(ParamOutOfRange):
            ce.counterexample_trace(1.5, 0.5, 0.1)
        with pytest.raises(ParamOutOfRange):
            ce.counterexample_trace(0.5, 0.5, -0.1)
