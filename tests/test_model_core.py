import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ebmvar import model_core as mc
from ebmvar.errors import DegenerateBranch, InadmissibleVariance

DEFAULT = mc.EbmParams(beta_min=0.38, beta_max=0.70, T_l=263.0, T_u=300.0,
                     r0=0.0, r1=2.0, Q=100.0, lam=510.0, tau=1.0 / 365.0)


class TestCoAlbedo:
    def test_cold_plateau(self):
        assert mc.co_albedo(250.0, DEFAULT) == 0.38

    def test_warm_plateau(self):
        assert mc.co_albedo(305.0, DEFAULT) == 0.70

    def test_midpoint(self):
        assert mc.co_albedo(281.5, DEFAULT) == pytest.approx(0.54, abs=1e-15)

    def test_vectorised(self):
        T = np.array([250.0, 281.5, 305.0])
        np.testing.assert_allclose(mc.co_albedo(T, DEFAULT), [0.38, 0.54, 0.70])

    @settings(max_examples=200, deadline=None)
    @given(T=st.floats(150.0, 400.0), eps=st.floats(1e-9, 1.0))
    def test_lipschitz_continuity(self, T, eps):
        s = DEFAULT.slope
        assert abs(mc.co_albedo(T + eps, DEFAULT) - mc.co_albedo(T, DEFAULT)) <= s * eps + 1e-12

    def test_nondecreasing_on_grid(self):
        T = np.linspace(150.0, 400.0, 5001)
        assert np.all(np.diff(mc.co_albedo(T, DEFAULT)) >= 0.0)


class TestCoAlbedoSlope:
    def test_plateau(self):
        assert mc.co_albedo_slope(310.0, DEFAULT) == 0.0

    def test_inside(self):
        assert mc.co_albedo_slope(280.0, DEFAULT) == pytest.approx(0.32 / 37.0)

    def test_kink_convention(self):
        assert mc.co_albedo_slope(DEFAULT.T_l, DEFAULT) == 0.0
        assert mc.co_albedo_slope(DEFAULT.T_u, DEFAULT) == 0.0


class TestEmittedRadiation:
    def test_identity_slope(self):
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=0.0, r1=1.0, Q=0.0, lam=0.0,
                         tau=0.5)
        assert mc.emitted_radiation(273.0, p) == 273.0

    def test_affine_root(self):
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=-10.0, r1=2.0, Q=0.0,
                         lam=0.0, tau=0.5)
        assert mc.emitted_radiation(5.0, p) == 0.0

    def test_finite_difference_slope(self):
        T = 288.0
        fd = (mc.emitted_radiation(T + 1.0, DEFAULT) - mc.emitted_radiation(T, DEFAULT))
        assert fd == pytest.approx(DEFAULT.r1)


def _bisection_roots(p, lam, lo=200.0, hi=350.0, scan=1e-3):
    """Brute-force oracle: sign changes of the balance residual on a fine
    scan grid, refined by bisection."""
    grid = np.arange(lo, hi + scan, scan)
    res = mc.balance_residual(grid, p, lam=lam)
    roots = []
    for k in np.nonzero(np.sign(res[:-1]) * np.sign(res[1:]) < 0)[0]:
        a, b = grid[k], grid[k + 1]
        for _ in range(80):
            m = 0.5 * (a + b)
            if mc.balance_residual(a, p, lam=lam) * mc.balance_residual(m, p, lam=lam) <= 0:
                b = m
            else:
                a = m
        roots.append(0.5 * (a + b))
    roots.extend(grid[res == 0.0])
    return sorted(roots)


class TestEquilibriumRoots:
    def test_q_zero_unique_root(self):
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=0.0, r1=1.0, Q=0.0,
                         lam=280.0, tau=0.5)
        rep = mc.equilibrium_roots(p)
        assert len(rep.roots) == 1
        root = rep.roots[0]
        assert root.T_star == pytest.approx(280.0)
        assert root.b == pytest.approx(1.0)
        assert root.stable

    @pytest.mark.parametrize("lam", np.linspace(-120.0, 120.0, 13))
    def test_against_bisection_oracle(self, lam):
        # Q*s > r1: the classic bistable configuration with up to 3 roots.
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=0.0, r1=2.0, Q=340.0,
                         lam=0.0, tau=1.0 / 365.0)
        got = [r.T_star for r in mc.equilibrium_roots(p, lam=lam).roots]
        expected = _bisection_roots(p, lam)
        got = [t for t in got if 200.0 <= t <= 350.0]
        assert len(got) == len(expected)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    def test_residual_invariant(self):
        for lam in np.linspace(460.0, 560.0, 21):
            for r in mc.equilibrium_roots(DEFAULT, lam=lam).roots:
                assert abs(mc.balance_residual(r.T_star, DEFAULT, lam=lam)) <= 1e-10

    def test_ice_root_unstable_when_feedback_dominates(self):
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=0.0, r1=2.0, Q=340.0,
                         lam=0.0, tau=1.0 / 365.0)
        # b = r1 - Q*s < 0 by construction.
        assert p.Q * p.slope > p.r1
        rep = mc.equilibrium_roots(p, lam=380.0)
        ice = [r for r in rep.roots if r.branch == mc.BRANCH_ICE]
        assert ice and not ice[0].stable

    def test_degenerate_branch_detected(self):
        s = (0.7 - 0.38) / 37.0
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=0.0, r1=100.0 * s, Q=100.0,
                         lam=0.0, tau=1.0 / 365.0)
        with pytest.raises(DegenerateBranch):
            mc.equilibrium_roots(p)

    def test_roots_sorted(self):
        p = mc.EbmParams(0.38, 0.7, 263, 300, r0=0.0, r1=2.0, Q=340.0,
                         lam=0.0, tau=1.0 / 365.0)
        ts = [r.T_star for r in mc.equilibrium_roots(p, lam=20.0).roots]
        assert ts == sorted(ts)


def _variance_ode_limit(b, sigma0, sigma1, tau, t_end, n_steps=200000):
    """Independent oracle: RK4 on V' = -(2b - tau*sigma1^2) V + tau*sigma0^2."""
    a = 2.0 * b - tau * sigma1**2
    c = tau * sigma0**2
    rhs = lambda v: -a * v + c
    h = t_end / n_steps
    v = 0.0
    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        v += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return v


class TestStationaryVariance:
    def test_plateau_collapse(self):
        tau, sigma0, r1 = 0.01, 0.7, 2.0
        assert mc.stationary_variance(r1, sigma0, 0.0, tau) == pytest.approx(
            tau * sigma0**2 / (2.0 * r1))

    def test_zero_amplitude(self):
        assert mc.stationary_variance(1.0, 0.0, 0.01, 0.1) == 0.0

    def test_ode_oracle(self):
        b, sigma0, sigma1, tau = 1.0, 0.5, 0.0086486, 1.0 / 365.0
        closed = mc.stationary_variance(b, sigma0, sigma1, tau)
        ode = _variance_ode_limit(b, sigma0, sigma1, tau, t_end=50.0 / b)
        assert closed == pytest.approx(ode, rel=1e-6)

    def test_inadmissible(self):
        with pytest.raises(InadmissibleVariance):
            mc.stationary_variance(0.001, 0.5, 10.0, 0.5)
        with pytest.raises(InadmissibleVariance):
            mc.stationary_variance(-1.0, 0.5, 0.0, 0.01)


class TestVarianceCurve:
    def test_warm_plateau_constant(self):
        # lambda large enough that the selected root sits on the warm plateau
        lams = np.linspace(560.0, 600.0, 9)
        pts = mc.variance_curve(DEFAULT, lams)
        assert all(pt.branch == mc.BRANCH_WARM for pt in pts)
        vars_ = np.array([pt.var_inf for pt in pts])
        assert np.max(np.abs(np.diff(vars_))) <= 1e-12

    def test_ice_sensitive_strictly_increasing(self):
        lams = np.linspace(496.0, 524.0, 25)
        pts = mc.variance_curve(DEFAULT, lams)
        assert all(pt.branch == mc.BRANCH_ICE for pt in pts)
        diffs = np.diff([pt.var_inf for pt in pts])
        assert np.all(diffs > 0.0)
        ts = np.diff([pt.T_star for pt in pts])
        assert np.all(ts > 0.0)

    def test_equilibrium_sensitivity(self):
        # dT*/dlambda = 1/b for an ice-sensitive root, by finite differences.
        lam, h = 510.0, 1e-4
        root = mc.select_root(mc.equilibrium_roots(DEFAULT, lam=lam))
        rp = mc.select_root(mc.equilibrium_roots(DEFAULT, lam=lam + h),
                            reference=root.T_star)
        rm = mc.select_root(mc.equilibrium_roots(DEFAULT, lam=lam - h),
                            reference=root.T_star)
        fd = (rp.T_star - rm.T_star) / (2.0 * h)
        assert fd == pytest.approx(1.0 / root.b, rel=1e-4)

    def test_csv_contract(self):
        pts = mc.variance_curve(DEFAULT, [500.0, 510.0])
        csv = mc.variance_curve_csv(pts)
        lines = csv.strip().split("\n")
        assert lines[0] == "lambda,T_star,branch,b,sigma0,sigma1,var_inf"
        assert len(lines) == 3
        assert lines[1].split(",")[2] == mc.BRANCH_ICE


class TestParamsRoundTrip:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            mc.EbmParams(0.7, 0.38, 263, 300, 0, 2, 100, 500, 0.01)
        with pytest.raises(ValueError):
            mc.EbmParams(0.38, 0.7, 300, 263, 0, 2, 100, 500, 0.01)
        with pytest.raises(ValueError):
            mc.EbmParams(0.38, 0.7, 263, 300, 0, -1, 100, 500, 0.01)
        with pytest.raises(ValueError):
            mc.EbmParams(0.38, 0.7, 263, 300, 0, 2, 100, 500, 1.5)
