"""End-to-end acceptance suite.

Each test covers one acceptance criterion at its pinned tolerance and prints
a single PASS/FAIL line; statistical checks use 3-standard-error windows,
deterministic checks use the stated absolute or relative bounds.
"""

import numpy as np
import pytest
from conftest import collect, pooled_moments

from ebmvar import covariance_engine as ce
from ebmvar import model_core as mc
from ebmvar import sde_engine as se
from ebmvar import spatial_model as sm

DEFAULT = mc.default_params()


def _verdict(label, ok, detail):
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _constant_profile_lam(theta, p):
    return p.r0 + p.r1 * theta - p.Q * mc.co_albedo(theta, p)


@pytest.fixture(scope="module")
def grid16_setup():
    """Default ice-sensitive spatial setup with 4x4 interior nodes (d = 16).

    The 8x8 physical domain keeps the fastest grid mode slow enough that the
    Euler-Maruyama stationary bias stays well inside the Monte Carlo
    3-standard-error windows used below.
    """
    g = sm.Grid2D(Lx=8.0, Ly=8.0, Nx=5, Ny=5)
    bd = sm.BoundaryTrace.constant(280.0)
    Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
    lam = _constant_profile_lam(280.0, DEFAULT)
    prof = sm.solve_equilibrium_profile(g, Q_field, lam, bd, DEFAULT)

    def with_kernel(kernel):
        noise = sm.build_noise_covariance(g, kernel, variance=1.0, length=0.5)
        ops = sm.build_operators(g, prof, Q_field, DEFAULT, noise)
        return ops, ce.assemble_vectorised(ops)

    return {"grid": g, "boundary": bd, "Q_field": Q_field, "lam": lam,
            "with_kernel": with_kernel}


def test_criterion_01_ou_stationary_variance():
    """Pooled post-burn-in variance of the fast insolation process, the
    fast-slow system's state column 0, is 1/2."""
    tau = 0.05
    dt = tau / 10.0
    cfg = se.SimConfig(dt=dt, n_steps=int(round(20.0 / dt)), n_paths=2000,
                       seed=101)
    x = collect(se.simulate_fast_slow, mc.default_params(Q=0.0, tau=tau), 0.0,
                280.0, cfg, column=0)
    _, variance, _, se_variance = pooled_moments(x, burn_in_fraction=0.5)
    err = abs(variance - 0.5)
    _verdict("criterion 01 (OU stationary variance = 1/2)",
             err <= 3.0 * se_variance,
             f"variance {variance:.5f}, |err| {err:.2e} "
             f"vs 3 SE {3.0 * se_variance:.2e}")


def test_criterion_02_white_noise_replacement_ladder():
    """Mean-square gap matches the closed form on the tau ladder; the fitted
    tau-scaling slope is 1.0 +/- 0.05."""
    t, x0, Q, n_paths = 2.0, 1.0, 0.0, 10_000
    ladder = (0.2, 0.1, 0.05, 0.025)
    results = se.wong_zakai_ladder(ladder, t, x0, Q, n_paths, seed=202)
    within = [abs(r.mc_estimate - r.exact) <= 3.0 * r.se for r in results]
    slope = float(np.polyfit(np.log([r.tau for r in results]),
                             np.log([r.mc_estimate for r in results]), 1)[0])
    ok = all(within) and abs(slope - 1.0) <= 0.05
    _verdict("criterion 02 (white-noise replacement error, tau ladder)",
             ok, f"within 3 SE {within}, fitted slope {slope:.4f}")


def test_criterion_03_scalar_stationary_variance():
    """MC variance at t = 30/b matches tau*sigma0^2/(2b - tau*sigma1^2) on
    plateau and ice-sensitive parameter sets; the transient variance matches
    the closed form to relative 1e-3 at five checkpoints."""
    root = mc.select_root(mc.equilibrium_roots(DEFAULT))
    param_sets = [
        # plateau: additive noise only
        (2.0, 0.7, 0.0, 0.05),
        # ice-sensitive linearisation at the default equilibrium
        (root.b, root.sigma0, root.sigma1, DEFAULT.tau),
        # ice-sensitive with exaggerated multiplicative feedback
        (0.5, 0.5, 0.3, 0.1),
    ]
    mc_ok, details = [], []
    for k, (b, s0, s1, tau) in enumerate(param_sets):
        target = mc.stationary_variance(b, s0, s1, tau)
        dt = 0.01 / b
        cfg = se.SimConfig(dt=dt, n_steps=3000, n_paths=2000, seed=303 + k)
        final = collect(se.simulate_linear_anomaly, b, s0, s1, tau, 0.0, cfg)[:, -1]
        est = float(np.mean(final**2))
        sem = float(np.std(final**2, ddof=1) / np.sqrt(final.size))
        mc_ok.append(abs(est - target) <= 3.0 * sem)
        details.append(f"set{k}: {est:.3e} vs {target:.3e}")

    # Transient check: RK4 on dV/dt = -(2b - tau s1^2) V + tau s0^2 against
    # the explicit solution V(t) = Var_inf (1 - e^{-(2b - tau s1^2) t}).
    b, s0, s1, tau = param_sets[1]
    a = 2.0 * b - tau * s1**2
    var_inf = mc.stationary_variance(b, s0, s1, tau)
    checkpoints = np.array([0.5, 1.0, 2.0, 5.0, 10.0]) / b
    rel_errs = []
    for t_chk in checkpoints:
        n = 2000
        h = t_chk / n
        v = 0.0
        rhs = lambda x: -a * x + tau * s0**2
        for _ in range(n):
            k1 = rhs(v)
            k2 = rhs(v + 0.5 * h * k1)
            k3 = rhs(v + 0.5 * h * k2)
            k4 = rhs(v + h * k3)
            v += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        exact = var_inf * (1.0 - np.exp(-a * t_chk))
        rel_errs.append(abs(v - exact) / exact)
    transient_ok = max(rel_errs) <= 1e-3
    _verdict("criterion 03 (scalar stationary + transient variance)",
             all(mc_ok) and transient_ok,
             f"MC within 3 SE {mc_ok}; transient max rel err {max(rel_errs):.2e}")


def test_criterion_04_forcing_monotonicity_0d():
    """Stationary variance strictly increasing across a 50-point forcing grid
    inside the ice-sensitive band; flat on plateau grids."""
    ice = mc.variance_curve(DEFAULT, np.linspace(497.0, 523.0, 50))
    in_band = all(DEFAULT.T_l < pt.T_star < DEFAULT.T_u for pt in ice)
    diffs = np.diff([pt.var_inf for pt in ice])
    increasing = bool(np.all(diffs > 0.0)) and diffs.size == 49

    flat = []
    for lo, hi in [(430.0, 480.0), (545.0, 600.0)]:
        pts = mc.variance_curve(DEFAULT, np.linspace(lo, hi, 50))
        flat.append(bool(np.max(np.abs(np.diff([p.var_inf for p in pts])))
                         <= 1e-12))
    _verdict("criterion 04 (0-D forcing monotonicity)",
             in_band and increasing and all(flat),
             f"in band {in_band}, 49 diffs > 0 {increasing}, "
             f"plateaus flat {flat}")


def test_criterion_05_vectorisation():
    """vec of the matrix right-hand side equals K vec(Gamma) + F entrywise to
    1e-12 over 200 random systems with d in 1..5."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 6))
        R = rng.standard_normal((d, d))
        M = R - (np.max(np.abs(np.linalg.eigvals(R))) + 1.0) * np.eye(d)
        B = rng.standard_normal((d, d))
        C = B @ B.T + 0.1 * np.eye(d)
        ops = sm.operators_from_arrays(
            M, 0.2 * rng.standard_normal(d), rng.uniform(0.2, 0.8, d),
            C, tau=0.05)
        vs = ce.assemble_vectorised(ops)
        G = rng.standard_normal((d, d))
        G = G + G.T
        lhs = vs.K @ G.flatten(order="F") + vs.F
        rhs = ce.covariance_rhs(G, ops).flatten(order="F")
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _verdict("criterion 05 (vectorisation identity, 200 systems)",
             worst <= 1e-12, f"worst entrywise defect {worst:.2e}")


def test_criterion_06_stationary_covariance_consistency(grid16_setup):
    """RK4-integrated covariance agrees with the direct stationary solve to
    1e-6 in max norm, and the MC trace (5000 paths) is within 3 SE."""
    ops, vs = grid16_setup["with_kernel"]("exponential")
    target = ce.stationary_covariance(ops)
    state = ce.integrate_covariance(ops, T_end=8.0, dt=5e-3)
    scale = np.max(np.abs(target.gamma))
    rk4_defect = float(np.max(np.abs(state.gamma - target.gamma)))
    rk4_ok = rk4_defect <= 1e-6 * scale

    cfg = se.SimConfig(dt=0.0025, n_steps=3200, n_paths=5000, seed=606)
    blocks = []

    def every_40th(first, states):  # after burn-in: several relaxation times
        steps = np.arange(first, first + states.shape[1])
        blocks.append(states[:, (steps % 40 == 0) & (cfg.dt * steps >= 4.0)])

    sm.simulate_anomaly_field(ops, cfg, sink=every_40th)
    sq = (np.concatenate(blocks, axis=1) ** 2).sum(axis=2)
    per_path = sq.mean(axis=1)
    est = float(per_path.mean())
    sem = float(per_path.std(ddof=1) / np.sqrt(per_path.size))
    trace = target.spatial_variance
    mc_ok = abs(est - trace) <= 3.0 * sem
    _verdict("criterion 06 (stationary covariance: RK4 vs solve vs MC)",
             rk4_ok and mc_ok,
             f"RK4 defect {rk4_defect:.2e} vs {1e-6 * scale:.2e}; "
             f"MC trace {est:.4e} vs {trace:.4e} (3 SE {3 * sem:.2e})")


def test_criterion_07_m_matrix_certificate(grid16_setup):
    """-K is an irreducible Hurwitz Z-matrix with strictly positive inverse
    for both noise kernels at d = 16 (columnwise solves, floor -1e-10)."""
    import scipy.sparse.linalg as spla
    ok, details = True, []
    for kernel in ("identity", "exponential"):
        ops, vs = grid16_setup["with_kernel"](kernel)
        cert = ce.certify(ops)
        inv = spla.splu((-vs.K).tocsc()).solve(np.eye(vs.K.shape[0]))
        col_ok = bool(np.min(inv) >= -1e-10) and bool(np.min(inv) > 0.0)
        flags = (cert.minus_k_is_Z and cert.minus_k_irreducible
                 and cert.k_spectral_abscissa < 0.0
                 and cert.inverse_strictly_positive and col_ok)
        ok = ok and flags
        details.append(f"{kernel}: min inverse entry {np.min(inv):.2e}")
    _verdict("criterion 07 (M-matrix certificate, d = 16)", ok,
             "; ".join(details))


@pytest.mark.parametrize("n_side", [5, 9], ids=["grid-4x4", "grid-8x8"])
def test_criterion_08_spatial_monotonicity(n_side):
    """Every entry of the exact forcing derivative of the stationary
    covariance is positive at five forcing points; the discrete sensitivity
    is positive and matches central differences of the equilibrium profile
    to 1e-4."""
    g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=n_side, Ny=n_side)
    bd = sm.BoundaryTrace.constant(280.0)
    Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
    lam0 = _constant_profile_lam(280.0, DEFAULT)
    noise = sm.build_noise_covariance(g, "exponential", variance=1.0,
                                      length=0.5)
    lams = np.linspace(lam0 - 4.0, lam0 + 4.0, 5)
    points = [ce.monotonicity_sweep(g, Q_field, bd, DEFAULT, noise, lam)
              for lam in lams]
    applicable = all(p.applicable for p in points)
    entrywise = all(p.min_diff_entry > 0.0 for p in points)
    sens_pos = all(p.sensitivity_positive for p in points)
    worst_rel = 0.0
    for p in points:
        h = 1e-4 * max(1.0, abs(p.lam))
        lo = sm.solve_equilibrium_profile(g, Q_field, p.lam - h, bd, DEFAULT)
        hi = sm.solve_equilibrium_profile(g, Q_field, p.lam + h, bd, DEFAULT)
        fd_u = (hi.values - lo.values) / (2.0 * h)
        prof = sm.solve_equilibrium_profile(g, Q_field, p.lam, bd, DEFAULT)
        u = ce.profile_sensitivity(sm.build_operators(g, prof, Q_field,
                                                      DEFAULT, noise))
        rel = np.max(np.abs(u - fd_u) / np.abs(u))
        worst_rel = max(worst_rel, float(rel))
    ok = applicable and entrywise and sens_pos and worst_rel <= 1e-4
    _verdict(f"criterion 08 (spatial monotonicity, {n_side - 1}x{n_side - 1} interior)",
             ok,
             f"applicable {applicable}, dGamma > 0 {entrywise}, "
             f"u > 0 {sens_pos}, sensitivity rel err {worst_rel:.2e}")


def test_criterion_09_negative_correlation_counterexample():
    """Closed-form trace matches the Lyapunov solve to 1e-10 over 100 random
    triples; the derivative sign change sits at lambda = c*s within 1e-8; the
    trace strictly decreases on [0, 0.35] for (s, c) = (0.5, 0.8)."""
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(100):
        s = float(rng.uniform(0.05, 0.95))
        c = float(rng.uniform(0.05, 0.95))
        lam = float(rng.uniform(0.0, 3.0))
        r = ce.counterexample_trace(s, c, lam)
        worst = max(worst, abs(r.numeric_trace - r.trace))
    match_ok = worst <= 1e-10

    s, c = 0.5, 0.8
    root = ce.counterexample_sign_change(s, c, tol=1e-9)
    root_ok = abs(root - c * s) <= 1e-8

    traces = [ce.counterexample_trace(s, c, lam).numeric_trace
              for lam in np.linspace(0.0, 0.35, 15)]
    decreasing = all(a > b for a, b in zip(traces, traces[1:]))
    _verdict("criterion 09 (negative-correlation counterexample)",
             match_ok and root_ok and decreasing,
             f"worst closed-vs-solver gap {worst:.2e}; sign change at "
             f"{root:.10f} (target {c * s}); decreasing {decreasing}")


def test_criterion_10_markov_exceedance_bound(grid16_setup):
    """Empirical stationary exceedance of max_i |Y_i| never beats the
    second-moment bound Var_sp/theta^2 by more than 3 SE."""
    ops, vs = grid16_setup["with_kernel"]("exponential")
    var_sp = ce.stationary_covariance(ops).spatial_variance
    d = ops.d

    cfg = se.SimConfig(dt=0.005, n_steps=1200, n_paths=2000, seed=1010)
    final = np.empty((cfg.n_paths, d))  # one stationary snapshot per path

    def last(first, states):
        final[:] = states[:, -1]

    sm.simulate_anomaly_field(ops, cfg, sink=last)
    ok, details = True, []
    for mult in (1.0, 2.0, 4.0):
        theta = mult * np.sqrt(var_sp / d)
        bound = ce.markov_bound(var_sp, theta)
        freq = float(np.mean(np.max(np.abs(final), axis=1) > theta))
        sem = float(np.sqrt(max(freq * (1.0 - freq), 1.0 / final.shape[0])
                            / final.shape[0]))
        ok = ok and (freq <= bound + 3.0 * sem)
        details.append(f"theta = {mult:g}sqrt(V/d): freq {freq:.3f} "
                       f"<= bound {bound:.3f} + {3 * sem:.3f}")
    _verdict("criterion 10 (exceedance bound, d = 16)", ok,
             "; ".join(details))
