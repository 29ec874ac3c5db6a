import dataclasses
import sys
import threading
import time

import numpy as np
import pytest
from conftest import collect, dump_bytes, pooled_moments

from ebmvar import model_core as mc
from ebmvar import sde_engine as se
from ebmvar import spatial_model as sm
from ebmvar.errors import ConfigError, StepTooLarge

DEFAULT = mc.default_params()


@pytest.fixture
def no_noise(monkeypatch):
    """Every simulator's normals drawn as zeros: its noise off."""
    def zeros(streams, n, columns=1, out=None):
        out[:, :n] = 0.0
        return out[:, :n]

    monkeypatch.setattr(se, "gaussian_increments", zeros)


def _assert_within_4_ulp(got, expected):
    assert abs(got - expected) <= 4 * np.spacing(abs(expected))


class TestSimConfig:
    def test_defaults(self):
        cfg = se.SimConfig(dt=0.01, n_steps=10, n_paths=2)
        assert cfg.scheme == "euler-maruyama"
        assert cfg.drift_form == "ito"

    @pytest.mark.parametrize("kw", [
        {"dt": 0.0}, {"n_steps": 0}, {"n_paths": 0},
        {"scheme": "heun"}, {"drift_form": "bogus"},
        {"dt": float("nan")}, {"dt": float("inf")},
        # The path dump's header stores the seed as an int64.
        {"seed": 2**63}, {"seed": -2**63 - 1}, {"seed": 2**64},
    ])
    def test_rejects_bad_values(self, kw):
        base = {"dt": 0.01, "n_steps": 10, "n_paths": 2}
        base.update(kw)
        with pytest.raises(ValueError):
            se.SimConfig(**base)


class TestPathBundle:
    def test_binary_header(self, run_cli):
        out = run_cli(DEFAULT, {"sim": {"dt": 0.1, "n_steps": 1, "n_paths": 2,
                                        "seed": 6}},
                      "simulate", "--which", "reduced")
        b = se.PathBundle.from_binary((out / "reduced_paths.bin").read_bytes())
        assert b.values.shape == (2, 2) and b.seed == 6
        assert b.times[0] == 0.0

    def test_binary_round_trip_scalar(self):
        times = np.linspace(0, 1, 5)
        values = np.random.default_rng(1).standard_normal((3, 5))
        r = se.PathBundle.from_binary(dump_bytes(times, values, seed=7))
        np.testing.assert_array_equal(r.times, times)
        np.testing.assert_array_equal(r.values, values)
        assert r.seed == 7

    def test_binary_round_trip_vector(self):
        values = np.random.default_rng(2).standard_normal((2, 4, 3))
        blob = dump_bytes(np.linspace(0, 1, 4), values)
        r = se.PathBundle.from_binary(blob)
        np.testing.assert_array_equal(r.values, values)
        # Read back without a copy: the arrays are views of the dump.
        raw = np.frombuffer(blob, dtype=np.uint8)
        assert np.shares_memory(r.values, raw) and np.shares_memory(r.times, raw)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            se.PathBundle.from_binary(b"XXXXXXXX" + b"\0" * 64)

    @pytest.mark.parametrize("cut, match", [
        (slice(0, 20), "40-byte header, got 20 bytes"),
        (slice(0, 0), "40-byte header, got 0 bytes"),
        (slice(0, -8), "2 x 2 x 0 is 88 bytes, got 80"),
        (slice(0, 40), "2 x 2 x 0 is 88 bytes, got 40"),
    ], ids=["short-header", "empty", "short-values", "header-only"])
    def test_a_cut_dump_is_refused(self, cut, match):
        blob = dump_bytes([0.0, 1.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match=match):
            se.PathBundle.from_binary(blob[cut])

    def test_trailing_bytes_are_refused(self):
        blob = dump_bytes([0.0, 1.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="is 88 bytes, got 112"):
            se.PathBundle.from_binary(blob + b"\0" * 24)

    @pytest.mark.parametrize("shape", [(-1, 2, 0), (2, -1, 0), (2, 2, -3)],
                             ids=["n_paths", "n_times", "d"])
    def test_a_negative_shape_is_refused(self, shape):
        blob = se.binary_header(*shape, 0) + b"\0" * 48
        with pytest.raises(ValueError, match="shape n_paths = "
                           f"{shape[0]}, n_times = {shape[1]}, d = {shape[2]}"):
            se.PathBundle.from_binary(blob)

    def test_inconsistent_shapes(self):
        with pytest.raises(ValueError):
            se.PathBundle(times=[0.0, 1.0], values=np.zeros((2, 3)))


def _streams(seed, path_indices):
    return [se.path_generator(seed, k) for k in path_indices]


class TestRandomness:
    def test_reproducible(self):
        a = se.gaussian_increments(_streams(42, range(4)), 16)
        b = se.gaussian_increments(_streams(42, range(4)), 16)
        np.testing.assert_array_equal(a, b)

    def test_path_permutation_invariance(self):
        """Path k's stream depends only on (seed, k), not on batch layout."""
        full = se.gaussian_increments(_streams(42, range(6)), 8)
        scattered = se.gaussian_increments(_streams(42, [5, 2]), 8)
        np.testing.assert_array_equal(scattered[0], full[5])
        np.testing.assert_array_equal(scattered[1], full[2])

    def test_seed_changes_stream(self):
        a = se.gaussian_increments(_streams(1, [0]), 8)
        b = se.gaussian_increments(_streams(2, [0]), 8)
        assert not np.array_equal(a, b)

    def test_rekeyed_streams_are_the_path_generators(self):
        """path_streams' one re-keyed Philox draws what a generator built
        per path draws, bit for bit, at a size where the ziggurat rejects
        some draws and so takes more than one word a normal."""
        n_paths, seed = 4000, 0
        streams = [se.path_generator(seed, k) for k in range(n_paths)]
        expected = se.gaussian_increments(streams, 4)
        rejected = sum(s.bit_generator.state["state"]["counter"][0] > 1
                       for s in streams)
        assert rejected > 0
        got = se.gaussian_increments(se.path_streams(seed, n_paths), 4, 1,
                                     np.empty((n_paths, 4, 1)))
        np.testing.assert_array_equal(got, expected)

    def test_draws_in_pieces_are_the_draws_at_once(self):
        """Blocks of 1-3 steps into one reused buffer continue each stream."""
        full = se.gaussian_increments(_streams(42, range(3)), 10, columns=4)
        for block in (1, 2, 3):
            streams = _streams(42, range(3))
            buf = np.empty((3, block, 4))
            pieces = [se.gaussian_increments(streams, min(block, 10 - lo), 4,
                                             out=buf).copy()
                      for lo in range(0, 10, block)]
            np.testing.assert_array_equal(np.concatenate(pieces, axis=1), full)


def insolation(tau, Q, x0, cfg):
    """The fast insolation paths of the fast-slow system with the model's
    tau and Q set: its state's column 0, which the temperature never feeds."""
    p = mc.default_params(Q=Q, tau=tau)
    return collect(se.simulate_fast_slow, p, x0, 280.0, cfg, column=0)


class TestSimulateOU:
    def test_deterministic_decay(self, no_noise):
        tau, Q, x0 = 0.5, 3.0, 5.0
        cfg = se.SimConfig(dt=0.05, n_steps=40, n_paths=1)
        expected = Q + (x0 - Q) * np.exp(-se.kept_times(cfg) / tau)
        np.testing.assert_allclose(insolation(tau, Q, x0, cfg)[0], expected,
                                   rtol=1e-12)

    def test_stationary_variance_half(self):
        tau = 0.05
        cfg = se.SimConfig(dt=tau / 10.0, n_steps=2000, n_paths=400, seed=3)
        _, variance, _, se_variance = pooled_moments(
            insolation(tau, 0.0, 0.0, cfg), burn_in_fraction=0.5)
        assert abs(variance - 0.5) <= 4.0 * se_variance

    def test_exact_one_step_distribution(self):
        """One exact transition step reproduces the conditional law."""
        tau, Q, x0 = 0.1, 2.0, 5.0
        cfg = se.SimConfig(dt=0.03, n_steps=1, n_paths=20000, seed=11)
        x1 = insolation(tau, Q, x0, cfg)[:, 1]
        mean = Q + (x0 - Q) * np.exp(-cfg.dt / tau)
        var = 0.5 * (1.0 - np.exp(-2.0 * cfg.dt / tau))
        assert np.mean(x1) == pytest.approx(mean, abs=4.0 * np.sqrt(var / cfg.n_paths))
        assert np.var(x1, ddof=1) == pytest.approx(var, rel=0.05)


class TestFastSlow:
    def test_quiescent_equilibrium(self, no_noise):
        """With the noise off and X started at Q, an equilibrium root is a
        fixed point of the coupled update."""
        root = mc.select_root(mc.equilibrium_roots(DEFAULT))
        cfg = se.SimConfig(dt=1e-3, n_steps=200, n_paths=1)
        paths = collect(se.simulate_fast_slow, DEFAULT, DEFAULT.Q, root.T_star, cfg)
        np.testing.assert_allclose(paths[0, :, 0], DEFAULT.Q, rtol=1e-12)
        np.testing.assert_allclose(paths[0, :, 1], root.T_star, rtol=1e-12)

    def test_step_guard(self):
        cfg = se.SimConfig(dt=1.0, n_steps=1, n_paths=1)
        with pytest.raises(StepTooLarge):
            collect(se.simulate_fast_slow, DEFAULT, DEFAULT.Q, 280.0, cfg)

    def test_fast_path_is_the_ou_path(self):
        """The insolation column is the OU step's run alone, bit for bit."""
        cfg = se.SimConfig(dt=1e-3, n_steps=30, n_paths=5, seed=8)
        fast = collect(se.simulate_fast_slow, DEFAULT, DEFAULT.Q + 0.5, 280.0, cfg,
                       column=0)
        ou = collect(se._run_paths, cfg, DEFAULT.Q + 0.5,
                     se._ou_step(DEFAULT.tau, DEFAULT.Q, cfg.dt))
        np.testing.assert_array_equal(fast, ou)


class TestWongZakai:
    def test_exact_limits(self):
        # Started at the insolation mean, the gap at late time is tau/2.
        tau = 0.04
        assert se.wong_zakai_exact(tau, 50.0, 1.0, 1.0) == pytest.approx(tau / 2.0)
        # At t = 0 there is no gap.
        assert se.wong_zakai_exact(tau, 0.0, 3.0, 1.0) == 0.0

    def test_exact_formula_structure(self):
        tau, t, x0, Q = 0.1, 0.7, 2.5, 1.0
        expected = (tau * (1 - np.exp(-t / tau)) ** 2 * (x0 - Q) ** 2
                    + 0.5 * tau * (1 - np.exp(-2 * t / tau)))
        assert se.wong_zakai_exact(tau, t, x0, Q) == expected

    def test_mc_matches_exact(self):
        res = se.wong_zakai_error(tau=0.1, t=1.0, x0=1.0, Q=0.0,
                                  n_paths=2000, seed=5)
        assert abs(res.mc_estimate - res.exact) <= 4.0 * res.se

    def test_invalid_arguments(self):
        """Non-positive or non-finite t and tau, non-finite x0 and Q, and a
        t whose step count no array can hold are refused."""
        for kw in ({"tau": -0.1}, {"tau": float("nan")}, {"tau": float("inf")},
                   {"t": 0.0}, {"t": float("inf")}, {"t": 1e300},
                   {"x0": float("nan")}, {"Q": float("-inf")}):
            args = {"tau": 0.1, "t": 1.0, "x0": 0.0, "Q": 0.0, **kw}
            with pytest.raises(ValueError):
                se.wong_zakai_error(n_paths=10, **args)
        with pytest.raises(ValueError):
            se.wong_zakai_ladder([0.1, 0.0], t=1.0, x0=0.0, Q=0.0, n_paths=10)

    @pytest.mark.parametrize("tau,t", [(0.5, 1.0), (0.025, 2.0)],
                             ids=["1000-step-floor", "t-over-tau-80"])
    def test_unit_impulse_is_one_weight(self, tau, t):
        """The Euler/trapezoid loop fed xi = e_j gives c0 + V[j], and fed no
        noise c0: the ladder's linear functional is the loop's estimator."""
        x0, Q = 1.5, 0.3
        V, c0 = se._wz_functional([tau], t, x0, Q)
        n = V.shape[0]
        assert n == max(1000, int(np.ceil(200 * t / tau)))
        picks = [0, 1, n // 2, n - 2, n - 1]
        impulses = np.zeros((len(picks), n))
        impulses[np.arange(len(picks)), picks] = 1.0
        gaps = _euler_gaps(impulses, tau, t, x0, Q)
        np.testing.assert_allclose(gaps, c0[0] + V[picks, 0], rtol=1e-13, atol=0)
        assert _euler_gaps(np.zeros((1, n)), tau, t, x0, Q)[0] == pytest.approx(
            c0[0], rel=1e-13, abs=0)

    def test_refuses_fewer_than_two_paths(self):
        """A standard error needs two paths; fewer are refused, not reported
        as NaN."""
        for n_paths in (0, 1):
            with pytest.raises(ValueError, match="n_paths"):
                se.wong_zakai_ladder([0.1], 1.0, 1.0, 0.0, n_paths=n_paths)

    @pytest.mark.parametrize("taus", [(0.1, 0.4, 0.025, 0.2), (0.4, 0.2, 0.4)],
                             ids=["full-rank", "repeated-tau"])
    def test_triangular_factor_of_the_gap_covariance(self, taus):
        """Householder QR of V gives R^T R = V^T V to 1e-13 of its largest
        entry, also when a repeated tau makes V rank-deficient."""
        V, _ = se._wz_functional(taus, 1.0, 1.5, 0.3)
        R = np.linalg.qr(V, mode="r")
        assert R.shape == (len(taus), len(taus))
        gram = V.T @ V
        np.testing.assert_allclose(R.T @ R, gram, rtol=0,
                                   atol=1e-13 * np.max(np.abs(gram)))

    def test_ladder_is_c0_plus_eta_R(self):
        """Each path's gaps are c0 + eta R, eta the first R.shape[0] normals
        of the path's own stream."""
        taus, t, x0, Q, n_paths, seed = (0.1, 0.4, 0.025, 0.2), 1.0, 1.5, 0.3, 50, 9
        V, c0 = se._wz_functional(taus, t, x0, Q)
        R = np.linalg.qr(V, mode="r")
        eta = np.array([se.path_generator(seed, k).standard_normal(R.shape[0])
                        for k in range(n_paths)])
        sq = (c0 + eta @ R) ** 2
        got = se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
        np.testing.assert_allclose([r.mc_estimate for r in got], sq.mean(axis=0),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose([r.se for r in got],
                                   sq.std(axis=0, ddof=1) / np.sqrt(n_paths),
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("per_batch", [1, 2, None])
    def test_ladder_rungs_are_the_single_rung_loop(self, monkeypatch, per_batch):
        """On seeds 9-11, each rung's estimate lies within 3 combined SE of
        the loop that steps that tau alone on each path's first n normals,
        and the ladder is the same bit for bit whatever the draw budget."""
        taus, t, x0, Q, n_paths = (0.1, 0.4, 0.025, 0.2), 1.0, 1.5, 0.3, 500
        unbatched = [se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
                     for seed in (9, 10, 11)]
        if per_batch is not None:
            monkeypatch.setattr(se, "_DRAW_NORMALS", per_batch * 8000)
        for seed, expected in zip((9, 10, 11), unbatched):
            got = se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
            assert got == expected, seed
            for r, tau in zip(got, taus):
                loop = _wong_zakai_one_rung(tau, t, x0, Q, n_paths, seed)
                assert abs(r.mc_estimate - loop.mc_estimate) <= 3.0 * np.hypot(
                    r.se, loop.se), (seed, tau)
                assert (r.exact, r.tau, r.t) == (loop.exact, loop.tau, loop.t)

    def test_rungs_match_the_scheme_second_moment(self):
        """Each rung's estimate lies within 3 SE of the scheme's exact second
        moment c0^2 + |V[:, r]|^2, and that moment lies within 1% of the
        closed form: the discretisation bias is below 1%."""
        taus, t, x0, Q = (0.2, 0.1, 0.05, 0.025), 2.0, 1.0, 0.0
        V, c0 = se._wz_functional(taus, t, x0, Q)
        moment = c0**2 + np.sum(V**2, axis=0)
        got = se.wong_zakai_ladder(taus, t, x0, Q, 4000, seed=0)
        for r, m in zip(got, moment):
            assert abs(r.mc_estimate - m) <= 3.0 * r.se, r.tau
            assert m == pytest.approx(r.exact, rel=0.01)

    def test_rung_order_and_equal_length_rungs(self):
        """A repeated tau gives equal rungs to rounding; rung 0 of a ladder,
        like a one-rung ladder, is `wong_zakai_error` at its tau bit for bit,
        and reruns repeat bit for bit."""
        taus, t, x0, Q, n_paths, seed = (0.4, 0.2, 0.4), 1.0, 1.5, 0.3, 6, 4
        got = se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
        assert got == se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
        np.testing.assert_allclose([got[2].mc_estimate, got[2].se],
                                   [got[0].mc_estimate, got[0].se],
                                   rtol=1e-12, atol=0)
        assert (got[2].exact, got[2].tau) == (got[0].exact, got[0].tau)
        for tau in taus:
            alone = se.wong_zakai_error(tau, t, x0, Q, n_paths, seed)
            assert alone == se.wong_zakai_ladder([tau], t, x0, Q, n_paths, seed)[0]
            assert alone == se.wong_zakai_ladder((tau, *taus), t, x0, Q,
                                                 n_paths, seed)[0]


def _euler_gaps(xi, tau, t, x0, Q):
    """The gap tau^-1/2 I_n - W_n of each row of normals `xi`, shape
    (paths, n): Euler steps for x and trapezoid steps for the integral, the
    stepped reference for the ladder's linear functional."""
    n_steps = xi.shape[1]
    h = t / n_steps
    sqrt_h = np.sqrt(h)
    inv_sqrt_tau = 1.0 / np.sqrt(tau)
    x = np.full(xi.shape[0], float(x0))
    W = np.zeros(xi.shape[0])
    integral = np.zeros(xi.shape[0])
    for k in range(n_steps):
        dW = sqrt_h * xi[:, k]
        x_new = x + (h / tau) * (Q - x) + inv_sqrt_tau * dW
        integral += 0.5 * h * ((x - Q) + (x_new - Q))
        W += dW
        x = x_new
    return inv_sqrt_tau * integral - W


def _wong_zakai_one_rung(tau, t, x0, Q, n_paths, seed):
    """One rung by the loop: each path's normals drawn at once from its
    stream, then stepped on their own."""
    n_steps = max(1000, int(np.ceil(200 * t / tau)))
    xi = np.array([se.path_generator(seed, k).standard_normal(n_steps)
                   for k in range(n_paths)])
    sq = _euler_gaps(xi, tau, t, x0, Q) ** 2
    return se.WongZakaiResult(
        mc_estimate=float(np.mean(sq)),
        exact=float(se.wong_zakai_exact(tau, t, x0, Q)),
        se=float(np.std(sq, ddof=1) / np.sqrt(n_paths)), tau=tau, t=t)


class TestReducedSde:
    def test_deterministic_relaxation(self, no_noise):
        """Noise off, Ito drift: explicit Euler converges to the stable root."""
        root = mc.select_root(mc.equilibrium_roots(DEFAULT))
        cfg = se.SimConfig(dt=1e-3, n_steps=20000, n_paths=1)
        b = collect(se.simulate_reduced_sde, DEFAULT, root.T_star + 2.0, cfg)
        assert b[0, -1] == pytest.approx(root.T_star, abs=1e-8)

    def test_stratonovich_correction_shifts_drift(self, no_noise):
        cfg = se.SimConfig(dt=1e-3, n_steps=1, n_paths=1,
                           drift_form="stratonovich-corrected")
        cfg0 = se.SimConfig(dt=1e-3, n_steps=1, n_paths=1)
        T0 = 280.0
        b1 = collect(se.simulate_reduced_sde, DEFAULT, T0, cfg)
        b0 = collect(se.simulate_reduced_sde, DEFAULT, T0, cfg0)
        beta = mc.co_albedo(T0, DEFAULT)
        expected = cfg.dt * 0.5 * DEFAULT.tau * beta * DEFAULT.slope
        assert b1[0, 1] - b0[0, 1] == pytest.approx(expected)

    def test_milstein_step_without_noise(self, no_noise):
        """With zero draws one Milstein step is the Euler step plus
        -(1/2) tau beta beta' h: about 6e-9 at T0 = 280 K, so the states,
        not their difference, are compared."""
        T0, kw = 280.0, dict(dt=1e-3, n_steps=1, n_paths=1)
        em = collect(se.simulate_reduced_sde, DEFAULT, T0, se.SimConfig(**kw))
        mi = collect(se.simulate_reduced_sde, DEFAULT, T0,
                     se.SimConfig(scheme="milstein", **kw))
        term = (-0.5 * DEFAULT.tau * mc.co_albedo(T0, DEFAULT)
                * mc.co_albedo_slope(T0, DEFAULT) * kw["dt"])
        _assert_within_4_ulp(mi[0, 1], em[0, 1] + term)


class TestLinearAnomaly:
    def test_deterministic_decay(self, no_noise):
        b_rate, y0 = 1.5, 2.0
        cfg = se.SimConfig(dt=1e-4, n_steps=10000, n_paths=1)
        b = collect(se.simulate_linear_anomaly, b_rate, 0.5, 0.01, 0.01, y0, cfg)
        expected = y0 * np.exp(-b_rate * se.kept_times(cfg)[-1])
        assert b[0, -1] == pytest.approx(expected, rel=1e-3)

    def test_milstein_step_without_noise(self, no_noise):
        """With zero draws one Milstein step is the Euler step plus
        -(1/2) tau sigma1 (sigma0 + sigma1 y0) h."""
        b_rate, sigma0, sigma1, tau, y0 = 1.0, 0.5, 0.3, 0.1, 0.2
        kw = dict(dt=1e-3, n_steps=1, n_paths=1)
        em, mi = (collect(se.simulate_linear_anomaly, b_rate, sigma0, sigma1, tau,
                          y0, se.SimConfig(scheme=scheme, **kw))
                  for scheme in ("euler-maruyama", "milstein"))
        term = -0.5 * tau * sigma1 * (sigma0 + sigma1 * y0) * kw["dt"]
        _assert_within_4_ulp(mi[0, 1], em[0, 1] + term)

    def test_stationary_variance(self):
        b_rate, sigma0, sigma1, tau = 1.0, 0.5, 0.0086486, 1.0 / 365.0
        target = mc.stationary_variance(b_rate, sigma0, sigma1, tau)
        cfg = se.SimConfig(dt=0.01, n_steps=3000, n_paths=500, seed=9)
        _, variance, _, se_variance = pooled_moments(collect(
            se.simulate_linear_anomaly, b_rate, sigma0, sigma1, tau, 0.0, cfg),
            burn_in_fraction=0.5)
        assert abs(variance - target) <= 4.0 * se_variance

    def test_step_guard(self):
        cfg = se.SimConfig(dt=2.0, n_steps=1, n_paths=1)
        with pytest.raises(StepTooLarge):
            collect(se.simulate_linear_anomaly, 1.0, 0.5, 0.0, 0.01, 0.0, cfg)


class TestPathMoments:
    def test_per_time_statistics(self):
        mean, variance, _, _ = se.path_moments(np.array([[0.0, 2.0], [2.0, 4.0]]))
        np.testing.assert_allclose(mean, [1.0, 3.0])
        np.testing.assert_allclose(variance, [2.0, 2.0])

    @pytest.mark.parametrize("n_paths", [1, 2, 9, 150])
    def test_per_time_statistics_are_numpys(self, n_paths):
        """path_moments' per-time statistics are numpy's mean and var(ddof=1)
        over axis 0 bit for bit, on the whole array and on any block of its
        columns, one column included: there numpy would add pairwise.
        Column 0 holds one state on every path, as the initial state of a
        run does."""
        values = np.random.default_rng(n_paths).standard_normal((n_paths, 7))
        values += 280.0
        values[:, 0] = 280.1
        mean = values.mean(axis=0)
        if n_paths > 1:
            var = values.var(axis=0, ddof=1)
            expected = (mean, var, np.sqrt(var / n_paths),
                        var * np.sqrt(2.0 / (n_paths - 1)))
        else:
            expected = (mean, np.zeros(7), np.full(7, np.nan), np.full(7, np.nan))
        for lo, hi in [(0, 7), (0, 1), (0, 3), (3, 6), (6, 7)]:
            for got, want in zip(se.path_moments(values[:, lo:hi]), expected):
                np.testing.assert_array_equal(got, want[lo:hi])


def _field_operators(n, kernel):
    """Anomaly-field operators on an n x n grid, d = (n-1)^2."""
    theta = 280.0
    g = sm.Grid2D(Lx=1.0, Ly=1.0, Nx=n, Ny=n)
    Q_field = sm.SpatialField.constant(g, DEFAULT.Q)
    lam = DEFAULT.r0 + DEFAULT.r1 * theta - DEFAULT.Q * mc.co_albedo(theta, DEFAULT)
    prof = sm.solve_equilibrium_profile(g, Q_field, lam,
                                        sm.BoundaryTrace.constant(theta), DEFAULT)
    noise = sm.build_noise_covariance(g, kernel, variance=1.0, length=0.5)
    return sm.build_operators(g, prof, Q_field, DEFAULT, noise)


def _ou_run(cfg):
    """The kernel's run of the OU step alone from 2.0, tau = 0.05, Q = 1."""
    return collect(se._run_paths, cfg, 2.0, se._ou_step(0.05, 1.0, cfg.dt))


def _runs():
    """(run, n_paths, n_steps, normals per step) for every simulator, where
    run(n) simulates n paths, n_paths by default; a Wong-Zakai run takes one
    step a rung, drawing one normal a path each."""
    root = mc.select_root(mc.equilibrium_roots(DEFAULT))
    n_paths, n_steps = 7, 40
    cfg = se.SimConfig(dt=1e-3, n_steps=n_steps, n_paths=n_paths, seed=12)
    strat = dataclasses.replace(cfg, scheme="milstein",
                                drift_form="stratonovich-corrected")
    field_cfg = dataclasses.replace(cfg, dt=2e-4)
    ops1 = sm.operators_from_arrays([[-2.0]], [0.3], [0.5], [[1.0]], tau=0.05)
    # Identity noise: the dW @ L^T product is then exact, whatever the row
    # count of the matrix product (see test_dense_noise_factor_batches).
    ops16 = _field_operators(5, "identity")
    ops64 = _field_operators(9, "identity")

    def paths(c, n):
        return dataclasses.replace(c, n_paths=n)

    return {
        "ou": (lambda n=n_paths: _ou_run(paths(cfg, n)), n_paths, n_steps, 1),
        "fast-slow": (lambda n=n_paths: collect(
            se.simulate_fast_slow, DEFAULT, DEFAULT.Q, root.T_star, paths(cfg, n)),
            n_paths, n_steps, 1),
        "reduced": (lambda n=n_paths: collect(
            se.simulate_reduced_sde, DEFAULT, root.T_star + 2.0, paths(cfg, n)),
            n_paths, n_steps, 1),
        "reduced-milstein-stratonovich": (lambda n=n_paths: collect(
            se.simulate_reduced_sde, DEFAULT, root.T_star + 2.0, paths(strat, n)),
            n_paths, n_steps, 1),
        "linear-anomaly-milstein": (lambda n=n_paths: collect(
            se.simulate_linear_anomaly, 1.0, 0.5, 0.3, 0.1, 0.2, paths(strat, n)),
            n_paths, n_steps, 1),
        "wong-zakai": (lambda n=n_paths: np.array(dataclasses.astuple(
            se.wong_zakai_error(0.1, 0.5, 1.0, 0.0, n_paths=n, seed=3))),
            n_paths, 1, 1),
        "wong-zakai-ladder": (lambda n=n_paths: np.array([
            dataclasses.astuple(r) for r in se.wong_zakai_ladder(
                (0.1, 0.025), 0.5, 1.0, 0.0, n_paths=n, seed=3)]),
            n_paths, 2, 1),
        "field-d1": (lambda n=n_paths: collect(
            sm.simulate_anomaly_field, ops1, paths(field_cfg, n)),
            n_paths, n_steps, 1),
        "field-d16": (lambda n=n_paths: collect(
            sm.simulate_anomaly_field, ops16, paths(field_cfg, n)),
            n_paths, n_steps, 16),
        "field-d64": (lambda n=n_paths: collect(
            sm.simulate_anomaly_field, ops64, paths(field_cfg, n)),
            n_paths, n_steps, 64),
    }


RUNS = _runs()


def _dense_field_run():
    ops = _field_operators(5, "exponential")
    cfg = se.SimConfig(dt=2e-4, n_steps=40, n_paths=7, seed=12)
    return (lambda n=7: collect(sm.simulate_anomaly_field, ops,
                                dataclasses.replace(cfg, n_paths=n)),
            7, 40, ops.d)


def _chunked_field_run():
    ops = _field_operators(5, "exponential")
    cfg = se.SimConfig(dt=2e-4, n_steps=40, n_paths=150, seed=12)
    return (lambda: collect(sm.simulate_anomaly_field, ops, cfg), 150, 40, ops.d)


# A dense noise factor: the BLAS product dW @ L^T rounds by its row count.
# The 150-path run's blocks are three chunks of streams, the last ragged
# (64, 64 and 22 streams), which the two drawing threads share.
DRAW_RUNS = {**RUNS, "field-d16-dense": _dense_field_run(),
             "field-d16-150-paths": _chunked_field_run()}

# The Wong-Zakai runs draw their few normals a path in one call, outside the
# kernel's draw blocks whose budgets the budget test checks.
BUDGET_RUNS = {name: run for name, run in DRAW_RUNS.items()
               if not name.startswith("wong-zakai")}



def _recording_draws(monkeypatch):
    """Replace gaussian_increments by one that also keeps a copy of each
    draw and the `out` it filled, in the order the calls end on any thread;
    returns the (draws, outs) lists."""
    draws, outs = [], []
    draw = se.gaussian_increments
    lock = threading.Lock()

    def recording(streams, n, columns=1, out=None):
        got = draw(streams, n, columns, out)
        with lock:
            draws.append(got.copy())
            outs.append(out)
        return got

    monkeypatch.setattr(se, "gaussian_increments", recording)
    return draws, outs


def _draws_by_path(draws, outs, n_paths):
    """The recorded draws as one array, shape (n_paths, steps, width): each
    call's rows go to the paths at their place in its buffer, in the order
    the calls end, which is block order for each path."""
    rows = [[] for _ in range(n_paths)]
    for got, out in zip(draws, outs):
        lo = 0
        if out is not None and out.base is not None:
            lo = (out.ctypes.data - out.base.ctypes.data) // out.base.strides[0]
        for i, row in enumerate(got):
            rows[lo + i].append(row)
    return np.array([np.concatenate(r) for r in rows])


class _InlineThread:
    """threading.Thread's start/join, with the target run inside start()."""

    def __init__(self, target, args=()):
        self.target, self.args = target, args

    def start(self):
        self.target(*self.args)

    def join(self):
        pass


class TestPathKernel:
    @pytest.mark.parametrize("per_batch", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_batch_layout_invariance(self, monkeypatch, name, per_batch):
        """A path does not depend on the paths run beside it: a run of
        per_batch + 1 paths draws the first per_batch + 1 paths' normals of
        the default run, and gives their trajectories, bit for bit where the
        step acts on each row alone and to rounding where a d > 1 field's
        BLAS products round by their row count."""
        run, n_paths, _, _ = RUNS[name]
        draws, outs = _recording_draws(monkeypatch)
        expected = run()
        full = _draws_by_path(draws, outs, n_paths)
        draws.clear()
        outs.clear()
        n = per_batch + 1
        got = run(n)
        np.testing.assert_array_equal(_draws_by_path(draws, outs, n), full[:n])
        if name.startswith("wong-zakai"):  # ensemble statistics: no path axis
            return
        head = expected[:n]
        if name.startswith("field") and name != "field-d1":
            np.testing.assert_allclose(got, head, rtol=1e-12, atol=1e-15)
        else:
            np.testing.assert_array_equal(got, head)

    @pytest.mark.parametrize("per_draw", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DRAW_RUNS))
    def test_draw_block_invariance(self, monkeypatch, name, per_draw):
        """Drawing 1-3 steps at a time gives the default run bit for bit."""
        run, n_paths, _, width = DRAW_RUNS[name]
        expected = run()
        monkeypatch.setattr(se, "_DRAW_NORMALS", per_draw * n_paths * width)
        np.testing.assert_array_equal(run(), expected)

    @pytest.mark.parametrize("name", sorted(DRAW_RUNS))
    def test_inline_draws_are_the_threaded_draws(self, monkeypatch, name):
        """Drawing each block on the stepping thread, inside start(), gives
        the threaded run bit for bit: no result depends on thread timing."""
        run, _, _, _ = DRAW_RUNS[name]
        expected = run()
        monkeypatch.setattr(se, "Thread", _InlineThread)
        np.testing.assert_array_equal(run(), expected)

    @pytest.mark.parametrize("name", sorted(DRAW_RUNS))
    def test_stepping_thread_draws_are_the_threaded_draws(self, monkeypatch,
                                                          name):
        """A helper that takes no chunk leaves every chunk of every block to
        the stepping thread, which gives the threaded run bit for bit."""
        run, _, _, _ = DRAW_RUNS[name]
        expected = run()
        draw_chunks = se.draw_chunks

        def idle_helper(streams, out, cursor, started=None):
            if started is None:  # the stepping thread's share
                draw_chunks(streams, out, cursor)
            else:
                started.set()

        monkeypatch.setattr(se, "draw_chunks", idle_helper)
        np.testing.assert_array_equal(run(), expected)

    @pytest.mark.parametrize("name", ["ou", "field-d16-dense",
                                      "field-d16-150-paths"])
    def test_draw_ahead_under_a_short_switch_interval(self, monkeypatch, name):
        """With one step a block and a thread switch every microsecond, the
        draw-ahead still gives the run bit for bit, and leaves no thread."""
        run, n_paths, _, width = DRAW_RUNS[name]
        expected = run()
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * n_paths * width)
        before, interval = threading.enumerate(), sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run()
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got, expected)
        assert threading.enumerate() == before

    def test_dense_noise_factor_batches(self):
        """With a dense L the BLAS product dW @ L^T may round differently
        for another row count, so a run of fewer paths gives the first
        paths of the default run only to rounding."""
        run, _, _, _ = DRAW_RUNS["field-d16-dense"]
        np.testing.assert_allclose(run(2), run()[:2], rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(BUDGET_RUNS))
    def test_draws_stay_within_the_budget(self, monkeypatch, name):
        """Blocks of 3 steps go to two buffers in turn, each within half the
        draw budget, and every normal is drawn once.  A draw call fills one
        chunk of a block's streams; its buffer is the call's `out.base`."""
        run, n_paths, n_steps, width = BUDGET_RUNS[name]
        draw_budget = 2 * 3 * n_paths * width + 1
        monkeypatch.setattr(se, "_DRAW_NORMALS", draw_budget)
        draws, outs = _recording_draws(monkeypatch)
        run()
        buffers = [out.base for out in outs]
        assert max(b.size for b in buffers) <= draw_budget // 2
        ids = [id(b) for b in buffers]
        assert len(set(ids)) == 2
        # Alternating by block: each block's calls, which end before the
        # next block's begin, fill one buffer, and the next the other.
        starts = [0] + [i for i in range(1, len(ids)) if ids[i] != ids[i - 1]]
        assert len(starts) == -(-n_steps // 3)
        for lo, hi in zip(starts, starts[1:] + [len(ids)]):
            rows = np.concatenate([
                (out.ctypes.data - out.base.ctypes.data) // out.base.strides[0]
                + np.arange(len(out)) for out in outs[lo:hi]])
            np.testing.assert_array_equal(np.sort(rows), np.arange(n_paths))
        assert sum(d.size for d in draws) == n_paths * n_steps * width

    @pytest.mark.parametrize("n_paths", [2, 17, 64])
    def test_few_paths_share_each_block_draw(self, monkeypatch, n_paths):
        """With fewer than 65 paths a block's draw is two chunks, so both
        threads draw every block: here the helper waits in its chunk until
        the stepping thread has taken the other.  The run is the default
        run bit for bit."""
        cfg = se.SimConfig(dt=0.01, n_steps=9, n_paths=n_paths, seed=5)

        def run():
            return _ou_run(cfg)

        expected = run()
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * 3 * n_paths)  # 3 blocks
        draw, caller = se.gaussian_increments, threading.current_thread()
        taken, threads = threading.Event(), []

        def shared(streams, n, columns=1, out=None):
            if threading.current_thread() is caller:
                threads.append("stepping")
                taken.set()
            else:
                threads.append("helper")
                assert taken.wait(5.0)
                taken.clear()
            return draw(streams, n, columns, out)

        monkeypatch.setattr(se, "gaussian_increments", shared)
        np.testing.assert_array_equal(run(), expected)
        assert sorted(threads) == ["helper"] * 3 + ["stepping"] * 3

    def test_sink_takes_each_block_while_the_next_is_drawn(self, monkeypatch):
        """A sink gets the initial state, then each block's states,
        once the next block's draw has started; they are the states of the
        run in one block."""
        cfg = se.SimConfig(dt=0.01, n_steps=10, n_paths=3, seed=5)
        expected = _ou_run(cfg)
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * 3 * 3)  # 3 steps a block
        events, got = [], np.full_like(expected, np.nan)
        block_draw = se._BlockDraw

        class Recording(block_draw):
            def __init__(self, *args):
                events.append("draw")
                super().__init__(*args)

        def sink(first, states):
            events.append("sink")
            got[:, first:first + states.shape[1]] = states

        monkeypatch.setattr(se, "_BlockDraw", Recording)
        se._run_paths(cfg, 2.0, se._ou_step(0.05, 1.0, cfg.dt), sink=sink)
        assert events == ["draw", "sink"] * 4 + ["sink"]
        np.testing.assert_array_equal(got, expected)

    def test_outsized_working_buffers_are_a_config_error(self):
        """A state beyond the 128 TiB user address space is a ConfigError
        naming its size, before any generator."""
        cfg = se.SimConfig(dt=0.01, n_steps=4, n_paths=10**14)
        with pytest.raises(ConfigError, match=r"^\[sim\] n_paths = 10{14} "
                           r"paths of d = 9 values in 1-step blocks need \d+ "
                           "bytes, more than can be allocated"):
            se._run_paths(cfg, np.zeros(9), lambda state, xi: state,
                          shape=(9,), sink=lambda first, states: None)

    @pytest.mark.parametrize("simulate, args", [
        (se._run_paths, lambda cfg: (cfg, 2.0, se._ou_step(0.05, 1.0, cfg.dt))),
        (se.simulate_fast_slow, lambda cfg: (DEFAULT, DEFAULT.Q, 280.0, cfg)),
        (se.simulate_reduced_sde, lambda cfg: (DEFAULT, 280.0, cfg)),
        (se.simulate_linear_anomaly, lambda cfg: (1.0, 0.5, 0.3, 0.1, 0.2, cfg)),
        (sm.simulate_anomaly_field, lambda cfg: (sm.operators_from_arrays(
            [[-2.0]], [0.3], [0.5], [[1.0]], tau=0.05), cfg)),
    ], ids=["kernel", "fast-slow", "reduced", "linear-anomaly", "field"])
    def test_sink_is_required(self, simulate, args):
        """Every simulator needs a sink for its states and returns nothing:
        there is no path array to fall back on."""
        args = args(se.SimConfig(dt=1e-3, n_steps=3, n_paths=2, seed=4))
        with pytest.raises(TypeError, match="sink"):
            simulate(*args)
        firsts = []
        assert simulate(*args, sink=lambda first, states:
                        firsts.append(first)) is None
        assert firsts == [0, 1]

    def test_sink_failure_propagates(self, monkeypatch):
        """An exception in the sink, raised while the next block is drawn,
        reaches the caller with its type unchanged, and no thread outlives
        the call."""
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * 2 * 3)  # 2 steps a block
        cfg = se.SimConfig(dt=0.01, n_steps=40, n_paths=3)
        before = threading.enumerate()

        class SinkFailed(Exception):
            pass

        def sink(first, states):
            if first > 0:
                raise SinkFailed

        with pytest.raises(SinkFailed):
            se._run_paths(cfg, 0.0, lambda state, xi: state + xi, sink=sink)
        assert threading.enumerate() == before

    def test_draw_and_step_failures_propagate(self, monkeypatch):
        """An exception in the helper's draw, one in the stepping thread's
        share of a draw, and one in a step while the next block is drawn,
        reaches the caller with its type unchanged, and no thread outlives
        the call."""
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * 2 * 3)  # 2 steps a block
        cfg = se.SimConfig(dt=0.01, n_steps=40, n_paths=3)
        before = threading.enumerate()
        draw = se.gaussian_increments

        class DrawFailed(Exception):
            pass

        def failing(streams, n, columns=1, out=None):
            if failing.calls == 2:
                raise DrawFailed
            failing.calls += 1
            return draw(streams, n, columns, out)

        failing.calls = 0
        monkeypatch.setattr(se, "gaussian_increments", failing)
        with pytest.raises(DrawFailed):
            collect(se._run_paths, cfg, 0.0, lambda state, xi: state + xi)
        assert threading.enumerate() == before

        # A failure in the stepping thread's share of a draw.  With one
        # stream a chunk, the helper holds its first chunk until this
        # thread has taken another and failed, so this thread takes one.
        monkeypatch.setattr(se, "_DRAW_STREAMS", 1)
        caller, failed = threading.current_thread(), threading.Event()

        def shared(streams, n, columns=1, out=None):
            if threading.current_thread() is caller:
                failed.set()
                raise DrawFailed
            failed.wait(5.0)
            return draw(streams, n, columns, out)

        monkeypatch.setattr(se, "gaussian_increments", shared)
        with pytest.raises(DrawFailed):
            collect(se._run_paths, cfg, 0.0, lambda state, xi: state + xi)
        assert failed.is_set()
        assert threading.enumerate() == before

        def slow(streams, n, columns=1, out=None):  # still running at the failure
            time.sleep(0.05)
            return draw(streams, n, columns, out)

        monkeypatch.setattr(se, "gaussian_increments", slow)

        class StepFailed(Exception):
            pass

        steps = []

        def step(state, xi):
            steps.append(xi)
            if len(steps) == 5:
                raise StepFailed
            return state + xi

        with pytest.raises(StepFailed):
            collect(se._run_paths, cfg, 0.0, step)
        assert len(steps) == 5
        assert threading.enumerate() == before
