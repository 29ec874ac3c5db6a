import dataclasses

import numpy as np
import pytest

from ebmvar import model_core as mc
from ebmvar import sde_engine as se
from ebmvar import spatial_model as sm
from ebmvar.errors import EmptySample, StepTooLarge

DEFAULT = mc.default_params()


class TestSimConfig:
    def test_defaults(self):
        cfg = se.SimConfig(dt=0.01, n_steps=10, n_paths=2)
        assert cfg.scheme == "euler-maruyama"
        assert cfg.drift_form == "ito"

    @pytest.mark.parametrize("kw", [
        {"dt": 0.0}, {"n_steps": 0}, {"n_paths": 0},
        {"scheme": "heun"}, {"drift_form": "bogus"},
        {"dt": float("nan")}, {"dt": float("inf")},
    ])
    def test_rejects_bad_values(self, kw):
        base = {"dt": 0.01, "n_steps": 10, "n_paths": 2}
        base.update(kw)
        with pytest.raises(ValueError):
            se.SimConfig(**base)


class TestPathBundle:
    def test_csv_header(self, run_cli):
        out = run_cli(DEFAULT, {"sim": {"dt": 0.1, "n_steps": 1, "n_paths": 2}},
                      "simulate", "--which", "reduced")
        lines = (out / "reduced_paths.csv").read_text().strip().split("\n")
        assert lines[0] == "time,path_0,path_1"
        assert lines[1].split(",")[0] == "0"

    def test_binary_round_trip_scalar(self):
        rng = np.random.default_rng(1)
        b = se.PathBundle(times=np.linspace(0, 1, 5),
                          values=rng.standard_normal((3, 5)), seed=7)
        r = se.PathBundle.from_binary(b.to_binary())
        np.testing.assert_array_equal(r.times, b.times)
        np.testing.assert_array_equal(r.values, b.values)
        assert r.seed == 7

    def test_binary_round_trip_vector(self):
        rng = np.random.default_rng(2)
        b = se.PathBundle(times=np.linspace(0, 1, 4),
                          values=rng.standard_normal((2, 4, 3)))
        blob = b.to_binary()
        r = se.PathBundle.from_binary(blob)
        np.testing.assert_array_equal(r.values, b.values)
        # Read back without a copy: the arrays are views of the dump.
        raw = np.frombuffer(blob, dtype=np.uint8)
        assert np.shares_memory(r.values, raw) and np.shares_memory(r.times, raw)

    def test_bad_magic(self):
        with pytest.raises(ValueError, match="magic"):
            se.PathBundle.from_binary(b"XXXXXXXX" + b"\0" * 64)

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


class TestSimulateOU:
    def test_deterministic_decay(self):
        tau, Q, x0 = 0.5, 3.0, 5.0
        cfg = se.SimConfig(dt=0.05, n_steps=40, n_paths=1)
        b = se.simulate_ou(tau, Q, x0, cfg, noise_scale=0.0)
        expected = Q + (x0 - Q) * np.exp(-b.times / tau)
        np.testing.assert_allclose(b.values[0], expected, rtol=1e-12)

    def test_stationary_variance_half(self):
        tau = 0.05
        cfg = se.SimConfig(dt=tau / 10.0, n_steps=2000, n_paths=400, seed=3)
        b = se.simulate_ou(tau, 0.0, 0.0, cfg)
        rep = se.mc_moments(b, burn_in_fraction=0.5, pooled=True)
        assert abs(rep.variance - 0.5) <= 4.0 * rep.se_variance

    def test_exact_one_step_distribution(self):
        """One exact transition step reproduces the conditional law."""
        tau, Q, x0 = 0.1, 2.0, 5.0
        cfg = se.SimConfig(dt=0.03, n_steps=1, n_paths=20000, seed=11)
        b = se.simulate_ou(tau, Q, x0, cfg)
        x1 = b.values[:, 1]
        mean = Q + (x0 - Q) * np.exp(-cfg.dt / tau)
        var = 0.5 * (1.0 - np.exp(-2.0 * cfg.dt / tau))
        assert np.mean(x1) == pytest.approx(mean, abs=4.0 * np.sqrt(var / cfg.n_paths))
        assert np.var(x1, ddof=1) == pytest.approx(var, rel=0.05)


class TestFastSlow:
    def test_quiescent_equilibrium(self):
        """With the noise off and X started at Q, an equilibrium root is a
        fixed point of the coupled update."""
        root = mc.select_root(mc.equilibrium_roots(DEFAULT))
        cfg = se.SimConfig(dt=1e-3, n_steps=200, n_paths=1)
        xb, tb = se.simulate_fast_slow(DEFAULT, DEFAULT.Q, root.T_star, cfg,
                                       noise_scale=0.0)
        np.testing.assert_allclose(xb.values[0], DEFAULT.Q, rtol=1e-12)
        np.testing.assert_allclose(tb.values[0], root.T_star, rtol=1e-12)

    def test_step_guard(self):
        cfg = se.SimConfig(dt=1.0, n_steps=1, n_paths=1)
        with pytest.raises(StepTooLarge):
            se.simulate_fast_slow(DEFAULT, DEFAULT.Q, 280.0, cfg)

    def test_fast_path_is_the_ou_path(self):
        cfg = se.SimConfig(dt=1e-3, n_steps=30, n_paths=5, seed=8)
        xb, _ = se.simulate_fast_slow(DEFAULT, DEFAULT.Q + 0.5, 280.0, cfg,
                                      noise_scale=2.0)
        ou = se.simulate_ou(DEFAULT.tau, DEFAULT.Q, DEFAULT.Q + 0.5, cfg,
                            noise_scale=2.0)
        np.testing.assert_array_equal(xb.values, ou.values)


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
        gaps = _euler_gaps(np.eye(n)[picks], tau, t, x0, Q)
        np.testing.assert_allclose(gaps, c0[0] + V[picks, 0], rtol=1e-13, atol=0)
        assert _euler_gaps(np.zeros((1, n)), tau, t, x0, Q)[0] == pytest.approx(
            c0[0], rel=1e-13, abs=0)

    @pytest.mark.parametrize("per_batch", [1, 2, None])
    def test_ladder_rungs_are_the_single_rung_loop(self, monkeypatch, per_batch):
        """Each rung, given in any order and with rungs of equal length,
        matches the loop that runs that tau alone to rounding: the matrix
        products round differently from the loop's steps."""
        taus, t, x0, Q, n_paths = (0.1, 0.4, 0.025, 0.2), 1.0, 1.5, 0.3, 5
        if per_batch is not None:
            monkeypatch.setattr(se, "_BATCH_NORMALS", per_batch * 8000)
        for seed in (9, 10, 11):
            got = se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
            for r, tau in zip(got, taus):
                _assert_same_result(
                    r, _wong_zakai_one_rung(tau, t, x0, Q, n_paths, seed))

    def test_rung_order_and_equal_length_rungs(self):
        """A rung does not depend on the rungs beside it or on their order,
        up to the rounding of the block products; a one-rung ladder is
        `wong_zakai_error` bit for bit, and reruns repeat bit for bit."""
        taus, t, x0, Q, n_paths, seed = (0.4, 0.2, 0.4), 1.0, 1.5, 0.3, 6, 4
        got = se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
        assert got == se.wong_zakai_ladder(taus, t, x0, Q, n_paths, seed)
        flipped = se.wong_zakai_ladder(taus[::-1], t, x0, Q, n_paths, seed)
        for r, other, tau in zip(got, flipped[::-1], taus):
            alone = se.wong_zakai_error(tau, t, x0, Q, n_paths, seed)
            assert alone == se.wong_zakai_ladder([tau], t, x0, Q, n_paths, seed)[0]
            _assert_same_result(r, alone)
            _assert_same_result(other, alone)


def _assert_same_result(got, expected):
    """`mc_estimate` and `se` to rtol 1e-12; the closed form, tau and t
    bit for bit."""
    np.testing.assert_allclose([got.mc_estimate, got.se],
                               [expected.mc_estimate, expected.se],
                               rtol=1e-12, atol=0)
    assert (got.exact, got.tau, got.t) == (expected.exact, expected.tau, expected.t)


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
    def test_deterministic_relaxation(self):
        """Noise off, Ito drift: explicit Euler converges to the stable root."""
        root = mc.select_root(mc.equilibrium_roots(DEFAULT))
        cfg = se.SimConfig(dt=1e-3, n_steps=20000, n_paths=1)
        b = se.simulate_reduced_sde(DEFAULT, root.T_star + 2.0, cfg,
                                    noise_scale=0.0)
        assert b.values[0, -1] == pytest.approx(root.T_star, abs=1e-8)

    def test_stratonovich_correction_shifts_drift(self):
        cfg = se.SimConfig(dt=1e-3, n_steps=1, n_paths=1,
                           drift_form="stratonovich-corrected")
        cfg0 = se.SimConfig(dt=1e-3, n_steps=1, n_paths=1)
        T0 = 280.0
        b1 = se.simulate_reduced_sde(DEFAULT, T0, cfg, noise_scale=0.0)
        b0 = se.simulate_reduced_sde(DEFAULT, T0, cfg0, noise_scale=0.0)
        beta = mc.co_albedo(T0, DEFAULT)
        expected = cfg.dt * 0.5 * DEFAULT.tau * beta * DEFAULT.slope
        assert b1.values[0, 1] - b0.values[0, 1] == pytest.approx(expected)

    def test_milstein_equals_em_without_noise(self):
        kw = dict(dt=1e-3, n_steps=50, n_paths=1)
        em = se.simulate_reduced_sde(DEFAULT, 285.0,
                                     se.SimConfig(**kw), noise_scale=0.0)
        mi = se.simulate_reduced_sde(DEFAULT, 285.0,
                                     se.SimConfig(scheme="milstein", **kw),
                                     noise_scale=0.0)
        np.testing.assert_allclose(mi.values, em.values, rtol=1e-14)


class TestLinearAnomaly:
    def test_deterministic_decay(self):
        b_rate, y0 = 1.5, 2.0
        cfg = se.SimConfig(dt=1e-4, n_steps=10000, n_paths=1)
        b = se.simulate_linear_anomaly(b_rate, 0.5, 0.01, 0.01, y0, cfg,
                                       noise_scale=0.0)
        expected = y0 * np.exp(-b_rate * b.times[-1])
        assert b.values[0, -1] == pytest.approx(expected, rel=1e-3)

    def test_stationary_variance(self):
        b_rate, sigma0, sigma1, tau = 1.0, 0.5, 0.0086486, 1.0 / 365.0
        target = mc.stationary_variance(b_rate, sigma0, sigma1, tau)
        cfg = se.SimConfig(dt=0.01, n_steps=3000, n_paths=500, seed=9)
        bundle = se.simulate_linear_anomaly(b_rate, sigma0, sigma1, tau, 0.0, cfg)
        rep = se.mc_moments(bundle, burn_in_fraction=0.5, pooled=True)
        assert abs(rep.variance - target) <= 4.0 * rep.se_variance

    def test_step_guard(self):
        cfg = se.SimConfig(dt=2.0, n_steps=1, n_paths=1)
        with pytest.raises(StepTooLarge):
            se.simulate_linear_anomaly(1.0, 0.5, 0.0, 0.01, 0.0, cfg)


class TestMcMoments:
    def _bundle(self, values):
        values = np.asarray(values, dtype=float)
        return se.PathBundle(times=np.arange(values.shape[1], dtype=float),
                             values=values)

    def test_per_time_statistics(self):
        b = self._bundle([[0.0, 2.0], [2.0, 4.0]])
        rep = se.mc_moments(b, burn_in_fraction=0.0)
        np.testing.assert_allclose(rep.mean, [1.0, 3.0])
        np.testing.assert_allclose(rep.variance, [2.0, 2.0])

    def test_pooled_mean(self):
        b = self._bundle([[1.0, 1.0], [3.0, 3.0]])
        rep = se.mc_moments(b, burn_in_fraction=0.0, pooled=True)
        assert rep.mean == 2.0
        assert rep.variance == 1.0

    def test_burn_in_discards_prefix(self):
        b = self._bundle([[100.0, 1.0], [100.0, 3.0]])
        rep = se.mc_moments(b, burn_in_fraction=0.5)
        np.testing.assert_allclose(rep.mean, [2.0])

    def test_empty_sample(self):
        b = self._bundle([[1.0]])
        with pytest.raises(EmptySample):
            se.mc_moments(b, burn_in_fraction=1.0)

    def test_negative_burn_in_rejected(self):
        b = self._bundle([[100.0, 1.0], [100.0, 3.0]])
        with pytest.raises(ValueError, match="burn_in_fraction"):
            se.mc_moments(b, burn_in_fraction=-0.5)


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


def _runs():
    """(run, n_paths, n_steps, normals per step) for every simulator on the
    kernel."""
    root = mc.select_root(mc.equilibrium_roots(DEFAULT))
    n_paths, n_steps = 7, 40
    cfg = se.SimConfig(dt=1e-3, n_steps=n_steps, n_paths=n_paths, seed=12)
    strat = dataclasses.replace(cfg, scheme="milstein",
                                drift_form="stratonovich-corrected")
    field_cfg = dataclasses.replace(cfg, dt=2e-4)
    ops1 = sm.operators_from_arrays([[-2.0]], [0.3], [0.5], [[1.0]], [[1.0]],
                                    tau=0.05)
    # Identity noise: the dW @ L^T product is then exact, whatever the row
    # count of the matrix product (see test_dense_noise_factor_batches).
    ops16 = _field_operators(5, "identity")
    return {
        "ou": (lambda: se.simulate_ou(0.05, 1.0, 2.0, cfg).values,
               n_paths, n_steps, 1),
        "fast-slow": (lambda: np.stack([b.values for b in se.simulate_fast_slow(
            DEFAULT, DEFAULT.Q, root.T_star, cfg)]), n_paths, n_steps, 1),
        "reduced": (lambda: se.simulate_reduced_sde(
            DEFAULT, root.T_star + 2.0, cfg).values, n_paths, n_steps, 1),
        "reduced-milstein-stratonovich": (lambda: se.simulate_reduced_sde(
            DEFAULT, root.T_star + 2.0, strat).values, n_paths, n_steps, 1),
        "linear-anomaly-milstein": (lambda: se.simulate_linear_anomaly(
            1.0, 0.5, 0.3, 0.1, 0.2, strat).values, n_paths, n_steps, 1),
        "wong-zakai": (lambda: np.array(dataclasses.astuple(se.wong_zakai_error(
            0.1, 0.5, 1.0, 0.0, n_paths=n_paths, seed=3))), n_paths, 1000, 1),
        "wong-zakai-ladder": (lambda: np.array([dataclasses.astuple(r) for r in (
            se.wong_zakai_ladder((0.1, 0.025), 0.5, 1.0, 0.0, n_paths=n_paths,
                                 seed=3))]), n_paths, 4000, 1),
        "field-d1": (lambda: sm.simulate_anomaly_field(ops1, field_cfg).values,
                     n_paths, n_steps, 1),
        "field-d16-stride": (lambda: sm.simulate_anomaly_field(
            ops16, field_cfg, store_stride=7).values, n_paths, n_steps, 16),
    }


RUNS = _runs()


def _dense_field_run():
    ops = _field_operators(5, "exponential")
    cfg = se.SimConfig(dt=2e-4, n_steps=40, n_paths=7, seed=12)
    return (lambda: sm.simulate_anomaly_field(ops, cfg, store_stride=7).values,
            7, 40, ops.d)


# With a dense noise factor only the batch boundaries must stay put.
DRAW_RUNS = {**RUNS, "field-d16-dense": _dense_field_run()}

# The Wong-Zakai ladder's block products may round differently under another
# batch or draw block size (a dense L only under another batch size).
LAYOUT_ROUNDED = {"wong-zakai", "wong-zakai-ladder"}


def _assert_same_run(name, got, expected):
    if name in LAYOUT_ROUNDED:
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    else:
        np.testing.assert_array_equal(got, expected)


class TestPathKernel:
    @pytest.mark.parametrize("per_batch", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_batch_layout_invariance(self, monkeypatch, name, per_batch):
        """Batches of 1-3 paths give the default run bit for bit (the
        Wong-Zakai runs to rounding)."""
        run, _, n_steps, width = RUNS[name]
        expected = run()
        monkeypatch.setattr(se, "_BATCH_NORMALS", per_batch * n_steps * width)
        _assert_same_run(name, run(), expected)

    @pytest.mark.parametrize("per_draw", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(DRAW_RUNS))
    def test_draw_block_invariance(self, monkeypatch, name, per_draw):
        """Drawing 1-3 steps at a time gives the default run bit for bit (the
        Wong-Zakai runs to rounding)."""
        run, n_paths, _, width = DRAW_RUNS[name]
        expected = run()
        monkeypatch.setattr(se, "_DRAW_NORMALS", per_draw * n_paths * width)
        _assert_same_run(name, run(), expected)

    def test_dense_noise_factor_batches(self, monkeypatch):
        """With a dense L the BLAS product dW @ L^T may round differently
        for another row count, so other batch sizes agree only to rounding."""
        ops = _field_operators(5, "exponential")
        cfg = se.SimConfig(dt=2e-4, n_steps=40, n_paths=7, seed=12)
        expected = sm.simulate_anomaly_field(ops, cfg, store_stride=7).values
        monkeypatch.setattr(se, "_BATCH_NORMALS", 2 * 40 * ops.d)
        got = sm.simulate_anomaly_field(ops, cfg, store_stride=7).values
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("name", sorted(DRAW_RUNS))
    def test_draws_stay_within_the_budget(self, monkeypatch, name):
        """Batches of 2 paths each draw into one buffer of 3 steps: no draw
        and no buffer exceeds the draw budget, which is below the batch
        budget, and every normal is drawn once."""
        run, n_paths, n_steps, width = DRAW_RUNS[name]
        batch_budget = 2 * n_steps * width + 1
        draw_budget = 3 * 2 * width + 1
        monkeypatch.setattr(se, "_BATCH_NORMALS", batch_budget)
        monkeypatch.setattr(se, "_DRAW_NORMALS", draw_budget)
        sizes, buffers = [], []
        draw = se.gaussian_increments

        def recording(streams, n, columns=1, out=None):
            got = draw(streams, n, columns, out)
            sizes.append(got.size)
            buffers.append(out)
            return got

        monkeypatch.setattr(se, "gaussian_increments", recording)
        run()
        assert max(sizes) <= draw_budget <= batch_budget
        assert max(b.size for b in buffers) <= draw_budget
        assert len({id(b) for b in buffers}) == -(-n_paths // 2)  # one a batch
        assert sum(sizes) == n_paths * n_steps * width
