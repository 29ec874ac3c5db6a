import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import ebmvar
from ebmvar import covariance_engine as cov
from ebmvar import model_core as mc
from ebmvar.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STABILITY,
    _table,
    main,
)

DEFAULT = mc.default_params()


def _constant_profile_lam(theta, Q=100.0, r1=2.0):
    p = mc.EbmParams(0.38, 0.70, 263.0, 300.0, 0.0, r1, Q, 0.0, 1.0 / 365.0)
    return r1 * theta - Q * mc.co_albedo(theta, p)


def _model_section(Q=100.0, lam=510.0, r1=2.0):
    return (
        "[model]\n"
        "beta_min = 0.38\nbeta_max = 0.70\nT_l = 263.0\nT_u = 300.0\n"
        f"r0 = 0.0\nr1 = {r1}\nQ = {Q}\nlambda = {lam:.17g}\n"
        "tau = 0.00273972602739726\n"
    )


def _spatial_sections(Lx=1.0, Ly=1.0, n=4, theta=280.0, kernel="identity"):
    noise = f"[noise]\nkernel = {kernel}\n"
    if kernel == "exponential":
        noise += "length = 0.5\n"
    return (
        f"[grid]\nLx = {Lx}\nLy = {Ly}\nNx = {n}\nNy = {n}\n"
        f"[boundary]\ntheta = {theta}\n" + noise
    )


# Noise-induced instability: the drift M is stable, K is not.
UNSTABLE_K_CONFIG = (
    "[model]\n"
    "beta_min = 0.01\nbeta_max = 0.99\nT_l = 263.0\nT_u = 264.0\n"
    "r0 = 0.0\nr1 = 2.0\nQ = 2.0\nlambda = 526.0\ntau = 0.99\n"
    + _spatial_sections(Lx=40.0, Ly=40.0, n=4, theta=263.5)
)


def _write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestExitCodes:
    def test_missing_config(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "o"), "variance-curve"])
        assert rc == EXIT_CONFIG
        assert "config" in capsys.readouterr().err

    def test_bad_config(self, tmp_path):
        cfg = _write_cfg(tmp_path, "[model]\nbogus = 1\n")
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "variance-curve"])
        assert rc == EXIT_CONFIG

    def test_bad_threads(self, tmp_path):
        rc = main(["--threads", "0", "--out", str(tmp_path / "o"),
                   "counterexample", "--s", "0.5", "--c", "0.8"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("t", ["0", "-1.0"])
    def test_nonpositive_horizon(self, tmp_path, capsys, t):
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 4\nseed = 1\n"))
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "wz-convergence", "--t", t])
        assert rc == EXIT_CONFIG
        assert "--t" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--t", "inf"), ("--t", "1e300"),
        ("--x0-offset", "nan"), ("--x0-offset", "inf"),
    ])
    def test_wz_refuses_unusable_horizon_or_offset(self, tmp_path, capsys,
                                                   flag, value):
        """A non-finite --t or --x0-offset, or a --t whose step count no
        array can hold, is a config error, and no output is written."""
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 4\nseed = 1\n"))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "wz-convergence",
                   flag, value])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err
        assert not out.exists() or not any(out.iterdir())

    def test_nonpositive_noise_variance(self, tmp_path):
        text = (_model_section() + _spatial_sections()
                + "variance = 0.0\n")  # appended to the [noise] section
        cfg = _write_cfg(tmp_path, text)
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "spatial-stationary"])
        assert rc == EXIT_CONFIG

    def test_nonpositive_noise_length(self, tmp_path):
        text = _model_section() + _spatial_sections(kernel="exponential")
        cfg = _write_cfg(tmp_path, text.replace("length = 0.5", "length = 0.0"))
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "spatial-stationary"])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("section,key,value,command", [
        ("sim", "dt", "nan", ["simulate", "--which", "reduced"]),
        ("sim", "dt", "inf", ["simulate", "--which", "anomaly-0d"]),
        ("grid", "Lx", "nan", ["spatial-stationary"]),
        ("model", "r1", "nan", ["variance-curve"]),
        ("model", "Q", "-inf", ["spatial-stationary"]),
    ])
    def test_non_finite_float_is_a_config_error(self, tmp_path, capsys,
                                                section, key, value, command):
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _spatial_sections()
                + "[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\n"
                + "[sweep]\nlambda_min = 500.0\nlambda_max = 510.0\nn_points = 3\n")
        lines = [f"{key} = {value}" if line.split(" = ")[0] == key else line
                 for line in text.split("\n")]
        assert f"{key} = {value}" in lines
        cfg = _write_cfg(tmp_path, "\n".join(lines))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out)] + command)
        assert rc == EXIT_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    def test_burn_in_key_is_unknown(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\n"
            "burn_in_fraction = 0.5\n")
        cfg = _write_cfg(tmp_path, text)
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "simulate", "--which", "reduced"])
        assert rc == EXIT_CONFIG

    def test_numerical_error(self, tmp_path):
        # dt (r1 + Q s) = 2.86 > 1: the explicit step is refused.
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 1.0\nn_steps = 2\nn_paths = 2\n"))
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "simulate", "--which", "reduced"])
        assert rc == EXIT_NUMERICAL

    @pytest.mark.parametrize("flags", [
        ["--s", "1.5", "--c", "0.8"],
        ["--s", "nan", "--c", "0.8"],
        ["--s", "0.5", "--c", "0"],
    ], ids=["s-above-one", "s-nan", "c-zero"])
    def test_counterexample_out_of_range_is_a_config_error(self, tmp_path,
                                                           capsys, flags):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "counterexample", *flags])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "0 < s < 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--n-lambda", "-1"],
        ["--lambda-min", "-1"],
        ["--lambda-min", "0.35", "--lambda-max", "0", "--n-lambda", "8"],
    ], ids=["negative-n-lambda", "negative-lambda-min", "reversed-grid"])
    def test_counterexample_bad_grid_is_a_config_error(self, tmp_path, capsys,
                                                       flags):
        """A descending grid would flip the sign read off np.diff in the
        summary, so it is refused like any other bad grid."""
        out = tmp_path / "o"
        rc = main(["--out", str(out), "counterexample",
                   "--s", "0.5", "--c", "0.8", *flags])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_stability_refusal(self, tmp_path, capsys):
        """Noise-induced instability: a steep co-albedo ramp with slow noise
        makes the vectorised operator non-Hurwitz even though the drift is
        stable, so the stationary report is refused."""
        cfg = _write_cfg(tmp_path, UNSTABLE_K_CONFIG)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "spatial-stationary"])
        assert rc == EXIT_STABILITY
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["k_spectral_abscissa"] >= 0.0
        assert cert["m_spectral_abscissa"] < 0.0
        assert capsys.readouterr().err.startswith("stability refusal:")

    def test_force_reports_an_unstable_k(self, tmp_path):
        """--force skips the Hurwitz gate: the command reports, and its
        certificate and summary say that K is unstable and Gamma not PSD."""
        cfg = _write_cfg(tmp_path, UNSTABLE_K_CONFIG)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "--force",
                   "spatial-stationary"])
        assert rc == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["k_spectral_abscissa"] >= 0.0
        summary = json.loads((out / "spatial_stationary_summary.json").read_text())
        assert summary["is_psd"] is False
        assert (out / "gamma_stationary.txt").exists()

    @pytest.mark.parametrize("routine", ["eigs"])
    def test_arpack_failure_is_a_numerical_error(self, tmp_path, monkeypatch,
                                                 routine):
        """At d = 64 K's abscissa comes from ARPACK on the d x d operator; a
        convergence failure there exits with the numerical-error code, not a
        traceback.  A grid M is symmetric, so eigsh never runs here; its
        failure is checked on a nonsymmetric system in the certificate
        tests."""
        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", [], [])

        monkeypatch.setattr(cov.spla, routine, no_convergence)
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections(
            Lx=8.0, Ly=8.0, n=9, kernel="exponential")
        cfg = _write_cfg(tmp_path, text)
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "spatial-stationary"])
        assert rc == EXIT_NUMERICAL


class TestVarianceCurve:
    def test_outputs(self, tmp_path):
        text = _model_section() + (
            "[sweep]\nlambda_min = 496.0\nlambda_max = 524.0\nn_points = 8\n")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), "variance-curve"]) == EXIT_OK
        lines = (out / "variance_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,T_star,branch,b,sigma0,sigma1,var_inf"
        assert len(lines) == 9
        summary = json.loads((out / "variance_curve_summary.json").read_text())
        assert summary["verdict"] == "strictly increasing"


class TestTable:
    def test_cells(self):
        rows = [(0.1 + 0.2, 0.0, -0.0, float("nan")),
                (float("inf"), np.float64(1.0 / 3.0), 7, True),
                (None, "ice-sensitive", 2.5e-300, False)]
        assert b"".join(_table("a,b,c,d", rows)) == (
            b"a,b,c,d\n"
            b"0.30000000000000004,0,-0,nan\n"
            b"inf,0.33333333333333331,7,True\n"
            b",ice-sensitive,2.5e-300,False\n")

    def test_rows_are_read_as_they_are_written(self):
        def rows():
            yield (1.5,)
            raise AssertionError("read past the first row")

        lines = _table("x", rows())
        assert next(lines) == b"x\n"
        assert next(lines) == b"1.5\n"


class TestWzConvergence:
    def test_outputs(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 60\nseed = 1\n")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out),
                   "wz-convergence", "--t", "0.5"])
        assert rc == EXIT_OK
        lines = (out / "wz_convergence.csv").read_text().strip().split("\n")
        assert lines[0] == "tau,mc,exact,se"
        assert len(lines) == 5
        summary = json.loads((out / "wz_convergence_summary.json").read_text())
        assert abs(summary["fitted_slope"] - 1.0) < 0.2

    def test_thread_count_invariance(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 40\nseed = 1\n")
        cfg = _write_cfg(tmp_path, text)
        outs = []
        for threads, name in [("1", "a"), ("4", "b")]:
            out = tmp_path / name
            assert main(["--config", cfg, "--threads", threads, "--out",
                         str(out), "wz-convergence", "--t", "0.3"]) == EXIT_OK
            outs.append((out / "wz_convergence.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_tiny_horizon_keeps_its_digits(self, tmp_path):
        """At t = 1e-300 the gap is t to first order: the closed form must
        not round it to 0, and the summary must stay valid JSON."""
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 20\nseed = 1\n"))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "wz-convergence", "--t", "1e-300"]) == EXIT_OK
        lines = (out / "wz_convergence.csv").read_text().strip().split("\n")
        exact = [float(line.split(",")[2]) for line in lines[1:]]
        assert exact == pytest.approx([1e-300] * 4, rel=1e-12, abs=0.0)

        def refuse(name):
            raise ValueError(f"{name} in the summary")

        summary = json.loads((out / "wz_convergence_summary.json").read_text(),
                             parse_constant=refuse)
        assert np.isfinite(summary["fitted_slope"])


class TestSimulate:
    def test_reduced_outputs_and_determinism(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 50\nn_paths = 3\nseed = 2\n")
        cfg = _write_cfg(tmp_path, text)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["--config", cfg, "--out", str(out),
                       "simulate", "--which", "reduced"])
            assert rc == EXIT_OK
            lines = (out / "reduced_paths.csv").read_text().strip().split("\n")
            assert lines[0] == "time,path_0,path_1,path_2"
            assert len(lines) == 52
            blobs.append((out / "reduced_paths.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_flag_overrides(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 2\nseed = 2\n")
        cfg = _write_cfg(tmp_path, text)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["--config", cfg, "--out", str(out_a), "simulate",
              "--which", "reduced"])
        main(["--config", cfg, "--seed", "9", "--out", str(out_b),
              "simulate", "--which", "reduced"])
        assert ((out_a / "reduced_paths.bin").read_bytes()
                != (out_b / "reduced_paths.bin").read_bytes())

    def test_fast_slow_outputs(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 2\nseed = 3\n")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out),
                   "simulate", "--which", "fast-slow"])
        assert rc == EXIT_OK
        for name in ("fast", "slow"):
            assert (out / f"{name}_paths.csv").exists()
            assert (out / f"{name}_moments.csv").exists()

    def test_anomaly_field_outputs(self, tmp_path):
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _spatial_sections()
                + "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 2\nseed = 4\n")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out),
                   "simulate", "--which", "anomaly-field"])
        assert rc == EXIT_OK
        assert (out / "anomaly_field.bin").exists()
        lines = (out / "anomaly_field_trace.csv").read_text().strip().split("\n")
        assert lines[0] == "time,mc_trace"
        assert len(lines) == 22


    def test_anomaly_field_streams_the_joined_outputs(self, tmp_path,
                                                       monkeypatch):
        """anomaly_field.bin is the bundle's to_binary(), and the traces,
        reduced 2 paths at a time, are (values**2).sum(2).mean(0) exactly."""
        from ebmvar import cli
        from ebmvar import spatial_model as sm

        bundles = []
        simulate = sm.simulate_anomaly_field

        def recording(*args, **kwargs):
            bundles.append(simulate(*args, **kwargs))
            return bundles[-1]

        monkeypatch.setattr(sm, "simulate_anomaly_field", recording)
        monkeypatch.setattr(cli, "_TRACE_VALUES", 2 * 21 * 9)  # d=9, 21 times
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _spatial_sections(kernel="exponential")
                + "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 5\nseed = 4\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "simulate", "--which", "anomaly-field"]) == EXIT_OK
        (bundle,) = bundles
        assert (out / "anomaly_field.bin").read_bytes() == bundle.to_binary()
        traces = (bundle.values ** 2).sum(axis=2).mean(axis=0)
        expected = ["time,mc_trace"] + [f"{t:.17g},{tr:.17g}"
                                        for t, tr in zip(bundle.times, traces)]
        assert ((out / "anomaly_field_trace.csv").read_text()
                == "\n".join(expected) + "\n")


class TestSpatialStationary:
    def test_outputs(self, tmp_path):
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections(kernel="exponential")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "spatial-stationary"])
        assert rc == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["minus_k_is_Z"] is True
        assert cert["inverse_strictly_positive"] is True
        gamma = (out / "gamma_stationary.txt").read_text().strip().split("\n")
        assert gamma[0] == "row,col,value"
        summary = json.loads((out / "spatial_stationary_summary.json").read_text())
        assert summary["is_psd"] is True
        assert summary["trace"] > 0.0
        assert summary["d"] == 9

    @pytest.mark.parametrize("n", [2, 4], ids=["d1", "d9"])
    def test_never_assembles_k(self, tmp_path, monkeypatch, n):
        """The certificate and the stationary solve work on d x d matrices;
        the d^2 x d^2 matrix K is a test oracle only."""
        def refuse(ops):
            raise AssertionError("assemble_vectorised called")

        monkeypatch.setattr(cov, "assemble_vectorised", refuse)
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam)
                         + _spatial_sections(n=n))
        assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                     "spatial-stationary"]) == EXIT_OK

    def test_single_node(self, tmp_path, monkeypatch):
        """d = 1 (Nx = Ny = 2): ARPACK cannot run on the 1 x 1 operator K,
        so its abscissa is the operator applied to [[1]], which equals K
        exactly."""
        seen = []
        original = cov.certify

        def recording(ops):
            seen.append(ops)
            return original(ops)

        monkeypatch.setattr(cov, "certify", recording)
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections(n=2)
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "spatial-stationary"]) == EXIT_OK
        cert = json.loads((out / "certificate.json").read_text())
        K = cov.assemble_vectorised(seen[0]).K.toarray()
        assert K.shape == (1, 1)
        assert cert["k_spectral_abscissa"] == K[0, 0] < 0.0
        assert cert["eig_route"] == "dense"
        summary = json.loads((out / "spatial_stationary_summary.json").read_text())
        assert summary["d"] == 1

    def test_byte_identical_reruns(self, tmp_path):
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections()
        cfg = _write_cfg(tmp_path, text)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", cfg, "--out", str(out),
                         "spatial-stationary"]) == EXIT_OK
            blobs.append((out / "gamma_stationary.txt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_single_stability_eigensolve(self, tmp_path, monkeypatch):
        """certify computes K's spectral abscissa; the stationary solve does
        not compute it a second time."""
        calls = []
        original = cov.k_spectral_abscissa

        def counting(ops):
            calls.append(ops.d)
            return original(ops)

        monkeypatch.setattr(cov, "k_spectral_abscissa", counting)
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam) + _spatial_sections())
        assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                     "spatial-stationary"]) == EXIT_OK
        assert calls == [9]

    def test_certificate_bytes_reproducible_across_processes(self, tmp_path):
        """At d = 64 the certificate takes the ARPACK route; two fresh
        interpreters must write the same bytes."""
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections(
            Lx=8.0, Ly=8.0, n=9, kernel="exponential")
        cfg = _write_cfg(tmp_path, text)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ebmvar.__file__).resolve().parents[1]))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            subprocess.run([sys.executable, "-m", "ebmvar.cli", "--config", cfg,
                            "--out", str(out), "spatial-stationary"],
                           env=env, check=True, timeout=300)
            blobs.append((out / "certificate.json").read_bytes())
        assert json.loads(blobs[0])["eig_route"] == "iterative"
        assert blobs[0] == blobs[1]


class TestMonotonicity:
    def test_outputs(self, tmp_path):
        lam0 = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam0) + _spatial_sections()
                + f"[sweep]\nlambda_min = {lam0 - 2.0:.17g}\n"
                  f"lambda_max = {lam0 + 2.0:.17g}\nn_points = 3\n")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "monotonicity"])
        assert rc == EXIT_OK
        lines = (out / "monotonicity_sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,applicable,trace,min_dgamma_entry,verdict,note"
        assert len(lines) == 4
        summary = json.loads((out / "monotonicity_summary.json").read_text())
        assert summary["verdict"] == "entrywise positive"
        assert summary["n_applicable"] == 3

    def test_thread_count_invariance(self, tmp_path):
        lam0 = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam0) + _spatial_sections(kernel="exponential")
                + f"[sweep]\nlambda_min = {lam0 - 2.0:.17g}\n"
                  f"lambda_max = {lam0 + 2.0:.17g}\nn_points = 4\n")
        cfg = _write_cfg(tmp_path, text)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}"
            assert main(["--config", cfg, "--threads", threads, "--out",
                         str(out), "monotonicity"]) == EXIT_OK
            outs.append((out / "monotonicity_sweep.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCounterexample:
    def test_outputs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "counterexample",
                   "--s", "0.5", "--c", "0.8", "--lambda-min", "0.0",
                   "--lambda-max", "0.35", "--n-lambda", "8"])
        assert rc == EXIT_OK
        lines = (out / "counterexample.csv").read_text().strip().split("\n")
        assert lines[0] == "lambda,trace,derivative,numeric_trace"
        traces = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(a > b for a, b in zip(traces, traces[1:]))
        derivs = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(d < 0.0 for d in derivs)
        summary = json.loads((out / "counterexample_summary.json").read_text())
        assert summary["derivative_negative_below_cs"] is True

    def test_no_verdict_without_two_points_below_cs(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "counterexample",
                   "--s", "0.5", "--c", "0.8", "--lambda-min", "0.3",
                   "--lambda-max", "1.0", "--n-lambda", "3"])
        assert rc == EXIT_OK
        summary = json.loads((out / "counterexample_summary.json").read_text())
        assert summary["derivative_negative_below_cs"] is None
