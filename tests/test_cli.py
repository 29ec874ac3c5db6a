import ast
import gc
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import collect, dump_bytes
from hypothesis import given, settings
from hypothesis import strategies as st

import ebmvar
from ebmvar import cli
from ebmvar import covariance_engine as cov
from ebmvar import model_core as mc
from ebmvar import sde_engine as sde
from ebmvar import spatial_model as sm
from ebmvar.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_STABILITY,
    _table,
    main,
)
from ebmvar.config import load_config, model_params, sim_config

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


def _field_sections(which):
    """The spatial sections, which `simulate --which anomaly-field` alone of
    the four simulators reads."""
    return _spatial_sections() if which == "anomaly-field" else ""


# What each command form reads, as the CLI's declaration must read it: the
# sections, and for [sim] its keys (None: every key of the section).
_SIM_KEYS = ("dt", "n_steps", "n_paths", "seed")
_READS = {
    "variance-curve": {"model": None, "sweep": None},
    "wz-convergence": {"model": None, "sim": _SIM_KEYS},
    "simulate --which fast-slow": {"model": None, "sim": _SIM_KEYS},
    "simulate --which reduced": {
        "model": None, "sim": _SIM_KEYS + ("scheme", "drift_form")},
    "simulate --which anomaly-0d": {"model": None, "sim": _SIM_KEYS + ("scheme",)},
    "simulate --which anomaly-field": {
        "model": None, "grid": None, "boundary": None, "noise": None,
        "sim": _SIM_KEYS},
    "spatial-stationary": dict.fromkeys(("model", "grid", "boundary", "noise")),
    "monotonicity": dict.fromkeys(("model", "grid", "boundary", "noise", "sweep")),
    "counterexample": {},
}
_LAM0 = _constant_profile_lam(280.0)
# One small section of each name, with the required keys and [sim] seed.
_SECTIONS = {
    "model": _model_section(lam=_LAM0),
    "grid": "[grid]\nLx = 1.0\nLy = 1.0\nNx = 3\nNy = 3\n",
    "boundary": "[boundary]\ntheta = 280.0\n",
    "noise": "[noise]\nkernel = exponential\nlength = 0.5\n",
    "sim": "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 4\nseed = 1\n",
    "sweep": f"[sweep]\nlambda_min = {_LAM0 - 2.0:.17g}\n"
             f"lambda_max = {_LAM0 + 2.0:.17g}\nn_points = 2\n",
}
_EXTRA_SIM_VALUES = {"scheme": "milstein", "drift_form": "stratonovich-corrected"}


def _form_argv(form):
    """A command form's CLI words, with the flags its command requires."""
    extra = {"wz-convergence": ["--t", "0.5"],
             "counterexample": ["--s", "0.5", "--c", "0.8", "--n-lambda", "3"]}
    return form.split() + extra.get(form, [])


def _form_config(form):
    """The smallest config of every section `form` reads."""
    return "".join(_SECTIONS[name] for name in _READS[form])


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

    @pytest.mark.parametrize("blob", [
        b'{"model": {"Q": 100.0}}\n',
        b"[sim]\ndt = 0.1\n[sim]\ndt = 0.2\n",
        b"[sim]\ndt = 0.1\ndt = 0.2\n",
        b"\xff\xfe[sim]\n",
    ], ids=["no-section-header", "duplicate-section", "duplicate-key",
            "not-utf8"])
    def test_malformed_config_file(self, tmp_path, capsys, blob):
        """A file the INI parser cannot read is a config error with a
        message, not a traceback, and nothing is written."""
        path = tmp_path / "exp.ini"
        path.write_bytes(blob)
        out = tmp_path / "o"
        rc = main(["--config", str(path), "--out", str(out), "variance-curve"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: malformed config file")
        assert not out.exists()

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
        ("--x0-offset", "1e160"), ("--x0-offset", "-1e160"),
    ])
    def test_wz_refuses_unusable_horizon_or_offset(self, tmp_path, capsys,
                                                   flag, value):
        """A non-finite --t or --x0-offset, or a --t whose step count no
        array can hold, is a config error, and no output is written."""
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 4\nseed = 1\n"))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "wz-convergence",
                   f"{flag}={value}"])  # "-1e160" alone would read as a flag
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

    @pytest.mark.parametrize("length", ["0.5", "-3.0"])
    def test_identity_kernel_refuses_a_length(self, tmp_path, capsys, length):
        """The identity kernel reads no length: one, valid or not, is a
        config error before anything runs."""
        cfg = _write_cfg(tmp_path, _model_section() + _spatial_sections()
                         + f"length = {length}\n")  # appended to [noise]
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "spatial-stationary"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: noise: the identity kernel reads no length\n")
        assert not out.exists()

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

    # Path dumps beyond any disk, whole files counted (header, times and
    # values): nothing is allocated or written.
    @pytest.mark.parametrize("which, sim, need", [
        ("anomaly-field", "n_steps = 1600\nn_paths = 10000000000\n",
         "n_paths = 10000000000 paths of 1601 kept steps of d = 9 values "
         "need 1152720000012848 bytes"),
        ("reduced", "n_steps = 1000000000000\nn_paths = 1000\n",
         "n_paths = 1000 paths of 1000000000001 kept steps of d = 1 values "
         "need 8008000000008048 bytes"),
        ("anomaly-0d", "n_steps = 100000000000000000000\nn_paths = 2\n",
         "n_paths = 2 paths of 100000000000000000001 kept steps"),
        ("anomaly-field", "n_steps = 100000000000000000000\nn_paths = 2\n",
         "n_paths = 2 paths of 100000000000000000001 kept steps of d = 9 "
         "values need 15200000000000000000192 bytes"),
    ], ids=["field-paths", "reduced-steps", "anomaly0d-steps-overflow",
            "field-steps-overflow"])
    def test_outsized_sim_is_a_config_error(self, tmp_path, capsys, which, sim,
                                            need):
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _field_sections(which)
                + "[sim]\ndt = 0.001\nseed = 1\n" + sim)
        out = tmp_path / "o"
        rc = main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                   "simulate", "--which", which])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: [sim] " + need)
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    # Each first large request is beyond the 128 TiB user address space, so
    # it fails at once and nothing is allocated.  The message names the key
    # or flag that asked for it.
    @pytest.mark.parametrize("sections, argv, name", [
        ("[sweep]\nlambda_min = 500\nlambda_max = 520\n"
         "n_points = 100000000000000\n", ["variance-curve"],
         "sweep.n_points = 100000000000000"),
        ("[sweep]\nlambda_min = 500\nlambda_max = 520\n"
         "n_points = 100000000000000000000\n", ["variance-curve"],
         "sweep.n_points = 100000000000000000000"),
        (_spatial_sections(kernel="exponential")
         + "[sweep]\nlambda_min = 500\nlambda_max = 520\n"
           "n_points = 100000000000000\n", ["monotonicity"],
         "sweep.n_points = 100000000000000"),
        (None, ["counterexample", "--s", "0.5", "--c", "0.8",
                "--n-lambda", "100000000000000"], "--n-lambda 100000000000000"),
        (None, ["counterexample", "--s", "0.5", "--c", "0.8",
                "--n-lambda", "100000000000000000000"],
         "--n-lambda 100000000000000000000"),
        (_spatial_sections(Lx=8.0, Ly=8.0, n=2000, kernel="exponential"),
         ["spatial-stationary"],
         "kernel = exponential on grid.Nx = 2000, grid.Ny = 2000"),
        ("[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 100\nseed = 1\n",
         ["wz-convergence", "--t", "1e13"], "--t 10000000000000.0"),
        ("[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 100000000000000\n"
         "seed = 1\n", ["wz-convergence"], "n_paths = 100000000000000"),
    ], ids=["variance-curve-points", "variance-curve-points-overflow",
            "monotonicity-points", "counterexample-points",
            "counterexample-points-overflow", "stationary-grid",
            "wz-horizon", "wz-paths"])
    def test_oversized_input_is_a_config_error(self, tmp_path, capsys,
                                               sections, argv, name):
        out = tmp_path / "o"
        if sections is not None:
            argv = ["--config", _write_cfg(tmp_path, _model_section() + sections),
                    *argv]
        rc = main(["--out", str(out), *argv])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: ")
        assert name in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("seed_key, flags", [
        ("seed = 9223372036854775808\n", []),
        ("seed = -9223372036854775809\n", []),
        ("", ["--seed", "18446744073709551616"]),
    ], ids=["key-2**63", "key-below-int64", "flag-2**64"])
    def test_seed_outside_int64_is_a_config_error(self, tmp_path, capsys,
                                                  seed_key, flags):
        """The path dump stores the seed as an int64, and a wider one would
        alias another seed's streams: refused before anything runs."""
        text = (_model_section()
                + "[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\n" + seed_key)
        out = tmp_path / "o"
        rc = main(["--config", _write_cfg(tmp_path, text), *flags,
                   "--out", str(out), "simulate", "--which", "reduced"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: sim: seed must be in")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["spatial-stationary"], ["simulate", "--which", "anomaly-field"]],
        ids=["spatial-stationary", "anomaly-field"])
    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys,
                                              monkeypatch, command):
        """An --out below a regular file cannot be made: exit 2, naming the
        path, with no traceback and no thread left, and before the field
        is simulated."""
        simulated = []
        monkeypatch.setattr(sm, "simulate_anomaly_field",
                            lambda *args, **kwargs: simulated.append(args))
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections()
        if command[0] == "simulate":
            text += "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 2\nseed = 4\n"
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "o"
        before = threading.enumerate()
        rc = main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                   *command])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith(f"config error: cannot write {out}")
        assert "Traceback" not in err
        assert threading.enumerate() == before
        assert simulated == []

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
        ["--lambda-min", "1e200", "--lambda-max", "1e200", "--n-lambda", "1"],
    ], ids=["negative-n-lambda", "negative-lambda-min", "reversed-grid",
            "lambda-squared-past-float"])
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

    def test_eigensolver_failure_is_a_numerical_error(self, tmp_path,
                                                      monkeypatch):
        """At d = 64 K's abscissa comes from LOBPCG on the d x d operator;
        with no steps allowed it cannot converge, and that failure exits
        with the numerical-error code, not a traceback."""
        monkeypatch.setattr(cov, "_LOBPCG_MAXITER", 0)
        lam = _constant_profile_lam(280.0)
        text = _model_section(lam=lam) + _spatial_sections(
            Lx=8.0, Ly=8.0, n=9, kernel="exponential")
        cfg = _write_cfg(tmp_path, text)
        rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                   "spatial-stationary"])
        assert rc == EXIT_NUMERICAL


class TestConfigReads:
    """Each command form reads the sections, and the [sim] keys, that its
    entry of `cli._COMMANDS` declares; any other is refused before anything
    is written, and a form that reads none refuses --config."""

    def test_the_declaration(self):
        assert {form: reads for form, (_, reads) in cli._COMMANDS.items()} == _READS

    @pytest.mark.parametrize("form", list(_READS))
    def test_a_form_runs_on_what_it_reads_and_refuses_the_rest(
            self, tmp_path, capsys, form):
        argv, reads = _form_argv(form), _READS[form]
        if not reads:
            refused = [(path, f"{form} reads no config, got --config {path}")
                       for path in (_write_cfg(tmp_path, "".join(_SECTIONS.values())),
                                    str(tmp_path / "nope.ini"))]
        else:
            text = _form_config(form)
            refused = [(_write_cfg(tmp_path, text + _SECTIONS[name], f"{name}.ini"),
                        f"[{name}] is not read by {form}")
                       for name in _SECTIONS if name not in reads]
            for key, value in _EXTRA_SIM_VALUES.items():
                if "sim" in reads and key not in reads["sim"]:
                    sim = _SECTIONS["sim"] + f"{key} = {value}\n"
                    refused.append((
                        _write_cfg(tmp_path, text.replace(_SECTIONS["sim"], sim),
                                   f"{key}.ini"),
                        f"[sim] {key} = {value} is not read by {form}"))
        assert refused
        out = tmp_path / "o"
        for path, message in refused:
            assert main(["--config", path, "--out", str(out), *argv]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()
        config = ["--config", _write_cfg(tmp_path, text)] if reads else []
        assert main([*config, "--out", str(out), *argv]) == EXIT_OK
        assert any(out.iterdir())


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli():
    """The README's `## CLI` section."""
    return _README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def _reads_list():
    """What each command form reads, as the README lists it, from the CLI's
    declaration."""
    lines = []
    for form, (_, reads) in cli._COMMANDS.items():
        parts = [f"`[{name}]`" + ("" if keys is None else
                                  " (" + ", ".join(f"`{k}`" for k in keys) + ")")
                 for name, keys in reads.items()]
        lines.append(f"- `{form}`: " + (", ".join(parts) if parts
                                        else "no config; `--config` exits `2`"))
    return "\n".join(lines) + "\n"


class TestReadme:
    def test_the_cli_example_runs_as_documented(self, tmp_path, monkeypatch):
        """Each `ini` block of the README's CLI section is the file its first
        line names, and each `ebmvar` line there exits 0 in their directory."""
        text = _readme_cli()
        for block in re.findall(r"```ini\n(.*?)```", text, re.S):
            name = re.fullmatch(r"# (\S+\.ini)", block.split("\n", 1)[0])[1]
            (tmp_path / name).write_text(block)
        lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                 for line in block.splitlines() if line.startswith("ebmvar ")]
        assert len(lines) >= 4
        monkeypatch.chdir(tmp_path)
        for line in lines:
            assert main(shlex.split(line)[1:]) == EXIT_OK, line

    def test_the_config_list_is_the_declaration(self):
        """The README's list of what each command reads is `_reads_list()`,
        made from `cli._COMMANDS`; on a mismatch, paste the list it prints."""
        listed = _reads_list()
        assert listed in _readme_cli(), listed


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

    def _refused(self, tmp_path, capsys, text, command):
        out = tmp_path / "o"
        rc = main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                   command])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())
        return err

    @pytest.mark.parametrize("command", ["variance-curve", "monotonicity"])
    def test_a_descending_grid_is_refused(self, tmp_path, capsys, command):
        """Both sweeps compare consecutive forcings, so their grid runs
        upward; on the ice branch a grid from 525 down to 515 would read
        "not monotone" although var_inf rises with lambda."""
        spatial = _spatial_sections(kernel="exponential")
        err = self._refused(tmp_path, capsys, _model_section()
                            + (spatial if command == "monotonicity" else "")
                            + "[sweep]\nlambda_min = 525.0\nlambda_max = 515.0\n"
                              "n_points = 5\n", command)
        assert err.startswith("config error: need sweep.lambda_min <= "
                              "sweep.lambda_max, got 525.0 and 515.0")

    @pytest.mark.parametrize("sweep", [
        "lambda_min = 520.0\nlambda_max = 520.0\nn_points = 1\n",
        "lambda_min = 520.0\nlambda_max = 520.0\nn_points = 3\n",
        "lambda_min = 500.0\nlambda_max = 520.0\nn_points = 1\n",
        "lambda_min = 520.0\nlambda_max = 520.00000000000011\nn_points = 5\n"],
        ids=["one-point", "one-forcing-thrice", "one-point-of-a-range",
             "two-forcings-each-repeated"])
    def test_fewer_than_two_forcings_are_refused(self, tmp_path, capsys,
                                                 sweep):
        """The verdict reads consecutive differences: one forcing has none,
        and would read "strictly increasing" from the empty difference; a
        forcing repeated (520 and 520 + 1 ulp, five points) gives a zero
        difference, which would read "not monotone" on a rising var_inf."""
        err = self._refused(tmp_path, capsys,
                            _model_section() + "[sweep]\n" + sweep,
                            "variance-curve")
        assert err.startswith("config error: variance-curve needs two or more "
                              "distinct forcings")


def _cell(x) -> str:
    """One cell as the writer prints it, read cell by cell: the oracle."""
    if isinstance(x, float):  # numpy float64 included
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _reference_table(header, columns):
    rows = "".join(",".join(map(_cell, row)) + "\n" for row in zip(*columns))
    return (header + "\n" + rows).encode()


class _SliceLog(np.ndarray):
    """An array that logs the length of every slice taken from it."""

    log: list

    def __getitem__(self, key):
        out = super().__getitem__(key)
        self.log.append(len(out))
        return out


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308,
                                float("inf"), -float("inf"), float("nan"),
                                -float("nan"), 0.1 + 0.2])
_FLOATS = st.floats() | _EDGE_FLOATS
_FLOATS32 = st.floats(width=32) | st.sampled_from(
    [0.0, -0.0, 1e-45, 3.4028234663852886e38, float("inf"), float("nan")])
_INTS = st.integers(-2**63, 2**63 - 1)
_COLUMN_KINDS = {
    "float64": (_FLOATS, lambda v: np.array(v, dtype=np.float64)),
    "float32": (_FLOATS32, lambda v: np.array(v, dtype=np.float32)),
    "int64": (_INTS, lambda v: np.array(v, dtype=np.int64)),
    "uint64": (st.integers(2**53, 2**64 - 1),
               lambda v: np.array(v, dtype=np.uint64)),
    "bool": (st.booleans(), lambda v: np.array(v, dtype=bool)),
    "list": (st.one_of(
        _FLOATS, st.integers(-2**80, 2**80), _INTS.map(np.int64),
        _FLOATS.map(np.float64), _FLOATS32.map(np.float32), st.booleans(),
        st.none(), st.text(st.characters(blacklist_categories=("Cs",)),
                           max_size=8)), list),
}


@st.composite
def _tables(draw):
    """Columns of random kinds, 0 to 3 rows long or one block's rows, one
    less or one more."""
    n_cols = draw(st.integers(1, 4))
    block = cli._BLOCK // n_cols
    n = draw(st.integers(0, 3) | st.sampled_from([block - 1, block, block + 1]))
    columns = []
    for _ in range(n_cols):
        cells, make = _COLUMN_KINDS[draw(st.sampled_from(sorted(_COLUMN_KINDS)))]
        pool = draw(st.lists(cells, min_size=1, max_size=12))
        shift = draw(st.integers(0, 11))
        columns.append(make([pool[(i * 7 + shift) % len(pool)]
                             for i in range(n)]))
    return columns


class TestTable:
    def test_cells(self):
        columns = [(0.1 + 0.2, float("inf"), None),
                   (0.0, np.float64(1.0 / 3.0), "ice-sensitive"),
                   (-0.0, 7, 2.5e-300),
                   (float("nan"), True, False)]
        assert b"".join(_table("a,b,c,d", columns)) == (
            b"a,b,c,d\n"
            b"0.30000000000000004,0,-0,nan\n"
            b"inf,0.33333333333333331,7,True\n"
            b",ice-sensitive,2.5e-300,False\n")

    def test_float32_prints_as_str(self):
        """A float32 item is not a float: it prints as str() does, not with
        the 17 digits of its float64 value."""
        col = np.array([0.1, 1e-45], dtype=np.float32)
        assert b"".join(_table("x", [col])) == b"x\n0.1\n1e-45\n"

    @settings(max_examples=60, deadline=None)
    @given(_tables())
    def test_matches_the_cell_by_cell_writer(self, columns):
        header = ",".join(f"c{k}" for k in range(len(columns)))
        assert b"".join(_table(header, columns)) == _reference_table(
            header, columns)

    def test_one_block_is_formatted_ahead_of_the_write(self):
        """Each part the writer yields is one block of rows, sliced from
        each column only when the part before it has been taken."""
        step = cli._BLOCK // 2
        n = 2 * step + 3
        values = np.arange(n, dtype=np.float64).view(_SliceLog)
        values.log = []
        cells = list(range(n))

        class Listed(list):
            def __getitem__(self, key):
                out = super().__getitem__(key)
                self.log.append(len(out))
                return out

        listed = Listed(cells)
        listed.log = []
        parts = _table("a,b", [values, listed])
        assert next(parts) == b"a,b\n"
        assert values.log == listed.log == []
        first = next(parts)
        assert values.log == listed.log == [step]
        assert first.count(b"\n") == step
        rest = list(parts)
        assert values.log == listed.log == [step, step, 3]
        assert [part.count(b"\n") for part in rest] == [step, 3]
        assert b"".join([b"a,b\n", first, *rest]) == _reference_table(
            "a,b", [np.arange(n, dtype=np.float64), cells])

    def test_unequal_columns_are_refused(self):
        with pytest.raises(ValueError, match="length"):
            b"".join(_table("a,b", [[1.0, 2.0], [1.0]]))


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

    def test_refuses_a_single_path(self, tmp_path, capsys):
        """One path has no standard error: a config error, and no output."""
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 1\nseed = 1\n"))
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out), "wz-convergence"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "n_paths" in err
        assert not out.exists()

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

    def test_tiny_horizon_keeps_its_standard_error(self, tmp_path):
        """At t = 1e-300 the squared gaps are about 1e-300, so their squared
        deviations underflow: the standard error must still come out
        positive, with every row's estimate within 3 SE of the closed form."""
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 200\nseed = 1\n"))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "wz-convergence", "--t", "1e-300"]) == EXIT_OK
        lines = (out / "wz_convergence.csv").read_text().strip().split("\n")
        for line in lines[1:]:
            _, mc_est, exact, se_val = map(float, line.split(","))
            assert se_val > 0.0
            assert abs(mc_est - exact) <= 3.0 * se_val
        summary = json.loads((out / "wz_convergence_summary.json").read_text())
        assert summary["within_3se"] is True

    @pytest.mark.parametrize("key, value", [
        ("scheme", "milstein"), ("drift_form", "stratonovich-corrected")])
    def test_an_unread_sim_key_is_refused(self, tmp_path, capsys, key, value):
        """The Wong-Zakai ladder reads neither key: each exits 2 with a line
        that names it and its value, before anything is written."""
        cfg = _write_cfg(tmp_path, _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 10\nn_paths = 20\nseed = 1\n"
            f"{key} = {value}\n"))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "wz-convergence"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: [sim] {key} = {value} is not read by "
            "wz-convergence\n")
        assert not out.exists()

    def test_the_benchmark_sections_run(self, tmp_path):
        """bench/mc_stream.py's wz sections set dt and n_steps, which the
        ladder does not read either: they stay accepted."""
        path = Path(__file__).parent.parent / "bench" / "mc_stream.py"
        spec = importlib.util.spec_from_file_location("mc_stream", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        _, sections, args = bench.commands()[0]
        assert {"dt", "n_steps"} <= set(sections["sim"])
        cfg = _write_cfg(tmp_path, bench.config_text(sections))
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out), *args]) == EXIT_OK
        assert (out / "wz_convergence_summary.json").exists()


class TestScalingBench:
    def test_values_agree_only_when_compared(self, monkeypatch):
        """bench/scaling.py's values_agree is None unless every tree
        finished a run, else whether all their values are equal."""
        bench_dir = Path(__file__).parent.parent / "bench"
        monkeypatch.syspath_prepend(str(bench_dir))
        spec = importlib.util.spec_from_file_location(
            "scaling", bench_dir / "scaling.py")
        scaling = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(scaling)
        runs = [{"value": 1.5}, {"value": 1.5}]
        assert scaling.values_agree({"after": []}) is None
        assert scaling.values_agree({"before": [], "after": runs}) is None
        assert scaling.values_agree({"before": runs, "after": runs}) is True
        assert scaling.values_agree(
            {"before": runs, "after": [{"value": 2.5}]}) is False


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
            blobs.append((out / "reduced_paths.bin").read_bytes())
        bundle = sde.PathBundle.from_binary(blobs[0])
        assert bundle.values.shape == (3, 51) and bundle.seed == 2
        assert bundle.times[0] == 0.0
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

    @pytest.mark.parametrize("seed", [-2**63, -1, 2**63 - 1])
    def test_int64_seed_extremes_run(self, tmp_path, seed):
        text = _model_section() + (
            f"[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\nseed = {seed}\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "simulate", "--which", "reduced"]) == EXIT_OK
        blob = (out / "reduced_paths.bin").read_bytes()
        assert sde.PathBundle.from_binary(blob).seed == seed

    def test_fast_slow_outputs(self, tmp_path):
        text = _model_section() + (
            "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 2\nseed = 3\n")
        cfg = _write_cfg(tmp_path, text)
        out = tmp_path / "o"
        rc = main(["--config", cfg, "--out", str(out),
                   "simulate", "--which", "fast-slow"])
        assert rc == EXIT_OK
        for name in ("fast", "slow"):
            bundle = sde.PathBundle.from_binary(
                (out / f"{name}_paths.bin").read_bytes())
            assert bundle.values.shape == (2, 21) and bundle.seed == 3
            assert bundle.times[0] == 0.0
            assert (out / f"{name}_moments.csv").exists()

    LIBRARY = [
        ("reduced", lambda p, root, s: {
            "reduced": collect(sde.simulate_reduced_sde, p, root.T_star, s)}),
        ("anomaly-0d", lambda p, root, s: {
            "anomaly0d": collect(sde.simulate_linear_anomaly, root.b, root.sigma0,
                                 root.sigma1, p.tau, 0.0, s)}),
        ("fast-slow", lambda p, root, s: dict(zip(
            ("fast", "slow"), np.moveaxis(collect(
                sde.simulate_fast_slow, p, x0=p.Q, theta0=root.T_star, cfg=s),
                2, 0)))),
    ]

    @pytest.mark.parametrize("which, library", LIBRARY,
                             ids=["reduced", "anomaly-0d", "fast-slow"])
    def test_one_dump_per_bundle(self, tmp_path, which, library):
        """Each scalar bundle `<name>` is written as exactly
        `<name>_paths.bin` and `<name>_moments.csv`; the dump is the dump
        reference of the library run's states on the same config, and the
        table is their path_moments over the whole run, bit for bit."""
        _scalar_outputs_are_the_library(tmp_path, which, library, 30, 3)

    # (n_steps, steps a block, paths): blocks of one step; a last block of
    # one step (step 7, after 4-6); 150 paths, summed in chunks of 64, 64
    # and 22, where a one-step block summed pairwise would differ; a single
    # path (NaN standard errors); two paths.
    @pytest.mark.parametrize("n_steps, block, n_paths", [
        (5, 1, 3), (7, 3, 3), (7, 3, 150), (7, 3, 1), (8, 3, 2)],
        ids=["5-1", "7-3", "7-3-150-paths", "7-3-1-path", "8-3-2-paths"])
    @pytest.mark.parametrize("which", ["reduced", "anomaly-0d", "fast-slow"])
    def test_scalar_outputs_at_any_block_edge(self, tmp_path, monkeypatch,
                                              which, n_steps, block, n_paths):
        """A run handed over in blocks writes the library run's dump and its
        whole-run path_moments table, bit for bit, wherever a block ends."""
        # Scalar runs draw one normal a path a step.
        monkeypatch.setattr(sde, "_DRAW_NORMALS", 2 * block * n_paths)
        library = dict(self.LIBRARY)[which]
        _scalar_outputs_are_the_library(tmp_path, which, library, n_steps,
                                        n_paths)

    def test_fast_slow_holds_no_whole_run(self, tmp_path, monkeypatch):
        """fast-slow in 40 blocks of 50 steps: the traced peak stays below
        one whole (n_paths, n_steps + 1, 2) float64 state array."""
        n_paths, n_steps = 200, 2000
        monkeypatch.setattr(sde, "_DRAW_NORMALS", 2 * 50 * n_paths)
        cfg = _write_cfg(tmp_path, _model_section() + (
            f"[sim]\ndt = 0.001\nn_steps = {n_steps}\nn_paths = {n_paths}\n"))
        tracemalloc.start()
        try:
            rc = main(["--config", cfg, "--out", str(tmp_path / "o"),
                       "simulate", "--which", "fast-slow"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        assert peak < 8 * n_paths * (n_steps + 1) * 2

    @pytest.mark.parametrize("which, key, value", [
        ("fast-slow", "scheme", "milstein"),
        ("fast-slow", "drift_form", "stratonovich-corrected"),
        ("anomaly-0d", "drift_form", "stratonovich-corrected"),
        ("anomaly-field", "scheme", "milstein"),
        ("anomaly-field", "drift_form", "ito"),
    ])
    def test_an_unread_sim_key_is_refused(self, tmp_path, capsys, which, key,
                                          value):
        """A [sim] key the simulator would ignore exits 2 with a line that
        names it, its value and the --which, before anything is written."""
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam) + _spatial_sections()
                         + "[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\n"
                         + f"{key} = {value}\n")
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "simulate", "--which", which]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: [sim] {key} = {value} is not read by "
            f"simulate --which {which}\n")
        assert not out.exists()

    def test_reduced_reads_scheme_and_drift_form(self, tmp_path):
        """The one simulator that reads both keys runs with them, and each
        changes its dump."""
        blobs = []
        for extra in ("", "scheme = milstein\n",
                      "drift_form = stratonovich-corrected\n"):
            out = tmp_path / f"o{len(blobs)}"
            cfg = _write_cfg(tmp_path, _model_section() + (
                "[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\n" + extra))
            assert main(["--config", cfg, "--out", str(out),
                         "simulate", "--which", "reduced"]) == EXIT_OK
            blobs.append((out / "reduced_paths.bin").read_bytes())
        assert len(set(blobs)) == 3

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
        """anomaly_field.bin is the dump reference of the library run's
        states, and the traces are (values**2).sum(2).mean(0) bit for bit,
        on a run that the kernel hands over in blocks of 3 steps, the last
        one step."""
        from ebmvar import sde_engine as se

        calls = []
        simulate = sm.simulate_anomaly_field

        def recording(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(sm, "simulate_anomaly_field", recording)
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * 3 * 40 * 9)  # d = 9
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _spatial_sections(kernel="exponential")
                + "[sim]\ndt = 0.001\nn_steps = 19\nn_paths = 40\nseed = 4\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "simulate", "--which", "anomaly-field"]) == EXIT_OK
        ((ops, sim),) = calls
        values, times = collect(simulate, ops, sim), sde.kept_times(sim)
        assert (out / "anomaly_field.bin").read_bytes() == dump_bytes(
            times, values, sim.seed)
        traces = (values ** 2).sum(axis=2).mean(axis=0)
        expected = ["time,mc_trace"] + [f"{t:.17g},{tr:.17g}"
                                        for t, tr in zip(times, traces)]
        assert ((out / "anomaly_field_trace.csv").read_text()
                == "\n".join(expected) + "\n")

    # (n_steps, steps a block, paths): blocks of one step; a last block of
    # one step (step 22, after 21); a last block of two (steps 19 and 20);
    # and 150 paths, which the sink squares in chunks of 64, 64 and 22.
    @pytest.mark.parametrize("n_steps, block, n_paths", [
        (6, 1, 40), (22, 3, 40), (20, 3, 40), (8, 3, 150)],
        ids=["6-1", "22-3", "20-3", "8-3-150-paths"])
    def test_field_dump_is_the_bundle_at_any_block_edge(self, tmp_path,
                                                        monkeypatch, n_steps,
                                                        block, n_paths):
        """The field's sink writes the dump reference of the library run's
        states, which from_binary reads back, and its traces are
        (values**2).sum(2).mean(0) exactly, at the times of the trace
        table."""
        calls = []
        simulate = sm.simulate_anomaly_field

        def recording(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(sm, "simulate_anomaly_field", recording)
        monkeypatch.setattr(sde, "_DRAW_NORMALS", 2 * block * n_paths * 9)  # d = 9
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _spatial_sections(kernel="exponential")
                + f"[sim]\ndt = 0.001\nn_steps = {n_steps}\n"
                  f"n_paths = {n_paths}\nseed = 2\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "simulate", "--which", "anomaly-field"]) == EXIT_OK
        ((ops, cfg),) = calls
        values, times = collect(simulate, ops, cfg), sde.kept_times(cfg)
        blob = (out / "anomaly_field.bin").read_bytes()
        assert blob == dump_bytes(times, values, cfg.seed)
        np.testing.assert_array_equal(sde.PathBundle.from_binary(blob).values,
                                      values)
        traces = (values ** 2).sum(axis=2).mean(axis=0)
        assert (out / "anomaly_field_trace.csv").read_bytes() == b"".join(
            _table("time,mc_trace", (times, traces)))

    @pytest.mark.parametrize("which, table, dumps", [
        ("reduced", "reduced_moments.csv", ["reduced_paths.bin"]),
        ("fast-slow", "slow_moments.csv", ["fast_paths.bin", "slow_paths.bin"]),
        ("anomaly-field", "anomaly_field_trace.csv", ["anomaly_field.bin"]),
    ], ids=["reduced", "fast-slow", "anomaly-field"])
    def test_a_failed_table_write_removes_the_dumps(self, tmp_path, capsys,
                                                    which, table, dumps):
        """A per-time table that cannot be written, here because a directory
        holds its name (for fast-slow the second table), exits 2 naming it,
        and no dump or table of the run is left: `--out` holds only that
        directory."""
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam) + _field_sections(which)
                         + "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 4\n")
        out = tmp_path / "o"
        (out / table).mkdir(parents=True)
        assert main(["--config", cfg, "--out", str(out),
                     "simulate", "--which", which]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / table}: ")
        assert [name for name in dumps if (out / name).exists()] == []
        assert [path.name for path in out.iterdir()] == [table]

    # pwrite calls: one per path a block, the header and times being written
    # when the dump is made; fast-slow writes a block's fast paths, then its
    # slow paths, so call 25 is slow's ninth path of the initial state.  Call
    # 40 of the field is in its second block.
    @pytest.mark.parametrize("which, name, fail_at", [
        ("reduced", "reduced_paths.bin", 10),
        ("anomaly-0d", "anomaly0d_paths.bin", 10),
        ("fast-slow", "slow_paths.bin", 25),
        ("anomaly-field", "anomaly_field.bin", 40),
    ], ids=["reduced", "anomaly-0d", "fast-slow", "anomaly-field"])
    def test_anomaly_field_dump_failure_reaches_the_caller(
            self, tmp_path, capsys, monkeypatch, which, name, fail_at):
        """A write of a path dump that fails mid-dump, for the field while
        the next block is drawn, exits 2 naming the file, with no
        traceback, no partial dump, no other output and no thread left."""
        from ebmvar import sde_engine as se

        pwrite = os.pwrite

        def failing(fd, data, offset):
            failing.calls += 1
            if failing.calls == fail_at:
                raise OSError(28, "No space left on device")
            return pwrite(fd, data, offset)

        failing.calls = 0
        monkeypatch.setattr(os, "pwrite", failing)
        monkeypatch.setattr(se, "_DRAW_NORMALS", 2 * 3 * 16 * 9)  # d = 9
        lam = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam) + _field_sections(which)
                + "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 16\nseed = 4\n")
        out = tmp_path / "o"
        before = threading.enumerate()
        rc = main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                   "simulate", "--which", which])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith(f"config error: cannot write {out / name}: ")
        assert "No space left on device" in err and "Traceback" not in err
        assert failing.calls == fail_at
        assert list(out.iterdir()) == []
        assert threading.enumerate() == before

    @pytest.mark.parametrize("which, names, d", [
        ("reduced", ["reduced_paths.bin"], 0),
        ("anomaly-0d", ["anomaly0d_paths.bin"], 0),
        ("fast-slow", ["fast_paths.bin", "slow_paths.bin"], 0),
        ("anomaly-field", ["anomaly_field.bin"], 9),
    ], ids=["reduced", "anomaly-0d", "fast-slow", "anomaly-field"])
    def test_a_dump_the_disk_cannot_hold_is_refused(self, tmp_path, capsys,
                                                    monkeypatch, which, names,
                                                    d):
        """With one byte less free than the run's dumps need together (each
        one's 40-byte header, times and values), and for fast-slow with
        room for one dump only, the command exits 2 naming the dumps, before
        the simulator is called, and leaves nothing in --out; with exactly
        as many bytes free, it runs."""
        one = 40 + 8 * 21 + 8 * 16 * 21 * max(d, 1)  # 16 paths of 21 states
        need = len(names) * one
        free = [None]
        monkeypatch.setattr(shutil, "disk_usage",
                            lambda path: SimpleNamespace(free=free[0]))
        calls = []
        for module, fn in [(sde, "simulate_reduced_sde"),
                           (sde, "simulate_linear_anomaly"),
                           (sde, "simulate_fast_slow"),
                           (sm, "simulate_anomaly_field")]:
            def recording(*args, _run=getattr(module, fn), **kwargs):
                calls.append(args)
                return _run(*args, **kwargs)

            monkeypatch.setattr(module, fn, recording)
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam) + _field_sections(which)
                         + "[sim]\ndt = 0.001\nn_steps = 20\nn_paths = 16\n")
        out = tmp_path / "o"
        argv = ["--config", cfg, "--out", str(out), "simulate", "--which", which]
        where = " and ".join(str(out / name) for name in names)
        for free[0] in [need - 1] + [one] * (len(names) > 1):
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"config error: [sim] n_paths = 16 paths of 21 kept steps of "
                f"d = {max(d, 1)} values need {need} bytes in {where}, more "
                f"than the {free[0]} free\n")
            assert calls == [] and list(out.iterdir()) == []

        free[0] = need
        assert main(argv) == EXIT_OK
        assert len(calls) == 1
        assert [(out / name).stat().st_size for name in names] == [one] * len(names)


def _scalar_outputs_are_the_library(tmp_path, which, library, n_steps,
                                    n_paths):
    """Run `simulate --which` on n_paths paths of n_steps steps and check
    that it writes exactly `<name>_paths.bin` and `<name>_moments.csv` for
    each library run `<name>` of the same config: the dump reference of its
    states and the `_table` of their path_moments over the whole run."""
    cfg = _write_cfg(tmp_path, _model_section() + (
        f"[sim]\ndt = 0.001\nn_steps = {n_steps}\nn_paths = {n_paths}\n"
        "seed = 5\n"))
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out),
                 "simulate", "--which", which]) == EXIT_OK
    config = load_config(cfg)
    p = model_params(config)
    root = mc.select_root(mc.equilibrium_roots(p))
    sim = sim_config(config)
    runs = library(p, root, sim)
    times = sde.kept_times(sim)
    assert {f.name for f in out.iterdir()} == {
        f"{name}{suffix}" for name in runs
        for suffix in ("_paths.bin", "_moments.csv")}
    for name, values in runs.items():
        assert (out / f"{name}_paths.bin").read_bytes() == dump_bytes(
            times, values, sim.seed)
        assert (out / f"{name}_moments.csv").read_bytes() == b"".join(_table(
            "time,mean,variance,se_mean,se_variance",
            (times, *sde.path_moments(values))))


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
        """d = 1 (Nx = Ny = 2): K is 1 x 1, so LOBPCG's first residual is
        zero and its abscissa is K's one entry exactly."""
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
        assert cert["eig_route"] == "iterative"
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

    @pytest.mark.parametrize("unstable", [False, True], ids=["stable", "refused"])
    def test_one_eigh_per_run(self, tmp_path, monkeypatch, unstable):
        """The certificate and the stationary solve share the run's one
        eigendecomposition of M; a refused run still writes the certificate
        first.  LOBPCG's Rayleigh-Ritz problems are at most 3 x 3, so the
        count keeps the d x d calls only."""
        calls = []
        original = np.linalg.eigh

        def counting(*args, **kwargs):
            if args[0].shape[0] > 3:
                calls.append(args[0].shape)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        lam = _constant_profile_lam(280.0)
        text = (UNSTABLE_K_CONFIG if unstable
                else _model_section(lam=lam) + _spatial_sections())
        out = tmp_path / "o"
        rc = main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                   "spatial-stationary"])
        assert rc == (EXIT_STABILITY if unstable else EXIT_OK)
        assert (out / "certificate.json").exists()
        assert calls == [(9, 9)]

    def test_certificate_bytes_reproducible_across_processes(self, tmp_path):
        """At d = 64 the certificate takes the LOBPCG route; two fresh
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

    def test_a_negative_derivative_entry_is_not_monotone(self, tmp_path,
                                                         monkeypatch):
        """With dGamma/dlambda stubbed to hold a negative entry, every point
        of the benchmark's smoke sweep is applicable but mixed, and the sweep
        is not monotone."""
        monkeypatch.setattr(cov, "covariance_derivative",
                            lambda ops, df: -np.eye(ops.d))
        lam0 = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam0) + _spatial_sections(kernel="exponential")
                + f"[sweep]\nlambda_min = {lam0 - 4.0:.17g}\n"
                  f"lambda_max = {lam0 + 4.0:.17g}\nn_points = 2\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out",
                     str(out), "monotonicity"]) == EXIT_OK
        rows = (out / "monotonicity_sweep.csv").read_text().splitlines()[1:]
        assert [row.split(",")[4] for row in rows] == ["mixed"] * 2
        summary = json.loads((out / "monotonicity_summary.json").read_text())
        assert summary["verdict"] == "not monotone"
        assert summary["n_applicable"] == 2

    def test_non_hurwitz_point_is_a_hypothesis_violation(self, tmp_path):
        """A point where K is not Hurwitz is flagged with the certificate's
        refusal, not as a solver error."""
        text = UNSTABLE_K_CONFIG + (
            "[sweep]\nlambda_min = 525.5\nlambda_max = 526.5\nn_points = 3\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "monotonicity"]) == EXIT_OK
        note = "K is not Hurwitz: its spectral abscissa is 7.921e-01"
        lines = (out / "monotonicity_sweep.csv").read_text().splitlines()
        assert lines[2] == f"526,False,,,non-applicable,{note}"
        summary = json.loads((out / "monotonicity_summary.json").read_text())
        assert summary["hypothesis_violations"] == [
            note, "profile leaves the ice-sensitive band"]

    def test_coercivity_is_the_certificates(self, tmp_path):
        """Q s = 2.59 > r1 = 2, but the profile lies on the warm plateau,
        where beta' = 0: b = r1 at every node, so the certificate finds the
        sweep point coercive, and the band alone is named."""
        text = (_model_section(Q=300.0, lam=410.0)
                + _spatial_sections(theta=310.0) + "[sweep]\nlambda_min = "
                "408.0\nlambda_max = 412.0\nn_points = 3\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "monotonicity"]) == EXIT_OK
        lines = (out / "monotonicity_sweep.csv").read_text().splitlines()
        assert [line.split(",")[-1] for line in lines[1:]] == [
            "profile leaves the ice-sensitive band"] * 3
        assert [line.split(",")[4] for line in lines[1:]] == [
            "non-applicable"] * 3
        summary = json.loads((out / "monotonicity_summary.json").read_text())
        assert summary["hypothesis_violations"] == [
            "profile leaves the ice-sensitive band"]
        assert summary["verdict"] == "non-applicable"


class TestParallelMap:
    def test_the_pool_is_capped_at_the_core_count(self, monkeypatch):
        """More threads than cores start one worker per core: with
        `threading.Thread` an inline stub, 10 000 items on 10**6 threads make
        at most os.cpu_count() workers, and the results keep their order.
        The stub runs its worker at join(), when every worker has started."""
        made = []

        class InlineThread:
            def __init__(self, target, args):
                self.target, self.args = target, args
                made.append(self)

            def start(self):
                pass

            def join(self):
                self.target(*self.args)

        monkeypatch.setattr(cli.threading, "Thread", InlineThread)
        items = list(range(10_000))
        assert cli._parallel_map(lambda x: x * x, items, 10**6) == [
            x * x for x in items]
        assert len(made) <= (os.cpu_count() or 1)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
    def test_no_worker_begins_before_all_have_started(self, monkeypatch):
        """Every worker is alive while any item runs, so no two workers can
        share a thread ident: here each start() returns 50 ms after its
        thread starts, long after a worker that began at once had finished."""
        started, seen = [], []

        class SlowStart(threading.Thread):
            def start(self):
                super().start()
                threading.Event().wait(0.05)
                started.append(self)

        def fn(x):
            seen.append(len(started))
            return x

        monkeypatch.setattr(cli.threading, "Thread", SlowStart)
        assert cli._parallel_map(fn, [0, 1], 2) == [0, 1]
        assert seen == [2, 2]


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


class TestOneSolve:
    """Every generalized-Lyapunov solve goes through `cov._solve`, the one
    caller of `_gmres`: Gamma and dGamma/dlambda.  The Hurwitz gate reads
    the certificate and solves nothing."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        original = cov._solve

        def counting(ops, R):
            calls.append(ops.d)
            return original(ops, R)

        monkeypatch.setattr(cov, "_solve", counting)
        return calls

    @pytest.mark.parametrize("flags", [[], ["--force"]],
                             ids=["gate-and-gamma", "force"])
    def test_spatial_stationary(self, tmp_path, solves, flags):
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam) + _spatial_sections())
        assert main(["--config", cfg, "--out", str(tmp_path / "o"), *flags,
                     "spatial-stationary"]) == EXIT_OK
        assert solves == [9]

    def test_refused_run_stops_after_the_gate(self, tmp_path, solves):
        cfg = _write_cfg(tmp_path, UNSTABLE_K_CONFIG)
        out = tmp_path / "o"
        assert main(["--config", cfg, "--out", str(out),
                     "spatial-stationary"]) == EXIT_STABILITY
        assert (out / "certificate.json").exists()
        assert solves == []

    def test_two_per_sweep_point(self, tmp_path, solves):
        lam0 = _constant_profile_lam(280.0)
        text = (_model_section(lam=lam0) + _spatial_sections()
                + f"[sweep]\nlambda_min = {lam0 - 2.0:.17g}\n"
                  f"lambda_max = {lam0 + 2.0:.17g}\nn_points = 3\n")
        out = tmp_path / "o"
        assert main(["--config", _write_cfg(tmp_path, text), "--out", str(out),
                     "monotonicity"]) == EXIT_OK
        summary = json.loads((out / "monotonicity_summary.json").read_text())
        assert summary["n_applicable"] == 3
        assert solves == [9] * 6

    def test_gmres_has_one_caller(self):
        callers = []
        for path in Path(cov.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    callers += [(path.stem, fn.name) for node in ast.walk(fn)
                                if isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Name)
                                and node.func.id == "_gmres"]
        assert callers == [("covariance_engine", "_solve")]


class TestOneFactorisation:
    """The noise covariance C is factored only where a factor is used: once
    per anomaly-field run, by `cholesky_with_jitter`.  Counted are that
    function and numpy's Cholesky of a d x d matrix; the Newton solve's
    Cholesky checks of its (Nx-1)-square pivot blocks are not."""

    @pytest.fixture
    def factorisations(self, monkeypatch):
        calls = []
        jittered, cholesky = sm.cholesky_with_jitter, np.linalg.cholesky

        def counting_jittered(C, jitter):
            calls.append(("cholesky_with_jitter", len(C)))
            return jittered(C, jitter)

        def counting_cholesky(a, *args, **kwargs):
            calls.append(("cholesky", len(a)))
            return cholesky(a, *args, **kwargs)

        monkeypatch.setattr(sm, "cholesky_with_jitter", counting_jittered)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        return calls

    def _run(self, tmp_path, extra, *command):
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam)
                         + _spatial_sections(kernel="exponential") + extra)
        assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                     *command]) == EXIT_OK

    def test_spatial_stationary(self, tmp_path, factorisations):
        self._run(tmp_path, "", "spatial-stationary")
        assert [c for c in factorisations if c[1] == 9] == []

    def test_monotonicity(self, tmp_path, factorisations):
        lam0 = _constant_profile_lam(280.0)
        self._run(tmp_path, f"[sweep]\nlambda_min = {lam0 - 2.0:.17g}\n"
                            f"lambda_max = {lam0 + 2.0:.17g}\nn_points = 3\n",
                  "monotonicity")
        assert [c for c in factorisations if c[1] == 9] == []

    def test_counterexample(self, tmp_path, factorisations):
        assert main(["--out", str(tmp_path / "o"), "counterexample",
                     "--s", "0.5", "--c", "0.8"]) == EXIT_OK
        assert factorisations == []

    def test_anomaly_field(self, tmp_path, factorisations):
        self._run(tmp_path, "[sim]\ndt = 0.001\nn_steps = 5\nn_paths = 2\n",
                  "simulate", "--which", "anomaly-field")
        assert [c for c in factorisations if c[1] == 9] == [
            ("cholesky_with_jitter", 9), ("cholesky", 9)]

    def test_cholesky_with_jitter_has_one_caller(self):
        callers = []
        for path in Path(sm.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef):
                    callers += [(path.stem, fn.name) for node in ast.walk(fn)
                                if isinstance(node, ast.Call)
                                and "cholesky_with_jitter" in (
                                    getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
        assert callers == [("spatial_model", "simulate_anomaly_field")]


class TestPsdEigensolve:
    """`is_psd` costs a d x d eigvalsh of Gamma, run when it is first read:
    spatial-stationary's summary reads it, a sweep point never does."""

    @pytest.fixture
    def eigensolves(self, monkeypatch):
        sizes, eigvalsh = [], np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            sizes.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return sizes

    _run = TestOneFactorisation._run  # on the same d = 9 config

    def test_spatial_stationary(self, tmp_path, eigensolves):
        self._run(tmp_path, "", "spatial-stationary")
        assert eigensolves.count(9) == 1

    def test_monotonicity(self, tmp_path, eigensolves):
        lam0 = _constant_profile_lam(280.0)
        self._run(tmp_path, f"[sweep]\nlambda_min = {lam0 - 2.0:.17g}\n"
                            f"lambda_max = {lam0 + 2.0:.17g}\nn_points = 3\n",
                  "monotonicity")
        assert eigensolves.count(9) == 0


# Runs `import ebmvar.cli`, records the scipy modules then loaded, runs each
# command of the JSON list in argv[1] and records them again.
_SCIPY_PROBE = """
import json, sys
import ebmvar.cli as cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"after_import": after_import, "codes": codes,
                  "after_commands": scipy_modules()}))
"""


class TestNumpyOnly:
    def test_no_command_loads_scipy(self, tmp_path):
        """`import ebmvar.cli` and every command, each on a tiny config, leave
        no scipy module in sys.modules: the CLI runs on numpy alone."""
        argvs = []
        for i, form in enumerate(_READS):
            config = []
            if _READS[form]:
                config = ["--config", _write_cfg(tmp_path, _form_config(form),
                                                 f"{i}.ini")]
            argvs.append([*config, "--out", str(tmp_path / str(i)),
                          *_form_argv(form)])
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ebmvar.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE,
                               json.dumps(argvs)], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"after_import": [], "codes": [EXIT_OK] * len(argvs),
                          "after_commands": []}


# Prints the freeze count after `import ebmvar.cli` and after `cli.run()` on
# the arguments that follow, and run()'s exit code.
_FREEZE_PROBE = """
import gc
import ebmvar.cli as cli
imported = gc.get_freeze_count()
rc = cli.run()
print(imported, gc.get_freeze_count(), rc)
"""


class TestEntry:
    """`run()`, behind `python -m ebmvar.cli` and the `ebmvar` script,
    freezes the import-time heap and then is `main()`."""

    @staticmethod
    def _python(args, tmp_path):
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ebmvar.__file__).resolve().parents[1]))
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)

    def test_writes_the_bytes_of_main(self, tmp_path):
        lam = _constant_profile_lam(280.0)
        cfg = _write_cfg(tmp_path, _model_section(lam=lam) + _spatial_sections(
            Lx=8.0, Ly=8.0, n=5, kernel="exponential"))
        proc = self._python(["-m", "ebmvar.cli", "--config", cfg, "--out",
                             str(tmp_path / "entry"), "spatial-stationary"],
                            tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert main(["--config", cfg, "--out", str(tmp_path / "main"),
                     "spatial-stationary"]) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert sorted(p.name for p in (tmp_path / "entry").iterdir()) == names
        summary = tmp_path / "main" / "spatial_stationary_summary.json"
        assert json.loads(summary.read_text())["d"] == 16
        for name in names:
            assert ((tmp_path / "entry" / name).read_bytes()
                    == (tmp_path / "main" / name).read_bytes()), name

    def test_config_error_exits_2_without_a_traceback(self, tmp_path):
        missing = tmp_path / "missing.ini"
        proc = self._python(["-m", "ebmvar.cli", "--config", str(missing),
                             "--out", str(tmp_path / "o"), "spatial-stationary"],
                            tmp_path)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith(
            f"config error: cannot read config file {str(missing)!r}")
        assert "Traceback" not in proc.stderr

    def test_run_freezes_the_heap(self, tmp_path):
        proc = self._python(["-c", _FREEZE_PROBE, "--out", str(tmp_path / "o"),
                             "counterexample", "--s", "0.5", "--c", "0.8"],
                            tmp_path)
        imported, frozen, rc = map(int, proc.stdout.split())
        assert (imported, rc) == (0, EXIT_OK)
        assert frozen > 0

    def test_main_does_not_freeze(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["--out", str(tmp_path / "o"), "counterexample",
                     "--s", "0.5", "--c", "0.8"]) == EXIT_OK
        assert gc.get_freeze_count() == before
