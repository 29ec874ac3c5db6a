"""Output checks for the benchmark's CLI commands.

Each check re-reads what a command wrote and tests it against a fact
computed here, through the package's public functions or a closed form, and
returns a list of failures (empty when the outputs are correct).  Checks run
outside the timed region.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ebmvar import covariance_engine as ce
from ebmvar import model_core as mc
from ebmvar import sde_engine as se
from ebmvar import spatial_model as sm
from ebmvar.errors import EbmvarError

# Monte Carlo checks use a window of 4 standard errors.  The benchmark's
# seed changes from run to run, and a benchmark is run hundreds of times: a
# 3-SE window on the four Wong-Zakai estimates would fail about once in 90
# runs by chance alone (about once in 200 for the anomaly field, whose
# Euler-Maruyama bias is about +0.4 SE), while 4 SE fails about once in
# 4000 runs and still rejects any bias of a few standard errors.
MC_WINDOW_SE = 4.0
RESIDUAL_TOL = 1e-9      # relative to the forcing term tau*C∘(f f^T)
PSD_TOL = 1e-8           # relative to the spectral norm of Gamma


def model_params(m: dict) -> mc.EbmParams:
    return mc.EbmParams(beta_min=m["beta_min"], beta_max=m["beta_max"],
                        T_l=m["T_l"], T_u=m["T_u"], r0=m["r0"], r1=m["r1"],
                        Q=m["Q"], lam=m["lambda"], tau=m["tau"])


def build_ops(cfg: dict) -> sm.SpatialOperators:
    """Drift and noise operators of a spatial config, via public functions."""
    p, g = model_params(cfg["model"]), cfg["grid"]
    grid = sm.Grid2D(Lx=g["Lx"], Ly=g["Ly"], Nx=g["Nx"], Ny=g["Ny"])
    theta = sm.BoundaryTrace.constant(cfg["boundary"]["theta"])
    q_field = sm.SpatialField.constant(grid, p.Q)
    noise = sm.build_noise_covariance(grid, cfg["noise"]["kernel"],
                                      length=cfg["noise"]["length"])
    profile = sm.solve_equilibrium_profile(grid, q_field, p.lam, theta, p)
    return sm.build_operators(grid, profile, q_field, p, noise)


def read_gamma(path: Path, d: int) -> np.ndarray:
    gamma = np.zeros((d, d))
    with open(path) as fh:
        for row in csv.DictReader(fh):
            gamma[int(row["row"]), int(row["col"])] = float(row["value"])
    return gamma


def _json(path: Path) -> dict:
    return json.loads(path.read_text())


class Oracle:
    """Dispatches on a command's `check` name; caches what it rebuilds."""

    def __init__(self):
        self._ops: dict = {}

    def check(self, res) -> list:
        try:
            return getattr(self, "check_" + res.command.check)(res)
        except (OSError, KeyError, ValueError, TypeError, EbmvarError) as exc:
            return [f"unreadable output: {exc!r}"]

    def _ops_for(self, res) -> sm.SpatialOperators:
        label = res.command.label
        if label not in self._ops:
            self._ops[label] = build_ops(res.command.config)
        return self._ops[label]

    def check_stationary(self, res) -> list:
        out, d = res.outdir, res.command.expect["d"]
        summary = _json(out / "spatial_stationary_summary.json")
        cert = _json(out / "certificate.json")
        gamma = read_gamma(out / "gamma_stationary.txt", d)
        ops = self._ops_for(res)
        failures = []
        if summary["d"] != d or ops.d != d:
            failures.append(f"d is {summary['d']}, expected {d}")
            return failures
        resid = np.max(np.abs(ce.covariance_rhs(gamma, ops)))
        scale = np.max(np.abs(ops.tau * ops.C * np.outer(ops.f_vec, ops.f_vec)))
        if not resid <= RESIDUAL_TOL * scale:
            failures.append(f"stationary residual {resid:.3e}"
                            f" > {RESIDUAL_TOL:g} * {scale:.3e}")
        sym = 0.5 * (gamma + gamma.T)
        if not np.min(np.linalg.eigvalsh(sym)) >= -PSD_TOL * np.linalg.norm(sym, 2):
            failures.append("Gamma is not positive semidefinite")
        if summary["is_psd"] is not True:
            failures.append("summary does not report is_psd")
        if not cert["k_spectral_abscissa"] < 0.0:
            failures.append(f"k_spectral_abscissa {cert['k_spectral_abscissa']} >= 0")
        if not abs(summary["trace"] - np.trace(gamma)) <= 1e-12 * abs(np.trace(gamma)):
            failures.append("summary trace differs from the trace of Gamma")
        return failures

    def check_monotonicity(self, res) -> list:
        n = res.command.expect["n_points"]
        summary = _json(res.outdir / "monotonicity_summary.json")
        with open(res.outdir / "monotonicity_sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        failures = []
        if summary["verdict"] != "entrywise positive":
            failures.append(f"verdict {summary['verdict']!r}")
        if (summary["n_points"], summary["n_applicable"], len(rows)) != (n, n, n):
            failures.append(f"{summary['n_applicable']} of {summary['n_points']} "
                            f"points applicable, {len(rows)} rows; expected {n} of {n}")
        if not all(r["applicable"] == "True" and float(r["min_dgamma_entry"]) > 0.0
                   for r in rows):
            failures.append("a sweep row is not applicable or not entrywise positive")
        return failures

    def check_wz(self, res) -> list:
        t, offset = res.command.expect["t"], res.command.expect["x0_offset"]
        summary = _json(res.outdir / "wz_convergence_summary.json")
        with open(res.outdir / "wz_convergence.csv") as fh:
            rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        failures = []
        if len(rows) < 2:
            return [f"{len(rows)} tau rows"]
        taus = np.array([r["tau"] for r in rows])
        mcs = np.array([r["mc"] for r in rows])
        se_rel = np.array([r["se"] for r in rows]) / mcs
        # Closed form of E|W^tau_t - W_t|^2 with x0 - Q = offset.
        exact = (taus * (1.0 - np.exp(-t / taus)) ** 2 * offset ** 2
                 + 0.5 * taus * (1.0 - np.exp(-2.0 * t / taus)))
        if not np.allclose([r["exact"] for r in rows], exact, rtol=1e-12, atol=0.0):
            failures.append("exact column differs from the closed form")
        for r, ex in zip(rows, exact):
            if not abs(r["mc"] - ex) <= MC_WINDOW_SE * r["se"]:
                failures.append(f"tau={r['tau']:g}: |mc - exact| ="
                                f" {abs(r['mc'] - ex):.3e} > {MC_WINDOW_SE:g} SE"
                                f" ({r['se']:.3e})")
        # Least-squares slope of log(mc) on log(tau); its standard error
        # treats the estimates as independent, which overstates it when
        # they share random streams.
        x = np.log(taus) - np.log(taus).mean()
        slope_exact = np.polyfit(np.log(taus), np.log(exact), 1)[0]
        slope_mc = np.polyfit(np.log(taus), np.log(mcs), 1)[0]
        slope_se = np.sqrt(np.sum((x * se_rel) ** 2)) / np.sum(x ** 2)
        if not abs(slope_mc - slope_exact) <= MC_WINDOW_SE * slope_se:
            failures.append(f"MC slope {slope_mc:.4f} vs closed form {slope_exact:.4f}"
                            f" > {MC_WINDOW_SE:g} SE ({slope_se:.2e})")
        if not abs(summary["fitted_slope"] - slope_exact) <= 1e-9:
            failures.append(f"summary slope {summary['fitted_slope']} vs {slope_exact}")
        return failures

    def check_field(self, res) -> list:
        e = res.command.expect
        d, n_paths, n_times = e["d"], e["n_paths"], e["n_steps"] + 1
        blob = (res.outdir / "anomaly_field.bin").read_bytes()
        bundle = se.PathBundle.from_binary(blob)
        failures = []
        if bundle.values.shape != (n_paths, n_times, d):
            return [f"shape {bundle.values.shape}, expected {(n_paths, n_times, d)}"]
        body = np.frombuffer(blob, dtype="<f8", offset=40 + 8 * n_times)
        if not np.array_equal(body, bundle.values.ravel()):
            failures.append("values do not round-trip through from_binary")
        del blob, body
        if not np.allclose(bundle.times, e["dt"] * np.arange(n_times),
                           rtol=1e-12, atol=1e-15):
            failures.append("time grid differs from dt * k")

        # Per-path late-time mean of the squared norm, and the ensemble mean
        # of the squared norm at each time, a block of paths at a time.
        late = bundle.times >= 0.5 * bundle.times[-1]
        per_path, mean_trace = [], np.zeros(n_times)
        for block in np.array_split(bundle.values, max(1, n_paths // 100)):
            sq = (block ** 2).sum(axis=2)
            per_path.append(sq[:, late].mean(axis=1))
            mean_trace += sq.sum(axis=0) / n_paths
        per_path = np.concatenate(per_path)
        del bundle
        with open(res.outdir / "anomaly_field_trace.csv") as fh:
            written = np.array([float(r["mc_trace"]) for r in csv.DictReader(fh)])
        if not np.allclose(written, mean_trace, rtol=1e-12, atol=0.0):
            failures.append("anomaly_field_trace.csv differs from the paths")

        # Stationary trace by a dense solve of K q = -F, apart from the
        # program's sparse LU.
        vs = ce.assemble_vectorised(self._ops_for(res))
        q = np.linalg.solve(vs.K.toarray(), -vs.F)
        target = float(np.trace(q.reshape(d, d, order="F")))
        est = float(per_path.mean())
        sem = float(per_path.std(ddof=1) / np.sqrt(per_path.size))
        if not abs(est - target) <= MC_WINDOW_SE * sem:
            failures.append(f"late-time MC trace {est:.5e} vs stationary {target:.5e}"
                            f" > {MC_WINDOW_SE:g} SE ({sem:.2e})")
        return failures
