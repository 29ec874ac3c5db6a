"""Reproducible experiment runner.

Every command is a pure function of (config bytes, CLI flags): outputs are
byte-identical across runs, floats are printed with 17 significant digits,
JSON keys are sorted.  This module is the only one that turns numbers into
text: every table is written by `_table`.

Exit codes: 0 success, 2 config error, 3 numerical-solver error,
4 stability refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import covariance_engine as cov
from . import model_core as mc
from . import sde_engine as sde
from . import spatial_model as sm
from .config import (
    ExperimentConfig,
    boundary_config,
    grid_config,
    load_config,
    model_params,
    noise_covariance,
    sim_config,
    sweep_grid,
)
from .errors import (
    ConfigError,
    EbmvarError,
    ParamOutOfRange,
    UnstableDrift,
    UnstableK,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_STABILITY = 4

WZ_TAU_LADDER = (0.2, 0.1, 0.05, 0.025)


def _cell(x) -> str:
    if isinstance(x, float):  # numpy float64 included
        return f"{x:.17g}"
    return "" if x is None else str(x)


def _table(header: str, rows):
    """A CSV table's encoded lines: the header, then one line per row, each
    built only when it is written.  A float cell has 17 significant digits,
    None is an empty cell, and any other cell prints as str() does."""
    yield (header + "\n").encode()
    for row in rows:
        yield (",".join(map(_cell, row)) + "\n").encode()


def _write(outdir: Path, name: str, payload) -> Path:
    """Write text, or buffers (a list, or the lines of `_table`) one after
    another, never joined."""
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / name
    if isinstance(payload, str):
        path.write_text(payload)
    else:
        with open(path, "wb") as fh:
            for part in payload:
                fh.write(part)
    return path


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parallel_map(fn, items, threads):
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def cmd_variance_curve(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    grid = sweep_grid(cfg)
    points = mc.variance_curve(p, grid)
    _write(outdir, "variance_curve.csv", _table(
        "lambda,T_star,branch,b,sigma0,sigma1,var_inf",
        ((pt.lam, pt.T_star, pt.branch, pt.b, pt.sigma0, pt.sigma1, pt.var_inf)
         for pt in points)))

    branches = {pt.branch for pt in points}
    diffs = np.diff([pt.var_inf for pt in points])
    if branches <= {mc.BRANCH_COLD} or branches <= {mc.BRANCH_WARM}:
        verdict = "constant" if np.all(np.abs(diffs) <= 1e-12) else "unexpected"
    elif branches == {mc.BRANCH_ICE}:
        verdict = "strictly increasing" if np.all(diffs > 0.0) else "not monotone"
    else:
        verdict = "mixed regimes"
    summary = {
        "command": "variance-curve",
        "n_points": len(points),
        "branches": sorted(branches),
        "verdict": verdict,
        "selection_rule": "stable admissible root tracked by continuation "
                          "from the previous grid point (coldest first)",
        "var_first": points[0].var_inf,
        "var_last": points[-1].var_inf,
    }
    _write(outdir, "variance_curve_summary.json", _json(summary))
    return EXIT_OK


def cmd_wz_convergence(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    s = sim_config(cfg, seed_override=args.seed)
    x0 = p.Q + args.x0_offset
    try:
        results = sde.wong_zakai_ladder(WZ_TAU_LADDER, args.t, x0, p.Q,
                                        n_paths=s.n_paths, seed=s.seed)
    except ValueError as exc:
        raise ConfigError(f"--t {args.t!r}, --x0-offset {args.x0_offset!r}: "
                          f"{exc}") from exc
    _write(outdir, "wz_convergence.csv", _table(
        "tau,mc,exact,se",
        ((r.tau, r.mc_estimate, r.exact, r.se) for r in results)))

    logs_tau = np.log([r.tau for r in results])
    logs_exact = np.log([r.exact for r in results])
    slope = float(np.polyfit(logs_tau, logs_exact, 1)[0])
    summary = {
        "command": "wz-convergence",
        "t": args.t,
        "x0_offset": args.x0_offset,
        "fitted_slope": slope,
        "within_3se": all(abs(r.mc_estimate - r.exact) <= 3.0 * r.se
                          for r in results),
    }
    _write(outdir, "wz_convergence_summary.json", _json(summary))
    return EXIT_OK


def _spatial_setup(cfg: ExperimentConfig, p):
    """A spatial config's grid, boundary, noise and constant Q field."""
    grid = grid_config(cfg)
    return (grid, boundary_config(cfg), noise_covariance(cfg, grid),
            sm.SpatialField.constant(grid, p.Q))


def _operators(cfg: ExperimentConfig, p) -> sm.SpatialOperators:
    """A spatial config's operators, linearised at its equilibrium profile."""
    grid, theta, noise, Q_field = _spatial_setup(cfg, p)
    T_star = sm.solve_equilibrium_profile(grid, Q_field, p.lam, theta, p)
    return sm.build_operators(grid, T_star, Q_field, p, noise)


# Path values squared at a time when the field traces are reduced: whole
# paths, and at least one.
_TRACE_VALUES = 1 << 20


def _mean_square_norm(values):
    """(values ** 2).sum(axis=2).mean(axis=0), bit for bit, squaring a block
    of paths at a time.  numpy sums over axis 0 one row after another, so
    adding the running total to a block's first row keeps that order."""
    block = max(1, _TRACE_VALUES // values[0].size)
    total = None
    for lo in range(0, values.shape[0], block):
        sq = (values[lo:lo + block] ** 2).sum(axis=2)
        if total is not None:
            sq[0] += total
        total = sq.sum(axis=0)
    return total / values.shape[0]


def cmd_simulate(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    s = sim_config(cfg, seed_override=args.seed)
    if args.which == "anomaly-field":
        bundle = sm.simulate_anomaly_field(_operators(cfg, p), s)
        _write(outdir, "anomaly_field.bin", bundle.binary_parts())
        _write(outdir, "anomaly_field_trace.csv", _table(
            "time,mc_trace", zip(bundle.times, _mean_square_norm(bundle.values))))
        return EXIT_OK

    root = mc.select_root(mc.equilibrium_roots(p))
    if args.which == "fast-slow":
        x_bundle, t_bundle = sde.simulate_fast_slow(p, x0=p.Q,
                                                    theta0=root.T_star, cfg=s)
        bundles = {"fast": x_bundle, "slow": t_bundle}
    elif args.which == "reduced":
        bundles = {"reduced": sde.simulate_reduced_sde(p, root.T_star, s)}
    else:  # anomaly-0d
        bundles = {"anomaly0d": sde.simulate_linear_anomaly(
            root.b, root.sigma0, root.sigma1, p.tau, 0.0, s)}

    for name, bundle in bundles.items():
        _write(outdir, f"{name}_paths.csv", _table(
            "time," + ",".join(f"path_{k}" for k in range(bundle.n_paths)),
            ((t, *col) for t, col in zip(bundle.times, bundle.values.T))))
        _write(outdir, f"{name}_paths.bin", bundle.binary_parts())
        rep = sde.mc_moments(bundle)
        _write(outdir, f"{name}_moments.csv", _table(
            "time,mean,variance,se_mean,se_variance",
            zip(bundle.times, rep.mean, rep.variance, rep.se_mean,
                rep.se_variance)))
    return EXIT_OK


def cmd_spatial_stationary(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    ops = _operators(cfg, p)
    _write(outdir, "certificate.json", _json(cov.certify(ops).to_dict()))
    state = cov.stationary_covariance(ops, check_stability=not args.force)
    # Row-major, exact zeros dropped.
    rows, cols = np.nonzero(state.gamma)
    _write(outdir, "gamma_stationary.txt", _table(
        "row,col,value", zip(rows, cols, state.gamma[rows, cols])))
    summary = {
        "command": "spatial-stationary",
        "lambda": p.lam,
        "trace": state.spatial_variance,
        "is_psd": state.is_psd,
        "d": ops.d,
    }
    _write(outdir, "spatial_stationary_summary.json", _json(summary))
    return EXIT_OK


def cmd_monotonicity(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    grid, theta, noise, Q_field = _spatial_setup(cfg, p)
    lam_grid = sweep_grid(cfg)

    def run(lam):
        return cov.monotonicity_sweep(grid, Q_field, theta, p, noise,
                                      [lam]).points[0]

    points = _parallel_map(run, list(lam_grid), args.threads)
    report = cov.SweepReport(points=points)
    _write(outdir, "monotonicity_sweep.csv", _table(
        "lambda,applicable,trace,min_dgamma_entry,verdict,note",
        ((pt.lam, pt.applicable, pt.trace, pt.min_diff_entry,
          "entrywise-positive" if pt.entrywise_positive
          else "non-applicable" if not pt.applicable else "mixed", pt.note)
         for pt in points)))
    hypothesis_notes = sorted({pt.note for pt in points if pt.note})
    summary = {
        "command": "monotonicity",
        "verdict": report.verdict,
        "n_points": len(points),
        "n_applicable": sum(1 for pt in points if pt.applicable),
        "hypothesis_violations": hypothesis_notes,
    }
    _write(outdir, "monotonicity_summary.json", _json(summary))
    return EXIT_OK


def cmd_counterexample(cfg, args, outdir: Path) -> int:
    if args.n_lambda < 1:
        raise ConfigError(f"--n-lambda must be >= 1, got {args.n_lambda}")
    # An ascending grid: the summary reads the sign of consecutive differences.
    if not 0.0 <= args.lambda_min <= args.lambda_max < np.inf:
        raise ConfigError("need 0 <= --lambda-min <= --lambda-max < inf, got "
                          f"{args.lambda_min!r} and {args.lambda_max!r}")
    lam_grid = np.linspace(args.lambda_min, args.lambda_max, args.n_lambda)
    try:
        results = [cov.counterexample_trace(args.s, args.c, float(lam))
                   for lam in lam_grid]
    except ParamOutOfRange as exc:
        raise ConfigError(f"--s {args.s!r}, --c {args.c!r}: {exc}") from exc
    _write(outdir, "counterexample.csv", _table(
        "lambda,trace,derivative,numeric_trace",
        ((lam, r.trace, r.d_trace_d_lambda, r.numeric_trace)
         for lam, r in zip(lam_grid, results))))
    cs = args.s * args.c
    below = [r.numeric_trace for lam, r in zip(lam_grid, results) if lam < cs]
    # Read off the numeric_trace column: null when it has fewer than two
    # points below c*s, so no difference can be formed there.
    negative = bool(np.all(np.diff(below) < 0.0)) if len(below) >= 2 else None
    summary = {
        "command": "counterexample",
        "s": args.s,
        "c": args.c,
        "predicted_sign_change": cs,
        "derivative_negative_below_cs": negative,
    }
    _write(outdir, "counterexample_summary.json", _json(summary))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ebmvar",
                                 description="stochastic EBM experiment runner")
    ap.add_argument("--config", required=False, help="config file path")
    ap.add_argument("--seed", type=int, default=None, help="override [sim] seed")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--force", action="store_true",
                    help="report results even when stability checks fail")
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("variance-curve")
    wz = sub.add_parser("wz-convergence")
    wz.add_argument("--t", type=float, default=2.0)
    wz.add_argument("--x0-offset", type=float, default=1.0)
    sim = sub.add_parser("simulate")
    sim.add_argument("--which", required=True,
                     choices=["fast-slow", "reduced", "anomaly-0d", "anomaly-field"])
    sub.add_parser("spatial-stationary")
    sub.add_parser("monotonicity")
    ce = sub.add_parser("counterexample")
    ce.add_argument("--s", type=float, required=True)
    ce.add_argument("--c", type=float, required=True)
    ce.add_argument("--lambda-min", type=float, default=0.0)
    ce.add_argument("--lambda-max", type=float, default=1.0)
    ce.add_argument("--n-lambda", type=int, default=21)
    return ap


_COMMANDS = {
    "variance-curve": (cmd_variance_curve, True),
    "wz-convergence": (cmd_wz_convergence, True),
    "simulate": (cmd_simulate, True),
    "spatial-stationary": (cmd_spatial_stationary, True),
    "monotonicity": (cmd_monotonicity, True),
    "counterexample": (cmd_counterexample, False),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn, needs_config = _COMMANDS[args.command]
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out)
    try:
        cfg = None
        if needs_config:
            if not args.config:
                raise ConfigError(f"command {args.command} requires --config")
            cfg = load_config(args.config)
        return fn(cfg, args, outdir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnstableDrift, UnstableK) as exc:
        print(f"stability refusal: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except (EbmvarError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
