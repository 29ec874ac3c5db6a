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
import gc
import json
import os
import shutil
import sys
import threading
from contextlib import contextmanager
from functools import partial
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


_BLOCK = 1 << 13  # cells formatted per write: 2730 rows of Gamma's table


def _reader(col):
    """A column's % format and the function that reads a slice of it as
    the values that format takes.  float64, integer and bool arrays
    convert exactly with tolist(), so a float64 column fixes '%.17g' once;
    any other column is read cell by cell, where a float has 17
    significant digits, None is an empty cell and any other cell prints as
    str() does (a float32 array item is not a float: it prints as str())."""
    if isinstance(col, np.ndarray):
        if col.dtype.type is np.float64:
            return "%.17g", np.ndarray.tolist
        if col.dtype.kind in "iub":
            return "%s", np.ndarray.tolist
    return "%s", lambda cells: [
        f"{x:.17g}" if isinstance(x, float) else "" if x is None else str(x)
        for x in cells]


def _table(header: str, columns):
    """A CSV table's encoded text, given as equal-length columns (arrays or
    sequences): the header line, then the rows a block at a time.  A block
    is `_BLOCK` cells, a few thousand rows of a narrow table, and is sliced
    from each column, converted, formatted with one % per row and encoded
    only when the one before it has been taken, so the whole text, or a
    whole column as Python objects, is never held."""
    n = len(columns[0])
    if any(len(col) != n for col in columns):
        raise ValueError("the columns of a table differ in length")
    formats, readers = zip(*map(_reader, columns))
    line = ",".join(formats) + "\n"
    step = max(1, _BLOCK // len(columns))
    yield (header + "\n").encode()
    for lo in range(0, n, step):
        cells = [read(col[lo:lo + step]) for read, col in zip(readers, columns)]
        yield "".join([line % row for row in zip(*cells)]).encode()


@contextmanager
def _writing(path: Path):
    """An OSError inside, such as an --out that cannot be made, is a
    ConfigError naming `path`."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write(outdir: Path, name: str, payload) -> Path:
    """Write text, or the blocks of `_table` one after another, never
    joined; an OSError is a ConfigError (`_writing`)."""
    path = outdir / name
    with _writing(path):
        outdir.mkdir(parents=True, exist_ok=True)
        if isinstance(payload, str):
            path.write_text(payload)
        else:
            with open(path, "wb") as fh:
                for part in payload:
                    fh.write(part)
    return path


def _pwrite(fd, data, offset):
    """All of `data`'s bytes into file `fd` from `offset`."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


@contextmanager
def _path_dumps(outdir: Path, sim, d, names):
    """The one writer of path dumps: `write(k, first, states)` into dump k of
    `names` of `sim`'s run, of d values a state (0 for scalar states).  The
    files are made on entry, once the disk has room for all, with their
    headers and times; `write` puts each path's run of states from step
    `first` at its place in the layout `sde.PathBundle.from_binary` reads.
    An OSError is a ConfigError naming its file; any failure removes all."""
    paths = [outdir / name for name in names]
    n_paths, n_times = sim.n_paths, sim.n_steps + 1
    body = 40 + 8 * n_times  # the header and the times: path 0 begins here
    width = 8 * max(d, 1)  # bytes a state
    need = len(paths) * (body + width * n_paths * n_times)
    with _writing(outdir):
        outdir.mkdir(parents=True, exist_ok=True)
        free = shutil.disk_usage(outdir).free + sum(  # truncated when opened
            path.stat().st_size for path in paths if path.exists())
    if need > free:
        raise ConfigError(f"[sim] n_paths = {n_paths} paths of {n_times} kept steps "
                          f"of d = {max(d, 1)} values need {need} bytes in "
                          f"{' and '.join(map(str, paths))}, more than the {free} free")

    def write(k, first, states):
        with _writing(paths[k]), open(paths[k], "r+b", buffering=0) as dump:
            for i, run in enumerate(states):  # a strided run is copied
                _pwrite(dump.fileno(), np.ascontiguousarray(run, "<f8"),
                        body + width * (i * n_times + first))

    try:
        for path in paths:
            with _writing(path):
                path.write_bytes(sde.binary_header(n_paths, n_times, d, sim.seed)
                                 + sde.kept_times(sim).astype("<f8").tobytes())
        yield write
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def _tracing(write, tables, stat):
    """The sink of a run's blocks of states.  Bundle k's block, the states or,
    in a run of several bundles, their column k, goes to dump k (`write`)
    and its per-time statistics `stat(block)` into tables[k] at its steps."""

    def sink(first, states):
        for k, table in enumerate(tables):
            block = states if len(tables) == 1 else states[..., k]
            write(k, first, block)
            table[:, first:first + block.shape[1]] = stat(block)
    return sink


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _parallel_map(fn, items, threads):
    """[fn(x) for x in items] on min(threads, len(items)) threads.  Worker k
    computes items k, k + n, k + 2n, ...: a fixed share, so every worker
    runs, however quickly an item finishes, and no result depends on the
    timing.  The exception of the first failing item is raised."""
    n = min(threads, len(items))
    if n <= 1:
        return [fn(it) for it in items]
    results, errors = [None] * len(items), {}

    def work(k):
        for i in range(k, len(items), n):
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # re-raised on the calling thread
                errors[i] = exc
                return

    workers = [threading.Thread(target=work, args=(k,)) for k in range(n)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def cmd_variance_curve(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    grid = sweep_grid(cfg)
    # The verdict compares consecutive points, so no two may be equal.
    if grid.size < 2 or np.any(np.diff(grid) == 0.0):
        raise ConfigError("variance-curve needs two or more distinct forcings, "
                          f"each once, got sweep.n_points = {grid.size} from "
                          f"{float(grid[0])!r} to {float(grid[-1])!r}")
    points = mc.variance_curve(p, grid)
    rows = [(pt.lam, pt.T_star, pt.branch, pt.b, pt.sigma0, pt.sigma1,
             pt.var_inf) for pt in points]
    _write(outdir, "variance_curve.csv", _table(
        "lambda,T_star,branch,b,sigma0,sigma1,var_inf", list(zip(*rows))))

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


# The optional [sim] keys a command does not read: it refuses them.
_IGNORED_SIM_KEYS = {
    "wz-convergence": ("scheme", "drift_form"),
    "simulate --which fast-slow": ("scheme", "drift_form"),
    "simulate --which anomaly-0d": ("drift_form",),
    "simulate --which anomaly-field": ("scheme", "drift_form"),
}


def _refuse_unread_sim_keys(cfg: ExperimentConfig, command: str) -> None:
    sim = cfg.section("sim")
    for key in _IGNORED_SIM_KEYS.get(command, ()):
        if key in sim:
            raise ConfigError(f"[sim] {key} = {sim[key]} is not read by "
                              f"{command}")


def cmd_wz_convergence(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    s = sim_config(cfg, seed_override=args.seed)
    _refuse_unread_sim_keys(cfg, "wz-convergence")
    x0 = p.Q + args.x0_offset
    try:
        results = sde.wong_zakai_ladder(WZ_TAU_LADDER, args.t, x0, p.Q,
                                        n_paths=s.n_paths, seed=s.seed)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"--t {args.t!r}, --x0-offset {args.x0_offset!r}, "
                          f"[sim] n_paths = {s.n_paths}: {exc}") from exc
    rows = [(r.tau, r.mc_estimate, r.exact, r.se) for r in results]
    _write(outdir, "wz_convergence.csv", _table(
        "tau,mc,exact,se", list(zip(*rows))))

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
    """A spatial config's grid, boundary, noise covariance and Q field."""
    grid = grid_config(cfg)
    return (grid, boundary_config(cfg), noise_covariance(cfg, grid),
            sm.SpatialField.constant(grid, p.Q))


def _operators(cfg: ExperimentConfig, p) -> sm.SpatialOperators:
    """A spatial config's operators, linearised at its equilibrium profile."""
    grid, theta, C, Q_field = _spatial_setup(cfg, p)
    T_star = sm.solve_equilibrium_profile(grid, Q_field, p.lam, theta, p)
    return sm.build_operators(grid, T_star, Q_field, p, C)


def cmd_simulate(cfg: ExperimentConfig, args, outdir: Path) -> int:
    """Each bundle of the `--which` run as its dump and its per-time table:
    the field's mean square trace or a scalar bundle's moments, both written
    from each block as the run makes it (`_tracing`), so no run is held."""
    p = model_params(cfg)
    s = sim_config(cfg, seed_override=args.seed)
    _refuse_unread_sim_keys(cfg, f"simulate --which {args.which}")
    if args.which == "anomaly-field":
        ops = _operators(cfg, p)
        run, d = partial(sm.simulate_anomaly_field, ops), ops.d
        dumps, tables = ["anomaly_field.bin"], ["anomaly_field_trace.csv"]
        header, stat = "time,mc_trace", lambda states: sde.sum_paths(
            states, lambda rows: (rows ** 2).sum(axis=2)) / len(states)
    else:  # fast-slow's state is the row (x, T): two bundles
        root = mc.select_root(mc.equilibrium_roots(p))
        run, names = {
            "fast-slow": (partial(sde.simulate_fast_slow, p, p.Q, root.T_star),
                          ["fast", "slow"]),
            "reduced": (partial(sde.simulate_reduced_sde, p, root.T_star), ["reduced"]),
            "anomaly-0d": (partial(sde.simulate_linear_anomaly, root.b, root.sigma0,
                                   root.sigma1, p.tau, 0.0), ["anomaly0d"]),
        }[args.which]
        d, dumps = 0, [f"{name}_paths.bin" for name in names]
        tables = [f"{name}_moments.csv" for name in names]
        header, stat = "time,mean,variance,se_mean,se_variance", sde.path_moments
    with _path_dumps(outdir, s, d, dumps) as write:
        times = sde.kept_times(s)
        columns = [np.empty((header.count(","), times.size)) for _ in dumps]
        run(s, sink=_tracing(write, columns, stat))
        for name, table in zip(tables, columns):  # a failed table drops the dumps
            _write(outdir, name, _table(header, (times, *table)))
    return EXIT_OK


def cmd_spatial_stationary(cfg: ExperimentConfig, args, outdir: Path) -> int:
    p = model_params(cfg)
    ops = _operators(cfg, p)
    cert = cov.certify(ops)
    _write(outdir, "certificate.json", _json(cert.to_dict()))
    if not args.force:
        cert.require_hurwitz()
    state = cov.stationary_covariance(ops)
    # Row-major, exact zeros dropped.
    rows, cols = np.nonzero(state.gamma)
    _write(outdir, "gamma_stationary.txt", _table(
        "row,col,value", (rows, cols, state.gamma[rows, cols])))
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
    grid, theta, C, Q_field = _spatial_setup(cfg, p)
    lam_grid = sweep_grid(cfg)

    def run(lam):
        return cov.monotonicity_sweep(grid, Q_field, theta, p, C,
                                      [lam]).points[0]

    points = _parallel_map(run, list(lam_grid), args.threads)
    rows = [(pt.lam, pt.applicable, pt.trace, pt.min_diff_entry,
             "entrywise-positive" if pt.entrywise_positive
             else "non-applicable" if not pt.applicable else "mixed", pt.note)
            for pt in points]
    _write(outdir, "monotonicity_sweep.csv", _table(
        "lambda,applicable,trace,min_dgamma_entry,verdict,note",
        list(zip(*rows))))
    hypothesis_notes = sorted({pt.note for pt in points if pt.note})
    summary = {
        "command": "monotonicity",
        "verdict": cov.SweepReport(points).verdict,
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
    try:
        lam_grid = np.linspace(args.lambda_min, args.lambda_max, args.n_lambda)
    except (ValueError, MemoryError) as exc:  # more points than numpy can hold
        raise ConfigError(f"--n-lambda {args.n_lambda}: {exc}") from exc
    try:
        results = [cov.counterexample_trace(args.s, args.c, float(lam))
                   for lam in lam_grid]
    except ParamOutOfRange as exc:
        raise ConfigError(f"--s {args.s!r}, --c {args.c!r}: {exc}") from exc
    rows = [(lam, r.trace, r.d_trace_d_lambda, r.numeric_trace)
            for lam, r in zip(lam_grid, results)]
    _write(outdir, "counterexample.csv", _table(
        "lambda,trace,derivative,numeric_trace", list(zip(*rows))))
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
    except (ConfigError, MemoryError) as exc:  # or an input too large
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UnstableDrift, UnstableK) as exc:
        print(f"stability refusal: {exc}", file=sys.stderr)
        return EXIT_STABILITY
    except (EbmvarError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> int:
    """The command-line entry (`python -m ebmvar.cli` and the `ebmvar`
    script): `main()` on sys.argv, with the heap built by importing the
    interpreter, numpy and this package frozen first.  Those objects live
    until exit, so no collection the command triggers, nor the full one at
    exit, walks them.  `main()` does not freeze: a process that calls it
    many times, such as the tests, would keep every cycle it left behind."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
