"""Benchmark of the `ebmvar` CLI: two workloads run as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere; it works on the checkout that holds this file.  Every
CLI command runs in a fresh interpreter with `src/` on PYTHONPATH, exactly
as `python3 -m ebmvar.cli` would, and its outputs are checked against an
independent oracle outside the timed region.  An operation is one CLI
command together with its output checks; `attempted` and `failed` count
operations.

`--trace 0` prints the end-to-end metrics.  The workload's command sequence
is repeated in passes for `--seconds` seconds, with the reference job of
`reference.py` run before every pass and after the last.  `wall_ref` is the
mean wall time of a pass divided by the mean time of the reference job: on
a shared host whose speed drifts by up to 1.6x over minutes, both move
alike, and the ratio keeps only the program's cost.  The raw pass and
reference times are in the detail line.  `setup_s` is the median of five
interpreter set-ups, in seconds.

`--trace 1` prints the per-layer metrics.  It makes one untraced pass, two
traced passes (every public function of the package wrapped from
`tracer.py`, one span per call) and, on the workloads that use the CLI
thread pool, one untraced pass with `--threads 1`, whose outputs must be
byte-identical to the threaded ones.  Every count must repeat exactly
between the two traced passes.

Repeated passes use the same inputs.  A pass whose outputs are
byte-identical to those of an earlier, oracle-checked pass is correct; one
whose bytes differ is checked by the oracle again, and the files that
differed are listed in the detail line.

`--smoke` keeps every workload, command and metric name but shrinks the
problem sizes, for the benchmark's own tests.

The last line of standard output is the result object; the line before it
records the environment and the raw per-pass figures.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.py"

THREADS = 2
SETUP_REPEATS = 5
COMMAND_TIMEOUT_S = 60.0

MODEL = {
    "beta_min": 0.38, "beta_max": 0.70, "T_l": 263.0, "T_u": 300.0,
    "r0": 0.0, "r1": 2.0, "Q": 100.0, "lambda": 510.0,
    "tau": 0.00273972602739726,
}
THETA = 280.0


def constant_profile_lambda() -> float:
    """Forcing at which the constant profile T = THETA is an equilibrium."""
    from ebmvar import model_core as mc
    from oracles import model_params

    p = model_params(MODEL)
    return p.r0 + p.r1 * THETA - p.Q * float(mc.co_albedo(THETA, p))


# ---------------------------------------------------------------- workloads

@dataclass
class Command:
    label: str            # names the command in metrics, e.g. "d36"
    config: dict          # INI sections
    args: list            # CLI arguments after the global options
    check: str            # selects oracles.Oracle.check_<name>
    seeded: bool = False  # passes the benchmark seed as --seed
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    commands: list
    threaded: bool = False  # runs with --threads, and once more with 1


def _spatial_config(lam, L, n):
    return {
        "model": {**MODEL, "lambda": lam},
        "grid": {"Lx": L, "Ly": L, "Nx": n, "Ny": n},
        "boundary": {"theta": THETA},
        "noise": {"kernel": "exponential", "length": 0.5},
    }


LADDER = {"d16": 5, "d36": 7, "d64": 9, "d100": 11}
SMOKE_LADDER = {"d16": 3, "d36": 4, "d64": 3, "d100": 4}


def workloads(smoke: bool) -> dict:
    lam0 = constant_profile_lambda()

    ladder = SMOKE_LADDER if smoke else LADDER
    stationary = [Command(label, _spatial_config(MODEL["lambda"], 8.0, n),
                          ["spatial-stationary"], "stationary",
                          expect={"d": (n - 1) ** 2})
                  for label, n in ladder.items()]

    n_mono, n_points = (4, 2) if smoke else (9, 5)
    mono_cfg = _spatial_config(lam0, 1.0, n_mono)
    mono_cfg["sweep"] = {"lambda_min": lam0 - 4.0, "lambda_max": lam0 + 4.0,
                         "n_points": n_points}
    mono = [Command("sweep", mono_cfg, ["monotonicity"], "monotonicity",
                    expect={"n_points": n_points})]

    wz_paths, wz_t = (64, 0.5) if smoke else (4000, 2.0)
    wz_cfg = {"model": MODEL,
              "sim": {"dt": 0.01, "n_steps": 1, "n_paths": wz_paths, "seed": 0}}
    n_fmc, dt, n_steps, n_paths = (3, 0.01, 400, 40) if smoke else (5, 0.0025, 1600, 1000)
    fmc_cfg = _spatial_config(lam0, 8.0, n_fmc)
    fmc_cfg["sim"] = {"dt": dt, "n_steps": n_steps, "n_paths": n_paths, "seed": 0}
    monte_carlo = [
        Command("wz", wz_cfg,
                ["wz-convergence", "--t", repr(wz_t), "--x0-offset", "1.0"],
                "wz", seeded=True, expect={"t": wz_t, "x0_offset": 1.0}),
        Command("field", fmc_cfg, ["simulate", "--which", "anomaly-field"],
                "field", seeded=True,
                expect={"d": (n_fmc - 1) ** 2, "dt": dt, "n_steps": n_steps,
                        "n_paths": n_paths}),
    ]

    # The sweep and the Monte Carlo commands share a workload: with fewer
    # workloads each run can be long enough to hold three or more passes,
    # which the end-to-end figures need to repeat from run to run.
    return {w.name: w for w in [
        Workload("stationary-ladder", stationary),
        Workload("sweep-monte-carlo", mono + monte_carlo, threaded=True),
    ]}


def config_text(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in entries.items()]
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------- processes

@dataclass
class Proc:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


def spawn(argv, log: Path, env) -> Proc:
    """Run one child to completion; wall time from spawn to exit, CPU and
    peak RSS from the child's own resource usage."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(rc=proc.returncode, wall=wall,
                cpu=usage.ru_utime + usage.ru_stime,
                rss_mb=usage.ru_maxrss / 1024.0)


def measure_setup(config: Path, env, log: Path) -> list[float]:
    probe = ("import sys, ebmvar.cli as cli; cli.load_config(sys.argv[1])")
    walls = []
    for _ in range(SETUP_REPEATS):
        p = spawn([sys.executable, "-c", probe, str(config)], log, env)
        if p.rc != 0:
            raise RuntimeError(f"set-up probe failed, see {log}")
        walls.append(p.wall)
    return walls


def measure_reference(env, log: Path) -> float:
    p = spawn([sys.executable, str(REFERENCE)], log, env)
    if p.rc != 0:
        raise RuntimeError(f"reference job failed, see {log}")
    return p.wall


# ---------------------------------------------------------------- passes

@dataclass
class CmdResult:
    command: Command
    outdir: Path
    proc: Proc
    spans: list | None = None
    hashes: dict | None = None
    failures: list = field(default_factory=list)
    changed: list = field(default_factory=list)  # files unlike the reference's


@dataclass
class Pass:
    wall: float
    results: list

    @property
    def cpu(self) -> float:
        return sum(r.proc.cpu for r in self.results)

    @property
    def rss(self) -> float:
        return max(r.proc.rss_mb for r in self.results)


class Runner:
    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = child_env()
        self.configs = {}
        for i, cmd in enumerate(workload.commands):
            path = work / f"{i}-{cmd.label}.ini"
            path.write_text(config_text(cmd.config))
            self.configs[cmd.label] = path
        self.n_passes = 0

    def argv(self, cmd: Command, outdir: Path, threads: int | None) -> list:
        args = ["--config", str(self.configs[cmd.label]), "--out", str(outdir)]
        if threads is not None:
            args += ["--threads", str(threads)]
        if cmd.seeded:
            args += ["--seed", str(self.seed)]
        return args + list(cmd.args)

    def run_pass(self, kind: str, threads: int | None = None) -> Pass:
        """One pass of the command sequence; `kind` is "plain" or "traced".
        Threaded workloads run with --threads THREADS unless told otherwise."""
        if threads is None and self.workload.threaded:
            threads = THREADS
        self.n_passes += 1
        tag = f"p{self.n_passes}-{kind}-t{threads}"
        planned = []
        for i, cmd in enumerate(self.workload.commands):
            outdir = self.work / tag / f"{i}-{cmd.label}"
            if outdir.exists():
                shutil.rmtree(outdir)
            outdir.mkdir(parents=True)
            cli = self.argv(cmd, outdir, threads)
            if kind == "traced":
                spans = outdir.parent / f"{i}-{cmd.label}.spans.json"
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                        f"{self.workload.name}/{tag}/{cmd.label}"] + cli
            else:
                spans = None
                argv = [sys.executable, "-m", "ebmvar.cli"] + cli
            planned.append((cmd, outdir, argv, spans))

        results = []
        start = time.perf_counter()
        for cmd, outdir, argv, _ in planned:
            proc = spawn(argv, outdir.parent / f"{outdir.name}.stderr", self.env)
            results.append(CmdResult(cmd, outdir, proc))
        wall = time.perf_counter() - start

        for res, (_, _, _, spans) in zip(results, planned):
            if res.proc.rc != 0:
                res.failures.append(f"exit code {res.proc.rc}")
            if spans is not None and spans.exists():
                res.spans = json.loads(spans.read_text())
            res.hashes = hash_outputs(res.outdir)
        return Pass(wall=wall, results=results)


def hash_outputs(outdir: Path) -> dict:
    out = {}
    for path in sorted(outdir.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = (h.hexdigest(), path.stat().st_size)
    return out


def check_pass(p: Pass, reference: Pass | None, oracle,
               identical: bool = False) -> None:
    """Oracle-check each command's outputs.  Outputs byte-identical to those
    of a reference pass that passed the oracle pass without a second check;
    with `identical`, any difference from the reference is a failure."""
    for i, res in enumerate(p.results):
        if res.failures:
            continue
        ref = reference.results[i] if reference is not None else None
        if ref is not None and not ref.failures:
            res.changed = sorted(name for name in set(res.hashes) | set(ref.hashes)
                                 if res.hashes.get(name) != ref.hashes.get(name))
            if not res.changed:
                continue
            if identical:
                res.failures.append(f"outputs differ from the reference: {res.changed}")
                continue
        res.failures += oracle.check(res)


def discard_outputs(p: Pass) -> None:
    for res in p.results:
        shutil.rmtree(res.outdir, ignore_errors=True)


# ---------------------------------------------------------------- metrics

END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}

SIZE_LABELS = tuple(LADDER)
COMMAND_LABELS = SIZE_LABELS + ("sweep", "wz", "field")

# Layer metrics that also get a per-size copy (suffix .d<d>) on the ladder.
SIZED_LAYER = [
    ("covariance_engine.stationary_covariance", ("calls", "s", "self_s")),
    ("covariance_engine.k_spectral_abscissa",
     ("calls", "s", "route_dense", "route_iterative")),
    ("covariance_engine.certify", ("self_s",)),
    ("covariance_engine.assemble_vectorised", ("calls", "s", "n", "nnz")),
    ("covariance_engine.CovarianceState.from_gamma", ("s",)),
    ("spatial_model.solve_equilibrium_profile", ("calls", "s", "self_s")),
    ("spatial_model.equilibrium_residual", ("calls", "calls_per_solve")),
]
LAYER = [
    ("covariance_engine.monotonicity_sweep", ("self_s",)),
    ("spatial_model.assemble_laplacian", ("calls",)),
    ("sde_engine.gaussian_increments", ("calls", "s", "normals", "normals_per_s")),
    ("sde_engine.path_generator", ("calls",)),
    ("sde_engine.wong_zakai_error", ("self_s",)),
    ("spatial_model.simulate_anomaly_field", ("self_s",)),
    ("spatial_model.drift_eigenvalues", ("s",)),
    ("sde_engine.PathBundle.to_binary", ("s", "bytes")),
    ("spatial_model.sparse_to_coord_text", ("s",)),
    ("config.load_config", ("s",)),
    ("cli.main", ("self_s",)),
    ("model_core.co_albedo", ("calls",)),
    ("model_core.co_albedo_slope", ("calls",)),
]
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "n": "count",
              "nnz": "count", "route_dense": "count", "route_iterative": "count",
              "calls_per_solve": "count", "normals": "count",
              "normals_per_s": "1/s", "bytes": "B"}
# Measured by the benchmark around the spans, not from one layer's spans.
RUN_LEVEL = {
    "cli.output_bytes": "B",
    "cli.threads_speedup": "ratio",
    **{f"cli.cmd_wall_s.{label}": "s" for label in COMMAND_LABELS},
    "trace_overhead_frac": "frac",
    "trace.startup_s": "s",
}
# Work counts computed from returned values and file sizes, not timed.
COMPUTED_STATS = ("n", "nnz", "normals", "bytes", "route_dense",
                  "route_iterative")
COUNT_STATS = ("calls", "calls_per_solve") + COMPUTED_STATS


def layer_keys():
    """(metric name, span name, stat, size label or None) of each metric
    taken from spans."""
    for name, stats in SIZED_LAYER + LAYER:
        for stat in stats:
            yield f"{name}.{stat}", name, stat, None
    for name, stats in SIZED_LAYER:
        for stat in stats:
            for label in SIZE_LABELS:
                yield f"{name}.{stat}.{label}", name, stat, label


def per_layer_units() -> dict:
    return {key: STAT_UNITS[stat] for key, _, stat, _ in layer_keys()} | RUN_LEVEL


def layer_stats(spans: list | None) -> dict:
    """{span name: {"calls", "s", "self_s", counters...}} for one command."""
    spans = spans or []
    selfs = tracer.self_times(spans)
    out = {}
    for span in spans:
        agg = out.setdefault(span["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += span["end"] - span["start"]
        agg["self_s"] += selfs[span["id"]]
        for key, value in span["counts"].items():
            agg[key] = agg.get(key, 0) + value
    return out


def stat_value(stats: dict, name: str, stat: str) -> float:
    if stat == "calls_per_solve":
        solves = stats.get("spatial_model.solve_equilibrium_profile", {}).get("calls", 0)
        calls = stats.get(name, {}).get("calls", 0)
        return calls / solves if solves else 0.0
    if stat == "normals_per_s":
        agg = stats.get(name, {})
        return agg["normals"] / agg["s"] if agg.get("s") else 0.0
    return stats.get(name, {}).get(stat, 0)


def merge_stats(per_command: list) -> dict:
    total = {}
    for stats in per_command:
        for name, agg in stats.items():
            tot = total.setdefault(name, {})
            for key, value in agg.items():
                tot[key] = tot.get(key, 0) + value
    return total


def layer_metrics(p: Pass) -> dict:
    """Per-layer values of one traced pass."""
    per_cmd = {res.command.label: layer_stats(res.spans) for res in p.results}
    total = merge_stats(list(per_cmd.values()))
    return {key: stat_value(total if label is None else per_cmd.get(label, {}),
                            name, stat)
            for key, name, stat, label in layer_keys()}


def stat_of(name: str) -> str:
    parts = name.split(".")
    return parts[-2] if parts[-1] in SIZE_LABELS else parts[-1]


def is_count(name: str) -> bool:
    return stat_of(name) in COUNT_STATS


def is_computed(name: str) -> bool:
    return name == "cli.output_bytes" or stat_of(name) in COMPUTED_STATS


def counts_only(values: dict) -> dict:
    return {k: v for k, v in values.items() if is_count(k)}


# ---------------------------------------------------------------- environment

def environment(workload: Workload, seed: int, runner: Runner) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "openblas_default": openblas_defaults([np, scipy]),
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(SRC / "ebmvar"),
        "config_sha256": {label: hashlib.sha256(path.read_bytes()).hexdigest()
                          for label, path in runner.configs.items()},
        "workload": workload.name,
        "seed": seed,
    }


def openblas_defaults(packages) -> dict:
    """Default thread count and build of each OpenBLAS bundled with the
    given packages, read as loaded; the benchmark sets neither."""
    out = {}
    for pkg in packages:
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("libscipy_openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                config = getattr(lib, "scipy_openblas_get_config" + suffix, None)
                if threads is not None and config is not None:
                    threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                    out[path.name] = {"threads": threads(),
                                      "config": config().decode()}
                    break
    return out


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable: not a git checkout"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable: unresolved " + name


def tree_sha256(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(f.relative_to(path).as_posix().encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------- main

def run_plain(runner: Runner, oracle, seconds: float) -> tuple[dict, dict, list]:
    setup = measure_setup(runner.configs[runner.workload.commands[0].label],
                          runner.env, runner.work / "setup.stderr")
    ref_log = runner.work / "reference.stderr"
    passes = []
    start = time.perf_counter()
    refs = [measure_reference(runner.env, ref_log)]
    # Passes continue while the next one, with its reference job, is
    # expected to end within `seconds`; there is always at least one.
    while not passes or (time.perf_counter() - start + statistics.median(
            p.wall + ref for p, ref in zip(passes, refs)) <= seconds):
        p = runner.run_pass("plain")
        refs.append(measure_reference(runner.env, ref_log))
        check_pass(p, passes[0] if passes else None, oracle)
        if passes:
            discard_outputs(p)
        passes.append(p)
    results = [r for p in passes for r in p.results]
    failed = sum(1 for r in results if r.failures)
    metrics = {
        "wall_ref": (statistics.fmean(p.wall for p in passes)
                     / statistics.fmean(refs)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.rss for p in passes),
        "success_rate": 1.0 - failed / len(results),
    }
    detail = {"setup_walls_s": setup,
              "pass_walls_s": [p.wall for p in passes],
              "reference_walls_s": refs,
              "command_walls_s": [[r.proc.wall for r in p.results] for p in passes],
              "pass_cpu_s": [p.cpu for p in passes],
              "pass_peak_rss_mb": [p.rss for p in passes]}
    return metrics, detail, results


def run_traced(runner: Runner, oracle) -> tuple[dict, dict, list]:
    plain = runner.run_pass("plain")
    check_pass(plain, None, oracle)
    traced = [runner.run_pass("traced"), runner.run_pass("traced")]
    for p in traced:
        check_pass(p, plain, oracle)
        for res in p.results:
            problems = tracer.tree_problems(res.spans or [])
            if problems:
                raise RuntimeError(f"malformed span tree in {res.outdir}: {problems[:3]}")
    passes = [plain] + traced

    layers = [layer_metrics(p) for p in traced]
    if counts_only(layers[0]) != counts_only(layers[1]):
        for res in traced[1].results:
            res.failures.append("work counts differ between traced passes")
    metrics = {k: statistics.median(v[k] for v in layers) for k in layers[0]}

    single = None  # the CLI thread pool's baseline, where there is a pool
    if runner.workload.threaded:
        single = runner.run_pass("plain", threads=1)
        check_pass(single, plain, oracle, identical=True)
        passes.append(single)
    traced_wall = statistics.median(p.wall for p in traced)
    in_roots = statistics.median(
        sum(s["end"] - s["start"] for res in p.results for s in res.spans
            if s["parent"] is None) for p in traced)
    walls = {res.command.label: res.proc.wall for res in plain.results}
    metrics.update({
        "cli.output_bytes": sum(size for res in plain.results
                                for _, size in res.hashes.values()),
        "cli.threads_speedup": single.wall / plain.wall if single else 0.0,
        **{f"cli.cmd_wall_s.{label}": walls.get(label, 0.0) for label in COMMAND_LABELS},
        "trace_overhead_frac": traced_wall / plain.wall - 1.0,
        "trace.startup_s": traced_wall - in_roots,
    })

    detail = {"pass_walls_s": {"plain": plain.wall,
                               "traced": [p.wall for p in traced],
                               "threads_1": single.wall if single else None},
              "computed_counts": sorted(k for k in metrics if is_computed(k))}
    return metrics, detail, [r for p in passes for r in p.results]


def result_object(metrics: dict, units: dict, results: list) -> dict:
    failed = sum(1 for r in results if r.failures)
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads(smoke=True)))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny problem sizes, same names (for tests)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "ebmvar" / "cli.py").is_file():
        print(f"error: no ebmvar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import oracles

    workload = workloads(args.smoke)[args.workload]
    work = WORK / f"{workload.name}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, args.seed, work)
    oracle = oracles.Oracle()

    if args.trace:
        metrics, detail, results = run_traced(runner, oracle)
        units = per_layer_units()
    else:
        metrics, detail, results = run_plain(runner, oracle, args.seconds)
        units = END_TO_END

    result = result_object(metrics, units, results)
    detail.update(environment=environment(workload, args.seed, runner),
                  failures=[{"command": r.command.label, "failures": r.failures}
                            for r in results if r.failures],
                  outputs_changed_between_passes=sorted(
                      {f"{r.command.label}/{name}"
                       for r in results for name in r.changed}))
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
