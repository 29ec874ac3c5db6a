"""Peak memory and wall time of the Monte Carlo commands, on a `d` ladder.

    python bench/mc_stream.py [--before SRC_DIR] [--repeats N] [--out FILE]

Runs `wz-convergence` (the tau ladder, 4000 paths, t = 2 at --threads 1
and 2, and t = 8 at --threads 1, four times the fine steps) and
`simulate --which anomaly-field` at d = 16, 64, 225 and 900 (8x8
domain, exponential kernel, 1600 steps of dt = 0.0025, 16000 // d paths,
so that every size holds about 200 MB of paths), each in a fresh
interpreter with this checkout's `src/` on PYTHONPATH.  With `--before`,
every command also runs on another package tree, such as the parent
commit's `src/` unpacked by `git archive`, alternating which tree goes
first.  Each run records the child's peak RSS (`ru_maxrss` from
`os.wait4`), its wall and CPU time, and the sha256 of every output file;
each command lists the files whose hashes agree across all its runs, and
says per tree whether its reruns repeat every byte.  The result,
with the machine description (`machine()`, which also records the
PYTHONDONTWRITEBYTECODE and OPENBLAS_NUM_THREADS settings), goes to
BENCH_mc_stream.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODEL = {
    "beta_min": 0.38, "beta_max": 0.70, "T_l": 263.0, "T_u": 300.0,
    "r0": 0.0, "r1": 2.0, "Q": 100.0, "lambda": 510.0,
    "tau": 0.00273972602739726,
}
THETA = 280.0
FIELD_SIDES = {16: 5, 64: 9, 225: 16, 900: 31}  # d: grid points per side
FIELD_STEPS, FIELD_DT, FIELD_PATH_NODES = 1600, 0.0025, 16000
WZ_PATHS, WZ_T, WZ_LONG_T = 4000, 2.0, 8.0


def config_text(sections: dict) -> str:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in entries.items()]
        lines.append("")
    return "\n".join(lines)


def spatial_sections(n: int) -> dict:
    """Config sections of the field on the 8x8 domain with n grid points per
    side, at the forcing at which the constant profile T = THETA is an
    equilibrium: the field runs about that profile, inside the ice band."""
    ramp = (THETA - MODEL["T_l"]) / (MODEL["T_u"] - MODEL["T_l"])
    beta = MODEL["beta_min"] + (MODEL["beta_max"] - MODEL["beta_min"]) * ramp
    lam = MODEL["r0"] + MODEL["r1"] * THETA - MODEL["Q"] * beta
    return {"model": {**MODEL, "lambda": lam},
            "grid": {"Lx": 8.0, "Ly": 8.0, "Nx": n, "Ny": n},
            "boundary": {"theta": THETA},
            "noise": {"kernel": "exponential", "length": 0.5}}


def commands() -> list:
    """(label, config sections, CLI arguments) of every measured command."""
    out = []
    wz = {"model": MODEL, "sim": {"dt": 0.01, "n_steps": 1,
                                  "n_paths": WZ_PATHS, "seed": 0}}
    for label, threads, t in (("wz-threads1", 1, WZ_T), ("wz-threads2", 2, WZ_T),
                              ("wz-t8", 1, WZ_LONG_T)):
        out.append((label, wz, ["--threads", str(threads), "wz-convergence",
                                "--t", repr(t), "--x0-offset", "1.0"]))
    for d, n in FIELD_SIDES.items():
        cfg = {**spatial_sections(n),
               "sim": {"dt": FIELD_DT, "n_steps": FIELD_STEPS,
                       "n_paths": FIELD_PATH_NODES // d, "seed": 0}}
        out.append((f"field-d{d}", cfg, ["simulate", "--which", "anomaly-field"]))
    return out


def run_one(src: Path, cfg: Path, args: list, outdir: Path,
            cap: float | None = None) -> dict | None:
    """One CLI command in a fresh interpreter, timed from spawn to reap, its
    outputs in `outdir` hashed, summed in size and removed; None when it ran
    for `cap` seconds and was killed."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "ebmvar.cli", "--config", str(cfg),
            "--out", str(outdir)] + args
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(cap, proc.kill) if cap is not None else None
    if killer is not None:
        killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        if killer is not None:
            killer.cancel()
    wall = time.perf_counter() - start
    err = proc.stderr.read().decode()
    proc.stderr.close()
    if cap is not None and wall >= cap:
        shutil.rmtree(outdir, ignore_errors=True)
        return None
    rc = os.waitstatus_to_exitcode(status)
    if rc != 0:
        raise RuntimeError(f"{argv} exited {rc}: {err}")
    hashes, size = {}, 0
    for path in sorted(outdir.iterdir()):
        size += path.stat().st_size
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        hashes[path.name] = h.hexdigest()
        path.unlink()
    return {"peak_rss_mb": usage.ru_maxrss / 1024.0, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "sha256": hashes,
            "bytes": size}


def summary(runs: list) -> dict:
    return {key: statistics.median(r[key] for r in runs)
            for key in ("peak_rss_mb", "wall_s", "cpu_s")}


def machine() -> dict:
    import numpy as np
    import scipy

    # PYTHONDONTWRITEBYTECODE set means no bytecode cache, so every CLI
    # start compiles the package.
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            **{name: os.environ.get(name) for name in
               ("PYTHONDONTWRITEBYTECODE", "OPENBLAS_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, default=None,
                    help="package tree (a src/ directory) to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_mc_stream.json")
    args = ap.parse_args(argv)
    trees = {"after": ROOT / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    result = {"machine": machine(), "repeats": args.repeats, "commands": {}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for label, sections, cli_args in commands():
            cfg = tmp / f"{label}.ini"
            cfg.write_text(config_text(sections))
            runs = {name: [] for name in trees}
            for rep in range(args.repeats):
                names = list(trees) if rep % 2 == 0 else list(trees)[::-1]
                for name in names:
                    runs[name].append(run_one(trees[name], cfg, cli_args,
                                              tmp / f"{label}-{name}"))
            entry = {name: {"median": summary(r), "runs": r}
                     for name, r in runs.items()}
            for name, rs in runs.items():
                entry[name]["reruns_identical"] = all(
                    r["sha256"] == rs[0]["sha256"] for r in rs)
            every = [r["sha256"] for rs in runs.values() for r in rs]
            entry["identical_files"] = sorted(
                f for f in every[0] if all(h.get(f) == every[0][f] for h in every))
            result["commands"][label] = entry
            print(label, {name: entry[name]["median"] for name in runs},
                  "identical:", entry["identical_files"], flush=True)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
