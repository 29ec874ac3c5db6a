"""Wall time and peak memory of each layer of the spatial commands, on a
`d` ladder.

    python bench/scaling.py [--before SRC_DIR] [--repeats N] [--cap SECONDS]
                            [--out FILE]

On the 8x8 domain with the exponential kernel (length 0.5), boundary
theta = 280 and the forcing at which the constant profile T = theta is an
equilibrium (inside the ice band), at d = 16, 64, 225, 400, 900 and 1600,
it measures these layers:

- `newton`: `solve_equilibrium_profile`, the equilibrium profile;
- `operators`: `build_noise_covariance` and `build_operators` on a profile
  solved beforehand, that is C and the drift M;
- `certify`: `certify`, with the eigendecomposition of M it needs;
- `stationary`: `stationary_covariance`, that is Gamma, with the
  eigendecomposition of M;
- `sweep-point`: `monotonicity_sweep` at that one forcing: the Newton
  solve, the certificate's Hurwitz gate, Gamma and dGamma/dlambda;
- `write`: `cmd_spatial_stationary` writing Gamma's table, that is the
  nonzero scan, the formatting and the file write, with the command's
  numerics replaced by stubs that return a Gamma computed beforehand: a
  set-up run with this checkout's `src/` saves Gamma to a .npy file, which
  every run of both trees loads, so the timed call only writes;
- `import`: `import ebmvar.cli` in a fresh interpreter, which does not
  depend on d and is measured once, under the key "d0";
- `command`: a whole `python -m ebmvar.cli spatial-stationary` on that
  grid, from spawn to reap, as `mc_stream.run_one` measures it: start-up,
  the numerics, the writes and exit.  Its wall less that of `newton`,
  `certify`, `stationary` and `write` is the fixed cost of a command.

Each run of the other layers is a fresh interpreter with this checkout's
`src/` on PYTHONPATH.  It builds its inputs, times the one call
(`time.perf_counter`), and reports its own peak RSS (`VmHWM` of
/proc/self/status, which unlike `ru_maxrss` does not inherit the launching
process's high-water mark) and a `value` to compare between trees: the sum
of the profile, the sha256 of M's bytes then C's (for `operators`), K's
spectral abscissa, the trace of Gamma, the sha256 of gamma_stationary.txt
(for `write` and `command`), or nothing for `import`;
`values_agree` says, per layer and d, whether every run of every tree gave
the same value; it is null when some tree finished no run there, so that
no comparison was made.  A `command` run also records its CPU time, and
its peak RSS is the child's `ru_maxrss` from `os.wait4`.  With `--before`, every
run is repeated on another package tree, such as the parent commit's
`src/` unpacked by `git archive`, alternating which tree goes first.  A
run that takes longer than `--cap` seconds in all is killed; it, the rest
of its repeats and every larger d of that tree and layer are recorded as
skipped, not run.  The result, with the machine description, goes to
BENCH_scaling.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import mc_stream
from mc_stream import machine

ROOT = Path(__file__).resolve().parent.parent

SIDES = {16: 5, 64: 9, 225: 16, 400: 21, 900: 31, 1600: 41}  # d: Nx = Ny
LAYERS = ("newton", "operators", "certify", "stationary", "sweep-point",
          "write", "import", "command")

CHILD = r"""
import hashlib, json, sys, time

layer, n, theta = sys.argv[1], int(sys.argv[2]), 280.0
if layer == "import":
    start = time.perf_counter()
    import ebmvar.cli
    run = lambda: None
elif layer == "write":
    import argparse, tempfile, types
    from pathlib import Path
    import numpy as np
    from ebmvar import cli, model_core as mc

    gamma = np.load(sys.argv[3])
    state = types.SimpleNamespace(gamma=gamma, is_psd=True,
                                  spatial_variance=float(np.trace(gamma)))
    cert = types.SimpleNamespace(to_dict=dict, require_hurwitz=lambda: None)
    cli.model_params = lambda cfg: mc.default_params()
    cli._operators = lambda cfg, p: types.SimpleNamespace(d=len(gamma))
    cli.cov = types.SimpleNamespace(
        certify=lambda ops: cert,
        stationary_covariance=lambda ops, **_: state)
    out = Path(tempfile.mkdtemp())
    run = lambda: cli.cmd_spatial_stationary(
        None, argparse.Namespace(force=False), out)
    start = time.perf_counter()
else:
    from ebmvar import covariance_engine as ce
    from ebmvar import model_core as mc
    from ebmvar import spatial_model as sm

    p = mc.default_params()
    g = sm.Grid2D(Lx=8.0, Ly=8.0, Nx=n, Ny=n)
    bd = sm.BoundaryTrace.constant(theta)
    Q_field = sm.SpatialField.constant(g, p.Q)
    lam = p.r0 + p.r1 * theta - p.Q * mc.co_albedo(theta, p)
    noise = lambda: sm.build_noise_covariance(g, "exponential", variance=1.0,
                                              length=0.5)
    if layer == "newton":
        run = lambda: float(sm.solve_equilibrium_profile(
            g, Q_field, lam, bd, p).values.sum())
    elif layer == "sweep-point":
        C = noise()
        run = lambda: ce.monotonicity_sweep(g, Q_field, bd, p, C, lam).trace
    else:
        prof = sm.solve_equilibrium_profile(g, Q_field, lam, bd, p)
        if layer == "operators":
            run = lambda: sm.build_operators(g, prof, Q_field, p, noise())
        else:
            ops = sm.build_operators(g, prof, Q_field, p, noise())
            if layer == "certify":
                run = lambda: ce.certify(ops).k_spectral_abscissa
            else:
                run = lambda: ce.stationary_covariance(ops).spatial_variance
    start = time.perf_counter()
value = run()
wall = time.perf_counter() - start
if layer == "operators":  # hashed in place, after the clock stops
    h = hashlib.sha256(value.M)
    h.update(value.C)
    value = h.hexdigest()
elif layer == "write":
    import shutil
    h = hashlib.sha256()
    with open(out / "gamma_stationary.txt", "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    value = h.hexdigest()
    shutil.rmtree(out)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh
                  if line.startswith("VmHWM:"))
print(json.dumps({"wall_s": wall, "peak_rss_mb": hwm_kb / 1024.0,
                  "value": value}))
"""


# Saves Gamma at argv[1] grid points per side to the .npy file argv[2].
GAMMA = r"""
import sys
import numpy as np
from ebmvar import covariance_engine as ce, model_core as mc, spatial_model as sm

n, theta, p = int(sys.argv[1]), 280.0, mc.default_params()
g = sm.Grid2D(Lx=8.0, Ly=8.0, Nx=n, Ny=n)
bd = sm.BoundaryTrace.constant(theta)
Q_field = sm.SpatialField.constant(g, p.Q)
lam = p.r0 + p.r1 * theta - p.Q * mc.co_albedo(theta, p)
noise = sm.build_noise_covariance(g, "exponential", variance=1.0, length=0.5)
prof = sm.solve_equilibrium_profile(g, Q_field, lam, bd, p)
ops = sm.build_operators(g, prof, Q_field, p, noise)
np.save(sys.argv[2], ce.stationary_covariance(ops).gamma)
"""


def sizes(layer: str) -> dict:
    """{d: Nx} of the layer; d = 0 for the size-free import."""
    return {0: 2} if layer == "import" else SIDES


def save_gamma(src: Path, d: int, path: Path) -> Path:
    """Gamma at d, computed by the package tree `src`, saved to `path`."""
    subprocess.run([sys.executable, "-c", GAMMA, str(SIDES[d]), str(path)],
                   env=dict(os.environ, PYTHONPATH=str(src)),
                   stdin=subprocess.DEVNULL, check=True)
    return path


def run_one(src: Path, layer: str, d: int, cap: float,
            extra: Path | None = None) -> dict | None:
    """One measured run, or None when it exceeds the cap; the `write` layer
    reads Gamma from the .npy file `extra`, the `command` layer runs on the
    config file `extra`."""
    if layer == "command":
        r = mc_stream.run_one(src, extra, ["spatial-stationary"],
                              extra.with_suffix(".out"), cap)
        return r and {"wall_s": r["wall_s"], "cpu_s": r["cpu_s"],
                      "peak_rss_mb": r["peak_rss_mb"],
                      "value": r["sha256"]["gamma_stationary.txt"]}
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", CHILD, layer, str(sizes(layer)[d])]
    if extra is not None:
        argv.append(str(extra))
    try:
        proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=cap)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"{layer} at d = {d} on {src} exited "
                           f"{proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def values_agree(runs: dict) -> bool | None:
    """Whether every run of every tree in `runs`, {tree: [run, ...]}, gave
    the same value; None unless every tree finished a run."""
    if not all(runs.values()):
        return None
    return len({r["value"] for rs in runs.values() for r in rs}) == 1


def layer_input(layer: str, d: int, src: Path, tmp: Path) -> Path | None:
    """What a run of `layer` at d reads: Gamma computed by `src` for
    `write`, the config file for `command`, or nothing."""
    if layer == "write":
        return save_gamma(src, d, tmp / "gamma.npy")
    if layer == "command":
        cfg = tmp / f"d{d}.ini"
        cfg.write_text(mc_stream.config_text(
            mc_stream.spatial_sections(SIDES[d])))
        return cfg
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, default=None,
                    help="package tree (a src/ directory) to compare against")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cap", type=float, default=600.0,
                    help="seconds a run may take in all before it is killed")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_scaling.json")
    args = ap.parse_args(argv)
    trees = {"after": ROOT / "src"}
    if args.before is not None:
        trees = {"before": args.before.resolve(), **trees}
    result = {"machine": machine(), "repeats": args.repeats, "cap_s": args.cap,
              "layers": {layer: {} for layer in LAYERS}, "skipped": [],
              "values_agree": {layer: {} for layer in LAYERS}}
    capped = set()  # (tree, layer) pairs that hit the cap
    tmp = Path(tempfile.mkdtemp())
    for layer in LAYERS:
        for d in sizes(layer):
            extra = layer_input(layer, d, trees["after"], tmp)
            runs = {name: [] for name in trees}
            for rep in range(args.repeats):
                names = list(trees) if rep % 2 == 0 else list(trees)[::-1]
                for name in names:
                    if (name, layer) in capped:
                        result["skipped"].append({
                            "tree": name, "layer": layer, "d": d, "repeat": rep,
                            "reason": "an earlier run of this tree and layer "
                                      "exceeded the cap"})
                        continue
                    r = run_one(trees[name], layer, d, args.cap, extra)
                    if r is None:
                        capped.add((name, layer))
                        result["skipped"].append({
                            "tree": name, "layer": layer, "d": d, "repeat": rep,
                            "reason": f"killed after the {args.cap:g} s cap"})
                        continue
                    runs[name].append(r)
            entry = {name: {"median": {key: statistics.median(r[key] for r in rs)
                                       for key in ("wall_s", "cpu_s",
                                                   "peak_rss_mb")
                                       if key in rs[0]},
                            "runs": rs}
                     for name, rs in runs.items() if rs}
            result["layers"][layer][f"d{d}"] = entry
            result["values_agree"][layer][f"d{d}"] = values_agree(runs)
            print(layer, d, {name: e["median"] for name, e in entry.items()},
                  flush=True)
    shutil.rmtree(tmp)
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
