import dataclasses

import numpy as np
import pytest

from ebmvar import sde_engine as se
from ebmvar.cli import EXIT_OK, main


def collect(simulate, *args, column=None, **kwargs):
    """Every state of the run `simulate(*args, **kwargs)`, whose `SimConfig`
    is among its arguments, as the array that its sink fills block by block
    at the steps the kernel names: shape (n_paths, n_steps + 1) plus a
    state's shape, or (n_paths, n_steps + 1) of each state's entry `column`."""
    cfg = next(a for a in (*args, *kwargs.values()) if isinstance(a, se.SimConfig))
    values = None

    def sink(first, states):
        nonlocal values
        if column is not None:
            states = states[..., column]
        if values is None:
            values = np.empty((cfg.n_paths, cfg.n_steps + 1) + states.shape[2:])
        values[:, first:first + states.shape[1]] = states

    simulate(*args, sink=sink, **kwargs)
    return values


def dump_bytes(times, values, seed=0):
    """The path dump of `values`, (n_paths, n_times) or (n_paths, n_times, d),
    at `times`: its `binary_header`, the times, then each path's states, all
    little-endian float64."""
    n_paths, n_times, *d = values.shape
    return (se.binary_header(n_paths, n_times, d[0] if d else 0, seed)
            + np.asarray(times).astype("<f8").tobytes()
            + np.asarray(values).astype("<f8").tobytes())


def pooled_moments(values, burn_in_fraction):
    """The mean and variance of the (n_paths, n_times) `values` pooled over
    the times after the first `burn_in_fraction`, with standard errors from
    the spread of per-path statistics, so that correlation in time within a
    path does not bias them down: (mean, variance, se_mean, se_variance)."""
    retained = values[:, int(np.floor(burn_in_fraction * values.shape[1])):]
    n = retained.shape[0]
    grand_mean = float(np.mean(retained))
    per_path_sq = ((retained - grand_mean) ** 2).mean(axis=1)
    return (grand_mean, float(np.mean(per_path_sq)),
            float(np.std(retained.mean(axis=1), ddof=1) / np.sqrt(n)),
            float(np.std(per_path_sq, ddof=1) / np.sqrt(n)))


@pytest.fixture
def run_cli(tmp_path):
    """Run one CLI command on the config of model parameters `p` plus
    `sections` (INI section name -> entries), check that it succeeds, and
    return its output directory."""
    def run(p, sections, *argv):
        model = {("lambda" if k == "lam" else k): v
                 for k, v in dataclasses.asdict(p).items()}
        cfg = tmp_path / "exp.ini"
        cfg.write_text("".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in {"model": model, **sections}.items()))
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), *argv]) == EXIT_OK
        return out
    return run
