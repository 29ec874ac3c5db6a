"""Tests of the benchmark itself, on the tiny problem sizes of `--smoke`.

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload, trace, section", [
    ("stationary-ladder", 0, "end_to_end"),
    ("sweep-monte-carlo", 1, "per_layer"),
])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_workload_and_command_names_match_the_spec():
    workloads = run.workloads(smoke=True)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads)
    labels = [c.label for w in workloads.values() for c in w.commands]
    assert labels == list(run.COMMAND_LABELS)


@pytest.fixture(scope="module")
def smoke_runner(tmp_path_factory):
    def make(name):
        work = tmp_path_factory.mktemp(name)
        return run.Runner(run.workloads(smoke=True)[name], seed=7, work=work)
    return make


def test_corrupted_gamma_is_counted_as_a_failure(smoke_runner):
    runner = smoke_runner("stationary-ladder")
    oracle = oracles.Oracle()
    p = runner.run_pass("plain")
    run.check_pass(p, None, oracle)
    assert run.result_object({}, {}, p.results)["failed"] == 0

    res = p.results[0]
    path = res.outdir / "gamma_stationary.txt"
    lines = path.read_text().splitlines()
    row, col, value = lines[2].split(",")
    lines[2] = f"{row},{col},{-float(value)!r}"
    path.write_text("\n".join(lines) + "\n")
    assert oracle.check(res)

    res.failures = []
    run.check_pass(p, None, oracle)
    summary = run.result_object({}, {}, p.results)
    assert summary["failed"] == 1 and summary["correct"] is False


def test_traced_span_tree_is_well_nested_across_threads(smoke_runner):
    runner = smoke_runner("sweep-monte-carlo")
    p = runner.run_pass("traced")
    spans = p.results[0].spans
    assert p.results[0].proc.rc == 0 and spans
    assert tracer.tree_problems(spans) == []

    by_id = {s["id"]: s for s in spans}
    sweeps = [s for s in spans if s["name"] == "covariance_engine.monotonicity_sweep"]
    assert len({s["thread"] for s in sweeps}) == 2
    for s in sweeps:
        parent = by_id[s["parent"]]
        assert parent["name"] == "cli.cmd_monotonicity"
        assert parent["thread"] != s["thread"]
    roots = [s for s in spans if s["parent"] is None]
    assert [r["name"] for r in roots] == ["cli.main"]


def test_tree_check_rejects_a_child_outside_its_parent():
    spans = [
        {"id": 0, "parent": None, "name": "a", "start": 0.0, "end": 1.0, "thread": 1},
        {"id": 1, "parent": 0, "name": "b", "start": 0.5, "end": 1.5, "thread": 2},
    ]
    assert tracer.tree_problems(spans)
    spans[1]["end"] = 0.9
    assert tracer.tree_problems(spans) == []
    assert tracer.self_times(spans) == pytest.approx({0: 0.6, 1: 0.4})
