"""Tests of the benchmark itself, on tiny simulated lengths.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

#: Long enough for >= 100 pooled commits, so the p90 is not refused.
TINY = "0.5"


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args,
         "--seconds", "1"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout):
    """{name: unit} of the ``name: value unit`` lines."""
    metrics = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": ")
        if sep and " " in rest and not line.startswith("{"):
            metrics[name] = rest.rsplit(" ", 1)[1]
    return metrics


def result_of(done):
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stdout
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_timed_run_prints_every_metric_and_repeats_its_fingerprint(workload):
    done = bench("--workload", workload, "--sim-scale", TINY)
    result = result_of(done)
    # run.py fails any sample whose fingerprint differs from the first.
    assert result["attempted"] >= run.MIN_TIMED_SAMPLES
    expected = dict(run.END_TO_END)
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == expected
    printed = printed_metrics(done.stdout)
    for name, unit in expected.items():
        assert printed[name] == unit
    assert printed["run_fail_rate"] == "ratio"


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    result = result_of(bench("--workload", workload, "--sim-scale", TINY,
                             "--trace", "1"))
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    shares = [entry["value"] for name, entry in result["metrics"].items()
              if name.endswith(".self_share")]
    unattributed = result["metrics"]["trace.unattributed_share"]["value"]
    assert sum(shares) + unattributed == pytest.approx(1.0)


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = bench("--workload", "tpcc_hades", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
