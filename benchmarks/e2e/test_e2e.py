"""Self-tests of the end-to-end benchmark (smoke scale, under a minute).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.e2e.compare import compare
from benchmarks.e2e.harness import (
    PINS_JSON,
    ROOT,
    benchmark_spec,
    child_env,
    declared_metrics,
    measure,
    result_line,
)

END_TO_END, PER_LAYER = declared_metrics()
WORKLOADS = [w["name"] for w in benchmark_spec()["workloads"]]


def _assert_declared(metrics, declared):
    assert set(metrics) == set(declared)
    for name, metric in metrics.items():
        assert metric["unit"] == declared[name]["unit"]
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_run_emits_every_declared_metric(workload):
    record = measure(workload, 7, 0, trace=True, scale="smoke")
    line = result_line(record)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], record["problems"]
    assert line["attempted"] >= 1
    assert record["pinned"] == record["digest"]
    _assert_declared(line["metrics"], PER_LAYER)
    _assert_declared(record["metrics"], END_TO_END)
    layers = record["per_layer"]
    folded = sum(m["value"] for name, m in layers.items()
                 if name.endswith(".self_s"))
    assert folded == pytest.approx(layers["trace.total_s"]["value"],
                                   rel=0.01)


def test_command_prints_end_to_end_metrics_as_its_last_line(tmp_path):
    # the cheapest workload at full scale: one warm-up and one repeat
    out = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload",
         "fleet_mixed", "--seed", "7", "--seconds", "0", "--trace", "0",
         "--out", str(out)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=170)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert json.loads(out.read_text())["pinned"]
    _assert_declared(line["metrics"], END_TO_END)


def test_tampered_pinned_digest_fails_the_run(tmp_path):
    pins = json.loads(PINS_JSON.read_text())
    pins["digests"]["smoke"]["sim_mongodb"] = "0" * 64
    tampered = tmp_path / "pins.json"
    tampered.write_text(json.dumps(pins))
    record = measure("sim_mongodb", 7, 0, trace=False, scale="smoke",
                     pins=tampered)
    assert result_line(record)["correct"] is False
    assert any("pinned" in problem for problem in record["problems"])


def _sets(throughput, failed=0, correct=True):
    """One-workload sets, one per run, whose runs read ``throughput``."""
    def one(value):
        metrics = {"throughput": {"value": value},
                   "setup_s": {"value": 0.5},
                   "peak_rss_mb": {"value": 70.0}}
        record = {"correct": correct, "attempted": 100, "failed": failed,
                  "metrics": metrics}
        return {"workloads": {"sim_mongodb": record}}
    return [one(value) for value in throughput]


STEADY = [1000.0, 1010.0, 1005.0, 995.0, 1002.0]


def _verdicts(base, new):
    return {row.metric: row.verdict
            for row in compare(base, new, END_TO_END)}


def test_compare_passes_identical_sets():
    verdicts = _verdicts(_sets(STEADY), _sets(STEADY))
    assert set(verdicts.values()) == {"ok"}
    assert set(verdicts) == set(END_TO_END) | {"failed_frac"}


def test_compare_flags_a_regression_beyond_the_bound():
    base = _sets(STEADY)
    bound = END_TO_END["throughput"]["bound"]
    within = _sets([v * (1 - bound + 0.01) for v in STEADY])
    beyond = _sets([v * (1 - bound - 0.05) for v in STEADY])
    assert _verdicts(base, within)["throughput"] == "ok"
    assert _verdicts(base, beyond)["throughput"] == "regression"
    assert _verdicts(beyond, base)["throughput"] == "better"


def test_compare_marks_wide_spread_unresolved_and_failures_regressed():
    noisy = _sets([700.0, 1300.0, 900.0, 1100.0, 1000.0], failed=1)
    verdicts = _verdicts(_sets(STEADY), noisy)
    assert verdicts["throughput"] == "unresolved"
    assert verdicts["failed_frac"] == "regression"


def test_compare_marks_every_pair_of_a_wrong_new_set_regressed():
    wrong = _sets(STEADY, correct=False)
    assert set(_verdicts(_sets(STEADY), wrong).values()) == {"regression"}
    assert set(_verdicts(wrong, _sets(STEADY)).values()) == {"ok"}
