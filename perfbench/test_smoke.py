"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

    python -m pytest perfbench/test_smoke.py

It checks that each run reports every metric named in BENCHMARK.json with its
unit and that the output checks ran. It measures nothing.
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.import_program()

import workloads  # noqa: E402

SPEC = run.benchmark_spec()
EXPECTED_CHECKS = {
    "train-ref": {"one_record_per_update", "progress_file", "checkpoint_roundtrip",
                  "eval_slots", "eval_accounting", "never_queries", "trained_beats_never"},
    "eval-ref": {"eval_slots", "eval_accounting", "never_queries", "always_queries"},
    "sweep-dispatchers": {"sweep_row_count", "sweep_rows_readback", "row_accounting",
                          "never_queries", "always_queries"},
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_reports_every_metric_and_checks_outputs(workload, trace, tmp_path):
    record = run.run_workload(workload, seed=1, seconds=0.3, trace=trace,
                              sizes=workloads.TINY, out_dir=tmp_path)

    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        reported = record["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)) and math.isfinite(reported["value"])
    if not trace:
        assert all(record["metrics"][m["name"]]["value"] > 0 for m in wanted)

    assert set(record["checks"]) == EXPECTED_CHECKS[workload]
    # a policy trained for two tiny updates need not beat never-query yet
    failing = {name for name, c in record["checks"].items() if c["failed"]}
    assert failing <= {"trained_beats_never"}
    assert record["attempted"] >= record["ops"] + len(record["checks"])
    json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")})


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "eval-ref",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
