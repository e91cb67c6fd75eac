"""Tests of the benchmark itself: ``python3 -m pytest bench/test_bench.py``.

The smoke test sends one request per workload (about ten seconds) and
validates both result schemas.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_schema_validation_rejects_malformed_results():
    names = [(m["name"], m["unit"]) for m in _spec()["end_to_end"]]
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {n: {"value": 1.5, "unit": u} for n, u in names}}
    assert run.validate_result(good, names) == []
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["setup_s"]
    wrong_unit = json.loads(json.dumps(good))
    wrong_unit["metrics"]["op_p90_s"]["unit"] = "ms"
    not_number = json.loads(json.dumps(good))
    not_number["metrics"]["op_p90_s"]["value"] = "fast"
    no_attempts = dict(good, attempted=0)
    extra_key = dict(good, ops=3)
    for bad in (missing, wrong_unit, not_number, no_attempts, extra_key):
        assert run.validate_result(bad, names), bad


def test_every_per_layer_metric_is_produced_by_some_request_kind():
    """Names in BENCHMARK.json that no replay records would always read 0."""
    source = open(os.path.join(BENCH_DIR, "workloads.py"), encoding="utf-8").read()
    computed_in_run = {"cli.import_s", "trace.overhead_ratio", "serialize.output_bytes"}
    for metric in _spec()["per_layer"]:
        name = metric["name"]
        assert name in computed_in_run or f'"{name}"' in source, name


def test_same_seed_gives_same_inputs():
    for workload in workloads.CYCLES:
        first = [item.key for item in workloads.Sequence(workload, 7).cycle(0)]
        again = [item.key for item in workloads.Sequence(workload, 7).cycle(0)]
        assert first == again
        assert [i.data for i in workloads.Sequence(workload, 7).cycle(1)] == \
            [i.data for i in workloads.Sequence(workload, 7).cycle(1)]
    assert [i.key for i in workloads.Sequence("algebra", 7).cycle(0)] != \
        [i.key for i in workloads.Sequence("algebra", 8).cycle(0)]


def test_every_pool_item_has_a_golden_digest():
    with open(run.GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    assert {item.key for item in workloads.all_pool_items()} <= set(goldens)


def test_fails_without_a_result_outside_a_source_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "algebra", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
