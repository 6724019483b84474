"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench/tests -q

They run the harness on its ``smoke`` workload (one q=1, r=1 tower,
three graded complexes and two graded modules), so they take a few
seconds, not a benchmark run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

TABLE_METRICS = [
    ("setup_s", "s"), ("run_s", "s"), ("item_s", "s"), ("gen_s", "s"), ("validate_s", "s"),
    ("patch_s", "s"), ("certify_s", "s"), ("roundtrip_s", "s"), ("verify_ha_s", "s"),
    ("verify_ha_p90_s", "s"), ("invariants_s", "s"), ("invariants_p90_s", "s"),
    ("peak_rss_mib", "MiB"), ("error_rate", "ratio"),
]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke():
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def test_smoke_prints_every_metric_with_its_unit(smoke):
    rows = {line.split()[0]: line.split() for line in smoke[1:-1]}
    for name, unit in TABLE_METRICS:
        assert name in rows, name
        assert rows[name][1] == unit, (name, rows[name])
    assert float(rows["error_rate"][2]) == 0.0


def test_smoke_result_line_has_the_required_keys(smoke):
    result = json.loads(smoke[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_layer_metric():
    proc = bench("--workload", "smoke", "--seed", "3", "--seconds", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["patcher.validate_hypotheses.calls"] > 0
    assert metrics["linalg.smith_transforms.calls"] > 0
    assert metrics["groebner.lead.calls"] > 0


def test_gen_and_patch_run_in_separate_fresh_interpreters(tmp_path):
    runner = run.Runner(tmp_path, trace=False)
    item = run.run_tower_item(runner, run.SMOKE_TOWER, 5, None)
    assert run.check_tower_item(item, None) == []
    pids = {item["gen"]["pid"], item["patch"]["pid"], os.getpid()}
    assert len(pids) == 3
    # the patch child validated exactly twice: its own cold pass and the one inside patch()
    assert len(item["patch"]["trace"]["durations"]["patcher.validate_hypotheses"]) == 2
    assert "patchtower" not in sys.modules
    cache = "_COHOMOLOGY" + "_CACHE"
    for src in BENCH.glob("*.py"):
        assert cache not in src.read_text(), src


def test_a_wrong_output_counts_as_a_failure(tmp_path):
    runner = run.Runner(tmp_path, trace=False)
    item = run.run_tower_item(runner, run.SMOKE_TOWER, 5, None)
    assert run.check_tower_item(item, {"output": "0" * 64}) == ["output digest differs from the reference"]
    item["sidecar"]["expected"]["rank"] += 1
    assert run.check_tower_item(item, None) == ["rank 1, expected 2"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [*run.TOWERS, "ha-graded"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "tower-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
