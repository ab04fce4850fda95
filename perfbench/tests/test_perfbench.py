"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

The smoke tests run ``run.py --smoke`` (half-size graphs, one set-up, one
cycle) in a subprocess, so each starts and stops its own Spark.
"""
from __future__ import annotations

import fnmatch
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import ledger  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    from workloads import WORKLOADS as defined

    assert sorted(defined) == sorted(WORKLOADS)


def test_layer_metric_names_and_units_match_benchmark_json():
    names = {f"{layer}.{metric}": unit for layer, metric, unit, _ in spans.LAYER_METRICS}
    assert names == _units("per_layer")


def test_end_to_end_names_and_units_match_benchmark_json():
    samples = [
        {"op": "a", "kind": "kgp", "ok": True, "seconds": 2.0},
        {"op": "b", "kind": "fg", "ok": True, "seconds": 4.0},
    ]
    metrics = run.end_to_end(10.0, samples)
    assert {k: v["unit"] for k, v in metrics.items()} == _units("end_to_end")
    assert metrics["ops_per_min"]["value"] == pytest.approx(20.0)
    assert metrics["op_p50_s"]["value"] == pytest.approx(3.0)
    assert metrics["kgp_pipeline_s"]["value"] == pytest.approx(2.0)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    p, _ = run.tail_percentile([float(i) for i in range(20)])
    assert p == 50
    p, value = run.tail_percentile([float(i) for i in range(1000)])
    assert p == 99 and value == pytest.approx(989.01)


def test_no_file_is_collected_as_a_repo_benchmark():
    """pyproject.toml collects ``bench_*.py``; none of ours may match."""
    for f in BENCH.rglob("*.py"):
        assert not fnmatch.fnmatch(f.name, "bench_*.py"), f


def test_exact_lists_layers_whose_counts_differ():
    def rec(jobs):
        return {"spans": [{"name": "core.walks", "op_name": None, "jobs": jobs, "stages": 3},
                          {"name": "kg.partition", "op_name": None, "jobs": 12, "stages": 12}]}

    assert ledger.exact(rec(5), rec(5)) == {}
    assert ledger.exact(rec(5), rec(6)) == {"core.walks": [(0, "jobs", 5, 6)]}


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_second_seed_changes_the_kg(spark):
    import adapter
    from workloads import digest

    def kg_digest(seed):
        bundle = adapter.generate("MAG-42M", spark, sf=0.02, seed=seed)
        try:
            return digest(bundle.kg.triples.toPandas())
        finally:
            bundle.unpersist()

    assert kg_digest(1) == kg_digest(1)
    assert kg_digest(1) != kg_digest(2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_has_no_failed_op(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run_prints_every_layer_metric():
    result = _result(_run("--workload", WORKLOADS[0], "--seed", "3", "--seconds", "1",
                          "--smoke", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    assert result["metrics"]["core.sparql_extract.jobs"]["value"] > 0
