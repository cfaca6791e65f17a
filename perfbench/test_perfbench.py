"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile

import pytest

import layers
import run
import tracing
import workloads

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")


@pytest.fixture
def scratch(tmp_path, monkeypatch):
    """Send everything the benchmark writes to a temporary directory."""
    monkeypatch.delenv("TMPDIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path))
    workloads.prepare_environment(str(tmp_path))
    return tmp_path


def tiny(name: str, monkeypatch, n: int = 40):
    spec = dataclasses.replace(workloads.WORKLOADS[name], n=n)
    monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    return spec


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("name", ["nm_serial", "fm_file", "nm_distributed_remote"])
def test_end_to_end_metrics_emitted_with_units(name, scratch, monkeypatch, capsys):
    tiny(name, monkeypatch)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0"])
    result, lines = last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 + workloads.DATASETS  # warm-up + one round
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric in ("join_s", "page_accesses", "first_pair_pages", "error_rate"):
        assert any(f"  {metric} = " in line for line in lines)


def test_service_metrics_emitted_with_units(scratch, monkeypatch, capsys):
    tiny("service_mixed", monkeypatch, n=60)
    code = run.main(["--workload", "service_mixed", "--seed", "2", "--seconds", "0.5", "--trace", "0"])
    result, lines = last_json(capsys)
    assert code == 0 and result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for kind in ("update", "window", "read"):
        assert any(f"  {kind}_p90_ms = " in line for line in lines)


@pytest.mark.parametrize("name", ["nm_serial", "nm_distributed_remote", "service_mixed"])
def test_traced_run_emits_every_per_layer_metric(name, scratch, monkeypatch, capsys):
    tiny(name, monkeypatch, n=60)
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0.5", "--trace", "1"])
    result, _ = last_json(capsys)
    assert code == 0 and result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers.PER_LAYER
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert metrics["trace.untraced_op_ms"] > 0 and metrics["trace.traced_op_ms"] > 0
    if name == "nm_distributed_remote":
        assert metrics["engine.units"] > 0 and metrics["engine.unit_roundtrip_s"] > 0
    assert os.path.exists(os.path.join(str(scratch), f"trace-{name}-seed1.json"))


def test_traced_run_alternates_untraced_and_traced_joins(scratch, monkeypatch):
    spec = tiny("nm_serial", monkeypatch)
    tracer = tracing.Tracer()
    batch = workloads.batch_ops(spec, 1, 0, tracer)
    phases = [r.phase for r in batch.records]
    assert workloads.DATASETS == 3
    assert phases == ["warm-up", "untraced", "traced", "traced", "untraced", "untraced", "traced"]
    pairs = workloads.traced_pairs(batch.records)
    assert [(u.dataset, t.dataset) for u, t in pairs] == [(0, 0), (1, 1), (2, 2)]
    assert all(u.phase == "untraced" and t.phase == "traced" for u, t in pairs)
    ops = [s for s in tracer.spans if s[1] == "op"]
    assert len(ops) == workloads.DATASETS
    # Set-up bulk loads are traced, the warm-up join's too.
    roots = [s for s in tracer.spans if s[1] == "index.bulk_load" and s[2] is None]
    assert len(roots) == 2 * workloads.DATASETS


def test_cpu_seconds_counts_live_children():
    import subprocess
    import sys
    import time

    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\nt = time.process_time()\nwhile time.process_time() - t < 0.4: pass\n"
         "print(flush=True)\nsys.stdin.read()"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    try:
        before = workloads.cpu_seconds() - workloads.live_children_cpu()
        child.stdout.readline()
        time.sleep(0.05)
        assert workloads.live_children_cpu() >= 0.3
        assert workloads.cpu_seconds() - before >= 0.3
    finally:
        child.stdin.close()
        child.wait(timeout=30)
        child.stdout.close()


def test_corrupted_pair_list_counts_as_failed(scratch, monkeypatch, capsys):
    tiny("nm_serial", monkeypatch)
    real = workloads.run_join

    def corrupted(engine, spec, workload):
        result = real(engine, spec, workload)
        result.pairs = result.pairs[1:]
        return result

    monkeypatch.setattr(workloads, "run_join", corrupted)
    code = run.main(["--workload", "nm_serial", "--seed", "3", "--seconds", "0", "--trace", "0"])
    result, _ = last_json(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= workloads.DATASETS


def test_wrong_service_answer_counts_as_failed(scratch, monkeypatch):
    spec = tiny("service_mixed", monkeypatch, n=60)
    import asyncio

    outcome = asyncio.run(
        workloads.service_run(spec, 4, 0.2, workloads.base_points(spec, 4))
    )
    assert run.check_service(outcome)[1] == 0
    outcome.final_pairs = outcome.final_pairs[:-1]
    attempted, failed, _ = run.check_service(outcome)
    assert failed == 1 and attempted == len(outcome.requests) + 1


def test_seed_changes_only_the_generated_inputs(scratch):
    spec = workloads.WORKLOADS["nm_serial"]
    a, b = spec.config(1, 0), spec.config(2, 0)
    assert dataclasses.replace(a, seed=0) == dataclasses.replace(b, seed=0)
    small = dataclasses.replace(spec, n=30)
    first, again, other = (workloads.open_batch(small, s) for s in (1, 1, 2))
    try:
        assert first.points_p == again.points_p and first.points_q == again.points_q
        assert first.points_p != other.points_p and first.points_q != other.points_q
    finally:
        for workload in (first, again, other):
            workload.close()
    service = dataclasses.replace(workloads.WORKLOADS["service_mixed"], n=30)
    assert workloads.base_points(service, 5)[0] == workloads.base_points(service, 5)[0]
    assert workloads.base_points(service, 5)[0] != workloads.base_points(service, 6)[0]


def test_aggregate_self_time_and_coverage():
    spans = [
        [1, "op", None, 1, 0.0, 10.0],
        [2, "a", 1, 1, 1.0, 4.0],
        [3, "b", 2, 1, 2.0, 3.0],
        # Two overlapping children on helper threads count once.
        [4, "c", 1, 2, 5.0, 8.0],
        [5, "c", 1, 3, 6.0, 9.0],
    ]
    table = tracing.aggregate(spans)
    assert table["op"] == {"count": 1, "total_s": 10.0, "self_s": 3.0}
    assert table["op/a"] == {"count": 1, "total_s": 3.0, "self_s": 2.0}
    assert table["op/a/b"]["self_s"] == 1.0
    assert table["op/c"]["count"] == 2
    assert tracing.coverage(spans, "op") == pytest.approx(0.7)


def test_install_wraps_aliases_and_uninstall_restores():
    import repro.datasets.workload as workload_module
    import repro.index.bulkload as bulkload
    from repro.storage.disk import DiskManager

    original_fn, original_read = bulkload.bulk_load_points, DiskManager.read
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert workload_module.bulk_load_points is not original_fn
        assert DiskManager.read is not original_read
        workload = workloads.open_batch(dataclasses.replace(workloads.WORKLOADS["nm_serial"], n=30), 1)
        workload.close()
    assert workload_module.bulk_load_points is original_fn
    assert bulkload.bulk_load_points is original_fn
    assert DiskManager.read is original_read
    assert [s[1] for s in tracer.spans].count("index.bulk_load") == 2


def test_benchmark_json_matches_the_code():
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    import shutil
    import subprocess
    import sys

    shutil.copytree(run.HERE, tmp_path / "perfbench")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nm_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
