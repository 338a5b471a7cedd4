"""Tests of the benchmark harness itself: names, checks, faults, tracing.

The smoke runs use tiny inputs (one replicate per mixture), so the whole
file runs in well under a minute.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402

if str(run.ROOT / "src") not in sys.path:
    sys.path.append(str(run.ROOT / "src"))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> run.Workload:
    workload = dataclasses.replace(
        run.WORKLOADS[name], replicates=(1, 1), setup_rounds=1, iterations=1
    )
    if workload.evaluate and "rf" in workload.evaluate[1]:
        workload = dataclasses.replace(
            workload, evaluate=workload.evaluate + ("--rf-trees", "3")
        )
    return workload


def test_names_and_units_are_well_formed():
    spec = benchmark_spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in metrics]
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric


def test_benchmark_json_matches_the_harness():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        tracer.LAYER_METRICS + run.TRACE_METRICS
    )
    assert "setup_s" in dict(run.END_TO_END)


def test_expected_digests_cover_every_workload():
    expected = json.loads(run.EXPECTED_DIGESTS.read_text())
    assert expected["seed"] == run.DEFAULT_SEED
    for name, workload in run.WORKLOADS.items():
        kinds = expected["workloads"][name]
        assert {"generate", "extract"} <= set(kinds)
        if workload.evaluate is not None:
            assert "aggregate.csv" in kinds["evaluate"]
            assert "run_config.json" not in kinds["evaluate"]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_run_of_each_workload(name, tmp_path):
    record = run.run_benchmark(tiny(name), seed=3, trace=False,
                               work_root=tmp_path)
    result = record["result"]
    assert result["correct"], record["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(dict(run.END_TO_END))
    for metric, entry in result["metrics"].items():
        assert entry["value"] > 0, metric


@pytest.mark.parametrize("name", ["prep", "cv-knn"])
def test_traced_smoke_run(name, tmp_path):
    workload = tiny(name)
    record = run.run_benchmark(workload, seed=3, trace=True,
                               work_root=tmp_path)
    result = record["result"]
    assert result["correct"], record["problems"]
    metrics = {m: entry["value"] for m, entry in result["metrics"].items()}
    assert set(metrics) == set(dict(tracer.LAYER_METRICS + run.TRACE_METRICS))
    for layer in workload.loaded:
        assert metrics[f"{layer}.calls"] > 0, layer
        assert metrics[f"{layer}.failed"] == 0, layer
    for layer in workload.bypassed:
        assert metrics[f"{layer}.calls"] == 0, layer


def test_a_second_run_of_a_seed_must_match_the_first(tmp_path):
    workload = tiny("prep")
    first = run.run_benchmark(workload, 3, False, tmp_path)
    assert first["result"]["correct"]
    record = run.digest_record_path(tmp_path, workload, 3)
    saved = json.loads(record.read_text())
    saved["extract"]["train.csv"] = "0" * 64
    record.write_text(json.dumps(saved))
    second = run.run_benchmark(workload, 3, False, tmp_path)
    assert not second["result"]["correct"]
    assert any("extract outputs differ" in p for p in second["problems"])


@pytest.mark.parametrize("fault", ["raise", "corrupt"])
def test_fault_counts_as_failed_and_the_run_goes_on(fault, tmp_path):
    workload = dataclasses.replace(tiny("prep"), iterations=2)
    clean = run.run_benchmark(workload, 3, False, tmp_path)
    assert clean["result"]["failed"] == 0
    record = run.run_benchmark(workload, 3, False, tmp_path, fault=fault)
    result = record["result"]
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["attempted"] == clean["result"]["attempted"]
    timed = [c for c in record["calls"] if c["label"] == "timed"]
    assert len(timed) == 4
    assert sum(c["error"] is not None for c in timed) == 1
    ratio = result["metrics"]["success_ratio"]["value"]
    assert ratio == pytest.approx(1 - 1 / result["attempted"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_call_counts_a_raising_layer(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "tracer.py"), str(out), "--", "evaluate",
         "--features", str(tmp_path / "missing"), "--out", str(tmp_path / "res")],
        cwd=run.ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    metrics = tracer.combine([json.loads(out.read_text())])
    assert metrics["cubeio.failed"] == 1
    assert metrics["cli.failed"] == 1
    assert metrics["pipeline.calls"] == 0


def test_install_wraps_caller_bindings_and_uninstall_restores():
    import soilspec.pipeline
    from soilspec.ml.trees import RandomForestRegressor

    smote_module = sys.modules["soilspec.ml.smote"]
    before_smote = soilspec.pipeline.smote
    had_fit = "fit" in vars(RandomForestRegressor)
    saved = tracer.install(tracer.Tracer())
    try:
        assert soilspec.pipeline.smote is not before_smote
        assert smote_module.smote is before_smote
        assert "fit" in vars(RandomForestRegressor)
    finally:
        tracer.uninstall(saved)
    assert soilspec.pipeline.smote is before_smote
    assert ("fit" in vars(RandomForestRegressor)) == had_fit


def test_busy_time_sums_threads_and_wall_time_is_the_union():
    recorder = tracer.Tracer()
    barrier = threading.Barrier(2)

    def fit_one():
        with recorder.span("ml.trees.fit"):
            barrier.wait(timeout=5)
            time.sleep(0.1)

    with recorder.span("ml.trees.forest_fit"):
        workers = [threading.Thread(target=fit_one) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
    assert not any(worker.is_alive() for worker in workers)
    busy = recorder.busy("ml.trees.fit")
    wall = recorder.wall({"ml.trees.fit"})
    assert busy >= 0.2
    assert wall < 0.75 * busy
    assert recorder.wall({"ml.trees.fit", "ml.trees.forest_fit"}) == pytest.approx(
        recorder.busy("ml.trees.forest_fit")
    )


def test_nested_spans_count_once_and_self_time_excludes_children():
    recorder = tracer.Tracer()
    with recorder.span("pipeline"):
        with recorder.span("pipeline"):
            time.sleep(0.02)
        with recorder.span("lda"):
            time.sleep(0.05)
    (outer,) = [s for s in recorder.spans if s.key == "pipeline" and s.outer_key]
    outer_s = outer.end - outer.start
    assert recorder.busy("pipeline") == pytest.approx(outer_s)
    assert recorder.self_time("pipeline") == pytest.approx(
        outer_s - recorder.busy("lda"), abs=1e-6
    )
    assert recorder.self_time("pipeline") < outer_s - 0.04
