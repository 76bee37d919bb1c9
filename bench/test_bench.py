"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PINS = json.loads((BENCH / "pins.json").read_text())["pins"]


def test_same_seed_gives_same_argv_lists():
    for workload in workloads.SLOTS:
        first = [workloads.plan_pass(workload, 7, i) for i in range(4)]
        again = [workloads.plan_pass(workload, 7, i) for i in range(4)]
        other = [workloads.plan_pass(workload, 8, i) for i in range(4)]
        assert first == again
        assert first != other
        assert all(len(p) == len(workloads.SLOTS[workload]) for p in first)


def test_every_request_the_workloads_can_issue_is_pinned():
    for workload in workloads.SLOTS:
        for argv in workloads.pool(workload):
            assert " ".join(argv) in PINS, argv


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.SLOTS)


def _fake(log):
    def execute(argv):
        log.append(list(argv))
        return run.Outcome(list(argv), "ok", 0.0, 0.0, 0.0)
    return execute


def test_traced_and_untraced_runs_issue_identical_request_lists():
    plain, untraced, sampled, spanned = [], [], [], []
    run.run_passes("oracle", 3, 0.001, [_fake(plain)], [])
    run.run_passes("oracle", 3, 0.001, [_fake(untraced), _fake(sampled), _fake(spanned)], [])
    planned = [argv for i in range(run.MIN_PASSES) for argv in workloads.plan_pass("oracle", 3, i)]
    assert plain == untraced == sampled == spanned == planned


def test_request_output_is_checked_against_its_pin():
    argv = ["count", "bishop", "8", "2"]
    key = " ".join(argv)
    assert run.run_request(argv, {key: PINS.get(key, "")}).status == "ok"
    assert run.run_request(argv, {key: "0" * 64}).status == "wrong"
    assert run.run_traced(argv, {key: "0" * 64}, "spans").status == "wrong"


def test_corrupted_pin_fails_the_run(tmp_path, monkeypatch, capsys):
    corrupt = " ".join(workloads.plan_pass("oracle", 0, 0)[0])
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"pins": {**PINS, corrupt: "0" * 64}}))
    monkeypatch.setattr(run, "PINS", pins)
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "oracle", "--seed", "0",
                                      "--seconds", "1", "--trace", "0"])
    assert run.main() == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    passes = result["attempted"] // len(workloads.SLOTS["oracle"])
    issued = [" ".join(argv) for i in range(passes) for argv in workloads.plan_pass("oracle", 0, i)]
    assert passes >= run.MIN_PASSES
    assert result["attempted"] == len(issued)
    assert result["correct"] is False
    assert result["failed"] == issued.count(corrupt) >= 1


def test_children_that_hit_a_limit_are_recorded(monkeypatch):
    monkeypatch.setattr(run, "LIMIT_WALL_S", 1)
    _, stderr, code, *_ = run.spawn([sys.executable, "-c", "while True: pass"])
    assert run.classify(code, stderr) == "timeout"
    monkeypatch.setattr(run, "LIMIT_AS_BYTES", 256 << 20)
    _, stderr, code, *_ = run.spawn([sys.executable, "-c", "x = bytearray(1 << 30)"])
    assert run.classify(code, stderr) == "oom"
    _, stderr, code, *_ = run.spawn([sys.executable, "-c", "raise SystemExit(3)"])
    assert run.classify(code, stderr) == "error"


def test_tracer_reports_every_layer():
    argv = ["verify", "all", "--m-max", "3", "--k-max", "3"]
    spanned = run.run_traced(argv, {}, "spans")
    assert spanned.status == "wrong"  # not pinned; the run itself succeeded
    calls = spanned.payload["calls"]
    assert all(calls[layer] > 0 for layer in tracer.LAYERS), calls
    names = {span[1] for span in spanned.payload["spans"]}
    assert {"cli.main", "verify.run_suite", "kernel.stirling2"} <= names
    assert spanned.payload["counters"]["verify.checks"] > 0
    sampled = run.run_traced(argv, {}, "sample")
    assert set(sampled.payload["self_cpu_ns"]) >= set(tracer.LAYERS)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, n = run._tail([float(i) for i in range(1, 101)], per_pass=40)
    assert (percentile, n) == (90.0, 100)
    assert 89.0 < value < 92.0
    assert abs(run.quantile([float(i) for i in range(1, 102)], 0.5) - 51.0) < 1e-6
    _, percentile, _ = run._tail([float(i) for i in range(1, 101)], per_pass=20)
    assert abs(percentile - 100 * (1 - 10 / 60)) < 1e-9


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
