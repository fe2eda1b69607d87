"""Self-check of the benchmark (collected by tier-1; a few seconds).

Covers the arithmetic the report rests on — the tail-percentile rule,
span self time, CPU accounting that includes children — the
BENCHMARK.json contract, and one ``--smoke`` run of every workload.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from bench import measure, spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert not measure.tail_supported(99)
    assert measure.tail_supported(100)
    assert measure.tail_samples_beyond(100) == 10
    assert not measure.tail_supported(199, pct=95)
    assert measure.tail_supported(200, pct=95)
    samples = [float(value) for value in range(1, 101)]
    assert measure.percentile(samples, 50) == 50.5
    assert measure.percentile(samples, 90) == pytest.approx(90.1)
    assert sum(value > measure.percentile(samples, 90)
               for value in samples) == 10
    assert measure.percentile([7.0], 90) == 7.0


def test_span_self_time_is_duration_minus_direct_children():
    recorder = spans.SpanRecorder()
    with recorder.span("harness.scenarios.sweep", unit="u1") as outer:
        with recorder.span("harness.store.load_record") as middle:
            with recorder.span("harness.backends.json.load_cell",
                               count=4) as inner:
                pass
        with recorder.span("harness.store.load_record") as second:
            pass
    for span, (start, end) in ((outer, (0.0, 10.0)), (middle, (1.0, 4.0)),
                               (inner, (2.0, 3.0)), (second, (5.0, 7.0))):
        span["start"], span["end"] = start, end
    assert [span["parent"] for span in recorder.spans] == [None, 0, 1, 0]
    assert {span["unit"] for span in recorder.spans} == {"u1"}
    own = spans.self_times(recorder.spans)
    assert own == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert spans.layer_self_seconds(recorder.spans) == {
        "harness.scenarios": 5.0, "harness.store": 4.0,
        "harness.backends.json": 1.0}
    assert spans.per_op(recorder.spans, "harness.store.load_record") == 2.5
    assert spans.per_op(recorder.spans,
                        "harness.backends.json.load_cell") == 0.25
    # An aggregated bucket is a child like any other.
    recorder.add_child(outer, "sim.deliver", 1.5, offset=0.0)
    assert spans.self_times(recorder.spans)[0] == 3.5


def test_cpu_accounting_includes_reaped_children():
    before = measure.cpu_seconds()
    subprocess.run(
        [sys.executable, "-c",
         "import time\n"
         "end = time.process_time() + 0.2\n"
         "while time.process_time() < end: pass"],
        check=True, timeout=60)
    assert measure.cpu_seconds() - before >= 0.2


def test_run_until_scales_groups_and_counts_failures(monkeypatch):
    # A machine at half the reference speed: every time reads half.
    slow = measure.Speed(2 * measure.REFERENCE_SPEED_MS,
                         2 * measure.REFERENCE_SPEED_MS)
    monkeypatch.setattr(measure, "machine_speed", lambda: slow)

    def step(index):
        return [4.0], 1 if index == 4 else 0

    # Whole groups only, and never more than the unit limit.
    phase = measure.run_until(60.0, step, group=3, unit_limit=4)
    assert phase.raw_ms == [4.0] * 6
    assert phase.samples_ms == [2.0] * 6
    assert phase.failed == 1
    # A group as one unit: its steps summed, failed once if any step was.
    phase = measure.run_until(60.0, step, group=3, sum_group=True,
                              unit_limit=6)
    assert phase.samples_ms == [6.0, 6.0] and phase.raw_ms == [12.0, 12.0]
    assert phase.failed == 1
    assert phase.busy_s == pytest.approx(phase.raw_busy_s / 2)

    def timed(index):
        time.sleep(0.005)
        return None, 0

    # A step that returns no samples is one unit, timed by the loop.
    phase = measure.run_until(0.05, timed)
    assert phase.samples_ms and phase.failed == 0
    assert all(sample >= 2.5 for sample in phase.samples_ms)
    assert phase.raw_busy_s >= 0.005 * len(phase.samples_ms)


def test_benchmark_json_meets_the_contract():
    from bench.layers import LAYER_METRICS
    from bench.workloads import WORKLOADS

    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in SPEC[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    bounds = {}
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        bounds[entry["name"]] = entry["bound"]
    assert bounds["setup_s"] == max(bounds.values())
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in LAYER_METRICS]
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("higher", "lower")


def run_bench(*arguments, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *arguments],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_every_workload_runs_at_smoke_size_with_no_failed_unit():
    names = [entry["name"] for entry in SPEC["workloads"]]
    with ThreadPoolExecutor(max_workers=2) as executor:
        runs = list(executor.map(
            lambda name: run_bench("--smoke", "--workload", name), names))
    expected = {entry["name"]: entry["unit"]
                for entry in SPEC["end_to_end"]}
    for name, done in zip(names, runs):
        assert done.returncode == 0, (name, done.stdout, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {metric: value["unit"]
                for metric, value in result["metrics"].items()} == expected
        assert all(value["value"] > 0
                   for value in result["metrics"].values())


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench("--workload", "core-dense", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path,
                     script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "no library to measure" in done.stderr


def test_the_two_writers_are_waited_for_and_bring_no_helper_process(tmp_path):
    # A multiprocessing spawn pool starts a resource tracker that ends
    # only after the benchmark has; the driver finds it still running.
    from multiprocessing import resource_tracker

    from bench import layers

    tracker_before = resource_tracker._resource_tracker._pid
    outcomes = layers.two_writers(tmp_path / "probe.sqlite", 5)
    assert len(outcomes) == 2
    assert all(seconds > 0 for seconds, _ in outcomes)
    assert resource_tracker._resource_tracker._pid == tracker_before
