"""Per-layer metrics: what each is, and the probes that measure them.

``LAYER_METRICS`` is the one table of per-layer metrics — name, unit,
which direction is better, and the end-to-end metric and workload a
change to it should move (BENCHMARK.json's ``per_layer`` list and the
README table are both written from it).  ``probe_all`` measures every
one of them from outside, by timing calls into each layer's public
functions under spans; counts marked ``#`` in the README repeat exactly.
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.crypto.registry import KeyRegistry
from repro.eligibility.difficulty import DifficultySchedule
from repro.eligibility.fmine import FMine
from repro.harness import SweepSpec, run_instance, run_sweep, run_trials
from repro.harness.report import build_snapshot, render_book
from repro.harness.runner import TrialStats
from repro.harness.scenarios import sweep_csv_text, sweep_json_text
from repro.harness.service.client import ServiceClient
from repro.harness.service.queue import ExperimentService
from repro.harness.sweep_library import SWEEPS
from repro.protocols.leader_ba import build_leader_chain, decision_view_of
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba
from repro.serialization import (
    canonical_bytes,
    clear_size_cache,
    encoded_size_bits,
)
from repro.sim.conditions import NETWORKS
from repro.types import SecurityParameters

from bench.measure import cpu_seconds, machine_speed, scale
from bench.proxies import TracedStore, drive_sweep, profiled_run
from bench.spans import SpanRecorder, per_op
from bench.workloads import RunningService, view_scenarios

ROOT = Path(__file__).resolve().parent.parent
WRITER = Path(__file__).resolve().with_name("writer.py")

#: (name, unit, better, "end-to-end metric on workload it should move")
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("sim.run_ms", "ms", "lower", "unit_p50_ms on core-dense"),
    ("sim.deliver_ms", "ms", "lower", "unit_p50_ms on core-dense"),
    ("sim.scheduler_ms", "ms", "lower", "unit_p50_ms on core-views"),
    ("sim.other_ms", "ms", "lower", "unit_p50_ms on core-sparse"),
    ("sim.us_per_node_round", "us", "lower", "unit_p50_ms on core-sparse"),
    ("sim.doubling_ratio", "x", "lower", "unit_p50_ms on core-dense"),
    ("sim.envelopes", "count", "lower", "must not move (core-dense)"),
    ("sim.rounds", "count", "lower", "must not move (core-dense)"),
    ("sim.events_processed", "count", "lower", "must not move (core-views)"),
    ("sim.skipped_ticks", "count", "higher", "must not move (core-views)"),
    ("protocols.step_ms", "ms", "lower", "unit_p50_ms on core-dense"),
    ("protocols.build_ms", "ms", "lower", "unit_p50_ms on core-dense"),
    ("protocols.check_calls", "count", "lower", "unit_p50_ms on core-dense"),
    ("protocols.views_executed", "count", "lower",
     "must not move (core-views)"),
    ("protocols.view_changes", "count", "lower",
     "must not move (core-views)"),
    ("protocols.words", "count", "lower", "must not move (core-views)"),
    ("protocols.escalations", "count", "lower",
     "must not move (core-views)"),
    ("protocols.ms_per_view", "ms", "lower", "unit_p50_ms on core-views"),
    ("protocols.killer_doubling_ratio", "x", "lower",
     "unit_p50_ms on core-views"),
    ("crypto.verify_ms", "ms", "lower", "unit_p50_ms on core-dense"),
    ("crypto.sign_us", "us", "lower", "unit_p50_ms on core-dense"),
    ("crypto.verify_us", "us", "lower", "unit_p50_ms on core-dense"),
    ("eligibility.mine_us", "us", "lower", "unit_p50_ms on core-sparse"),
    ("eligibility.verify_us", "us", "lower", "unit_p50_ms on core-sparse"),
    ("eligibility.lottery_hit_ratio", "ratio", "higher",
     "units_per_s on sweep-cold"),
    ("eligibility.lottery_gain_pct", "%", "higher",
     "units_per_s on sweep-cold"),
    ("serialization.sizing_ms", "ms", "lower", "unit_p50_ms on core-dense"),
    ("serialization.size_cold_us", "us", "lower",
     "unit_p50_ms on core-dense"),
    ("serialization.size_memo_us", "us", "lower",
     "unit_p50_ms, peak_rss_mb on core-dense"),
    ("serialization.canonical_us", "us", "lower",
     "unit_p50_ms on core-dense"),
    ("harness.runner.trial_overhead_ms", "ms", "lower",
     "unit_p50_ms on sweep-cold"),
    ("harness.runner.pool_spawn_ms", "ms", "lower",
     "unit_p50_ms, cpu_ms_per_unit on sweep-cold"),
    ("harness.runner.pool_roundtrip_ms", "ms", "lower",
     "unit_p50_ms on sweep-cold"),
    ("harness.runner.result_pickle_kb", "KB", "lower",
     "cpu_ms_per_unit on sweep-cold"),
    ("harness.runner.aggregate_us", "us", "lower",
     "unit_p50_ms on sweep-cold"),
    ("harness.scenarios.expand_us", "us", "lower",
     "unit_p50_ms on sweep-warm"),
    ("harness.scenarios.execute_cell_ms", "ms", "lower",
     "unit_p50_ms on sweep-cold"),
    ("harness.scenarios.replay_cell_us", "us", "lower",
     "unit_p50_ms on sweep-warm"),
    ("harness.scenarios.row_us", "us", "lower", "unit_p50_ms on sweep-warm"),
    ("harness.scenarios.encode_json_ms", "ms", "lower",
     "unit_p50_ms on sweep-warm"),
    ("harness.scenarios.encode_csv_ms", "ms", "lower",
     "unit_p50_ms on sweep-warm"),
    ("harness.scenarios.workers2_speedup_x", "x", "higher",
     "units_per_s on sweep-cold"),
    ("harness.scenarios.workers2_cpu_x", "x", "lower",
     "cpu_ms_per_unit on sweep-cold"),
    ("harness.store.fingerprint_us", "us", "lower",
     "unit_p50_ms on sweep-warm, service-closed"),
    ("harness.store.load_record_us", "us", "lower",
     "unit_p50_ms on sweep-warm, service-closed"),
    ("harness.store.save_result_us", "us", "lower",
     "unit_p50_ms on sweep-cold"),
    ("harness.store.record_sweep_ms", "ms", "lower",
     "unit_p50_ms on sweep-warm, service-closed"),
    ("harness.store.sweep_rows_ms", "ms", "lower",
     "unit_p50_ms on service-closed"),
) + tuple(
    (f"harness.backends.{kind}.{name}", "us", "lower", moves)
    for kind, moves in (
        ("json", "unit_p50_ms on sweep-warm, sweep-cold"),
        ("sqlite", "unit_p50_ms, unit_tail_ms on service-closed"))
    for name in ("load_cell_us", "save_cell_us", "miss_us", "update_job_us",
                 "save_cell_2w_us")
) + (
    ("harness.backends.sqlite.busy_errors", "count", "lower",
     "unit_tail_ms on service-closed"),
    ("harness.service.healthz_ms", "ms", "lower",
     "unit_p50_ms on service-closed"),
    ("harness.service.submit_ms", "ms", "lower",
     "unit_p50_ms on service-closed"),
    ("harness.service.wait_ms", "ms", "lower",
     "unit_p50_ms, unit_tail_ms on service-closed"),
    ("harness.service.artifact_ms", "ms", "lower",
     "unit_p50_ms on service-closed"),
    ("harness.service.polls_per_job", "count", "lower",
     "unit_p50_ms on service-closed"),
    ("harness.service.inproc_job_ms", "ms", "lower",
     "unit_p50_ms on service-closed"),
    ("harness.service.cold_job_ms", "ms", "lower",
     "setup_s on service-closed"),
    ("harness.service.replay_ratio", "ratio", "higher",
     "units_per_s on service-closed"),
    ("harness.service.jobs_list_ms", "ms", "lower",
     "unit_tail_ms on service-closed"),
    ("harness.service.book_ms", "ms", "lower",
     "unit_p50_ms on service-closed"),
    ("harness.report.snapshot_ms", "ms", "lower",
     "unit_p50_ms on sweep-warm"),
    ("harness.report.render_md_ms", "ms", "lower",
     "unit_p50_ms on sweep-warm"),
    ("harness.report.render_html_ms", "ms", "lower",
     "unit_p50_ms on sweep-warm"),
    ("cli.import_ms", "ms", "lower", "setup_s on every workload"),
    ("cli.sweep_smoke_ms", "ms", "lower", "setup_s on every workload"),
    ("trace_overhead_pct", "%", "lower", "the cost of looking"),
)

#: Library sweeps the harness probes run: the three that finish fastest
#: while still covering every executor the book renders specially.
PROBE_SWEEPS = ("smoke", "words-vs-actual-f", "leader-vs-delta")
SMOKE_PROBE_SWEEPS = ("smoke",)

#: A ratio of two timings divides the median of this many runs of each
#: side, taken in turns: one run of a second on this host reads up to
#: 1.5x apart, and a ratio of two such runs says nothing.
RATIO_ROUNDS = 3
#: Speed readings on either side of a probe (a single reading spikes to
#: several times the median, and nothing averages a one-off run's out).
PROBE_READINGS = 9

#: Job records behind ``harness.service.jobs_list_ms`` — what the
#: service-closed workload leaves in the store.
JOBS_LISTED = 811


def _ms(span: Dict[str, Any]) -> float:
    return (span["end"] - span["start"]) * 1000.0


def _mixed(n: int) -> List[int]:
    return [node % 2 for node in range(n)]


def _scaled_run(action: Callable[[], Any]) -> Tuple[Any, float, float]:
    """``action()``, its wall time (ms) and its CPU time (s, children
    included), both scaled by the machine's speed read before and after
    it.  The two sides of a ratio run seconds apart, so each is scaled
    by its own readings before they are divided."""
    before = machine_speed(PROBE_READINGS)
    cpu = cpu_seconds()
    start = time.perf_counter()
    outcome = action()
    wall_ms = (time.perf_counter() - start) * 1000.0
    cpu_s = cpu_seconds() - cpu
    after = machine_speed(PROBE_READINGS)
    return (outcome, scale(wall_ms, before.wall, after.wall),
            scale(cpu_s, before.cpu, after.cpu))


# ---------------------------------------------------------------------------
# sim / protocols / crypto / eligibility / serialization
# ---------------------------------------------------------------------------


def probe_dense(recorder: SpanRecorder, metrics: Dict[str, float],
                scratch: Path, smoke: bool) -> None:
    """Dense quadratic traffic, the regime of ``core-dense``.  (The
    three regimes are probed apart so that each is scaled by speed
    readings taken right around it.)"""
    big = 48 if smoke else 768
    walls = {}
    for n in (big // 2, big):
        f = n // 2 - 1
        with recorder.span("protocols.build") as build:
            instance = build_quadratic_ba(n, f, _mixed(n), seed=1)
        dense, walls[n], _ = _scaled_run(
            lambda: profiled_run(recorder, instance, f, 1))
    metrics["protocols.build_ms"] = _ms(build)
    metrics["sim.run_ms"] = dense.wall_seconds * 1000.0
    metrics["sim.deliver_ms"] = dense.deliver_seconds * 1000.0
    metrics["protocols.step_ms"] = dense.protocol_seconds * 1000.0
    metrics["crypto.verify_ms"] = dense.verify_seconds * 1000.0
    metrics["serialization.sizing_ms"] = dense.sizing_seconds * 1000.0
    metrics["protocols.check_calls"] = dense.check_calls
    metrics["sim.envelopes"] = len(dense.result.transcript)
    metrics["sim.rounds"] = dense.result.rounds_executed
    metrics["sim.doubling_ratio"] = walls[big] / walls[big // 2]


def probe_sparse(recorder: SpanRecorder, metrics: Dict[str, float],
                 scratch: Path, smoke: bool) -> None:
    """Sparse traffic among many nodes, the regime of ``core-sparse``."""
    n = 96 if smoke else 3072
    f = n * 1200 // 3072
    instance = build_subquadratic_ba(n, f, [1] * n, seed=1)
    sparse = profiled_run(recorder, instance, f, 1)
    metrics["sim.other_ms"] = sparse.other_seconds * 1000.0
    metrics["sim.us_per_node_round"] = (
        sparse.wall_seconds * 1e6 / (n * sparse.result.rounds_executed))


def probe_views(recorder: SpanRecorder, metrics: Dict[str, float],
                scratch: Path, smoke: bool) -> None:
    """The conditioned event scheduler under a view machine, the regime
    of ``core-views``."""
    n = 13 if smoke else 97
    f = (n - 1) // 3
    wan = NETWORKS["wan"]
    instance = build_leader_chain(n, f, _mixed(n), seed=1, heights=3,
                                  conditions=wan)
    chain = profiled_run(recorder, instance, f, 1, conditions=wan)
    views = decision_view_of(chain.result)
    metrics["sim.scheduler_ms"] = chain.scheduler_seconds * 1000.0
    metrics["sim.events_processed"] = \
        chain.result.network_stats.events_processed
    metrics["sim.skipped_ticks"] = chain.result.network_stats.skipped_ticks
    metrics["protocols.views_executed"] = views
    metrics["protocols.view_changes"] = views - 1
    metrics["protocols.ms_per_view"] = chain.wall_seconds * 1000.0 / views

    def scenario_ms(size: int, name: str) -> Tuple[float, Dict[str, Any]]:
        scenario = next(
            spec for spec in view_scenarios(size, (size - 1) // 3, 1)
            if spec.name == name)
        sweep = SweepSpec(name=name, scenarios=(scenario,))

        def run():
            with recorder.span("harness.scenarios.sweep"):
                return run_sweep(sweep, share_lottery=False)

        result, wall_ms, _ = _scaled_run(run)
        return wall_ms, result.rows()[0]

    half_ms, full_ms = [], []
    for _ in range(RATIO_ROUNDS):
        half_ms.append(scenario_ms((n + 1) // 2, "leader-killer")[0])
        full_ms.append(scenario_ms(n, "leader-killer")[0])
    metrics["protocols.killer_doubling_ratio"] = \
        statistics.median(full_ms) / statistics.median(half_ms)
    _, row = scenario_ms(n, "adaptive-faults")
    metrics["protocols.words"] = row["mean_words"]
    metrics["protocols.escalations"] = row["mean_escalations"]


def probe_primitives(recorder: SpanRecorder, metrics: Dict[str, float],
                     scratch: Path, smoke: bool) -> None:
    """Per-call cost of the primitives under the protocol step."""
    count = 2000
    registry = KeyRegistry(64)
    capabilities = [registry.capability_for(node) for node in range(64)]
    messages = [("Vote", index, index % 2) for index in range(count)]
    with recorder.span("crypto.sign", count=count):
        signatures = [capabilities[index % 64].sign(message)
                      for index, message in enumerate(messages)]
    with recorder.span("crypto.verify_call", count=count):
        for index, message in enumerate(messages):
            registry.verify(index % 64, message, signatures[index])
    metrics["crypto.sign_us"] = per_op(recorder.spans, "crypto.sign") * 1e6
    metrics["crypto.verify_us"] = \
        per_op(recorder.spans, "crypto.verify_call") * 1e6

    schedule = DifficultySchedule.for_parameters(
        SecurityParameters(lam=24), 1024)
    fmine = FMine(schedule, seed=1)
    topics = [(node, ("Vote", 1 + node // 1024, node % 2))
              for node in range(count)]
    with recorder.span("eligibility.mine", count=count):
        for node, topic in topics:
            fmine.mine(node % 1024, topic)
    with recorder.span("eligibility.verify", count=count):
        for node, topic in topics:
            fmine.verify(node % 1024, topic)
    metrics["eligibility.mine_us"] = \
        per_op(recorder.spans, "eligibility.mine") * 1e6
    metrics["eligibility.verify_us"] = \
        per_op(recorder.spans, "eligibility.verify") * 1e6

    instance = build_quadratic_ba(24, 11, _mixed(24), seed=1)
    payloads = [envelope.payload for envelope
                in run_instance(instance, 11, seed=1).transcript]
    clear_size_cache()
    for name in ("serialization.size_cold", "serialization.size_memo"):
        with recorder.span(name, count=len(payloads)):
            for payload in payloads:
                encoded_size_bits(payload)
        metrics[f"{name}_us"] = per_op(recorder.spans, name) * 1e6
    with recorder.span("serialization.canonical", count=count):
        for message in messages:
            canonical_bytes(message)
    metrics["serialization.canonical_us"] = \
        per_op(recorder.spans, "serialization.canonical") * 1e6
    clear_size_cache()


# ---------------------------------------------------------------------------
# harness.runner and the two run_sweep switches (lottery, workers)
# ---------------------------------------------------------------------------


def _noop(value: int) -> int:
    return value


def probe_runner(recorder: SpanRecorder, metrics: Dict[str, float],
                 scratch: Path, smoke: bool) -> None:
    n = 24 if smoke else 96
    f = n // 2 - 1
    # run_trials for one seed, less the build and the run it wraps.  The
    # difference is far below the noise of one reading, so each term is
    # the fastest of five.
    trials_ms, build_ms, run_ms = [], [], []
    for _ in range(5):
        with recorder.span("harness.runner.run_trials") as trials:
            run_trials(build_quadratic_ba, f, [1], n=n, inputs=_mixed(n))
        with recorder.span("protocols.build") as build:
            instance = build_quadratic_ba(n, f, _mixed(n), seed=1)
        with recorder.span("sim.run") as run:
            result = run_instance(instance, f, seed=1)
        trials_ms.append(_ms(trials))
        build_ms.append(_ms(build))
        run_ms.append(_ms(run))
    metrics["harness.runner.trial_overhead_ms"] = \
        min(trials_ms) - min(build_ms) - min(run_ms)
    metrics["harness.runner.result_pickle_kb"] = \
        len(pickle.dumps(result)) / 1024.0
    stats = TrialStats()
    with recorder.span("harness.runner.aggregate", count=200):
        for _ in range(200):
            stats.add(result)
    metrics["harness.runner.aggregate_us"] = \
        per_op(recorder.spans, "harness.runner.aggregate") * 1e6

    # The pool run_sweep(workers=2) makes: default context, two workers.
    pool = ProcessPoolExecutor(max_workers=2)
    try:
        with recorder.span("harness.runner.pool_spawn") as spawn:
            for future in [pool.submit(_noop, index) for index in range(2)]:
                future.result()
        with recorder.span("harness.runner.pool_roundtrip", count=100):
            for index in range(100):
                pool.submit(_noop, index).result()
    finally:
        pool.shutdown()
    roundtrip_ms = per_op(recorder.spans,
                          "harness.runner.pool_roundtrip") * 1000.0
    metrics["harness.runner.pool_roundtrip_ms"] = roundtrip_ms
    metrics["harness.runner.pool_spawn_ms"] = _ms(spawn) - 2 * roundtrip_ms


def probe_sweep_switches(recorder: SpanRecorder, metrics: Dict[str, float],
                         scratch: Path, smoke: bool) -> None:
    """``share_lottery`` on/off and ``workers`` 1/2 on one sweep whose
    cells share their eligibility lottery."""
    sweep = SWEEPS["smoke" if smoke else "adversary-grid"]

    def timed(**kwargs) -> Tuple[float, float, Any]:
        def run():
            with recorder.span("harness.scenarios.sweep"):
                return run_sweep(sweep, **kwargs)

        result, wall_ms, cpu_s = _scaled_run(run)
        return wall_ms, cpu_s, result

    variants = {"shared": {"share_lottery": True},
                "unshared": {"share_lottery": False},
                "pooled": {"share_lottery": True, "workers": 2}}
    runs: Dict[str, List[Tuple[float, float, Any]]] = {
        key: [] for key in variants}
    for _ in range(RATIO_ROUNDS):
        for key, kwargs in variants.items():
            runs[key].append(timed(**kwargs))
    wall_ms = {key: statistics.median(run[0] for run in timings)
               for key, timings in runs.items()}
    cpu_s = {key: statistics.median(run[1] for run in timings)
             for key, timings in runs.items()}
    lottery = runs["shared"][0][2].lottery
    flips = lottery["hits"] + lottery["misses"]
    metrics["eligibility.lottery_hit_ratio"] = \
        lottery["hits"] / flips if flips else 0.0
    metrics["eligibility.lottery_gain_pct"] = \
        (wall_ms["unshared"] / wall_ms["shared"] - 1.0) * 100.0
    metrics["harness.scenarios.workers2_speedup_x"] = \
        wall_ms["shared"] / wall_ms["pooled"]
    metrics["harness.scenarios.workers2_cpu_x"] = \
        cpu_s["pooled"] / cpu_s["shared"]


# ---------------------------------------------------------------------------
# harness.scenarios / harness.store / harness.backends / harness.report
# ---------------------------------------------------------------------------


def two_writers(root: Path, writes: int) -> List[Tuple[float, int]]:
    """Two ``writer.py`` processes writing ``writes`` cell records each
    into the store at ``root`` at the same time, under disjoint keys.
    Returns each writer's wall seconds and how many of its writes hit a
    locked database.  Both are waited for (killed first, if anything
    goes wrong) before this returns."""
    writers = [
        subprocess.Popen(
            [sys.executable, str(WRITER), str(root), f"{writer:04d}",
             str(writes)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for writer in range(2)]
    try:
        for writer in writers:
            if writer.stdout.readline().strip() != "ready":
                raise RuntimeError("a store writer did not start")
        outcomes = []
        for writer in writers:
            writer.stdin.write("go\n")
            writer.stdin.flush()
        for writer in writers:
            seconds, busy = json.loads(writer.communicate(timeout=120)[0])
            outcomes.append((seconds, busy))
        return outcomes
    finally:
        for writer in writers:
            if writer.poll() is None:
                writer.kill()
            writer.wait()
            for pipe in (writer.stdin, writer.stdout):
                try:
                    pipe.close()
                except OSError:
                    pass


def probe_stores(recorder: SpanRecorder, metrics: Dict[str, float],
                 scratch: Path, smoke: bool) -> None:
    names = SMOKE_PROBE_SWEEPS if smoke else PROBE_SWEEPS
    writes = 20 if smoke else 150
    for kind, root in (("json", scratch / "probe-json"),
                       ("sqlite", scratch / "probe.sqlite")):
        store = TracedStore(root, recorder)
        mark = len(recorder.spans)
        for name in names:
            rows = drive_sweep(recorder, SWEEPS[name], store)
        cold = recorder.spans[mark:]
        mark = len(recorder.spans)
        for _ in range(3):
            for name in names:
                rows = drive_sweep(recorder, SWEEPS[name], store)
        warm = recorder.spans[mark:]
        prefix = f"harness.backends.{kind}"
        metrics[f"{prefix}.miss_us"] = \
            per_op(cold, f"{prefix}.load_cell") * 1e6
        metrics[f"{prefix}.save_cell_us"] = \
            per_op(cold, f"{prefix}.save_cell") * 1e6
        metrics[f"{prefix}.load_cell_us"] = \
            per_op(warm, f"{prefix}.load_cell") * 1e6

        store.save_job("probe-job", {"id": "probe-job", "computed": 0})

        def bump(record: Dict[str, Any]) -> Dict[str, Any]:
            record["computed"] += 1
            return record

        mark = len(recorder.spans)
        for _ in range(writes):
            store.update_job("probe-job", bump)
        metrics[f"{prefix}.update_job_us"] = \
            per_op(recorder.spans[mark:], f"{prefix}.update_job") * 1e6

        with recorder.span(f"{prefix}.save_cell_2w", count=writes):
            outcomes = two_writers(root, writes)
        metrics[f"{prefix}.save_cell_2w_us"] = \
            sum(seconds for seconds, _ in outcomes) / (2 * writes) * 1e6
        if kind == "sqlite":
            metrics[f"{prefix}.busy_errors"] = \
                sum(busy for _, busy in outcomes)
            store.close()
            continue

        # The scenario, store and report layers are probed on the
        # JSON tree, the backend `repro sweep --resume` defaults to.
        spans = cold + warm
        metrics["harness.scenarios.expand_us"] = \
            per_op(spans, "harness.scenarios.expand") * 1e6
        metrics["harness.scenarios.execute_cell_ms"] = \
            per_op(cold, "harness.scenarios.execute_cell") * 1e3
        metrics["harness.scenarios.replay_cell_us"] = \
            per_op(warm, "harness.scenarios.replay_cell") * 1e6
        metrics["harness.scenarios.row_us"] = \
            per_op(spans, "harness.scenarios.row") * 1e6
        metrics["harness.store.fingerprint_us"] = \
            per_op(spans, "harness.store.fingerprint") * 1e6
        metrics["harness.store.load_record_us"] = \
            per_op(warm, "harness.store.load_record") * 1e6
        metrics["harness.store.save_result_us"] = \
            per_op(cold, "harness.store.save_result") * 1e6
        metrics["harness.store.record_sweep_ms"] = \
            per_op(spans, "harness.store.record_sweep") * 1e3
        name = names[-1]
        mark = len(recorder.spans)
        for _ in range(5):
            with recorder.span("harness.store.sweep_rows"):
                store.sweep_rows(name)
            with recorder.span("harness.scenarios.encode_json"):
                sweep_json_text(name, rows)
            with recorder.span("harness.scenarios.encode_csv"):
                sweep_csv_text(rows)
            with recorder.span("harness.report.snapshot"):
                build_snapshot(store)
            for fmt in ("md", "html"):
                with recorder.span(f"harness.report.render_{fmt}"):
                    render_book(store, fmt=fmt)
        spans = recorder.spans[mark:]
        for metric, span_name in (
                ("harness.store.sweep_rows_ms",
                 "harness.store.sweep_rows"),
                ("harness.scenarios.encode_json_ms",
                 "harness.scenarios.encode_json"),
                ("harness.scenarios.encode_csv_ms",
                 "harness.scenarios.encode_csv"),
                ("harness.report.snapshot_ms",
                 "harness.report.snapshot"),
                ("harness.report.render_md_ms",
                 "harness.report.render_md"),
                ("harness.report.render_html_ms",
                 "harness.report.render_html")):
            metrics[metric] = per_op(spans, span_name) * 1e3
        store.close()


# ---------------------------------------------------------------------------
# harness.service
# ---------------------------------------------------------------------------


class CountingClient(ServiceClient):
    """Counts the long-poll rounds ``wait`` makes."""

    polls = 0

    def events(self, *args, **kwargs):
        self.polls += 1
        return super().events(*args, **kwargs)


def probe_service(recorder: SpanRecorder, metrics: Dict[str, float],
                  scratch: Path, smoke: bool) -> None:
    names = SMOKE_PROBE_SWEEPS if smoke else PROBE_SWEEPS
    warm_jobs = 4 if smoke else 24
    store = TracedStore(scratch / "probe-service.sqlite", recorder)
    running = RunningService(store)
    try:
        client = CountingClient(running.url)
        with recorder.span("harness.service.healthz", count=30):
            for _ in range(30):
                client.health()
        for name in names:
            with recorder.span("harness.service.cold_job"):
                client.wait(client.submit(name), max_wait=120)
                client.artifact(name, "json")
        client.polls = 0
        for index in range(warm_jobs):
            name = names[index % len(names)]
            with recorder.span("harness.service.submit"):
                job_id = client.submit(name)
            with recorder.span("harness.service.wait"):
                client.wait(job_id, max_wait=120)
            with recorder.span("harness.service.artifact"):
                client.artifact(name, "json")
        metrics["harness.service.polls_per_job"] = client.polls / warm_jobs
        records = client.jobs()
        replayed = sum(record["replayed"] for record in records)
        computed = sum(record["computed"] for record in records)
        metrics["harness.service.replay_ratio"] = \
            replayed / (replayed + computed)

        with ExperimentService(store, workers=2) as inproc:
            for index in range(warm_jobs):
                with recorder.span("harness.service.inproc_job"):
                    inproc.wait(inproc.submit(names[index % len(names)]),
                                timeout=120)

        template = dict(records[0])
        for index in range(JOBS_LISTED - len(store.job_ids())):
            job_id = f"00000000T000000Z-{index:08x}"
            store.save_job(job_id, dict(template, id=job_id))
        for _ in range(3):
            with recorder.span("harness.service.jobs_list"):
                client.jobs()
            with recorder.span("harness.service.book"):
                client.book("md")
    finally:
        running.stop()
    for name in ("healthz", "cold_job", "submit", "wait", "artifact",
                 "inproc_job", "jobs_list", "book"):
        metrics[f"harness.service.{name}_ms"] = \
            per_op(recorder.spans, f"harness.service.{name}") * 1e3


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


def probe_cli(recorder: SpanRecorder, metrics: Dict[str, float],
              scratch: Path, smoke: bool) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, command in (
            ("import", ["-c", "import repro.cli"]),
            ("sweep_smoke", ["-m", "repro", "sweep", "smoke"])):
        with recorder.span(f"cli.{name}") as span:
            subprocess.run([sys.executable] + command, env=env, cwd=scratch,
                           check=True, stdout=subprocess.DEVNULL,
                           timeout=120)
        metrics[f"cli.{name}_ms"] = _ms(span)


def probe_all(recorder: SpanRecorder, scratch: Path,
              smoke: bool) -> Dict[str, float]:
    """Every per-layer metric except ``trace_overhead_pct`` (which needs
    a workload).  Like the end-to-end times, the times a probe reports
    are scaled by the machine's speed read before and after it."""
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    metrics: Dict[str, float] = {}
    for probe in (probe_dense, probe_sparse, probe_views, probe_primitives,
                  probe_runner, probe_sweep_switches, probe_stores,
                  probe_service, probe_cli):
        known = set(metrics)
        before = machine_speed(PROBE_READINGS).wall
        probe(recorder, metrics, scratch, smoke)
        after = machine_speed(PROBE_READINGS).wall
        for name in set(metrics) - known:
            if units[name] in ("ms", "us"):
                metrics[name] = scale(metrics[name], before, after)
    return metrics
