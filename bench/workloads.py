"""The six workloads.

Each workload builds its inputs from the benchmark seed, runs its units
in a closed loop for the measured phase, and checks every output; a unit
that fails a check counts as failed.  ``measure`` calls only the entry
points a user calls (``run_instance``, ``run_sweep``, ``ServiceClient``);
``traced`` re-runs a reduced pass with a span at every layer boundary.

Why the seed enters each workload the way it does is in README.md: the
``core-*`` workloads draw their simulation seeds and inputs from it, the
sweep and service workloads draw the *order* of their requests from it
and keep the library's own simulation seeds, because those sweeps are
what the README tells a user to run.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness import (
    ExperimentStore,
    ScenarioSpec,
    SweepSpec,
    render_book,
    run_instance,
    run_sweep,
)
from repro.harness.scenarios import (
    execute_or_replay,
    sweep_csv_text,
    sweep_json_text,
)
from repro.harness.service.app import make_server
from repro.harness.service.client import ServiceClient
from repro.harness.sweep_library import SWEEPS
from repro.protocols.quadratic_ba import build_quadratic_ba
from repro.protocols.subquadratic_ba import build_subquadratic_ba

from bench.measure import Phase, run_until
from bench.proxies import TracedStore, drive_sweep, profiled_run
from bench.spans import NullRecorder, SpanRecorder

#: (samples in ms, or None for "the step's own wall time"; failed units)
Step = Tuple[Optional[List[float]], int]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Common shape: ``setup`` (repeatable), one untimed ``warmup`` unit,
    a time-bounded ``measure``, a reduced ``traced`` pass, ``teardown``."""

    name = ""
    unit = ""
    #: Cheap set-ups are repeated and their median reported; the two
    #: that fill a store cost seconds and run once.
    setup_reps = 3
    #: Steps that are only measured together, whether a group is one
    #: unit, and a cap on the units of one phase (see ``run_until``).
    group = 1
    sum_group = False
    unit_limit: Optional[int] = None

    def __init__(self, seed: int, smoke: bool, scratch: Path,
                 pins: Dict[str, Any]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.pins = pins
        self.rng = random.Random(f"{self.name}:{seed}")
        #: Statistics seen in this run (what ``--pin`` writes out).
        self.observed: Dict[str, Any] = {}
        #: First failed checks, for the report.
        self.failures: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def step(self, index: int) -> Step:
        raise NotImplementedError

    def traced_step(self, recorder: SpanRecorder, index: int) -> Step:
        raise NotImplementedError

    def warmup(self) -> int:
        return self.step(0)[1]

    def measure(self, seconds: float) -> Phase:
        return run_until(seconds, self.step, self.group, self.sum_group,
                         self.unit_limit)

    def traced(self, recorder: SpanRecorder, seconds: float) -> Phase:
        return run_until(
            seconds, lambda index: self.traced_step(recorder, index),
            self.group, self.sum_group, self.unit_limit)

    def expect(self, key: str, seen: Any) -> int:
        """Compare ``seen`` with the pinned value for ``key`` (when one
        exists) and with what an earlier unit of this run saw."""
        known = self.observed.setdefault(key, seen)
        pinned = self.pins.get(key, seen)
        if seen == known and seen == pinned:
            return 0
        self.note_failure(f"{key}: saw {seen!r}, expected "
                          f"{pinned if seen != pinned else known!r}")
        return 1

    def note_failure(self, message: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(message)


# ---------------------------------------------------------------------------
# core-dense / core-sparse: one large execution per unit.
# ---------------------------------------------------------------------------


class CoreTrials(Workload):
    unit = "trial"
    builder: Callable[..., Any]
    size: Tuple[int, int]
    smoke_size: Tuple[int, int]
    trials_per_cycle = 4

    def inputs(self, n: int, trial_seed: int) -> List[int]:
        raise NotImplementedError

    def setup(self) -> None:
        self.n, self.f = self.smoke_size if self.smoke else self.size
        self.trials = []
        for index in range(self.trials_per_cycle):
            trial_seed = self.seed * 1000 + index
            self.trials.append((trial_seed, self.inputs(self.n, trial_seed)))

    def check(self, trial_seed: int, result) -> int:
        ok = (result.consistent() and result.all_decided()
              and result.agreement_valid())
        if not ok:
            self.note_failure(
                f"{self.name} seed {trial_seed}: {result.summary()}")
        stats = {
            "rounds_executed": result.rounds_executed,
            "envelopes": len(result.transcript),
            "multicast_messages":
                result.metrics.multicast_complexity_messages,
            "multicast_bits": result.metrics.multicast_complexity_bits,
        }
        key = f"{self.name}/n={self.n}/seed={trial_seed}"
        return 1 if (self.expect(key, stats) or not ok) else 0

    def step(self, index: int) -> Step:
        trial_seed, inputs = self.trials[index % len(self.trials)]
        instance = self.builder(self.n, self.f, inputs, seed=trial_seed)
        result = run_instance(instance, self.f, seed=trial_seed)
        return None, self.check(trial_seed, result)

    def traced_step(self, recorder: SpanRecorder, index: int) -> Step:
        trial_seed, inputs = self.trials[index % len(self.trials)]
        with recorder.span("bench.unit", unit=index):
            with recorder.span("protocols.build"):
                instance = self.builder(self.n, self.f, inputs,
                                        seed=trial_seed)
            budget = profiled_run(recorder, instance, self.f, trial_seed)
        return None, self.check(trial_seed, budget.result)


class CoreDense(CoreTrials):
    name = "core-dense"
    builder = staticmethod(build_quadratic_ba)
    size = (256, 127)
    smoke_size = (24, 11)

    def inputs(self, n: int, trial_seed: int) -> List[int]:
        return [(node + trial_seed) % 2 for node in range(n)]


class CoreSparse(CoreTrials):
    name = "core-sparse"
    builder = staticmethod(build_subquadratic_ba)
    size = (3072, 1200)
    smoke_size = (96, 36)
    trials_per_cycle = 8

    def inputs(self, n: int, trial_seed: int) -> List[int]:
        # Unanimous inputs: with split inputs the round count follows the
        # leader lottery (7 to 35 rounds by seed), and the unit time with
        # it; unanimous runs settle in the first iteration at every seed,
        # so the per-node engine cost is what is timed.
        return [random.Random(trial_seed).getrandbits(1)] * n


# ---------------------------------------------------------------------------
# core-views: the view/epoch machines through the scenario layer.
# ---------------------------------------------------------------------------


def view_scenarios(n: int, f: int, seed: int) -> Tuple[ScenarioSpec, ...]:
    def spec(name, protocol, network, inputs="mixed", adversary=None,
             **fixed):
        return ScenarioSpec(
            name=name, protocol=protocol, adversary=adversary,
            fixed={"n": n, "f": f, "network": network, **fixed},
            inputs=inputs, seeds=(seed,))
    return (
        spec("leader-happy", "leader-ba", "wan"),
        spec("leader-killer", "leader-ba", "wan", adversary="leader-killer"),
        spec("view-split", "leader-ba", "lossy", adversary="view-split"),
        spec("adaptive-faults", "adaptive-ba", "wan", inputs="ones",
             adversary="actual-faults", adversary_actual=f // 2),
        spec("adaptive-silent", "adaptive-ba", "wan", inputs="ones",
             adversary="actual-faults", adversary_actual=0),
        spec("leader-chain", "leader-chain", "wan", heights=3),
    )


class CoreViews(Workload):
    """One unit is a pass over the six scenarios, each pass at the next
    seed; one step is one scenario (one cell through ``run_sweep``), so
    that the machine's speed is read several times within a pass."""

    name = "core-views"
    unit = "pass"
    sum_group = True
    size = (97, 32)
    smoke_size = (13, 4)
    seeds_per_cycle = 3

    def setup(self) -> None:
        self.n, self.f = self.smoke_size if self.smoke else self.size
        self.sweeps = []
        for index in range(self.seeds_per_cycle):
            pass_seed = self.seed * 1000 + index
            self.sweeps.extend(
                (pass_seed, SweepSpec(name="core-views", scenarios=(spec,)))
                for spec in view_scenarios(self.n, self.f, pass_seed))
        self.group = len(self.sweeps) // self.seeds_per_cycle

    def warmup(self) -> int:
        return sum(self.step(index)[1] for index in range(self.group))

    def check(self, pass_seed: int, row: Dict[str, Any]) -> int:
        ok = row["violation_rate"] == 0.0 and row["termination_rate"] == 1.0
        if not ok:
            self.note_failure(
                f"core-views {row['scenario']} seed {pass_seed}: agreement "
                "violated or not terminated")
        key = f"core-views/n={self.n}/seed={pass_seed}/{row['scenario']}"
        return 1 if (self.expect(key, row) or not ok) else 0

    def step(self, index: int) -> Step:
        pass_seed, sweep = self.sweeps[index % len(self.sweeps)]
        result = run_sweep(sweep, share_lottery=False)
        return None, self.check(pass_seed, result.rows()[0])

    def traced_step(self, recorder: SpanRecorder, index: int) -> Step:
        pass_seed, sweep = self.sweeps[index % len(self.sweeps)]
        with recorder.span("bench.unit", unit=index):
            with recorder.span("harness.scenarios.expand"):
                (cell,) = sweep.expand()
            with recorder.span("harness.scenarios.execute_cell"):
                result = execute_or_replay(cell, share_lottery=False)
            with recorder.span("harness.scenarios.row"):
                row = result.row()
        return None, self.check(pass_seed, row)


# ---------------------------------------------------------------------------
# sweep-cold / sweep-warm / service-closed: the library sweeps.
# ---------------------------------------------------------------------------

#: Smoke runs keep the sweeps that finish in well under a second.
SMOKE_SWEEPS = ("smoke", "early-stop-vs-delta")


class SweepWorkload(Workload):
    def sweep_order(self) -> List[str]:
        names = list(SMOKE_SWEEPS if self.smoke else SWEEPS)
        self.rng.shuffle(names)
        return names

    def fresh_dir(self, label: str) -> Path:
        path = self.scratch / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def check_artifact(self, name: str, text: str) -> int:
        return self.expect(f"artifact/{name}.json", digest(text))

    def fill(self, store: ExperimentStore, workers: int) -> int:
        """Record every sweep into ``store`` — in the library's order
        whatever the seed, so that the heap the measured phase starts
        from, and with it ``peak_rss_mb``, does not depend on it.
        Returns the number of artifacts that failed their check."""
        failed = 0
        for name in sorted(self.order, key=list(SWEEPS).index):
            result = run_sweep(SWEEPS[name], workers=workers, store=store)
            failed += self.check_artifact(
                name, sweep_json_text(name, result.rows(), result.lottery))
        return failed


class SweepCold(SweepWorkload):
    """One unit is a pass over every sweep, cold, into a fresh store;
    one step is one sweep, so that the machine's speed is read between
    sweeps.  (The median over single sweeps would sit on whichever of
    four similar mid-sized sweeps happens to rank sixth.)"""

    name = "sweep-cold"
    unit = "pass"
    sum_group = True

    def setup(self) -> None:
        self.order = self.sweep_order()
        self.group = len(self.order)

    def warmup(self) -> int:
        # The smoke sweep: imports every executor's modules and forks a
        # pool once, without recording anything a measured pass reuses.
        run_sweep(SWEEPS["smoke"], workers=2,
                  store=ExperimentStore(self.fresh_dir("cold-warmup")))
        return 0

    def next_sweep(self, index: int, store_type: Callable[[Path], Any]):
        """The sweep step ``index`` runs, and the store of its pass — a
        fresh one whenever a pass begins."""
        if index % len(self.order) == 0:
            self.store = store_type(self.fresh_dir("cold"))
        return self.order[index % len(self.order)], self.store

    def step(self, index: int) -> Step:
        name, store = self.next_sweep(index, ExperimentStore)
        result = run_sweep(SWEEPS[name], workers=2, store=store)
        text = sweep_json_text(name, result.rows(), result.lottery)
        return None, self.check_artifact(name, text)

    def traced_step(self, recorder: SpanRecorder, index: int) -> Step:
        name, store = self.next_sweep(
            index, lambda root: TracedStore(root, recorder))
        rows = drive_sweep(recorder, SWEEPS[name], store, workers=2,
                           unit=f"{index}/{name}")
        with recorder.span("harness.scenarios.encode_json"):
            text = sweep_json_text(name, rows)
        return None, self.check_artifact(name, text)


class SweepWarm(SweepWorkload):
    name = "sweep-warm"
    unit = "pass"
    setup_reps = 1

    def setup(self) -> None:
        self.order = self.sweep_order()
        self.root = self.fresh_dir("warm")
        self.store = ExperimentStore(self.root)
        self.fill_failed = self.fill(self.store, workers=2)

    def warmup(self) -> int:
        return self.fill_failed + self.step(0)[1]

    def step(self, index: int) -> Step:
        failed = 0
        for name in self.order:
            result = run_sweep(SWEEPS[name], store=self.store)
            rows = result.rows()
            text = sweep_json_text(name, rows, result.lottery)
            sweep_csv_text(rows)
            if (result.store_stats["computed"] != 0
                    or self.check_artifact(name, text)):
                failed = 1
        for fmt in ("md", "html"):
            document, _ = render_book(self.store, fmt=fmt)
            failed |= 0 if all(name in document for name in self.order) else 1
        return None, failed

    def traced_step(self, recorder: SpanRecorder, index: int) -> Step:
        store = TracedStore(self.root, recorder)
        failed = 0
        with recorder.span("bench.unit", unit=index):
            for name in self.order:
                rows = drive_sweep(recorder, SWEEPS[name], store)
                with recorder.span("harness.scenarios.encode_json"):
                    text = sweep_json_text(name, rows)
                with recorder.span("harness.scenarios.encode_csv"):
                    sweep_csv_text(rows)
                failed |= self.check_artifact(name, text)
            for fmt in ("md", "html"):
                with recorder.span(f"harness.report.render_{fmt}"):
                    render_book(store, fmt=fmt)
        return None, failed


class RunningService:
    """``repro serve`` inside this process: the HTTP server on a free
    port over ``store``, its job queue, and the thread that serves it."""

    def __init__(self, store: ExperimentStore) -> None:
        self.store = store
        self.server, self.service = make_server(store, port=0, workers=2)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       name="bench-http", daemon=True)
        self.thread.start()
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown()
        self.thread.join(timeout=30)
        self.store.close()


class ServiceClosed(SweepWorkload):
    """Two closed-loop clients against ``repro serve`` on SQLite.

    One step is a burst: both clients resubmit warm sweeps back to back
    for ``burst_s`` and are joined, so that the machine's speed can be
    read between bursts without a third thread contending for the GIL.
    """

    name = "service-closed"
    unit = "job"
    setup_reps = 1
    clients = 2
    #: The service keeps a store connection per request thread, so its
    #: memory grows with every job; a fixed number of jobs keeps
    #: ``peak_rss_mb`` comparable between a fast and a slow minute.
    unit_limit = 480

    def setup(self) -> None:
        self.order = self.sweep_order()
        self.burst_s = 0.05 if self.smoke else 0.5
        self.root = self.fresh_dir("service") / "corpus.sqlite"
        # The corpus is recorded before the service starts, as
        # `repro serve --store corpus.sqlite` finds one a sweep run left:
        # filled through the service, the two worker threads run two
        # cells side by side and peak memory follows their timing.
        store = ExperimentStore(self.root)
        self.fill_failed = self.fill(store, workers=1)
        self.start(store)
        self.offsets = [self.rng.randrange(len(self.order))
                        for _ in range(self.clients)]

    def start(self, store: ExperimentStore) -> None:
        self.running = RunningService(store)

    def teardown(self) -> None:
        self.running.stop()

    def job(self, client: ServiceClient, name: str, recorder) -> int:
        """One unit: submit, long-poll until settled, fetch the artifact."""
        with recorder.span("harness.service.submit"):
            job_id = client.submit(name)
        with recorder.span("harness.service.wait"):
            record = client.wait(job_id, max_wait=120)
        with recorder.span("harness.service.artifact"):
            body = client.artifact(name, "json")
        bad = self.check_artifact(name, body.decode("utf-8"))
        if record.get("state") != "done" or record.get("failed_cells"):
            bad = 1
            self.note_failure(f"job {job_id} ({name}): {record}")
        return bad

    def warmup(self) -> int:
        return self.fill_failed + self.step(0)[1]

    def step(self, index: int) -> Step:
        return self.burst(NullRecorder())

    def traced_step(self, recorder: SpanRecorder, index: int) -> Step:
        return self.burst(recorder)

    def burst(self, recorder) -> Step:
        deadline = time.perf_counter() + self.burst_s

        def loop(client_index: int) -> Tuple[List[float], int]:
            client = ServiceClient(self.running.url)
            samples: List[float] = []
            failed = 0
            while not samples or time.perf_counter() < deadline:
                # Each client cycles the sweep list from its own offset.
                name = self.order[self.offsets[client_index]
                                  % len(self.order)]
                self.offsets[client_index] += 1
                start = time.perf_counter()
                with recorder.span("bench.unit",
                                   unit=self.offsets[client_index]):
                    failed += self.job(client, name, recorder)
                samples.append((time.perf_counter() - start) * 1000.0)
            return samples, failed

        with ThreadPoolExecutor(max_workers=self.clients) as executor:
            futures = [executor.submit(loop, index)
                       for index in range(self.clients)]
            results = [future.result() for future in futures]
        return ([sample for samples, _ in results for sample in samples],
                sum(failed for _, failed in results))

    def traced(self, recorder: SpanRecorder, seconds: float) -> Phase:
        # Same corpus file, now behind the timing proxy.
        self.teardown()
        self.start(TracedStore(self.root, recorder))
        return super().traced(recorder, seconds)


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (CoreDense, CoreSparse, CoreViews, SweepCold, SweepWarm,
                     ServiceClosed)
}
