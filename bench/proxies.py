"""Timing proxies the traced run hands to the harness in place of a store.

``TracedStore`` is an :class:`ExperimentStore` whose public methods open
a ``harness.store.*`` span, over a backend whose methods open a
``harness.backends.<kind>.*`` span — so a call such as
``execute_or_replay(cell, store=traced)`` shows up as three nested
layers without anything inside ``src/`` being patched.
``drive_sweep`` is ``run_sweep``'s cell loop rebuilt from its public
pieces, with a span at each of them; ``profiled_run`` turns a
``profile_phase_budget`` into a span with one child per bucket.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional

from repro.eligibility.lottery_cache import SharedLotteryCache, release_cache
from repro.harness.backends import StoreBackend, backend_for_path
from repro.harness.profiling import profile_phase_budget
from repro.harness.scenarios import SweepSpec, execute_or_replay
from repro.harness.store import ExperimentStore

from bench.spans import SpanRecorder

_BACKEND_METHODS = ("load_cell", "save_cell", "cell_count", "load_sweep",
                    "save_sweep", "sweep_names", "load_job", "save_job",
                    "update_job", "job_ids")
_STORE_METHODS = ("fingerprint", "load_record", "save_result",
                  "record_sweep", "load_sweep", "sweep_rows_aligned",
                  "save_job", "load_job", "update_job", "job_ids")


class TracedBackend(StoreBackend):
    """Delegates to a real backend, one span per call."""

    def __init__(self, inner: StoreBackend, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.recorder = recorder
        self.kind = inner.kind
        self.root = inner.root

    def close(self) -> None:
        self.inner.close()


def _backend_method(name: str):
    def method(self, *args, **kwargs):
        with self.recorder.span(f"harness.backends.{self.kind}.{name}"):
            return getattr(self.inner, name)(*args, **kwargs)
    method.__name__ = name
    return method


for _name in _BACKEND_METHODS:
    setattr(TracedBackend, _name, _backend_method(_name))


class TracedStore(ExperimentStore):
    """An experiment store that records a span per public call."""

    def __init__(self, root, recorder: SpanRecorder) -> None:
        super().__init__(root, backend=TracedBackend(
            backend_for_path(root), recorder))
        self.recorder = recorder


def _store_method(name: str):
    plain = getattr(ExperimentStore, name)

    def method(self, *args, **kwargs):
        with self.recorder.span(f"harness.store.{name}"):
            return plain(self, *args, **kwargs)
    method.__name__ = name
    return method


for _name in _STORE_METHODS:
    setattr(TracedStore, _name, _store_method(_name))


def profiled_run(recorder: SpanRecorder, instance, f: int, seed,
                 conditions=None):
    """``profile_phase_budget`` under a ``sim.run`` span.  The budget's
    buckets become *aggregated* children — their durations are real,
    their positions inside the parent are not — so the span's self time
    is the budget's ``other``.  Returns the budget."""
    with recorder.span("sim.run") as run:
        budget = profile_phase_budget(instance, f, seed=seed,
                                      conditions=conditions)
    offset = 0.0
    for name, seconds in (("sim.deliver", budget.deliver_seconds),
                          ("sim.scheduler", budget.scheduler_seconds),
                          ("protocols.step", budget.protocol_seconds),
                          ("crypto.verify", budget.verify_seconds),
                          ("serialization.sizing", budget.sizing_seconds)):
        offset = recorder.add_child(run, name, seconds, offset)
    return budget


def drive_sweep(recorder: SpanRecorder, sweep: SweepSpec, store,
                workers: int = 1, unit: Optional[Any] = None,
                ) -> List[Dict[str, Any]]:
    """Run every cell of ``sweep`` against ``store`` the way
    ``run_sweep`` does — expand, execute or replay each cell, compose its
    row, record the sweep — and return the rows."""
    with recorder.span("harness.scenarios.sweep", unit=unit):
        with recorder.span("harness.scenarios.expand") as expand:
            cells = sweep.expand()
            expand["count"] = max(1, len(cells))
        cache = SharedLotteryCache(token=f"bench-{sweep.name}-{id(store)}")
        pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 \
            else None
        try:
            fingerprints: List[str] = []
            rows: List[Dict[str, Any]] = []
            for cell in cells:
                with recorder.span("harness.scenarios.execute_cell") as span:
                    result = execute_or_replay(
                        cell, store=store, sweep_name=sweep.name,
                        workers=workers, coin_cache=cache, pool=pool)
                if result.cached:
                    span["name"] = "harness.scenarios.replay_cell"
                with recorder.span("harness.scenarios.row"):
                    rows.append(result.row())
                fingerprints.append(result.fingerprint)
            store.record_sweep(sweep.name, sweep.description, fingerprints,
                               complete=True, rows=rows)
        finally:
            if pool is not None:
                with recorder.span("harness.runner.pool_shutdown"):
                    pool.shutdown()
            release_cache(cache.token)
    return rows
