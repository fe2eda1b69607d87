"""Job queue and persistent worker pool for the experiment service.

A submitted sweep becomes a **job**: the sweep expands to cells
immediately (so the job's total is known at submit time), every cell is
enqueued on one shared work queue, and a fixed pool of worker threads
drains the queue — many jobs' cells interleave, so a short job is not
stuck behind a long one.  Each cell settles through
:func:`~repro.harness.scenarios.execute_or_replay`: recorded cells
replay from the store, fresh cells execute and record **durably as they
finish** (a crashed service loses at most the in-flight cells; a
resubmitted job replays everything already recorded).

Job state is itself durable — one record per job in the store's
``jobs`` namespace (the ``jobs`` table of a SQLite store)::

    {"id", "sweep", "state": queued|running|done|failed,
     "total", "replayed", "computed", "failed_cells", "error",
     "share_lottery", "overrides", "submitted_at", "started_at",
     "finished_at"}

Progress counters update through the backend's atomic read-modify-write
(:meth:`~repro.harness.store.ExperimentStore.update_job`), so counts
from many workers never lose increments.  In-memory, each job also
keeps an ordered event log (one entry per settled cell) that the HTTP
layer long-polls/streams; events are ephemeral — status survives a
restart, the fine-grained log does not.

Determinism: cells are executed with ``workers=1`` and no shared
lottery cache inside whichever worker thread picks them up — a cell's
results are a pure function of its bindings and seeds, so execution
order across threads cannot affect the recorded rows, and the sweep
record written at job completion lists rows in expansion order.  The
recorded rows are byte-identical to a direct
:func:`~repro.harness.scenarios.run_sweep` against any backend (pinned
by tests and the CI ``service-smoke`` differential).
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.harness.scenarios import Cell, execute_or_replay
from repro.harness.sweep_library import SWEEPS, resolve_sweep

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

#: Every state a job record can carry, in lifecycle order.
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class _ActiveJob:
    """In-memory bookkeeping for one submitted job (the durable record
    lives in the store; this holds what finalization needs: the spec,
    ordered fingerprints/rows, and the event log)."""

    def __init__(self, job_id: str, spec, cells: List[Cell],
                 fingerprints: List[str], share_lottery: bool) -> None:
        self.id = job_id
        self.spec = spec
        self.cells = cells
        self.fingerprints = fingerprints
        self.share_lottery = share_lottery
        self.rows: List[Optional[Dict[str, Any]]] = [None] * len(cells)
        self.remaining = len(cells)
        self.failed = False
        self.events: List[Dict[str, Any]] = []
        self.lock = threading.Lock()


class ExperimentService:
    """A persistent worker pool draining sweep jobs against one store.

    ``workers`` threads execute cells; submission never blocks on
    execution.  The service is safe to drive from many HTTP threads at
    once (submission, status reads, and event waits all synchronize on
    one condition), and the store backend underneath is safe for
    concurrent writers — pair it with a SQLite store when several
    service processes or external sweep runs share one corpus.
    """

    def __init__(self, store, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"service needs at least one worker, got {workers}")
        self.store = store
        self.workers = workers
        self._tasks: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._active: Dict[str, _ActiveJob] = {}
        #: Event logs of settled jobs, kept so pollers can read the tail
        #: after completion; bounded (oldest evicted) — the durable job
        #: record, not this log, is the source of truth.
        self._finished_events: "OrderedDict[str, List[Dict[str, Any]]]" = \
            OrderedDict()
        self._finished_cap = 64
        self._condition = threading.Condition()
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-worker-{index}", daemon=True)
            for index in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ---------------------------------------------------------
    def submit(self, sweep_name: str, share_lottery: bool = True,
               network: Optional[str] = None,
               topology: Optional[str] = None) -> str:
        """Expand ``sweep_name`` (with optional forced network/topology
        overrides), persist a queued job record, and enqueue every cell.
        Returns the job id.  Raises
        :class:`~repro.errors.ConfigurationError` for an unknown sweep
        or override — before anything is enqueued or recorded."""
        spec = resolve_sweep(sweep_name, network=network, topology=topology)
        cells = spec.expand()
        fingerprints = [
            self.store.fingerprint(cell, share_lottery=share_lottery)
            for cell in cells
        ]
        job_id = f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-" \
                 f"{uuid.uuid4().hex[:8]}"
        overrides = {}
        if network is not None:
            overrides["network"] = network
        if topology is not None:
            overrides["topology"] = topology
        record = {
            "id": job_id,
            "sweep": spec.name,
            "state": JOB_QUEUED,
            "total": len(cells),
            "replayed": 0,
            "computed": 0,
            "failed_cells": 0,
            "error": None,
            "share_lottery": bool(share_lottery),
            "overrides": overrides,
            "submitted_at": _now(),
            "started_at": None,
            "finished_at": None,
        }
        active = _ActiveJob(job_id, spec, cells, fingerprints,
                            share_lottery)
        with self._condition:
            # Refused before anything is recorded: a job persisted as
            # queued by a service that is shut down stays queued forever
            # (no worker will take it).  The lock spans the write, so a
            # concurrent shutdown() cannot slip between check and record.
            if self._closed:
                raise ConfigurationError("service is shut down")
            self.store.save_job(job_id, record)
            self._active[job_id] = active
        for index, cell in enumerate(cells):
            self._tasks.put((job_id, index))
        if not cells:
            # A sweep that expands to zero cells completes immediately
            # (nothing will ever decrement its remaining counter).
            self._finalize(active)
        return job_id

    @staticmethod
    def available_sweeps() -> Dict[str, str]:
        """Submittable sweep names mapped to their descriptions."""
        return {name: SWEEPS[name].description for name in sorted(SWEEPS)}

    # -- status and events --------------------------------------------------
    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The durable job record (None for an unknown id)."""
        return self.store.load_job(job_id)

    def jobs(self) -> List[Dict[str, Any]]:
        """Every job record in the store, newest first (ids sort by
        their timestamp prefix)."""
        return self.store.load_jobs()

    def events(self, job_id: str, since: int = 0,
               timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """The job's per-cell event log from index ``since`` on.

        With a ``timeout``, blocks (long-poll) until at least one new
        event exists, the job leaves the active set, or the timeout
        elapses — whichever is first.  Events are in settle order, each
        ``{"seq", "index", "status", "scenario", "label",
        "fingerprint"}``.  A job from a previous service process has no
        in-memory log; its events read as empty (the durable counters
        still tell the whole story).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                active = self._active.get(job_id)
                if active is None:
                    # Settled (or unknown/pre-restart) job: whatever log
                    # survives, without waiting — there will never be a
                    # new event.
                    return list(self._finished_events.get(job_id,
                                                          [])[since:])
                with active.lock:
                    fresh = list(active.events[since:])
                if fresh or deadline is None:
                    return fresh
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._condition.wait(remaining):
                    active = self._active.get(job_id)
                    if active is None:
                        return list(self._finished_events.get(
                            job_id, [])[since:])
                    with active.lock:
                        return list(active.events[since:])

    def wait(self, job_id: str, timeout: Optional[float] = None,
             ) -> Optional[Dict[str, Any]]:
        """Block until the job settles (done/failed) or ``timeout``
        elapses; returns the final (or latest) job record."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                record = self.store.load_job(job_id)
                if record is None or record["state"] in (JOB_DONE,
                                                         JOB_FAILED):
                    return record
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return record
                self._condition.wait(0.5 if remaining is None
                                     else min(0.5, remaining))

    # -- worker pool --------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            item = self._tasks.get()
            if item is None:
                return
            job_id, index = item
            with self._condition:
                active = self._active.get(job_id)
            if active is None:
                continue
            self._run_cell(active, index)

    def _run_cell(self, active: _ActiveJob, index: int) -> None:
        cell = active.cells[index]
        error_text: Optional[str] = None
        result = None
        try:
            result = execute_or_replay(
                cell, store=self.store, sweep_name=active.spec.name,
                share_lottery=active.share_lottery)
        except Exception:
            error_text = traceback.format_exc(limit=8)
        status = ("failed" if result is None
                  else "replayed" if result.cached else "computed")

        def _mutate(record: Dict[str, Any]) -> Dict[str, Any]:
            if record["state"] == JOB_QUEUED:
                record["state"] = JOB_RUNNING
                record["started_at"] = _now()
            if status == "failed":
                record["failed_cells"] += 1
                # Keep the first failure's traceback; later ones only
                # bump the counter.
                if record.get("error") is None:
                    record["error"] = (f"cell {index} "
                                       f"({cell.label()}): {error_text}")
            else:
                record[status] += 1
            return record

        self.store.update_job(active.id, _mutate)
        with active.lock:
            if result is not None:
                active.rows[index] = result.row()
            else:
                active.failed = True
            active.events.append({
                "seq": len(active.events),
                "index": index,
                "status": status,
                "scenario": cell.scenario,
                "label": cell.label(),
                "fingerprint": active.fingerprints[index],
            })
            active.remaining -= 1
            settled = active.remaining == 0
        with self._condition:
            self._condition.notify_all()
        if settled:
            self._finalize(active)

    def _finalize(self, active: _ActiveJob) -> None:
        """Last cell settled: write the sweep record (full expansion,
        rows in order, failed cells as holes) and close the job out."""
        with active.lock:
            rows = list(active.rows)
            failed = active.failed
        self.store.record_sweep(
            active.spec.name, active.spec.description,
            list(active.fingerprints),
            complete=not failed, rows=rows)

        def _mutate(record: Dict[str, Any]) -> Dict[str, Any]:
            record["state"] = JOB_FAILED if failed else JOB_DONE
            record["finished_at"] = _now()
            if record.get("started_at") is None:
                record["started_at"] = record["finished_at"]
            return record

        self.store.update_job(active.id, _mutate)
        with self._condition:
            self._active.pop(active.id, None)
            with active.lock:
                self._finished_events[active.id] = list(active.events)
            while len(self._finished_events) > self._finished_cap:
                self._finished_events.popitem(last=False)
            self._condition.notify_all()

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and stop the workers.  ``wait=True``
        drains already-queued cells first (every accepted job still
        settles); ``wait=False`` abandons the queue — unfinished jobs
        stay ``running`` in the store with their cells' partial results
        recorded, and a resubmission replays the finished cells."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
        if wait:
            for _ in self._threads:
                self._tasks.put(None)
            for thread in self._threads:
                thread.join()
        else:
            # Drain whatever is queued, then poison.
            try:
                while True:
                    self._tasks.get_nowait()
            except queue.Empty:
                pass
            for _ in self._threads:
                self._tasks.put(None)

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
