"""Job queue and persistent worker pool for the experiment service.

A submitted sweep becomes a **job**: the sweep expands to cells and
their fingerprints immediately (so the job's total is known at submit
time) and one **plan** task goes on the shared work queue.  The plan —
a job's first task — looks every cell up once under those fingerprints
(:func:`~repro.harness.scenarios._replay`, the lookup of ``run_sweep``'s
own plan), settles all the recorded cells as one batch and queues one
task per miss; a fixed pool of worker threads drains the queue — many
jobs' tasks interleave, so a short job is not stuck behind a long one.
A miss settles through
:func:`~repro.harness.scenarios.execute_or_replay`: it executes and
records **durably as it finishes** (a crashed service loses at most the
in-flight cells; a resubmitted job replays everything already recorded).

Job state is itself durable — one record per job in the store's
``jobs`` namespace (the ``jobs`` table of a SQLite store)::

    {"id", "sweep", "state": queued|running|done|failed,
     "total", "replayed", "computed", "failed_cells", "error",
     "share_lottery", "overrides", "submitted_at", "started_at",
     "finished_at"}

Progress counters become durable once per settled batch — the replayed
cells of a job are one write, each computed cell one more — through the
backend's atomic read-modify-write
(:meth:`~repro.harness.store.ExperimentStore.update_job`), so counts
from many workers never lose increments.  In-memory, each job also
keeps an ordered event log (one entry per settled cell) that the HTTP
layer long-polls; events are ephemeral — status survives a
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
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.harness.scenarios import Cell, _replay, execute_or_replay
from repro.harness.sweep_library import SWEEPS, resolve_sweep

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class _ActiveJob:
    """In-memory bookkeeping for one submitted job (the durable record
    lives in the store; this holds what finalization needs: the spec,
    ordered fingerprints/rows, and the event log).  Changed only under
    the service's condition."""

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


class ExperimentService:
    """A persistent worker pool draining sweep jobs against one store.

    ``workers`` threads execute tasks; submission never blocks on
    execution.  The service is safe to drive from many HTTP threads at
    once (submission, settling, status reads, and event waits all
    synchronize on one condition), and the store backend underneath is
    safe for concurrent writers — pair it with a SQLite store when
    several service processes or external sweep runs share one corpus.
    """

    def __init__(self, store, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"service needs at least one worker, got {workers}")
        self.store = store
        self.workers = workers
        #: Plans and cell tasks, bound; ``None`` stops one worker.
        self._tasks: "queue.Queue[Optional[Callable[[], None]]]" = \
            queue.Queue()
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
        """:meth:`submit_job`, for a caller that wants only the id."""
        return self.submit_job(sweep_name, share_lottery, network,
                               topology)["id"]

    def submit_job(self, sweep_name: str, share_lottery: bool = True,
                   network: Optional[str] = None,
                   topology: Optional[str] = None) -> Dict[str, Any]:
        """Expand ``sweep_name`` (with optional forced network/topology
        overrides), persist a queued job record, and enqueue the job's
        plan.  Returns the record as written.  Raises
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
            "overrides": {key: value for key, value in (
                ("network", network), ("topology", topology))
                if value is not None},
            "submitted_at": _now(),
            "started_at": None,
            "finished_at": None,
            "schema": self.store.SCHEMA,
        }
        active = _ActiveJob(job_id, spec, cells, fingerprints,
                            share_lottery)
        with self._condition:
            # Refused before anything is recorded: a job persisted as
            # queued by a service that is shut down stays queued forever
            # (no worker will take it).  The lock spans the write and the
            # hand-off, so a concurrent shutdown() cannot slip in between.
            if self._closed:
                raise ConfigurationError("service is shut down")
            self.store.save_job(job_id, record)
            self._active[job_id] = active
            self._tasks.put(partial(self._plan, active))
        return record

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
                # A settled (or unknown/pre-restart) job answers with
                # whatever log survives: there will never be a new event.
                active = self._active.get(job_id)
                fresh = list((self._finished_events.get(job_id, ())
                              if active is None else active.events)[since:])
                if (fresh or active is None or deadline is None
                        or not self._condition.wait(
                            deadline - time.monotonic())):
                    return fresh

    def wait(self, job_id: str, timeout: Optional[float] = None,
             ) -> Optional[Dict[str, Any]]:
        """Block until the job settles (done/failed) or ``timeout``
        elapses; returns the final (or latest) job record.  A job this
        service does not hold — unknown, settled, or left by an earlier
        process — will not change, and is answered at once."""
        with self._condition:
            self._condition.wait_for(lambda: job_id not in self._active,
                                     timeout)
        return self.store.load_job(job_id)

    # -- worker pool --------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            task = self._tasks.get()
            try:
                if task is None:
                    return
                task()
            finally:
                self._tasks.task_done()

    def _plan(self, active: _ActiveJob) -> None:
        """A job's first task: one store lookup per cell, under the
        fingerprints ``submit_job`` computed.  Each miss becomes a cell
        task; the recorded cells settle as one batch."""
        replayed = []
        for index, cell in enumerate(active.cells):
            try:
                result = _replay(cell, self.store, active.share_lottery,
                                 active.fingerprints[index])[1]
            except Exception:  # its cell task fails it, with a traceback
                result = None
            if result is None:
                self._tasks.put(partial(self._run_cell, active, index))
            else:
                replayed.append((index, result, None))
        self._settle(active, replayed)

    def _run_cell(self, active: _ActiveJob, index: int) -> None:
        error_text = None
        try:
            result = execute_or_replay(
                active.cells[index], store=self.store,
                sweep_name=active.spec.name,
                share_lottery=active.share_lottery)
        except Exception:
            result, error_text = None, traceback.format_exc(limit=8)
        self._settle(active, [(index, result, error_text)])

    def _settle(self, active: _ActiveJob, batch: List[tuple]) -> None:
        """Count a batch of ``(index, result or None, error text)``
        cells in the job record — one atomic write — and log an event
        for each.  The batch that leaves nothing to run closes the job
        out *before* pollers are woken, so that one poll reads the whole
        log and a terminal record."""
        statuses = ["failed" if result is None
                    else "replayed" if result.cached else "computed"
                    for _, result, _ in batch]

        def _mutate(record: Dict[str, Any]) -> Dict[str, Any]:
            if record["state"] == JOB_QUEUED:
                record["state"] = JOB_RUNNING
                record["started_at"] = _now()
            for (index, _, error_text), status in zip(batch, statuses):
                if status != "failed":
                    record[status] += 1
                    continue
                record["failed_cells"] += 1
                # Keep the first failure's traceback; later ones only
                # bump the counter.
                if record.get("error") is None:
                    record["error"] = (
                        f"cell {index} "
                        f"({active.cells[index].label()}): {error_text}")
            return record

        self.store.update_job(active.id, _mutate)
        with self._condition:
            for (index, result, _), status in zip(batch, statuses):
                if result is None:
                    active.failed = True
                else:
                    active.rows[index] = result.row()
                active.events.append({
                    "seq": len(active.events),
                    "index": index,
                    "status": status,
                    "scenario": active.cells[index].scenario,
                    "label": active.cells[index].label(),
                    "fingerprint": active.fingerprints[index],
                })
            active.remaining -= len(batch)
            if active.remaining:
                self._condition.notify_all()
                return
        self._finalize(active)

    def _finalize(self, active: _ActiveJob) -> None:
        """Last cell settled: write the sweep record (full expansion,
        rows in order, failed cells as holes) and close the job out."""
        self.store.record_sweep(
            active.spec.name, active.spec.description, active.fingerprints,
            complete=not active.failed, rows=active.rows)

        def _mutate(record: Dict[str, Any]) -> Dict[str, Any]:
            record["state"] = JOB_FAILED if active.failed else JOB_DONE
            record["finished_at"] = _now()
            return record

        self.store.update_job(active.id, _mutate)
        with self._condition:
            del self._active[active.id]
            self._finished_events[active.id] = active.events
            while len(self._finished_events) > self._finished_cap:
                self._finished_events.popitem(last=False)
            self._condition.notify_all()

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and stop the workers.  ``wait=True``
        drains the queue first, the cell tasks a plan has yet to add
        included (every accepted job still settles); ``wait=False``
        abandons the queue — unfinished jobs stay ``queued``/``running``
        in the store with their cells' partial results recorded, and a
        resubmission replays the finished cells."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
        if wait:
            self._tasks.join()
        else:
            try:
                while True:
                    self._tasks.get_nowait()
            except queue.Empty:
                pass
        for _ in self._threads:
            self._tasks.put(None)
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
