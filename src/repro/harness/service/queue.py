"""Job queue and persistent worker pool for the experiment service.

A submitted sweep becomes a **job**: it expands to cells at once (the
total is known, and a bad override is refused before anything is
recorded) and goes on the work queue as one task.  Each worker thread
runs one job at a time, so a job waits for a free worker, never behind
another job's cells.  The task plans as
:func:`~repro.harness.scenarios.run_sweep` does — one store lookup per
cell — counts the recorded cells as one batch, and computes each miss
in expansion order through
:func:`~repro.harness.scenarios.execute_or_replay`, which records it
**durably as it finishes** (a crashed service loses at most the
in-flight cell; a resubmitted job replays the rest).  A failing cell is
a hole in the sweep record; the others still compute.

Job state is itself durable — one record per job in the store's
``jobs`` namespace (the ``jobs`` table of a SQLite store)::

    {"id", "sweep", "state": queued|running|done|failed,
     "total", "replayed", "computed", "failed_cells", "error",
     "overrides", "submitted_at", "started_at", "finished_at"}

A job's record is written when there is news, through the backend's
atomic read-modify-write
(:meth:`~repro.harness.store.ExperimentStore.update_job`): a job with
cells to compute is marked ``running``, its replayed cells counted,
before its first computation; each computed cell is one more write, and
the last write also closes the job out, after the sweep record.  A warm
job is one write, a cold one ``cells + 1``.  In-memory, each job this
service holds also keeps an ordered event log (one entry per settled
cell) that the HTTP layer long-polls; events are ephemeral — status
survives a restart, the fine-grained log does not.

Determinism: cells are executed with ``workers=1`` and no shared
lottery cache — a cell's results are a pure function of its bindings
and seeds — and the sweep record lists rows in expansion order, so the
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
from repro.harness.scenarios import Cell, _replay, execute_or_replay
from repro.harness.sweep_library import SWEEPS, resolve_sweep

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


def _now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


class ExperimentService:
    """A persistent worker pool draining sweep jobs against one store.

    ``workers`` threads each run one job at a time; submission never
    blocks on execution.  The service is safe to drive from many HTTP
    threads at once (submission, settling, status reads, and event waits
    all synchronize on one condition), and the store backend underneath
    is safe for concurrent writers — pair it with a SQLite store when
    several service processes or external sweep runs share one corpus.
    """

    def __init__(self, store, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"service needs at least one worker, got {workers}")
        self.store = store
        self.workers = workers
        #: Jobs as ``(id, spec, cells)``; ``None`` stops one worker.
        self._tasks: "queue.Queue[Optional[tuple]]" = queue.Queue()
        #: The event log of each job queued or running here.
        self._active: Dict[str, List[Dict[str, Any]]] = {}
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
    def submit(self, sweep_name: str, network: Optional[str] = None,
               topology: Optional[str] = None) -> str:
        """:meth:`submit_job`, for a caller that wants only the id."""
        return self.submit_job(sweep_name, network, topology)["id"]

    def submit_job(self, sweep_name: str, network: Optional[str] = None,
                   topology: Optional[str] = None) -> Dict[str, Any]:
        """Expand ``sweep_name`` (with optional forced network/topology
        overrides), persist a queued job record, and enqueue the job.
        Returns the record as written.  Raises
        :class:`~repro.errors.ConfigurationError` for an unknown sweep
        or override — before anything is enqueued or recorded.  Cells
        are keyed in the fingerprint family ``repro sweep`` writes."""
        spec = resolve_sweep(sweep_name, network=network, topology=topology)
        cells = spec.expand()
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
            "overrides": {key: value for key, value in (
                ("network", network), ("topology", topology))
                if value is not None},
            "submitted_at": _now(),
            "started_at": None,
            "finished_at": None,
            "schema": self.store.SCHEMA,
        }
        with self._condition:
            # Refused before anything is recorded: a job persisted as
            # queued by a service that is shut down stays queued forever
            # (no worker will take it).  The lock spans the write and the
            # hand-off, so a concurrent shutdown() cannot slip in between.
            if self._closed:
                raise ConfigurationError("service is shut down")
            self.store.save_job(job_id, record)
            self._active[job_id] = []
            self._tasks.put((job_id, spec, cells))
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

    def holds(self, job_id: str) -> bool:
        """Whether a worker of this service will settle the job.  A job
        that is neither held nor terminal never changes again: an
        earlier service left it, or another process holds it."""
        with self._condition:
            return job_id in self._active

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
                              if active is None else active)[since:])
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
            job = self._tasks.get()
            try:
                if job is None:
                    return
                self._run_job(*job)
            except Exception:
                # The store failed under the job: it is let go where its
                # record stands, and the worker takes the next one.
                traceback.print_exc()
                with self._condition:
                    self._release(job[0])
            finally:
                self._tasks.task_done()

    def _run_job(self, job_id: str, spec, cells: List[Cell]) -> None:
        """One job, start to finish: ``run_sweep``'s plan, then each miss
        computed in expansion order.  A batch — the replayed cells, then
        each computed one — is written when the next computation starts,
        so the last one carries the close-out: the sweep record (full
        expansion, rows in order, failed cells as holes), then the
        terminal state."""
        plan = [_replay(cell, self.store) for cell in cells]
        fingerprints = [fingerprint for fingerprint, _ in plan]
        rows = [result and result.row() for _, result in plan]
        batch = [(index, result, None)
                 for index, (_, result) in enumerate(plan) if result]
        for index, (_, replayed) in enumerate(plan):
            if replayed is not None:
                continue
            self._settle(job_id, cells, fingerprints, batch)
            try:
                result, error_text = execute_or_replay(
                    cells[index], store=self.store,
                    sweep_name=spec.name), None
            except Exception:
                result, error_text = None, traceback.format_exc(limit=8)
            rows[index] = result and result.row()
            batch = [(index, result, error_text)]
        complete = None not in rows
        self.store.record_sweep(spec.name, spec.description, fingerprints,
                                complete=complete, rows=rows)
        self._settle(job_id, cells, fingerprints, batch,
                     JOB_DONE if complete else JOB_FAILED)

    def _settle(self, job_id: str, cells: List[Cell],
                fingerprints: List[str], batch: List[tuple],
                state: str = JOB_RUNNING) -> None:
        """Count a batch of ``(index, result or None, error text)``
        cells in the job record, moved to ``state`` — one atomic write —
        and log an event for each.  A terminal ``state`` lets the job go
        *before* pollers are woken, so that one poll reads the whole log
        and a terminal record."""
        statuses = ["failed" if result is None
                    else "replayed" if result.cached else "computed"
                    for _, result, _ in batch]

        def _mutate(record: Dict[str, Any]) -> Dict[str, Any]:
            if record["state"] == JOB_QUEUED:
                record["started_at"] = _now()
            if state != JOB_RUNNING:
                record["finished_at"] = _now()
            record["state"] = state
            for (index, _, error_text), status in zip(batch, statuses):
                record["failed_cells" if status == "failed" else status] += 1
                # Keep the first failure's traceback; later ones only
                # bump the counter.
                if status == "failed" and record.get("error") is None:
                    record["error"] = (f"cell {index} "
                                       f"({cells[index].label()}): "
                                       f"{error_text}")
            return record

        self.store.update_job(job_id, _mutate)
        with self._condition:
            log = self._active[job_id]
            for (index, _, _), status in zip(batch, statuses):
                log.append({
                    "seq": len(log),
                    "index": index,
                    "status": status,
                    "scenario": cells[index].scenario,
                    "label": cells[index].label(),
                    "fingerprint": fingerprints[index],
                })
            if state == JOB_RUNNING:
                self._condition.notify_all()
            else:
                self._release(job_id)

    def _release(self, job_id: str) -> None:
        """Let a job go (the caller holds the condition): its log moves
        to the bounded tail kept for late pollers, and waiters wake."""
        self._finished_events[job_id] = self._active.pop(job_id)
        while len(self._finished_events) > self._finished_cap:
            self._finished_events.popitem(last=False)
        self._condition.notify_all()

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and stop the workers.  ``wait=True``
        drains the queue first (every accepted job still settles);
        ``wait=False`` abandons the queue — unfinished jobs stay
        ``queued``/``running`` in the store with their cells' partial
        results recorded, and a resubmission replays the finished
        cells."""
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
