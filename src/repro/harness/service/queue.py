"""Job queue and persistent worker pool for the experiment service.

A submitted sweep becomes a **job**: it expands to cells at once (the
total is known, and a bad override is refused before anything is
recorded) and goes on the work queue as one task.  Each worker thread
runs one job at a time, so a job waits for a free worker, never behind
another job's cells.  The task settles the cells through
:func:`~repro.harness.scenarios.settle_cells`, the loop
:func:`~repro.harness.scenarios.run_sweep` runs, so each is recorded
**durably as it finishes**; a failing cell is a hole in the sweep
record, and the others still compute.

The store is the service's only state: one record per job in the
store's ``jobs`` namespace (the ``jobs`` table of a SQLite store) holds
its counters and its event log, one entry per settled cell::

    {"id", "sweep", "state": queued|running|done|failed,
     "total", "replayed", "computed", "failed_cells", "error",
     "overrides", "submitted_at", "started_at", "finished_at",
     "events": [{"seq", "index", "status", "scenario", "label",
                 "fingerprint"}, ...]}

A job's record is written through the backend's atomic
read-modify-write (:meth:`~repro.harness.store.ExperimentStore.\
update_job`) just before each computation — the first marks the job
``running`` — with the cells settled since, in expansion order; the
last write closes the job out, after the sweep record.  A warm job
is one write, a cold one ``cells + 1``.  A write skips a cell the log
holds and leaves a terminal record as it is, so running a job again
changes nothing settled: a service starts by re-queueing every
``queued``/``running`` job it finds.  In memory are only the queue and
the ids of the jobs a worker here holds.

Determinism: cells run in one process with no shared lottery cache (a
cell's results are a pure function of its bindings and seeds), so the
recorded rows are byte-identical to a direct ``run_sweep`` on any
backend (pinned by tests and the CI ``service-smoke`` differential).
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
import uuid
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.harness.runner import InlineSubmitter
from repro.harness.scenarios import cell_event, settle_cells
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
    external sweep runs share one corpus.  Run one service per store: a
    service that starts runs every unsettled job it finds, another
    service's included.
    """

    def __init__(self, store, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"service needs at least one worker, got {workers}")
        self.store = store
        self.workers = workers
        #: Job ids; ``None`` stops one worker.
        self._tasks: "queue.Queue[Optional[str]]" = queue.Queue()
        #: The ids of the jobs queued or running here.
        self._active: Set[str] = set()
        self._condition = threading.Condition()
        self._closed = False
        # What an earlier service left unsettled runs again, oldest first.
        for record in reversed(store.load_jobs()):
            if record.get("state") in (JOB_QUEUED, JOB_RUNNING):
                self._active.add(record["id"])
                self._tasks.put(record["id"])
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
        job_id = f"{time.strftime('%Y%m%dT%H%M%SZ', time.gmtime())}-" \
                 f"{uuid.uuid4().hex[:8]}"
        record = dict(
            id=job_id, sweep=spec.name, state=JOB_QUEUED,
            total=len(spec.expand()), replayed=0, computed=0, failed_cells=0,
            error=None, overrides={key: value for key, value in (
                ("network", network), ("topology", topology))
                if value is not None},
            submitted_at=_now(), started_at=None, finished_at=None,
            schema=self.store.SCHEMA)
        with self._condition:
            # Refused before anything is recorded: no worker here would
            # take the job.  The lock spans the write and the hand-off,
            # so a concurrent shutdown() cannot slip in between.
            if self._closed:
                raise ConfigurationError("service is shut down")
            self.store.save_job(job_id, record)
            self._active.add(job_id)
            self._tasks.put(job_id)
        return record

    @staticmethod
    def available_sweeps() -> Dict[str, str]:
        """Submittable sweep names mapped to their descriptions."""
        return {name: SWEEPS[name].description for name in sorted(SWEEPS)}

    # -- status and events --------------------------------------------------
    def poll(self, job_id: str, since: int = 0,
             timeout: Optional[float] = None,
             ) -> Tuple[Optional[Dict[str, Any]], bool]:
        """The job record (None for an unknown id), and whether a worker
        here holds the job.  With a ``timeout``, blocks (long-poll) until
        the log runs past ``since``, the job is let go, or the timeout
        elapses; it reads under the lock a settle notifies on after its
        write, so no wake-up is lost.  A job is let go only after its
        terminal write, so one neither held nor terminal stays as is."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._condition:
            while True:
                record = self.store.load_job(job_id)
                held = job_id in self._active
                if (record is None or not held
                        or len(record.get("events", ())) > since
                        or deadline is None
                        or not self._condition.wait(
                            deadline - time.monotonic())):
                    return record, held

    def wait(self, job_id: str, timeout: Optional[float] = None,
             ) -> Optional[Dict[str, Any]]:
        """Block until the job settles or ``timeout`` elapses; returns
        the latest job record.  A job this service does not hold (unknown,
        settled, or let go) will not change here: answered at once."""
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
                self._run_job(job)
            except Exception:
                # The store failed under the job: it is let go where its
                # record stands, and the worker takes the next one.
                traceback.print_exc()
                with self._condition:
                    self._release(job)
            finally:
                self._tasks.task_done()

    def _run_job(self, job_id: str) -> None:
        """One job from its record: the sweep expanded as submitted, its
        cells settled by ``settle_cells``.  The job's own policy: a
        computation that raises is a hole, not an abort, and the cells
        settled so far are written just before each computation, so the
        last batch carries the close-out (the sweep record, then the
        terminal state).  A sweep that no longer resolves, or expands to
        another cell count, fails the job in one write."""
        record = self.store.load_job(job_id)
        try:
            spec = resolve_sweep(record["sweep"], **record["overrides"])
            cells = spec.expand()
            if len(cells) != record["total"]:
                raise ConfigurationError(
                    f"sweep {spec.name!r} now expands to {len(cells)} "
                    f"cells, not the job's {record['total']}")
        except ConfigurationError as error:
            return self._settle(job_id, [], JOB_FAILED, str(error))
        fingerprints, rows, batch = [], [], []
        for index, cell, fingerprint, computes, settle in settle_cells(
                cells, InlineSubmitter(), self.store, spec.name):
            error_text = None
            if not computes:
                result = settle()
            else:
                self._settle(job_id, batch)
                batch = []
                try:
                    result = settle()
                except Exception:
                    result, error_text = None, traceback.format_exc(limit=8)
            fingerprints.append(fingerprint)
            rows.append(result and result.row())
            batch.append((index, cell, fingerprint, result, error_text))
        complete = None not in rows
        self.store.record_sweep(spec.name, spec.description, fingerprints,
                                complete=complete, rows=rows)
        self._settle(job_id, batch, JOB_DONE if complete else JOB_FAILED)

    def _settle(self, job_id: str, batch: List[tuple],
                state: str = JOB_RUNNING,
                error: Optional[str] = None) -> None:
        """Count and log a batch of ``(index, cell, fingerprint, result
        or None, error text)`` in one atomic write, moving the job to
        ``state``; a logged cell and a terminal record are left as they
        are.  A terminal ``state`` lets the job go *before* pollers are
        woken, so that one poll reads the whole log and a final record."""

        def _mutate(record: Dict[str, Any]) -> Dict[str, Any]:
            if record["state"] in (JOB_DONE, JOB_FAILED):
                return record
            if record["state"] == JOB_QUEUED:
                record["started_at"] = _now()
            if state != JOB_RUNNING:
                record["finished_at"] = _now()
            record["state"] = state
            record["error"] = record.get("error") or error
            log = record.setdefault("events", [])
            logged = {event["index"] for event in log}
            for index, cell, fingerprint, result, error_text in batch:
                if index in logged:
                    continue
                event = cell_event(index, cell, fingerprint, result,
                                   "failed", seq=len(log))
                status = event["status"]
                record["failed_cells" if status == "failed" else status] += 1
                # Keep the first failure's traceback; later ones only
                # bump the counter.
                if status == "failed" and record.get("error") is None:
                    record["error"] = (f"cell {index} ({cell.label()}): "
                                       f"{error_text}")
                log.append(event)
            return record

        self.store.update_job(job_id, _mutate)
        with self._condition:
            if state == JOB_RUNNING:
                self._condition.notify_all()
            else:
                self._release(job_id)

    def _release(self, job_id: str) -> None:
        """Let a job go (the caller holds the condition); waiters wake."""
        self._active.discard(job_id)
        self._condition.notify_all()

    # -- lifecycle ----------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs and stop the workers.  ``wait=True``
        drains the queue first (every accepted job still settles);
        ``wait=False`` lets the queued jobs go — they stay ``queued`` in
        the store, and the next service on it runs them."""
        with self._condition:
            if self._closed:
                return
            self._closed = True
        if wait:
            self._tasks.join()
        else:
            with self._condition:
                try:
                    while True:
                        self._release(self._tasks.get_nowait())
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
