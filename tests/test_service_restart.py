"""A killed experiment service loses nothing the next one cannot finish.

A child process runs an :class:`ExperimentService` over a store — SQLite
and JSON tree alike — and dies with ``os._exit`` at one of four points
of a cold job: after submit, before the plan; after the running mark;
after the first computed cell's ``save_cell``; after ``save_sweep``,
before the terminal write.  The kill is a wrapper the child puts around
one backend method.  A fresh service on the same store must settle the
*same* job, log every cell index exactly once, count each cell once,
and serve an artifact byte-identical to an uninterrupted run's.

Beside it: running a job's task twice changes nothing already settled,
a job that can no longer be re-queued is failed, not run, and a server
that cannot bind its port starts no job.
"""

import socket
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro.harness.service import ExperimentService, ServiceClient
from repro.harness.service.app import make_server
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from tests.test_service import Served

SRC = Path(__file__).resolve().parents[1] / "src"
CELLS = len(SWEEPS["smoke"].expand())
KILLED = 70

#: The child: one cold ``smoke`` job, and death right after the first
#: call of one backend method returns.
_CHILD = """
import os, sys
sys.path.insert(0, {src!r})
from repro.harness.service import ExperimentService
from repro.harness.store import ExperimentStore

store = ExperimentStore(sys.argv[1])
method = getattr(store.backend, sys.argv[2])

def dying(*args, **kwargs):
    method(*args, **kwargs)
    os._exit({killed})

setattr(store.backend, sys.argv[2], dying)
service = ExperimentService(store, workers=1)
service.wait(service.submit("smoke"), timeout=120)
"""

KILL_POINTS = {
    "after-submit": "save_job",
    "after-running-mark": "update_job",
    "after-first-cell": "save_cell",
    "after-sweep-record": "save_sweep",
}
BACKENDS = {"sqlite": "corpus.sqlite", "json": "tree"}


def serve_to_done(store, job_id):
    """The job's final record, through a service started over ``store``,
    and the artifacts it serves."""
    served = Served(store)
    try:
        with ServiceClient(served.url) as client:
            record = client.wait(job_id, max_wait=120)
            artifacts = [client.artifact("smoke", fmt)
                         for fmt in ("json", "csv")]
    finally:
        served.stop()
    assert record["state"] == "done", record
    return store.load_job(job_id), artifacts


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    store = ExperimentStore(tmp_path_factory.mktemp("whole") / "c.sqlite")
    with ExperimentService(store, workers=1) as service:
        job_id = service.submit("smoke")
    _, artifacts = serve_to_done(store, job_id)
    store.close()
    return artifacts


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("point", sorted(KILL_POINTS))
def test_a_killed_job_settles_after_a_restart(tmp_path, uninterrupted,
                                              backend, point):
    path = tmp_path / BACKENDS[backend]
    child = subprocess.run(
        [sys.executable, "-c",
         _CHILD.format(src=str(SRC), killed=KILLED), str(path),
         KILL_POINTS[point]],
        capture_output=True, text=True, timeout=120)
    assert child.returncode == KILLED, child.stderr
    store = ExperimentStore(path)
    try:
        [left] = store.load_jobs()
        assert left["state"] in ("queued", "running")
        record, artifacts = serve_to_done(store, left["id"])
    finally:
        store.close()
    assert record["id"] == left["id"]
    assert record["replayed"] + record["computed"] \
        + record["failed_cells"] == record["total"] == CELLS
    events = record["events"]
    assert [event["seq"] for event in events] == list(range(CELLS))
    assert sorted(event["index"] for event in events) == list(range(CELLS))
    assert Counter(event["status"] for event in events) == Counter(
        {status: record[status] for status in ("replayed", "computed")
         if record[status]})
    assert artifacts == uninterrupted


def test_running_a_job_twice_changes_nothing(tmp_path):
    store = ExperimentStore(tmp_path / "corpus.sqlite")
    with ExperimentService(store, workers=1) as service:
        job_id = service.submit("smoke")
        settled = service.wait(job_id, timeout=120)
        service._run_job(job_id)
        assert store.load_job(job_id) == settled
        # The terminal write lost, the log whole: a second run only
        # closes the job out, adding no cell the log already holds.
        store.save_job(job_id, dict(settled, state="running",
                                    finished_at=None))
        service._run_job(job_id)
        again = store.load_job(job_id)
    store.close()
    assert again["state"] == "done" and again["finished_at"]
    assert {key: again[key] for key in again if key != "finished_at"} \
        == {key: settled[key] for key in settled if key != "finished_at"}


def left_running(store, **change):
    """A job record as a killed service leaves it, with ``change``."""
    job_id = "20260101T000000Z-0badc0de"
    store.save_job(job_id, {
        "id": job_id, "sweep": "smoke", "state": "running",
        "total": CELLS, "replayed": 0, "computed": 0, "failed_cells": 0,
        "error": None, "overrides": {},
        "submitted_at": "2026-01-01T00:00:00Z",
        "started_at": "2026-01-01T00:00:01Z", "finished_at": None,
        "events": [], **change})
    return job_id


@pytest.mark.parametrize("change, message", [
    ({"sweep": "no-such-sweep"}, "unknown sweep 'no-such-sweep'"),
    ({"overrides": {"network": "no-such-network"}},
     "unknown network conditions 'no-such-network'"),
    ({"total": CELLS + 1},
     f"sweep 'smoke' now expands to {CELLS} cells, not the job's "
     f"{CELLS + 1}"),
])
def test_a_job_that_cannot_be_requeued_is_failed(tmp_path, change, message):
    store = ExperimentStore(tmp_path / "corpus.sqlite")
    job_id = left_running(store, **change)
    writes = []
    update_job = store.backend.update_job
    store.backend.update_job = lambda *args: writes.append(args) \
        or update_job(*args)
    with ExperimentService(store, workers=1) as service:
        record = service.wait(job_id, timeout=30)
    store.close()
    assert len(writes) == 1
    assert record["state"] == "failed" and record["finished_at"]
    assert message in record["error"]
    assert record["events"] == [] and store.load_sweep("smoke") is None


def test_a_server_that_cannot_bind_runs_no_job(tmp_path):
    """The port is bound before the service starts: a second ``repro
    serve`` pointed at a taken port exits without running the store's
    unsettled jobs."""
    store = ExperimentStore(tmp_path / "corpus.sqlite")
    job_id = left_running(store)
    threads = set(threading.enumerate())
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        with pytest.raises(OSError):
            make_server(store, port=taken.getsockname()[1])
    assert set(threading.enumerate()) <= threads
    assert store.load_job(job_id)["state"] == "running"
    store.close()
