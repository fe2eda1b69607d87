"""What one job through the experiment service may cost, as counts.

``bench/run.py``'s ``service-closed`` workload says how long a replayed
job takes; a clock cannot gate a merge on a shared runner, so the same
facts are pinned here as exact counts that repeat on any runner: store
calls per job, TCP connections per client, long-polls per settled job.  Beside
them, what the job task must not change: the job record's final fields,
the sweep record and the event log of warm, cold, mixed, failing-cell
and zero-cell jobs.  A job is one task, so a warm job does not wait
behind a cold job's cells.
"""

import sqlite3
import sys
import threading
import time
from collections import Counter

import pytest

from repro.harness.scenarios import (
    PROTOCOLS,
    ProtocolEntry,
    ScenarioSpec,
    SweepSpec,
    run_sweep,
)
from repro.harness.service import (
    ExperimentService,
    ServiceClient,
    ServiceError,
)
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from tests.test_service import Served
from tests.test_sweep_dispatch import build_faulty_quadratic

CELLS = SWEEPS["smoke"].expand()
COUNTED = ("load_cell", "save_cell", "update_job", "save_sweep")


def twin_sweep(name, protocol="subquadratic", **fixed):
    """Two scenarios that differ only in name: one fingerprint."""
    fixed = fixed or {"n": 24, "f_fraction": 0.25, "lam": 10}
    return SweepSpec(name=name, scenarios=tuple(
        ScenarioSpec(name=scenario, protocol=protocol, fixed=fixed,
                     inputs="mixed", seeds=(0, 1))
        for scenario in "ab"))


@pytest.fixture()
def faulty(tmp_path, monkeypatch):
    """A registered builder that raises at ``n == 7`` while its marker
    file exists, and the marker."""
    monkeypatch.setitem(PROTOCOLS, "faulty-quadratic",
                        ProtocolEntry(build_faulty_quadratic))
    marker = tmp_path / "fault"
    marker.touch()
    return {"f": 2, "fault": str(marker), "fault_n": 7}


@pytest.fixture()
def store(tmp_path):
    store = ExperimentStore(tmp_path / "corpus.sqlite")
    yield store
    store.close()


@pytest.fixture()
def calls(store, monkeypatch):
    """A counter of the backend calls a job is budgeted in."""
    counts = Counter()

    def counted(name):
        inner = getattr(store.backend, name)

        def method(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)
        return method

    for name in COUNTED:
        monkeypatch.setattr(store.backend, name, counted(name))
    return counts


def run_job(service, name="smoke"):
    record = service.wait(service.submit(name), timeout=120)
    return record, record["events"]


def forget_cell(store, index):
    connection = store.backend._connection()
    with connection:
        connection.execute("DELETE FROM cells WHERE fingerprint = ?",
                           (store.fingerprint(CELLS[index]),))


def expected_events(store, statuses, cells=CELLS):
    """The log a job must leave, as a set of per-cell entries (its order
    is pinned apart, against ``run_sweep``'s events)."""
    return sorted(
        (index, status, cell.scenario, cell.label(), store.fingerprint(cell))
        for index, (cell, status) in enumerate(zip(cells, statuses)))


def assert_log(store, events, statuses, cells=CELLS):
    assert [event["seq"] for event in events] == list(range(len(cells)))
    assert all(set(event) == {"seq", "index", "status", "scenario",
                              "label", "fingerprint"} for event in events)
    assert sorted((event["index"], event["status"], event["scenario"],
                   event["label"], event["fingerprint"])
                  for event in events) \
        == expected_events(store, statuses, cells)


def assert_record(record, state="done", **counters):
    expected = dict(total=len(CELLS), replayed=0, computed=0,
                    failed_cells=0)
    expected.update(counters)
    assert record["state"] == state
    assert {key: record[key] for key in expected} == expected
    assert record["submitted_at"] <= record["started_at"] \
        <= record["finished_at"]
    assert set(record) == {
        "id", "sweep", "state", "total", "replayed", "computed",
        "failed_cells", "error", "overrides", "submitted_at",
        "started_at", "finished_at", "schema", "events"}
    assert len(record["events"]) == record["replayed"] \
        + record["computed"] + record["failed_cells"]


class TestStoreCallsPerJob:
    def test_cold_job_writes_once_per_computed_cell(self, store, calls):
        with ExperimentService(store, workers=2) as service:
            record, events = run_job(service)
        assert_record(record, computed=len(CELLS))
        assert_log(store, events, ["computed"] * len(CELLS))
        assert calls["save_cell"] == len(CELLS)
        # The running mark (nothing replayed), then one per cell: the
        # last one closes the job out.
        assert calls["update_job"] == len(CELLS) + 1
        assert calls["save_sweep"] == 1
        # One lookup per cell: a miss is not looked up again to compute.
        assert calls["load_cell"] == len(CELLS)

    def test_warm_job_is_one_lookup_per_cell_and_one_job_write(self, store,
                                                               calls):
        with ExperimentService(store, workers=2) as service:
            run_job(service)
            calls.clear()
            record, events = run_job(service)
        assert_record(record, replayed=len(CELLS))
        assert_log(store, events, ["replayed"] * len(CELLS))
        # The sweep record it would write equals the stored one.
        assert calls == {"load_cell": len(CELLS), "update_job": 1}
        assert store.load_sweep("smoke")["complete"] is True

    def test_mixed_job_replays_in_a_batch_and_computes_the_rest(
            self, store, calls):
        with ExperimentService(store, workers=2) as service:
            run_job(service)
            before = store.load_sweep("smoke")
            forget_cell(store, 0)
            calls.clear()
            record, events = run_job(service)
        statuses = ["computed"] + ["replayed"] * (len(CELLS) - 1)
        assert_record(record, computed=1, replayed=len(CELLS) - 1)
        assert_log(store, events, statuses)
        assert calls["save_cell"] == 1
        # The running mark with the replayed batch, then the miss and
        # the close-out in one write.
        assert calls["update_job"] == 2
        after = store.load_sweep("smoke")
        assert {key: after[key] for key in after if key != "recorded_at"} \
            == {key: before[key] for key in before if key != "recorded_at"}

    def test_mixed_job_logs_in_expansion_order(self, store):
        """Read in ``seq`` order, the log is ``run_sweep``'s ``on_cell``
        stream against the same store state: replayed cells are not
        logged ahead of the computed one before them."""
        with ExperimentService(store, workers=2) as service:
            run_job(service)
            forget_cell(store, 0)
            _, events = run_job(service)
        forget_cell(store, 0)
        swept = []
        run_sweep(SWEEPS["smoke"], store=store, on_cell=lambda event:
                  swept.append((event["index"], event["status"],
                                event["fingerprint"])))
        assert swept[0][1] == "computed"
        assert [(event["index"], event["status"], event["fingerprint"])
                for event in sorted(events, key=lambda e: e["seq"])] \
            == swept

    def test_failing_cell_is_counted_and_leaves_a_hole(self, store, faulty,
                                                      monkeypatch):
        sweep = SweepSpec(name="faulty", scenarios=(ScenarioSpec(
            name="q", protocol="faulty-quadratic", grid={"n": (7, 9)},
            fixed=faulty, seeds=range(2)),))
        monkeypatch.setitem(SWEEPS, "faulty", sweep)
        cells = sweep.expand()
        # The sweep record is written while the job is still running, so
        # a client that reads a terminal state can fetch the artifact.
        states = []
        save_sweep = store.backend.save_sweep

        def noting_the_state(*args):
            states.append(store.load_jobs()[0]["state"])
            return save_sweep(*args)

        monkeypatch.setattr(store.backend, "save_sweep", noting_the_state)
        with ExperimentService(store, workers=2) as service:
            record, events = run_job(service, "faulty")
        assert states == ["running"]
        assert_record(record, state="failed", total=len(cells),
                      failed_cells=1, computed=len(cells) - 1)
        assert record["error"].startswith(f"cell 0 ({cells[0].label()}): ")
        assert "RuntimeError: injected builder fault at n=7" \
            in record["error"]
        assert_log(store, events,
                   ["failed"] + ["computed"] * (len(cells) - 1), cells)
        recorded = store.load_sweep("faulty")
        assert recorded["complete"] is False
        assert recorded["rows"][0] is None and all(recorded["rows"][1:])

    def test_a_twin_computes_once_and_replays(self, store, calls,
                                              monkeypatch):
        sweep = twin_sweep("twins")
        monkeypatch.setitem(SWEEPS, "twins", sweep)
        with ExperimentService(store, workers=2) as service:
            record, events = run_job(service, "twins")
        assert_record(record, total=2, computed=1, replayed=1)
        assert [(event["index"], event["status"]) for event in events] \
            == [(0, "computed"), (1, "replayed")]
        assert calls["save_cell"] == 1
        assert store.load_sweep("twins")["complete"] is True

    def test_a_twin_of_a_failed_cell_is_a_hole(self, store, faulty,
                                               monkeypatch):
        monkeypatch.setitem(SWEEPS, "twins", twin_sweep(
            "twins", "faulty-quadratic", n=7, **faulty))
        with ExperimentService(store, workers=2) as service:
            record, events = run_job(service, "twins")
        assert_record(record, state="failed", total=2, failed_cells=2)
        assert record["error"].startswith("cell 0 (a ")
        assert [(event["index"], event["status"]) for event in events] \
            == [(0, "failed"), (1, "failed")]
        assert store.load_sweep("twins")["rows"] == [None, None]

    def test_zero_cell_job_settles(self, store, monkeypatch):
        monkeypatch.setitem(SWEEPS, "empty",
                            SweepSpec("empty", (), "nothing to run"))
        with ExperimentService(store, workers=1) as service:
            record = service.wait(service.submit("empty"), timeout=30)
        assert (record["state"], record["total"]) == ("done", 0)
        assert record["events"] == []
        assert record["started_at"] and record["finished_at"]
        assert store.load_sweep("empty")["cells"] == []

    def test_wait_drains_a_job_not_yet_started(self, store):
        """``shutdown(wait=True)`` right behind ``submit``: the job has
        not started, and still settles."""
        service = ExperimentService(store, workers=2)
        job_id = service.submit("smoke")
        service.shutdown(wait=True)
        assert_record(store.load_job(job_id), computed=len(CELLS))


def test_concurrent_jobs_lose_no_count_and_no_event(store):
    """Eight overlapping jobs on four workers, the interpreter switching
    threads every 10 µs: a settle that raced another would drop a counter
    increment or reuse an event ``seq``."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ExperimentService(store, workers=4) as service:
            run_job(service)
            forget_cell(store, 0)
            job_ids = []
            threads = [threading.Thread(
                target=lambda: job_ids.append(service.submit("smoke")))
                for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert len(job_ids) == 8
            for job_id in job_ids:
                record = service.wait(job_id, timeout=120)
                assert record["state"] == "done"
                assert record["replayed"] + record["computed"] == len(CELLS)
                events = record["events"]
                assert [event["seq"] for event in events] \
                    == list(range(len(CELLS)))
                assert sorted(event["index"] for event in events) \
                    == list(range(len(CELLS)))
    finally:
        sys.setswitchinterval(interval)


def test_a_store_failure_lets_the_job_go_and_keeps_the_worker(store,
                                                              monkeypatch):
    """A job whose store reads fail is let go where its record stands —
    no worker holds it, so pollers are told to resubmit — and the one
    worker goes on to the next job."""
    load_cell = store.backend.load_cell

    def locked(fingerprint):
        raise sqlite3.OperationalError("database is locked")

    with ExperimentService(store, workers=1) as service:
        monkeypatch.setattr(store.backend, "load_cell", locked)
        job_id = service.submit("smoke")
        assert service.wait(job_id, timeout=30)["state"] == "queued"
        assert not service.poll(job_id)[1]
        monkeypatch.setattr(store.backend, "load_cell", load_cell)
        record, _ = run_job(service)
    assert_record(record, computed=len(CELLS))


def test_a_warm_job_does_not_wait_behind_a_cold_jobs_cells(store,
                                                           monkeypatch):
    """Two workers, ``smoke`` recorded: a cold eight-cell sweep submitted
    first holds one worker, and ``smoke`` settles on the other while the
    cold job has computed fewer than half its cells.  With one queue task
    per cell, ``smoke`` would queue behind every cold cell."""
    cold = SweepSpec("cold", (ScenarioSpec(
        name="quadratic", protocol="quadratic",
        grid={"n": tuple(range(40, 48))}, fixed={"f_fraction": 0.25},
        inputs="mixed", seeds=range(3)),), "eight cells to compute")
    monkeypatch.setitem(SWEEPS, "cold", cold)
    with ExperimentService(store, workers=2) as service:
        run_job(service)
        cold_id = service.submit("cold")
        deadline = time.monotonic() + 30
        while (store.load_job(cold_id)["state"] == "queued"
               and time.monotonic() < deadline):
            time.sleep(0.005)
        record, _ = run_job(service)
        assert record["replayed"] == len(CELLS)
        assert store.load_job(cold_id)["computed"] < len(cold.expand()) / 2
        assert service.wait(cold_id, timeout=120)["state"] == "done"


class TestRequestsPerJob:
    @pytest.fixture()
    def served(self, store):
        running = Served(store)
        with ServiceClient(running.url) as client:
            yield client, running.service, running.accepted
        running.stop()

    def test_three_jobs_share_one_connection(self, served):
        client, _, accepted = served
        for _ in range(3):
            record = client.wait(client.submit("smoke"), max_wait=120)
            assert record["state"] == "done"
            assert client.artifact("smoke", "json")
            assert client.artifact("smoke", "csv")
        assert len(accepted) == 1

    def test_a_planned_job_settles_in_one_poll(self, served):
        client, service, _ = served
        client.wait(client.submit("smoke"), max_wait=120)
        job_id = client.submit("smoke")
        service.wait(job_id, timeout=120)  # planned before the poll
        batch = client.events(job_id, since=0, poll_timeout=25)
        assert batch["job"]["state"] == "done"
        assert batch["next"] == len(batch["events"]) == len(CELLS)

    def test_a_poll_that_waited_reads_the_whole_replayed_log(self, served,
                                                             monkeypatch):
        """The poll arrives *before* the job task runs: it is woken
        once, after the close-out, with every event and a terminal
        record."""
        client, service, _ = served
        client.wait(client.submit("smoke"), max_wait=120)
        release = threading.Event()
        run_job = service._run_job

        def held_job(*job):
            release.wait(30)
            run_job(*job)

        monkeypatch.setattr(service, "_run_job", held_job)
        job_id = client.submit("smoke")
        threading.Timer(0.2, release.set).start()
        batch = client.events(job_id, since=0, poll_timeout=25)
        assert batch["job"]["state"] == "done"
        assert len(batch["events"]) == len(CELLS)

    def test_an_orphaned_job_answers_409_at_once(self, served, store,
                                                 monkeypatch):
        """A job left ``running`` by a stopped service will never settle:
        the first poll says so, instead of ``wait`` re-polling until
        ``max_wait`` runs out."""
        client, _, _ = served
        store.save_job("orphan", {"id": "orphan", "sweep": "smoke",
                                  "state": "running"})
        requests = []
        request = client._request

        def counted(*args, **kwargs):
            requests.append(args[0])
            return request(*args, **kwargs)

        monkeypatch.setattr(client, "_request", counted)
        with pytest.raises(ServiceError) as excinfo:
            client.wait("orphan", max_wait=2)
        assert excinfo.value.status == 409
        assert "running" in str(excinfo.value)
        assert "resubmit" in str(excinfo.value)
        assert len(requests) <= 2
