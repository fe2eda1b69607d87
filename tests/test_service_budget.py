"""What one job through the experiment service may cost, as counts.

``bench/run.py``'s ``service-closed`` workload says how long a replayed
job takes; a clock cannot gate a merge on a shared runner, so the same
facts are pinned here as numbers that repeat exactly: store calls per
job, TCP connections per client, long-polls per settled job.  Beside
them, what the plan task must not change: the job record's final fields,
the sweep record and the event log of warm, cold, mixed, failing-cell
and zero-cell jobs.
"""

import sys
import threading
from collections import Counter

import pytest

from repro.harness.scenarios import SweepSpec
from repro.harness.service import ExperimentService, ServiceClient
from repro.harness.service import queue as service_queue
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from tests.test_service import Served

CELLS = SWEEPS["smoke"].expand()
COUNTED = ("load_cell", "save_cell", "update_job", "save_sweep")


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
    job_id = service.submit(name)
    return service.wait(job_id, timeout=120), service.events(job_id)


def forget_cell(store, index):
    connection = store.backend._connection()
    with connection:
        connection.execute("DELETE FROM cells WHERE fingerprint = ?",
                           (store.fingerprint(CELLS[index]),))


def expected_events(store, statuses):
    """The log a job must leave, as a set of per-cell entries: settle
    order is the workers' business, everything else is fixed."""
    return sorted(
        (index, status, cell.scenario, cell.label(), store.fingerprint(cell))
        for index, (cell, status) in enumerate(zip(CELLS, statuses)))


def assert_log(store, events, statuses):
    assert [event["seq"] for event in events] == list(range(len(CELLS)))
    assert all(set(event) == {"seq", "index", "status", "scenario",
                              "label", "fingerprint"} for event in events)
    assert sorted((event["index"], event["status"], event["scenario"],
                   event["label"], event["fingerprint"])
                  for event in events) == expected_events(store, statuses)


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
        "failed_cells", "error", "share_lottery", "overrides",
        "submitted_at", "started_at", "finished_at", "schema"}


class TestStoreCallsPerJob:
    def test_cold_job_writes_once_per_computed_cell(self, store, calls):
        with ExperimentService(store, workers=2) as service:
            record, events = run_job(service)
        assert_record(record, computed=len(CELLS))
        assert_log(store, events, ["computed"] * len(CELLS))
        assert calls["save_cell"] == len(CELLS)
        # The plan's (empty) batch and the close-out, plus one per cell.
        assert calls["update_job"] == len(CELLS) + 2
        assert calls["save_sweep"] == 1

    def test_warm_job_is_one_lookup_per_cell_and_two_writes(self, store,
                                                            calls):
        with ExperimentService(store, workers=2) as service:
            run_job(service)
            calls.clear()
            record, events = run_job(service)
        assert_record(record, replayed=len(CELLS))
        assert_log(store, events, ["replayed"] * len(CELLS))
        assert calls == {"load_cell": len(CELLS), "update_job": 2,
                         "save_sweep": 1}
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
        assert calls["update_job"] == 3  # the batch, the miss, the close
        after = store.load_sweep("smoke")
        assert {key: after[key] for key in after if key != "recorded_at"} \
            == {key: before[key] for key in before if key != "recorded_at"}

    def test_failing_cell_is_counted_and_leaves_a_hole(self, store,
                                                      monkeypatch):
        execute = service_queue.execute_or_replay

        def fail_the_first(cell, **kwargs):
            if cell == CELLS[0]:
                raise RuntimeError("no such luck")
            return execute(cell, **kwargs)

        monkeypatch.setattr(service_queue, "execute_or_replay",
                            fail_the_first)
        with ExperimentService(store, workers=2) as service:
            record, events = run_job(service)
        assert_record(record, state="failed", failed_cells=1,
                      computed=len(CELLS) - 1)
        assert record["error"].startswith(f"cell 0 ({CELLS[0].label()}): ")
        assert "RuntimeError: no such luck" in record["error"]
        assert_log(store, events,
                   ["failed"] + ["computed"] * (len(CELLS) - 1))
        sweep = store.load_sweep("smoke")
        assert sweep["complete"] is False
        assert sweep["rows"][0] is None and all(sweep["rows"][1:])

    def test_zero_cell_job_settles(self, store, monkeypatch):
        monkeypatch.setitem(SWEEPS, "empty",
                            SweepSpec("empty", (), "nothing to run"))
        with ExperimentService(store, workers=1) as service:
            job_id = service.submit("empty")
            record = service.wait(job_id, timeout=30)
            assert service.events(job_id) == []
        assert (record["state"], record["total"]) == ("done", 0)
        assert record["started_at"] and record["finished_at"]
        assert store.load_sweep("empty")["cells"] == []

    def test_wait_drains_cell_tasks_a_plan_adds_late(self, store):
        """``shutdown(wait=True)`` right behind ``submit``: the plan has
        not run, so its cell tasks do not exist yet — and still settle."""
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
                events = service.events(job_id)
                assert [event["seq"] for event in events] \
                    == list(range(len(CELLS)))
                assert sorted(event["index"] for event in events) \
                    == list(range(len(CELLS)))
    finally:
        sys.setswitchinterval(interval)


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
        """The poll arrives *before* the plan runs: it is woken once,
        after the close-out, with every event and a terminal record."""
        client, service, _ = served
        client.wait(client.submit("smoke"), max_wait=120)
        release = threading.Event()
        plan = service._plan

        def held_plan(active):
            release.wait(30)
            plan(active)

        monkeypatch.setattr(service, "_plan", held_plan)
        job_id = client.submit("smoke")
        threading.Timer(0.2, release.set).start()
        batch = client.events(job_id, since=0, poll_timeout=25)
        assert batch["job"]["state"] == "done"
        assert len(batch["events"]) == len(CELLS)
