"""Tests for the experiment service (harness/service/): the job queue
and worker pool, the HTTP API end to end, concurrent overlapping
submissions, warm-store replay through the API, and artifact
byte-identity against a direct ``run_sweep``."""

import json
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.harness.scenarios import run_sweep
from repro.harness.service import (
    JOB_DONE,
    JOB_QUEUED,
    ExperimentService,
    ServiceClient,
    ServiceError,
)
from repro.harness.service.app import make_server
from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS

SMOKE_CELLS = len(SWEEPS["smoke"].expand())


@pytest.fixture()
def sqlite_store(tmp_path):
    store = ExperimentStore(tmp_path / "corpus.sqlite")
    yield store
    store.close()


@pytest.fixture()
def served(sqlite_store):
    """A live HTTP server on an ephemeral port, with its client."""
    server, service = make_server(sqlite_store, port=0, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{server.server_address[1]}")
    yield client, sqlite_store
    server.shutdown()
    server.server_close()
    service.shutdown()


class TestServiceQueue:
    def test_submit_runs_to_done_with_counters(self, sqlite_store):
        with ExperimentService(sqlite_store, workers=2) as service:
            job_id = service.submit("smoke")
            record = service.wait(job_id, timeout=120)
        assert record["state"] == JOB_DONE
        assert record["total"] == SMOKE_CELLS
        assert record["computed"] == SMOKE_CELLS
        assert record["replayed"] == 0
        assert record["failed_cells"] == 0
        assert record["error"] is None
        assert record["started_at"] is not None
        assert record["finished_at"] is not None
        assert sqlite_store.load_sweep("smoke")["complete"] is True

    def test_resubmission_replays_everything(self, sqlite_store):
        with ExperimentService(sqlite_store, workers=2) as service:
            service.wait(service.submit("smoke"), timeout=120)
            record = service.wait(service.submit("smoke"), timeout=120)
        assert record["state"] == JOB_DONE
        assert record["replayed"] == SMOKE_CELLS
        assert record["computed"] == 0

    def test_unknown_sweep_rejected_before_enqueue(self, sqlite_store):
        with ExperimentService(sqlite_store, workers=1) as service:
            with pytest.raises(ConfigurationError):
                service.submit("no-such-sweep")
            assert service.jobs() == []

    def test_events_survive_job_completion(self, sqlite_store):
        with ExperimentService(sqlite_store, workers=2) as service:
            job_id = service.submit("smoke")
            service.wait(job_id, timeout=120)
            events = service.events(job_id)
        assert len(events) == SMOKE_CELLS
        assert [event["seq"] for event in events] == list(
            range(SMOKE_CELLS))
        assert {event["status"] for event in events} == {"computed"}
        assert {event["index"] for event in events} == set(
            range(SMOKE_CELLS))

    def test_rows_match_a_direct_run(self, sqlite_store, tmp_path):
        with ExperimentService(sqlite_store, workers=2) as service:
            service.wait(service.submit("smoke"), timeout=120)
        direct = run_sweep(SWEEPS["smoke"],
                           store=ExperimentStore(tmp_path / "tree"))
        assert sqlite_store.sweep_rows("smoke") == direct.rows()

    def test_works_against_json_backend_too(self, tmp_path):
        store = ExperimentStore(tmp_path / "tree")
        with ExperimentService(store, workers=2) as service:
            record = service.wait(service.submit("smoke"), timeout=120)
        assert record["state"] == JOB_DONE
        assert record["computed"] == SMOKE_CELLS

    def test_submit_after_shutdown_refused(self, sqlite_store, tmp_path):
        for store in (sqlite_store, ExperimentStore(tmp_path / "tree")):
            with ExperimentService(store, workers=1) as service:
                service.wait(service.submit("smoke"), timeout=120)
            before = store.load_jobs()
            assert [job["state"] for job in before] == [JOB_DONE]
            with pytest.raises(ConfigurationError, match="shut down"):
                service.submit("smoke")
            # Refused before it was recorded: a job persisted as queued
            # now would stay queued forever — no worker will take it.
            assert store.load_jobs() == before

    def test_job_record_is_durable_across_services(self, sqlite_store):
        with ExperimentService(sqlite_store, workers=2) as service:
            job_id = service.submit("smoke")
            service.wait(job_id, timeout=120)
        revived = ExperimentService(sqlite_store, workers=1)
        try:
            record = revived.job(job_id)
            assert record["state"] == JOB_DONE
            assert record["computed"] == SMOKE_CELLS
            # The fine-grained event log is process-local, gone now.
            assert revived.events(job_id) == []
        finally:
            revived.shutdown()


class TestHttpEndToEnd:
    def test_submit_poll_fetch(self, served):
        client, store = served
        assert client.health()
        listing = client.sweeps()
        assert "smoke" in listing["available"]
        assert listing["recorded"] == []

        job_id = client.submit("smoke")
        assert client.job(job_id)["state"] in (JOB_QUEUED, "running",
                                               JOB_DONE)
        events = []
        record = client.wait(job_id, on_event=events.append,
                             max_wait=120)
        assert record["state"] == JOB_DONE
        assert record["computed"] == SMOKE_CELLS
        assert len(events) == SMOKE_CELLS
        assert all(event["fingerprint"] for event in events)

        rows = client.sweep_rows("smoke")
        assert rows["complete"] is True
        assert len(rows["rows"]) == SMOKE_CELLS
        assert client.jobs()[0]["id"] == job_id

    def test_artifacts_byte_identical_to_direct_run(self, served,
                                                    tmp_path):
        client, _ = served
        client.wait(client.submit("smoke"), max_wait=120)
        direct = run_sweep(SWEEPS["smoke"],
                           store=ExperimentStore(tmp_path / "tree"))
        json_path = direct.to_json(tmp_path / "direct.json")
        csv_path = direct.to_csv(tmp_path / "direct.csv")
        assert client.artifact("smoke", "json") == json_path.read_bytes()
        assert client.artifact("smoke", "csv") == csv_path.read_bytes()

    def test_warm_replay_through_the_api(self, served):
        client, _ = served
        client.wait(client.submit("smoke"), max_wait=120)
        statuses = []
        record = client.wait(
            client.submit("smoke"),
            on_event=lambda event: statuses.append(event["status"]),
            max_wait=120)
        assert record["state"] == JOB_DONE
        assert record["replayed"] == SMOKE_CELLS
        assert record["computed"] == 0
        assert statuses == ["replayed"] * SMOKE_CELLS

    def test_concurrent_overlapping_submissions_both_complete(self,
                                                              served):
        client, store = served
        records = []

        def submit_and_wait():
            records.append(client.wait(client.submit("smoke"),
                                       max_wait=180))

        threads = [threading.Thread(target=submit_and_wait)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(records) == 2
        assert all(record["state"] == JOB_DONE for record in records)
        assert all(record["failed_cells"] == 0 for record in records)
        # Between them the overlapping cells were computed once or twice
        # (a race may compute both copies) but never lost.
        for record in records:
            assert record["computed"] + record["replayed"] == SMOKE_CELLS
        assert store.cell_count() == SMOKE_CELLS
        rows = client.sweep_rows("smoke")
        assert rows["complete"] is True and len(
            rows["rows"]) == SMOKE_CELLS

    def test_request_threads_hand_back_their_connections(self, served):
        """The server runs a thread per request and each opens its own
        SQLite connection; N sequential jobs (dozens of requests) must
        leave the backend holding only its long-lived ones — the
        creating thread's and the workers' — not one per request."""
        client, store = served
        backend = store.backend
        baseline_threads = threading.active_count()

        def settled_connections():
            # A handler thread may still be finishing after its response
            # was read; give it a moment.
            deadline = time.monotonic() + 5.0
            while (threading.active_count() > baseline_threads
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return len(backend._connections)

        counts = []
        for _ in range(6):
            job_id = client.submit("smoke")
            assert client.wait(job_id, max_wait=120)["state"] == JOB_DONE
            assert client.artifact("smoke", "json")
            counts.append(settled_connections())
        assert counts[-1] == counts[0], counts
        assert counts[-1] <= 3, counts  # creator + 2 workers

    def test_error_paths(self, served):
        client, _ = served
        with pytest.raises(ServiceError) as excinfo:
            client.submit("no-such-sweep")
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.job("no-such-job")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.sweep_rows("never-recorded")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client._request_json("/api/nowhere")
        assert excinfo.value.status == 404

    def test_events_long_poll_pagination(self, served):
        client, _ = served
        job_id = client.submit("smoke")
        client.wait(job_id, max_wait=120)
        first = client.events(job_id, since=0, poll_timeout=1)
        assert first["next"] == SMOKE_CELLS
        assert len(first["events"]) == SMOKE_CELLS
        # Offsets past the end return an empty page, not an error.
        tail = client.events(job_id, since=first["next"], poll_timeout=0)
        assert tail["events"] == []

    def test_stream_emits_ndjson_until_settled(self, served):
        client, _ = served
        job_id = client.submit("smoke")
        body = client._request(f"/api/jobs/{job_id}/stream",
                               timeout=180).decode("utf-8")
        lines = [json.loads(line) for line in body.splitlines() if line]
        assert lines, "stream produced no events"
        final = lines[-1]
        assert final["job"]["state"] == JOB_DONE
        progress = lines[:-1]
        assert len(progress) == SMOKE_CELLS
        assert {event["index"] for event in progress} == set(
            range(SMOKE_CELLS))

    def test_live_book_served(self, served):
        client, _ = served
        client.wait(client.submit("smoke"), max_wait=120)
        html = client.book("html")
        assert b"<html" in html.lower()
        assert b'http-equiv="refresh"' in html
        assert b"smoke" in html
        markdown = client.book("md")
        assert b"smoke" in markdown
        assert b"http-equiv" not in markdown
