"""Tests for the experiment service (harness/service/): the job queue
and worker pool, the HTTP API end to end, concurrent overlapping
submissions, warm-store replay through the API, artifact byte-identity
against a direct ``run_sweep``, what a malformed request is answered,
and what a kept connection does when the server goes away.  It ends
with the tracemalloc slope over 250 warm jobs: a replayed job leaves no
memory behind in the service."""

import gc
import http.client
import json
import socket
import threading
import time
import tracemalloc

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


class Served:
    """A live HTTP server over ``store`` that remembers the sockets it
    accepted, so that stopping it takes its connections down with it —
    what the death of a real ``repro serve`` process does."""

    def __init__(self, store, port=0):
        self.server, self.service = make_server(store, port=port, workers=2)
        self.accepted = []
        accept = self.server.get_request

        def get_request():
            request = accept()
            self.accepted.append(request[0])
            return request

        self.server.get_request = get_request
        self.port = self.server.server_address[1]
        self.url = f"http://127.0.0.1:{self.port}"
        threading.Thread(target=self.server.serve_forever,
                         daemon=True).start()

    def drop_connections(self):
        for accepted in self.accepted:
            try:
                accepted.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler has already closed it

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self.service.shutdown()
        self.drop_connections()


@pytest.fixture()
def running(sqlite_store):
    served = Served(sqlite_store)
    yield served
    served.stop()


@pytest.fixture()
def served(running):
    """A live HTTP server on an ephemeral port, with its client."""
    with ServiceClient(running.url) as client:
        yield client, running.service.store


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
            assert sqlite_store.load_jobs() == []

    def test_events_survive_job_completion(self, sqlite_store):
        with ExperimentService(sqlite_store, workers=2) as service:
            job_id = service.submit("smoke")
            events = service.wait(job_id, timeout=120)["events"]
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
            settled = service.wait(job_id, timeout=120)
        revived = ExperimentService(sqlite_store, workers=1)
        try:
            record, held = revived.poll(job_id)
            assert record == settled and not held
            assert record["state"] == JOB_DONE
            assert record["computed"] == SMOKE_CELLS
            # The event log is part of the record, so it survives too.
            assert [event["index"] for event in record["events"]] \
                == list(range(SMOKE_CELLS))
        finally:
            revived.shutdown()

    def test_a_job_left_queued_settles_in_the_next_service(self,
                                                           sqlite_store):
        """``shutdown(wait=False)`` lets a queued job go; the next service
        on the same store finds it and settles it under its own id."""
        service = ExperimentService(sqlite_store, workers=1)
        held, release = threading.Event(), threading.Event()
        run_job = service._run_job

        def held_job(*job):
            held.set()
            release.wait(30)
            run_job(*job)

        service._run_job = held_job
        first = service.submit("smoke")
        assert held.wait(30)  # the worker holds the first job
        second = service.submit("smoke")
        service.shutdown(wait=False)
        assert not service.poll(second)[1]
        release.set()
        for thread in service._threads:
            thread.join(30)
            assert not thread.is_alive()
        assert sqlite_store.load_job(first)["state"] == JOB_DONE
        assert sqlite_store.load_job(second)["state"] == JOB_QUEUED
        with ExperimentService(sqlite_store, workers=1) as revived:
            record = revived.wait(second, timeout=120)
        assert record["state"] == JOB_DONE
        assert record["replayed"] == SMOKE_CELLS
        assert [event["seq"] for event in record["events"]] \
            == list(range(SMOKE_CELLS))


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

    def test_request_threads_hand_back_their_connections(self, served,
                                                         running,
                                                         monkeypatch):
        """A handler thread and its SQLite connection serve one client
        connection for as long as it lives: N sequential jobs (dozens of
        requests) leave the backend holding its long-lived ones — the
        creating thread's and the workers' — plus one per *live* client
        connection, and closing the client gives that one back.  A worker
        opens its connection on its first job, so the baseline is taken
        once two jobs, held until both workers have one, have run."""
        client, store = served
        backend = store.backend
        both = threading.Barrier(2)
        run_job = running.service._run_job

        def met(*job):
            both.wait(30)
            run_job(*job)

        with monkeypatch.context() as patched:
            patched.setattr(running.service, "_run_job", met)
            for job_id in [running.service.submit("smoke")
                           for _ in range(2)]:
                assert running.service.wait(job_id, timeout=120)["state"] \
                    == JOB_DONE
        client.close()
        baseline_threads = threading.active_count()

        def settled_connections(live):
            # A handler thread may still be finishing after its client
            # closed; give it a moment.
            deadline = time.monotonic() + 5.0
            while (threading.active_count() > baseline_threads + live
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            return len(backend._connections)

        counts = []
        for _ in range(6):
            job_id = client.submit("smoke")
            assert client.wait(job_id, max_wait=120)["state"] == JOB_DONE
            assert client.artifact("smoke", "json")
            counts.append(settled_connections(live=1))
        assert counts[-1] == counts[0], counts
        assert counts[-1] <= 4, counts  # creator + 2 workers + 1 client
        client.close()
        assert settled_connections(live=0) <= 3

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


def _raw(port, request):
    """Send raw bytes on one fresh socket; the first response's status
    and decoded JSON body."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        response = http.client.HTTPResponse(sock)
        response.begin()
        return response.status, json.loads(response.read())


def _post(body, length=None):
    body = body.encode("utf-8")
    return (b"POST /api/sweeps HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(body) if length is None else length).encode("ascii")
            + b"\r\n\r\n" + body)


class TestHttpErrors:
    """Every malformed request is answered 4xx/5xx with a JSON ``error``
    body, never a traceback or the stdlib's HTML page, and the server
    answers the next client."""

    @pytest.mark.parametrize("request_bytes, status", [
        (_post('{"sweep": "smoke", "network": ["wan"]}'), 400),
        (_post('{"sweep": "smoke", "topology": 3}'), 400),
        (_post('{"sweep": "smoke", "share_lottery": "no"}'), 400),
        (_post('{"sweep": 7}'), 400),
        (_post('["smoke"]'), 400),
        (_post('{"sweep": '), 400),
        (_post('{"sweep": "no-such-sweep"}'), 400),
        (_post('{"sweep": "smoke", "network": "no-such-network"}'), 400),
        (_post("", length=-5), 400),
        (_post("", length="ten"), 400),
        (_post("", length=100000000000), 413),
        (b"POST /api/nowhere HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 2\r\n\r\n{}", 404),
        (b"GET /api/jobs/none/events?since=-2 HTTP/1.1\r\nHost: x\r\n\r\n",
         400),
        (b"GET /api/jobs/none/events?since=x HTTP/1.1\r\nHost: x\r\n\r\n",
         400),
        (b"GET /api/jobs/none/events HTTP/1.1\r\nHost: x\r\n\r\n", 404),
        (b"PUT /api/sweeps HTTP/1.1\r\nHost: x\r\n"
         b"Content-Length: 2\r\n\r\n{}", 501),
        (b"DELETE /api/jobs/none HTTP/1.1\r\nHost: x\r\n\r\n", 501),
        (b"GET /healthz HTTP/1.1\r\nHost: " + b"x" * 70000 + b"\r\n\r\n",
         431),
    ])
    def test_refused_with_a_json_error(self, running, request_bytes, status):
        answered, body = _raw(running.port, request_bytes)
        assert answered == status
        assert isinstance(body["error"], str) and body["error"]
        assert "Traceback" not in body["error"]
        assert running.service.store.load_jobs() == []
        with ServiceClient(running.url) as client:
            assert client.health()

    @pytest.mark.parametrize("body, named", [
        ('{"sweep": "smoke", "netwrok": "lan"}', "['netwrok']"),
        ('{"sweep": "smoke", "share_lottery": false}', "['share_lottery']"),
    ])
    def test_an_unknown_body_key_is_named(self, running, body, named):
        """A misspelt override is refused, not run without it."""
        answered, answer = _raw(running.port, _post(body))
        assert answered == 400 and named in answer["error"]
        assert running.service.store.load_jobs() == []

    def test_unread_body_does_not_become_the_next_request(self, running):
        """Two requests on one socket: the first is refused without its
        body being read, so the connection must close rather than parse
        the second request out of the first one's body."""
        body = b'{"x": "' + b"GET /healthz HTTP/1.1 " * 8 + b'"}'
        with socket.create_connection(("127.0.0.1", running.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /api/nowhere HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
                         + b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            first = http.client.HTTPResponse(sock)
            first.begin()
            assert first.status == 404
            assert first.getheader("Connection") == "close"
            assert "error" in json.loads(first.read())
            # Nothing follows: no 400 page for a request line made of
            # the body's bytes, and no answer to a request never parsed
            # (closing over unread bytes may reset instead of ending).
            try:
                assert sock.recv(4096) == b""
            except ConnectionResetError:
                pass

    def test_a_read_body_keeps_the_connection(self, running):
        with socket.create_connection(("127.0.0.1", running.port),
                                      timeout=10) as sock:
            for request, status in (
                    (_post('{"sweep": 7}'), 400),
                    (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n", 200)):
                sock.sendall(request)
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == status
                response.read()
        assert len(running.accepted) == 1


class TestKeptConnection:
    """``ServiceClient`` keeps one connection per thread; when the
    server behind it goes away a ``GET`` reopens it once and a ``POST``
    is never sent twice."""

    def test_get_reopens_once_after_a_restart(self, sqlite_store):
        first = Served(sqlite_store)
        with ServiceClient(first.url) as client:
            assert client.health() and client.health()
            assert len(first.accepted) == 1
            first.stop()
            second = Served(sqlite_store, port=first.port)
            try:
                assert client.health() and client.health()
                assert len(second.accepted) == 1
            finally:
                second.stop()
            with pytest.raises(ServiceError):
                client.health()

    def test_post_is_an_error_after_a_restart(self, sqlite_store):
        first = Served(sqlite_store)
        with ServiceClient(first.url) as client:
            assert client.health()
            first.stop()
            second = Served(sqlite_store, port=first.port)
            try:
                with pytest.raises(ServiceError):
                    client.submit("smoke")
                assert second.service.store.load_jobs() == []
                # Said once, out loud; the caller's own retry goes through.
                job_id = client.submit("smoke")
                assert [job["id"] for job in client.jobs()] == [job_id]
            finally:
                second.stop()

    def test_post_that_arrived_is_not_sent_again(self, running,
                                                 monkeypatch):
        submit_job = running.service.submit_job

        def accept_then_drop(*args):
            record = submit_job(*args)
            running.drop_connections()
            return record

        monkeypatch.setattr(running.service, "submit_job",
                            accept_then_drop)
        with ServiceClient(running.url) as client:
            assert client.health()
            with pytest.raises(ServiceError):
                client.submit("smoke")
            assert len(client.jobs()) == 1


def test_traced_memory_does_not_grow_with_jobs(served):
    """ROADMAP 5(iii): bench/workloads.py says the service's "memory
    grows with every job".  With a handler thread and a store connection
    per client connection rather than per request, 200 further warm jobs
    may add less than 256 KB of traced Python memory (a job's event log
    lives in its stored record, not in the service)."""
    client, _ = served

    def jobs(count):
        for _ in range(count):
            record = client.wait(client.submit("smoke"), max_wait=120)
            assert record["state"] == JOB_DONE
            assert client.artifact("smoke", "json")
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    jobs(1)
    tracemalloc.start()
    try:
        after_50 = jobs(50)
        after_250 = jobs(200)
    finally:
        tracemalloc.stop()
    assert after_250 - after_50 < 256 * 1024, (after_50, after_250)
