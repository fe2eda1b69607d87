"""The experiment service's HTTP API (stdlib only).

A :class:`ThreadingHTTPServer` — no third-party dependencies — in front
of an :class:`~repro.harness.service.queue.ExperimentService` and its
store.  A client's connection is kept alive: one thread, and the store
connection it opens, serve it request after request until the client
closes it or leaves it idle for :data:`IDLE_SECONDS`.  Start it with
``python -m repro serve``.  Routes:

===========================================  ================================
``POST /api/sweeps``                         submit a sweep: JSON body
                                             ``{"sweep": name,
                                             "network"?, "topology"?}``
                                             (any other key is a 400)
                                             → 202 + job
``GET  /api/sweeps``                         submittable sweeps + recorded
                                             sweep names
``GET  /api/sweeps/<name>/rows``             recorded rows of one sweep
``GET  /api/sweeps/<name>/artifact.json``    the sweep's JSON artifact —
                                             byte-identical to a direct
                                             ``run_sweep(store=...)`` export
``GET  /api/sweeps/<name>/artifact.csv``     likewise, CSV
``GET  /api/jobs``                           all job records, newest first
``GET  /api/jobs/<id>``                      one job record, without the
                                             event log ``/events`` pages
``GET  /api/jobs/<id>/events``               per-cell progress; ``?since=N``
                                             offsets, ``?timeout=S`` long-
                                             polls until a new event; 409
                                             for an unsettled job no
                                             worker here holds
``GET  /``, ``GET /book``                    the results book as live HTML
                                             (re-rendered per request,
                                             auto-refreshing)
``GET  /book.md``                            the same book as Markdown
``GET  /healthz``                            liveness probe
===========================================  ================================

Errors are JSON: ``{"error": message}`` with a 4xx/5xx status, the
stdlib's own refusals included; one sent without reading the body the
request declared also closes the connection.  The server binds to
127.0.0.1 by default — it trusts its callers (any client that can reach
it may submit compute); put it behind real authentication before
exposing it further.
"""

from __future__ import annotations

import json
import re
import sys
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError
from repro.harness.backends import indented_json
from repro.harness.report import render_book
from repro.harness.scenarios import sweep_csv_text, sweep_json_text
from repro.harness.service.queue import (
    JOB_QUEUED,
    JOB_RUNNING,
    ExperimentService,
)

#: Book HTML auto-refresh period, seconds (the "live" in live HTML).
BOOK_REFRESH_SECONDS = 5

_JOB_ROUTE = re.compile(r"^/api/jobs/(?P<job>[^/]+)(?P<tail>/events)?$")
_SWEEP_ROUTE = re.compile(r"^/api/sweeps/(?P<name>[^/]+)"
                          r"(?P<tail>/rows|/artifact\.json|/artifact\.csv)$")

#: Longest long-poll a single request may hold (seconds); clients ask
#: for less via ``?timeout=``.
MAX_POLL_SECONDS = 60.0

#: How long a connection may sit between two requests before its
#: handler thread (and that thread's store connection) is given up.
IDLE_SECONDS = 30.0

#: Largest request body read; a longer one is refused unread (413).
MAX_BODY_BYTES = 64 * 1024


def _without_log(record: Dict[str, Any]) -> Dict[str, Any]:
    """A job record as served: its event log is paged by ``/events``."""
    record.pop("events", None)
    return record


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the service bound on the server object.

    One handler, its thread and the store connection that thread opens
    serve one client connection, request after request, until the client
    closes it or leaves it idle for :data:`IDLE_SECONDS`."""

    server_version = "repro-experiment-service/1.0"
    protocol_version = "HTTP/1.1"
    timeout = IDLE_SECONDS
    # A response leaves as one segment: headers and body are buffered
    # and flushed together, on a socket that does not wait for the ACK
    # of one write before sending the next (Nagle against the client's
    # delayed ACK cost 40 ms per kept-alive request).
    disable_nagle_algorithm = True
    wbufsize = -1

    # The bound service/store, set by make_server().
    service: ExperimentService = None  # type: ignore[assignment]
    #: Whether this request declared a body that nothing has read yet.
    _body_unread = False

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def finish(self) -> None:
        # The server runs one thread per connection and this is its last
        # act: hand back what the store opened for it (a SQLite
        # connection), or every connection served leaves one behind.
        try:
            super().finish()
        finally:
            self.service.store.backend.release_thread()

    # -- plumbing -----------------------------------------------------------
    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def end_headers(self) -> None:
        if self._body_unread:
            # What the client declared is still on the socket, where the
            # next request would be parsed out of it.
            self.send_header("Connection", "close")
        super().end_headers()

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = (indented_json(payload, sort_keys=True) + "\n"
                ).encode("utf-8")
        self._send(status, body, "application/json; charset=utf-8")

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def send_error(self, code, message=None, explain=None):
        # The stdlib's own refusals (an unsupported method, a request
        # line it cannot parse) as JSON too; it closes after each.
        self._body_unread = True
        self._error(code, message or HTTPStatus(code).phrase)

    def _query(self) -> Dict[str, str]:
        parsed = parse_qs(urlsplit(self.path).query)
        return {key: values[-1] for key, values in parsed.items()}

    def _read_body(self) -> Optional[Dict[str, Any]]:
        """The request's JSON object; None once a 4xx has said why not."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            return self._error(
                400, "Content-Length must be a non-negative integer")
        if length > MAX_BODY_BYTES:
            return self._error(
                413, f"body of {length} bytes; at most {MAX_BODY_BYTES}")
        raw = self.rfile.read(length)
        self._body_unread = False
        try:
            payload = json.loads(raw.decode("utf-8") or "{}")
        except (UnicodeDecodeError, ValueError):
            payload = None
        if not isinstance(payload, dict):
            return self._error(400, "body must be a JSON object")
        return payload

    # -- dispatch -----------------------------------------------------------
    def _dispatch(self) -> None:
        self._body_unread = ("Content-Length" in self.headers
                             or "Transfer-Encoding" in self.headers)
        route = self._route_post if self.command == "POST" \
            else self._route_get
        try:
            route(urlsplit(self.path).path)
        except ConnectionError:
            raise  # client went away mid-response; nothing to salvage
        except Exception as error:  # surface, don't kill the thread
            self._error(500, f"{type(error).__name__}: {error}")

    do_GET = do_POST = _dispatch  # noqa: N815 - stdlib naming

    def _route_get(self, path: str) -> None:
        if path in ("/", "/book", "/book.html"):
            return self._get_book(fmt="html")
        if path == "/book.md":
            return self._get_book(fmt="md")
        if path == "/healthz":
            return self._send_json(200, {"status": "ok"})
        if path == "/api/sweeps":
            return self._get_sweeps()
        if path == "/api/jobs":
            return self._send_json(200, {"jobs": [
                _without_log(record)
                for record in self.service.store.load_jobs()]})
        match = _JOB_ROUTE.match(path)
        if match is not None:
            if match.group("tail"):
                return self._get_events(match.group("job"))
            return self._get_job(match.group("job"))
        match = _SWEEP_ROUTE.match(path)
        if match is not None:
            return self._get_sweep_data(match.group("name"),
                                        match.group("tail"))
        self._error(404, f"no route for {path}")

    def _route_post(self, path: str) -> None:
        if path != "/api/sweeps":
            return self._error(404, f"no route for {path}")
        payload = self._read_body()
        if payload is None:
            return
        unknown = sorted(set(payload) - {"sweep", "network", "topology"})
        if unknown:
            return self._error(400, f"unknown body key(s) {unknown}")
        overrides = [payload.get(key) for key in ("network", "topology")]
        if not (isinstance(payload.get("sweep"), str)
                and all(value is None or isinstance(value, str)
                        for value in overrides)):
            return self._error(
                400, 'body must be {"sweep": name, "network"?: name, '
                     '"topology"?: name}')
        try:
            record = self.service.submit_job(payload["sweep"], *overrides)
        except ConfigurationError as error:
            return self._error(400, str(error))
        self._send_json(202, {"job": record["id"], "record": record})

    # -- handlers -----------------------------------------------------------
    def _get_sweeps(self) -> None:
        self._send_json(200, {
            "available": self.service.available_sweeps(),
            "recorded": self.service.store.sweep_names(),
        })

    def _get_job(self, job_id: str) -> None:
        record = self.service.store.load_job(job_id)
        if record is None:
            return self._error(404, f"unknown job {job_id!r}")
        self._send_json(200, _without_log(record))

    def _get_events(self, job_id: str) -> None:
        query = self._query()
        try:
            since = int(query.get("since", "0"))
            timeout = min(float(query.get("timeout", "0")),
                          MAX_POLL_SECONDS)
        except ValueError:
            since = -1
        if since < 0:
            return self._error(
                400, "since/timeout must be numbers, since not negative")
        record, held = self.service.poll(
            job_id, since=since, timeout=timeout if timeout > 0 else None)
        if record is None:
            return self._error(404, f"unknown job {job_id!r}")
        if not held and record["state"] in (JOB_QUEUED, JOB_RUNNING):
            return self._error(
                409, f"job {job_id!r} is {record['state']} but no worker "
                     f"here holds it; resubmit (recorded cells replay)")
        events = record.pop("events", [])[since:]
        self._send_json(200, {"job": record, "events": events,
                              "next": since + len(events)})

    def _get_sweep_data(self, name: str, tail: str) -> None:
        store = self.service.store
        record = store.load_sweep(name)
        if record is None:
            return self._error(404, f"no recorded sweep {name!r}")
        aligned = store.sweep_rows_aligned(name, record=record)
        rows = [row for row in aligned if row is not None]
        if tail == "/rows":
            return self._send_json(200, {
                "sweep": name, "complete": len(rows) == len(aligned),
                "rows": rows})
        if tail == "/artifact.json":
            body = sweep_json_text(name, rows).encode("utf-8")
            return self._send(200, body,
                              "application/json; charset=utf-8")
        body = sweep_csv_text(rows).encode("utf-8")
        self._send(200, body, "text/csv; charset=utf-8")

    def _get_book(self, fmt: str) -> None:
        document, _ = render_book(self.service.store, fmt=fmt,
                                  live_refresh=(BOOK_REFRESH_SECONDS
                                                if fmt == "html" else None))
        kind = "html" if fmt == "html" else "markdown"
        self._send(200, document.encode("utf-8"),
                   f"text/{kind}; charset=utf-8")


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def handle_error(self, request, client_address) -> None:
        # A buffered response fails where it is flushed, outside any
        # handler: a client that went away is not worth a traceback.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


def make_server(store, host: str = "127.0.0.1", port: int = 8765,
                workers: int = 2, verbose: bool = False,
                ) -> Tuple[ThreadingHTTPServer, ExperimentService]:
    """Build the threaded HTTP server and its worker-pool service.

    Returns ``(server, service)`` without starting either loop —
    callers (the CLI, tests) drive ``serve_forever`` themselves and must
    ``service.shutdown()`` after ``server.shutdown()``.  ``port=0``
    binds an ephemeral port (read it back from
    ``server.server_address``).  The port is bound first, so a server
    that cannot bind never re-queues the store's unsettled jobs.
    """
    handler = type("BoundServiceHandler", (ServiceHandler,), {})
    server = _Server((host, port), handler)
    try:
        handler.service = ExperimentService(store, workers=workers)
    except BaseException:
        server.server_close()
        raise
    server.verbose = verbose
    return server, handler.service


def serve(store, host: str = "127.0.0.1", port: int = 8765,
          workers: int = 2, verbose: bool = True) -> None:
    """Blocking entry point behind ``python -m repro serve``."""
    server, service = make_server(store, host=host, port=port,
                                  workers=workers, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(f"experiment service on http://{bound_host}:{bound_port} "
          f"(store {store.root}, backend {store.backend.kind}, "
          f"{workers} workers) — Ctrl-C to stop", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.shutdown()
