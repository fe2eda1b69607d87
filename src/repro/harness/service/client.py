"""A small ``http.client`` client for the experiment service's HTTP API.

Backs ``python -m repro submit`` / ``python -m repro status`` and the
test/CI harnesses; no third-party dependencies.  Every method maps to
one route of :mod:`repro.harness.service.app`; errors surface as
:class:`ServiceError` carrying the HTTP status and the server's JSON
``error`` message.  A connection lives from a thread's first request
until :meth:`ServiceClient.close`; one the server dropped in between
(it gives up an idle one) is reopened once for a ``GET``, while a
``POST`` that may have arrived is an error and never a second job.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional
from urllib.parse import urlsplit

#: States in which a job will never change again.
TERMINAL_STATES = ("done", "failed")


class ServiceError(RuntimeError):
    """An HTTP-level or API-level failure talking to the service."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


class ServiceClient:
    """Client for one experiment service base URL.

    Each thread that calls it keeps one connection open from its first
    request on, so one client is safe to share across threads;
    :meth:`close` (or leaving the ``with`` block) closes them all."""

    def __init__(self, base_url: str = "http://127.0.0.1:8765",
                 timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._connections: Dict[threading.Thread,
                                http.client.HTTPConnection] = {}
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later call reopens one."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------
    def _connection(self, url) -> http.client.HTTPConnection:
        """The calling thread's connection, opened on first use."""
        me = threading.current_thread()
        connection = self._connections.get(me)
        if connection is None:
            connection = (http.client.HTTPSConnection
                          if url.scheme == "https"
                          else http.client.HTTPConnection)(url.netloc)
            with self._lock:
                # A thread that has ended left its connection behind.
                for thread in [thread for thread in self._connections
                               if not thread.is_alive()]:
                    self._connections.pop(thread).close()
                self._connections[me] = connection
        return connection

    def _request(self, path: str, payload: Optional[Dict[str, Any]] = None,
                 timeout: Optional[float] = None) -> Any:
        url = urlsplit(self.base_url + path)
        method, data, headers = "GET", None, {"Accept": "application/json"}
        if payload is not None:
            method, data = "POST", json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection = self._connection(url)
        reused = connection.sock is not None

        def exchange():
            connection.timeout = timeout or self.timeout
            if connection.sock is not None:
                connection.sock.settimeout(connection.timeout)
            connection.request(
                method, url.path + (url.query and "?" + url.query),
                body=data, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()

        try:
            try:
                status, body = exchange()
            except ConnectionError:
                # A kept connection the server has since dropped is
                # reopened, once, for a request that is safe to repeat;
                # a POST that may have arrived is never sent again.
                connection.close()
                if not reused or method != "GET":
                    raise
                status, body = exchange()
        except (http.client.HTTPException, OSError) as error:
            connection.close()
            raise ServiceError(f"{url.geturl()}: {error}") from None
        if status >= 400:
            detail = ""
            try:
                detail = json.loads(body.decode("utf-8")).get("error", "")
            except (ValueError, AttributeError, UnicodeDecodeError):
                pass
            raise ServiceError(
                f"{url.geturl()}: HTTP {status}"
                + (f" — {detail}" if detail else ""), status=status)
        return body

    def _request_json(self, path: str,
                      payload: Optional[Dict[str, Any]] = None,
                      timeout: Optional[float] = None) -> Dict[str, Any]:
        body = self._request(path, payload=payload, timeout=timeout)
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise ServiceError(
                f"{self.base_url}{path}: non-JSON response") from None
        if not isinstance(decoded, dict):
            raise ServiceError(
                f"{self.base_url}{path}: unexpected response shape")
        return decoded

    # -- the API ------------------------------------------------------------
    def health(self) -> bool:
        return self._request_json("/healthz").get("status") == "ok"

    def sweeps(self) -> Dict[str, Any]:
        """``{"available": {name: description}, "recorded": [names]}``."""
        return self._request_json("/api/sweeps")

    def submit(self, sweep: str, network: Optional[str] = None,
               topology: Optional[str] = None) -> str:
        """Submit a sweep; returns the new job id."""
        return self._request_json("/api/sweeps", payload={
            "sweep": sweep, "network": network, "topology": topology})["job"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request_json(f"/api/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return self._request_json("/api/jobs")["jobs"]

    def events(self, job_id: str, since: int = 0,
               poll_timeout: float = 25.0) -> Dict[str, Any]:
        """One long-poll round: blocks server-side until new events (or
        ``poll_timeout``); returns ``{"job", "events", "next"}``."""
        return self._request_json(
            f"/api/jobs/{job_id}/events?since={since}"
            f"&timeout={poll_timeout}",
            timeout=poll_timeout + self.timeout)

    def wait(self, job_id: str,
             on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
             poll_timeout: float = 25.0,
             max_wait: Optional[float] = None) -> Dict[str, Any]:
        """Long-poll until the job settles; returns the final record.

        ``on_event`` sees each per-cell progress event as it arrives
        (the log is durable: a restarted service's job shows it all).
        ``max_wait`` bounds the total wait (raises :class:`ServiceError`
        on expiry — the job keeps running server-side).  A job no worker
        holds (a store failure let it go) raises at once, status 409.
        """
        deadline = None if max_wait is None else time.monotonic() + max_wait
        seen = 0
        while True:
            batch = self.events(job_id, since=seen,
                                poll_timeout=poll_timeout)
            for event in batch["events"]:
                if on_event is not None:
                    on_event(event)
            seen = batch["next"]
            record = batch["job"]
            if record and record.get("state") in TERMINAL_STATES:
                return record
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {record.get('state')!r} after "
                    f"{max_wait}s (it keeps running server-side)")

    def sweep_rows(self, name: str) -> Dict[str, Any]:
        """``{"sweep", "complete", "rows"}`` for one recorded sweep."""
        return self._request_json(f"/api/sweeps/{name}/rows")

    def artifact(self, name: str, fmt: str = "json") -> bytes:
        """The sweep's artifact bytes (``fmt`` = ``json`` | ``csv``) —
        byte-identical to a direct ``run_sweep`` export of the same
        cells."""
        if fmt not in ("json", "csv"):
            raise ValueError(f"fmt must be 'json' or 'csv', got {fmt!r}")
        return self._request(f"/api/sweeps/{name}/artifact.{fmt}")

    def book(self, fmt: str = "html") -> bytes:
        """The live results book (``fmt`` = ``html`` | ``md``)."""
        if fmt not in ("html", "md"):
            raise ValueError(f"fmt must be 'html' or 'md', got {fmt!r}")
        return self._request("/" if fmt == "html" else "/book.md")
