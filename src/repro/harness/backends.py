"""Pluggable storage backends for the experiment store.

:class:`~repro.harness.store.ExperimentStore` owns the *semantics* of
the store — the content-addressed fingerprint scheme, record schemas,
replay rules — while a :class:`StoreBackend` owns the *bytes*: where a
record lives and how it is read and written.  Two backends ship:

- :class:`JsonTreeBackend` — the original one-JSON-file-per-record
  layout (``cells/<fp[:2]>/<fp>.json``, ``sweeps/<name>.json``,
  ``jobs/<id>.json``).  Human-readable, diffable, atomic via
  temp-file + :func:`os.replace`.  The right choice for a single
  invocation writing a store it owns.
- :class:`SQLiteBackend` — one SQLite database file in WAL mode holding
  ``cells``, ``sweeps``, and ``jobs`` tables.  Safe for many concurrent
  readers and writers (threads *and* processes): WAL lets readers
  proceed under a writer, ``busy_timeout`` serializes competing writers,
  and every record write is one transaction.  The backend the
  experiment service (``python -m repro serve``) runs on.

Records cross the backend boundary as plain JSON-able dicts, and the
SQLite backend stores them as the canonical ``json.dumps`` text — so a
record round-trips *byte-identically* through either backend, and the
same cells recorded through both produce byte-identical sweep rows
(pinned by the differential tests in ``tests/test_backends.py``).

Backend selection is path-based (:func:`backend_for_path`): a path with
a ``.sqlite``/``.sqlite3``/``.db`` suffix — or an existing SQLite file —
selects :class:`SQLiteBackend`; anything else is a JSON tree directory.
``python -m repro sweep NAME --store results.sqlite`` therefore records
through SQLite with no new flags.
"""

from __future__ import annotations

import json
import os
import sqlite3
import tempfile
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Path suffixes that select the SQLite backend.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: The 16-byte header every SQLite database file starts with.
_SQLITE_MAGIC = b"SQLite format 3\x00"


def _dumps(record: Dict[str, Any]) -> str:
    """The canonical record encoding shared by both backends (the JSON
    tree writes exactly this text; SQLite stores it as the row value),
    so records survive a backend migration byte-identically."""
    return json.dumps(record, indent=2) + "\n"


#: The record namespaces and what each one's key is called: the SQLite
#: tables with their key columns, and the JSON tree's directories.
NAMESPACES = {"cells": "fingerprint", "sweeps": "name", "jobs": "id"}


def _decode(text: Optional[str]) -> Optional[Dict[str, Any]]:
    """Parse one stored record; missing, truncated, corrupted or
    non-object text reads as None — the same treat-as-miss philosophy as
    a schema mismatch (re-record rather than crash a resume)."""
    if text is None:
        return None
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


class StoreBackend:
    """Abstract record storage: three namespaces of JSON documents.

    ``cells`` are keyed by fingerprint, ``sweeps`` and ``jobs`` by name
    (:data:`NAMESPACES`).  A backend is four primitives — ``get``,
    ``put``, ``keys``, ``update`` — which must make single-record writes
    atomic (a reader never observes a half-written record) and tolerate
    concurrent writers racing on one key (last complete write wins; for
    cell records the racers carry identical bytes, so either order is
    fine).  The store calls the per-namespace names below, never the
    primitives, so a wrapper that overrides those ten is a whole backend.
    """

    #: Human-readable backend name (provenance lines, CLI output).
    kind: str = "abstract"

    # -- primitives ---------------------------------------------------------
    def get(self, namespace: str, key: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def put(self, namespace: str, key: str, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def keys(self, namespace: str) -> List[str]:
        """Every key of ``namespace``, sorted."""
        raise NotImplementedError

    def update(self, namespace: str, key: str,
               mutate: Callable[[Dict[str, Any]], Dict[str, Any]],
               ) -> Optional[Dict[str, Any]]:
        """Atomic read-modify-write of one record.

        ``mutate`` receives the current record (never None — a missing
        key returns None without calling it) and returns the replacement;
        concurrent updaters serialize, so counter increments from many
        workers never lose updates.  Returns the stored result.
        """
        raise NotImplementedError

    # -- cells --------------------------------------------------------------
    def load_cell(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return self.get("cells", fingerprint)

    def save_cell(self, fingerprint: str, record: Dict[str, Any]) -> None:
        self.put("cells", fingerprint, record)

    def cell_count(self) -> int:
        return len(self.keys("cells"))

    # -- sweeps -------------------------------------------------------------
    def load_sweep(self, name: str) -> Optional[Dict[str, Any]]:
        return self.get("sweeps", name)

    def save_sweep(self, name: str, record: Dict[str, Any]) -> None:
        self.put("sweeps", name, record)

    def sweep_names(self) -> List[str]:
        return self.keys("sweeps")

    # -- jobs ---------------------------------------------------------------
    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self.get("jobs", job_id)

    def save_job(self, job_id: str, record: Dict[str, Any]) -> None:
        self.put("jobs", job_id, record)

    def update_job(self, job_id: str,
                   mutate: Callable[[Dict[str, Any]], Dict[str, Any]],
                   ) -> Optional[Dict[str, Any]]:
        return self.update("jobs", job_id, mutate)

    def job_ids(self) -> List[str]:
        return self.keys("jobs")

    def load_jobs(self) -> List[Dict[str, Any]]:
        """Every readable job record, newest first (ids sort by their
        timestamp prefix).  Reference form; SQLite answers in one pass."""
        records = (self.load_job(job_id)
                   for job_id in reversed(self.job_ids()))
        return [record for record in records if record is not None]

    def close(self) -> None:
        """Release backend resources (connections); safe to call twice."""

    def release_thread(self) -> None:
        """Release whatever the backend holds for the *calling* thread.
        Short-lived threads (one per HTTP request) call this as their
        last act; long-lived ones never need to."""


class JsonTreeBackend(StoreBackend):
    """The original human-readable layout: one JSON file per record.

    Atomicity comes from a same-directory ``mkstemp`` + ``os.replace``
    (a unique temp name, so two concurrent writers of one key cannot
    replace each other's just-renamed file away).  ``update`` is
    serialized by an in-process lock only — good for the single-process
    service and CLI; cross-process job mutation is the SQLite backend's
    job.
    """

    kind = "json"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._update_lock = threading.Lock()

    def path(self, namespace: str, key: str) -> Path:
        """The file of one record; cells fan out over ``<fp[:2]>/``."""
        shard = key[:2] if namespace == "cells" else ""
        return self.root / namespace / shard / f"{key}.json"

    def get(self, namespace, key):
        try:
            text = self.path(namespace, key).read_text(encoding="utf-8")
        except (OSError, ValueError):  # no such file, or not UTF-8
            return None
        return _decode(text)

    def put(self, namespace, key, record):
        path = self.path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=path.name + ".", suffix=".tmp")
        replaced = False
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(_dumps(record))
            os.replace(tmp, path)
            replaced = True
        finally:
            if not replaced:
                # Serialization/ENOSPC failure: do not litter the
                # content-addressed tree with orphaned temp files.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def keys(self, namespace):
        pattern = "*/*.json" if namespace == "cells" else "*.json"
        return sorted(
            path.stem for path in (self.root / namespace).glob(pattern))

    def update(self, namespace, key, mutate):
        with self._update_lock:
            record = self.get(namespace, key)
            if record is not None:
                record = mutate(record)
                self.put(namespace, key, record)
            return record


class SQLiteBackend(StoreBackend):
    """One WAL-mode SQLite file holding cells, sweeps, and jobs.

    Concurrency model:

    - **connections** are per-thread (a :class:`threading.local`), so
      one backend object is safe to share across the service's worker
      threads; separate processes open their own connections against
      the same file.  A connection lives until :meth:`close`, or until
      its thread hands it back with :meth:`release_thread` (the HTTP
      server's per-request threads do, so a long-running service holds
      one connection per *live* thread, not one per request served).
    - **WAL** journal mode lets any number of readers proceed while a
      writer commits; ``busy_timeout`` makes competing writers queue
      instead of erroring.
    - **writes** are one ``INSERT OR REPLACE`` per record inside an
      implicit transaction — a reader sees the old record or the new
      one, never a torn one.
    - **updates** run read-modify-write inside ``BEGIN IMMEDIATE``,
      taking the write lock before the read so concurrent counter
      increments from many workers serialize losslessly.

    Record values are the canonical JSON text (:func:`_dumps`), so the
    bytes are identical to the JSON tree's files and migration between
    backends is a plain copy of values.
    """

    kind = "sqlite"

    def __init__(self, path, timeout: float = 30.0) -> None:
        self.root = Path(path)
        self.timeout = timeout
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._connections_lock = threading.Lock()
        # What the file remembers is set once, here and eagerly, so that
        # concurrent first users (and read-only consumers like `repro
        # report`) never race DDL and a later connection pays for none.
        self.root.parent.mkdir(parents=True, exist_ok=True)
        connection = self._connection()
        connection.execute("PRAGMA journal_mode=WAL")
        for table, column in NAMESPACES.items():
            connection.execute(
                f"CREATE TABLE IF NOT EXISTS {table} ("
                f" {column} TEXT PRIMARY KEY, record TEXT NOT NULL)")
        connection.commit()

    def _connection(self) -> sqlite3.Connection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            # `timeout` is the busy time-out: competing writers queue.
            connection = sqlite3.connect(self.root, timeout=self.timeout)
            connection.execute("PRAGMA synchronous=NORMAL")
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def get(self, namespace, key):
        row = self._connection().execute(
            f"SELECT record FROM {namespace} "
            f"WHERE {NAMESPACES[namespace]} = ?", (key,)).fetchone()
        return _decode(row[0]) if row is not None else None

    def _insert(self, namespace, key, record) -> None:
        self._connection().execute(
            f"INSERT OR REPLACE INTO {namespace} "
            f"({NAMESPACES[namespace]}, record) VALUES (?, ?)",
            (key, _dumps(record)))

    def put(self, namespace, key, record):
        with self._connection():
            self._insert(namespace, key, record)

    def keys(self, namespace):
        column = NAMESPACES[namespace]
        rows = self._connection().execute(
            f"SELECT {column} FROM {namespace} ORDER BY {column}").fetchall()
        return [row[0] for row in rows]

    def update(self, namespace, key, mutate):
        connection = self._connection()
        with connection:
            # BEGIN IMMEDIATE takes the write lock *before* the read, so
            # two workers incrementing one job's counters serialize
            # rather than both reading the same snapshot.
            connection.execute("BEGIN IMMEDIATE")
            record = self.get(namespace, key)
            if record is not None:
                record = mutate(record)
                self._insert(namespace, key, record)
            return record

    def load_jobs(self) -> List[Dict[str, Any]]:
        rows = self._connection().execute(
            "SELECT record FROM jobs ORDER BY id DESC").fetchall()
        records = (_decode(row[0]) for row in rows)
        return [record for record in records if record is not None]

    def release_thread(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            return
        del self._local.connection
        with self._connections_lock:
            if connection in self._connections:  # else close() took it
                self._connections.remove(connection)
        connection.close()

    def close(self) -> None:
        with self._connections_lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            try:
                connection.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()


def is_sqlite_path(path) -> bool:
    """Whether ``path`` should select the SQLite backend: a recognized
    suffix, or an existing file that starts with the SQLite magic (so a
    DB created under any name keeps reading through the right backend)."""
    path = Path(path)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return True
    if path.is_file():
        try:
            with path.open("rb") as handle:
                return handle.read(len(_SQLITE_MAGIC)) == _SQLITE_MAGIC
        except OSError:
            return False
    return False


def backend_for_path(root, backend: Optional[str] = None) -> StoreBackend:
    """Resolve a store path (plus an optional explicit ``"json"`` /
    ``"sqlite"`` override) into a backend instance."""
    if backend is None:
        backend = "sqlite" if is_sqlite_path(root) else "json"
    if backend == "json":
        return JsonTreeBackend(root)
    if backend == "sqlite":
        return SQLiteBackend(root)
    raise ValueError(
        f"unknown store backend {backend!r} (have: json, sqlite)")
