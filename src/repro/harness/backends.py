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


class StoreBackend:
    """Abstract record storage: three namespaces of JSON documents.

    ``cells`` are keyed by fingerprint, ``sweeps`` and ``jobs`` by name.
    Implementations must make single-record writes atomic (a reader
    never observes a half-written record) and tolerate concurrent
    writers racing on one key (last complete write wins; for cell
    records the racers carry identical bytes, so either order is fine).
    """

    #: Human-readable backend name (provenance lines, CLI output).
    kind: str = "abstract"

    # -- cells --------------------------------------------------------------
    def load_cell(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def save_cell(self, fingerprint: str, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def cell_count(self) -> int:
        raise NotImplementedError

    # -- sweeps -------------------------------------------------------------
    def load_sweep(self, name: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def save_sweep(self, name: str, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def sweep_names(self) -> List[str]:
        raise NotImplementedError

    # -- jobs ---------------------------------------------------------------
    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def save_job(self, job_id: str, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def update_job(self, job_id: str,
                   mutate: Callable[[Dict[str, Any]], Dict[str, Any]],
                   ) -> Optional[Dict[str, Any]]:
        """Atomic read-modify-write of one job record.

        ``mutate`` receives the current record (never None — a missing
        job returns None without calling it) and returns the replacement;
        concurrent updaters serialize, so counter increments from many
        workers never lose updates.  Returns the stored result.
        """
        raise NotImplementedError

    def job_ids(self) -> List[str]:
        raise NotImplementedError

    def load_jobs(self) -> List[Dict[str, Any]]:
        """Every readable job record, newest first (ids sort by their
        timestamp prefix).  Reference form; backends answer in one pass."""
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
    replace each other's just-renamed file away).  ``update_job`` is
    serialized by an in-process lock only — good for the single-process
    service and CLI; cross-process job mutation is the SQLite backend's
    job.
    """

    kind = "json"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self._job_lock = threading.Lock()

    # -- shared file plumbing ----------------------------------------------
    @staticmethod
    def _write_json(path: Path, record: Dict[str, Any]) -> None:
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

    @staticmethod
    def _read_json(path: Path) -> Optional[Dict[str, Any]]:
        """Parse one record file; a missing/truncated/corrupted/non-object
        file reads as None — the same treat-as-miss philosophy as a schema
        mismatch (re-record rather than crash a resume)."""
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def _cell_path(self, fingerprint: str) -> Path:
        return self.root / "cells" / fingerprint[:2] / f"{fingerprint}.json"

    def _sweep_path(self, name: str) -> Path:
        return self.root / "sweeps" / f"{name}.json"

    def _job_path(self, job_id: str) -> Path:
        return self.root / "jobs" / f"{job_id}.json"

    # -- cells --------------------------------------------------------------
    def load_cell(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return self._read_json(self._cell_path(fingerprint))

    def save_cell(self, fingerprint: str, record: Dict[str, Any]) -> None:
        self._write_json(self._cell_path(fingerprint), record)

    def cell_count(self) -> int:
        return sum(1 for _ in (self.root / "cells").glob("*/*.json"))

    # -- sweeps -------------------------------------------------------------
    def load_sweep(self, name: str) -> Optional[Dict[str, Any]]:
        return self._read_json(self._sweep_path(name))

    def save_sweep(self, name: str, record: Dict[str, Any]) -> None:
        self._write_json(self._sweep_path(name), record)

    def sweep_names(self) -> List[str]:
        return sorted(
            path.stem for path in (self.root / "sweeps").glob("*.json"))

    # -- jobs ---------------------------------------------------------------
    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self._read_json(self._job_path(job_id))

    def save_job(self, job_id: str, record: Dict[str, Any]) -> None:
        self._write_json(self._job_path(job_id), record)

    def update_job(self, job_id, mutate):
        with self._job_lock:
            record = self.load_job(job_id)
            if record is None:
                return None
            record = mutate(record)
            self.save_job(job_id, record)
            return record

    def job_ids(self) -> List[str]:
        return sorted(
            path.stem for path in (self.root / "jobs").glob("*.json"))

    def load_jobs(self) -> List[Dict[str, Any]]:
        paths = sorted((self.root / "jobs").glob("*.json"),
                       key=lambda path: path.stem, reverse=True)
        records = map(self._read_json, paths)
        return [record for record in records if record is not None]


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
    - **job updates** run read-modify-write inside ``BEGIN IMMEDIATE``,
      taking the write lock before the read so concurrent counter
      increments from many workers serialize losslessly.

    Record values are the canonical JSON text (:func:`_dumps`), so the
    bytes are identical to the JSON tree's files and migration between
    backends is a plain copy of values.
    """

    kind = "sqlite"

    _SCHEMA_SQL = (
        "CREATE TABLE IF NOT EXISTS cells ("
        " fingerprint TEXT PRIMARY KEY, record TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS sweeps ("
        " name TEXT PRIMARY KEY, record TEXT NOT NULL)",
        "CREATE TABLE IF NOT EXISTS jobs ("
        " id TEXT PRIMARY KEY, record TEXT NOT NULL)",
    )

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
        for statement in self._SCHEMA_SQL:
            connection.execute(statement)
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

    @staticmethod
    def _decode(text: Optional[str]) -> Optional[Dict[str, Any]]:
        if text is None:
            return None
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        return payload if isinstance(payload, dict) else None

    def _get(self, table: str, key_column: str, key: str) -> Optional[str]:
        row = self._connection().execute(
            f"SELECT record FROM {table} WHERE {key_column} = ?",
            (key,)).fetchone()
        return row[0] if row is not None else None

    def _put(self, table: str, key_column: str, key: str,
             record: Dict[str, Any]) -> None:
        connection = self._connection()
        with connection:
            connection.execute(
                f"INSERT OR REPLACE INTO {table} ({key_column}, record) "
                "VALUES (?, ?)", (key, _dumps(record)))

    # -- cells --------------------------------------------------------------
    def load_cell(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        return self._decode(self._get("cells", "fingerprint", fingerprint))

    def save_cell(self, fingerprint: str, record: Dict[str, Any]) -> None:
        self._put("cells", "fingerprint", fingerprint, record)

    def cell_count(self) -> int:
        row = self._connection().execute(
            "SELECT COUNT(*) FROM cells").fetchone()
        return int(row[0])

    # -- sweeps -------------------------------------------------------------
    def load_sweep(self, name: str) -> Optional[Dict[str, Any]]:
        return self._decode(self._get("sweeps", "name", name))

    def save_sweep(self, name: str, record: Dict[str, Any]) -> None:
        self._put("sweeps", "name", name, record)

    def sweep_names(self) -> List[str]:
        rows = self._connection().execute(
            "SELECT name FROM sweeps ORDER BY name").fetchall()
        return [row[0] for row in rows]

    # -- jobs ---------------------------------------------------------------
    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        return self._decode(self._get("jobs", "id", job_id))

    def save_job(self, job_id: str, record: Dict[str, Any]) -> None:
        self._put("jobs", "id", job_id, record)

    def update_job(self, job_id, mutate):
        connection = self._connection()
        with connection:
            # BEGIN IMMEDIATE takes the write lock *before* the read, so
            # two workers incrementing one job's counters serialize
            # rather than both reading the same snapshot.
            connection.execute("BEGIN IMMEDIATE")
            row = connection.execute(
                "SELECT record FROM jobs WHERE id = ?", (job_id,)).fetchone()
            record = self._decode(row[0]) if row is not None else None
            if record is None:
                return None
            record = mutate(record)
            connection.execute(
                "INSERT OR REPLACE INTO jobs (id, record) VALUES (?, ?)",
                (job_id, _dumps(record)))
            return record

    def job_ids(self) -> List[str]:
        rows = self._connection().execute(
            "SELECT id FROM jobs ORDER BY id").fetchall()
        return [row[0] for row in rows]

    def load_jobs(self) -> List[Dict[str, Any]]:
        rows = self._connection().execute(
            "SELECT record FROM jobs ORDER BY id DESC").fetchall()
        records = (self._decode(row[0]) for row in rows)
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
