"""Tests for the store backend layer (harness/backends.py): backend
selection, the four-primitive contract on every backend × namespace,
JSON-vs-SQLite byte-identity, SQLite safety under concurrent threads and
processes sharing one database file, and that a wrapper forwarding only
the ten public names (``bench/proxies.TracedBackend``) stays a backend."""

import collections
import json
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.backends import (
    NAMESPACES,
    SQLITE_SUFFIXES,
    JsonTreeBackend,
    SQLiteBackend,
    StoreBackend,
    backend_for_path,
    indented_json,
    is_sqlite_path,
)
from repro.harness.scenarios import run_sweep
from repro.harness.service import ExperimentService
from repro.harness.store import ExperimentStore

from tests.test_store import tiny_sweep

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestBackendSelection:
    def test_suffix_selects_sqlite(self, tmp_path):
        for suffix in SQLITE_SUFFIXES:
            assert is_sqlite_path(tmp_path / f"store{suffix}")
        assert not is_sqlite_path(tmp_path / "store-dir")

    def test_magic_header_selects_sqlite_without_suffix(self, tmp_path):
        # A pre-existing database keeps working even renamed to a
        # suffix-less path: detection falls back to the file header.
        db = tmp_path / "corpus.sqlite"
        SQLiteBackend(db).close()
        renamed = tmp_path / "corpus"
        db.rename(renamed)
        assert is_sqlite_path(renamed)
        assert backend_for_path(renamed).kind == "sqlite"

    def test_explicit_backend_overrides_suffix(self, tmp_path):
        backend = backend_for_path(tmp_path / "plain-dir", backend="sqlite")
        assert backend.kind == "sqlite"
        backend.close()

    def test_store_accepts_backend_instance(self, tmp_path):
        backend = JsonTreeBackend(tmp_path / "tree")
        store = ExperimentStore(tmp_path / "tree", backend=backend)
        assert store.backend is backend

    def test_default_is_json_tree(self, tmp_path):
        store = ExperimentStore(tmp_path / "tree")
        assert store.backend.kind == "json"


class TestJsonSqliteDifferential:
    def test_same_cells_in_byte_identical_artifacts_out(self, tmp_path):
        sweep = tiny_sweep()
        json_store = ExperimentStore(tmp_path / "tree")
        sqlite_store = ExperimentStore(tmp_path / "corpus.sqlite")
        from_json = run_sweep(sweep, store=json_store)
        from_sqlite = run_sweep(sweep, store=sqlite_store)
        assert from_json.rows() == from_sqlite.rows()
        for suffix, writer in (("json", "to_json"), ("csv", "to_csv")):
            a = getattr(from_json, writer)(tmp_path / f"a.{suffix}")
            b = getattr(from_sqlite, writer)(tmp_path / f"b.{suffix}")
            assert a.read_bytes() == b.read_bytes()

    def test_stored_record_text_is_backend_independent(self, tmp_path):
        # Both backends persist the same canonical JSON text, so a
        # corpus can migrate between them by copying records verbatim.
        sweep = tiny_sweep()
        json_store = ExperimentStore(tmp_path / "tree")
        sqlite_store = ExperimentStore(tmp_path / "corpus.sqlite")
        result = run_sweep(sweep, store=json_store)
        run_sweep(sweep, store=sqlite_store)
        for cell in result.cells:
            file_text = (json_store.backend.path("cells", cell.fingerprint)
                         .read_text())
            with sqlite3.connect(tmp_path / "corpus.sqlite") as conn:
                (db_text,) = conn.execute(
                    "SELECT record FROM cells WHERE fingerprint = ?",
                    (cell.fingerprint,)).fetchone()
            assert file_text == db_text

    def test_sqlite_warm_replay_is_byte_identical(self, tmp_path):
        sweep = tiny_sweep()
        store = ExperimentStore(tmp_path / "corpus.sqlite")
        cold = run_sweep(sweep, store=store)
        warm = run_sweep(sweep, store=store)
        assert warm.store_stats["computed"] == 0
        assert warm.store_stats["replayed"] == len(warm.cells)
        cold_path = cold.to_json(tmp_path / "cold.json")
        warm_path = warm.to_json(tmp_path / "warm.json")
        assert cold_path.read_bytes() == warm_path.read_bytes()

    def test_corrupted_sqlite_record_is_a_miss(self, tmp_path):
        store = ExperimentStore(tmp_path / "corpus.sqlite")
        result = run_sweep(tiny_sweep(), store=store)
        fingerprint = result.cells[0].fingerprint
        with sqlite3.connect(tmp_path / "corpus.sqlite") as conn:
            conn.execute("UPDATE cells SET record = ? WHERE fingerprint = ?",
                         ('{"schema": 1, "metr', fingerprint))
        assert store.load_record(fingerprint) is None
        rerun = run_sweep(tiny_sweep(), store=store)
        assert rerun.store_stats["computed"] == 1
        assert rerun.rows() == result.rows()


def _record(tag):
    return {"schema": 1, "tag": tag, "metrics": {"x": 1.5}}


class TestSqliteThreadConcurrency:
    def test_disjoint_writers_lose_nothing(self, tmp_path):
        backend = SQLiteBackend(tmp_path / "corpus.sqlite")
        errors = []

        def writer(worker):
            try:
                for index in range(25):
                    fingerprint = f"{worker:02d}-{index:04d}"
                    backend.save_cell(fingerprint, _record(fingerprint))
                    assert backend.load_cell(fingerprint) is not None
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(worker,))
                   for worker in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert backend.cell_count() == 8 * 25
        backend.close()

    def test_overlapping_writers_converge_uncorrupted(self, tmp_path):
        # Many threads racing to record the *same* cells (two services
        # computing an overlapping sweep) must leave every record
        # readable and equal to one writer's payload.
        backend = SQLiteBackend(tmp_path / "corpus.sqlite")
        fingerprints = [f"shared-{index:03d}" for index in range(10)]

        def writer():
            for fingerprint in fingerprints:
                backend.save_cell(fingerprint, _record(fingerprint))

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.cell_count() == len(fingerprints)
        for fingerprint in fingerprints:
            assert backend.load_cell(fingerprint) == _record(fingerprint)
        backend.close()


_PROCESS_WRITER = """
import json, sys
sys.path.insert(0, {src!r})
from repro.harness.backends import SQLiteBackend
backend = SQLiteBackend({db!r})
worker = int(sys.argv[1])
for index in range(20):
    fingerprint = f"proc-{{worker:02d}}-{{index:04d}}"
    backend.save_cell(fingerprint,
                      {{"schema": 1, "tag": fingerprint}})
for _ in range(40):
    backend.update_job("shared-job",
                       lambda record: (record.update(
                           computed=record["computed"] + 1) or record))
backend.close()
print("ok")
"""


class TestSqliteProcessConcurrency:
    def test_processes_share_one_database(self, tmp_path):
        db = str(tmp_path / "corpus.sqlite")
        setup = SQLiteBackend(db)
        setup.save_job("shared-job", {"computed": 0})
        setup.close()
        script = _PROCESS_WRITER.format(src=str(REPO_ROOT / "src"), db=db)
        procs = [subprocess.Popen(
                     [sys.executable, "-c", script, str(worker)],
                     stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                     text=True)
                 for worker in range(4)]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        check = SQLiteBackend(db)
        assert check.cell_count() == 4 * 20
        assert check.load_job("shared-job")["computed"] == 4 * 40
        check.close()


def _corrupt(backend, namespace, key):
    """Overwrite one stored record with bytes that are not a JSON object."""
    if isinstance(backend, JsonTreeBackend):
        backend.path(namespace, key).write_text('{"state": "que',
                                                encoding="utf-8")
    else:
        with sqlite3.connect(backend.root) as connection:
            connection.execute(
                f"UPDATE {namespace} SET record = ? "
                f"WHERE {NAMESPACES[namespace]} = ?", ('{"state": "que', key))


@pytest.fixture(params=["tree", "corpus.sqlite"])
def backend(request, tmp_path):
    backend = backend_for_path(tmp_path / request.param)
    yield backend
    backend.close()


@pytest.mark.parametrize("namespace", list(NAMESPACES))
class TestBackendContract:
    """The four primitives, on every backend and namespace alike."""

    KEYS = ["20260101T000000Z-0002", "ab-cd", "a", "20251231T235959Z-ffff"]

    def test_a_miss_reads_none(self, backend, namespace):
        assert backend.get(namespace, "absent") is None
        assert backend.keys(namespace) == []
        assert backend.update(namespace, "absent", lambda record: 1 / 0) \
            is None

    def test_round_trip_is_byte_identical(self, backend, namespace):
        record = {"schema": 1, "tag": "ü", "metrics": {"x": 1.5, "n": None},
                  "rows": [1, "two", {"three": 3.0}]}
        backend.put(namespace, "key", record)
        assert backend.get(namespace, "key") == record
        if isinstance(backend, JsonTreeBackend):
            text = backend.path(namespace, "key").read_text(encoding="utf-8")
        else:
            with sqlite3.connect(backend.root) as connection:
                (text,) = connection.execute(
                    f"SELECT record FROM {namespace}").fetchone()
        assert text == json.dumps(record, indent=2) + "\n"
        backend.put(namespace, "key", {"replaced": True})
        assert backend.get(namespace, "key") == {"replaced": True}

    def test_keys_are_sorted(self, backend, namespace):
        for key in self.KEYS:
            backend.put(namespace, key, _record(key))
        assert backend.keys(namespace) == sorted(self.KEYS)
        others = set(NAMESPACES) - {namespace}
        assert all(backend.keys(other) == [] for other in others)

    def test_a_corrupt_record_reads_as_a_miss(self, backend, namespace):
        backend.put(namespace, "key", _record("key"))
        backend.put(namespace, "list", _record("list"))
        _corrupt(backend, namespace, "key")
        assert backend.get(namespace, "key") is None
        assert backend.update(namespace, "key", lambda record: 1 / 0) is None
        assert "key" in backend.keys(namespace)
        backend.put(namespace, "key", _record("again"))
        assert backend.get(namespace, "key") == _record("again")

    def test_update_is_atomic(self, backend, namespace):
        # The read-modify-write under the service's progress counters:
        # concurrent increments must never lose one.
        backend.put(namespace, "counter", {"computed": 0})

        def bump(record):
            record["computed"] += 1
            return record

        def worker():
            for _ in range(40):
                assert backend.update(namespace, "counter", bump)
            backend.release_thread()

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert backend.get(namespace, "counter") == {"computed": 6 * 40}


#: The names the store calls a backend by — all a delegating wrapper
#: (``bench/proxies.TracedBackend``) overrides.
PUBLIC_NAMES = ("load_cell", "save_cell", "cell_count", "load_sweep",
                "save_sweep", "sweep_names", "load_job", "save_job",
                "update_job", "job_ids")


class _Delegating(StoreBackend):
    """``TracedBackend``'s shape: no primitive of its own, the ten public
    names forwarded (and counted) one by one."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.root = inner.root
        self.calls = collections.Counter()

    def close(self):
        self.inner.close()


def _forwarded(name):
    def method(self, *args, **kwargs):
        self.calls[name] += 1
        return getattr(self.inner, name)(*args, **kwargs)
    return method


for _name in PUBLIC_NAMES:
    setattr(_Delegating, _name, _forwarded(_name))


class TestDelegatingWrapper:
    """A wrapper that overrides only the public names is a whole
    backend: nothing in ``src/`` reaches past them to a primitive (which
    on the wrapper raises ``NotImplementedError``)."""

    @pytest.mark.parametrize("kind", ["tree", "corpus.sqlite"])
    def test_serves_a_sweep_and_a_job_cycle(self, tmp_path, kind):
        from repro.harness.report import render_book
        from repro.harness.service import JOB_DONE, ExperimentService

        wrapper = _Delegating(backend_for_path(tmp_path / kind))
        store = ExperimentStore(tmp_path / kind, backend=wrapper)
        plain = run_sweep(tiny_sweep())
        cold = run_sweep(tiny_sweep(), store=store)
        warm = run_sweep(tiny_sweep(), store=store)
        assert warm.store_stats["replayed"] == len(warm.cells)
        assert plain.rows() == cold.rows() == warm.rows()
        assert store.cell_count() == len({cell.fingerprint
                                          for cell in cold.cells})
        with ExperimentService(store, workers=2) as service:
            first = service.wait(service.submit("smoke"), timeout=120)
            again = service.wait(service.submit("smoke"), timeout=120)
            listed = store.load_jobs()
        assert first["state"] == again["state"] == JOB_DONE
        assert again["replayed"] == again["total"] and first["computed"]
        assert [record["id"] for record in listed] == sorted(
            store.job_ids(), reverse=True)
        document, _ = render_book(store)
        assert "sweep `smoke`" in document and "sweep `tiny`" in document
        assert set(wrapper.calls) == set(PUBLIC_NAMES)
        store.close()


class TestLoadJobs:
    """``load_jobs`` is one backend pass standing in for ``job_ids`` +
    one ``load_job`` per id (``StoreBackend.load_jobs``, the reference)."""

    IDS = ["20260101T000000Z-0002", "20260101T000000Z-0001",
           "20251231T235959Z-ffff", "a", "a-b"]

    def _stores(self, tmp_path):
        for root in (tmp_path / "tree", tmp_path / "corpus.sqlite"):
            store = ExperimentStore(root)
            assert store.load_jobs() == [], store.backend.kind
            for position, job_id in enumerate(self.IDS):
                store.save_job(job_id, {"id": job_id, "computed": position})
            yield store
            store.close()

    def test_newest_first_and_equal_to_the_per_id_path(self, tmp_path):
        for store in self._stores(tmp_path):
            listed = store.load_jobs()
            assert [record["id"] for record in listed] == sorted(
                self.IDS, reverse=True), store.backend.kind
            assert listed == [store.load_job(job_id) for job_id in
                              reversed(store.job_ids())], store.backend.kind
            assert (store.backend.load_jobs()
                    == StoreBackend.load_jobs(store.backend))

    def test_a_corrupt_record_reads_as_skipped(self, tmp_path):
        for store in self._stores(tmp_path):
            victim = self.IDS[1]
            _corrupt(store.backend, "jobs", victim)
            assert store.load_job(victim) is None, store.backend.kind
            assert [record["id"] for record in store.load_jobs()] == sorted(
                set(self.IDS) - {victim}, reverse=True), store.backend.kind

    def test_a_record_of_another_schema_is_skipped(self, tmp_path):
        for store in self._stores(tmp_path):
            store.backend.save_job("zz-foreign", {"id": "zz-foreign",
                                                  "schema": -1})
            assert "zz-foreign" in store.job_ids()
            assert "zz-foreign" not in [
                record["id"] for record in store.load_jobs()]


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=2**64) | st.floats() | st.text())
KEYS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
JSON = st.recursive(
    SCALARS,
    lambda children: (st.lists(children, max_size=12)
                      | st.lists(SCALARS, min_size=8, max_size=16)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=10)
                      | st.dictionaries(KEYS, children, max_size=6)
                      | st.dictionaries(KEYS, SCALARS, min_size=8,
                                        max_size=16)),
    max_leaves=60)


def dumps_or_error(encode, value, sort_keys):
    """What one encoder makes of ``value``: its text, or the class of the
    error it raises (mixed key types cannot be sorted)."""
    try:
        return encode(value, sort_keys)
    except TypeError as error:
        return type(error)


class TestIndentedJson:
    """``indented_json`` is ``json.dumps(indent=2)`` byte for byte, the
    containers of scalars it hands to the C encoder included."""

    @settings(max_examples=200, deadline=None)
    @given(JSON, st.booleans())
    def test_equals_the_stdlib_on_any_document(self, value, sort_keys):
        assert dumps_or_error(indented_json, value, sort_keys) \
            == dumps_or_error(
                lambda value, sort_keys: json.dumps(
                    value, indent=2, sort_keys=sort_keys), value, sort_keys)

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), 2**70, -(2**64) - 1,
        "ü ✓ \U0001f600 \"\\\n", [], {}, (), [[]], {"": {}},
        list(range(8)), [float("nan")] * 8,
        {None: [1], True: {}, 1.5: 3, 2**65: "x", -0.0: None},
        dict.fromkeys([-1.0, float("inf"), 2**65, False, "k", "l", "m",
                       "n"], "v")])
    def test_edge_values(self, value):
        assert indented_json(value) == json.dumps(value, indent=2)

    def test_every_record_of_a_filled_store(self, tmp_path):
        """The files were written by ``indented_json``."""
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        with ExperimentService(store, workers=1) as service:
            service.wait(service.submit("smoke"), timeout=120)
        kinds = collections.Counter()
        for path in sorted(tmp_path.rglob("*.json")):
            text = path.read_text(encoding="utf-8")
            record = json.loads(text)
            kinds[path.relative_to(tmp_path).parts[0]] += 1
            assert text == json.dumps(record, indent=2) + "\n"
            assert indented_json(record, sort_keys=True) \
                == json.dumps(record, indent=2, sort_keys=True)
        assert set(kinds) == set(NAMESPACES) and kinds["jobs"] == 1
