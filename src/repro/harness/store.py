"""Persistent, content-addressed experiment store for sweep results.

Every :func:`~repro.harness.scenarios.run_sweep` invocation used to
recompute all of its cells from scratch; this module makes sweeps
*incremental*.  A :class:`ExperimentStore` is an on-disk map from a
**cell fingerprint** — a SHA-256 over the canonical JSON encoding of
everything that determines a cell's results — to that cell's recorded
metrics row.  ``run_sweep(store=...)`` consults the store before
executing a cell and replays recorded cells byte-identically (the same
``rows()``, tables, and CSV/JSON artifacts as a fresh run), which buys:

- **resume**: an interrupted sweep re-run against the same store only
  computes the missing cells (``python -m repro sweep NAME --resume``);
- **sharding**: ``--shard K/M`` splits a sweep's cells across M
  invocations (machines) by cell index; each shard writes its cells to
  the shared store, and a final run replays the union;
- **incremental grids**: growing a sweep's axis by one value costs only
  the new cells.

Fingerprint scheme
------------------
:func:`canonical_cell_key` flattens a bound
:class:`~repro.harness.scenarios.Cell` into a canonical JSON document:
the executor and protocol registry keys, the adversary key and its
kwargs, the resolved builder kwargs (inputs, ``SecurityParameters``,
epochs, ...), the seeds, the fully resolved
:class:`~repro.sim.conditions.NetworkConditions` (including any
:class:`~repro.sim.conditions.LinkTopology`), the shared-lottery flag,
and the :data:`STORE_SALT` code-version salt.  Dataclasses encode as
``{"__dataclass__": qualified-name, "fields": {...}}`` and callables
(e.g. a ``ba_builder``) as their qualified name, so the key is stable
across processes and Python versions.  Scenario *names* and display
labels are deliberately excluded: they decorate rows at replay time but
never influence execution.

Two knobs that provably do **not** affect results are handled
asymmetrically:

- ``workers`` is excluded: worker-count independence is pinned by the
  determinism suite (results are aggregated in seed order).
- ``share_lottery`` is *included*, conservatively: the lottery cache is
  differentially tested to be sound, but it sits upstream of every coin
  flip, so the store refuses to let a future cache bug silently poison
  recorded results.  ``--no-shared-lottery`` therefore keys separate
  cells.

Invalidation
------------
Anything the key covers invalidates naturally (a changed binding, seed,
network, or topology is a different fingerprint).  Changes the key
*cannot* see — protocol/engine semantics, metric definitions, a registry
key rebound to a different builder — must bump :data:`STORE_SALT`, which
participates in every fingerprint and so invalidates the entire store at
once.  See ``docs/RESULTS.md`` for the full rules.

Stored records keep **metrics only** (the scalar row a sweep artifact
serializes); :class:`~repro.harness.runner.TrialStats` payloads are not
retained, and replayed cells refuse payload access the same way a sweep
trial's discarded transcript refuses replay (see
:class:`~repro.harness.scenarios.CachedCellPayload`).

Backends
--------
The store's records live behind a pluggable
:class:`~repro.harness.backends.StoreBackend`: the default JSON tree
(one file per record) or a concurrency-safe SQLite (WAL) database —
selected by the store path (``*.sqlite``/``*.db`` ⇒ SQLite) or an
explicit ``backend=`` argument.  The fingerprint scheme, schemas, and
replay semantics are backend-independent, and the same cells recorded
through either backend produce byte-identical sweep rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.harness.backends import StoreBackend, backend_for_path

#: Code-version salt folded into every fingerprint.  Bump this string
#: whenever a change alters execution results or metric definitions
#: without changing any cell binding (protocol/engine semantics, the
#: metrics schema, rebinding a registry key to a different builder) —
#: every record in every store is invalidated at once.
STORE_SALT = "ba-repro-store-v4"  # v4: the adaptive family's rows
#                                   gained mean_words/mean_actual_faults/
#                                   mean_escalations columns, so v3
#                                   records must miss.
#                                   (v3: the leader family's view-based
#                                   rows gained mean_views_executed/
#                                   mean_view_changes columns, so v2
#                                   records must miss.)
#                                   (v2: event engine; conditioned cells
#                                   gained skipped_ticks/events_processed
#                                   columns, so v1 records must miss.)

#: On-disk record schema version (independent of the salt: a schema
#: bump changes how records are *read*, a salt bump what they *mean*).
STORE_SCHEMA = 1

#: Default store directory used by ``--resume`` and ``python -m repro
#: report`` when no ``--store`` is given (relative to the CWD).
DEFAULT_STORE_DIR = ".repro-store"


# ---------------------------------------------------------------------------
# Canonical encoding and fingerprints.
# ---------------------------------------------------------------------------


def _canon(value: Any) -> Any:
    """Recursively flatten ``value`` into canonical JSON-able form.

    Handles everything a bound cell can carry: scalars, tuples/lists,
    mappings, frozen dataclasses (``NetworkConditions``, ``Partition``,
    ``LinkTopology``, ``SecurityParameters``), bytes, sets, and
    module-level callables (a resolved ``ba_builder``).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__dataclass__": f"{cls.__module__}.{cls.__qualname__}",
            "fields": {f.name: _canon(getattr(value, f.name))
                       for f in dataclasses.fields(value)},
        }
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    if isinstance(value, (set, frozenset)):
        # Sets are unordered, so the canonical form must impose one —
        # but sorting the *canonical forms* directly would crash on
        # heterogeneous elements (frozenset({1, "a"})) and on elements
        # whose canonical form is a dict (a frozen dataclass).  Sort by
        # each element's canonical JSON encoding instead: total, stable
        # across processes, and injective exactly where the fingerprint
        # needs it (equal encodings ⇒ equal canonical forms).
        items = [_canon(item) for item in value]
        try:
            return sorted(
                items,
                key=lambda item: json.dumps(item, sort_keys=True,
                                            separators=(",", ":")))
        except (TypeError, ValueError) as error:
            raise ConfigurationError(
                f"cannot order the elements of {value!r} for a cell "
                f"fingerprint: {error}") from None
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in value.items()}
    if callable(value):
        qualname = getattr(value, "__qualname__", "")
        if not qualname or "<locals>" in qualname or "<lambda>" in qualname:
            # A lambda/closure's qualified name does not identify its
            # behavior (two closures from one factory share it), so
            # fingerprinting it would let different cells collide.
            raise ConfigurationError(
                f"cannot fingerprint non-module-level callable "
                f"{value!r}; use a module-level function")
        return {"__callable__": f"{value.__module__}.{qualname}"}
    raise ConfigurationError(
        f"cannot canonicalize {value!r} ({type(value).__name__}) for a "
        "cell fingerprint; use a scalar, tuple, dataclass, or "
        "module-level callable")


def canonical_cell_key(cell, share_lottery: bool = True,
                       salt: str = STORE_SALT) -> Dict[str, Any]:
    """The canonical key document for one bound cell.

    Covers everything that determines the cell's metrics; excludes
    display-only fields (scenario name, binding labels) and the worker
    count (seed-order aggregation is worker-independent, pinned by
    tests).  ``share_lottery`` is included conservatively — see the
    module docstring.
    """
    return {
        "schema": STORE_SCHEMA,
        "salt": salt,
        "executor": cell.executor,
        "protocol": cell.protocol,
        "adversary": cell.adversary,
        "adversary_kwargs": _canon(dict(cell.adversary_kwargs)),
        "n": cell.n,
        "f": cell.f,
        "seeds": _canon(cell.seeds),
        "network": _canon(cell.network),
        "kwargs": _canon(dict(cell.kwargs)),
        "share_lottery": bool(share_lottery),
    }


def cell_fingerprint(cell, share_lottery: bool = True,
                     salt: str = STORE_SALT) -> str:
    """SHA-256 hex digest of the canonical cell key."""
    key = canonical_cell_key(cell, share_lottery=share_lottery, salt=salt)
    encoded = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``K/M`` shard selector into a validated ``(k, m)`` pair.

    ``K`` is 1-based: ``--shard 2/4`` executes cells whose expansion
    index ``i`` satisfies ``i % 4 == 1``.
    """
    try:
        k_text, m_text = text.split("/", 1)
        k, m = int(k_text), int(m_text)
    except ValueError:
        raise ConfigurationError(
            f"shard must look like K/M (e.g. 2/4), got {text!r}") from None
    if m < 1 or not 1 <= k <= m:
        raise ConfigurationError(
            f"shard K/M needs 1 <= K <= M, got {text!r}")
    return k, m


# ---------------------------------------------------------------------------
# The on-disk store.
# ---------------------------------------------------------------------------


class ExperimentStore:
    """Content-addressed store of executed cells, sweeps, and jobs.

    The store owns the record semantics (fingerprints, schemas, replay
    rules); the *bytes* live behind a pluggable
    :class:`~repro.harness.backends.StoreBackend`:

    - the default **JSON tree** (``cells/<fp[:2]>/<fp>.json``,
      ``sweeps/<name>.json``, ``jobs/<id>.json``) — human-readable,
      atomic via temp-file + rename, ideal for one invocation that owns
      its store directory;
    - **SQLite (WAL mode)** — one database file with ``cells``,
      ``sweeps``, and ``jobs`` tables, safe for many concurrent readers
      and writers across threads and processes; what the experiment
      service runs on.  Selected by pointing ``root`` at a
      ``*.sqlite``/``*.db`` path (or passing ``backend="sqlite"``).

    Cell records are content-addressed (keyed by fingerprint) and carry
    no timestamps, so the cell namespace populated twice from the same
    code and specs is byte-identical (sweep records do carry a
    ``recorded_at`` timestamp).  Writes are atomic in every backend, so
    an interrupted sweep never leaves a truncated record — the next
    ``--resume`` simply recomputes the missing cells.

    Sweep records always list the sweep's **full** cell-fingerprint
    expansion (including cells a ``--shard`` run skipped), so concurrent
    shard invocations against one shared store write equivalent records
    and the results book can section the whole sweep as soon as the
    cell records exist, whichever shard finished last.
    """

    SCHEMA = STORE_SCHEMA

    def __init__(self, root, salt: str = STORE_SALT,
                 backend: Optional[Any] = None) -> None:
        self.root = Path(root)
        self.salt = salt
        if isinstance(backend, StoreBackend):
            self.backend = backend
        else:
            self.backend = backend_for_path(self.root, backend)

    def close(self) -> None:
        self.backend.close()

    # -- fingerprints -------------------------------------------------------
    def fingerprint(self, cell, share_lottery: bool = True) -> str:
        return cell_fingerprint(cell, share_lottery=share_lottery,
                                salt=self.salt)

    # -- cell records -------------------------------------------------------
    def load_record(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        """The record for one fingerprint, or None on a cache miss.

        Records whose schema does not match — or that are truncated,
        corrupted, or missing their metrics — are treated as misses (a
        schema bump or a damaged file re-records rather than mis-reads
        or crashes a resume).
        """
        record = self.backend.load_cell(fingerprint)
        if (record is None or record.get("schema") != self.SCHEMA
                or not isinstance(record.get("metrics"), dict)):
            return None
        return record

    def save_result(self, fingerprint: str, sweep_name: str, result,
                    share_lottery: bool = True) -> Dict[str, Any]:
        """Record one executed :class:`CellResult` under its fingerprint.

        Stores the scalar ``metrics`` (what replay rehydrates) and the
        composed ``row`` (what the results book renders without needing
        the live spec), plus the canonical key for debuggability.
        """
        cell = result.cell
        record = {
            "schema": self.SCHEMA,
            "fingerprint": fingerprint,
            "sweep": sweep_name,
            "scenario": cell.scenario,
            "label": cell.label(),
            "key": canonical_cell_key(cell, share_lottery=share_lottery,
                                      salt=self.salt),
            "metrics": dict(result.metrics),
            "row": result.row(),
        }
        self.backend.save_cell(fingerprint, record)
        return record

    def cell_count(self) -> int:
        return self.backend.cell_count()

    # -- sweep records ------------------------------------------------------
    def record_sweep(self, name: str, description: str,
                     fingerprints: List[str], complete: bool,
                     rows: Optional[List[Optional[Dict[str, Any]]]] = None,
                     ) -> None:
        """Record one run of a sweep: its full cell expansion, in order.

        ``rows`` is the per-cell display-row list, aligned with
        ``fingerprints`` (``None`` for cells this run skipped).  Display
        rows live here — per sweep run — rather than only in the
        content-addressed cell records, because two cells with different
        labels can share one fingerprint (scenario names are outside the
        key); the cell record's row is just a fallback for holes.

        ``complete=False`` marks a shard run that skipped cells not yet
        in the store; the results book labels such sections as partial
        (and re-derives completeness from row availability, so a later
        shard filling in the cells heals the section automatically).

        The record reflects the *last* run of the sweep name: a run with
        force-overridden bindings (``--network``/``--topology``/
        ``--no-shared-lottery``) addresses different cells and so
        replaces the section with that variant (both variants' cell
        records persist; re-run without the override to switch back).
        """
        self.backend.save_sweep(name, {
            "schema": self.SCHEMA,
            "sweep": name,
            "description": description,
            "salt": self.salt,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                         time.gmtime()),
            "complete": complete,
            "cells": list(fingerprints),
            "rows": list(rows) if rows is not None
            else [None] * len(fingerprints),
        })

    def load_sweep(self, name: str) -> Optional[Dict[str, Any]]:
        record = self.backend.load_sweep(name)
        if (record is None or record.get("schema") != self.SCHEMA
                or not isinstance(record.get("cells"), list)):
            return None
        return record

    def sweep_names(self) -> List[str]:
        return self.backend.sweep_names()

    def sweep_rows_aligned(self, name: str,
                           record: Optional[Dict[str, Any]] = None,
                           ) -> List[Optional[Dict[str, Any]]]:
        """Per-cell display rows of one sweep, aligned with its recorded
        cell expansion (``None`` where no row is available).

        Prefers the sweep record's own rows (which carry each cell's
        run-time labels, and which the last run of the sweep refreshed);
        holes — e.g. cells another concurrent shard computed — fall back
        to the cell record's row.  Pass an already-loaded ``record`` to
        skip re-reading the sweep file.
        """
        if record is None:
            record = self.load_sweep(name)
        if record is None:
            return []
        stored = record.get("rows") or []
        if len(stored) < len(record["cells"]):
            # A hand-edited or partially written record may carry fewer
            # rows than cells; pad rather than letting zip() silently
            # truncate, so tail cells keep their cell-record fallback.
            stored = list(stored) + \
                [None] * (len(record["cells"]) - len(stored))
        aligned: List[Optional[Dict[str, Any]]] = []
        for fingerprint, row in zip(record["cells"], stored):
            if row is None:
                cell_record = self.load_record(fingerprint)
                row = cell_record["row"] if cell_record else None
            aligned.append(row)
        return aligned

    def sweep_rows(self, name: str) -> List[Dict[str, Any]]:
        """The available rows of one sweep, in execution order (cells
        with no row — skipped by a shard, or pruned by hand — are
        omitted)."""
        return [row for row in self.sweep_rows_aligned(name)
                if row is not None]

    # -- job records (the experiment service's durable queue state) ---------
    def save_job(self, job_id: str, record: Dict[str, Any]) -> None:
        payload = dict(record)
        payload.setdefault("schema", self.SCHEMA)
        self.backend.save_job(job_id, payload)

    def load_job(self, job_id: str) -> Optional[Dict[str, Any]]:
        record = self.backend.load_job(job_id)
        if record is None or record.get("schema") != self.SCHEMA:
            return None
        return record

    def update_job(self, job_id: str,
                   mutate: Callable[[Dict[str, Any]], Dict[str, Any]],
                   ) -> Optional[Dict[str, Any]]:
        """Atomic read-modify-write of one job record (concurrent
        updaters serialize in the backend, so per-job progress counters
        incremented from many workers never lose updates)."""
        return self.backend.update_job(job_id, mutate)

    def job_ids(self) -> List[str]:
        return self.backend.job_ids()

    def load_jobs(self) -> List[Dict[str, Any]]:
        """Every job record of this schema, newest first, in one backend
        pass (``GET /api/jobs`` polls this)."""
        return [record for record in self.backend.load_jobs()
                if record.get("schema") == self.SCHEMA]
