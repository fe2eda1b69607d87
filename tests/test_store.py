"""Tests for the persistent experiment store (harness/store.py):
fingerprint scheme and invalidation, record round-trips, warm replay
byte-identity, interrupted-sweep resume, and shard-union equality."""

import dataclasses
import functools
import hashlib
import json

import pytest

from repro.errors import ConfigurationError
from repro.harness.scenarios import (
    EXECUTORS,
    PROTOCOLS,
    ScenarioSpec,
    SweepSpec,
    run_sweep,
    sweep_csv_text,
    sweep_json_text,
)
from repro.harness.store import (
    STORE_SALT,
    ExperimentStore,
    canonical_cell_key,
    cell_fingerprint,
    parse_shard,
)


def tiny_sweep(name="tiny", sizes=(24, 32), seeds=(0, 1)):
    return SweepSpec(
        name=name,
        description="store-test sweep",
        scenarios=(
            ScenarioSpec(
                name="subq", protocol="subquadratic",
                grid={"n": tuple(sizes)},
                fixed={"f_fraction": 0.25, "lam": 10},
                inputs="mixed", adversary="crash", seeds=tuple(seeds)),
        ),
    )


def spec_cell(**overrides):
    """One bound cell from a small spec, with overridable bindings."""
    fixed = {"n": 24, "f_fraction": 0.25, "lam": 10}
    fixed.update(overrides.pop("fixed", {}))
    spec = ScenarioSpec(
        name=overrides.pop("name", "cell"),
        protocol=overrides.pop("protocol", "subquadratic"),
        fixed=fixed,
        inputs=overrides.pop("inputs", "mixed"),
        adversary=overrides.pop("adversary", "crash"),
        seeds=overrides.pop("seeds", (0, 1)),
        **overrides)
    return spec.cells()[0]


def exotic_cell(**fixed):
    """A cell carrying arbitrary extra bindings: ``broadcast-from-ba``'s
    builder takes ``**kwargs`` (for its inner BA), so the binding layer
    lets any name through to it."""
    return ScenarioSpec(
        name="cell", protocol="broadcast-from-ba",
        fixed={"n": 8, "f": 2, "sender_input": 1, "ba_builder": "quadratic",
               **fixed},
        seeds=(0,)).cells()[0]


class TestFingerprint:
    def test_stable_across_expansions(self):
        assert cell_fingerprint(spec_cell()) == cell_fingerprint(spec_cell())

    def test_scenario_name_is_display_only(self):
        # Renaming a scenario relabels rows but does not change what
        # executes, so it must not invalidate the cache.
        assert (cell_fingerprint(spec_cell(name="a"))
                == cell_fingerprint(spec_cell(name="b")))

    def test_every_result_affecting_axis_misses(self):
        base = cell_fingerprint(spec_cell())
        changed = [
            spec_cell(fixed={"n": 32}),                      # binding
            spec_cell(fixed={"lam": 12}),                    # params
            spec_cell(seeds=(0, 2)),                         # seeds
            spec_cell(seeds=(0,)),                           # seed count
            spec_cell(adversary="none"),                     # adversary
            spec_cell(inputs="ones"),                        # inputs
            spec_cell(fixed={"network": "lan"}),             # conditions
            spec_cell(fixed={"network": "wan",
                             "topology": "clustered"}),      # topology
            ScenarioSpec(                                    # protocol
                name="cell", protocol="quadratic",
                fixed={"n": 24, "f": 5},
                inputs="mixed", adversary="crash",
                seeds=(0, 1)).cells()[0],
        ]
        fingerprints = [cell_fingerprint(cell) for cell in changed]
        assert base not in fingerprints
        assert len(set(fingerprints)) == len(fingerprints)

    def test_salt_and_share_lottery_participate(self):
        cell = spec_cell()
        assert (cell_fingerprint(cell, salt="other")
                != cell_fingerprint(cell))
        assert (cell_fingerprint(cell, share_lottery=False)
                != cell_fingerprint(cell, share_lottery=True))

    def test_key_is_canonical_json(self):
        key = canonical_cell_key(spec_cell(fixed={"network": "lossy",
                                                  "topology": None}))
        # Round-trips through JSON without loss (what the digest hashes).
        assert json.loads(json.dumps(key, sort_keys=True)) == key
        # The resolved conditions are structural, not a display label:
        # every field of the dataclass is covered.
        network = key["network"]
        assert network["__dataclass__"].endswith("NetworkConditions")
        assert set(network["fields"]) == {
            f.name for f in dataclasses.fields(
                __import__("repro.sim.conditions",
                           fromlist=["NetworkConditions"]).NetworkConditions)}

    def test_non_module_callables_are_rejected(self):
        # Two closures from one factory share a __qualname__, so
        # fingerprinting one would let different cells collide; the
        # store must refuse instead of silently replaying wrong results.
        def factory(k):
            def inner(n):
                return k
            return inner

        cell = exotic_cell(weird_binding=factory(1))
        with pytest.raises(ConfigurationError,
                           match="non-module-level callable"):
            cell_fingerprint(cell)
        with pytest.raises(ConfigurationError,
                           match="non-module-level callable"):
            cell_fingerprint(exotic_cell(weird_binding=lambda n: n))

    def test_callable_bindings_canonicalize_by_qualname(self):
        from repro.harness.scenarios import f_half_minus_one
        cell = ScenarioSpec(
            name="cell", protocol="broadcast-from-ba",
            fixed={"n": 8, "f": f_half_minus_one, "sender_input": 1,
                   "ba_builder": "quadratic"},
            seeds=(0,)).cells()[0]
        key = canonical_cell_key(cell)
        assert key["kwargs"]["ba_builder"]["__callable__"].endswith(
            "build_quadratic_ba")
        assert key["f"] == 3  # callable f resolved before fingerprinting


#: The rows — SHA-256 over the artifact rows (columns and values) of
#: every registry protocol, perfect synchrony and ``wan``, seed 0 —
#: pinned beside the salt they were recorded under.  ``STORE_SALT`` is
#: bumped by hand, and a change that moves a row without a bump makes
#: every warm store replay the old row, silently; the test below is what
#: keeps a column change or an engine-semantics change from forgetting
#: it.  The rows are deterministic and take about half a second.
ROW_PIN = (
    "ba-repro-store-v4",
    "99d47745917e4a433a04da2c0ce229ecdad5115e5cc5f9362b686c63c90293bd")


def _pinned_rows():
    """``{protocol: {network: artifact row}}`` for the registry."""
    rows = {}
    for key, entry in PROTOCOLS.items():
        fixed = ({"n": 32, "f": 8, "lam": 12} if entry.takes("params")
                 else {"n": 10, "f": 3})
        if entry.takes("sender_input"):
            fixed["sender_input"] = 1
        if entry.takes("ba_builder"):
            fixed["ba_builder"] = "quadratic"
        sweep = run_sweep(SweepSpec(name="schema", scenarios=(ScenarioSpec(
            name=key, protocol=key, fixed=fixed,
            grid={"network": ("perfect", "wan")}, seeds=(0,)),)))
        rows[key] = {row["network"]: row for row in sweep.rows()}
    return rows


def test_rows_are_pinned_beside_the_store_salt():
    pinned_salt, pinned_digest = ROW_PIN
    rows = _pinned_rows()
    digest = hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()).hexdigest()
    if digest != pinned_digest:
        assert STORE_SALT != pinned_salt, (
            "artifact rows changed (a column or a value) but the salt did "
            "not: bump STORE_SALT in harness/store.py (records under the "
            "old salt would replay the old rows), then re-pin ROW_PIN to "
            f"({STORE_SALT!r}, {digest!r})")
        pytest.fail(f"STORE_SALT was bumped for a row change: re-pin "
                    f"ROW_PIN to ({STORE_SALT!r}, {digest!r})")
    assert STORE_SALT == pinned_salt, (
        "STORE_SALT changed with every row intact: re-pin ROW_PIN's salt "
        f"to {STORE_SALT!r}")
    # The pin covers what it says: every protocol, both column shapes.
    assert set(rows) == set(PROTOCOLS)
    for key, shapes in rows.items():
        assert set(shapes["wan"]) - set(shapes["perfect"]) >= {
            "skipped_ticks", "events_processed"}, key


#: The library's artifacts — per ``SWEEPS`` entry, SHA-256 over its CSV
#: and its JSON (the ``lottery.token``, numbered per process, dropped) —
#: pinned beside the salt like ``ROW_PIN``: a change that moves a sweep
#: row without a ``STORE_SALT`` bump fails here by sweep name.  All 11
#: sweeps run in about 2 s.
SWEEP_PIN = ("ba-repro-store-v4", {
    "comm-vs-n":
        "509d0202a520beced7d9a037a52bd8b7b2bae9e12bd99e489bd002be445afc69",
    "adversary-grid":
        "39cb1443d132fc71141497c4a3bd3afd35712485b89182913d4281b1be296291",
    "resilience-frontier":
        "2133e4c850fc3f4ea674d13a4adcc29718a44341daa470424c7d04348953ba9d",
    "latency-stress":
        "409cf569c9f12e0a54061337db8444edd4b746fe8afb0006dce36962ddd40c73",
    "partition-heal":
        "f9c6191560edb17f74d218c3899723c9233221b45aafeccba882c2a21fabfa53",
    "early-stop-vs-delta":
        "8498afa2907c12a3065132959e7b20d1312e6f8edc6de4d49cc84a908713fb7c",
    "leader-vs-delta":
        "bb85b7377406c88a65e6146b2e2ca283fecb3fc2b7397992e1a1bb859b3a0c81",
    "leader-vs-quadratic":
        "b403f8aa6b58671d3041ab5dbbf98c5a1654f10baa6bec88a4f70afc1d80a4bb",
    "words-vs-actual-f":
        "446fb99784bcc7a15e5f489e5e26e7b292e1a7b1070538c390bb7e819546ca63",
    "topology-grid":
        "77bb7118ea23ad59842128fdc1bb90feee230ea654032a7e4c5dfa0b19f111b1",
    "smoke":
        "3c2ccfa449d58a8defb6d7db87c1c939460655cf5a6fb02f14156cd4d8d9f9bc",
})


def _sweep_digests():
    from repro.harness.sweep_library import SWEEPS

    digests = {}
    for name, spec in SWEEPS.items():
        sweep = run_sweep(spec)
        rows = sweep.rows()
        lottery = sweep.lottery and {
            key: value for key, value in sweep.lottery.items()
            if key != "token"}
        text = sweep_csv_text(rows) + sweep_json_text(name, rows, lottery)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def test_library_artifacts_are_pinned_beside_the_store_salt():
    pinned_salt, pinned = SWEEP_PIN
    digests = _sweep_digests()
    assert set(digests) == set(pinned), (
        f"the library's sweeps changed: re-pin SWEEP_PIN to "
        f"({STORE_SALT!r}, {digests!r})")
    moved = sorted(name for name in digests if digests[name] != pinned[name])
    if moved:
        assert STORE_SALT != pinned_salt, (
            f"sweep artifacts {moved} changed but the salt did not: bump "
            "STORE_SALT in harness/store.py (records under the old salt "
            "would replay the old rows), then re-pin SWEEP_PIN")
        pytest.fail(f"STORE_SALT was bumped for a row change: re-pin "
                    f"SWEEP_PIN to ({STORE_SALT!r}, {digests!r})")
    assert STORE_SALT == pinned_salt, (
        f"STORE_SALT changed with every artifact intact: re-pin "
        f"SWEEP_PIN's salt to {STORE_SALT!r}")


#: The store keys — SHA-256 over the newline-joined fingerprint of every
#: library cell, in registration then expansion order — as they were
#: before executors were bound by signature (97 cells, 96 distinct).  A
#: binding-layer change that moves it re-keys every warm store: bump
#: ``STORE_SALT`` if that is intended, never by accident.
STORE_KEYS_PIN = (
    "ba-repro-store-v4",
    "2bdfdb72ac22f6fee4ef0e2550c02669fc473f64a48f6fc318abbecf7bfcda9b")


def test_library_store_keys_are_pinned_beside_the_store_salt():
    from repro.harness.sweep_library import SWEEPS

    prints = [cell_fingerprint(cell) for sweep in SWEEPS.values()
              for cell in sweep.expand()]
    assert (len(prints), len(set(prints))) == (97, 96)
    digest = hashlib.sha256("\n".join(prints).encode()).hexdigest()
    assert (STORE_SALT, digest) == STORE_KEYS_PIN, (
        "the library's cell fingerprints moved: recorded cells no longer "
        "replay.  If a sweep was added or edited, or the salt bumped, "
        f"re-pin STORE_KEYS_PIN to ({STORE_SALT!r}, {digest!r}); if only "
        "the binding layer changed, it re-keyed every warm store")


class TestStoreRoundTrip:
    def test_record_round_trip_preserves_metric_types(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store).cells[0]
        record = store.load_record(result.fingerprint)
        assert record["metrics"] == result.metrics
        for key, value in result.metrics.items():
            assert type(record["metrics"][key]) is type(value), key
        assert record["row"] == result.row()
        assert record["key"]["salt"] == STORE_SALT

    @pytest.mark.parametrize("old_salt", ["ba-repro-store-v2",
                                          "ba-repro-store-v3"])
    def test_pre_bump_salt_records_read_as_misses(self, tmp_path,
                                                  old_salt):
        """Records written before a salt bump (v2 → v3: the leader
        family added `mean_views_executed` / `mean_view_changes`;
        v3 → v4: the adaptive family added `mean_words` /
        `mean_actual_faults` / `mean_escalations`) must read as plain
        cache misses under the current salt — recomputed on the next
        run, never replayed into the new row shape and never a
        corruption error."""
        assert STORE_SALT == "ba-repro-store-v4"
        pre_bump = ExperimentStore(tmp_path, salt=old_salt)
        run_sweep(tiny_sweep(sizes=(24,), seeds=(0,)), store=pre_bump)
        cell = tiny_sweep(sizes=(24,), seeds=(0,)).scenarios[0].cells()[0]
        # The pre-bump store sees its own record...
        assert pre_bump.load_record(pre_bump.fingerprint(cell)) is not None
        # ...but the same store directory opened under the current salt
        # addresses the same cell at a different fingerprint: a miss.
        current = ExperimentStore(tmp_path)
        assert current.fingerprint(cell) != pre_bump.fingerprint(cell)
        assert current.load_record(current.fingerprint(cell)) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store).cells[0]
        path = store.backend.path("cells", result.fingerprint)
        record = json.loads(path.read_text())
        record["schema"] = 999
        path.write_text(json.dumps(record))
        assert store.load_record(result.fingerprint) is None

    def test_corrupted_records_are_misses_and_resume_recomputes(
            self, tmp_path):
        # A truncated/garbage record file (disk glitch, partial copy of
        # a shared store) must read as a miss — the next resume
        # re-records it — never crash the run.
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store)
        path = store.backend.path("cells", result.cells[0].fingerprint)
        path.write_text('{"schema": 1, "metr')  # truncated mid-write
        assert store.load_record(result.cells[0].fingerprint) is None
        rerun = run_sweep(tiny_sweep(), store=store)
        assert rerun.store_stats["computed"] == 1
        assert rerun.store_stats["replayed"] == 1
        assert rerun.rows() == result.rows()
        # Same treatment for a wrong-shape record and a damaged sweep
        # record (the book simply omits the sweep until re-recorded).
        path.write_text('{"schema": 1, "metrics": "oops"}')
        assert store.load_record(result.cells[0].fingerprint) is None
        store.backend.path("sweeps", "tiny").write_text("garbage")
        assert store.load_sweep("tiny") is None

    def test_sweep_record_lists_cells_in_order(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store)
        record = store.load_sweep("tiny")
        assert record["complete"] is True
        assert record["cells"] == [cell.fingerprint
                                   for cell in result.cells]
        assert store.sweep_rows("tiny") == result.rows()


class TestWarmReplay:
    def test_warm_run_executes_zero_cells_byte_identically(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        sweep = tiny_sweep()
        plain = run_sweep(sweep)
        cold = run_sweep(sweep, store=store)
        warm = run_sweep(sweep, store=store)
        assert cold.store_stats["computed"] == len(cold.cells)
        assert warm.store_stats["computed"] == 0
        assert warm.store_stats["replayed"] == len(warm.cells)
        # Differential: stored replay ≡ fresh compute ≡ storeless run.
        assert plain.rows() == cold.rows() == warm.rows()
        assert (plain.to_table().render() == cold.to_table().render()
                == warm.to_table().render())
        # Artifact files are byte-identical cold vs warm.
        for suffix, writer in (("csv", "to_csv"), ("json", "to_json")):
            cold_path = getattr(cold, writer)(tmp_path / f"cold.{suffix}")
            warm_path = getattr(warm, writer)(tmp_path / f"warm.{suffix}")
            assert cold_path.read_bytes() == warm_path.read_bytes()

    def test_replayed_cells_refuse_payload_access(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        warm = run_sweep(tiny_sweep(), store=store)
        cell = warm.cells[0]
        assert cell.cached
        assert cell.payload is None
        # Same refusal contract as metrics-only transcripts: stored
        # records keep metrics only, so TrialStats/transcript access
        # must fail loudly instead of fabricating data.
        with pytest.raises(TypeError, match="replayed from the "
                                            "experiment store "
                                            f"\\(fingerprint "
                                            f"{cell.fingerprint[:12]}\\)"):
            cell.stats

    def test_store_runs_report_no_lottery_counters(self, tmp_path):
        store = ExperimentStore(tmp_path)
        cold = run_sweep(tiny_sweep(), store=store)
        warm = run_sweep(tiny_sweep(), store=store)
        # Cold draws coins, warm draws none — artifacts must not differ,
        # so store-backed results omit the counters entirely.
        assert cold.lottery is None and warm.lottery is None

    def test_unshared_lottery_keys_separate_but_equal_cells(self, tmp_path):
        store = ExperimentStore(tmp_path)
        shared = run_sweep(tiny_sweep(), store=store, share_lottery=True)
        unshared = run_sweep(tiny_sweep(), store=store,
                             share_lottery=False)
        # Conservative fingerprinting: --no-shared-lottery recomputes...
        assert unshared.store_stats["computed"] == len(unshared.cells)
        # ...and the differential pin shows the caution is not hiding a
        # divergence: both populations are row-identical.
        assert shared.rows() == unshared.rows()


def tree_state(root):
    """Every file under ``root``: its bytes, inode and mtime."""
    return {path: (path.read_bytes(), path.stat().st_ino,
                   path.stat().st_mtime_ns)
            for path in sorted(root.rglob("*")) if path.is_file()}


def count_sweep_writes(store, monkeypatch):
    """A list that gains the record of every ``save_sweep`` call."""
    writes = []
    inner = store.backend.save_sweep

    def save_sweep(name, record):
        writes.append(record)
        inner(name, record)
    monkeypatch.setattr(store.backend, "save_sweep", save_sweep)
    return writes


class TestWarmReplayWritesNothing:
    """A sweep record that would differ from the stored one only in
    ``recorded_at`` is not written: a warm replay leaves the store as it
    found it, and ``recorded_at`` is when the content was last written."""

    def test_warm_run_leaves_every_tree_file_untouched(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        before = tree_state(tmp_path)
        assert any(path.parent.name == "sweeps" for path in before)
        warm = run_sweep(tiny_sweep(), store=store)
        assert warm.store_stats["replayed"] == len(warm.cells)
        assert tree_state(tmp_path) == before
        assert not list(tmp_path.rglob("*.tmp"))

    def test_warm_sqlite_run_never_saves_the_sweep(self, tmp_path,
                                                   monkeypatch):
        store = ExperimentStore(tmp_path / "corpus.sqlite")
        run_sweep(tiny_sweep(), store=store)
        writes = count_sweep_writes(store, monkeypatch)
        before = store.load_sweep("tiny")
        run_sweep(tiny_sweep(), store=store)
        assert writes == []
        assert store.load_sweep("tiny") == before
        store.close()

    @pytest.mark.parametrize("change", ["rename", "shard", "salt"])
    def test_a_content_change_rewrites_the_record(self, tmp_path,
                                                  monkeypatch, change):
        store = ExperimentStore(tmp_path)
        first, second = tiny_sweep(), tiny_sweep()
        first_shard = second_shard = None
        if change == "rename":
            second = dataclasses.replace(second, scenarios=(
                dataclasses.replace(second.scenarios[0], name="renamed"),))
        elif change == "shard":
            first_shard, second_shard = (1, 2), (2, 2)
        run_sweep(first, store=store, shard=first_shard)
        before = store.load_sweep("tiny")
        if change == "salt":
            store = ExperimentStore(tmp_path, salt="another-salt")
        writes = count_sweep_writes(store, monkeypatch)
        run_sweep(second, store=store, shard=second_shard)
        assert len(writes) == 1
        after = store.load_sweep("tiny")
        changed = {key for key in after if after[key] != before[key]}
        assert changed - {"recorded_at"} == {
            "rename": {"rows"}, "shard": {"complete", "rows"},
            "salt": {"salt", "cells"}}[change]


class TestResumeAndGrowth:
    def test_interrupted_sweep_resumes_with_missing_cells_only(
            self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path)
        sweep = tiny_sweep()
        real = EXECUTORS["trials"]
        gathered = []

        @functools.wraps(real)  # the signature is the executor's contract
        def explode_on_second(**arguments):
            gather = real(**arguments)

            def exploding_gather():
                gathered.append(arguments["n"])
                if len(gathered) > 1:
                    raise RuntimeError("simulated crash mid-sweep")
                return gather()
            return exploding_gather

        monkeypatch.setitem(EXECUTORS, "trials", explode_on_second)
        with pytest.raises(RuntimeError, match="simulated crash"):
            run_sweep(sweep, store=store)
        monkeypatch.setitem(EXECUTORS, "trials", real)
        # Both cells were started before the first was gathered, yet the
        # first finished (and was recorded) before the second computed.
        assert gathered == [24, 32]
        assert store.cell_count() == 1

        # The completed cell was durably recorded before the crash.
        resumed = run_sweep(sweep, store=store)
        assert resumed.store_stats == {
            "replayed": 1, "computed": 1, "skipped": 0,
            "salt": STORE_SALT, "shard": None}
        assert resumed.rows() == run_sweep(sweep).rows()

    def test_grid_growth_costs_only_the_new_cells(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(sizes=(24,)), store=store)
        grown = run_sweep(tiny_sweep(sizes=(24, 32)), store=store)
        assert grown.store_stats["replayed"] == 1
        assert grown.store_stats["computed"] == 1
        assert grown.rows() == run_sweep(tiny_sweep(sizes=(24, 32))).rows()

    def test_salt_bump_invalidates_everything(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        bumped = ExperimentStore(tmp_path, salt="store-v2-bumped")
        rerun = run_sweep(tiny_sweep(), store=bumped)
        assert rerun.store_stats["computed"] == len(rerun.cells)
        assert rerun.store_stats["replayed"] == 0


class TestShards:
    def test_parse_shard(self):
        assert parse_shard("1/1") == (1, 1)
        assert parse_shard("2/4") == (2, 4)
        for bad in ("0/2", "3/2", "2", "a/b", "1/0", "-1/2"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)

    def test_run_sweep_validates_shard(self):
        with pytest.raises(ConfigurationError, match="shard"):
            run_sweep(tiny_sweep(), shard=(3, 2))

    def test_shards_partition_the_cells(self, tmp_path):
        sweep = tiny_sweep()
        full = run_sweep(sweep)
        one = run_sweep(sweep, shard=(1, 2))
        two = run_sweep(sweep, shard=(2, 2))
        labels = [cell.cell.label() for cell in full.cells]
        assert [c.cell.label() for c in one.cells] == labels[0::2]
        assert [c.cell.label() for c in two.cells] == labels[1::2]
        assert one.store_stats["skipped"] == 1
        assert one.store_stats["shard"] == "1/2"

    def test_shard_union_equals_unsharded(self, tmp_path):
        store = ExperimentStore(tmp_path)
        sweep = tiny_sweep()
        first = run_sweep(sweep, store=store, shard=(1, 2))
        assert first.store_stats["skipped"] == 1
        record = store.load_sweep("tiny")
        assert record["complete"] is False
        # The record lists the full expansion even though this shard
        # only computed half — concurrent shards write equivalent
        # records, and the book sections the whole sweep once the cell
        # records exist.
        assert len(record["cells"]) == 2
        second = run_sweep(sweep, store=store, shard=(2, 2))
        # The second shard replays shard 1's cells from the shared store
        # and computes its own: the union is the whole sweep.
        assert second.store_stats == {
            "replayed": 1, "computed": 1, "skipped": 0,
            "salt": STORE_SALT, "shard": "2/2"}
        assert second.rows() == run_sweep(sweep).rows()
        assert store.load_sweep("tiny")["complete"] is True


class TestCanonExoticBindings:
    """Fingerprints over binding types whose canonical form needs care:
    heterogeneous sets (satellite regression — sorting canonical forms
    directly raised ``TypeError: '<' not supported``), sets of frozen
    dataclasses (canonical forms are dicts, also unorderable), bytes,
    and nested frozen dataclasses."""

    def test_mixed_type_set_fingerprints(self):
        # Regression: frozenset({1, "a"}) crashed _canon with a raw
        # TypeError before sets were ordered by canonical JSON encoding.
        a = exotic_cell(tags=frozenset([1, "a"]))
        b = exotic_cell(tags=frozenset(["a", 1]))
        assert cell_fingerprint(a) == cell_fingerprint(b)
        c = exotic_cell(tags=frozenset(["a", 2]))
        assert cell_fingerprint(a) != cell_fingerprint(c)

    def test_set_of_frozen_dataclasses_fingerprints(self):
        @dataclasses.dataclass(frozen=True)
        class Knob:
            name: str
            level: int

        knobs = frozenset({Knob("alpha", 1), Knob("beta", 2)})
        same = frozenset({Knob("beta", 2), Knob("alpha", 1)})
        assert (cell_fingerprint(exotic_cell(knobs=knobs))
                == cell_fingerprint(exotic_cell(knobs=same)))
        other = frozenset({Knob("beta", 3), Knob("alpha", 1)})
        assert (cell_fingerprint(exotic_cell(knobs=knobs))
                != cell_fingerprint(exotic_cell(knobs=other)))

    def test_unorderable_set_raises_configuration_error(self, monkeypatch):
        # Everything _canon emits today JSON-encodes, so force the
        # pathological case to pin the error contract: anything the
        # ordering cannot handle surfaces as ConfigurationError, never a
        # raw TypeError.
        from repro.harness import store as store_module

        real_dumps = json.dumps

        def broken_dumps(value, **kwargs):
            if kwargs.get("separators") == (",", ":"):
                raise TypeError("unorderable for the test")
            return real_dumps(value, **kwargs)

        monkeypatch.setattr(store_module.json, "dumps", broken_dumps)
        with pytest.raises(ConfigurationError, match="cannot order"):
            store_module._canon(frozenset([1, "a"]))

    def test_bytes_round_trip(self):
        a = exotic_cell(beacon=b"\x00\xffseed")
        b = exotic_cell(beacon=b"\x00\xffseed")
        assert cell_fingerprint(a) == cell_fingerprint(b)
        assert (cell_fingerprint(a)
                != cell_fingerprint(exotic_cell(beacon=b"other")))
        # The canonical key document itself must survive a JSON
        # round-trip unchanged — that is what the store hashes and what
        # record files embed.
        key = canonical_cell_key(a)
        assert json.loads(json.dumps(key, sort_keys=True)) == key

    def test_nested_frozen_dataclass_round_trip(self):
        @dataclasses.dataclass(frozen=True)
        class Inner:
            weights: tuple
            blob: bytes

        @dataclasses.dataclass(frozen=True)
        class Outer:
            label: str
            inner: Inner
            members: frozenset

        value = Outer("outer", Inner((1, 2.5), b"\x01\x02"),
                      frozenset({"x", 3}))
        same = Outer("outer", Inner((1, 2.5), b"\x01\x02"),
                     frozenset({3, "x"}))
        assert (cell_fingerprint(exotic_cell(cfg=value))
                == cell_fingerprint(exotic_cell(cfg=same)))
        key = canonical_cell_key(exotic_cell(cfg=value))
        assert json.loads(json.dumps(key, sort_keys=True)) == key


class TestSweepRowsAligned:
    def test_short_rows_list_pads_instead_of_truncating(self, tmp_path):
        # Satellite regression: a record whose rows list is shorter than
        # its cells list (hand-edited, or written by an older tool) used
        # to zip-truncate — tail cells vanished from the book even when
        # their cell records could fill the holes.
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store)
        record = store.load_sweep("tiny")
        record["rows"] = record["rows"][:1]
        store.backend.save_sweep("tiny", record)
        aligned = store.sweep_rows_aligned("tiny")
        assert len(aligned) == len(record["cells"])
        # The tail cell falls back to its cell record's row.
        assert aligned == result.rows()

    def test_missing_rows_fall_back_to_cell_records(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store)
        record = store.load_sweep("tiny")
        record["rows"] = []
        store.backend.save_sweep("tiny", record)
        assert store.sweep_rows_aligned("tiny") == result.rows()

    def test_unfillable_hole_stays_none(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        record = store.load_sweep("tiny")
        record["rows"] = record["rows"][:1]
        record["cells"] = record["cells"][:1] + ["0" * 64]
        store.backend.save_sweep("tiny", record)
        aligned = store.sweep_rows_aligned("tiny")
        assert len(aligned) == 2
        assert aligned[1] is None
        assert store.sweep_rows("tiny") == aligned[:1]
