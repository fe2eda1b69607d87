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
    CachedCellPayload,
    ScenarioSpec,
    SweepSpec,
    run_sweep,
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

        cell = spec_cell(fixed={"weird_binding": factory(1)})
        with pytest.raises(ConfigurationError,
                           match="non-module-level callable"):
            cell_fingerprint(cell)
        with pytest.raises(ConfigurationError,
                           match="non-module-level callable"):
            cell_fingerprint(spec_cell(fixed={"weird_binding":
                                              lambda n: n}))

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


#: The row schema — SHA-256 over the sorted artifact-row columns of every
#: registry protocol, perfect synchrony and ``wan`` — pinned beside the
#: salt it was recorded under.  ``STORE_SALT`` cannot be derived from the
#: schema (engine-semantics changes need a bump too), so the test below
#: is what keeps a column change from forgetting it.
ROW_SCHEMA_PIN = (
    "ba-repro-store-v4",
    "1547a85b79865acab250d5b2fe5a704c3abf68d51b48b59850abc45e9597b5d7")


def _row_schema():
    """``{protocol: {network: sorted row columns}}`` for the registry."""
    schema = {}
    for key, entry in PROTOCOLS.items():
        fixed = ({"n": 32, "f": 8, "lam": 12} if entry.takes("params")
                 else {"n": 10, "f": 3})
        if entry.takes("sender_input"):
            fixed["sender_input"] = 1
        if entry.takes("ba_builder"):
            fixed["ba_builder"] = "quadratic"
        rows = run_sweep(SweepSpec(name="schema", scenarios=(ScenarioSpec(
            name=key, protocol=key, fixed=fixed,
            grid={"network": ("perfect", "wan")}, seeds=(0,)),))).rows()
        schema[key] = {row["network"]: sorted(row) for row in rows}
    return schema


def test_row_schema_is_pinned_beside_the_store_salt():
    pinned_salt, pinned_digest = ROW_SCHEMA_PIN
    schema = _row_schema()
    digest = hashlib.sha256(
        json.dumps(schema, sort_keys=True).encode()).hexdigest()
    if digest != pinned_digest:
        assert STORE_SALT != pinned_salt, (
            "artifact row columns changed but the salt did not: bump "
            "STORE_SALT in harness/store.py (records under the old salt "
            "would replay into the new row shape), then re-pin "
            f"ROW_SCHEMA_PIN to ({STORE_SALT!r}, {digest!r})")
        pytest.fail(f"STORE_SALT was bumped for a column change: re-pin "
                    f"ROW_SCHEMA_PIN to ({STORE_SALT!r}, {digest!r})")
    assert STORE_SALT == pinned_salt, (
        "STORE_SALT changed with the row schema intact (an "
        "engine-semantics bump): re-pin ROW_SCHEMA_PIN's salt to "
        f"{STORE_SALT!r}")
    # The pin covers what it says: every protocol, both column shapes.
    assert set(schema) == set(PROTOCOLS)
    for key, shapes in schema.items():
        assert set(shapes["wan"]) - set(shapes["perfect"]) >= {
            "skipped_ticks", "events_processed"}, key


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
        assert isinstance(cell.payload, CachedCellPayload)
        # Same refusal contract as metrics-only transcripts: stored
        # records keep metrics only, so TrialStats/transcript access
        # must fail loudly instead of fabricating data.
        with pytest.raises(TypeError, match="replayed from the "
                                            "experiment store"):
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
        a = spec_cell(fixed={"tags": frozenset([1, "a"])})
        b = spec_cell(fixed={"tags": frozenset(["a", 1])})
        assert cell_fingerprint(a) == cell_fingerprint(b)
        c = spec_cell(fixed={"tags": frozenset(["a", 2])})
        assert cell_fingerprint(a) != cell_fingerprint(c)

    def test_set_of_frozen_dataclasses_fingerprints(self):
        @dataclasses.dataclass(frozen=True)
        class Knob:
            name: str
            level: int

        knobs = frozenset({Knob("alpha", 1), Knob("beta", 2)})
        same = frozenset({Knob("beta", 2), Knob("alpha", 1)})
        assert (cell_fingerprint(spec_cell(fixed={"knobs": knobs}))
                == cell_fingerprint(spec_cell(fixed={"knobs": same})))
        other = frozenset({Knob("beta", 3), Knob("alpha", 1)})
        assert (cell_fingerprint(spec_cell(fixed={"knobs": knobs}))
                != cell_fingerprint(spec_cell(fixed={"knobs": other})))

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
        a = spec_cell(fixed={"beacon": b"\x00\xffseed"})
        b = spec_cell(fixed={"beacon": b"\x00\xffseed"})
        assert cell_fingerprint(a) == cell_fingerprint(b)
        assert (cell_fingerprint(a)
                != cell_fingerprint(spec_cell(fixed={"beacon": b"other"})))
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
        assert (cell_fingerprint(spec_cell(fixed={"cfg": value}))
                == cell_fingerprint(spec_cell(fixed={"cfg": same})))
        key = canonical_cell_key(spec_cell(fixed={"cfg": value}))
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
