"""Tests for the results-book generator (harness/report.py): book
tables match live sweep tables, snapshot/baseline deltas, presentation
order, and the HTML rendering."""

import json

import pytest

from repro.harness.report import (
    build_snapshot,
    render_book,
    write_book,
)
from repro.harness.scenarios import ScenarioSpec, SweepSpec, run_sweep
from repro.harness.store import ExperimentStore

from tests.test_store import tiny_sweep


class TestBook:
    def test_book_table_matches_live_sweep_table(self, tmp_path):
        store = ExperimentStore(tmp_path)
        live = run_sweep(tiny_sweep(), store=store)
        book, _snapshot = render_book(store)
        # The acceptance bar: the rendered section is the *same* table
        # the live SweepResult renders (shared rows_to_table code).
        assert live.to_table().render() in book
        assert "## sweep `tiny`" in book
        assert "store-test sweep" in book  # the description

    def test_provenance_header(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        book, snapshot = render_book(store)
        assert f"fingerprint salt: `{store.salt}`" in book
        assert "code version:" in book
        assert "sweeps: 1, cells: 2" in book
        assert snapshot["salt"] == store.salt
        assert list(snapshot["sweeps"]) == ["tiny"]

    def test_code_version_is_described_once_per_process(self, tmp_path,
                                                        monkeypatch):
        """``git describe`` runs once per root, not once per book: the
        live page re-renders on every meta-refresh."""
        import subprocess

        from repro.harness import report

        started = []
        run = subprocess.run

        def counting(*args, **kwargs):
            started.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(report.subprocess, "run", counting)
        report.git_describe.cache_clear()
        store = ExperimentStore(tmp_path)
        first, _ = render_book(store)
        second, _ = render_book(store)
        assert len(started) <= 1
        version = [line for line in first.splitlines()
                   if "code version:" in line]
        assert version and version[0] in second

    def test_empty_store_renders_a_note(self, tmp_path):
        book, snapshot = render_book(ExperimentStore(tmp_path))
        assert "empty store" in book
        assert snapshot["sweeps"] == {}

    def test_partial_shard_sections_are_flagged(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store, shard=(1, 2))
        book, _ = render_book(store)
        assert "partial" in book

    def test_presentation_order_is_library_first(self, tmp_path):
        store = ExperimentStore(tmp_path)
        # "aaa-custom" sorts before "smoke" alphabetically, but smoke is
        # a library sweep so the book must section it first.
        custom = SweepSpec(
            name="aaa-custom",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                fixed={"n": 24, "f_fraction": 0.25, "lam": 10},
                inputs="mixed", seeds=(0,)),))
        from repro.harness.sweep_library import SWEEPS
        run_sweep(custom, store=store)
        run_sweep(SWEEPS["smoke"], store=store)
        _, snapshot = render_book(store)
        assert list(snapshot["sweeps"]) == ["smoke", "aaa-custom"]


class TestDuplicateFingerprints:
    def test_two_scenarios_sharing_a_fingerprint_keep_their_labels(
            self, tmp_path):
        # Scenario names are outside the fingerprint, so two scenarios
        # with identical execution config share one cell record — the
        # book must still render both rows under their own labels, and
        # the section must not report itself partial.
        store = ExperimentStore(tmp_path)

        def scenario(name):
            return ScenarioSpec(
                name=name, protocol="subquadratic",
                fixed={"n": 24, "f_fraction": 0.25, "lam": 10},
                inputs="mixed", adversary="crash", seeds=(0, 1))

        sweep = SweepSpec(name="twins", description="",
                          scenarios=(scenario("a"), scenario("b")))
        live = run_sweep(sweep, store=store)
        # Content-addressing: the second cell replays the first.
        assert live.store_stats == {
            "replayed": 1, "computed": 1, "skipped": 0,
            "salt": store.salt, "shard": None}
        book, snapshot = render_book(store)
        assert snapshot["sweeps"]["twins"]["complete"] is True
        assert live.to_table().render() in book  # both rows, labels a+b
        rows = snapshot["sweeps"]["twins"]["rows"]
        assert [row["scenario"] for row in rows] == ["a", "b"]


class TestDisplayMetadataHealing:
    def test_renamed_scenario_heals_the_stored_rows(self, tmp_path):
        # Scenario names are display-only (outside the fingerprint); a
        # warm run under new labels must refresh the stored rows so the
        # book keeps matching the live tables.
        store = ExperimentStore(tmp_path)

        def sweep_named(scenario):
            return SweepSpec(
                name="tiny", description="renaming test",
                scenarios=(ScenarioSpec(
                    name=scenario, protocol="subquadratic",
                    grid={"n": (24, 32)},
                    fixed={"f_fraction": 0.25, "lam": 10},
                    inputs="mixed", adversary="crash", seeds=(0, 1)),))

        run_sweep(sweep_named("oldname"), store=store)
        warm = run_sweep(sweep_named("newname"), store=store)
        assert warm.store_stats["replayed"] == 2
        book, _ = render_book(store)
        assert warm.to_table().render() in book
        assert "oldname" not in book


class TestSnapshotDeltas:
    def test_grid_growth_shows_added_cells(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        run_sweep(tiny_sweep(sizes=(24,)), store=store)
        baseline = build_snapshot(store)
        run_sweep(tiny_sweep(sizes=(24, 32)), store=store)
        book, _ = render_book(store, baseline=baseline)
        assert "delta vs baseline: 1 added, 0 removed, 0 changed" in book
        assert "WARNING" not in book

    def test_changed_row_without_fingerprint_change_warns(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store)
        baseline = build_snapshot(store)
        # Tamper with one recorded row in place: same fingerprint,
        # different content — exactly the nondeterminism / overdue-salt
        # situation the book must call out.
        assert result.cells  # sweep ran
        path = store.backend.path("sweeps", "tiny")
        record = json.loads(path.read_text())
        record["rows"][0]["mean_rounds"] = -1.0
        path.write_text(json.dumps(record))
        book, _ = render_book(store, baseline=baseline)
        assert "1 changed" in book
        assert "WARNING" in book

    def test_scenario_rename_does_not_trip_the_changed_warning(
            self, tmp_path):
        # The scenario label is the one row column outside the
        # fingerprint; renaming it replays every cell and relabels the
        # rows, which must read as 0 changed, not as nondeterminism.
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        baseline = build_snapshot(store)
        renamed = SweepSpec(
            name="tiny", description="store-test sweep",
            scenarios=(ScenarioSpec(
                name="renamed", protocol="subquadratic",
                grid={"n": (24, 32)},
                fixed={"f_fraction": 0.25, "lam": 10},
                inputs="mixed", adversary="crash", seeds=(0, 1)),))
        assert run_sweep(renamed, store=store).store_stats["computed"] == 0
        book, _ = render_book(store, baseline=baseline)
        assert "0 added, 0 removed, 0 changed" in book
        assert "WARNING" not in book

    def test_malformed_baselines_raise_value_error(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        run_sweep(tiny_sweep(), store=store)
        for payload in ('[1, 2, 3]',
                        '{"sweeps": ["x"], "salt": "y"}',
                        '{"sweeps": {"tiny": "oops"}}'):
            bad = tmp_path / "bad.json"
            bad.write_text(payload)
            with pytest.raises(ValueError, match="not a book snapshot"):
                write_book(store, baseline_path=bad)

    def test_display_only_relabeling_is_not_a_changed_cell(self, tmp_path):
        # f_fraction / network / topology labels are display-side too:
        # an equivalent relabeling (same resolved cell) replays from the
        # store and must not read as a changed result.
        store = ExperimentStore(tmp_path)
        run_sweep(SweepSpec(
            name="tiny", description="",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                fixed={"n": 24, "f_fraction": 0.25, "lam": 10},
                inputs="mixed", adversary="crash", seeds=(0, 1)),)),
            store=store)
        baseline = build_snapshot(store)
        relabeled = run_sweep(SweepSpec(
            name="tiny", description="",
            scenarios=(ScenarioSpec(
                name="subq", protocol="subquadratic",
                fixed={"n": 24, "f": 6, "lam": 10},  # same resolved f
                inputs="mixed", adversary="crash", seeds=(0, 1)),)),
            store=store)
        assert relabeled.store_stats["computed"] == 0
        book, _ = render_book(store, baseline=baseline)
        assert "0 added, 0 removed, 0 changed" in book
        assert "WARNING" not in book

    def test_salt_mismatch_is_called_out(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        baseline = dict(build_snapshot(store), salt="old-salt")
        book, _ = render_book(store, baseline=baseline)
        assert "invalidation boundary" in book

    def test_hand_pruned_record_is_not_a_removed_cell(self, tmp_path):
        store = ExperimentStore(tmp_path)
        result = run_sweep(tiny_sweep(), store=store)
        baseline = build_snapshot(store)
        # Prune one cell-record file; the sweep record still lists the
        # cell *and* carries its display row, so the book stays complete
        # and the delta must not count the cell as removed (only future
        # replays recompute it).
        store.backend.path("cells", result.cells[0].fingerprint).unlink()
        book, snapshot = render_book(store, baseline=baseline)
        assert "0 added, 0 removed, 0 changed" in book
        assert snapshot["sweeps"]["tiny"]["complete"] is True
        assert result.to_table().render() in book


class TestSaltStaleness:
    def test_sections_recorded_under_another_salt_are_stamped_stale(
            self, tmp_path):
        # A salt bump without re-running the sweeps must not publish
        # pre-bump tables as if they were current.
        old = ExperimentStore(tmp_path, salt="salt-old")
        run_sweep(tiny_sweep(), store=old)
        bumped = ExperimentStore(tmp_path, salt="salt-new")
        book, snapshot = render_book(bumped)
        assert "STALE" in book
        assert "salt-old" in book and "salt-new" in book
        assert snapshot["sweeps"]["tiny"]["salt"] == "salt-old"

    def test_current_salt_sections_are_not_stale(self, tmp_path):
        store = ExperimentStore(tmp_path)
        run_sweep(tiny_sweep(), store=store)
        book, _ = render_book(store)
        assert "STALE" not in book


class TestWriteBook:
    def test_write_book_and_snapshot(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        live = run_sweep(tiny_sweep(), store=store)
        book_path, snapshot_path = write_book(store)
        assert book_path == store.root / "book.md"
        assert snapshot_path == store.root / "book.json"
        assert live.to_table().render() in book_path.read_text()
        snapshot = json.loads(snapshot_path.read_text())
        assert snapshot["sweeps"]["tiny"]["complete"] is True
        # The snapshot feeds straight back in as a baseline.
        book, _ = render_book(store, baseline=snapshot)
        assert "0 added, 0 removed, 0 changed" in book

    def test_json_out_path_does_not_collide_with_snapshot(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        run_sweep(tiny_sweep(), store=store)
        book_path, snapshot_path = write_book(
            store, out_path=tmp_path / "results.json")
        assert book_path != snapshot_path
        assert snapshot_path.name == "results.snapshot.json"
        assert book_path.read_text().startswith("# Results book")
        json.loads(snapshot_path.read_text())  # a real snapshot

    def test_html_format(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        live = run_sweep(tiny_sweep(), store=store)
        book_path, _ = write_book(store, fmt="html")
        assert book_path.name == "book.html"
        html = book_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<h2>" in html and "<pre>" in html
        # The table text survives inside the <pre> block (escaped).
        first_column_line = live.to_table().render().splitlines()[1]
        assert first_column_line in html
