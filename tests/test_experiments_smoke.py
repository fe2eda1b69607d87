"""Smoke tests for the experiment suite at reduced scale.

The full-scale experiments live in ``benchmarks/``; these tests verify
that every experiment runs, that a table which is a view shows nothing
but projections of the sweep's artifact rows, and that the cheap ones
already exhibit the paper's qualitative shape.
"""

import json

import pytest

from repro.harness.experiments import (
    _E2_SWEEP,
    ALL_EXPERIMENTS,
    VIEWS,
    experiment_e2,
    experiment_e6,
    experiment_e7,
    experiment_e8,
    experiment_e11,
)
from repro.harness.scenarios import run_sweep

#: Reduced-scale arguments for every experiment whose tables are views.
REDUCED = {
    "E1": dict(trials=1),
    "E2": dict(),
    "E3": dict(trials=1, sizes=(64, 128), quad_sizes=(16,)),
    "E5": dict(trials=1, fractions=(0.1, 0.3)),
    "E9": dict(trials=1),
    "E10": dict(trials=1),
    "E11": dict(trials=1),
}

E2_STDOUT = """\
E2 (Section 2 warmup) — Dolev–Reischuk attack
protocol         n   f   msgs into V  budget (f/2)²  starved p found  violation
---------------  --  --  -----------  -------------  ---------------  ---------
naive-broadcast  40  16  9            64             yes              yes
dolev-strong     24  10  95           25             no               no"""

E7_STDOUT = """\
E7 (Theorem 3) — hypothetical experiment Q --- 1 --- Q'
setup      n   Q outputs  Q' outputs  bridge  contradiction  Q' speakers (corruptions)  bridge rejections
---------  --  ---------  ----------  ------  -------------  -------------------------  -----------------
shared-ro  60  [0]        [1]         1       yes            59                         0
pki        24  [0]        [1]         0       no             21                         44"""


def _assert_stdout(rendered, pinned):
    """``rendered`` is ``pinned`` byte for byte, given that every line
    under the title is space-padded to the table's one width (which is
    all the pinned text, stripped of trailing blanks, leaves open)."""
    title, *body = rendered.split("\n")
    assert len({len(line) for line in body}) == 1
    assert [title] + [line.rstrip() for line in body] == pinned.split("\n")


def _scenario(rows, name):
    row, = (row for row in rows if row["scenario"] == name)
    return row


class TestExperimentRegistry:
    def test_all_twelve_registered(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 13)}

    def test_registry_values_are_callables(self):
        for experiment in ALL_EXPERIMENTS.values():
            assert callable(experiment)

    def test_every_view_is_checked_below(self):
        assert set(REDUCED) == set(VIEWS)


class TestViews:
    """A view cannot drift from the artifact: each cell of its table is
    the row's own value under the column's key, or the column's function
    of the row — and of nothing else."""

    @pytest.mark.parametrize("name", list(REDUCED))
    def test_cells_are_projections_of_the_rows(self, name):
        result = ALL_EXPERIMENTS[name](**REDUCED[name])
        json.dumps(result.rows)  # artifact rows: flat and JSON-safe
        assert len(result.tables) == len(VIEWS[name])
        for view, table in zip(VIEWS[name], result.tables):
            assert table.title == view.title
            shown = view.select(result.rows)
            assert shown, "a view that shows nothing checks nothing"
            assert len(table.rows) == len(shown)
            if view.columns is None:
                # A digest: its lines are what ``select`` made of the rows.
                assert table.rows == [list(line.values()) for line in shown]
                continue
            assert table.columns == list(view.columns)
            for row, line in zip(shown, table.rows):
                for (header, pick), cell in zip(view.columns.items(), line):
                    expected = row[pick] if isinstance(pick, str) \
                        else pick(row)
                    assert cell == expected, (name, header)

    def test_e1b_quantities_come_from_the_census_row(self):
        result = ALL_EXPERIMENTS["E1"](**REDUCED["E1"])
        census = _scenario(result.rows, "census")
        carried = set(census.values()) | {
            round(value) for value in census.values()
            if isinstance(value, float)}
        quantities = result.tables[1].rows
        assert len(quantities) == 6
        assert all(value in carried for _, value in quantities)

    def test_rows_are_the_sweep_artifact(self):
        assert experiment_e2().rows == run_sweep(_E2_SWEEP).rows()


class TestCheapExperiments:
    def test_e2_stdout_pinned(self):
        _assert_stdout(experiment_e2().render(), E2_STDOUT)

    def test_e7_stdout_pinned(self):
        _assert_stdout(experiment_e7().render(), E7_STDOUT)

    def test_e2_shape(self):
        rows = experiment_e2().rows
        assert _scenario(rows, "naive")["consistency_violated"]
        assert not _scenario(rows, "dolev-strong")["attack_feasible"]

    def test_e6_shape(self):
        result = experiment_e6(trials=2)
        rates = {row["scenario"]: row["consistency_rate"]
                 for row in result.rows}
        assert rates["round-no-erasure"] < rates["round-erasure"]
        assert rates["bit-specific"] == 1.0
        # The table's payload-read rates are the rows' own.
        assert [line[2] for line in result.tables[0].rows] == [
            rates["round-no-erasure"], rates["round-erasure"],
            rates["bit-specific"]]

    def test_e7_shape(self):
        rows = experiment_e7().rows
        assert _scenario(rows, "shared-ro")["contradiction"]
        assert not _scenario(rows, "pki")["contradiction"]

    def test_e8_measured_tracks_predicted(self):
        result = experiment_e8(samples=150)
        census, = result.rows
        lines = {line[0]: line[1:] for line in result.tables[0].rows}
        measured, predicted = lines["P[corrupt quorum ≥ λ/2]"]
        assert measured == census["corrupt_quorum_rate"]
        assert abs(measured - predicted) < 0.12
        measured, predicted = lines["P[good iteration]"]
        assert abs(measured - predicted) < 0.12

    def test_e11_worlds_agree(self):
        result = experiment_e11(trials=2)
        assert {row["mode"]: row["consistency_rate"]
                for row in result.rows} == {"fmine": 1.0, "vrf": 1.0}

    def test_tables_render_with_rows(self):
        result = experiment_e2()
        for table in result.tables:
            rendered = table.render()
            assert len(rendered.splitlines()) >= 4
