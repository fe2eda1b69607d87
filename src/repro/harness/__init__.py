"""Experiment harness: runners, the scenario-matrix sweep layer, the
persistent experiment store / results book, and the experiment tables
(E1–E12)."""

from repro.harness.report import render_book, write_book
from repro.harness.runner import run_instance, run_trials, TrialStats
from repro.harness.scenarios import (
    Cell,
    CellResult,
    ScenarioSpec,
    SweepResult,
    SweepSpec,
    run_sweep,
)
from repro.harness.store import (
    STORE_SALT,
    ExperimentStore,
    cell_fingerprint,
    parse_shard,
)
from repro.harness.tables import Table, rows_to_table

__all__ = [
    "run_instance",
    "run_trials",
    "TrialStats",
    "Table",
    "rows_to_table",
    "Cell",
    "CellResult",
    "ScenarioSpec",
    "SweepResult",
    "SweepSpec",
    "run_sweep",
    "STORE_SALT",
    "ExperimentStore",
    "cell_fingerprint",
    "parse_shard",
    "render_book",
    "write_book",
]
