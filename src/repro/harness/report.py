"""Results book: a publishable document rendered from an experiment store.

Surveys of this literature (Cohen–Keidar–Naor's *Byzantine Agreement
with Less Communication*, Momose–Ren's *Optimal Communication Complexity
of Byzantine Agreement*) organize results as comparable tables across
regimes; this module renders our artifacts the same way.  Given a
populated :class:`~repro.harness.store.ExperimentStore`, it produces a
static Markdown (or HTML) **results book**: a provenance header (store
salt, schema, git describe, Python version), one section per recorded
sweep — description, completeness, content digest, and the metrics
table, built by the *same* row-to-table code the live
:class:`~repro.harness.scenarios.SweepResult` uses, so book tables match
live sweep tables exactly — plus, when a previous snapshot is supplied,
per-sweep deltas (cells added/removed, and a loud warning for any cell
whose fingerprint is unchanged but whose row differs, which indicates
nondeterminism or an overdue salt bump).

Alongside the book a machine-readable ``*.json`` snapshot is written;
pass it as the next run's ``--baseline`` to get the deltas.  Entry
point: ``python -m repro report`` (see ``docs/RESULTS.md``).
"""

from __future__ import annotations

import functools
import hashlib
import html as html_module
import json
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.harness.store import ExperimentStore
from repro.harness.sweep_library import SWEEPS
from repro.harness.tables import View, rows_to_table


@functools.lru_cache(maxsize=None)
def git_describe(root) -> str:
    """Best-effort ``git describe`` of the working tree, once per root per
    process (provenance only; "unknown" outside a repo or without git)."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=str(root), capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _sweep_digest(fingerprints: List[str]) -> str:
    """A short content digest over a sweep's cell fingerprints, in
    order — two stores recorded the same sweep iff the digests match."""
    joined = "\n".join(fingerprints)
    return hashlib.sha256(joined.encode("utf-8")).hexdigest()[:16]


def _presentation_order(names: List[str]) -> List[str]:
    """Known library sweeps in registration order (headline sweeps
    first), then anything else alphabetically."""
    rank = {name: index for index, name in enumerate(SWEEPS)}
    return sorted(names, key=lambda name: (rank.get(name, len(rank)), name))


def build_snapshot(store: ExperimentStore) -> Dict[str, Any]:
    """A machine-readable snapshot of every sweep recorded in the store
    (what ``--baseline`` consumes on the next run), in presentation
    order."""
    sweeps: Dict[str, Any] = {}
    for name in _presentation_order(store.sweep_names()):
        record = store.load_sweep(name)
        if record is None:
            continue
        # Rows aligned with the cell expansion (None = unavailable):
        # the sweep record's own rows carry run-time labels even when
        # two cells share a fingerprint; holes fall back to cell
        # records, so a section heals as concurrent shards land.
        rows = store.sweep_rows_aligned(name, record=record)
        sweeps[name] = {
            "description": record.get("description", ""),
            "recorded_at": record.get("recorded_at", ""),
            "salt": record.get("salt", ""),
            # Completeness is re-derived from row availability rather
            # than trusted from the sweep record: a later shard filling
            # in the missing cells heals the section, and a record
            # pruned by hand un-completes it.
            "complete": all(row is not None for row in rows),
            "cells": list(record["cells"]),
            "rows": rows,
        }
    return {
        "schema": store.SCHEMA,
        "salt": store.salt,
        "sweeps": sweeps,
    }


#: Row columns outside the cell fingerprint: labels the binding layer
#: records for display but whose underlying value is fingerprinted in
#: resolved form (``f_fraction`` resolves to ``f``; ``network``/
#: ``topology`` labels stand for structurally-fingerprinted values) or
#: not at all (``scenario``).  Baseline deltas ignore them — relabeling
#: must not read as a changed result.
_DISPLAY_ONLY_ROW_KEYS = frozenset(
    {"scenario", "f_fraction", "network", "topology"})


def _sweep_delta(current: Dict[str, Any],
                 baseline: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    """Compare one sweep's snapshot entry against a baseline entry.

    Membership is judged on the ``cells`` lists (the sweep's recorded
    expansion), not on which record files happen to be readable — a
    hand-pruned record must not masquerade as a removed cell.  ``changed``
    flags cells present in both whose rows differ ignoring the
    display-only columns (:data:`_DISPLAY_ONLY_ROW_KEYS` — row columns
    outside the fingerprint): a scenario rename or an equivalent
    relabeling must not trip the nondeterminism warning.
    """
    if baseline is None:
        return None

    def row_map(entry: Dict[str, Any]) -> Dict[str, Any]:
        return {fp: {key: value for key, value in row.items()
                     if key not in _DISPLAY_ONLY_ROW_KEYS}
                for fp, row in zip(entry.get("cells", []),
                                   entry.get("rows", []))
                if row is not None}

    current_cells = set(current["cells"])
    baseline_cells = set(baseline.get("cells", []))
    current_rows = row_map(current)
    baseline_rows = row_map(baseline)
    added = [fp for fp in current["cells"] if fp not in baseline_cells]
    removed = [fp for fp in baseline.get("cells", [])
               if fp not in current_cells]
    changed = [fp for fp in dict.fromkeys(current["cells"])
               if fp in baseline_cells
               and fp in current_rows and fp in baseline_rows
               and baseline_rows[fp] != current_rows[fp]]
    return {"added": added, "removed": removed, "changed": changed}


def _leader_comparison_rows(
        rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The ``leader-vs-quadratic`` words-vs-n digest: per system size,
    the leader family's words per decision next to quadratic BA's and
    the Dolev-Reischuk counting attack's Ω(f²) message floor."""
    by_n: Dict[Any, Dict[str, Any]] = {}
    for row in rows:
        n = row.get("n")
        if n is None:
            continue
        slot = by_n.setdefault(n, {})
        if row.get("scenario") == "leader-ba":
            slot["leader_words"] = row.get("mean_multicast_bits")
            slot["leader_views"] = row.get("mean_views_executed")
        elif row.get("scenario") == "quadratic":
            slot["quadratic_words"] = row.get("mean_multicast_bits")
        elif row.get("executor") == "dolev-reischuk":
            slot["dolev_reischuk_floor_msgs"] = row.get("message_budget")
    return [{"n": n, **slot}
            for n, slot in sorted(by_n.items()) if len(slot) > 1]


def _adaptive_comparison_rows(
        rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The ``words-vs-actual-f`` digest: per actual fault count f*, the
    adaptive family's total words (and escalation epochs) next to the
    non-adaptive baselines' words at the same ``(n, f)`` and the
    Dolev-Reischuk counting attack's Ω(f²) message floor.

    The baselines are multicast-only protocols, so their classical word
    count is ``mean_multicasts * (n - 1)`` (Definition 6); the adaptive
    rows carry their own ``mean_words`` column because the fast path is
    built from unicasts the multicast columns do not see.
    """
    by_k: Dict[Any, Dict[str, Any]] = {}
    floor_msgs: Any = None
    for row in rows:
        if row.get("executor") == "dolev-reischuk":
            floor_msgs = row.get("message_budget")
            continue
        k = row.get("adversary_actual")
        n = row.get("n")
        if k is None or n is None:
            continue
        slot = by_k.setdefault(k, {})
        scenario = row.get("scenario")
        if scenario == "adaptive-ba":
            slot["adaptive_words"] = row.get("mean_words")
            slot["escalations"] = row.get("mean_escalations")
        elif scenario == "quadratic":
            multicasts = row.get("mean_multicasts")
            if multicasts is not None:
                slot["quadratic_words"] = multicasts * (n - 1)
        elif scenario == "leader-ba":
            multicasts = row.get("mean_multicasts")
            if multicasts is not None:
                slot["leader_words"] = multicasts * (n - 1)
    digest = [{"actual_faults": k, **slot}
              for k, slot in sorted(by_k.items()) if len(slot) > 1]
    if floor_msgs is not None:
        for row in digest:
            row["dolev_reischuk_floor_msgs"] = floor_msgs
    return digest


#: The paper-shaped digests printed under a recorded sweep's own table,
#: by sweep name: views whose ``select`` folds the sweep's rows.
DIGESTS: Dict[str, Tuple[View, ...]] = {
    "leader-vs-quadratic": (View(
        "words-vs-n vs the Dolev-Reischuk line",
        select=_leader_comparison_rows,
        lead="Words per decision versus n — the leader family's happy "
             "path against quadratic BA, with the Dolev-Reischuk counting "
             "attack's Ω(f²) message floor at the same sizes:"),),
    "words-vs-actual-f": (View(
        "words-vs-actual-f vs the baselines",
        select=_adaptive_comparison_rows,
        lead="Total words versus the actual fault count f* — the adaptive "
             "family's O((f*+1)n) escalation curve against the "
             "non-adaptive baselines at the same (n, f), over the "
             "Dolev-Reischuk counting attack's Ω(f²) message floor:"),),
}


def render_book(store: ExperimentStore,
                baseline: Optional[Dict[str, Any]] = None,
                fmt: str = "md",
                live_refresh: Optional[int] = None,
                ) -> Tuple[str, Dict[str, Any]]:
    """Render the results book; returns ``(document, snapshot)``.

    ``fmt`` is ``"md"`` (GitHub-flavoured Markdown) or ``"html"`` (a
    self-contained page with the same content).  ``baseline`` is a
    snapshot dict from a previous run's ``*.json``.  ``live_refresh``
    (HTML only) adds a meta-refresh of that many seconds — the
    experiment service uses it to serve the book as a live page that
    tracks the store as jobs record cells.
    """
    if fmt not in ("md", "html"):
        raise ValueError(f"format must be 'md' or 'html', got {fmt!r}")
    snapshot = build_snapshot(store)
    generated_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    total_cells = sum(len(entry["cells"])
                      for entry in snapshot["sweeps"].values())

    lines: List[str] = []
    lines.append("# Results book — Communication Complexity of "
                 "Byzantine Agreement, Revisited")
    lines.append("")
    lines.append("Rendered from an experiment store snapshot "
                 "(see docs/RESULTS.md for the store and fingerprint "
                 "scheme).")
    lines.append("")
    lines.append("## Provenance")
    lines.append("")
    lines.append(f"- store: `{store.root}`")
    lines.append(f"- fingerprint salt: `{store.salt}` "
                 f"(schema {store.SCHEMA})")
    # Describe the tree the repro package was imported from, not the
    # CWD — `repro report` may run from anywhere.
    lines.append(f"- code version: "
                 f"`{git_describe(Path(__file__).resolve().parent)}`")
    lines.append(f"- python: {platform.python_version()}")
    lines.append(f"- generated: {generated_at}")
    lines.append(f"- sweeps: {len(snapshot['sweeps'])}, "
                 f"cells: {total_cells}")
    if baseline is not None:
        lines.append(f"- baseline salt: `{baseline.get('salt', '?')}`")
        if baseline.get("salt") != store.salt:
            lines.append("- **salt differs from baseline: every delta "
                         "below is across an invalidation boundary**")

    if not snapshot["sweeps"]:
        lines.append("")
        lines.append("*(empty store: run `python -m repro sweep NAME "
                     "--store ...` first)*")

    for name, entry in snapshot["sweeps"].items():
        lines.append("")
        lines.append(f"## sweep `{name}`")
        lines.append("")
        if entry["description"]:
            lines.append(entry["description"])
            lines.append("")
        status = "complete" if entry["complete"] else \
            "**partial** (cell rows unavailable)"
        lines.append(f"- cells: {len(entry['cells'])} ({status})")
        lines.append(f"- recorded: {entry['recorded_at']}")
        if entry["salt"] and entry["salt"] != store.salt:
            lines.append(f"- **STALE: recorded under salt "
                         f"`{entry['salt']}`, current salt is "
                         f"`{store.salt}` — these results predate an "
                         "invalidation; re-run the sweep**")
        lines.append(f"- digest: `{_sweep_digest(entry['cells'])}`")
        missing = sum(1 for row in entry["rows"] if row is None)
        if missing:
            lines.append(f"- **{missing} cell row(s) unavailable** "
                         "(unfinished shard run, or a record pruned "
                         "by hand)")
        delta = _sweep_delta(entry, (baseline or {}).get(
            "sweeps", {}).get(name))
        if delta is not None:
            lines.append(f"- delta vs baseline: {len(delta['added'])} "
                         f"added, {len(delta['removed'])} removed, "
                         f"{len(delta['changed'])} changed")
            if delta["changed"]:
                lines.append("- **WARNING: cells changed without a "
                             "fingerprint change — nondeterminism or an "
                             "overdue salt bump:**")
                for fingerprint in delta["changed"]:
                    lines.append(f"  - `{fingerprint}`")
        rows = [row for row in entry["rows"] if row is not None]
        lines += ["", "```text",
                  rows_to_table(f"sweep {name}", rows).render(), "```"]
        for digest in DIGESTS.get(name, ()):
            table = digest.table(rows)
            if table.rows:
                lines += ["", digest.lead, "",
                          "```text", table.render(), "```"]

    if baseline is not None:
        vanished = sorted(set(baseline.get("sweeps", {}))
                          - set(snapshot["sweeps"]))
        if vanished:
            lines.append("")
            lines.append("## Sweeps in baseline but not in this store")
            lines.append("")
            for name in vanished:
                lines.append(f"- `{name}`")

    document = "\n".join(lines) + "\n"
    if fmt == "html":
        document = _markdown_to_html(document, refresh_seconds=live_refresh)
    return document, snapshot


def _markdown_to_html(markdown: str,
                      refresh_seconds: Optional[int] = None) -> str:
    """Convert the restricted Markdown this module emits (headings,
    bullets, paragraphs, fenced text blocks, `code` spans) into a
    self-contained HTML page.  Not a general converter."""
    body: List[str] = []
    in_code = False
    in_list = False

    def close_list() -> None:
        nonlocal in_list
        if in_list:
            body.append("</ul>")
            in_list = False

    def inline(text: str) -> str:
        escaped = html_module.escape(text)
        for token, tag in (("**", "strong"), ("*", "em"), ("`", "code")):
            while escaped.count(token) >= 2:
                escaped = escaped.replace(token, f"<{tag}>", 1)
                escaped = escaped.replace(token, f"</{tag}>", 1)
        return escaped

    for line in markdown.splitlines():
        if line.startswith("```"):
            close_list()
            body.append("</pre>" if in_code else "<pre>")
            in_code = not in_code
            continue
        if in_code:
            body.append(html_module.escape(line))
            continue
        if line.startswith("## "):
            close_list()
            body.append(f"<h2>{inline(line[3:])}</h2>")
        elif line.startswith("# "):
            close_list()
            body.append(f"<h1>{inline(line[2:])}</h1>")
        elif line.startswith("- "):
            if not in_list:
                body.append("<ul>")
                in_list = True
            body.append(f"<li>{inline(line[2:])}</li>")
        elif line.startswith("  - ") and in_list:
            body.append(f"<li>&nbsp;&nbsp;{inline(line[4:])}</li>")
        elif not line.strip():
            close_list()
        else:
            close_list()
            body.append(f"<p>{inline(line)}</p>")
    close_list()
    refresh = ("" if refresh_seconds is None else
               f"<meta http-equiv=\"refresh\" "
               f"content=\"{int(refresh_seconds)}\">")
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            + refresh +
            "<title>Results book</title>"
            "<style>body{font-family:sans-serif;max-width:72em;"
            "margin:2em auto;padding:0 1em}pre{background:#f6f8fa;"
            "padding:1em;overflow-x:auto}</style></head><body>\n"
            + "\n".join(body) + "\n</body></html>\n")


def write_book(store: ExperimentStore,
               out_path=None,
               fmt: str = "md",
               baseline_path=None) -> Tuple[Path, Path]:
    """Render and write the book plus its JSON snapshot.

    ``out_path`` defaults to ``<store>/book.md`` (``book.html`` for
    ``fmt="html"``); the snapshot lands next to it with a ``.json``
    suffix.  Returns ``(book_path, snapshot_path)``.
    """
    baseline = None
    if baseline_path is not None:
        baseline = json.loads(Path(baseline_path).read_text(
            encoding="utf-8"))
        if (not isinstance(baseline, dict)
                or not isinstance(baseline.get("sweeps", {}), dict)
                or not all(isinstance(entry, dict) for entry
                           in baseline.get("sweeps", {}).values())):
            raise ValueError(
                f"baseline {baseline_path} is not a book snapshot "
                "(expected a JSON object with a 'sweeps' object)")
    if out_path is None:
        out_path = store.root / f"book.{'html' if fmt == 'html' else 'md'}"
    out_path = Path(out_path)
    document, snapshot = render_book(store, baseline=baseline, fmt=fmt)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(document, encoding="utf-8")
    snapshot_path = out_path.with_suffix(".json")
    if snapshot_path == out_path:
        # --out ending in .json would make the snapshot silently
        # overwrite the book itself.
        snapshot_path = out_path.with_suffix(".snapshot.json")
    snapshot_path.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return out_path, snapshot_path
