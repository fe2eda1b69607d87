"""Check intra-repo markdown links.

Scans every ``*.md`` file in the repository for markdown links
``[text](target)`` and verifies that each relative target resolves to an
existing file or directory (anchors are stripped; external ``http(s)``,
``mailto`` and pure-anchor links are skipped).  Additionally enforces
the documentation graph in :data:`REQUIRED_LINKS`: pages that must
cross-link each other (e.g. the protocol reference ``docs/PROTOCOLS.md``
must be reachable from the README and the architecture/network pages),
the length cap on ``CHANGES.md`` entries (:data:`CHANGES_CAP`) and the
ceiling on the line count of ``src/`` (:data:`SRC_LINE_CEILING`).
Exits non-zero listing every broken or missing link, every oversized
entry and a ``src/`` over its ceiling — run once in CI, by the docs job.

Usage::

    python scripts/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown links; deliberately simple — no reference-style links
#: or images are used in this repo's docs.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "node_modules"}

#: The guaranteed documentation graph: ``(source, target)`` pairs, both
#: repo-relative, where ``source`` must contain a markdown link that
#: resolves to ``target``.  Keeps the cross-linking contract of the
#: docs pass from silently rotting (a page can exist yet be orphaned).
REQUIRED_LINKS = (
    ("README.md", "docs/PROTOCOLS.md"),
    ("README.md", "docs/ARCHITECTURE.md"),
    ("README.md", "docs/RESULTS.md"),
    ("docs/ARCHITECTURE.md", "docs/PROTOCOLS.md"),
    ("docs/ARCHITECTURE.md", "docs/RESULTS.md"),
    ("docs/NETWORK.md", "docs/PROTOCOLS.md"),
    ("docs/NETWORK.md", "docs/PERFORMANCE.md"),
    ("docs/PERFORMANCE.md", "docs/NETWORK.md"),
    ("docs/SCENARIOS.md", "docs/PROTOCOLS.md"),
    ("docs/SCENARIOS.md", "docs/RESULTS.md"),
    ("docs/PROTOCOLS.md", "docs/NETWORK.md"),
    ("docs/PROTOCOLS.md", "docs/SCENARIOS.md"),
    ("docs/RESULTS.md", "docs/SCENARIOS.md"),
    ("docs/RESULTS.md", "docs/PERFORMANCE.md"),
    ("docs/ARCHITECTURE.md", "docs/PERFORMANCE.md"),
    ("docs/PERFORMANCE.md", "docs/ARCHITECTURE.md"),
    # The service/backend pass: the store page documents the service
    # and its backends, so it must stay wired to the pages that explain
    # what the cells contain — and the README must reach it from the
    # service quickstart.
    ("README.md", "docs/SCENARIOS.md"),
    ("README.md", "docs/NETWORK.md"),
    ("docs/RESULTS.md", "docs/ARCHITECTURE.md"),
    ("docs/RESULTS.md", "docs/NETWORK.md"),
    ("docs/RESULTS.md", "docs/PROTOCOLS.md"),
    # The leader-family pass: the protocol reference's leader section
    # points at the results book (where leader-vs-quadratic renders the
    # words-vs-n comparison) and at the module map it slots into.
    ("docs/PROTOCOLS.md", "docs/RESULTS.md"),
    ("docs/PROTOCOLS.md", "docs/ARCHITECTURE.md"),
    # The adaptive-family pass: the scenario schema's network/topology
    # bindings (which the words-vs-actual-f cells ride on) and the
    # network page's scenario pointer must stay mutually reachable.
    ("docs/SCENARIOS.md", "docs/NETWORK.md"),
    ("docs/NETWORK.md", "docs/SCENARIOS.md"),
)


#: A CHANGES.md entry — a ``PR <n>...:`` line plus its continuation
#: lines — may run to this many characters, from this PR on (earlier
#: entries are grandfathered).  The next session reads the whole file.
CHANGES_CAP = 600
CHANGES_CAP_FROM_PR = 17
ENTRY_RE = re.compile(r"^PR (\d+)\b", re.MULTILINE)


#: ``src/**/*.py`` may hold this many lines (code, comments and
#: docstrings alike): the count the tree stood at when PR 20 ended.  The
#: ROADMAP tracks it as a metric that should fall; a PR that must raise
#: it raises the ceiling in the same change and says why in CHANGES.md.
#: Lower it whenever a PR ends below.
SRC_LINE_CEILING = 17545


def src_line_count(root: Path) -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (root / "src").rglob("*.py"))


def oversized_changes_entries(root: Path):
    path = root / "CHANGES.md"
    if not path.exists():
        return
    text = path.read_text(encoding="utf-8")
    starts = list(ENTRY_RE.finditer(text))
    ends = [match.start() for match in starts[1:]] + [len(text)]
    for match, end in zip(starts, ends):
        length = len(text[match.start():end].strip())
        if int(match.group(1)) >= CHANGES_CAP_FROM_PR and length > CHANGES_CAP:
            yield int(match.group(1)), length


def iter_markdown(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(part for part in path.parts):
            yield path


def broken_links(root: Path):
    for md_file in iter_markdown(root):
        text = md_file.read_text(encoding="utf-8")
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (md_file.parent / relative).resolve()
            if not resolved.exists():
                yield md_file.relative_to(root), target


def missing_required_links(root: Path):
    for source, target in REQUIRED_LINKS:
        source_path = root / source
        if not source_path.exists():
            yield source, target
            continue
        text = source_path.read_text(encoding="utf-8")
        wanted = (root / target).resolve()
        for match in LINK_RE.finditer(text):
            raw = match.group(1)
            if raw.startswith(SKIP_PREFIXES):
                continue
            relative = raw.split("#", 1)[0]
            if relative and (source_path.parent / relative).resolve() \
                    == wanted:
                break
        else:
            yield source, target


def main() -> int:
    root = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 \
        else Path(__file__).resolve().parent.parent
    broken = list(broken_links(root))
    for md_file, target in broken:
        print(f"BROKEN {md_file}: ({target})")
    missing = list(missing_required_links(root))
    for source, target in missing:
        print(f"MISSING {source}: required link to {target}")
    oversized = list(oversized_changes_entries(root))
    for number, length in oversized:
        print(f"OVERSIZED CHANGES.md: the PR {number} entry is {length} "
              f"characters (cap {CHANGES_CAP})")
    src_lines = src_line_count(root)
    over_ceiling = src_lines > SRC_LINE_CEILING
    if over_ceiling:
        print(f"OVER CEILING src/: {src_lines} lines of *.py against "
              f"SRC_LINE_CEILING = {SRC_LINE_CEILING}; delete as much as "
              f"was added, or raise the ceiling and say why in CHANGES.md")
    checked = sum(1 for _ in iter_markdown(root))
    if broken or missing or oversized or over_ceiling:
        print(f"{len(broken)} broken and {len(missing)} missing required "
              f"link(s) across {checked} markdown file(s); "
              f"{len(oversized)} CHANGES.md entries over the cap; "
              f"src/ at {src_lines} of {SRC_LINE_CEILING} lines")
        return 1
    print(f"all intra-repo links resolve across {checked} markdown file(s); "
          f"{len(REQUIRED_LINKS)} required cross-links present; "
          f"src/ at {src_lines} of {SRC_LINE_CEILING} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
