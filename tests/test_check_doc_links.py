"""Tests for scripts/check_doc_links.py, the docs job's repo checker."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_doc_links.py"


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location("check_doc_links", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(root, relative, text):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


class TestSrcLineCeiling:
    def test_at_the_ceiling_is_fine(self, checker):
        assert checker.ceiling_problem(100, ceiling=100) is None

    def test_over_the_ceiling_fails(self, checker):
        assert checker.ceiling_problem(101, ceiling=100).startswith(
            "OVER CEILING")

    def test_under_the_ceiling_fails_and_names_the_new_count(self, checker):
        """The ratchet: a PR that ends below the ceiling lowers it."""
        problem = checker.ceiling_problem(90, ceiling=100)
        assert problem.startswith("UNDER CEILING")
        assert problem.endswith("lower SRC_LINE_CEILING to 90")

    def test_counts_every_line_of_every_py_file(self, checker, tmp_path):
        _write(tmp_path, "src/a.py", "x = 1\n\n# comment\n")
        _write(tmp_path, "src/pkg/b.py", '"""doc"""\n')
        _write(tmp_path, "src/notes.txt", "not python\n")
        assert checker.src_line_count(tmp_path) == 4


class TestLinksAndCitations:
    def test_broken_relative_link_is_named(self, checker, tmp_path):
        _write(tmp_path, "docs/A.md", "[ok](B.md) [gone](C.md#x) "
                                      "[web](https://example.org) [a](#top)")
        _write(tmp_path, "docs/B.md", "")
        assert list(checker.broken_links(tmp_path)) == [
            (Path("docs/A.md"), "C.md#x")]

    def test_missing_required_link_is_named(self, checker, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(checker, "REQUIRED_LINKS",
                            (("README.md", "docs/A.md"),
                             ("README.md", "docs/B.md")))
        _write(tmp_path, "README.md", "[a](docs/A.md)")
        _write(tmp_path, "docs/A.md", "")
        _write(tmp_path, "docs/B.md", "")
        assert list(checker.missing_required_links(tmp_path)) == [
            ("README.md", "docs/B.md")]

    def test_dead_citation_is_named_and_a_path_tail_answers(self, checker,
                                                            tmp_path):
        _write(tmp_path, "docs/PROTOCOLS.md", "")
        _write(tmp_path, "src/m.py", "# see PROTOCOLS.md and docs/GONE.md\n"
                                     "ROUTE = '/book.md'\n")
        assert list(checker.dead_citations(tmp_path)) == [
            (str(Path("src/m.py")) + ":1", "docs/GONE.md")]

    def test_a_cited_test_file_must_exist(self, checker, tmp_path):
        """A ``tests/…py`` path in a ``src/`` docstring or a docs page
        is dead until the file exists; a test id's ``::`` tail is not
        part of the path, and a page outside ``docs/`` is not read."""
        _write(tmp_path, "src/m.py", '"""See tests/reference.py."""\n')
        _write(tmp_path, "docs/A.md", "\n`tests/test_gone.py::TestX` and "
                                      "`tests/test_kept.py`\n")
        _write(tmp_path, "tests/test_kept.py", "")
        _write(tmp_path, "README.md", "tests/test_elsewhere.py\n")
        assert list(checker.dead_citations(tmp_path)) == [
            (str(Path("src/m.py")) + ":1", "tests/reference.py"),
            (str(Path("docs/A.md")) + ":2", "tests/test_gone.py")]
        _write(tmp_path, "tests/reference.py", "")
        _write(tmp_path, "tests/test_gone.py", "")
        assert list(checker.dead_citations(tmp_path)) == []


class TestChangesCap:
    def test_only_entries_from_the_cap_pr_on_are_held_to_it(self, checker,
                                                            tmp_path):
        long = "x" * checker.CHANGES_CAP
        first = checker.CHANGES_CAP_FROM_PR
        _write(tmp_path, "CHANGES.md",
               f"PR {first - 1}: {long}\n\nPR {first}: {long}\n\n"
               f"PR {first + 1}: short\n")
        assert [number for number, _ in
                checker.oversized_changes_entries(tmp_path)] == [first]
