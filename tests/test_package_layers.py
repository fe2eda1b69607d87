"""The package layers of ``src/repro``, checked on the source.

A *unit* is a package under ``repro/`` or one of its top-level modules;
the root package's ``__init__`` is the unit ``repro``.  Every import of
a ``repro.*`` module must go from a unit to one below it in
:data:`LAYERS` (inside one unit anything goes).  Function-level imports
count — deferring an import hides a cycle, it does not remove one — and
an import under ``if TYPE_CHECKING:`` does not, because it never runs.
Nothing in ``src/`` resolves a dotted name at run time
(``importlib.import_module``, ``__import__``): that is an import this
scan could not see.  docs/ARCHITECTURE.md lists the same order.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Bottom first: a unit imports only units listed before it.
LAYERS = ("types", "errors", "rng", "serialization", "analysis", "crypto",
          "eligibility", "sim", "protocols", "adversaries", "lowerbounds",
          "harness", "cli", "__main__", "repro")

RESOLVERS = ("import_module", "__import__")


def _unit_of_path(path):
    relative = path.relative_to(SRC)
    if relative.parts == ("__init__.py",):
        return "repro"
    return relative.parts[0].removesuffix(".py")


def _unit_of_module(module):
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "repro"


def _is_type_checking(test):
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def imported_modules(tree):
    """``(line, module)`` for every absolute import in ``tree``, at any
    depth, except under ``if TYPE_CHECKING:``."""
    pending = [tree]
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            pending.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            yield node.lineno, node.module
            if node.module == "importlib":
                yield from ((node.lineno, f"importlib.{alias.name}")
                            for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def test_the_scan_sees_deferred_imports_and_skips_type_checking():
    tree = ast.parse("def f():\n    from repro.harness import runner\n"
                     "if TYPE_CHECKING:\n    import repro.cli\n"
                     "else:\n    import repro.sim\n")
    assert sorted(imported_modules(tree)) == [(2, "repro.harness"),
                                              (6, "repro.sim")]


def test_every_unit_is_declared():
    assert {_unit_of_path(path) for path, _ in _sources()} == set(LAYERS)


def test_every_repro_import_goes_down_the_layers():
    rank = {unit: index for index, unit in enumerate(LAYERS)}
    upward = []
    for path, tree in _sources():
        source = _unit_of_path(path)
        for line, module in imported_modules(tree):
            if module.split(".")[0] != "repro":
                continue
            target = _unit_of_module(module)
            if target != source and rank[target] >= rank[source]:
                upward.append(f"{path.relative_to(SRC)}:{line} "
                              f"{source} -> {target}")
    assert upward == []


def test_no_module_is_imported_by_name_at_run_time():
    resolving = []
    for path, tree in _sources():
        resolving.extend(
            f"{path.relative_to(SRC)}:{line} imports {module}"
            for line, module in imported_modules(tree)
            if module == "importlib.import_module")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                if name in RESOLVERS:
                    resolving.append(
                        f"{path.relative_to(SRC)}:{node.lineno} calls {name}")
    assert resolving == []
