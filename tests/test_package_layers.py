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

Every module must also be *reached* from a command's entry point
(:data:`ENTRY_POINTS`) by the same scan, or named in :data:`UNREACHED`
with the reason it stays.  The scan counts names: a name taken from a
package reaches the module the package's ``__init__`` re-exports it
from, and no other module that ``__init__`` re-exports.  Code no
command reaches feeds no claim, so it does not belong in ``src/``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Bottom first: a unit imports only units listed before it.
LAYERS = ("types", "errors", "rng", "serialization", "analysis", "crypto",
          "eligibility", "sim", "protocols", "adversaries", "lowerbounds",
          "harness", "cli", "__main__", "repro")

RESOLVERS = ("import_module", "__import__")

#: The modules a ``repro`` command starts from.
ENTRY_POINTS = ("repro.cli", "repro.__main__")

#: Modules no entry point reaches, each with the ROADMAP item that
#: either gives it a command or deletes it.
UNREACHED = {
    "repro.harness.invariants":
        "test-only transcript checks; item 2 (c)'s explorer runs them",
    "repro.harness.replay":
        "test-only narratives; item 5 (b)'s `repro explain` prints them",
    "repro.harness.profiling":
        "bench/proxies.py imports it (it books the loop's observer "
        "stamps); it stays until ROADMAP item 6 unfreezes bench/",
    "repro.adversaries.adaptive_committee":
        "an example and tests run it; item 4's claimed-model matrix runs "
        "it as an attack outside static-committee's claim",
    "repro.analysis.complexity":
        "only tests read its predictions; item 11's ledger states them "
        "as the bounds beside the measured rows",
}


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
    depth, except under ``if TYPE_CHECKING:``; a name a ``from`` import
    takes is yielded as ``module.name``, which may or may not be a
    module."""
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
            yield from ((node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"))


def _module_name(path):
    parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _with_packages(module):
    """``module`` and the packages an import of it runs first."""
    parts = module.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


def _reexports(module, tree, trees):
    """The top-level ``from`` imports of ``module`` that take no module,
    when it is a package ``__init__``, and ``{package.name: module.name}``
    for the names they re-export."""
    statements, names = [], {}
    if any(other.startswith(module + ".") for other in trees):
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                taken = {f"{module}.{alias.asname or alias.name}":
                         f"{node.module}.{alias.name}" for alias in node.names}
                if not set(taken.values()) & set(trees):
                    statements.append(node)
                    names.update(taken)
    return statements, names


def reached_modules(trees, entry_points=ENTRY_POINTS):
    """The modules in ``trees`` (module name -> AST) that importing
    ``entry_points`` reaches, counting names: a package ``__init__``'s
    re-export reaches the module it takes a name from only when a
    reached module takes that name from the package."""
    reexported, runs = {}, {}
    for module, tree in trees.items():
        statements, names = _reexports(module, tree, trees)
        reexported.update(names)
        body = [node for node in tree.body if node not in statements]
        runs[module] = [imported for _, imported in imported_modules(
            ast.Module(body=body, type_ignores=[]))]
    seen = set()
    pending = [name for entry in entry_points
               for name in _with_packages(entry)]
    while pending:
        name = pending.pop()
        if name in seen:
            continue
        seen.add(name)
        if name in reexported:
            pending.extend(_with_packages(reexported[name]))
        for imported in runs.get(name, ()):
            pending.extend(_with_packages(imported))
    return seen & set(trees)


def test_the_scan_sees_deferred_imports_and_skips_type_checking():
    tree = ast.parse("def f():\n    from repro.harness import runner\n"
                     "if TYPE_CHECKING:\n    import repro.cli\n"
                     "else:\n    import repro.sim\n")
    assert sorted(imported_modules(tree)) == [(2, "repro.harness"),
                                              (2, "repro.harness.runner"),
                                              (6, "repro.sim")]


def test_the_closure_follows_packages_and_from_imported_modules():
    trees = {name: ast.parse(text) for name, text in {
        "repro": "",
        "repro.cli": "from repro.sim import engine, Simulation\n"
                     "def main():\n    import repro.harness.runner\n",
        "repro.sim": "",
        "repro.sim.engine": "",
        "repro.harness": "",
        "repro.harness.runner": "",
        "repro.harness.unused": "",
        "repro.typed": "if TYPE_CHECKING:\n    import repro.harness.unused\n",
    }.items()}
    assert reached_modules(trees, ("repro.cli",)) == {
        "repro", "repro.cli", "repro.sim", "repro.sim.engine",
        "repro.harness", "repro.harness.runner"}
    assert "repro.harness.unused" not in reached_modules(
        trees, ("repro.typed",))


def closure_mismatch(trees, allowlist, entry_points=ENTRY_POINTS):
    """``(stray, stale)``: unreached modules ``allowlist`` does not
    name, and entries that are reached or not in ``trees`` at all."""
    unreached = set(trees) - reached_modules(trees, entry_points)
    return (sorted(unreached - set(allowlist)),
            sorted(set(allowlist) - unreached))


def _toy_tree(**extra):
    sources = {"repro": "", "repro.cli": "import repro.sim.engine\n",
               "repro.sim": "", "repro.sim.engine": "",
               "repro.sim.spare": "", **extra}
    return {name: ast.parse(text) for name, text in sources.items()}


def test_the_closure_check_names_a_module_nothing_reaches():
    assert closure_mismatch(_toy_tree(), {}, ("repro.cli",)) == (
        ["repro.sim.spare"], [])
    assert closure_mismatch(_toy_tree(), {"repro.sim.spare": "why"},
                            ("repro.cli",)) == ([], [])


def test_the_closure_check_drops_an_entry_once_it_is_reached():
    trees = _toy_tree(**{"repro.sim.engine": "from repro.sim import spare\n"})
    assert closure_mismatch(trees, {"repro.sim.spare": "why"},
                            ("repro.cli",)) == ([], ["repro.sim.spare"])


def test_the_closure_check_drops_an_entry_once_it_is_deleted():
    assert closure_mismatch(_toy_tree(), {"repro.sim.spare": "why",
                                          "repro.sim.gone": "why"},
                            ("repro.cli",)) == ([], ["repro.sim.gone"])


def test_a_package_init_runs_before_its_submodule():
    trees = _toy_tree(**{"repro.sim": "from repro.sim import spare\n"})
    assert closure_mismatch(trees, {}, ("repro.cli",)) == ([], [])


def test_a_reexport_reaches_only_the_names_taken_from_the_package():
    trees = _toy_tree(**{
        "repro.cli": "from repro.sim import run\n",
        "repro.sim": "from repro.sim.engine import run\n"
                     "from repro.sim.spare import Spare as Unused\n"})
    assert closure_mismatch(trees, {}, ("repro.cli",)) == (
        ["repro.sim.spare"], [])
    trees["repro.cli"] = ast.parse("from repro.sim import run, Unused\n")
    assert closure_mismatch(trees, {}, ("repro.cli",)) == ([], [])


def test_every_allowlist_entry_gives_its_roadmap_item():
    assert all("item " in reason for reason in UNREACHED.values())


def test_the_entry_points_exist():
    modules = {_module_name(path) for path, _ in _sources()}
    assert set(ENTRY_POINTS) <= modules


def test_every_module_is_reached_or_allowlisted():
    trees = {_module_name(path): tree for path, tree in _sources()}
    stray, stale = closure_mismatch(trees, UNREACHED)
    assert stray == [], f"no command reaches {stray}"
    # An entry that is reached, or gone, leaves the allowlist with it.
    assert stale == [], f"UNREACHED lists reached or missing {stale}"


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
