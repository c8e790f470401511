"""Every name a package or test module imports is used in that module, every
function, class and method the package defines is referenced somewhere in the
package, the package's modules import each other without a cycle, and only
the functions that start guarded work take the profile guard.

``__init__.py`` is skipped: its imports are the package's re-exports, and a
re-export alone does not make a definition used.
"""

from __future__ import annotations

import ast
import graphlib

from conftest import REPO_ROOT

PACKAGE = REPO_ROOT / "src" / "spdom"
TESTS = REPO_ROOT / "tests"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names referenced anywhere in ``tree``, quoted annotations included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def _parsed(paths) -> dict[str, ast.Module]:
    """Path relative to the repo -> parsed tree of each file in ``paths``."""
    paths = sorted(paths)
    assert paths
    return {
        str(p.relative_to(REPO_ROOT)): ast.parse(p.read_text(), filename=str(p)) for p in paths
    }


def _modules() -> dict[str, ast.Module]:
    """Parsed tree of every package module but ``__init__.py``."""
    return _parsed(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _definitions(tree: ast.Module):
    """Name and line of every function, class and method in ``tree``, dunders
    excepted."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno


def test_no_unused_imports():
    unused = []
    for name, tree in {**_modules(), **_parsed(TESTS.glob("*.py"))}.items():
        used = _used(tree)
        unused.extend(
            f"{name}:{line}: {imported}"
            for imported, line in _imported(tree).items()
            if imported not in used
        )
    assert unused == []


def test_every_definition_is_referenced():
    modules = _modules()
    referenced: set[str] = set()
    for tree in modules.values():
        referenced |= _used(tree)
        referenced.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    unreferenced = [
        f"{name}:{line}: {defined}"
        for name, tree in modules.items()
        for defined, line in _definitions(tree)
        if defined not in referenced
    ]
    assert unreferenced == []


def test_cli_imports_only_public_names():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    private = [
        f"cli.py:{node.lineno}: {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("spdom"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def _relative_imports(tree: ast.Module) -> set[str]:
    """The sibling modules ``tree`` imports relatively, wherever the import
    stands: at module level, in a function or under ``TYPE_CHECKING``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


def test_no_import_cycles():
    # cli loads rulecli when a rule command runs, and rulecli imports cli's helpers.
    lazy = {("cli", "rulecli")}
    trees = {name.rsplit("/", 1)[-1][:-3]: tree for name, tree in _modules().items()}
    graph = {
        name: {t for t in _relative_imports(tree) & trees.keys() if (name, t) not in lazy}
        for name, tree in trees.items()
    }
    cycle = None
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as err:
        cycle = err.args[1]
    assert cycle is None


def _functions(body, prefix: str):
    """Qualified name and node of every function in ``body``, nested ones
    and methods included."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{node.name}"
            if not isinstance(node, ast.ClassDef):
                yield name, node
            yield from _functions(node.body, name)


def test_only_guarded_work_takes_max_profiles():
    # The profile guard is checked where guarded work starts, never as a
    # defaulted parameter of a scan over a rule the caller already holds.
    takers = sorted(
        qualified
        for name, tree in _modules().items()
        for qualified, node in _functions(tree.body, name.rsplit("/", 1)[-1][:-3])
        if "max_profiles" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
    )
    assert takers == [
        "counting.enumerate_sp_rules",
        "orbits.ProductFamily.first_over",
        "orbits.verify_impossibility",
        "rules._check_profile_guard",
    ]
