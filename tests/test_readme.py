"""The README's Python example runs as written."""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re

from conftest import REPO_ROOT


def test_readme_python_example_runs():
    text = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def _readme_names(kind: str) -> list[str]:
    """The names the README lists in its sentence "The <kind> are ...",
    leaving out what its parentheses say of them."""
    text = " ".join((REPO_ROOT / "README.md").read_text().split())
    sentence = re.search(rf"The {kind} are (.*?)\.(?: |$)", text).group(1)
    return re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", sentence))


def _classes_based_on(base: str) -> list[str]:
    """The public classes in ``src/spdom`` with ``base`` among their bases."""
    names = []
    for path in sorted((REPO_ROOT / "src" / "spdom").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.ClassDef)
                and not node.name.startswith("_")
                and any(isinstance(b, ast.Name) and b.id == base for b in node.bases)
            ):
                names.append(node.name)
    return names


def test_readme_type_lists_match_the_source():
    assert sorted(_readme_names("records")) == sorted(_classes_based_on("NamedTuple"))
    assert sorted(_readme_names("value types")) == sorted(_classes_based_on("_Value"))


def test_library_tour_names_exist():
    # Every bare name the "Library tour" table puts in backticks is a spdom
    # module, a command, or an attribute of a spdom module or of a class
    # defined in one.
    import spdom
    from spdom.cli import _COMMANDS

    text = (REPO_ROOT / "README.md").read_text()
    table = re.search(r"^## Library tour\n\n((?:\|.*\n)+)", text, flags=re.MULTILINE).group(1)
    names = {info.name for info in pkgutil.iter_modules(spdom.__path__)}
    known = {*names, *_COMMANDS}
    for module in (spdom, *(importlib.import_module(f"spdom.{name}") for name in names)):
        for name, value in vars(module).items():
            known.add(name)
            if isinstance(value, type) and value.__module__ == module.__name__:
                known.update(dir(value))
    assert sorted(set(re.findall(r"`(\w+)`", table)) - known) == []
