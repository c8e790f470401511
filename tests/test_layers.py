"""The package's two import layers, each checked in a fresh interpreter.

The domain layer (``prefcore``, ``classify``, ``domfile``) loads with
``spdom``; the rule layer (``rules``, ``counting``, ``orbits``, ``twostep``)
and the rule commands' handlers (``rulecli``) load only in the commands that
run them, and the package serves the rule layer's names on first use.
Of the standard library, ``json`` and ``decimal`` load only where they are
used, and ``dataclasses`` (with ``inspect``) not at all.
"""

from __future__ import annotations

import json

import pytest
from conftest import FIXTURES, run_python
from spdom import constant_rule, parse_domain_file, serialize_rule

RULE_LAYER = {"spdom.rules", "spdom.counting", "spdom.orbits", "spdom.twostep", "spdom.rulecli"}

# Runs the CLI invocation given as arguments (none: only imports the CLI) with
# its report sent to --out (enumerate-sp and search-two-step write their files
# there and print the report), then prints as its last line the spdom modules
# it loaded.
LOADED = """
import json, sys
import spdom.cli
if sys.argv[1:]:
    assert spdom.cli.run_command(sys.argv[1:]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.startswith("spdom"))))
"""


def _loaded(*argv: str) -> set[str]:
    done = run_python(["-c", LOADED, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("classify", "--format", "text"),
        ("classify", "--format", "json", "--scan", "reversed"),
        ("closure", "--format", "text"),
        ("closure", "--format", "json"),
        ("partition", "--format", "text"),
        ("partition", "--format", "json"),
    ],
    ids=" ".join,
)
def test_domain_commands_leave_out_the_rule_layer(argv, tmp_path):
    if argv:
        argv = (*argv, "--domain", str(FIXTURES / "ex1.spdom"), "--out", str(tmp_path / "r"))
    loaded = _loaded(*argv)
    assert {"spdom.cli", "spdom.classify", "spdom.domfile", "spdom.prefcore"} <= loaded
    assert loaded & RULE_LAYER == set()


# The rule-layer modules each rule command loads besides rulecli.
RULE_COMMANDS = {
    "check-rule": "rules",
    "count-subrules": "rules counting",
    "enumerate-sp": "rules counting",
    "verify-theorem": "rules counting orbits",
    "decompose": "rules counting twostep",
    "search-two-step": "rules counting twostep",
}


@pytest.mark.parametrize("command", RULE_COMMANDS)
def test_rule_command_loads_only_its_modules(command, tmp_path):
    domain = FIXTURES / "single_peaked3.spdom"
    rule = tmp_path / "constant.rule"
    pd = parse_domain_file(domain.read_text()).product
    rule.write_text(serialize_rule(constant_rule(pd, 0)))
    argv = {
        "check-rule": ["--domain", str(domain), "--rule", str(rule)],
        "decompose": ["--domain", str(domain), "--rule", str(rule)],
        "verify-theorem": ["--family", "nonconditional-pairs", "--m", "2", "--agents", "2"],
    }.get(command, ["--domain", str(domain)])
    loaded = _loaded(command, *argv, "--out", str(tmp_path / "r"))
    expected = {"spdom.rulecli", *(f"spdom.{m}" for m in RULE_COMMANDS[command].split())}
    assert loaded & RULE_LAYER == expected


# Runs the CLI invocation given as arguments (none: only imports the CLI),
# then prints as its last line which of these standard modules it loaded,
# itself loading none of them.
STDLIB_LOADED = """
import sys
before = set(sys.modules)
import spdom.cli
if sys.argv[1:]:
    assert spdom.cli.run_command(sys.argv[1:]) == 0
print("loaded:", *sorted({"dataclasses", "inspect", "json", "decimal"} & set(sys.modules) - before))
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        ((), "loaded:"),
        (("classify",), "loaded:"),
        (("count-subrules",), "loaded:"),
        (("search-two-step", "--budget", "60"), "loaded:"),
        (("classify", "--format", "json"), "loaded: json"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_text_commands_leave_out_json_decimal_and_dataclasses(argv, expected):
    if argv:
        argv = (*argv, "--domain", str(FIXTURES / "ex1.spdom"))
    done = run_python(["-c", STDLIB_LOADED, *argv], capture_output=True, text=True)
    assert (done.returncode, done.stdout.splitlines()[-1], done.stderr) == (0, expected, "")


SURFACE = """
import importlib, sys
import spdom

assert set(spdom.__all__) <= set(dir(spdom))
names = {}
exec("from spdom import " + ", ".join(spdom.__all__), names)
assert all(names[name] is getattr(spdom, name) for name in spdom.__all__)
for name, module in spdom._LAZY.items():
    assert names[name] is getattr(importlib.import_module("spdom." + module), name), name

from spdom.cli import run_command

for command in ("classify", "count-subrules"):
    assert run_command([command, "--domain", sys.argv[1], "--out", sys.argv[2]]) == 0
assert spdom.classify is sys.modules["spdom.classify"].classify

try:
    spdom.no_such_name
except AttributeError as err:
    assert str(err) == "module 'spdom' has no attribute 'no_such_name'", err
else:
    raise AssertionError("spdom.no_such_name resolved")
"""


def test_package_surface(tmp_path):
    argv = ["-c", SURFACE, str(FIXTURES / "ex1.spdom"), str(tmp_path / "r")]
    done = run_python(argv, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
