from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = REPO_ROOT / "fixtures"

SRC = REPO_ROOT / "src"

# Make `import oracles` work regardless of how pytest was invoked.
if str(TESTS_DIR) not in sys.path:
    sys.path.insert(0, str(TESTS_DIR))

from spdom import parse_domain_file  # noqa: E402

# Filled by tests/test_acceptance.py; printed at the end of the run.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def run_python(args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python *args`` in a child process with ``src`` first on its
    ``PYTHONPATH``, so the child imports this checkout without an install."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], env=env, **kwargs)


def run_spdom(args, **kwargs) -> subprocess.CompletedProcess:
    """Run ``python -m spdom *args`` as :func:`run_python` does."""
    return run_python(["-m", "spdom", *args], **kwargs)


def _load(name: str):
    return parse_domain_file((FIXTURES / name).read_text())


@pytest.fixture(scope="session")
def ex1_spec():
    return _load("ex1.spdom")


@pytest.fixture(scope="session")
def ex2_spec():
    return _load("ex2.spdom")


@pytest.fixture(scope="session")
def sp3_spec():
    return _load("single_peaked3.spdom")


@pytest.fixture(scope="session")
def uni3_spec():
    return _load("universal3.spdom")


@pytest.fixture
def cli(capsys):
    """Run one CLI invocation in-process; returns (exit_code, stdout, stderr)."""
    from spdom.cli import run_command

    def run(*args: str):
        code = run_command(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run
