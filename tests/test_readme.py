"""The README's Python example runs as written."""

from __future__ import annotations

import re

from conftest import REPO_ROOT


def test_readme_python_example_runs():
    text = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
