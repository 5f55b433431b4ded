"""Every ```python block of README.md runs, and every name of its "Key entry
points" list is exported, so the documented API cannot drift from the
library."""
from __future__ import annotations

import re
from pathlib import Path

import pytest

import cvargreedy

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_key_entry_points_are_exported():
    # the names in backticks before each bullet's first ": ", less any call
    section = README.read_text().split("Key entry points:\n", 1)[1].strip("\n")
    heads = re.findall(r"^- (.*?): ", section.split("\n\n", 1)[0], re.M)
    names = [re.match(r"\w+", code)[0] for head in heads
             for code in re.findall(r"`([^`]+)`", head)]
    assert len(names) >= len(heads) > 5
    assert [name for name in names if not hasattr(cvargreedy, name)] == []
