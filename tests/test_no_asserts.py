"""Invariants in the package are real checks: no `assert` statement in `src/crsail/`.

`python -O` strips asserts, so a check written as one would vanish; each
invariant raises one of the package's exceptions instead.
"""

import ast
from pathlib import Path

import pytest

import crsail

MODULES = sorted(Path(crsail.__file__).parent.glob("*.py"))


def test_every_module_is_found():
    assert {m.name for m in MODULES} >= {"__init__.py", "trainer.py", "harness.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_assert(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"
