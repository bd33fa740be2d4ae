"""Module boundaries: a rule that crosses modules has one public owner, so no module of the
package imports another's private (`_`-prefixed) name."""
import ast
from pathlib import Path

import pytest

import rough_scl

SRC = Path(rough_scl.__file__).parent
EXEMPT = {"__version__"}


def private_imports(source: str) -> list[str]:
    """`module:name` for each `_`-prefixed name, but `__version__`, that a relative import brings in."""
    return [f"{node.module or '.'}:{alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_") and alias.name not in EXEMPT]


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_no_private_name_crosses_a_module(module):
    assert private_imports((SRC / module).read_text()) == []


def test_the_guard_sees_a_private_name():
    source = ("from . import __version__, paths\n"
              "from .solver import _TIME_ATOL, step\nfrom .fluxes import _real_roots as roots\n")
    assert private_imports(source) == ["solver:_TIME_ATOL", "fluxes:_real_roots"]
