"""The core package stays pure standard library: every absolute import in
``src/twistedlie``, at module level or inside a function, names a standard
library module."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "twistedlie"
MODULES = sorted(SRC.glob("*.py"))


def _absolute_imports(path):
  """(line, dotted name) of every absolute import anywhere in the file."""
  for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
    if isinstance(node, ast.Import):
      for alias in node.names:
        yield node.lineno, alias.name
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
      yield node.lineno, node.module


def test_walk_sees_imports_inside_functions():
  assert (SRC / "loops.py") in MODULES
  assert "random" in {name for _, name in _absolute_imports(SRC / "loops.py")}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_core_imports_only_the_standard_library(path):
  outside = [(line, name) for line, name in _absolute_imports(path)
             if name.split(".")[0] not in sys.stdlib_module_names]
  assert not outside, "%s imports outside the standard library: %r" % (
      path.name, outside)
