"""Every public name in ``src/twistedlie`` has a caller: each public
module-level function, class and constant, and each public method of those
classes, is referenced from ``src/``, ``demos/`` or ``perfbench/`` outside
its own definition.  A reference is an AST name, an attribute, or a part of
a string made of dotted identifiers (the benchmark names its span targets as
strings such as ``"RootSystem.weyl_orbit"``).  Tests do not count as
callers: code that only tests call belongs in the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "twistedlie"
CALLER_DIRS = ("src", "demos", "perfbench")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")
# a definition and its own references: a constant's assignment is its scope
_SCOPES = (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)


def _public_definitions(tree):
  """(name, node) of every public module-level function, class and
  constant (a name a module-level assignment binds), and of every public
  method of those classes."""
  for node in tree.body:
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
      targets = node.targets if isinstance(node, ast.Assign) else [node.target]
      for target in targets:
        if isinstance(target, ast.Name) and not target.id.startswith("_"):
          yield target.id, node
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
       and not node.name.startswith("_"):
      yield node.name, node
      if isinstance(node, ast.ClassDef):
        for item in node.body:
          if isinstance(item, ast.FunctionDef) \
             and not item.name.startswith("_"):
            yield item.name, item


def _references(tree):
  """(name, enclosing definitions) of every reference in the tree."""
  def walk(node, inside):
    if isinstance(node, _SCOPES):
      inside = inside | {id(node)}
    if isinstance(node, ast.Name):
      yield node.id, inside
    elif isinstance(node, ast.Attribute):
      yield node.attr, inside
    elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
        and _DOTTED.match(node.value):
      for part in node.value.split("."):
        yield part, inside
    for child in ast.iter_child_nodes(node):
      yield from walk(child, inside)
  return walk(tree, frozenset())


def uncalled(definitions, callers):
  """The public names of ``definitions`` (source texts, each also one of
  ``callers``) that no reference in ``callers`` reaches from outside the
  name's own definition."""
  trees = {text: ast.parse(text) for text in callers}
  defined = [(name, id(node)) for text in definitions
             for name, node in _public_definitions(trees[text])]
  refs = {}
  for tree in trees.values():
    for name, inside in _references(tree):
      refs.setdefault(name, []).append(inside)
  return sorted(name for name, key in defined
                if not any(key not in inside for inside in refs.get(name, ())))


def _sources(*dirs):
  return [path.read_text() for d in dirs
          for path in sorted((ROOT / d).rglob("*.py"))]


def test_lint_sees_an_uncalled_name():
  module = ("def used():\n  return 1\n\n"
            "def recursive(n):\n  return recursive(n - 1)\n\n"
            "class Box:\n  def open(self):\n    return self.open()\n"
            "  def shut(self):\n    return used()\n\n"
            "LIMIT = 3\nUNIT: int = 1\nSELF = [SELF]\n_PRIVATE = 0\n")
  caller = "x = Box()\ny = 'Box.shut'\nz = LIMIT\n"
  assert uncalled([module], [module, caller]) == ["SELF", "UNIT", "open",
                                                 "recursive"]


def test_every_public_name_has_a_caller():
  definitions = [path.read_text() for path in sorted(SRC.glob("*.py"))]
  assert len(definitions) > 5
  assert uncalled(definitions, _sources(*CALLER_DIRS)) == []
