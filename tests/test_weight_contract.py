"""One weight-shape contract at every public boundary of ``rootsystem``,
``folding`` and ``cells``: a weight, coweight, root or class argument with
one coordinate too few or one too many raises ``ValueError`` (whose message
names the coordinate count) instead of being truncated or padded.

Every public callable of the three modules is listed below, either with the
calls that pass it a wrong-length argument, one per such argument, or in
``TAKES_NO_WEIGHT``.  A new public name in neither list fails the lint, as
tests/test_callers.py fails on a name with no caller."""

import inspect

import pytest

from twistedlie import cells, folding, rootsystem
from twistedlie.folding import CoinvariantWeight, Folding
from twistedlie.rootsystem import CartanType, RootSystem

MODULES = (rootsystem, folding, cells)
# rank 3 throughout: A3, and the folding A5/m2, whose base has rank 5 and
# whose H is C3; the ramified A6/m4 (H = B3) for the closed-form cover test
RANK = 3
SYS = RootSystem(CartanType("A", RANK))
DATUM = Folding("A", 5, 2)
RAMIFIED = Folding("A", 6, 4)
ZERO = (0,) * RANK
ALPHA = (1, 0, 0)


def _w(d):
  """A rank-3 weight, root or class with d coordinates too many."""
  return (0,) * (RANK + d)


def _cw(d):
  """A coweight of the base A5 with d coordinates too many."""
  return (0,) * (5 + d)


# qualified name -> one call per weight-like argument, each given the
# offset d = -1 or +1 of its coordinate count
CHECKED = {
    "rootsystem.RootSystem.weight_root_coords": [
        lambda d: SYS.weight_root_coords(_w(d))],
    "rootsystem.RootSystem.reflect": [lambda d: SYS.reflect(1, _w(d))],
    "rootsystem.RootSystem.inner": [lambda d: SYS.inner(_w(d), ZERO),
                                    lambda d: SYS.inner(ZERO, _w(d))],
    "rootsystem.RootSystem.root_inner": [
        lambda d: SYS.root_inner(_w(d), ZERO),
        lambda d: SYS.root_inner(ALPHA, _w(d))],
    "rootsystem.RootSystem.is_positive_root": [
        lambda d: SYS.is_positive_root(ALPHA[:1] + _w(d)[1:])],
    "rootsystem.RootSystem.is_dominant": [lambda d: SYS.is_dominant(_w(d))],
    "rootsystem.RootSystem.dominant_representative": [
        lambda d: SYS.dominant_representative(_w(d))],
    "rootsystem.RootSystem.orbit_graph": [lambda d: SYS.orbit_graph(_w(d))],
    "rootsystem.RootSystem.weyl_orbit": [lambda d: SYS.weyl_orbit(_w(d))],
    "rootsystem.RootSystem.orbit_size": [lambda d: SYS.orbit_size(_w(d))],
    "rootsystem.RootSystem.dominant_weights_below": [
        lambda d: SYS.dominant_weights_below(_w(d))],
    "rootsystem.RootSystem.dominant_covers": [
        lambda d: SYS.dominant_covers([ZERO, _w(d)])],
    "rootsystem.RootSystem.freudenthal_multiplicity": [
        lambda d: SYS.freudenthal_multiplicity(_w(d), ZERO),
        lambda d: SYS.freudenthal_multiplicity(ZERO, _w(d))],
    "rootsystem.RootSystem.weyl_dimension": [
        lambda d: SYS.weyl_dimension(_w(d))],
    "folding.CoinvariantWeight": [
        lambda d: CoinvariantWeight(DATUM.weight_ctype, _w(d))],
    "folding.Folding.iota": [lambda d: DATUM.iota(_cw(d))],
    "folding.Folding.project": [lambda d: DATUM.project(_cw(d))],
    "cells.leq": [lambda d: cells.leq(DATUM, _w(d), ZERO),
                  lambda d: cells.leq(DATUM, ZERO, _w(d))],
    "cells.dominants_below": [lambda d: cells.dominants_below(DATUM, _w(d))],
    "cells.is_cover": [lambda d: cells.is_cover(DATUM, _w(d), ZERO),
                       lambda d: cells.is_cover(DATUM, ZERO, _w(d))],
    "cells.is_cover_brute": [
        lambda d: cells.is_cover_brute(DATUM, _w(d), ZERO),
        lambda d: cells.is_cover_brute(DATUM, ZERO, _w(d))],
    "cells.is_cover_fast": [
        lambda d: cells.is_cover_fast(RAMIFIED, _w(d), ZERO),
        lambda d: cells.is_cover_fast(RAMIFIED, ZERO, _w(d))],
    "cells.smooth_cells": [
        lambda d: cells.smooth_cells(DATUM, None, _w(d))],
}

# public callables with no weight-like argument, or whose classes can only
# be built through the checked ``CoinvariantWeight``
TAKES_NO_WEIGHT = {
    "rootsystem.CartanType", "rootsystem.cartan_matrix",
    "rootsystem.symmetrizer", "rootsystem.RootSystem",
    "rootsystem.RootSystem.is_minuscule", "rootsystem.build",
    "rootsystem.minimal_coset_reps",
    "folding.CoinvariantWeight.is_integral",
    "folding.CoinvariantWeight.is_dominant", "folding.Folding",
    "folding.Folding.fiber", "folding.Folding.beta", "folding.Folding.gamma",
    "folding.Folding.in_coinvariant_lattice",
    "folding.Folding.component_group", "folding.Folding.level_one_set",
    "folding.Folding.special_coweights",
    "cells.covers", "cells.CellVerdict", "cells.SmoothLocusReport",
}


def public_callables(modules):
  """Qualified names of the public functions and classes each module
  defines, and of the public methods those classes define."""
  for module in modules:
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
      if name.startswith("_") or not callable(obj) \
         or getattr(obj, "__module__", None) != module.__name__:
        continue
      yield "%s.%s" % (short, name)
      if inspect.isclass(obj):
        for attr, member in vars(obj).items():
          if not attr.startswith("_") and callable(member):
            yield "%s.%s.%s" % (short, name, attr)


def test_every_public_callable_is_classified():
  names = set(public_callables(MODULES))
  assert not CHECKED.keys() & TAKES_NO_WEIGHT
  assert names == CHECKED.keys() | TAKES_NO_WEIGHT


def test_lint_sees_an_unclassified_name():
  names = set(public_callables(MODULES + (inspect,)))
  assert "inspect.getsource" in names - CHECKED.keys() - TAKES_NO_WEIGHT


_CALLS = [(name, k, d) for name, calls in sorted(CHECKED.items())
          for k in range(len(calls)) for d in (-1, 1)]


@pytest.mark.parametrize("name,k,d", _CALLS,
                         ids=["%s-%d-%+d" % c for c in _CALLS])
def test_wrong_length_is_rejected(name, k, d):
  with pytest.raises(ValueError, match="coordinates, expected"):
    CHECKED[name][k](d)


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_right_length_is_accepted(name):
  # the same calls with d = 0 run, so the failures above are the shape
  for call in CHECKED[name]:
    call(0)
