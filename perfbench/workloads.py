"""The benchmark's workloads: seeded op lists.

An op is a dict with a stable ``key`` (used to look up its reference
output), a ``kind`` (``cli`` for a ``twistedlie.cli.main`` call, ``lib``
for a library call run by the worker) and its arguments.  The seed only
picks inputs: the op order in every workload and the extra ``rootsys``
weights of ``quick``, drawn from the bounded pool ``ROOTSYS_EXTRA_POOL``.
The same seed always gives the same list.
"""

import random

DEFAULT_SEED = 0

# Library ops of the e6 workload after the suite build, in default order.
E6_TAIL = ("e6.scorecard", "e6.verify", "e6.action_digest")

LOOPS_ARGV = ("hyperspecial-check", "--ell", "2", "--degree", "6",
              "--trials", "200")

CELLS_ARGVS = (
    ("dominance", "--type", "A", "--rank", "6", "--m", "4",
     "--lambda", "2,2,2,2,2,2"),
    ("smooth-locus", "--type", "A", "--rank", "6", "--m", "4",
     "--lambda", "2,2,2,2,2,2"),
    ("dominance", "--type", "E", "--rank", "6", "--m", "2",
     "--lambda", "0,0,0,1,0,0"),
    ("dominance", "--type", "D", "--rank", "4", "--m", "3",
     "--lambda", "2,2,2,2"),
)

# (family, rank) of every type queried by rootsys in quick.
ROOTSYS_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def fundamental(rank, i):
  return tuple(int(j == i) for j in range(1, rank + 1))


# Seeded rootsys weights are c * omega_i on types of rank at most 6 outside
# E.  Each such query takes a few milliseconds, like the bulk of quick, so
# the draw moves neither the op mix's upper tail nor its median much.
EXTRA_TYPES = (
    [("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
    + [("C", n) for n in range(2, 6)] + [("D", 4), ("D", 5), ("F", 4),
                                          ("G", 2)])
EXTRA_COEFFS = (1, 2)
ROOTSYS_EXTRA_POOL = tuple(
    (family, rank, tuple(c * x for x in fundamental(rank, i)))
    for family, rank in EXTRA_TYPES
    for i in range(1, rank + 1) for c in EXTRA_COEFFS)
ROOTSYS_EXTRAS = 32

# The six folding data (base family, order) with the ranks queried.
FOLD_DATA = (
    ("A", 2, (3, 5, 7, 9)), ("A", 4, (2, 4, 6, 8)),
    ("D", 2, (4, 5, 6, 7)), ("D", 3, (4,)), ("E", 2, (6,)))

README_ARGVS = (
    ("dominance", "--type", "A", "--rank", "2", "--m", "4", "--lambda", "2,0"),
    ("smooth-locus", "--type", "A", "--rank", "2", "--m", "4",
     "--lambda", "2,0", "--variant", "special-not-absolutely-special"),
    ("dominance", "--type", "A", "--rank", "4", "--m", "4",
     "--lambda", "1,1,1,1"),
    ("smooth-locus", "--type", "A", "--rank", "4", "--m", "4",
     "--lambda", "1,1,1,1", "--variant", "special-not-absolutely-special"),
)

# Tensor crystals (family, rank, minuscule node, copies) whose components
# are built in quick.
CRYSTALS = (("E", 6, 1, 2), ("E", 7, 7, 2), ("D", 5, 5, 3), ("A", 4, 2, 3))

# Submodules each workload's worker imports during set-up.
MODULES = {
    "e6": ("twistedlie.e6", "twistedlie.reps", "twistedlie.crystal"),
    "loops": ("twistedlie.cli",),
    "cells": ("twistedlie.cli",),
    "quick": ("twistedlie.cli", "twistedlie.crystal"),
}

WORKLOADS = tuple(MODULES)


def cli_op(argv):
  argv = tuple(argv)
  return {"key": "cli " + " ".join(argv), "kind": "cli", "argv": list(argv)}


def lib_op(name, *args):
  key = " ".join([name] + [str(a) for a in args])
  return {"key": key, "kind": "lib", "name": name, "args": list(args)}


def rootsys_op(family, rank, weight):
  return cli_op(("rootsys", "--type", family, "--rank", str(rank),
                 "--weight", ",".join(map(str, weight))))


def quick_fixed_ops():
  """The seed-independent part of quick."""
  ops = []
  for family, rank in ROOTSYS_TYPES:
    for i in sorted({1, rank}):
      ops.append(rootsys_op(family, rank, fundamental(rank, i)))
  for family, order, ranks in FOLD_DATA:
    for rank in ranks:
      ops.append(cli_op(("fold", "--type", family, "--rank", str(rank),
                         "--m", str(order))))
  ops.append(cli_op(("numbers-game",)))
  ops.extend(cli_op(argv) for argv in README_ARGVS)
  ops.extend(lib_op("crystal.components", *spec) for spec in CRYSTALS)
  return ops


def ops_for(workload, seed):
  """The op list of one pass of ``workload`` at ``seed``."""
  rng = random.Random("%s:%d" % (workload, seed))
  if workload == "e6":
    tail = list(E6_TAIL)
    rng.shuffle(tail)
    return [lib_op("e6.build")] + [lib_op(name) for name in tail]
  if workload == "loops":
    return [cli_op(LOOPS_ARGV)]
  if workload == "cells":
    ops = [cli_op(argv) for argv in CELLS_ARGVS]
    rng.shuffle(ops)
    return ops
  if workload == "quick":
    ops = quick_fixed_ops()
    ops.extend(rootsys_op(*spec)
               for spec in rng.sample(ROOTSYS_EXTRA_POOL, ROOTSYS_EXTRAS))
    rng.shuffle(ops)
    return ops
  raise ValueError("unknown workload %r" % (workload,))


def reference_ops():
  """Every op any seed can produce, each once: what the reference covers."""
  ops = [lib_op("e6.build")] + [lib_op(name) for name in E6_TAIL]
  ops.append(cli_op(LOOPS_ARGV))
  ops.extend(cli_op(argv) for argv in CELLS_ARGVS)
  ops.extend(quick_fixed_ops())
  ops.extend(rootsys_op(*spec) for spec in ROOTSYS_EXTRA_POOL)
  seen = set()
  return [op for op in ops if not (op["key"] in seen or seen.add(op["key"]))]
