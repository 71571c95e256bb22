"""Span recording from outside the program.

``install`` wraps public functions of each twistedlie module in span
recorders.  It replaces the defining module's attribute and every other
loaded twistedlie module's attribute bound to the same function (such as
``loops.rank`` or ``e6.matrix_rank``), so calls across modules are seen.
Hot inner calls (``SparseVector`` and ``GaussianRational`` arithmetic,
``apply_e``/``apply_f``, crystal operators) are deliberately not wrapped.

A span is ``[name, start, end, parent, op, error]``; the layer of a span is
the part of its name before the first dot.  Spans stay in memory until
``Recorder.write`` is called at exit.
"""

import contextlib
import functools
import importlib
import json
import sys
import time

LAYERS = ("linalg", "rootsystem", "crystal", "folding", "cells", "reps",
          "e6", "loops", "cli")


class Recorder:
  """In-memory spans, a stack of open spans, and named counters."""

  def __init__(self, clock=time.perf_counter):
    self.clock = clock
    self.spans = []
    self.stack = []
    self.counters = {}
    self.op = None

  def open(self, name):
    idx = len(self.spans)
    parent = self.stack[-1] if self.stack else None
    self.spans.append([name, self.clock(), None, parent, self.op, False])
    self.stack.append(idx)
    return idx

  def close(self, idx, error=False):
    span = self.spans[idx]
    span[2] = self.clock()
    span[5] = error
    self.stack.pop()

  @contextlib.contextmanager
  def span(self, name):
    idx = self.open(name)
    try:
      yield
    except BaseException:
      self.close(idx, error=True)
      raise
    self.close(idx)

  def add(self, name, n=1):
    self.counters[name] = self.counters.get(name, 0) + n

  def set(self, name, value):
    self.counters[name] = value

  def inside(self, name):
    """Whether an open span has this name."""
    return any(self.spans[idx][0] == name for idx in self.stack)

  def write(self, path):
    with open(path, "w") as fh:
      for idx, span in enumerate(self.spans):
        fh.write(json.dumps([idx] + span) + "\n")


def wrap(recorder, name, fn, before=None, after=None):
  """``fn`` inside a span.  ``before(recorder, args)`` and
  ``after(recorder, args, result)`` update counters outside the span's
  interval; the result and any exception pass through unchanged."""

  @functools.wraps(fn)
  def wrapper(*args, **kwargs):
    if before is not None:
      before(recorder, args)
    idx = recorder.open(name)
    try:
      result = fn(*args, **kwargs)
    except BaseException:
      recorder.close(idx, error=True)
      raise
    recorder.close(idx)
    if after is not None:
      after(recorder, args, result)
    return result

  return wrapper


# -- counters taken at the wrapped boundaries ---------------------------------

def _rank_args(rec, args):
  vectors = args[0] if args else None
  if not isinstance(vectors, (list, tuple)):
    return
  rows = [v for v in vectors if v]
  keys = set()
  for v in rows:
    keys.update(v.keys())
  rec.add("linalg.rank.rows", len(rows))
  rec.add("linalg.rank.cols", len(keys))
  if rows:
    scalar = next(iter(rows[0].items()))[1]
    if type(scalar).__name__ == "GaussianRational":
      rec.add("linalg.rank.gaussian_calls")


def _dominants(rec, args, result):
  if not rec.inside("cells.is_cover_brute"):
    rec.add("cells.classes", len(result))


def _cover(rec, args, result):
  if result:
    rec.add("cells.covers")


def _crystal_elements(rec, args, result):
  rec.add("crystal.elements", len(args[0]))


def _words(rec, args, result):
  rec.add("reps.lowering.words", len(result.terms))


def _sweep(rec, args, result):
  rec.set("e6.sweep.search_nodes", result["search_nodes"])
  rec.set("e6.sweep.accepted_subtrees", result["accepted_subtrees"])
  rec.set("e6.sweep.fallback_words", result["fallback_words"])


# (module, attribute, span name, before, after)
TARGETS = (
    ("linalg", "rank", "linalg.rank", _rank_args, None),
    ("linalg", "smith_invariant_factors", "linalg.smith", None, None),
    ("rootsystem", "build", "rootsystem.build", None, None),
    ("rootsystem", "RootSystem.weyl_orbit", "rootsystem.weyl_orbit", None,
     None),
    ("rootsystem", "RootSystem.weyl_dimension", "rootsystem.weyl_dimension",
     None, None),
    ("rootsystem", "minimal_coset_reps", "rootsystem.minimal_coset_reps",
     None, None),
    ("crystal", "MinusculeCrystal.__init__", "crystal.minuscule", None,
     _crystal_elements),
    ("crystal", "HighestWeightComponent.__init__", "crystal.component", None,
     _crystal_elements),
    ("crystal", "highest_weight_component",
     "crystal.highest_weight_component", None, None),
    ("folding", "Folding.__init__", "folding.folding", None, None),
    ("folding", "Folding.project", "folding.project", None, None),
    ("cells", "dominants_below", "cells.dominants_below", None, _dominants),
    ("cells", "is_cover", "cells.is_cover", None, _cover),
    ("cells", "is_cover_fast", "cells.is_cover_fast", None, None),
    ("cells", "is_cover_brute", "cells.is_cover_brute", None, None),
    ("cells", "smooth_cells", "cells.smooth_cells", None, None),
    ("reps", "minuscule_representation", "reps.minuscule_representation",
     None, None),
    ("reps", "subrepresentation", "reps.subrepresentation", None, None),
    ("reps", "verify_representation_detailed", "reps.verify", None, None),
    ("reps", "weyl_act", "reps.weyl_act", None, None),
    ("reps", "root_lowering_operator", "reps.lowering", None, _words),
    ("reps", "OperatorWord.apply", "reps.lowering", None, None),
    ("e6", "E6Suite.__init__", "e6.suite", None, None),
    ("e6", "E6Suite.scorecard", "e6.scorecard", None, None),
    ("e6", "E6Suite.build_vzero", "e6.build_vzero", None, None),
    ("e6", "E6Suite.orbit_up_to_sign", "e6.orbit", None,
     lambda rec, args, result: rec.set("e6.orbit_size", len(result))),
    ("e6", "E6Suite.orbit_rank", "e6.orbit_rank", None,
     lambda rec, args, result: rec.set("e6.orbit_rank", result)),
    ("e6", "E6Suite.levi_extremal_sweep", "e6.sweep", None, _sweep),
    ("e6", "dominance_chain_check", "e6.dominance_chain", None, None),
    ("e6", "numbers_game_poset", "e6.numbers_game", None, None),
    ("loops", "verify_hyperspecial", "loops.verify_hyperspecial", None, None),
    ("loops", "eta_bracket_check", "loops.eta_bracket_check", None, None),
    ("loops", "hyperspecial_basis", "loops.hyperspecial_basis", None,
     lambda rec, args, result: rec.set("loops.basis_size", len(result))),
    ("loops", "fixed_degree_dimension", "loops.fixed_degree_dimension", None,
     None),
    ("cli", "main", "cli.main", None, None),
)


def install(recorder, package="twistedlie"):
  """Wrap every target; returns a function that restores the originals."""
  saved = []
  for module, attr, name, before, after in TARGETS:
    mod = importlib.import_module("%s.%s" % (package, module))
    if "." in attr:
      cls_name, meth = attr.split(".")
      cls = getattr(mod, cls_name)
      fn = cls.__dict__[meth]
      saved.append((cls, meth, fn))
      setattr(cls, meth, wrap(recorder, name, fn, before, after))
      continue
    fn = getattr(mod, attr)
    wrapper = wrap(recorder, name, fn, before, after)
    for other in list(sys.modules.values()):
      other_name = getattr(other, "__name__", "")
      if other_name != package and not other_name.startswith(package + "."):
        continue
      for key, value in list(vars(other).items()):
        if value is fn:
          saved.append((other, key, fn))
          setattr(other, key, wrapper)

  def restore():
    for owner, key, fn in reversed(saved):
      setattr(owner, key, fn)

  return restore


# -- aggregation ----------------------------------------------------------------

def layer_of(name):
  return name.split(".", 1)[0]


def self_times(spans):
  """Each span's duration minus the durations of its direct children.

  Spans nest (one thread), so the children of a span cover disjoint parts
  of its interval."""
  covered = [0.0] * len(spans)
  for span in spans:
    if span[3] is not None:
      covered[span[3]] += span[2] - span[1]
  return [span[2] - span[1] - c for span, c in zip(spans, covered)]


def summarize(spans, counters):
  """Per-layer and per-span-name metrics of one traced pass.

  ``L.self_s`` sums the self times of layer L's spans; ``L.total_s`` sums
  the durations of those L spans that have no L ancestor, so nested calls
  within a layer are not counted twice."""
  out = {}
  for layer in LAYERS:
    for suffix in ("self_s", "total_s", "calls", "errors"):
      out["%s.%s" % (layer, suffix)] = 0
  selfs = self_times(spans)
  for idx, span in enumerate(spans):
    name = span[0]
    layer = layer_of(name)
    out[layer + ".self_s"] = out.get(layer + ".self_s", 0) + selfs[idx]
    out[layer + ".calls"] = out.get(layer + ".calls", 0) + 1
    out[layer + ".errors"] = out.get(layer + ".errors", 0) + int(span[5])
    out[name + ".calls"] = out.get(name + ".calls", 0) + 1
    out[name + ".self_s"] = out.get(name + ".self_s", 0) + selfs[idx]
    parent = span[3]
    while parent is not None and layer_of(spans[parent][0]) != layer:
      parent = spans[parent][3]
    if parent is None:
      out[layer + ".total_s"] = (out.get(layer + ".total_s", 0)
                                 + span[2] - span[1])
  out.update(counters)
  calls = out.get("cells.is_cover.calls", 0)
  out["cells.cover_hit_ratio"] = (out.get("cells.covers", 0) / calls
                                  if calls else 0)
  return out
