"""Exact representation models built from crystals.

A representation here is a weight-graded basis with sparse raising and
lowering operators E_i, F_i; the diagonal operators H_i act by the pairing
of the basis weight against the i-th simple coroot.  All coefficients are
exact rationals.  Each E_i / F_i action is compiled once into a table
{key: pairs}, pairs being the tuple of nonzero (key2, coeff) pairs of the
image of the unit vector on key, and one loop applies a table to a
{key: coeff} dict.  The module provides:

  * the 0/1 model on a minuscule crystal,
  * tensor products via the Leibniz rule over the factors' tables, and
    exterior powers, whose keys are strictly increasing tuples,
  * exponentials of the nilpotent operators and the resulting simple
    reflection action exp(F_i) exp(-E_i) exp(F_i),
  * a full defining-relations checker (commutators and Serre relations)
    on tables scaled to integers: each relation is checked as a whole, as
    a commutator of two tables evaluated on every basis vector it can
    move, and the witness is the failure the per-vector order meets first,
  * extraction of a subrepresentation spanned by canonical-path vectors
    attached to a highest weight component of a tensor crystal,
  * lowering operators attached to arbitrary positive roots via iterated
    commutators along a root-poset path, applied one distinct word suffix
    at a time.
"""

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from math import factorial, lcm

from .linalg import (SparseVector, ZERO_VECTOR, _add_scaled, _pivot_inverse,
                     _scalar_kinds, normalize_scalar)


def _pairs(image):
  """An image as a tuple of nonzero (key2, coeff) pairs.  It may be given
  as a SparseVector, a dict or a pair tuple; a pair tuple without zeros is
  kept as given, not copied."""
  if type(image) is tuple and all(c for _, c in image):
    return image
  items = image if type(image) is tuple else image.items()
  return tuple((k2, c) for k2, c in items if c)


def _apply(table, vec):
  """A compiled action {key: pairs} applied to a {key: coeff} dict;
  returns a new dict without zeros.  An int coefficient 1 scales nothing,
  and a new key takes its term as is, so no scalar is rebuilt for them."""
  acc = {}
  for key, c in vec.items():
    img = table.get(key)
    if img:
      one = type(c) is int and c == 1
      for k2, c2 in img:
        if not one:
          c2 = c * c2
        s = acc.get(k2)
        if s is None:
          acc[k2] = c2
        elif s := s + c2:
          acc[k2] = s
        else:
          del acc[k2]
  return acc


class Representation:
  """Interface: weight-graded basis with sparse E_i / F_i actions.

  Subclasses provide ``rank``, ``keys``, ``weight`` and ``_act(op, i,
  vec)``, which applies E_i (op "e") or F_i (op "f") to a plain {key:
  coeff} dict, for any node i, and returns a new dict without zeros: the
  ``apply_*`` methods check i in 1..rank (ValueError) and wrap that dict
  as a SparseVector unchecked.  ``table`` compiles an action, dropping zeros.
  """

  def keys(self):
    raise NotImplementedError

  def weight(self, key):
    raise NotImplementedError

  def _act(self, op, i, vec):
    raise NotImplementedError

  def table(self, op, i):
    """E_i (op "e") or F_i (op "f") compiled as {key: pairs} over the keys
    whose unit vector has a nonzero image."""
    return {key: img for key in self.keys()
            if (img := _pairs(self._act(op, i, {key: 1})))}

  def apply_e(self, i, vec):
    if not 1 <= i <= self.rank:
      raise ValueError("node %r is not in 1..%d" % (i, self.rank))
    return SparseVector._raw(self._act("e", i, vec.entries))

  def apply_f(self, i, vec):
    if not 1 <= i <= self.rank:
      raise ValueError("node %r is not in 1..%d" % (i, self.rank))
    return SparseVector._raw(self._act("f", i, vec.entries))


class TableRepresentation(Representation):
  """A representation with explicit sparse action tables.

  ``e_act`` and ``f_act`` map i to {key: image}, an image being anything
  ``_pairs`` takes.  Each action is stored once, as one table {key: pairs}
  per (op, i) that leaves out the keys with zero image; pair tuples without
  zeros are stored as given.
  """

  def __init__(self, rank, weights, e_act, f_act):
    self.rank = rank
    self._weights = dict(weights)
    self._tables = {(op, i): {key: pairs for key, img in images.items()
                              if (pairs := _pairs(img))}
                    for op, act in (("e", e_act), ("f", f_act))
                    for i, images in act.items()}

  def keys(self):
    return self._weights.keys()

  def weight(self, key):
    return self._weights[key]

  def table(self, op, i):
    return self._tables.get((op, i), {})

  def _act(self, op, i, vec):
    return _apply(self.table(op, i), vec)


class ProductRepresentation(Representation):
  """Tensor product; keys are tuples, operators act by the Leibniz rule."""

  def __init__(self, factors):
    self.factors = list(factors)
    self.rank = self.factors[0].rank
    # the E_i / F_i images of every factor's basis keys, compiled once
    self._tables = {(op, i): [f.table(op, i) for f in self.factors]
                    for op in ("e", "f") for i in range(1, self.rank + 1)}

  def keys(self):
    return product(*(f.keys() for f in self.factors))

  def weight(self, key):
    n = self.rank
    acc = [0] * n
    for f, k in zip(self.factors, key):
      w = f.weight(k)
      for t in range(n):
        acc[t] += w[t]
    return tuple(acc)

  def _act(self, op, i, vec):
    acc = {}
    tables = self._tables.get((op, i), ())
    for key, c in vec.items():
      for pos, table in enumerate(tables):
        img = table.get(key[pos])
        if img:
          head, tail = key[:pos], key[pos + 1:]
          for k2, c2 in img:
            full = head + (k2,) + tail
            s = acc.get(full, 0) + (c if c2 == 1 and type(c2) is int
                                    else c * c2)
            if s:
              acc[full] = s
            else:
              del acc[full]
    return acc


class ExteriorPower(ProductRepresentation):
  """The k-th exterior power of a representation.

  The key (k_1, ..., k_k), strictly increasing in the factor's key order,
  stands for the wedge k_1 ^ ... ^ k_k.  Operators act by the Leibniz rule
  at each position, as in the tensor power: an image key that already
  occurs elsewhere in the tuple gives zero, and any other is moved to its
  sorted place, with sign (-1)^(number of positions it moves).
  """

  def __init__(self, factor, k):
    super().__init__([factor] * k)

  def keys(self):
    return combinations(sorted(self.factors[0].keys()), len(self.factors))

  def _act(self, op, i, vec):
    acc = {}
    tables = self._tables.get((op, i), ())
    for key, c in vec.items():
      for pos, table in enumerate(tables):
        img = table.get(key[pos])
        if img:
          rest = key[:pos] + key[pos + 1:]
          for k2, c2 in img:
            if k2 in rest:
              continue
            at = bisect(rest, k2)
            full = rest[:at] + (k2,) + rest[at:]
            t = c if c2 == 1 and type(c2) is int else c * c2
            s = acc.get(full, 0) + (t if (at - pos) % 2 == 0 else -t)
            if s:
              acc[full] = s
            else:
              del acc[full]
    return acc


def minuscule_representation(crys):
  """The 0/1 model on a minuscule crystal: operators permute basis lines."""
  nodes = range(1, crys.rank + 1)
  e_act, f_act = ({i: {b: ((c, 1),) for b in crys.indices()
                       if (c := step(b, i)) is not None} for i in nodes}
                  for step in (crys.e, crys.f))
  return TableRepresentation(crys.rank,
                             {b: crys.wt(b) for b in crys.indices()},
                             e_act, f_act)


# exp_nilpotent gives up on an operator whose powers outlast this bound
_MAX_NILPOTENT_POWER = 200


def exp_nilpotent(apply_fn, vec, sign=1):
  """exp of a nilpotent operator applied to a vector:
  sum_k sign^k op^k(vec) / k! until the power vanishes."""
  total = vec
  cur = vec
  k = 0
  while cur:
    k += 1
    if k > _MAX_NILPOTENT_POWER:
      raise ArithmeticError("operator does not appear nilpotent")
    cur = apply_fn(cur)
    if cur:
      coeff = Fraction(sign ** k, factorial(k))
      total = total + cur.scale(coeff)
  return total


def weyl_act(rep, i, vec):
  """The simple reflection s_i acting through
  exp(F_i) exp(-E_i) exp(F_i)."""
  f = lambda v: rep.apply_f(i, v)
  e = lambda v: rep.apply_e(i, v)
  out = exp_nilpotent(f, vec)
  out = exp_nilpotent(e, out, sign=-1)
  return exp_nilpotent(f, out)


def highest_weight_check(rep, vec, lam):
  """Whether vec is a nonzero highest weight vector of weight lam."""
  if not vec:
    return False
  lam = tuple(lam)
  if any(rep.weight(k) != lam for k in vec.keys()):
    return False
  return all(not rep.apply_e(i, vec) for i in range(1, rep.rank + 1))


# -- relation checking -------------------------------------------------------

def _integer_tables(tables):
  """Each pair table {key: pairs} times the lcm D of its rational
  coefficients' denominators, so that those are integers; returns (scales,
  scaled) with scales[name] = D and scaled[name] a pair table."""
  scales, scaled = {}, {}
  for name, table in tables.items():
    # the coefficient objects, told apart by identity: the tables share a
    # few objects, and hashing a Fraction is slow
    coeffs = {id(c): c for img in table.values() for _, c in img}
    d = lcm(*(c.denominator for c in coeffs.values()
              if isinstance(c, Fraction)))
    scales[name] = d
    ints = {}
    for ident, c in coeffs.items():
      v = c * d
      ints[ident] = v.numerator if isinstance(v, Fraction) else v
    scaled[name] = {key: tuple((k2, ints[id(c)]) for k2, c in img)
                    for key, img in table.items()}
  return scales, scaled


def _bracket(x, y, keys=None):
  """The commutator [X, Y] = X o Y - Y o X of two operators given by pair
  tables x and y, one unit vector at a time: yields (key, image) for each
  of keys, the image a dict without zeros.  By default keys are those
  where x or y has an image; [X, Y] is zero on the others."""
  x_get, y_get = x.get, y.get
  if keys is None:
    keys = chain(x, (key for key in y if key not in x))
  for key in keys:
    acc = {}
    for k2, c in y_get(key, ()):
      for k3, c3 in x_get(k2, ()):
        s = acc.get(k3, 0) + c * c3
        if s:
          acc[k3] = s
        else:
          del acc[k3]
    for k2, c in x_get(key, ()):
      for k3, c3 in y_get(k2, ()):
        s = acc.get(k3, 0) - c * c3
        if s:
          acc[k3] = s
        else:
          del acc[k3]
    yield key, acc


def _table(images):
  """The (key, image dict) pairs as a pair table, without empty images."""
  return {key: tuple(img.items()) for key, img in images if img}


def verify_representation_detailed(rep, cartan):
  """Check the defining relations on every basis vector.

  cartan[i][j] = <alpha_{j+1}, acheck_{i+1}> is the Cartan matrix of the
  acting type; it must be rank x rank, and each weight must have rank
  coordinates (ValueError otherwise).  Returns (ok, witness); the witness
  names the first failing relation and basis key.  Checked relations,
  against each unit vector v, for each (i, j) in order: [E_i, F_j] =
  delta_ij H_i, then the weight equivariance of E_j and F_j under H_i;
  after all pairs, both Serre relations.  The witness is the failure that
  comes first in that order: the least (position of v in ``rep.keys()``,
  position of the relation at v).  H_i is diagonal, so the H_i commute
  ("HH" is never reported) and [H_i, E_j] = <alpha_j, acheck_i> E_j holds
  on v iff every key in the support of E_j v has i-th weight coordinate
  wt(v)_i + <alpha_j, acheck_i> (likewise for F_j).

  Each relation is checked as a whole, one after another, on the letter
  tables.  [E_i, F_j] and the Serre relations are commutators, which
  ``_bracket`` evaluates one unit vector at a time over the keys where
  either table has an image; they vanish elsewhere, so only [E_i, F_i] =
  H_i is checked at every key.  While 1 - a_ij <= 2, as in every simply
  laced type, at most one composed table is alive.  The weights are checked
  once per table entry, each coordinate only when the whole weight is off.

  The check runs on the tables ``rep.table(op, i)`` scaled to integers,
  each by the lcm D(op, i) of its denominators.  Both words of [E_i, F_j]
  hold one E_i and one F_j, and all terms of a Serre relation hold the same
  letters, so each relation is only multiplied by a nonzero constant once
  the H_i term is multiplied by D(e, i) * D(f, i): the verdict and the
  witness do not change.
  """
  n = rep.rank
  if len(cartan) != n or any(len(row) != n for row in cartan):
    raise ValueError("the Cartan matrix is not %d x %d" % (n, n))
  # the weight of each key, in the order of rep.keys()
  weights = {key: tuple(rep.weight(key)) for key in rep.keys()}
  if any(len(wt) != n for wt in weights.values()):
    raise ValueError("a weight does not have %d coordinates" % n)
  nodes = range(1, n + 1)
  scales, tables = _integer_tables({(op, i): rep.table(op, i)
                                    for op in ("e", "f") for i in nodes})
  # the relations in the order they are checked at each key; the witness is
  # the least failing (key position, relation position)
  order = [(kind, i, j) for i in nodes for j in nodes
           for kind in ("EF", "HE", "HF")]
  order += [(kind, i, j) for i in nodes for j in nodes if i != j
            for kind in ("SerreE", "SerreF")]
  relation = {rel: r for r, rel in enumerate(order)}
  position = None
  first = None

  def fail(key, rel):
    nonlocal position, first
    if position is None:
      position = {k: t for t, k in enumerate(weights)}
    if key in position:
      found = (position[key], relation[rel], key)
      if first is None or found < first:
        first = found

  # [E_i, F_j] = delta_ij H_i
  for i in nodes:
    x = tables["e", i]
    for j in nodes:
      y = tables["f", j]
      if i != j:
        for key, img in _bracket(x, y):
          if img:
            fail(key, ("EF", i, j))
      else:
        h = scales["e", i] * scales["f", i]
        for key, img in _bracket(x, y, weights):
          c = weights[key][i - 1] * h
          if img != ({key: c} if c else {}):
            fail(key, ("EF", i, j))
  # [H_i, E_j] = a_ij E_j and [H_i, F_j] = -a_ij F_j
  for kind, op, sign in (("HE", "e", 1), ("HF", "f", -1)):
    for j in nodes:
      shift = [sign * cartan[t][j - 1] for t in range(n)]
      for key, img in tables[op, j].items():
        if key not in weights:
          continue
        target = tuple(w + a for w, a in zip(weights[key], shift))
        for k2, _ in img:
          wt = weights[k2]
          if wt != target:
            for i in nodes:
              if wt[i - 1] != target[i - 1]:
                fail(key, (kind, i, j))
  # Serre relations ad(X_a)^m (X_b) = 0 for a != b, m = 1 - a_ab (X = E or
  # F).  ad(X_a)(X_b) = [X_a, X_b] = -ad(X_b)(X_a), so for each pair i < j
  # one table of [X_i, X_j] serves the relations of (i, j) and (j, i).  A
  # higher power brackets it with X_a again, checking the last bracket as
  # it is computed; for m = 3 or 4 (types B, C, F, G) the powers in between
  # are tables too.  m = 0 asks X_b = 0, and m < 0 gives the empty binomial
  # expansion: no relation.
  for i, j in combinations(nodes, 2):
    for kind, op in (("SerreE", "e"), ("SerreF", "f")):
      first_power = _table(_bracket(tables[op, i], tables[op, j]))
      for a, b in ((i, j), (j, i)):
        m = 1 - cartan[a - 1][b - 1]
        if m < 0:
          continue
        x, y = tables[op, a], first_power
        for _ in range(m - 2):
          y = _table(_bracket(x, y))
        if m == 0:
          failing = tables[op, b]
        elif m == 1:
          failing = y
        else:
          failing = (key for key, img in _bracket(x, y) if img)
        for key in failing:
          fail(key, (kind, a, b))
  if first is None:
    return True, None
  _, r, key = first
  return False, order[r] + (key,)


# -- subrepresentations ------------------------------------------------------

def subrepresentation(ambient, hw_vec, component):
  """The subrepresentation generated by a highest weight vector, in the
  basis of canonical-path vectors of a ``HighestWeightComponent``.

  For each crystal element the basis vector is obtained by applying the
  lowering operators along its canonical path to hw_vec.  The vectors of
  each weight fiber must be linearly independent (their number equals the
  crystal fiber size); the E_i / F_i actions are re-expressed in this basis
  by exact solves, verifying invariance on the way.  Keys of the returned
  representation are the crystal element indices.

  The component's own paths, weights and e / f columns are read as they
  are: one loop builds the path vectors, each the F image of its canonical
  parent's, and a second the E_i and F_i images of every element, node by
  node, where the F_i image of an element's canonical parent is the
  element's own path vector.  The ambient weight of an image's first key
  picks its fiber.  Each fiber gets one exact inverse on its pivot keys, N
  over D (``linalg._pivot_inverse``), when an image first lands in it, and
  each image is the sparse product of N with its entries at the pivot
  keys, over D.  A fiber with no support key besides its n pivots spans every
  vector on those keys, so an image with another key leaves the span;
  otherwise D * image must equal the combination exactly.  Coordinates are
  ints where integral and Fractions otherwise.
  """
  rank = ambient.rank
  nodes = range(1, rank + 1)
  weights, paths = component.weights, component.paths
  up, down = component._e, component._f
  if not highest_weight_check(ambient, hw_vec, weights[0]):
    raise ValueError("hw_vec is not a highest weight vector of the "
                     "component weight")
  act = ambient._act
  vecs = [hw_vec.entries]
  for b in range(1, len(weights)):
    i = paths[b][0]
    vec = act("f", i, vecs[up[i - 1][b]])
    if not vec:
      raise ValueError("canonical path vector vanished at element %d" % b)
    vecs.append(vec)
  fibers = {}
  for b, wt in enumerate(weights):
    fibers.setdefault(wt, []).append(b)
  # (fiber, cols, D, basis) by fiber weight; basis is None when the fiber
  # is square
  inverses = {}
  # one object per value, and the coordinate of each pair (N, D) whose
  # value is known: the tables repeat few values
  shared = {}
  coeffs = {}
  # the ambient grading picks the fiber of an image; images share keys
  ambient_weights = {}
  e_act = {i: {} for i in nodes}
  f_act = {i: {} for i in nodes}
  depth = 0
  for b, vec in enumerate(vecs):
    # The images of b lie one level above or below it, and elements come in
    # order of depth, so when a level starts the inverses two levels up are
    # done with; dropping them bounds the memory (a dropped inverse is
    # rebuilt if needed again).
    if len(paths[b]) > depth:
      depth = len(paths[b])
      for done in [w for w in inverses
                   if len(paths[fibers[w][0]]) < depth - 1]:
        del inverses[done]
    for i in nodes:
      # the path vector of the element whose canonical parent is b through
      # F_i: it is the F_i image of vecs[b]
      child = down[i - 1][b]
      own = vecs[child] if child is not None and paths[child][0] == i \
          else None
      for table, img in ((e_act[i], act("e", i, vec)),
                         (f_act[i], own or act("f", i, vec))):
        if not img:
          continue
        key = next(iter(img))
        img_wt = ambient_weights.get(key)
        if img_wt is None:
          img_wt = ambient_weights[key] = ambient.weight(key)
        if img_wt not in fibers:
          raise ValueError("action leaves the crystal weight support")
        if img_wt not in inverses:
          # built even when no solve follows: it checks that the fiber's
          # vectors are independent
          fiber = fibers[img_wt]
          basis = [SparseVector._raw(vecs[bb]) for bb in fiber]
          _scalar_kinds(basis)
          pivots = _pivot_inverse(basis)
          if pivots is None:
            raise ValueError("fiber vectors are linearly dependent")
          square = len(set().union(*(vecs[bb] for bb in fiber))) == len(fiber)
          inverses[img_wt] = (fiber, *pivots, None if square else basis)
        fiber, cols, den, basis = inverses[img_wt]
        if img is own and img_wt == weights[child]:
          # a vector of the fiber basis has the unit coordinates of itself
          table[b] = ((child, 1),)
          continue
        y = [0] * len(fiber)
        for k, x in img.items():
          col = cols.get(k)
          if col is not None:
            for bb, c in col:
              y[bb] += c * x
          elif basis is None:
            raise ValueError("action leaves the span of the fiber basis")
        if basis is not None:
          # a float image could pass the residual check by rounding
          _scalar_kinds((SparseVector._raw(img),))
          acc = {k: den * x for k, x in img.items()}
          for yb, v in zip(y, basis):
            if yb:
              _add_scaled(acc, -yb, v.entries)
          if acc:
            raise ValueError("action leaves the span of the fiber basis")
        pairs = []
        for bb, yb in enumerate(y):
          if yb:
            c = coeffs.get((yb, den))
            if c is None:
              c = normalize_scalar(yb, den)
              c = coeffs[yb, den] = shared.setdefault(c, c)
            pairs.append((fiber[bb], c))
        table[b] = tuple(pairs)
  return TableRepresentation(rank, enumerate(weights), e_act, f_act)


# -- lowering operators for arbitrary positive roots -------------------------

@dataclass(frozen=True)
class OperatorWord:
  """A signed sum of words in the lowering operators F_i.

  Each term (sign, word) denotes sign * F_{word[0]} ... F_{word[-1]},
  applied to vectors right to left.
  """

  terms: tuple

  def apply(self, rep, vec):
    """The sum of the terms applied to vec, added in term order.  Terms
    share suffixes, so each distinct suffix word[k:] is applied once; a
    suffix that gives zero is not extended."""
    images = {(): vec}
    total = ZERO_VECTOR
    for sign, word in self.terms:
      # the longest suffix applied before, then the letters in front of it
      k = 0
      while word[k:] not in images:
        k += 1
      cur = images[word[k:]]
      while cur and k:
        k -= 1
        cur = images[word[k:]] = rep.apply_f(word[k], cur)
      if cur:
        total = total + (cur if sign > 0 else -cur)
    return total


def root_poset_path(sys, gamma):
  """The lexicographically least sequence (i_1, ..., i_h) whose partial sums
  climb through positive roots from alpha_{i_1} up to gamma.

  Positive roots beta <= gamma are joined by a chain of positive roots
  with simple-root steps, so the greedy walk that always adds the least
  simple root keeping the partial sum a positive root below gamma never
  gets stuck."""
  gamma = tuple(gamma)
  if not sys.is_positive_root(gamma):
    raise ValueError("not a positive root")
  current = (0,) * sys.rank
  path = []
  while current != gamma:
    for i in range(1, sys.rank + 1):
      nxt = current[:i - 1] + (current[i - 1] + 1,) + current[i:]
      if nxt[i - 1] <= gamma[i - 1] and sys.is_positive_root(nxt):
        break
    else:
      raise AssertionError("no saturated chain found in the root poset")
    current = nxt
    path.append(i)
  return tuple(path)


def root_lowering_operator(sys, gamma):
  """A lowering operator for the positive root gamma, as the iterated
  commutator [[...[F_{i_1}, F_{i_2}], ...], F_{i_h}] along the canonical
  root-poset path, expanded into signed words."""
  path = root_poset_path(sys, gamma)
  terms = [(1, (path[0],))]
  for i in path[1:]:
    new = []
    for sign, word in terms:
      new.append((sign, word + (i,)))
      new.append((-sign, (i,) + word))
    terms = new
  return OperatorWord(tuple(terms))
