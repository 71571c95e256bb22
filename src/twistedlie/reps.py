"""Exact representation models built from crystals.

A representation here is a weight-graded basis with sparse raising and
lowering operators E_i, F_i; the diagonal operators H_i act by the pairing
of the basis weight against the i-th simple coroot.  All coefficients are
exact rationals.  Each E_i / F_i action is compiled once into a plain table
{key: {key2: coeff}}, and one loop applies a table to a {key: coeff} dict.
The module provides:

  * the 0/1 model on a minuscule crystal,
  * tensor products via the Leibniz rule over the factors' tables, and
    exterior powers, whose keys are strictly increasing tuples,
  * exponentials of the nilpotent operators and the resulting simple
    reflection action exp(F_i) exp(-E_i) exp(F_i),
  * a full defining-relations checker (commutators and Serre relations):
    the operator words the relations use are compiled once into a
    prefix-closed word plan, which one loop applies to each basis vector,
    on tables scaled to integers,
  * extraction of a subrepresentation spanned by canonical-path vectors
    attached to a highest weight component of a tensor crystal,
  * lowering operators attached to arbitrary positive roots via iterated
    commutators along a root-poset path, applied one distinct word suffix
    at a time.
"""

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import factorial, lcm

from .linalg import (SparseVector, ZERO_VECTOR, _add_scaled, normalize_scalar,
                     span_solver)


def _apply(table, vec):
  """A compiled action {key: {key2: coeff}} applied to a {key: coeff} dict;
  returns a new dict without zeros."""
  acc = {}
  for key, c in vec.items():
    img = table.get(key)
    if img:
      for k2, c2 in img.items():
        s = acc.get(k2, 0) + c * c2
        if s:
          acc[k2] = s
        else:
          del acc[k2]
  return acc


class Representation:
  """Interface: weight-graded basis with sparse E_i / F_i actions.

  Subclasses provide ``keys``, ``weight`` and ``_act(op, i, vec)``, which
  applies E_i (op "e") or F_i (op "f") to a plain {key: coeff} dict and
  returns a new dict.  That dict should hold no zero coefficient: the
  ``apply_*`` methods wrap it as a SparseVector unchecked.  The relation
  checker drops zeros itself.
  """

  def keys(self):
    raise NotImplementedError

  def weight(self, key):
    raise NotImplementedError

  def _act(self, op, i, vec):
    raise NotImplementedError

  def apply_e(self, i, vec):
    return SparseVector._raw(self._act("e", i, vec.entries))

  def apply_f(self, i, vec):
    return SparseVector._raw(self._act("f", i, vec.entries))

  def apply_h(self, i, vec):
    acc = {}
    for key, c in vec.items():
      w = self.weight(key)[i - 1]
      if w:
        acc[key] = c * w
    return SparseVector._raw(acc)


def _plain(images):
  """An action {key: image} whose images are plain {key2: coeff} dicts
  without zero coefficients.  Images may be given as SparseVectors or
  dicts; an action whose images already are such dicts is kept as given,
  not copied."""
  if all(type(img) is dict and all(img.values()) for img in images.values()):
    return images
  return {key: {k2: c for k2, c in img.items() if c}
          for key, img in images.items()}


class TableRepresentation(Representation):
  """A representation with explicit sparse action tables.

  ``e_act`` and ``f_act`` map i to {key: image}, an image being a
  SparseVector or a plain {key2: coeff} dict.  Each action is stored once,
  as one plain-dict table per (op, i).
  """

  def __init__(self, rank, weights, e_act, f_act):
    self.rank = rank
    self._weights = dict(weights)
    self._tables = {(op, i): _plain(images)
                    for op, act in (("e", e_act), ("f", f_act))
                    for i, images in act.items()}

  def keys(self):
    return self._weights.keys()

  def weight(self, key):
    return self._weights[key]

  def _act(self, op, i, vec):
    return _apply(self._tables.get((op, i), {}), vec)


class ProductRepresentation(Representation):
  """Tensor product; keys are tuples, operators act by the Leibniz rule."""

  def __init__(self, factors):
    self.factors = list(factors)
    self.rank = self.factors[0].rank
    # the E_i / F_i images of every factor's basis keys, compiled once
    self._tables = {
        (op, i): [{k: img for k in f.keys() if (img := f._act(op, i, {k: 1}))}
                  for f in self.factors]
        for op in ("e", "f") for i in range(1, self.rank + 1)}

  def keys(self):
    def rec(pos):
      if pos == len(self.factors):
        yield ()
        return
      for head in self.factors[pos].keys():
        for rest in rec(pos + 1):
          yield (head,) + rest
    return rec(0)

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
          for k2, c2 in img.items():
            full = head + (k2,) + tail
            s = acc.get(full, 0) + c * c2
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
          for k2, c2 in img.items():
            if k2 in rest:
              continue
            at = bisect(rest, k2)
            full = rest[:at] + (k2,) + rest[at:]
            s = acc.get(full, 0) + (c * c2 if (at - pos) % 2 == 0
                                    else -c * c2)
            if s:
              acc[full] = s
            else:
              del acc[full]
    return acc


def minuscule_representation(crys):
  """The 0/1 model on a minuscule crystal: operators permute basis lines."""
  rank = crys.rank
  weights = {b: crys.wt(b) for b in crys.indices()}
  e_act = {i: {} for i in range(1, rank + 1)}
  f_act = {i: {} for i in range(1, rank + 1)}
  for b in crys.indices():
    for i in range(1, rank + 1):
      up = crys.e(b, i)
      if up is not None:
        e_act[i][b] = {up: 1}
      dn = crys.f(b, i)
      if dn is not None:
        f_act[i][b] = {dn: 1}
  return TableRepresentation(rank, weights, e_act, f_act)


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
  """Each table {key: {key2: coeff}} times the lcm D of its rational
  coefficients' denominators, so that those are integers; returns (scales,
  scaled) with scales[(op, i)] = D.  A scaled image is the flat tuple
  (key2, coeff, key2, coeff, ...): it takes about a quarter of the memory of
  a small dict, and the scaled copy lives beside the tables for the whole
  check."""
  scales, scaled = {}, {}
  for name, table in tables.items():
    coeffs = {c for img in table.values() for c in img.values()}
    d = lcm(*(c.denominator for c in coeffs if isinstance(c, Fraction)))
    scales[name] = d
    # one object per distinct coefficient, shared by all its entries
    ints = {}
    for c in coeffs:
      v = c * d
      ints[c] = v.numerator if isinstance(v, Fraction) else v
    scaled[name] = {key: tuple(x for k2, c in img.items()
                               for x in (k2, ints[c]))
                    for key, img in table.items()}
  return scales, scaled


def _apply_flat(table, vec):
  """``_apply`` for a table whose images are flat tuples."""
  acc = {}
  for key, c in vec.items():
    img = table.get(key)
    if img:
      it = iter(img)
      for k2, c2 in zip(it, it):
        s = acc.get(k2, 0) + c * c2
        if s:
          acc[k2] = s
        else:
          del acc[k2]
  return acc


def _word_plan(cartan):
  """The words in the E_i / F_i that the relations apply to a basis vector,
  compiled into one prefix-closed plan.

  A word is a tuple of letters (op, i), applied first letter first.  Step
  s >= 1 of the plan applies the letter steps[s - 1][0] to the image of
  step steps[s - 1][1] < s; step 0 is the basis vector itself.  Returns
  (steps, single, ef, serre):
    * single[(op, j)]: the step of the letter (op, j) alone;
    * ef[i - 1][j - 1]: the steps of E_i F_j and F_j E_i;
    * serre: for each i != j in order, (i, j, kind, terms), terms being the
      (coefficient, step) pairs of ad(X_i)^{1 - a_ij}(X_j) expanded by the
      binomial formula.
  """
  n = len(cartan)
  index = {(): 0}
  steps = []

  def add(word):
    if word not in index:
      parent = add(word[:-1])
      index[word] = len(steps) + 1
      steps.append((word[-1], parent))
    return index[word]

  single = {(op, j): add(((op, j),)) for op in ("e", "f")
            for j in range(1, n + 1)}
  ef = [[(add((("f", j), ("e", i))), add((("e", i), ("f", j))))
         for j in range(1, n + 1)] for i in range(1, n + 1)]
  serre = []
  for i in range(1, n + 1):
    for j in range(1, n + 1):
      if i == j:
        continue
      m = 1 - cartan[i - 1][j - 1]
      for kind, op in (("SerreE", "e"), ("SerreF", "f")):
        terms = []
        binom = 1
        for k in range(m + 1):
          # the k-th binomial term: X_i^(m-k) X_j X_i^k v
          word = ((op, i),) * k + ((op, j),) + ((op, i),) * (m - k)
          terms.append(((-1) ** k * binom, add(word)))
          binom = binom * (m - k) // (k + 1)
        serre.append((i, j, kind, terms))
  return steps, single, ef, serre


def _strip_zeros(act, vec):
  return {k: c for k, c in act(vec).items() if c}


def verify_representation_detailed(rep, cartan):
  """Check the defining relations on every basis vector.

  cartan[i][j] = <alpha_{j+1}, acheck_{i+1}> is the Cartan matrix of the
  acting type.  Returns (ok, witness); the witness names the first failing
  relation and basis key.  Checked relations, against each unit vector v,
  for each (i, j) in order: [E_i, F_j] = delta_ij H_i, then the weight
  equivariance of E_j and F_j under H_i; after all pairs, both Serre
  relations.  H_i is diagonal, so the H_i commute ("HH" is never reported)
  and [H_i, E_j] = <alpha_j, acheck_i> E_j holds on v iff every key in the
  support of E_j v has i-th weight coordinate wt(v)_i + <alpha_j, acheck_i>
  (likewise for F_j).

  The words in the E_i / F_i that the relations use are compiled once into
  a prefix-closed plan (``_word_plan``); for each v one loop over the plan
  applies every word to v, each step one letter to an earlier step's image.
  The images hold no zero coefficients, so a two-term relation, such as
  [E_i, F_j] = 0 for i != j or a Serre relation with a_ij = 0, holds iff
  its two images are equal dicts.  The weights of E_j v (F_j v) are first
  compared whole with wt(v) + alpha_j (wt(v) - alpha_j); only when that
  fails is each i tested in turn, so the witness is the same.

  A TableRepresentation is checked on its tables scaled to integers, each
  (op, i) table by the lcm D(op, i) of its denominators.  Both words of
  [E_i, F_j] hold one E_i and one F_j, and all terms of a Serre relation
  hold the same letters, so each relation is only multiplied by a nonzero
  constant once the H_i term is multiplied by D(e, i) * D(f, i): the
  verdict and the witness do not change.  Any other representation is
  applied through its ``_act``, with zero coefficients dropped.
  """
  n = rep.rank
  steps, single, ef, serre = _word_plan(cartan)
  if isinstance(rep, TableRepresentation):
    scales, tables = _integer_tables(rep._tables)
    act = {w: partial(_apply_flat, tables.get(w, {})) for w in single}
  else:
    scales = {}
    act = {w: partial(_strip_zeros, partial(rep._act, *w)) for w in single}
  plan = [(act[letter], parent) for letter, parent in steps]
  hscale = [scales.get(("e", i), 1) * scales.get(("f", i), 1)
            for i in range(1, n + 1)]
  # alpha_j in weight coordinates: the j-th column of the Cartan matrix
  roots = [tuple(cartan[t][j] for t in range(n)) for j in range(n)]
  weight = rep.weight
  for key in rep.keys():
    wt = weight(key)
    vals = [{key: 1}]
    for fn, parent in plan:
      v = vals[parent]
      vals.append(fn(v) if v else v)
    # the (op, j) whose images miss the weight wt +- alpha_j somewhere
    off = set()
    for op, sign in (("e", 1), ("f", -1)):
      for j in range(1, n + 1):
        target = tuple(w + sign * a for w, a in zip(wt, roots[j - 1]))
        if any(weight(k2) != target for k2 in vals[single[(op, j)]]):
          off.add((op, j))
    for i in range(1, n + 1):
      for j in range(1, n + 1):
        # [E_i, F_j] = delta_ij H_i
        a, b = ef[i - 1][j - 1]
        if i == j and wt[i - 1]:
          lhs = dict(vals[a])
          _add_scaled(lhs, -1, vals[b])
          _add_scaled(lhs, -wt[i - 1] * hscale[i - 1], {key: 1})
          if lhs:
            return False, ("EF", i, j, key)
        elif vals[a] != vals[b]:
          return False, ("EF", i, j, key)
        # [H_i, E_j] = a_ij E_j and [H_i, F_j] = -a_ij F_j
        shift = cartan[i - 1][j - 1]
        for kind, op, sign in (("HE", "e", 1), ("HF", "f", -1)):
          if (op, j) in off and any(
              weight(k2)[i - 1] - wt[i - 1] != sign * shift
              for k2 in vals[single[(op, j)]]):
            return False, (kind, i, j, key)
    # Serre relations ad(X_i)^{1 - a_ij}(X_j) = 0 for i != j
    for i, j, kind, terms in serre:
      if len(terms) == 2:
        if vals[terms[0][1]] != vals[terms[1][1]]:
          return False, (kind, i, j, key)
      else:
        total = {}
        for c, s in terms:
          if vals[s]:
            _add_scaled(total, c, vals[s])
        if total:
          return False, (kind, i, j, key)
  return True, None


# -- subrepresentations ------------------------------------------------------

def subrepresentation(ambient, hw_vec, component):
  """The subrepresentation generated by a highest weight vector, in the
  basis of canonical-path vectors of a highest weight crystal component.

  For each crystal element the basis vector is obtained by applying the
  lowering operators along its canonical path to hw_vec.  The vectors of
  each weight fiber must be linearly independent (their number equals the
  crystal fiber size); the E_i / F_i actions are re-expressed in this basis
  by exact solves, verifying invariance on the way.  Keys of the returned
  representation are the crystal element indices.
  """
  rank = ambient.rank
  hw_wt = component.wt(0)
  if not highest_weight_check(ambient, hw_vec, hw_wt):
    raise ValueError("hw_vec is not a highest weight vector of the "
                     "component weight")
  n_elts = len(component)
  vecs = [None] * n_elts
  vecs[0] = hw_vec
  for b in range(1, n_elts):
    path = component.paths[b]
    parent = component.e(b, path[0])
    vecs[b] = ambient.apply_f(path[0], vecs[parent])
    if not vecs[b]:
      raise ValueError("canonical path vector vanished at element %d" % b)
  fibers = {}
  for b in range(n_elts):
    fibers.setdefault(component.wt(b), []).append(b)
  solvers = {}
  shared = {}

  def scalar(c):
    """c normalised, one object per value: the tables repeat few values."""
    v = normalize_scalar(c)
    return shared.setdefault(v, v)

  def solver_for(wt):
    if wt not in solvers:
      try:
        solvers[wt] = span_solver([vecs[b] for b in fibers[wt]])
      except ValueError:
        raise ValueError("fiber vectors are linearly dependent") from None
    return solvers[wt]

  weights = {b: component.wt(b) for b in range(n_elts)}
  e_act = {i: {} for i in range(1, rank + 1)}
  f_act = {i: {} for i in range(1, rank + 1)}
  depth = 0
  for b in range(n_elts):
    # The images of b lie one level above or below it, and elements come in
    # order of depth, so when a level starts the solvers two levels up are
    # done with; dropping them bounds the memory (a dropped solver is
    # rebuilt if needed again).
    if len(component.paths[b]) > depth:
      depth = len(component.paths[b])
      for done in [w for w in solvers
                   if len(component.paths[fibers[w][0]]) < depth - 1]:
        del solvers[done]
    for i in range(1, rank + 1):
      down = component.f(b, i)
      for op, table in (("e", e_act), ("f", f_act)):
        child = None
        if op == "f" and down is not None and component.paths[down][0] == i:
          # b is the canonical parent of down, so F_i vecs[b] is vecs[down]
          child = down
          img = vecs[down].entries
        else:
          img = ambient._act(op, i, vecs[b].entries)
        if not img:
          continue
        img_wt = ambient.weight(next(iter(img)))
        if img_wt not in fibers:
          raise ValueError("action leaves the crystal weight support")
        # built even when no solve follows: it checks that the fiber's
        # vectors are independent
        solve = solver_for(img_wt)
        if child is not None and img_wt == weights[child]:
          # a vector of the fiber basis has the unit coordinates of itself
          table[i][b] = {child: scalar(1)}
          continue
        coords = solve(SparseVector._raw(img))
        if coords is None:
          raise ValueError("action leaves the span of the fiber basis")
        table[i][b] = {bb: scalar(c)
                       for c, bb in zip(coords, fibers[img_wt]) if c}
  return TableRepresentation(rank, weights, e_act, f_act)


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
  climb through positive roots from alpha_{i_1} up to gamma."""
  gamma = tuple(gamma)
  if not sys.is_positive_root(gamma):
    raise ValueError("not a positive root")
  n = sys.rank
  height = sum(gamma)

  def rec(current, prefix):
    if len(prefix) == height:
      return prefix if current == gamma else None
    for i in range(1, n + 1):
      if current[i - 1] < gamma[i - 1]:
        nxt = current[:i - 1] + (current[i - 1] + 1,) + current[i:]
        if sys.is_positive_root(nxt):
          got = rec(nxt, prefix + (i,))
          if got is not None:
            return got
    return None

  path = rec((0,) * n, ())
  if path is None:
    raise AssertionError("no saturated chain found in the root poset")
  return path


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
