"""Exact representation models built from crystals.

A representation here is a weight-graded basis with sparse raising and
lowering operators E_i, F_i; the diagonal operators H_i act by the pairing
of the basis weight against the i-th simple coroot.  All coefficients are
exact rationals.  The module provides:

  * the 0/1 model on a minuscule crystal,
  * tensor products via the Leibniz rule,
  * exponentials of the nilpotent operators and the resulting simple
    reflection action exp(F_i) exp(-E_i) exp(F_i),
  * a full defining-relations checker (commutators and Serre relations),
  * extraction of a subrepresentation spanned by canonical-path vectors
    attached to a highest weight component of a tensor crystal,
  * lowering operators attached to arbitrary positive roots via iterated
    commutators along a root-poset path.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .linalg import SparseVector, ZERO_VECTOR, normalize_scalar, span_solver


class Representation:
  """Interface: weight-graded basis with sparse E_i / F_i actions."""

  def keys(self):
    raise NotImplementedError

  def weight(self, key):
    raise NotImplementedError

  def apply_e_key(self, i, key):
    raise NotImplementedError

  def apply_f_key(self, i, key):
    raise NotImplementedError

  def apply_e(self, i, vec):
    acc = {}
    for key, c in vec.items():
      for k2, c2 in self.apply_e_key(i, key).items():
        s = acc.get(k2, 0) + c * c2
        if s:
          acc[k2] = s
        else:
          del acc[k2]
    return SparseVector._raw(acc)

  def apply_f(self, i, vec):
    acc = {}
    for key, c in vec.items():
      for k2, c2 in self.apply_f_key(i, key).items():
        s = acc.get(k2, 0) + c * c2
        if s:
          acc[k2] = s
        else:
          del acc[k2]
    return SparseVector._raw(acc)

  def apply_h(self, i, vec):
    acc = {}
    for key, c in vec.items():
      w = self.weight(key)[i - 1]
      if w:
        acc[key] = c * w
    return SparseVector._raw(acc)


class TableRepresentation(Representation):
  """A representation with explicit sparse action tables."""

  def __init__(self, rank, weights, e_act, f_act):
    self.rank = rank
    self._weights = dict(weights)
    self._e = e_act
    self._f = f_act

  def keys(self):
    return self._weights.keys()

  def weight(self, key):
    return self._weights[key]

  def apply_e_key(self, i, key):
    return self._e.get(i, {}).get(key, ZERO_VECTOR)

  def apply_f_key(self, i, key):
    return self._f.get(i, {}).get(key, ZERO_VECTOR)


class ProductRepresentation(Representation):
  """Tensor product; keys are tuples, operators act by the Leibniz rule."""

  def __init__(self, factors):
    self.factors = list(factors)
    self.rank = self.factors[0].rank

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

  def _apply_key(self, op, i, key):
    acc = {}
    for pos, (f, k) in enumerate(zip(self.factors, key)):
      part = f.apply_e_key(i, k) if op == "e" else f.apply_f_key(i, k)
      for k2, c in part.items():
        full = key[:pos] + (k2,) + key[pos + 1:]
        s = acc.get(full, 0) + c
        if s:
          acc[full] = s
        else:
          del acc[full]
    return SparseVector._raw(acc)

  def apply_e_key(self, i, key):
    return self._apply_key("e", i, key)

  def apply_f_key(self, i, key):
    return self._apply_key("f", i, key)


def minuscule_representation(crys):
  """The 0/1 model on a minuscule crystal: operators permute basis lines."""
  rank = crys.sys.rank
  weights = {b: crys.wt(b) for b in crys.indices()}
  e_act = {i: {} for i in range(1, rank + 1)}
  f_act = {i: {} for i in range(1, rank + 1)}
  for b in crys.indices():
    for i in range(1, rank + 1):
      up = crys.e(b, i)
      if up is not None:
        e_act[i][b] = SparseVector.unit(up)
      dn = crys.f(b, i)
      if dn is not None:
        f_act[i][b] = SparseVector.unit(dn)
  return TableRepresentation(rank, weights, e_act, f_act)


def tensor_many(factors):
  """n-ary tensor product; keys are flat tuples."""
  return ProductRepresentation(factors)


def exp_nilpotent(apply_fn, vec, sign=1, max_power=200):
  """exp of a nilpotent operator applied to a vector:
  sum_k sign^k op^k(vec) / k! until the power vanishes."""
  total = vec
  cur = vec
  k = 0
  while cur:
    k += 1
    if k > max_power:
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

def verify_representation_detailed(rep, cartan):
  """Check the defining relations on every basis vector.

  cartan[i][j] = <alpha_{j+1}, acheck_{i+1}> is the Cartan matrix of the
  acting type.  Returns (ok, witness); the witness names the first failing
  relation and basis key.  Checked relations, against each unit vector:
  commutators of the diagonal operators, [E_i, F_j] = delta_ij H_i, the
  weight equivariance of E_j and F_j under H_i, and both Serre relations.
  """
  n = rep.rank
  for key in rep.keys():
    v = SparseVector.unit(key)
    wt = rep.weight(key)
    for i in range(1, n + 1):
      for j in range(1, n + 1):
        # [H_i, H_j] = 0: diagonal operators commute
        hh1 = rep.apply_h(i, rep.apply_h(j, v))
        hh2 = rep.apply_h(j, rep.apply_h(i, v))
        if hh1 != hh2:
          return False, ("HH", i, j, key)
        # [E_i, F_j] = delta_ij H_i
        lhs = rep.apply_e(i, rep.apply_f(j, v)) - rep.apply_f(j, rep.apply_e(i, v))
        rhs = rep.apply_h(i, v) if i == j else ZERO_VECTOR
        if lhs != rhs:
          return False, ("EF", i, j, key)
        # [H_i, E_j] = <alpha_j, acheck_i> E_j
        ej = rep.apply_e(j, v)
        lhs = rep.apply_h(i, ej) - ej.scale(wt[i - 1])
        if lhs != ej.scale(cartan[i - 1][j - 1]):
          return False, ("HE", i, j, key)
        # [H_i, F_j] = -<alpha_j, acheck_i> F_j
        fj = rep.apply_f(j, v)
        lhs = rep.apply_h(i, fj) - fj.scale(wt[i - 1])
        if lhs != fj.scale(-cartan[i - 1][j - 1]):
          return False, ("HF", i, j, key)
    # Serre relations ad(X_i)^{1 - a_ij}(X_j) = 0 for i != j
    for i in range(1, n + 1):
      for j in range(1, n + 1):
        if i == j:
          continue
        m = 1 - cartan[i - 1][j - 1]
        if _ad_power(rep, "e", i, j, m, v):
          return False, ("SerreE", i, j, key)
        if _ad_power(rep, "f", i, j, m, v):
          return False, ("SerreF", i, j, key)
  return True, None


def _ad_power(rep, op, i, j, m, v):
  """ad(X_i)^m (X_j) applied to v, expanded by the binomial formula."""
  apply_i = (lambda w: rep.apply_e(i, w)) if op == "e" else \
            (lambda w: rep.apply_f(i, w))
  apply_j = (lambda w: rep.apply_e(j, w)) if op == "e" else \
            (lambda w: rep.apply_f(j, w))
  total = ZERO_VECTOR
  binom = 1
  for k in range(m + 1):
    cur = v
    for _ in range(k):
      cur = apply_i(cur)
    cur = apply_j(cur)
    for _ in range(m - k):
      cur = apply_i(cur)
    total = total + cur.scale(((-1) ** k) * binom)
    binom = binom * (m - k) // (k + 1)
  return total


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
  for b in range(n_elts):
    # The images of b lie one level above or below it, and elements come in
    # order of depth, so the solvers two levels up are done with; dropping
    # them bounds the memory (a dropped solver is rebuilt if needed again).
    depth = len(component.paths[b])
    for done in [w for w in solvers
                 if len(component.paths[fibers[w][0]]) < depth - 1]:
      del solvers[done]
    for i in range(1, rank + 1):
      for op, table in (("e", e_act), ("f", f_act)):
        img = ambient.apply_e(i, vecs[b]) if op == "e" else \
            ambient.apply_f(i, vecs[b])
        if not img:
          continue
        img_wt = ambient.weight(next(iter(img.keys())))
        if img_wt not in fibers:
          raise ValueError("action leaves the crystal weight support")
        coords = solver_for(img_wt)(img)
        if coords is None:
          raise ValueError("action leaves the span of the fiber basis")
        entry = {}
        for c, bb in zip(coords, fibers[img_wt]):
          if c:
            entry[bb] = normalize_scalar(c)
        table[i][b] = SparseVector._raw(entry)
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
    total = ZERO_VECTOR
    for sign, word in self.terms:
      cur = vec
      for i in reversed(word):
        cur = rep.apply_f(i, cur)
        if not cur:
          break
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
