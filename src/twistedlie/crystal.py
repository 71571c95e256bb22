"""Minuscule crystals, tensor products, and highest weight components.

A minuscule crystal is realized on the minimal coset representatives
W^J (J the node complement): the raising operator at i sends w to s_i w
when that shortens w, and the lowering operator sends w to s_i w when that
lengthens w while staying J-minimal.  Tensor products use the signature
rule; a highest weight component is extracted by lowering from a chosen
highest weight element, with a canonical raising path recorded for every
element.
"""

from .rootsystem import compose, minimal_coset_reps, simple_reflection


class MinusculeCrystal:
  """The crystal of a minuscule fundamental weight.

  Elements are indexed 0..n-1 in breadth-first (length, discovery) order;
  index 0 is the highest weight element (the identity coset).
  """

  def __init__(self, sys, r):
    if not sys.is_minuscule(r):
      raise ValueError("node %d is not minuscule for %s" % (r, sys.ctype))
    self.sys = sys
    self.node = r
    J = set(range(1, sys.rank + 1)) - {r}
    self.elements = minimal_coset_reps(sys, J)
    self._index = {w.matrix: k for k, w in enumerate(self.elements)}
    omega = tuple(int(i == r - 1) for i in range(sys.rank))
    self.weights = [w.act(omega) for w in self.elements]
    self.e_table = {}
    self.f_table = {}
    for k, w in enumerate(self.elements):
      for i in range(1, sys.rank + 1):
        u = compose(sys, simple_reflection(sys, i), w)
        j = self._index.get(u.matrix)
        if j is None:
          continue
        if self.elements[j].length > w.length:
          self.f_table[(k, i)] = j
        else:
          self.e_table[(k, i)] = j

  def __len__(self):
    return len(self.elements)

  def indices(self):
    return range(len(self.elements))

  def wt(self, b):
    return self.weights[b]

  def e(self, b, i):
    return self.e_table.get((b, i))

  def f(self, b, i):
    return self.f_table.get((b, i))

  def eps(self, b, i):
    return 1 if (b, i) in self.e_table else 0

  def phi(self, b, i):
    return 1 if (b, i) in self.f_table else 0


class TensorCrystal:
  """Tensor product of crystals; elements are tuples of factor indices.

  The signature rule is applied with the convention that the lowering
  operator acts on the left factor when its phi exceeds the eps of the
  remaining factors, and the raising operator acts on the left factor when
  its phi is at least the eps of the remaining factors.
  """

  def __init__(self, factors):
    if not factors:
      raise ValueError("need at least one factor")
    self.factors = list(factors)
    self.rank = self.factors[0].sys.rank if hasattr(self.factors[0], "sys") \
        else self.factors[0].rank

  def __len__(self):
    n = 1
    for f in self.factors:
      n *= len(f)
    return n

  def elements(self):
    # iterate with the leftmost factor slowest for a stable order
    sizes = [len(f) for f in self.factors]
    total = 1
    for s in sizes:
      total *= s
    for code in range(total):
      out = []
      c = code
      for s in reversed(sizes):
        out.append(c % s)
        c //= s
      yield tuple(reversed(out))

  def wt(self, b):
    n = self.rank
    acc = [0] * n
    for f, bk in zip(self.factors, b):
      w = f.wt(bk)
      for t in range(n):
        acc[t] += w[t]
    return tuple(acc)

  def _eps_phi(self, b, i):
    """(eps, phi) of the product, folded over the factors right to left."""
    e2 = p2 = 0
    for factor, bk in zip(reversed(self.factors), reversed(b)):
      e1, p1 = factor.eps(bk, i), factor.phi(bk, i)
      e2, p2 = e1 + max(0, e2 - p1), p2 + max(0, p1 - e2)
    return e2, p2

  def eps(self, b, i):
    return self._eps_phi(b, i)[0]

  def phi(self, b, i):
    return self._eps_phi(b, i)[1]

  def _step(self, b, i, raising):
    """e (raising) or f applied to b, in one right-to-left pass: it acts on
    the leftmost factor whose phi reaches (e) or exceeds (f) the eps of
    the factors to its right."""
    pos = None
    e2 = 0
    for k in range(len(self.factors) - 1, -1, -1):
      factor, bk = self.factors[k], b[k]
      p1 = factor.phi(bk, i)
      if p1 > e2 or (raising and p1 == e2):
        pos = k
      e2 = factor.eps(bk, i) + max(0, e2 - p1)
    if pos is None:
      return None
    factor = self.factors[pos]
    img = factor.e(b[pos], i) if raising else factor.f(b[pos], i)
    return None if img is None else b[:pos] + (img,) + b[pos + 1:]

  def f(self, b, i):
    return self._step(b, i, False)

  def e(self, b, i):
    return self._step(b, i, True)


def tensor_crystal(*factors):
  return TensorCrystal(factors)


class HighestWeightComponent:
  """The connected component generated by a highest weight element of a
  tensor crystal, with canonical raising paths.

  Elements are indexed in (depth, path) order; the canonical path of an
  element is built by always raising at the smallest available node, and
  satisfies b = f_{path[0]} f_{path[1]} ... f_{path[-1]} (highest weight).
  """

  def __init__(self, tensor, hw):
    self.tensor = tensor
    self.rank = tensor.rank
    if any(tensor.eps(hw, i) for i in range(1, self.rank + 1)):
      raise ValueError("element is not of highest weight")
    self.hw = hw
    paths = {hw: ()}
    frontier = [hw]
    while frontier:
      nxt = []
      for b in frontier:
        for i in range(1, self.rank + 1):
          c = tensor.f(b, i)
          if c is not None and c not in paths:
            istar = min(j for j in range(1, self.rank + 1)
                        if tensor.e(c, j) is not None)
            parent = tensor.e(c, istar)
            paths[c] = (istar,) + paths[parent]
            nxt.append(c)
      frontier = nxt
    order = sorted(paths, key=lambda b: (len(paths[b]), paths[b]))
    self.elements = order
    self.paths = [paths[b] for b in order]
    self._index = {b: k for k, b in enumerate(order)}
    self.weights = [tensor.wt(b) for b in order]
    self.e_table = {}
    self.f_table = {}
    for k, b in enumerate(order):
      for i in range(1, self.rank + 1):
        c = tensor.f(b, i)
        if c is not None and c in self._index:
          self.f_table[(k, i)] = self._index[c]
        c = tensor.e(b, i)
        if c is not None and c in self._index:
          self.e_table[(k, i)] = self._index[c]

  def __len__(self):
    return len(self.elements)

  def indices(self):
    return range(len(self.elements))

  def wt(self, b):
    return self.weights[b]

  def e(self, b, i):
    return self.e_table.get((b, i))

  def f(self, b, i):
    return self.f_table.get((b, i))

  def eps(self, b, i):
    return self.tensor.eps(self.elements[b], i)

  def phi(self, b, i):
    return self.tensor.phi(self.elements[b], i)


def highest_weight_component(tensor, wt):
  """The component of the lexicographically least highest weight element of
  the given weight."""
  best = None
  for b in tensor.elements():
    if tensor.wt(b) == tuple(wt) and \
       all(tensor.eps(b, i) == 0 for i in range(1, tensor.rank + 1)):
      if best is None or b < best:
        best = b
  if best is None:
    raise ValueError("no highest weight element of weight %r" % (wt,))
  return HighestWeightComponent(tensor, best)
