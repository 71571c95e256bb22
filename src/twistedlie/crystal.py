"""Minuscule crystals, tensor products, and highest weight components.

A finite crystal is stored as tables: a weight per element and the
lowering operators f_i as a table of (element, node) -> element.  The
raising operators are the inverted table, and eps_i / phi_i are the lengths
of the i-strings read off the tables, which is valid because such a crystal
is closed under every e_i and f_i.

The crystal of a minuscule fundamental weight omega_r is the Weyl orbit of
omega_r: f_i sends a weight mu to s_i mu = mu - alpha_i exactly when
<mu, alpha_i^vee> = 1.  Tensor products use the signature rule (Kashiwara,
Duke Math. J. 63, 1991) on per-node columns read once from the factor
tables, so no table of the product is built; a highest weight component
is extracted by lowering from a chosen highest weight element, level by
level, with a canonical raising path recorded for every element.
"""

from itertools import product
from math import prod


class TableCrystal:
  """A finite crystal on the indices 0..n-1, given by its weights and its
  table {(b, i): f_i b}.  e_i is the table inverted; eps_i and phi_i are
  the lengths of the i-strings in the table, the true values for a crystal
  closed under every e_i and f_i, as the subclasses are."""

  def __init__(self, rank, weights, f_table):
    self.rank = rank
    self.weights = weights
    self.f_table = f_table
    self.e_table = {(c, i): b for (b, i), c in f_table.items()}
    # the string lengths per node and element, walked down from the top of
    # every string
    self._eps = {i: [0] * len(weights) for i in range(1, rank + 1)}
    self._phi = {i: [0] * len(weights) for i in range(1, rank + 1)}
    for (b, i) in f_table:
      if (b, i) in self.e_table:
        continue
      string = [b]
      while (string[-1], i) in f_table:
        string.append(f_table[(string[-1], i)])
      for k, c in enumerate(string):
        self._eps[i][c] = k
        self._phi[i][c] = len(string) - 1 - k

  def __len__(self):
    return len(self.weights)

  def indices(self):
    return range(len(self.weights))

  def wt(self, b):
    return self.weights[b]

  def e(self, b, i):
    return self.e_table.get((b, i))

  def f(self, b, i):
    return self.f_table.get((b, i))

  def eps(self, b, i):
    return self._eps[i][b]

  def phi(self, b, i):
    return self._phi[i][b]


class MinusculeCrystal(TableCrystal):
  """The crystal of a minuscule fundamental weight.

  Elements and f_table are read from ``RootSystem.orbit_graph(omega_r)``:
  the orbit breadth-first from index 0, the highest weight element, and its
  lowering steps.  Orbit coordinates lie in {-1, 0, 1}, so each lowering
  step s_i mu is f_i mu.
  """

  def __init__(self, sys, r):
    if not sys.is_minuscule(r):
      raise ValueError("node %d is not minuscule for %s" % (r, sys.ctype))
    omega = tuple(int(i == r - 1) for i in range(sys.rank))
    weights, steps = sys.orbit_graph(omega)
    f_table = {(k, i): row[k] for k in range(len(weights))
               for i, row in enumerate(steps, 1) if row[k] is not None}
    super().__init__(sys.rank, weights, f_table)


class TensorCrystal:
  """Tensor product of crystals; elements are tuples of factor indices.

  The signature rule is applied with the convention that the lowering
  operator acts on the left factor when its phi exceeds the eps of the
  remaining factors, and the raising operator acts on the left factor when
  its phi is at least the eps of the remaining factors.

  Every factor is a ``TableCrystal`` of the same rank.  Its tables are read
  once into per-node columns, a list per factor indexed by element: eps,
  phi, e and f.  The operators then read only those lists and the factor
  weights; no table of the product is built.
  """

  def __init__(self, factors):
    if not factors:
      raise ValueError("need at least one factor")
    self.factors = list(factors)
    if not all(isinstance(f, TableCrystal) for f in self.factors):
      raise TypeError("every factor must be a TableCrystal")
    self.rank = self.factors[0].rank
    if any(f.rank != self.rank for f in self.factors):
      raise ValueError("factors of ranks %s differ"
                       % [f.rank for f in self.factors])
    nodes = range(1, self.rank + 1)
    self._weights = [f.weights for f in self.factors]
    self._eps = {i: [f._eps[i] for f in self.factors] for i in nodes}
    self._phi = {i: [f._phi[i] for f in self.factors] for i in nodes}
    self._e = {i: [[None] * len(f) for f in self.factors] for i in nodes}
    self._f = {i: [[None] * len(f) for f in self.factors] for i in nodes}
    for k, factor in enumerate(self.factors):
      for (b, i), c in factor.f_table.items():
        self._f[i][k][b] = c
        self._e[i][k][c] = b

  def __len__(self):
    return prod(map(len, self.factors))

  def elements(self):
    """The index tuples in lexicographic order, the leftmost factor
    slowest."""
    return product(*(f.indices() for f in self.factors))

  def wt(self, b):
    return tuple(map(sum, zip(*[w[bk] for w, bk in zip(self._weights, b)])))

  def _eps_phi(self, b, i):
    """(eps, phi) of the product, folded over the factors right to left:
    eps = e1 + max(0, e2 - p1) and phi = p2 + max(0, p1 - e2)."""
    eps, phi = self._eps[i], self._phi[i]
    e2 = p2 = 0
    for k in range(len(b) - 1, -1, -1):
      p1 = phi[k][b[k]]
      if p1 >= e2:
        p2 += p1 - e2
        e2 = eps[k][b[k]]
      else:
        e2 += eps[k][b[k]] - p1
    return e2, p2

  def eps(self, b, i):
    return self._eps_phi(b, i)[0]

  def phi(self, b, i):
    return self._eps_phi(b, i)[1]

  def _step(self, b, i, raising):
    """e (raising) or f applied to b, in one right-to-left pass: it acts on
    the leftmost factor whose phi reaches (e) or exceeds (f) the eps of
    the factors to its right."""
    eps, phi = self._eps[i], self._phi[i]
    pos = None
    e2 = 0
    for k in range(len(b) - 1, -1, -1):
      p1 = phi[k][b[k]]
      if p1 >= e2:
        if raising or p1 > e2:
          pos = k
        e2 = eps[k][b[k]]
      else:
        e2 += eps[k][b[k]] - p1
    if pos is None:
      return None
    img = (self._e if raising else self._f)[i][pos][b[pos]]
    return None if img is None else b[:pos] + (img,) + b[pos + 1:]

  def f(self, b, i):
    return self._step(b, i, False)

  def e(self, b, i):
    return self._step(b, i, True)


def tensor_crystal(*factors):
  return TensorCrystal(factors)


class HighestWeightComponent(TableCrystal):
  """The connected component generated by a highest weight element of a
  tensor crystal, with canonical raising paths.

  Elements are indexed in (depth, path) order; the canonical path of an
  element is built by always raising at the smallest available node, and
  satisfies b = f_{path[0]} f_{path[1]} ... f_{path[-1]} (highest weight).
  The component is found level by level with one f_i per element and node:
  an element's canonical node is the least node with a preimage in the
  level above, and that preimage is its parent.
  """

  def __init__(self, tensor, hw):
    rank = tensor.rank
    if any(tensor.eps(hw, i) for i in range(1, rank + 1)):
      raise ValueError("element is not of highest weight")
    self.tensor = tensor
    self.hw = hw
    self.elements = [hw]
    self.paths = [()]
    index = {hw: 0}
    f_table = {}
    start = 0
    while start < len(self.elements):
      stop = len(self.elements)
      images = {}
      found = {}
      for k in range(start, stop):
        for i in range(1, rank + 1):
          c = tensor.f(self.elements[k], i)
          if c is not None:
            images[(k, i)] = c
            if c not in found or i < found[c][0]:
              found[c] = (i, k)
      # the parents' paths come in order, so (node, parent) orders the paths
      for c in sorted(found, key=found.get):
        i, k = found[c]
        index[c] = len(self.elements)
        self.elements.append(c)
        self.paths.append((i,) + self.paths[k])
      for key, c in images.items():
        f_table[key] = index[c]
      start = stop
    super().__init__(rank, [tensor.wt(b) for b in self.elements], f_table)


def highest_weight_component(tensor, wt):
  """The component of the lexicographically least highest weight element of
  the given weight.  ``tensor.elements()`` comes in lexicographic order, so
  that is the first one found."""
  target = tuple(wt)
  for b in tensor.elements():
    if tensor.wt(b) == target and \
       all(tensor.eps(b, i) == 0 for i in range(1, tensor.rank + 1)):
      return HighestWeightComponent(tensor, b)
  raise ValueError("no highest weight element of weight %r" % (wt,))
