"""Minuscule crystals, tensor products, and highest weight components.

Every table has one format, a list per node indexed by element: f[i - 1][b]
is f_i b, or None.  A finite crystal is its weights and its f columns; the
e columns are their inverse, and eps_i / phi_i are the lengths of the
i-strings walked up and down from an element when asked for, which is valid
because such a crystal is closed under every e_i and f_i.  Every public
operator takes a node i in 1..rank, and every public operator of a table
crystal an element in range(len(crystal)), else ValueError.

The crystal of a minuscule fundamental weight omega_r is the Weyl orbit of
omega_r: f_i sends a weight mu to s_i mu = mu - alpha_i exactly when
<mu, alpha_i^vee> = 1, so its f columns are ``RootSystem.orbit_graph``'s
steps.  Tensor products use the signature rule (Kashiwara, Duke Math. J.
63, 1991) in one fold over per-node columns of the factors, so no table of
the product is built; a highest weight component is extracted by lowering
from a chosen highest weight element, level by level, with a canonical
raising path recorded for every element.
"""

from itertools import product
from math import prod
from operator import add, contains, getitem, sub


class TableCrystal:
  """A finite crystal on the indices 0..n-1, given by its weights and its
  lowering columns: f[i - 1][b] is f_i b, or None.  The raising columns e
  are their inverse, built here; both are lists indexed [i - 1][b].  eps
  and phi are not tabulated: each call walks the i-string up or down from
  b, the true values for a crystal closed under every e_i and f_i, as the
  subclasses are.  A node outside 1..rank, or an element outside
  range(len(self)), raises ValueError."""

  def __init__(self, rank, weights, f):
    self.rank = rank
    self.weights = weights
    self._f = f
    self._indices = range(len(weights))
    self._e = [[None] * len(weights) for _ in f]
    for down, up in zip(f, self._e):
      for b, c in enumerate(down):
        if c is not None:
          up[c] = b

  def __len__(self):
    return len(self.weights)

  def indices(self):
    return self._indices

  def wt(self, b):
    return self.weights[_index(self, b)]

  def e(self, b, i):
    return self._e[_node(self, i) - 1][_index(self, b)]

  def f(self, b, i):
    return self._f[_node(self, i) - 1][_index(self, b)]

  def eps(self, b, i):
    return _string_length(self._e[_node(self, i) - 1], _index(self, b))

  def phi(self, b, i):
    return _string_length(self._f[_node(self, i) - 1], _index(self, b))


def _index(crystal, b):
  """b, for an element of a TableCrystal, in range(len(crystal)); else
  ValueError."""
  if b not in crystal._indices:
    raise ValueError("element %r is not in range(%d)"
                     % (b, len(crystal._indices)))
  return b


def _node(crystal, i):
  """i, for a node in 1..crystal.rank; else ValueError."""
  if not 1 <= i <= crystal.rank:
    raise ValueError("node %r is not in 1..%d" % (i, crystal.rank))
  return i


def _string_length(column, b):
  """How many steps a column takes from b before it gives None."""
  n = 0
  while (b := column[b]) is not None:
    n += 1
  return n


class MinusculeCrystal(TableCrystal):
  """The crystal of a minuscule fundamental weight.

  Elements and f columns are ``RootSystem.orbit_graph(omega_r)`` as given:
  the orbit breadth-first from index 0, the highest weight element, and its
  lowering steps.  Orbit coordinates lie in {-1, 0, 1}, so each lowering
  step s_i mu is f_i mu.
  """

  def __init__(self, sys, r):
    if not sys.is_minuscule(r):
      raise ValueError("node %d is not minuscule for %s" % (r, sys.ctype))
    omega = tuple(int(i == r - 1) for i in range(sys.rank))
    super().__init__(sys.rank, *sys.orbit_graph(omega))


class TensorCrystal:
  """Tensor product of crystals; elements are tuples of factor indices.

  The signature rule is applied with the convention that the lowering
  operator acts on the left factor when its phi exceeds the eps of the
  remaining factors, and the raising operator acts on the left factor when
  its phi is at least the eps of the remaining factors.

  Every factor is a ``TableCrystal`` of the same rank.  The tensor holds
  the factors' own e and f columns by node, _e[i - 1][k] for factor k, and
  likewise _f; _columns[i - 1] is a triple (k, eps column, phi column) per
  factor, right to left, read off the factors once.  One fold over them
  gives eps, phi and the acting factor; no table of the product is built.
  The public wt, eps, phi, e and f check the element (``_element``); the
  private _wt, _fold and _step do not.
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
    self._weights = [f.weights for f in self.factors]
    self._ranges = [f.indices() for f in self.factors]
    self._e, self._f = (list(zip(*(getattr(f, name) for f in self.factors)))
                        for name in ("_e", "_f"))
    self._columns = [tuple((k, [f.eps(b, i) for b in f.indices()],
                            [f.phi(b, i) for b in f.indices()])
                           for k, f in reversed([*enumerate(self.factors)]))
                     for i in range(1, self.rank + 1)]

  def __len__(self):
    return prod(map(len, self.factors))

  def elements(self):
    """The index tuples in lexicographic order, the leftmost factor
    slowest."""
    return product(*(f.indices() for f in self.factors))

  def _element(self, b):
    """b, for one index per factor in that factor's range; else ValueError."""
    if len(b) != len(self._ranges) or not all(map(contains, self._ranges, b)):
      raise ValueError("%r is not one entry per factor in range" % (b,))
    return b

  def wt(self, b):
    return self._wt(self._element(b))

  def _wt(self, b):
    total, *rest = map(getitem, self._weights, b)
    for w in rest:
      total = tuple(map(add, total, w))
    return total

  def _fold(self, b, i, raising):
    """(eps, phi, pos) of b at node i, in one right-to-left pass.  A factor
    (e1, p1) folds onto the factors to its right, (e2, p2), as
    eps = e1 + max(0, e2 - p1) and phi = p2 + max(0, p1 - e2); pos is the
    factor that e_i (raising) or f_i acts on, the leftmost whose phi
    reaches (e) or exceeds (f) the eps of the factors to its right, or
    None.  The node is not checked."""
    pos = None
    e2 = p2 = 0
    for k, eps, phi in self._columns[i - 1]:
      bk = b[k]
      p1 = phi[bk]
      if p1 >= e2:
        if raising or p1 > e2:
          pos = k
        p2 += p1 - e2
        e2 = eps[bk]
      else:
        e2 += eps[bk] - p1
    return e2, p2, pos

  def _step(self, b, i, raising):
    """e_i b (raising) or f_i b; the node is not checked."""
    pos = self._fold(b, i, raising)[2]
    if pos is None:
      return None
    img = (self._e if raising else self._f)[i - 1][pos][b[pos]]
    return None if img is None else b[:pos] + (img,) + b[pos + 1:]

  def eps(self, b, i):
    return self._fold(self._element(b), _node(self, i), False)[0]

  def phi(self, b, i):
    return self._fold(self._element(b), _node(self, i), False)[1]

  def f(self, b, i):
    return self._step(self._element(b), _node(self, i), False)

  def e(self, b, i):
    return self._step(self._element(b), _node(self, i), True)


def tensor_crystal(*factors):
  return TensorCrystal(factors)


class HighestWeightComponent(TableCrystal):
  """The connected component generated by a highest weight element of a
  tensor crystal, with canonical raising paths.

  Elements are indexed in (depth, path) order; the canonical path of an
  element is built by always raising at the smallest available node, and
  satisfies b = f_{path[0]} f_{path[1]} ... f_{path[-1]} (highest weight).
  The component is found level by level with one f_i per element and node,
  node by node: an element's canonical node is the least node with a
  preimage in the level above, and its first such preimage is its parent.
  An element's weight is its parent's with the weight of the one factor
  that f lowered swapped.  The f columns fill in index order and are
  mapped to indices once.
  """

  def __init__(self, tensor, hw):
    rank = tensor.rank
    hw = tensor._element(hw)
    if any(tensor._fold(hw, i, False)[0] for i in range(1, rank + 1)):
      raise ValueError("element is not of highest weight")
    self.tensor = tensor
    self.hw = hw
    self.elements = elements = [hw]
    self.paths = paths = [()]
    weights = [tensor._wt(hw)]
    factor_weights = tensor._weights
    step = tensor._step
    f = [[] for _ in range(rank)]
    start = 0
    while start < len(elements):
      stop = len(elements)
      found = {}
      for i, column in enumerate(f, 1):
        for k in range(start, stop):
          c = step(elements[k], i, False)
          column.append(c)
          if c is not None and c not in found:
            found[c] = (i, k)
      # found keeps (node, first parent) order, which is path order
      for c, (i, k) in found.items():
        # c is its parent with one factor lowered: swap that factor's weight
        parent = elements[k]
        pos = 0
        while parent[pos] == c[pos]:
          pos += 1
        fw = factor_weights[pos]
        weights.append(tuple(map(add, map(sub, weights[k], fw[parent[pos]]),
                                 fw[c[pos]])))
        elements.append(c)
        paths.append((i,) + paths[k])
      start = stop
    index = {b: k for k, b in enumerate(elements)}
    super().__init__(rank, weights,
                     [list(map(index.get, column)) for column in f])


def highest_weight_component(tensor, wt):
  """The component of the lexicographically least highest weight element of
  the given weight.  ``tensor.elements()`` comes in lexicographic order, so
  that is the first one found; eps is tested first, as few elements are
  of highest weight."""
  target = tuple(wt)
  nodes = range(1, tensor.rank + 1)
  for b in tensor.elements():
    if not any(tensor._fold(b, i, False)[0] for i in nodes) \
       and tensor._wt(b) == target:
      return HighestWeightComponent(tensor, b)
  raise ValueError("no highest weight element of weight %r" % (wt,))
