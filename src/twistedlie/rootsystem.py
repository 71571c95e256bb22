"""Finite root systems, Weyl groups, and weight combinatorics, all exact.

Conventions:
  * Nodes are labelled 1..rank following the standard (Bourbaki) numbering.
  * The Cartan matrix is stored so that ``cartan[i][j] = <alpha_{j+1}, acheck_{i+1}>``
    (pairing of the j-th simple root against the i-th simple coroot).
  * Weights are tuples of coordinates in the fundamental weight basis, so
    ``wt[i-1] = <wt, acheck_i>``.
  * Roots are tuples of coordinates in the simple root basis.
  * The symmetrizer ``d`` consists of positive integers with d_i = 1 on short
    roots, making diag(d) * cartan symmetric; the induced invariant form is
    ``(x, y) = sum_j xroot_j * d_j * y_j``.

No floating point is used anywhere; all intermediate values are ints or
``fractions.Fraction``.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import add, le, mul, sub
from sys import maxsize

from .linalg import integer_inverse, normalize_scalar

FAMILIES = "ABCDEFG"


@dataclass(frozen=True)
class CartanType:
  family: str
  rank: int

  def __post_init__(self):
    f, n = self.family, self.rank
    if len(f) != 1 or f not in FAMILIES:
      raise ValueError("unknown family %r" % (f,))
    ok = ((f == "A" and n >= 1) or
          (f in "BC" and n >= 1) or
          (f == "D" and n >= 4) or
          (f == "E" and n in (6, 7, 8)) or
          (f == "F" and n == 4) or
          (f == "G" and n == 2))
    if not ok:
      raise ValueError("invalid rank %d for family %s" % (n, f))
    if n > maxsize:
      # checked before any per-node list or range is built
      raise ValueError("rank %d does not fit in an index" % n)

  def __str__(self):
    return "%s%d" % (self.family, self.rank)


def _edges(ctype):
  """Single-bond skeleton of the Dynkin diagram as 1-based node pairs."""
  f, n = ctype.family, ctype.rank
  if f in "ABCFG":
    return [(i, i + 1) for i in range(1, n)]
  if f == "D":
    return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
  if f == "E":
    base = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
    if n >= 7:
      base.append((6, 7))
    if n == 8:
      base.append((7, 8))
    return base
  raise AssertionError


def cartan_matrix(ctype):
  """The rank x rank Cartan matrix, entries <alpha_j, acheck_i>."""
  n = ctype.rank
  c = [[0] * n for _ in range(n)]
  for i in range(n):
    c[i][i] = 2
  for a, b in _edges(ctype):
    c[a - 1][b - 1] = -1
    c[b - 1][a - 1] = -1
  f = ctype.family
  if f == "B" and n >= 2:
    # alpha_n is short: <alpha_{n-1}, acheck_n> = -2.
    c[n - 1][n - 2] = -2
  elif f == "C" and n >= 2:
    # alpha_n is long: <alpha_n, acheck_{n-1}> = -2.
    c[n - 2][n - 1] = -2
  elif f == "F":
    # alpha_1, alpha_2 long; alpha_3, alpha_4 short.
    c[2][1] = -2
  elif f == "G":
    # alpha_1 short, alpha_2 long.
    c[0][1] = -3
  return tuple(tuple(row) for row in c)


def symmetrizer(ctype):
  """Positive integers d with diag(d) * cartan symmetric; short roots get 1."""
  f, n = ctype.family, ctype.rank
  if f == "B" and n >= 2:
    d = [2] * (n - 1) + [1]
  elif f == "C" and n >= 2:
    d = [1] * (n - 1) + [2]
  elif f == "F":
    d = [2, 2, 1, 1]
  elif f == "G":
    d = [1, 3]
  else:
    d = [1] * n
  return tuple(d)


class RootSystem:
  """A finite root system with precomputed positive roots and forms."""

  def __init__(self, ctype):
    self.ctype = ctype
    self.rank = ctype.rank
    self.cartan = cartan_matrix(ctype)
    self.d = symmetrizer(ctype)
    self._positive_steps = self._closure()
    self.positive_roots = tuple(alpha for alpha, _, _ in self._positive_steps)
    self._posroot_set = set(self.positive_roots)
    # the only root of greatest height, last in (height, coords) order
    self.highest_root = self.positive_roots[-1]
    self._freudenthal_cache = {}

  @cached_property
  def _root_coord_basis(self):
    """The inverse Cartan matrix as integer rows over one common
    denominator den: simple-root coordinate i of a weight is
    rows[i] . wt / den."""
    return integer_inverse(self.cartan)

  # -- basic coordinate plumbing ------------------------------------------

  def weight_root_coords(self, wt):
    """Simple-root coordinates of a weight in fund-weight coords: an int
    where the coordinate is integral, a Fraction where it is not."""
    wt = self._check_weight(wt)
    rows, den = self._root_coord_basis
    return tuple(normalize_scalar(sum(map(mul, row, wt)), den) for row in rows)

  def reflect(self, i, wt):
    """Simple reflection s_i on a weight in fundamental-weight coords."""
    if not 1 <= i <= self.rank:
      raise ValueError("node out of range")
    return self._reflect(i, self._check_weight(wt))

  def _reflect(self, i, wt):
    """reflect at a node in range, on a tuple with one coordinate per node."""
    c = wt[i - 1]
    return tuple(wt[j] - c * self.cartan[j][i - 1] for j in range(self.rank))

  def inner(self, x, y):
    """Invariant form (x, y) for weights in fundamental-weight coords."""
    return self.root_inner(self.weight_root_coords(x), y)

  def root_inner(self, root, y):
    """(root, y) for a root in simple-root coords, y in fund-weight coords."""
    return self._root_inner(self._check_weight(root), self._check_weight(y))

  def _root_inner(self, root, y):
    """root_inner of two tuples with one coordinate per node."""
    return sum(root[j] * self.d[j] * y[j] for j in range(self.rank))

  # -- positive roots -----------------------------------------------------

  def _closure(self):
    """The positive roots in (height, coords) order, as triples (alpha in
    simple-root coords, its height, alpha in fund-weight coords).

    A positive root beta that is not simple has an i with
    p = <beta, acheck_i> > 0, and s_i beta = beta - p alpha_i is a lower
    positive root that pairs to -p with acheck_i.  So the search steps up
    from the simple roots only where a weight coordinate p is negative: to
    beta - p alpha_i, with weight wt - p (column i of the Cartan matrix).
    """
    n = self.rank
    cols = tuple(zip(*self.cartan))
    weights = {tuple(int(i == j) for j in range(n)): cols[i]
               for i in range(n)}
    frontier = list(weights)
    while frontier:
      nxt = []
      for root in frontier:
        wt = weights[root]
        for i, p in enumerate(wt):
          if p < 0:
            up = list(root)
            up[i] -= p
            up = tuple(up)
            if up not in weights:
              weights[up] = tuple(a - p * c for a, c in zip(wt, cols[i]))
              nxt.append(up)
      frontier = nxt
    return tuple(sorted(((root, sum(root), wt)
                         for root, wt in weights.items()),
                        key=lambda step: (step[1], step[0])))

  def is_positive_root(self, root):
    return self._check_weight(root) in self._posroot_set

  # -- orbits and dominance ------------------------------------------------

  def is_dominant(self, wt):
    return all(c >= 0 for c in self._check_weight(wt))

  def dominant_representative(self, wt):
    """The unique dominant weight in the Weyl orbit of wt."""
    return self._dominant(self._check_weight(wt))

  def _dominant(self, cur):
    """dominant_representative of a tuple with one coordinate per node."""
    while True:
      for i in range(1, self.rank + 1):
        if cur[i - 1] < 0:
          cur = self._reflect(i, cur)
          break
      else:
        return cur

  def _check_weight(self, wt, integral=False):
    """wt as a tuple; ValueError unless it has one coordinate per node and,
    when ``integral``, integer coordinates."""
    wt = tuple(wt)
    if len(wt) != self.rank:
      raise ValueError("weight has %d coordinates, expected %d"
                       % (len(wt), self.rank))
    if integral and any(Fraction(c).denominator != 1 for c in wt):
      raise ValueError("weight must be integral")
    return wt

  def orbit_graph(self, lam):
    """The Weyl orbit of a dominant weight lam, breadth-first from lam (by
    depth, then discovery, the nodes scanned in increasing order), as
    (weights, steps) with steps[i - 1][k] the index of s_i weights[k] when
    <weights[k], acheck_i> > 0 and None otherwise: lowering steps that
    reach the whole orbit, one list per node."""
    lam = self._check_weight(lam)
    if not self.is_dominant(lam):
      raise ValueError("weight must be dominant")
    weights = [lam]
    index = {lam: 0}
    steps = [[] for _ in range(self.rank)]
    # the loop also visits the weights appended while it runs
    for mu in weights:
      for i, row in enumerate(steps, 1):
        j = None
        if mu[i - 1] > 0:
          nu = self._reflect(i, mu)
          if nu not in index:
            index[nu] = len(weights)
            weights.append(nu)
          j = index[nu]
        row.append(j)
    return weights, steps

  def weyl_orbit(self, wt):
    """The full Weyl orbit of a weight, as a frozenset of tuples."""
    start = self.dominant_representative(wt)
    return frozenset(self.orbit_graph(start)[0])

  def orbit_size(self, wt):
    """The number of weights in the Weyl orbit of wt, without building it:
    |W| / |W_J|, J the nodes where the dominant representative vanishes.
    Each order is the product of (ht alpha + 1) / ht alpha over the positive
    roots of its system (Macdonald, "The Poincare series of a Coxeter
    group", Math. Ann. 199, 1972), so the quotient runs over the positive
    roots not supported on J."""
    mu = self.dominant_representative(wt)
    heights = [sum(alpha) for alpha in self.positive_roots
               if any(a and c for a, c in zip(alpha, mu))]
    return prod(h + 1 for h in heights) // prod(heights)

  # -- multiplicities and dimensions ---------------------------------------

  def dominant_weights_below(self, lam):
    """The dominant mu with lam - mu a nonnegative integral sum of simple
    roots, as sorted pairs (height of lam - mu, mu).

    A search down from lam that subtracts every positive root and keeps the
    dominant results, so it visits only the weights it returns: comparable
    dominant weights are joined by a chain of dominant weights whose steps
    are positive roots (Stembridge, "The partial order of dominant weights",
    Adv. Math. 136, 1998).
    """
    lam = self._check_weight(lam)
    if not self.is_dominant(lam):
      raise ValueError("weight must be dominant")
    height = {lam: 0}
    frontier = [lam]
    while frontier:
      nxt = []
      for mu in frontier:
        for _, h, step in self._positive_steps:
          nu = tuple(map(sub, mu, step))
          if min(nu) >= 0 and nu not in height:
            height[nu] = height[mu] + h
            nxt.append(nu)
      frontier = nxt
    return sorted((h, mu) for mu, h in height.items())

  def dominant_covers(self, weights):
    """Every cover of the dominance order among ``weights``: the index
    pairs (a, b), in row-major order, with weights[a] covered by
    weights[b].

    ``weights`` must hold every dominant weight below each of its members,
    as ``dominant_weights_below`` lists them, so a cover inside it is a
    cover of the order.  A cover of dominant weights differs by a positive
    root (Stembridge, Adv. Math. 136, 1998).  So the candidates above
    weights[a] are weights[a] + alpha, alpha a positive root, looked up by
    their coordinates, and weights[a] + alpha is a cover iff no positive
    root beta < alpha has weights[a] + beta among them, since the first
    step of a chain from weights[a] to a weight strictly between would be
    such a beta.  A root below alpha has a smaller height, so it is met
    first.
    """
    weights = [self._check_weight(mu) for mu in weights]
    index = {mu: a for a, mu in enumerate(weights)}
    pairs = []
    for a, mu in enumerate(weights):
      hits = []
      above = []
      for alpha, _, step in self._positive_steps:
        b = index.get(tuple(map(add, mu, step)))
        if b is not None:
          if not any(all(map(le, beta, alpha)) for beta in hits):
            above.append(b)
          hits.append(alpha)
      pairs.extend((a, b) for b in sorted(above))
    return pairs

  def _freudenthal_table(self, lam):
    """Multiplicities of all dominant weights of the irrep with h.w. lam."""
    lam = self._check_weight(lam, integral=True)
    if lam in self._freudenthal_cache:
      return self._freudenthal_cache[lam]
    n = self.rank
    lam_rho = tuple(a + 1 for a in lam)
    norm_top = self.inner(lam_rho, lam_rho)
    mults = {}
    for height, mu in self.dominant_weights_below(lam):
      if height == 0:
        mults[mu] = 1
        continue
      diff = self.weight_root_coords(tuple(map(sub, lam, mu)))
      total = 0
      for root, _, rw in self._positive_steps:
        # mu + k*root can only be a weight while lam - (mu + k*root) stays
        # a nonnegative combination of simple roots
        kmax = min(diff[j] // root[j] for j in range(n) if root[j])
        for k in range(1, kmax + 1):
          nu = tuple(mu[i] + k * rw[i] for i in range(n))
          m = mults.get(self._dominant(nu), 0)
          if m:
            total += m * self._root_inner(root, nu)
      mu_rho = tuple(a + 1 for a in mu)
      den = norm_top - self.inner(mu_rho, mu_rho)
      val = Fraction(2 * total, den)
      if val.denominator != 1 or val < 0:
        raise AssertionError("multiplicity recursion must yield integers")
      m = int(val)
      if m:
        mults[mu] = m
    self._freudenthal_cache[lam] = mults
    return mults

  def freudenthal_multiplicity(self, lam, mu):
    """Multiplicity of the weight mu in the irrep with highest weight lam."""
    table = self._freudenthal_table(lam)
    mu = self._check_weight(mu, integral=True)
    return table.get(self._dominant(mu), 0)

  def weyl_dimension(self, lam):
    """Dimension of the irrep with highest weight lam."""
    lam = self._check_weight(lam, integral=True)
    if not self.is_dominant(lam):
      raise ValueError("weight must be dominant")
    rho = (1,) * self.rank
    lam_rho = tuple(a + 1 for a in lam)
    roots = self.positive_roots
    # Weyl's formula: the quotient of the two products is an integer
    dim, rem = divmod(prod(self._root_inner(root, lam_rho) for root in roots),
                      prod(self._root_inner(root, rho) for root in roots))
    if rem:
      raise AssertionError("dimension formula must yield an integer")
    return dim

  def is_minuscule(self, r):
    """Whether the r-th fundamental weight is minuscule: <omega_r, alphacheck>
    = 2 (alpha, omega_r) / (alpha, alpha) <= 1 for every positive root alpha,
    with (alpha, omega_r) = alpha_r d_r and alpha in fund-weight coords held
    by the closure."""
    if not 1 <= r <= self.rank:
      raise ValueError("node out of range")
    return all(2 * alpha[r - 1] * self.d[r - 1] <= self._root_inner(alpha, wt)
               for alpha, _, wt in self._positive_steps)


def build(family, rank):
  """Construct the root system of the given Cartan type."""
  return RootSystem(CartanType(family, rank))


def minimal_coset_reps(sys, J):
  """Minimal length coset representatives for W / W_J (J a set of 1-based
  nodes) as reduced words, applied right to left, in breadth-first order.

  W^J is in bijection with the orbit of rho_J = sum of omega_i, i not in J
  (Bjorner and Brenti, GTM 231, 2.4); a weight's word is s_i times the word
  of the weight whose step first reached it.  Kept only for the benchmark's
  span list: it can go once a benchmark change drops that target."""
  rho_j = tuple(0 if i in J else 1 for i in range(1, sys.rank + 1))
  weights, steps = sys.orbit_graph(rho_j)
  words = [()]
  # steps in (k, i) order come in discovery order, so a new index is the
  # next word
  for k in range(len(weights)):
    for i, row in enumerate(steps, 1):
      if row[k] == len(words):
        words.append((i,) + words[k])
  return words
