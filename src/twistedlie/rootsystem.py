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
from operator import sub

from .linalg import inverse

FAMILIES = "ABCDEFG"


@dataclass(frozen=True)
class CartanType:
  family: str
  rank: int

  def __post_init__(self):
    f, n = self.family, self.rank
    if f not in FAMILIES:
      raise ValueError("unknown family %r" % (f,))
    ok = ((f == "A" and n >= 1) or
          (f in "BC" and n >= 1) or
          (f == "D" and n >= 4) or
          (f == "E" and n in (6, 7, 8)) or
          (f == "F" and n == 4) or
          (f == "G" and n == 2))
    if not ok:
      raise ValueError("invalid rank %d for family %s" % (n, f))

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
    self.positive_roots = self._closure()
    self._posroot_set = set(self.positive_roots)
    self.highest_root = self._find_highest_root()
    self._freudenthal_cache = {}

  @cached_property
  def cartan_inv(self):
    return inverse(self.cartan)

  # -- basic coordinate plumbing ------------------------------------------

  def root_weight(self, root):
    """Fundamental-weight coordinates of a root given in simple-root coords."""
    n = self.rank
    return tuple(sum(root[j] * self.cartan[i][j] for j in range(n))
                 for i in range(n))

  def weight_root_coords(self, wt):
    """Simple-root coordinates (Fractions) of a weight in fund-weight coords."""
    n = self.rank
    return tuple(sum(self.cartan_inv[i][j] * wt[j] for j in range(n))
                 for i in range(n))

  def pairing(self, root, i):
    """<root, acheck_i> for a root in simple-root coords, i 1-based."""
    return sum(root[j] * self.cartan[i - 1][j] for j in range(self.rank))

  def reflect(self, i, wt):
    """Simple reflection s_i on a weight in fundamental-weight coords."""
    c = wt[i - 1]
    return tuple(wt[j] - c * self.cartan[j][i - 1] for j in range(self.rank))

  def reflect_root(self, i, root):
    """Simple reflection s_i on a root in simple-root coords."""
    p = self.pairing(root, i)
    out = list(root)
    out[i - 1] -= p
    return tuple(out)

  def inner(self, x, y):
    """Invariant form (x, y) for weights in fundamental-weight coords."""
    xr = self.weight_root_coords(x)
    return sum(xr[j] * self.d[j] * y[j] for j in range(self.rank))

  def root_inner(self, root, y):
    """(root, y) for a root in simple-root coords, y in fund-weight coords."""
    return sum(root[j] * self.d[j] * y[j] for j in range(self.rank))

  def root_norm(self, root):
    """(root, root)."""
    return self.root_inner(root, self.root_weight(root))

  def coroot_pairing(self, wt, root):
    """<wt, rootcheck> = 2 (wt, root) / (root, root)."""
    val = Fraction(2 * self.root_inner(root, wt), self.root_norm(root))
    if val.denominator == 1:
      return int(val)
    return val

  # -- positive roots and the root poset ----------------------------------

  def _closure(self):
    n = self.rank
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
      nxt = []
      for root in frontier:
        for i in range(1, n + 1):
          img = self.reflect_root(i, root)
          if all(c >= 0 for c in img) and img not in found:
            found.add(img)
            nxt.append(img)
      frontier = nxt
    return tuple(sorted(found, key=lambda r: (sum(r), r)))

  def is_positive_root(self, root):
    return tuple(root) in self._posroot_set

  def _find_highest_root(self):
    n = self.rank
    tops = []
    for root in self.positive_roots:
      if not any(self._add_simple(root, i) in self._posroot_set
                 for i in range(1, n + 1)):
        tops.append(root)
    if len(tops) != 1:
      raise AssertionError("root poset must have a unique maximum")
    return tops[0]

  @staticmethod
  def _add_simple(root, i):
    out = list(root)
    out[i - 1] += 1
    return tuple(out)

  def root_poset(self):
    """Cover relations of the positive-root poset.

    Returns (nodes, covers) with nodes the positive roots sorted by
    (height, coords) and covers a sorted list of (gamma, gamma + alpha_i, i).
    """
    covers = []
    for root in self.positive_roots:
      for i in range(1, self.rank + 1):
        up = self._add_simple(root, i)
        if up in self._posroot_set:
          covers.append((root, up, i))
    covers.sort(key=lambda e: (sum(e[0]), e[0], e[2]))
    return list(self.positive_roots), covers

  # -- orbits and dominance ------------------------------------------------

  def is_dominant(self, wt):
    return all(c >= 0 for c in wt)

  def dominant_representative(self, wt):
    """The unique dominant weight in the Weyl orbit of wt."""
    cur = tuple(wt)
    while True:
      for i in range(1, self.rank + 1):
        if cur[i - 1] < 0:
          cur = self.reflect(i, cur)
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
    (weights, table) with table[(k, i)] the index of s_i weights[k] whenever
    <weights[k], acheck_i> > 0: lowering steps that reach the whole orbit."""
    lam = self._check_weight(lam)
    if not self.is_dominant(lam):
      raise ValueError("weight must be dominant")
    weights = [lam]
    index = {lam: 0}
    table = {}
    # the loop also visits the weights appended while it runs
    for k, mu in enumerate(weights):
      for i in range(1, self.rank + 1):
        if mu[i - 1] > 0:
          nu = self.reflect(i, mu)
          if nu not in index:
            index[nu] = len(weights)
            weights.append(nu)
          table[(k, i)] = index[nu]
    return weights, table

  def weyl_orbit(self, wt):
    """The full Weyl orbit of a weight, as a frozenset of tuples."""
    start = self.dominant_representative(self._check_weight(wt))
    return frozenset(self.orbit_graph(start)[0])

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
    steps = [(sum(alpha), self.root_weight(alpha))
             for alpha in self.positive_roots]
    height = {lam: 0}
    frontier = [lam]
    while frontier:
      nxt = []
      for mu in frontier:
        for h, step in steps:
          nu = tuple(map(sub, mu, step))
          if min(nu) >= 0 and nu not in height:
            height[nu] = height[mu] + h
            nxt.append(nu)
      frontier = nxt
    return sorted((h, mu) for mu, h in height.items())

  def _freudenthal_table(self, lam):
    """Multiplicities of all dominant weights of the irrep with h.w. lam."""
    lam = self._check_weight(lam, integral=True)
    if lam in self._freudenthal_cache:
      return self._freudenthal_cache[lam]
    n = self.rank
    rho = (1,) * n
    lam_rho = tuple(a + 1 for a in lam)
    norm_top = self.inner(lam_rho, lam_rho)
    mults = {}
    lam_alpha = self.weight_root_coords(lam)
    for height, mu in self.dominant_weights_below(lam):
      if height == 0:
        mults[mu] = 1
        continue
      mu_alpha = self.weight_root_coords(mu)
      diff = [lam_alpha[j] - mu_alpha[j] for j in range(n)]
      total = 0
      for root in self.positive_roots:
        rw = self.root_weight(root)
        # mu + k*root can only be a weight while lam - (mu + k*root) stays
        # a nonnegative combination of simple roots
        kmax = min(int(diff[j] / root[j]) for j in range(n) if root[j])
        for k in range(1, kmax + 1):
          nu = tuple(mu[i] + k * rw[i] for i in range(n))
          m = mults.get(self.dominant_representative(nu), 0)
          if m:
            total += m * self.root_inner(root, nu)
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
    return table.get(self.dominant_representative(mu), 0)

  def weight_multiplicities(self, lam):
    """Dict of dominant weight -> multiplicity for highest weight lam."""
    return dict(self._freudenthal_table(lam))

  def weyl_dimension(self, lam):
    """Dimension of the irrep with highest weight lam."""
    lam = self._check_weight(lam, integral=True)
    if not self.is_dominant(lam):
      raise ValueError("weight must be dominant")
    n = self.rank
    rho = (1,) * n
    lam_rho = tuple(a + 1 for a in lam)
    out = Fraction(1)
    for root in self.positive_roots:
      out *= Fraction(self.root_inner(root, lam_rho),
                      self.root_inner(root, rho))
    if out.denominator != 1:
      raise AssertionError("dimension formula must yield an integer")
    return int(out)

  def is_minuscule(self, r):
    """Whether the r-th fundamental weight is minuscule."""
    if not 1 <= r <= self.rank:
      raise ValueError("node out of range")
    wt = tuple(int(i == r - 1) for i in range(self.rank))
    return all(self.coroot_pairing(wt, root) <= 1
               for root in self.positive_roots)


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
  words = [()]
  # table keys come in discovery order, so a new index is the next word
  for (k, i), j in sys.orbit_graph(rho_j)[1].items():
    if j == len(words):
      words.append((i,) + words[k])
  return words
