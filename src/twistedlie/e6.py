"""The E6 verification suite.

Bundles the computations around the 2925-dimensional representation
carrying the fourth fundamental weight of E6, realized inside the exterior
cube of the 27-dimensional minuscule representation V(omega_1) (which it
fills: C(27, 3) = 2925):

  * construction of the highest weight vector and the subrepresentation in
    the canonical-path basis,
  * the distinguished weight-zero vector obtained by two long lowering
    operators, its Weyl orbit up to sign, and the rank of that orbit inside
    the weight-zero fiber,
  * the Levi-extremal sweep over all arrangements of the ten-letter
    lowering multiset,
  * the dominance chain of coweights below the fourth fundamental coweight,
  * the numbers-game poset fixture generator.

Everything is exact; the suite takes about a second to build (0.8-1.0 s
with Python 3.11 on a 2-vCPU VM, most of it the exterior cube's E_i / F_i
actions and the certified fiber solves) and callers are expected to cache
it.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .linalg import SparseVector, normalize_scalar, rank as matrix_rank
from . import crystal as crystal_mod
from . import reps
from .rootsystem import build

OMEGA1 = (1, 0, 0, 0, 0, 0)
OMEGA2 = (0, 1, 0, 0, 0, 0)
OMEGA4 = (0, 0, 0, 1, 0, 0)

#: The ten lowering letters: simple-root multiplicities of the difference
#: between the fourth fundamental weight and the second.
SWEEP_LETTERS = (1, 2, 3, 3, 4, 4, 4, 5, 5, 6)

#: |W(E6)|, a bound on the size of any Weyl orbit.
WEYL_ORDER = 51840

#: The sweep reports at most this many counterexample words.
MAX_COUNTEREXAMPLES = 5


def _noop(msg):
  pass


def _primitive(c, num):
  """The nonzero vector c * num, c a Fraction and num an int dict, as
  (key, c, num) with the entries of num made coprime; the vectors v and -v
  have the same key."""
  g = gcd(*num.values())
  if g != 1:
    num = {k: x // g for k, x in num.items()}
    c *= g
  key = sorted(num.items())
  if key[0][1] < 0:
    key = [(k, -x) for k, x in key]
  return (tuple(key), abs(c)), c, num


class E6Suite:
  """Heavy shared state for the E6 checks."""

  def __init__(self, progress=_noop):
    progress("building the E6 root system and minuscule crystal")
    self.sys = build("E", 6)
    self.crys1 = crystal_mod.MinusculeCrystal(self.sys, 1)
    self.V1 = reps.minuscule_representation(self.crys1)
    self.wedge3 = reps.ExteriorPower(self.V1, 3)
    tcrys = crystal_mod.tensor_crystal(self.crys1, self.crys1, self.crys1)
    progress("extracting the 2925-element highest weight component")
    self.component = crystal_mod.highest_weight_component(tcrys, OMEGA4)
    self.hw_vec = self._build_hw_vector()
    progress("building the subrepresentation in the canonical-path basis")
    self.subrep = reps.subrepresentation(self.wedge3, self.hw_vec,
                                         self.component)
    self.zero_fiber = tuple(b for b in range(len(self.component))
                            if self.component.wt(b) == (0,) * 6)
    self.extremal_weights = self.sys.weyl_orbit(OMEGA4)
    self._vzero = None
    self._orbit = None
    self.progress = progress

  def _build_hw_vector(self):
    """The highest weight vector of weight omega_4 inside the exterior cube:
    the wedge of the crystal elements of weights omega_1, omega_1 - alpha_1
    and omega_1 - alpha_1 - alpha_3, whose keys come in increasing order."""
    k0 = 0
    k1 = self.crys1.f(k0, 1)
    k13 = self.crys1.f(k1, 3)
    assert k0 < k1 < k13
    return SparseVector.unit((k0, k1, k13))

  # -- the weight-zero vector and its orbit --------------------------------

  def build_vzero(self):
    """Apply the lowering operators of the two long roots (first the root
    of height ten, then the highest root) to the highest weight vector of
    the subrepresentation."""
    if self._vzero is not None:
      return self._vzero
    beta = (1, 1, 2, 3, 2, 1)
    theta = self.sys.highest_root
    op_beta = reps.root_lowering_operator(self.sys, beta)
    op_theta = reps.root_lowering_operator(self.sys, theta)
    self.progress("applying the height-ten lowering operator")
    v = op_beta.apply(self.subrep, SparseVector.unit(0))
    self.progress("applying the highest-root lowering operator")
    v = op_theta.apply(self.subrep, v)
    self._vzero = v
    return v

  def zero_fiber_reflections(self):
    """The simple reflections s_1, ..., s_6 restricted to the weight-zero
    fiber, which each of them preserves, as tables {b: image of b}; 270
    ``weyl_act`` columns in all."""
    return [{b: reps.weyl_act(self.subrep, i, SparseVector.unit(b)).entries
             for b in self.zero_fiber} for i in range(1, 7)]

  def orbit_up_to_sign(self):
    """Weyl orbit of the weight-zero vector under the simple reflection
    operators, with vectors identified up to global sign, in breadth-first
    order.

    The reflections act on the weight-zero fiber as integer matrices: each
    table times the lcm L_i of its denominators.  An orbit vector is kept
    as c * num, num an int dict whose entries have gcd 1, so s_i maps it to
    (c / L_i) * (L_i s_i) num, and the vectors +-v share the key built from
    num up to sign and |c|.  A search that holds more vectors than the Weyl
    group has elements raises ArithmeticError: its key failed to identify
    equal vectors."""
    if self._orbit is not None:
      return self._orbit
    v = self.build_vzero()
    if not v:
      raise ValueError("the weight-zero vector vanished")
    scaled = []
    for table in self.zero_fiber_reflections():
      scale = lcm(*(Fraction(c).denominator for img in table.values()
                    for c in img.values()))
      scaled.append((scale, {b: {b2: int(c * scale) for b2, c in img.items()}
                             for b, img in table.items()}))

    d = lcm(*(Fraction(c).denominator for c in v.entries.values()))
    key0, c0, num0 = _primitive(Fraction(1, d),
                                {k: int(x * d) for k, x in v.items()})
    seen = {key0: (c0, num0)}
    frontier = [(c0, num0)]
    while frontier:
      self.progress("orbit size so far: %d" % len(seen))
      nxt = []
      for c, num in frontier:
        for scale, table in scaled:
          key, c2, num2 = _primitive(c / scale, reps._apply(table, num))
          if key not in seen:
            seen[key] = (c2, num2)
            nxt.append((c2, num2))
            if len(seen) > WEYL_ORDER:
              raise ArithmeticError(
                  "orbit exceeds |W(E6)| = %d vectors" % WEYL_ORDER)
      frontier = nxt
    self._orbit = [
        SparseVector._raw({k: normalize_scalar(c * x) for k, x in num.items()})
        for c, num in seen.values()]
    return self._orbit

  def orbit_rank(self):
    """Rank of the orbit inside the weight-zero fiber of the
    subrepresentation."""
    return matrix_rank(self.orbit_up_to_sign())

  # -- the Levi-extremal sweep ---------------------------------------------

  def _is_extremal(self, vec):
    if not vec:
      return False
    wt = self.subrep.weight(next(iter(vec.keys())))
    return wt in self.extremal_weights

  def word_vector(self, word):
    """The word f_{word[0]} ... f_{word[-1]} applied (right to left) to the
    highest weight vector of the subrepresentation."""
    vec = SparseVector.unit(0)
    for i in reversed(word):
      vec = self.subrep.apply_f(i, vec)
      if not vec:
        break
    return vec

  def _splits(self, word):
    """Whether some split of this exact arrangement has its suffix
    producing an extremal vector and its prefix supported on a proper node
    subset.  Returns None when the full vector vanishes."""
    n = len(word)
    # suffix vectors: word[k:] applied to the highest weight vector
    suffix_vecs = [None] * (n + 1)
    suffix_vecs[n] = SparseVector.unit(0)
    for pos in range(n - 1, -1, -1):
      suffix_vecs[pos] = self.subrep.apply_f(word[pos], suffix_vecs[pos + 1])
    if not suffix_vecs[0]:
      return None
    for k in range(1, n + 1):
      prefix_support = set(word[:k])
      if len(prefix_support) < 6 and self._is_extremal(suffix_vecs[k]):
        return True
    return False

  def _commutes(self, i, j):
    return self.sys.cartan[i - 1][j - 1] == 0

  def is_levi_extremal(self, word):
    """Test for a word with nonzero vector: the notion is a property of
    the vector, so any arrangement obtained by swapping adjacent commuting
    lowering operators (which leaves the vector unchanged) may witness it.
    A witness is a split whose suffix produces an extremal vector and whose
    prefix is supported on a proper node subset.  Words with vanishing
    vector return False (the notion only applies to nonzero vectors)."""
    first = self._splits(word)
    if first is None or first:
      return bool(first)
    # walk the commutation class of the word looking for an arrangement
    # that splits; any member produces the same vector
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
      nxt = []
      for w in frontier:
        for p in range(len(w) - 1):
          a, b = w[p], w[p + 1]
          if a != b and self._commutes(a, b):
            w2 = w[:p] + (b, a) + w[p + 2:]
            if w2 not in seen:
              seen.add(w2)
              if self._splits(w2):
                return True
              nxt.append(w2)
      frontier = nxt
    return False

  def levi_extremal_sweep(self):
    """Sweep all arrangements of the ten-letter multiset, sharing suffixes.

    Verifies that every arrangement with nonzero vector is Levi-extremal.
    A search node is (remaining multiset, suffix vector).  If the suffix
    vector is extremal and the remaining letters use a proper node subset,
    every arrangement through this node qualifies and the subtree is
    accepted; a vanishing suffix vector exempts the subtree (those words
    produce the zero vector); an exhausted word with nonzero vector and no
    accepted ancestor is retested in full (including its commutation class)
    and becomes a counterexample only if that fails too.
    """
    total = factorial(len(SWEEP_LETTERS)) // prod(
        factorial(c) for c in Counter(SWEEP_LETTERS).values())
    counterexamples = []
    stats = {"nodes": 0, "accepted": 0, "fallback": 0}

    def dfs(counts, vec, suffix):
      stats["nodes"] += 1
      if not vec:
        # all completions give the zero vector and are exempt
        return
      if sum(counts.values()) > 0:
        support = [i for i in counts if counts[i] > 0]
        if len(set(support)) < 6 and self._is_extremal(vec):
          stats["accepted"] += 1
          return
      if sum(counts.values()) == 0:
        # no ancestor accepted this arrangement directly: fall back to the
        # full test, which also searches the commutation class of the word
        stats["fallback"] += 1
        if not self.is_levi_extremal(suffix):
          if len(counterexamples) < MAX_COUNTEREXAMPLES:
            counterexamples.append(suffix)
        return
      for i in sorted(counts):
        if counts[i] > 0:
          counts[i] -= 1
          dfs(counts, self.subrep.apply_f(i, vec), (i,) + suffix)
          counts[i] += 1

    dfs(Counter(SWEEP_LETTERS), SparseVector.unit(0), ())
    return {
        "total_words": total,
        "all_levi_extremal": not counterexamples,
        "counterexamples": counterexamples,
        "search_nodes": stats["nodes"],
        "accepted_subtrees": stats["accepted"],
        "fallback_words": stats["fallback"],
    }

  # -- the scorecard --------------------------------------------------------

  def scorecard(self):
    vzero = self.build_vzero()
    orbit = self.orbit_up_to_sign()
    sweep = self.levi_extremal_sweep()
    return {
        "vzero_nonzero": bool(vzero),
        "orbit_size": len(orbit),
        "rank": self.orbit_rank(),
        "levi_extremal_ok": sweep["all_levi_extremal"],
        "chain_ok": dominance_chain_check(),
        "poset_ok": numbers_game_poset() is not None,
    }


# -- light checks that do not need the heavy suite ---------------------------

def dominance_chain_check():
  """Verify the coweight chain 0 < w2 < w1+w6 < w4 is saturated.

  E6 is self-dual, so coweights are handled with the weight machinery.
  Checks, from the dominant weights below each entry: every entry lies
  below the next, the top difference has the expected coordinates, and no
  dominant element sits strictly between consecutive entries.
  """
  sys = build("E", 6)
  chain = [(0,) * 6, OMEGA2, tuple(a + b for a, b in zip(OMEGA1,
           (0, 0, 0, 0, 0, 1))), OMEGA4]

  def below(mu):
    return {nu for _, nu in sys.dominant_weights_below(mu)}

  for low, high in zip(chain, chain[1:]):
    under = below(high)
    if low not in under:
      return False
    if any(low in below(mu) for mu in under - {low, high}):
      return False
  top_diff = tuple(h - l for h, l in zip(chain[3], chain[2]))
  return tuple(sys.weight_root_coords(top_diff)) == (0, 1, 1, 2, 1, 0)


def numbers_game_poset():
  """Generate the numbers-game poset seeded at the fourth fundamental
  weight with threshold at the second.

  Nodes are weights mu reachable from the seed.  A node is a leaf (starred)
  when some simple-root coordinate of mu minus the threshold weight
  vanishes; from a non-leaf, a move at node i is legal when
  <mu, acheck_i> >= 1 and the moved weight minus the threshold still has
  nonnegative simple-root coordinates.

  Returns {"nodes": [(weight, starred)], "edges": [(from, to, i)]} with
  nodes in breadth-first order.
  """
  sys = build("E", 6)
  seed = OMEGA4
  threshold = OMEGA2

  def margin(mu):
    diff = tuple(m - t for m, t in zip(mu, threshold))
    return sys.weight_root_coords(diff)

  def is_leaf(mu):
    return any(Fraction(c) == 0 for c in margin(mu))

  def legal_moves(mu):
    out = []
    for i in range(1, 7):
      if mu[i - 1] >= 1:
        nu = sys.reflect(i, mu)
        if all(Fraction(c) >= 0 for c in margin(nu)):
          out.append((i, nu))
    return out

  order = [seed]
  index = {seed: 0}
  edges = []
  frontier = [seed]
  while frontier:
    nxt = []
    for mu in frontier:
      if is_leaf(mu):
        continue
      for i, nu in legal_moves(mu):
        if nu not in index:
          index[nu] = len(order)
          order.append(nu)
          nxt.append(nu)
        edges.append((index[mu], index[nu], i))
    frontier = nxt
  nodes = [(mu, is_leaf(mu)) for mu in order]
  return {"nodes": nodes, "edges": edges}
