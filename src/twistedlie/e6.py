"""The E6 verification suite.

Bundles the computations around the 2925-dimensional representation
V(omega_4) of E6 in its own basis: the wedges of the exterior cube of the
27-dimensional V(omega_1), which its highest weight vector of weight
omega_4 generates, as the Weyl dimension of omega_4 is C(27, 3) = 2925.

  * the distinguished weight-zero vector obtained by two long lowering
    operators, its Weyl orbit up to sign (each simple reflection permutes
    the weight-zero wedges up to sign, so the orbit vectors are int
    vectors), and the rank of that orbit inside the weight-zero fiber,
  * the Levi-extremal sweep over all arrangements of the ten-letter
    lowering multiset, one suffix-sharing search that decides every word:
    a word it reaches without a split is decided by the words it reached
    alike, through the rearrangements by commuting swaps,
  * the dominance chain of coweights below the fourth fundamental coweight,
  * the numbers-game poset generator, checked against the published
    figure held here.

Everything is exact.  The suite takes about a third of a second to build
(0.35 s of process time, imports included, in a fresh Python 3.11 process
on a quiet 2-vCPU VM), most of it ``reps.subrepresentation``: the
canonical-path basis that the relation check reads.  Callers are expected
to cache it.
"""

from collections import Counter
from math import factorial, prod
from operator import sub

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

#: The size of the orbit up to sign of the weight-zero vector, and its rank
#: in the 45-dimensional weight-zero fiber, that the duality statement
#: predicts.
ORBIT_SIZE = 240
ORBIT_RANK = 45

#: The numbers-game poset of the published figure.  Its 16 nodes
#: (weight, starred), the 10 starred ones being its leaves, listed in the
#: order the generator reaches them ...
POSET_NODES = (
    (OMEGA4, False), ((0, 1, 1, -1, 1, 0), False),
    ((0, -1, 1, 0, 1, 0), True), ((1, 1, -1, 0, 1, 0), False),
    ((0, 1, 1, 0, -1, 1), False), ((-1, 1, 0, 0, 1, 0), True),
    ((1, -1, -1, 1, 1, 0), True), ((1, 1, -1, 1, -1, 1), False),
    ((0, -1, 1, 1, -1, 1), True), ((0, 1, 1, 0, 0, -1), True),
    ((-1, 1, 0, 1, -1, 1), True), ((1, -1, -1, 2, -1, 1), True),
    ((1, 2, 0, -1, 0, 1), False), ((1, 1, -1, 1, 0, -1), True),
    ((-1, 2, 1, -1, 0, 1), True), ((1, 2, 0, -1, 1, -1), True),
)
#: ... and its 16 edges (source, target, i), the nodes given by their
#: positions above: the target is the source reflected at node i.
POSET_EDGES = (
    (0, 1, 4), (1, 2, 2), (1, 3, 3), (1, 4, 5), (3, 5, 1), (3, 6, 2),
    (3, 7, 5), (4, 8, 2), (4, 7, 3), (4, 9, 6), (7, 10, 1), (7, 11, 2),
    (7, 12, 4), (7, 13, 6), (12, 14, 1), (12, 15, 6),
)


def _noop(msg):
  pass


def _up_to_sign(vec):
  """The key that the nonzero dict vec shares with -vec alone."""
  key = sorted(vec.items())
  if key[0][1] < 0:
    key = [(k, -x) for k, x in key]
  return tuple(key)


class E6Suite:
  """Heavy shared state for the E6 checks."""

  def __init__(self, progress=_noop):
    progress("building the E6 root system and minuscule crystal")
    self.sys = build("E", 6)
    self.crys1 = crystal_mod.MinusculeCrystal(self.sys, 1)
    self.V1 = reps.minuscule_representation(self.crys1)
    self.wedge3 = reps.ExteriorPower(self.V1, 3)
    progress("extracting the 2925-element highest weight component")
    hw = self._hw_keys()
    self.component = crystal_mod.HighestWeightComponent(
        crystal_mod.TensorCrystal([self.crys1] * 3), hw)
    self.hw_vec = SparseVector.unit(hw)
    progress("building the subrepresentation in the canonical-path basis")
    self.subrep = reps.subrepresentation(self.wedge3, self.hw_vec,
                                         self.component)
    self.zero_fiber = tuple(k for k in self.wedge3.keys()
                            if self.wedge3.weight(k) == (0,) * 6)
    self.extremal_weights = self.sys.weyl_orbit(OMEGA4)
    self._vzero = None
    self._orbit = None
    self.progress = progress

  def _hw_keys(self):
    """The crystal elements of weights omega_1, omega_1 - alpha_1 and
    omega_1 - alpha_1 - alpha_3, in increasing order: the highest weight
    element of weight omega_4 in the cube of the crystal, and the key of the
    highest weight vector, their wedge, in the exterior cube."""
    k0 = 0
    k1 = self.crys1.f(k0, 1)
    k13 = self.crys1.f(k1, 3)
    assert k0 < k1 < k13
    return (k0, k1, k13)

  # -- the weight-zero vector and its orbit --------------------------------

  def build_vzero(self):
    """Apply the lowering operators of the two long roots (first the root
    of height ten, then the highest root) to the highest weight vector."""
    if self._vzero is not None:
      return self._vzero
    beta = (1, 1, 2, 3, 2, 1)
    theta = self.sys.highest_root
    op_beta = reps.root_lowering_operator(self.sys, beta)
    op_theta = reps.root_lowering_operator(self.sys, theta)
    self.progress("applying the height-ten lowering operator")
    v = op_beta.apply(self.wedge3, self.hw_vec)
    self.progress("applying the highest-root lowering operator")
    v = op_theta.apply(self.wedge3, v)
    self._vzero = v
    return v

  def zero_fiber_reflections(self):
    """The simple reflections s_1, ..., s_6 restricted to the weight-zero
    fiber, which each of them preserves, as pair tables {key: image of
    key} (see ``reps``); 270 ``weyl_act`` columns, each one key times an
    int +-1."""
    return [{k: tuple((k2, normalize_scalar(c)) for k2, c in
                      reps.weyl_act(self.wedge3, i,
                                    SparseVector.unit(k)).items())
             for k in self.zero_fiber} for i in range(1, 7)]

  def orbit_up_to_sign(self):
    """Weyl orbit of the weight-zero vector under the simple reflection
    operators, with vectors identified up to global sign by
    ``_up_to_sign``, in breadth-first order.  A search that holds more
    vectors than the Weyl group has elements raises ArithmeticError: its
    key failed to identify equal vectors."""
    if self._orbit is not None:
      return self._orbit
    v = self.build_vzero()
    if not v:
      raise ValueError("the weight-zero vector vanished")
    tables = self.zero_fiber_reflections()
    seen = {_up_to_sign(v.entries): v.entries}
    frontier = [v.entries]
    while frontier:
      self.progress("orbit size so far: %d" % len(seen))
      nxt = []
      for vec in frontier:
        for table in tables:
          img = reps._apply(table, vec)
          key = _up_to_sign(img)
          if key not in seen:
            seen[key] = img
            nxt.append(img)
            if len(seen) > WEYL_ORDER:
              raise ArithmeticError(
                  "orbit exceeds |W(E6)| = %d vectors" % WEYL_ORDER)
      frontier = nxt
    self._orbit = [SparseVector._raw(vec) for vec in seen.values()]
    return self._orbit

  def orbit_rank(self):
    """Rank of the orbit inside the weight-zero fiber."""
    return matrix_rank(self.orbit_up_to_sign())

  # -- the Levi-extremal sweep ---------------------------------------------

  def _is_extremal(self, vec):
    if not vec:
      return False
    wt = self.wedge3.weight(next(iter(vec.keys())))
    return wt in self.extremal_weights

  def _rearranges_outside(self, word, unaccepted):
    """Whether some rearrangement of word by swaps of adjacent commuting
    letters lies outside the set unaccepted."""
    seen = {word}
    stack = [word]
    while stack:
      w = stack.pop()
      for p in range(len(w) - 1):
        a, b = w[p], w[p + 1]
        if a != b and self.sys.cartan[a - 1][b - 1] == 0:
          w2 = w[:p] + (b, a) + w[p + 2:]
          if w2 not in unaccepted:
            return True
          if w2 not in seen:
            seen.add(w2)
            stack.append(w2)
    return False

  def levi_extremal_sweep(self):
    """Sweep all arrangements of the ten-letter multiset, sharing suffixes.

    Verifies that every arrangement with nonzero vector is Levi-extremal:
    some split of a rearrangement by swaps of adjacent commuting letters
    (which keep the vector) has its suffix producing an extremal vector and
    its prefix supported on a proper node subset.  A search node is
    (remaining multiset, suffix vector).  If the suffix vector is extremal
    and the remaining letters use a proper node subset, every arrangement
    through this node splits and the subtree is accepted; a vanishing
    suffix vector exempts the subtree (those words produce the zero
    vector).  The search reaches every other word with its nonzero vector
    and records it, so a recorded word is exactly one with no split, and
    its rearrangements, which share its vector, are swept too: it is
    Levi-extremal iff one of them is not recorded.
    """
    total = factorial(len(SWEEP_LETTERS)) // prod(
        factorial(c) for c in Counter(SWEEP_LETTERS).values())
    reached = []
    nodes = accepted = 0

    def dfs(counts, vec, suffix):
      nonlocal nodes, accepted
      nodes += 1
      if not vec:
        # all completions give the zero vector and are exempt
        return
      support = [i for i in counts if counts[i] > 0]
      if not support:
        reached.append(suffix)
        return
      if len(support) < 6 and self._is_extremal(vec):
        accepted += 1
        return
      for i in sorted(support):
        counts[i] -= 1
        dfs(counts, self.wedge3.apply_f(i, vec), (i,) + suffix)
        counts[i] += 1

    dfs(Counter(SWEEP_LETTERS), self.hw_vec, ())
    unaccepted = set(reached)
    counterexamples = [w for w in reached
                       if not self._rearranges_outside(w, unaccepted)]
    return {
        "total_words": total,
        "all_levi_extremal": not counterexamples,
        "counterexamples": counterexamples[:MAX_COUNTEREXAMPLES],
        "search_nodes": nodes,
        "accepted_subtrees": accepted,
        "fallback_words": len(reached),
    }

  # -- the scorecard --------------------------------------------------------

  def scorecard(self):
    """The suite's checks as one card.  A failed check is a field of the
    card, not an exception: a vanished weight-zero vector has no orbit to
    rank, and an orbit search that outgrows W(E6) is reported as
    ``orbit_overflow``, the bound, with ``orbit_size`` the one vector past
    it and ``rank`` 0."""
    vzero = self.build_vzero()
    try:
      orbit = self.orbit_up_to_sign() if vzero else ()
    except ArithmeticError as exc:
      # only the bound's own exception is a witness; a ZeroDivisionError
      # or OverflowError is a bug
      if type(exc) is not ArithmeticError:
        raise
      orbit = None
    sweep = self.levi_extremal_sweep()
    poset_witness = poset_break()
    card = {
        "vzero_nonzero": bool(vzero),
        "orbit_size": WEYL_ORDER + 1 if orbit is None else len(orbit),
        "rank": self.orbit_rank() if orbit else 0,
        "levi_extremal_ok": sweep["all_levi_extremal"],
        "chain_ok": dominance_chain_check(),
        "poset_ok": poset_witness is None,
    }
    if orbit is None:
      card["orbit_overflow"] = WEYL_ORDER
    if not card["chain_ok"]:
      card["chain_break"] = chain_break()
    if poset_witness is not None:
      card["poset_break"] = poset_witness
    return card


def scorecard_ok(card):
  """Whether a scorecard reproduces the duality statement: a nonzero
  weight-zero vector whose orbit has the predicted size and rank, and every
  other check passed."""
  return (card["vzero_nonzero"] and card["orbit_size"] == ORBIT_SIZE
          and card["rank"] == ORBIT_RANK and card["levi_extremal_ok"]
          and card["chain_ok"] and card["poset_ok"])


# -- light checks that do not need the heavy suite ---------------------------

def chain_break():
  """The first step (low, high) of the coweight chain
  0 < w2 < w1+w6 < w4 that is not a cover, or None when the chain is
  saturated.

  E6 is self-dual, so coweights are handled with the weight machinery: the
  steps are checked against the covers among the dominant weights below
  w4.  The top step must also differ by the root with simple-root
  coordinates (0, 1, 1, 2, 1, 0).
  """
  sys = build("E", 6)
  chain = [(0,) * 6, OMEGA2, tuple(a + b for a, b in zip(OMEGA1,
           (0, 0, 0, 0, 0, 1))), OMEGA4]
  weights = [mu for _, mu in sys.dominant_weights_below(OMEGA4)]
  covers = {(weights[a], weights[b])
            for a, b in sys.dominant_covers(weights)}
  for low, high in zip(chain, chain[1:]):
    if (low, high) not in covers:
      return low, high
  low, high = chain[-2:]
  if sys.weight_root_coords(tuple(map(sub, high, low))) != (0, 1, 1, 2, 1, 0):
    return low, high
  return None


def dominance_chain_check():
  """Whether the coweight chain 0 < w2 < w1+w6 < w4 is saturated: no step
  of it fails ``chain_break``."""
  return chain_break() is None


def _poset_items(nodes, edges):
  """A poset's nodes ("node", weight, starred) and edges ("edge", source
  weight, target weight, i), in order."""
  weights = [mu for mu, _ in nodes]
  return ([("node", mu, star) for mu, star in nodes]
          + [("edge", weights[a], weights[b], i) for a, b, i in edges])


def poset_break():
  """The first node or edge where the generated numbers-game poset and the
  published figure differ, or None when they agree.

  Both are compared as sets of nodes and edges.  The witness is the first
  item of the figure, in its order, that the generator does not produce,
  or else the first generated item that the figure does not have or that
  the generator repeats: ("node", weight, starred) or ("edge", source
  weight, target weight, i).
  """
  poset = numbers_game_poset()
  figure = _poset_items(POSET_NODES, POSET_EDGES)
  generated = _poset_items(poset["nodes"], poset["edges"])
  made, drawn = set(generated), set(figure)
  for item in figure:
    if item not in made:
      return item
  seen = set()
  for item in generated:
    if item not in drawn or item in seen:
      return item
    seen.add(item)
  return None


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
    return 0 in margin(mu)

  def legal_moves(mu):
    out = []
    for i in range(1, 7):
      if mu[i - 1] >= 1:
        nu = sys.reflect(i, mu)
        if min(margin(nu)) >= 0:
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
