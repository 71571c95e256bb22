import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import count, permutations
from math import comb, factorial, prod
from pathlib import Path

import pytest

import diagram_fixture
from canonical_path_fixture import CanonicalPathSuite
from wedge_fixture import antisymmetrise

from twistedlie import cli, e6
from twistedlie.e6 import (MAX_COUNTEREXAMPLES, OMEGA2, OMEGA4,
                           SWEEP_LETTERS, chain_break, dominance_chain_check,
                           numbers_game_poset)
from twistedlie.linalg import SparseVector
from twistedlie.reps import (OperatorWord, ProductRepresentation, _apply,
                             highest_weight_check, subrepresentation,
                             weyl_act)


@pytest.fixture(scope="module")
def tensor_oracle(suite):
  """The suite's subrepresentation built inside the tensor cube of
  V(omega_1) instead of its exterior cube: (cube, highest weight vector,
  subrepresentation)."""
  cube = ProductRepresentation([suite.V1] * 3)
  hw_vec = antisymmetrise(suite.hw_vec)
  return cube, hw_vec, subrepresentation(cube, hw_vec, suite.component)


@pytest.fixture(scope="module")
def canonical_path(suite):
  """The suite's checks in the canonical-path basis, as the oracle."""
  return CanonicalPathSuite(suite)


def _fraction_orbit(suite):
  """The orbit up to sign by breadth-first search on the zero-fiber
  reflection tables, in Fraction arithmetic."""
  canon = lambda vec: min(vec.canonical(), (-vec).canonical())
  reflections = suite.zero_fiber_reflections()
  v = suite.build_vzero()
  seen = {canon(v): v}
  frontier = [v]
  while frontier:
    nxt = []
    for vec in frontier:
      for table in reflections:
        img = SparseVector._raw(_apply(table, vec.entries))
        if canon(img) not in seen:
          seen[canon(img)] = img
          nxt.append(img)
    frontier = nxt
  return list(seen.values())


class TestSuiteConstruction:

  def test_highest_weight_vector(self, suite, tensor_oracle):
    cube, tensor_hw, _ = tensor_oracle
    assert highest_weight_check(suite.wedge3, suite.hw_vec, OMEGA4)
    assert len(suite.hw_vec) == 1
    assert highest_weight_check(cube, tensor_hw, OMEGA4)
    assert len(tensor_hw) == 6
    # the copy of V(omega_4) that hw_vec generates has the Weyl dimension,
    # so it fills the cube, whose basis the scorecard reads
    assert suite.sys.weyl_dimension(OMEGA4) == comb(27, 3) == \
        len(list(suite.wedge3.keys()))

  def test_subrep_equals_tensor_cube_build(self, suite, tensor_oracle):
    _, _, oracle = tensor_oracle
    assert repr(suite.subrep._tables) == repr(oracle._tables)
    assert repr(suite.subrep._weights) == repr(oracle._weights)

  def test_action_digest_matches_reference(self, suite):
    # the e6.action_digest op of the benchmark harness: a sha256 over the
    # E_i / F_i images of every unit vector, as the harness summarises it
    rep = suite.subrep
    h = hashlib.sha256()
    nonzero = 0
    for key in sorted(rep.keys()):
      unit = SparseVector.unit(key)
      for i in range(1, rep.rank + 1):
        for op, apply in (("e", rep.apply_e), ("f", rep.apply_f)):
          img = apply(i, unit)
          nonzero += bool(img)
          terms = ",".join("%s:%s" % (k, c) for k, c in sorted(img.items()))
          h.update(("%s %d %s %s\n" % (key, i, op, terms)).encode())
    summary = json.dumps({"digest": h.hexdigest(), "nonzero_images": nonzero},
                         sort_keys=True, separators=(",", ":"))
    reference = json.loads((Path(__file__).resolve().parent.parent
                            / "perfbench" / "reference.json").read_text())
    assert hashlib.sha256(summary.encode()).hexdigest() == \
        reference["ops"]["e6.action_digest"]["sha256"]

  def test_component_size(self, suite):
    assert len(suite.component) == 2925

  def test_zero_fiber_size(self, suite):
    assert len(suite.zero_fiber) == 45

  def test_subrepresentation_weights(self, suite):
    assert suite.subrep.weight(0) == OMEGA4
    counts = {}
    for b in range(len(suite.component)):
      counts[suite.subrep.weight(b)] = counts.get(suite.subrep.weight(b),
                                                  0) + 1
    assert counts[(0, 0, 0, 0, 0, 0)] == 45
    assert counts[OMEGA2] == 15
    assert counts[(1, 0, 0, 0, 0, 1)] == 4
    assert counts[OMEGA4] == 1


class TestWeightZeroVector:

  def test_vzero_nonzero_of_weight_zero(self, suite):
    v = suite.build_vzero()
    assert v
    for key in v.keys():
      assert suite.wedge3.weight(key) == (0, 0, 0, 0, 0, 0)

  def test_orbit_up_to_sign(self, suite):
    assert len(suite.orbit_up_to_sign()) == 240

  def test_zero_fiber_reflections(self, suite):
    zero = set(suite.zero_fiber)
    for table in suite.zero_fiber_reflections():
      assert set(table) == zero
      for b, img in table.items():
        assert {b2 for b2, _ in img} <= zero
        # s_i squares to the identity on weight zero
        assert _apply(table, dict(img)) == {b: 1}

  def test_matrix_orbit_equals_weyl_act_orbit(self, suite):
    # the breadth-first search that applies weyl_act to every orbit vector
    canon = lambda vec: min(vec.canonical(), (-vec).canonical())
    v = suite.build_vzero()
    seen = {canon(v): v}
    frontier = [v]
    while frontier:
      nxt = []
      for vec in frontier:
        for i in range(1, 7):
          img = weyl_act(suite.wedge3, i, vec)
          key = canon(img)
          if key not in seen:
            seen[key] = img
            nxt.append(img)
      frontier = nxt
    assert suite.orbit_up_to_sign() == list(seen.values())

  def test_primitive_key(self):
    key = e6._up_to_sign({3: 2, 0: -3})
    # the vector and its negative share the key, in any entry order
    assert e6._up_to_sign({0: 3, 3: -2}) == key
    assert e6._up_to_sign({3: -2, 0: 3}) == key
    # distinct vectors do not: a sign, a multiple, another support
    assert e6._up_to_sign({3: 2, 0: 3}) != key
    assert e6._up_to_sign({3: 4, 0: -6}) != key
    assert e6._up_to_sign({3: 2, 1: -3}) != key

  def test_orbit_search_is_bounded(self, suite, monkeypatch):
    # a key that never identifies two vectors makes the search grow without
    # end; it stops once it holds more vectors than W(E6) has elements
    fresh = count()
    monkeypatch.setattr(e6, "_up_to_sign", lambda vec: next(fresh))
    monkeypatch.setattr(suite, "_orbit", None)
    with pytest.raises(ArithmeticError, match="51840"):
      suite.orbit_up_to_sign()

  def test_orbit_entries_normalised(self, suite):
    # the breadth-first search on the reflection tables in Fractions holds
    # some integral Fractions; the integer orbit gives the same vectors in
    # the same order, each entry an int when integral, otherwise a Fraction
    want = _fraction_orbit(suite)
    got = suite.orbit_up_to_sign()
    assert len(got) == len(want)
    integral = 0
    for g, w in zip(got, want):
      assert list(g.keys()) == list(w.keys())
      for key, c in w.items():
        if c.denominator == 1:
          integral += 1
          assert type(g.get(key)) is int and g.get(key) == c
        else:
          assert type(g.get(key)) is Fraction and g.get(key) == c
    assert integral

  def test_orbit_rank_fills_zero_fiber(self, suite):
    assert suite.orbit_rank() == 45 == len(suite.zero_fiber)

  def test_orbit_matches_canonical_path_orbit(self, suite, canonical_path):
    # the integer-scaled search on the subrepresentation finds an orbit of
    # the same size and rank; the bases differ, so the vectors do
    assert len(canonical_path.zero_fiber) == len(suite.zero_fiber)
    assert len(canonical_path.orbit_up_to_sign()) == \
        len(suite.orbit_up_to_sign()) == e6.ORBIT_SIZE
    assert canonical_path.orbit_rank() == suite.orbit_rank() == e6.ORBIT_RANK
    assert any(type(c) is Fraction
               for table in canonical_path.zero_fiber_reflections()
               for img in table.values() for _, c in img)

  def test_scorecard_matches_canonical_path_scorecard(self, suite,
                                                       canonical_path):
    assert canonical_path.scorecard() == suite.scorecard()


# -- the vector-based sweep, as an oracle -------------------------------------

def _word_vector(suite, word):
  """The word f_{word[0]} ... f_{word[-1]} applied (right to left) to the
  highest weight vector of the subrepresentation."""
  return OperatorWord(((1, tuple(word)),)).apply(suite.subrep,
                                                 SparseVector.unit(0))


def _oracle_is_extremal(suite, vec):
  if not vec:
    return False
  return suite.subrep.weight(next(iter(vec.keys()))) in suite.extremal_weights


def _oracle_splits(suite, word):
  """Whether some split of this exact arrangement has its suffix producing
  an extremal vector and its prefix supported on a proper node subset;
  None when the full vector vanishes."""
  n = len(word)
  suffix_vecs = [None] * (n + 1)
  suffix_vecs[n] = SparseVector.unit(0)
  for pos in range(n - 1, -1, -1):
    suffix_vecs[pos] = suite.subrep.apply_f(word[pos], suffix_vecs[pos + 1])
  if not suffix_vecs[0]:
    return None
  for k in range(1, n + 1):
    if (len(set(word[:k])) < 6
        and _oracle_is_extremal(suite, suffix_vecs[k])):
      return True
  return False


def _commutation_class(suite, word):
  """Every rearrangement of word by swaps of adjacent commuting letters,
  breadth-first from word."""
  seen = [tuple(word)]
  found = set(seen)
  for w in seen:
    for p in range(len(w) - 1):
      a, b = w[p], w[p + 1]
      if a != b and suite.sys.cartan[a - 1][b - 1] == 0:
        w2 = w[:p] + (b, a) + w[p + 2:]
        if w2 not in found:
          found.add(w2)
          seen.append(w2)
  return seen


def _oracle_is_levi_extremal(suite, word):
  """Some member of the commutation class of a word with nonzero vector
  splits; False when the vector vanishes."""
  first = _oracle_splits(suite, word)
  if first is None or first:
    return bool(first)
  return any(_oracle_splits(suite, w)
             for w in _commutation_class(suite, word))


def _oracle_sweep(suite, cap=MAX_COUNTEREXAMPLES):
  """The sweep that retests every word reached without an accepting
  ancestor on vectors, over its whole commutation class."""
  total = factorial(len(SWEEP_LETTERS)) // prod(
      factorial(c) for c in Counter(SWEEP_LETTERS).values())
  counterexamples = []
  stats = {"nodes": 0, "accepted": 0, "fallback": 0}

  def dfs(counts, vec, suffix):
    stats["nodes"] += 1
    if not vec:
      return
    if sum(counts.values()) > 0:
      support = [i for i in counts if counts[i] > 0]
      if len(set(support)) < 6 and _oracle_is_extremal(suite, vec):
        stats["accepted"] += 1
        return
    if sum(counts.values()) == 0:
      stats["fallback"] += 1
      if not _oracle_is_levi_extremal(suite, suffix):
        if len(counterexamples) < cap:
          counterexamples.append(suffix)
      return
    for i in sorted(counts):
      if counts[i] > 0:
        counts[i] -= 1
        dfs(counts, suite.subrep.apply_f(i, vec), (i,) + suffix)
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


#: Reduced sets of extremal weights, as filters on the orbit of omega_4: one
#: where every word still passes with 392 words left to the fallback, one
#: with 12 counterexamples among 472.
_REDUCED = {
    "every-third": lambda weights: weights[::3],
    "x6-nonpositive": lambda weights: [w for w in weights if w[5] <= 0],
}


class TestLeviExtremal:

  def _decides_like_oracle(self, suite, word):
    # the sweep's rule on one class: with the members that have no split as
    # the unaccepted set, a rearrangement outside it exists iff the oracle
    # finds the word Levi-extremal
    members = _commutation_class(suite, word)
    unaccepted = {w for w in members if not _oracle_splits(suite, w)}
    got = (word not in unaccepted
           or suite._rearranges_outside(word, unaccepted))
    assert got == _oracle_is_levi_extremal(suite, word)
    return got

  def test_special_case_words(self, suite):
    # the six fixed letters followed by any arrangement of the remaining
    # four must pass
    base = (4, 2, 4, 5, 3, 4)
    for perm in permutations((1, 3, 5, 6)):
      word = base + perm
      assert (not _word_vector(suite, word)
              or self._decides_like_oracle(suite, word))

  def test_commutation_fallback_word(self, suite):
    # no split of this arrangement itself, one of a rearrangement
    word = (6, 5, 4, 3, 1, 2, 4, 5, 3, 4)
    assert _word_vector(suite, word)
    assert _oracle_splits(suite, word) is False
    assert self._decides_like_oracle(suite, word)

  def test_extremality_matches_fiber_size(self, suite):
    # weight-based extremality agrees with the direct crystal criterion
    # (an extremal weight has a one-element fiber) on 100 random words
    rng = random.Random(6)
    fiber_sizes = {}
    for b in range(len(suite.component)):
      wt = suite.subrep.weight(b)
      fiber_sizes[wt] = fiber_sizes.get(wt, 0) + 1
    for _ in range(100):
      letters = list(SWEEP_LETTERS)
      rng.shuffle(letters)
      word = tuple(letters[:rng.randrange(0, 11)])
      vec = _word_vector(suite, word)
      if not vec:
        continue
      wt = suite.subrep.weight(next(iter(vec.keys())))
      weight_test = wt in suite.extremal_weights
      direct_test = fiber_sizes[wt] == 1
      assert weight_test == direct_test
      if weight_test:
        assert len(list(vec.keys())) == 1

  def test_sweep_matches_oracle(self, suite, canonical_path):
    report = suite.levi_extremal_sweep()
    assert report == _oracle_sweep(suite)
    assert report == canonical_path.levi_extremal_sweep()
    assert report == {
        "total_words": 151200, "all_levi_extremal": True,
        "counterexamples": [], "search_nodes": 163,
        "accepted_subtrees": 25, "fallback_words": 32}

  @pytest.mark.parametrize("name", sorted(_REDUCED))
  def test_sweep_matches_oracle_on_reduced_weights(self, suite, monkeypatch,
                                                  name):
    monkeypatch.setattr(suite, "extremal_weights",
                        _REDUCED[name](list(suite.extremal_weights)))
    assert suite.levi_extremal_sweep() == _oracle_sweep(suite)
    # every counterexample, in search order, past the cap: a cap of the
    # number of words keeps them all
    everything = _oracle_sweep(suite, cap=151200)
    monkeypatch.setattr(e6, "MAX_COUNTEREXAMPLES", 151200)
    assert suite.levi_extremal_sweep() == everything
    found = len(everything["counterexamples"])
    assert found == (12 if name == "x6-nonpositive" else 0)

  def test_sweep(self, suite):
    report = suite.levi_extremal_sweep()
    assert report["total_words"] == 151200
    assert report["all_levi_extremal"]
    assert report["counterexamples"] == []
    assert report["accepted_subtrees"] > 0

  def test_scorecard(self, suite):
    card = suite.scorecard()
    assert card == {
        "vzero_nonzero": True,
        "orbit_size": 240,
        "rank": 45,
        "levi_extremal_ok": True,
        "chain_ok": True,
        "poset_ok": True,
    }


class TestDominanceChain:

  def test_chain_is_saturated(self):
    assert dominance_chain_check()
    assert chain_break() is None

  @pytest.mark.parametrize("second", ((1, 0, 0, 0, 0, 0),
                                      (1, 0, 0, 0, 0, 1)),
                           ids=["w1", "w1+w6"])
  def test_broken_chain_is_rejected(self, capsys, monkeypatch, suite,
                                    second):
    # w1 is not above 0 (it lies outside the root lattice); w1+w6 in place
    # of w2 leaves w2 strictly between 0 and w1+w6.  Either way the first
    # step, from 0 to the new second entry, is the witness.
    monkeypatch.setattr(e6, "OMEGA2", second)
    assert not dominance_chain_check()
    assert chain_break() == ((0,) * 6, second)
    monkeypatch.setattr(e6, "E6Suite", lambda progress: suite)
    assert cli.main(["e6-duality"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["chain_ok"] is False
    assert data["chain_break"] == [[0] * 6, list(second)]


class TestNumbersGamePoset:

  def test_counts(self):
    poset = numbers_game_poset()
    assert len(poset["nodes"]) == 16
    assert len(poset["edges"]) == 16
    assert sum(1 for _, star in poset["nodes"] if star) == 10

  def test_figure_counts_match_transcription(self):
    # the counts of e6's copy of the figure against the tests'
    # transcription of it
    assert len(e6.POSET_NODES) == len(diagram_fixture.NODES) == 16
    assert sum(star for _, star in e6.POSET_NODES) == \
        sum(star for _, star in diagram_fixture.NODES) == 10
    assert len(e6.POSET_EDGES) == len(diagram_fixture.EDGES) == 16

  def test_figure_matches_transcription(self):
    # e6's copy of the figure, which the scorecard checks, node by node and
    # edge by edge against the tests' transcription of it
    sys = e6.build("E", 6)
    assert dict(e6.POSET_NODES) == diagram_fixture.node_weights()
    weights = [mu for mu, _ in e6.POSET_NODES]
    edges = {(weights[a], weights[b], i) for a, b, i in e6.POSET_EDGES}
    assert len(edges) == 16
    assert edges == diagram_fixture.edge_triples(sys.reflect)

  def test_generated_poset_is_the_figure(self):
    assert e6.poset_break() is None

  def test_nodes_match_figures(self):
    poset = numbers_game_poset()
    got = {tuple(w): star for w, star in poset["nodes"]}
    assert got == diagram_fixture.node_weights()

  def test_edges_match_figures(self):
    sys = e6.build("E", 6)
    poset = numbers_game_poset()
    weights = [tuple(w) for w, _ in poset["nodes"]]
    got = {(weights[a], weights[b], i) for a, b, i in poset["edges"]}
    assert got == diagram_fixture.edge_triples(sys.reflect)

  def test_seed_and_threshold(self):
    poset = numbers_game_poset()
    assert tuple(poset["nodes"][0][0]) == OMEGA4
