import random
from fractions import Fraction
from itertools import count, permutations

import pytest

import diagram_fixture
from wedge_fixture import antisymmetrise

from twistedlie import e6
from twistedlie.e6 import (OMEGA2, OMEGA4, SWEEP_LETTERS,
                           dominance_chain_check, numbers_game_poset)
from twistedlie.linalg import SparseVector
from twistedlie.reps import (ProductRepresentation, _apply,
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

  def test_subrep_equals_tensor_cube_build(self, suite, tensor_oracle):
    _, _, oracle = tensor_oracle
    assert repr(suite.subrep._tables) == repr(oracle._tables)
    assert repr(suite.subrep._weights) == repr(oracle._weights)

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
      assert suite.subrep.weight(key) == (0, 0, 0, 0, 0, 0)

  def test_orbit_up_to_sign(self, suite):
    assert len(suite.orbit_up_to_sign()) == 240

  def test_zero_fiber_reflections(self, suite):
    zero = set(suite.zero_fiber)
    for table in suite.zero_fiber_reflections():
      assert set(table) == zero
      for b, img in table.items():
        assert set(img) <= zero
        # s_i squares to the identity on weight zero
        assert _apply(table, img) == {b: 1}

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
          img = weyl_act(suite.subrep, i, vec)
          key = canon(img)
          if key not in seen:
            seen[key] = img
            nxt.append(img)
      frontier = nxt
    assert suite.orbit_up_to_sign() == list(seen.values())

  def test_primitive_key(self):
    half = Fraction(1, 2)
    key, c, num = e6._primitive(half, {3: 4, 0: -6})
    assert (c, num) == (1, {3: 2, 0: -3})
    # the same vector written with another numerator, and its negative
    assert e6._primitive(Fraction(1), {3: 2, 0: -3})[0] == key
    assert e6._primitive(-half, {3: 4, 0: -6})[0] == key
    assert e6._primitive(half, {3: -4, 0: -6})[0] != key
    assert e6._primitive(Fraction(1, 3), {3: 4, 0: -6})[0] != key

  def test_orbit_search_is_bounded(self, suite, monkeypatch):
    # a key that never identifies two vectors makes the search grow without
    # end; it stops once it holds more vectors than W(E6) has elements
    primitive = e6._primitive
    fresh = count()

    def unique_key(c, num):
      _, c, num = primitive(c, num)
      return next(fresh), c, num

    monkeypatch.setattr(e6, "_primitive", unique_key)
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


class TestLeviExtremal:

  def test_special_case_words(self, suite):
    # the six fixed letters followed by any arrangement of the remaining
    # four must pass
    base = (4, 2, 4, 5, 3, 4)
    for perm in permutations((1, 3, 5, 6)):
      word = base + perm
      assert not suite.word_vector(word) or suite.is_levi_extremal(word)

  def test_commutation_fallback_word(self, suite):
    word = (6, 5, 4, 3, 1, 2, 4, 5, 3, 4)
    assert suite.word_vector(word)
    assert suite.is_levi_extremal(word)

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
      vec = suite.word_vector(word)
      if not vec:
        continue
      wt = suite.subrep.weight(next(iter(vec.keys())))
      weight_test = wt in suite.extremal_weights
      direct_test = fiber_sizes[wt] == 1
      assert weight_test == direct_test
      if weight_test:
        assert len(list(vec.keys())) == 1

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

  @pytest.mark.parametrize("second", ((1, 0, 0, 0, 0, 0),
                                      (1, 0, 0, 0, 0, 1)),
                           ids=["w1", "w1+w6"])
  def test_broken_chain_is_rejected(self, monkeypatch, second):
    # w1 is not above 0 (it lies outside the root lattice); w1+w6 in place
    # of w2 leaves w2 strictly between 0 and w1+w6
    monkeypatch.setattr(e6, "OMEGA2", second)
    assert not dominance_chain_check()


class TestNumbersGamePoset:

  def test_counts(self):
    poset = numbers_game_poset()
    assert len(poset["nodes"]) == 16
    assert len(poset["edges"]) == 16
    assert sum(1 for _, star in poset["nodes"] if star) == 10

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
