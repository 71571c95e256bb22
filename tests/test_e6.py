import random
from itertools import permutations

import diagram_fixture

from twistedlie import e6
from twistedlie.e6 import (OMEGA2, OMEGA4, SWEEP_LETTERS,
                           dominance_chain_check, numbers_game_poset)
from twistedlie.reps import _apply, highest_weight_check, weyl_act


class TestSuiteConstruction:

  def test_highest_weight_vector(self, suite):
    assert highest_weight_check(suite.tensor3, suite.hw_vec, OMEGA4)
    assert len(list(suite.hw_vec.keys())) == 6

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

  def test_orbit_rank_fills_zero_fiber(self, suite):
    assert suite.orbit_rank() == 45
    assert suite.orbit_spans_zero_fiber()


class TestLeviExtremal:

  def test_special_case_words(self, suite):
    # the six fixed letters followed by any arrangement of the remaining
    # four must pass
    base = (4, 2, 4, 5, 3, 4)
    for perm in permutations((1, 3, 5, 6)):
      assert suite.word_ok(base + perm)

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
