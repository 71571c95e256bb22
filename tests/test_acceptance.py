"""End-to-end acceptance checks: one test per criterion, all exact."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import diagram_fixture
from wedge_fixture import antisymmetrise
from twistedlie import cells, e6, loops
from twistedlie.crystal import MinusculeCrystal, tensor_crystal
from twistedlie.folding import Folding
from twistedlie.linalg import SparseVector, rank
from twistedlie.reps import (ProductRepresentation, highest_weight_check,
                             minuscule_representation,
                             verify_representation_detailed)
from twistedlie.rootsystem import build, cartan_matrix

OMEGA1 = (1, 0, 0, 0, 0, 0)
OMEGA2 = (0, 1, 0, 0, 0, 0)
OMEGA4 = (0, 0, 0, 1, 0, 0)
OMEGA16 = (1, 0, 0, 0, 0, 1)
ZERO6 = (0, 0, 0, 0, 0, 0)

PROPERTY_TRIALS = 1000
_SETTINGS = settings(max_examples=PROPERTY_TRIALS, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


@st.composite
def _small_fractions(draw):
  """Fractions in [-5, 5] with denominators 1 to 10; much cheaper to draw
  than ``st.fractions``."""
  den = draw(st.integers(min_value=1, max_value=10))
  return Fraction(draw(st.integers(min_value=-5 * den, max_value=5 * den)),
                  den)


class TestCriterion01Dimension:

  def test_dimension_three_ways(self, suite):
    assert suite.sys.weyl_dimension(OMEGA4) == 2925
    assert len(suite.component) == 2925
    assert len(list(suite.subrep.keys())) == 2925


class TestCriterion02DominantCharacter:

  def test_freudenthal(self, suite):
    sys = suite.sys
    assert sys.freudenthal_multiplicity(OMEGA4, OMEGA4) == 1
    assert sys.freudenthal_multiplicity(OMEGA4, OMEGA16) == 4
    assert sys.freudenthal_multiplicity(OMEGA4, OMEGA2) == 15
    assert sys.freudenthal_multiplicity(OMEGA4, ZERO6) == 45

  def test_crystal_weight_fibers(self, suite):
    counts = {}
    for b in range(len(suite.component)):
      wt = suite.component.wt(b)
      counts[wt] = counts.get(wt, 0) + 1
    assert counts[OMEGA4] == 1
    assert counts[OMEGA16] == 4
    assert counts[OMEGA2] == 15
    assert counts[ZERO6] == 45


class TestCriterion03WeightZeroOrbit:

  def test_highest_weight_vector(self, suite):
    # the suite's vector in the exterior cube of V(omega_1), and its
    # antisymmetrisation in the tensor cube
    assert highest_weight_check(suite.wedge3, suite.hw_vec, OMEGA4)
    assert len(suite.hw_vec) == 1
    tensor_hw = antisymmetrise(suite.hw_vec)
    assert len(tensor_hw) == 6
    assert highest_weight_check(ProductRepresentation([suite.V1] * 3),
                                tensor_hw, OMEGA4)

  def test_vzero_orbit_and_rank(self, suite):
    assert suite.build_vzero()
    assert len(suite.orbit_up_to_sign()) == 240
    assert suite.orbit_rank() == 45


class TestCriterion04DefiningRelations:

  def test_subrepresentation_relations(self, suite):
    ok, witness = verify_representation_detailed(suite.subrep,
                                                 suite.sys.cartan)
    assert ok, witness


class TestCriterion05LeviExtremalSweep:

  def test_sweep_has_no_counterexamples(self, suite):
    report = suite.levi_extremal_sweep()
    assert report["total_words"] == 151200
    assert report["all_levi_extremal"]
    assert report["counterexamples"] == []


class TestCriterion06FoldingTables:

  # (family, rank, order) -> fixed type, weight-lattice type, component
  # group, level-one set
  TABLE = {
      ("A", 5, 2): ("C3", "C3", (2,), [(0, 0, 0), (1, 0, 0)]),
      ("A", 4, 4): ("C2", "B2", (), [(0, 0)]),
      ("D", 5, 2): ("B4", "B4", (2,), [(0, 0, 0, 0), (0, 0, 0, 1)]),
      ("D", 6, 2): ("B5", "B5", (2,),
                    [(0, 0, 0, 0, 0), (0, 0, 0, 0, 1)]),
      ("D", 4, 3): ("G2", "G2", (), [(0, 0)]),
      ("E", 6, 2): ("F4", "F4", (), [(0, 0, 0, 0)]),
  }

  @pytest.mark.parametrize("key", sorted(TABLE))
  def test_tables(self, key):
    datum = Folding(*key)
    fixed, weight, comp, level_one = self.TABLE[key]
    assert str(datum.fixed_ctype) == fixed
    assert str(datum.weight_ctype) == weight
    assert datum.component_group() == comp
    assert datum.level_one_set() == level_one


class TestCriterion07IotaConsistency:

  def _data(self):
    candidates = ([("A", 2 * k, 4) for k in range(1, 6)]
                  + [("A", 5, 2), ("D", 5, 2), ("D", 6, 2), ("D", 4, 3),
                     ("E", 6, 2)])
    out = []
    for key in candidates:
      datum = Folding(*key)
      if datum.ell <= 5:
        out.append(datum)
    return out

  def test_iota_of_simple_coroot_classes(self):
    # every base simple coroot alpha_i^vee (a row of the simply laced
    # Cartan matrix) has iota image beta_eta(i), halved at the ramified
    # short node, and class gamma_eta(i)
    for datum in self._data():
      for i, coroot in enumerate(cartan_matrix(datum.base_type), 1):
        j = datum.eta[i - 1]
        beta = datum.beta(j)
        if datum.is_ramified and j == datum.ell:
          assert list(datum.iota(coroot)) == [Fraction(c, 2) for c in beta]
        else:
          assert datum.iota(coroot) == beta
        assert datum.project(coroot) == datum.gamma(j)

  def test_iota_of_fundamental_coweights(self):
    for datum in self._data():
      n = datum.base_type.rank
      for i in range(1, n + 1):
        om = tuple(int(k == i - 1) for k in range(n))
        j = datum.eta[i - 1]
        assert datum.iota(om) == tuple(int(k == j - 1)
                                       for k in range(datum.ell))


class TestCriterion08SmoothLocusRegression:

  # the quasi-minuscule class (the dominant representative of the short
  # coroot class) and its double, in class-lattice coordinates
  QM = {2: ((2,), (4,)), 4: ((1, 0), (2, 0))}

  @pytest.mark.parametrize("rank", [2, 4])
  def test_quasi_minuscule_closure_fully_smooth(self, rank):
    datum = Folding("A", rank, 4)
    lam, _ = self.QM[rank]
    report = cells.smooth_cells(datum, cells.VARIANT_SPECIAL, lam)
    assert all(v.smooth for v in report.cells)
    assert len(report.cells) == 2

  @pytest.mark.parametrize("rank", [2, 4])
  def test_doubled_class_singular_at_proper_cells(self, rank):
    datum = Folding("A", rank, 4)
    _, lam = self.QM[rank]
    report = cells.smooth_cells(datum, cells.VARIANT_SPECIAL, lam)
    proper = [v for v in report.cells if v.mu != report.lam]
    assert len(proper) >= 2
    assert all(not v.smooth for v in proper)

  def test_interval_cover_cells_smooth(self):
    datum = Folding("A", 4, 4)
    lam = datum.gamma(1) + datum.gamma(2)
    report = cells.smooth_cells(datum, cells.VARIANT_SPECIAL, lam)
    by_mu = {v.mu.coords: v for v in report.cells}
    assert by_mu[(0, 0)].smooth
    assert by_mu[(0, 0)].reason == "quasi-minuscule-cover"

  @pytest.mark.parametrize("key,lam", [
      (("E", 6, 2), (0, 0, 0, 1)),
      (("D", 4, 3), (1, 0)),
      (("A", 5, 2), (0, 1, 0)),
      (("D", 5, 2), (0, 1, 0, 0)),
  ])
  def test_unramified_only_open_cell_smooth(self, key, lam):
    datum = Folding(*key)
    report = cells.smooth_cells(datum, None, lam)
    smooth = [v for v in report.cells if v.smooth]
    assert len(smooth) == 1
    assert smooth[0].reason == "open-cell"
    assert smooth[0].mu == report.lam
    assert len(report.cells) > 1


class TestCriterion09CoverFastPath:

  @pytest.mark.parametrize("rank", [4, 6])
  def test_fast_matches_betweenness_oracle(self, rank):
    datum = Folding("A", rank, 4)
    ell = datum.ell
    classes = []
    for coords in product(range(5), repeat=ell):
      cw = cells.CoinvariantWeight(datum.weight_ctype, coords)
      if cw.is_dominant() and datum.in_coinvariant_lattice(cw):
        classes.append(cw)
    below_cache = {lam: cells.dominants_below(datum, lam)
                   for lam in classes}
    for lam in classes:
      below = below_cache[lam]
      for mu in classes:
        brute = (mu != lam and cells.leq(datum, mu, lam)
                 and not any(nu not in (mu, lam)
                             and cells.leq(datum, mu, nu)
                             for nu in below))
        assert cells.is_cover_fast(datum, mu, lam) == brute


class TestCriterion10Hyperspecial:

  @pytest.mark.parametrize("ell", [1, 2, 3])
  def test_basis_verification(self, ell):
    report = loops.verify_hyperspecial(ell, 6)
    assert report["passed"], report["mismatches"]

  def test_bracket_compatibility(self):
    assert loops.eta_bracket_check(2, 6, 200) == []


class TestCriterion11NumbersGame:

  def test_poset_matches_figures(self):
    poset = e6.numbers_game_poset()
    got_nodes = {tuple(w): star for w, star in poset["nodes"]}
    assert got_nodes == diagram_fixture.node_weights()
    weights = [tuple(w) for w, _ in poset["nodes"]]
    got_edges = {(weights[a], weights[b], i)
                 for a, b, i in poset["edges"]}
    sys = build("E", 6)
    assert got_edges == diagram_fixture.edge_triples(sys.reflect)
    assert sum(1 for _, star in poset["nodes"] if star) == 10


# -- criterion 12: the four randomized property suites -----------------------

def _crystal_pool():
  pool = [
      MinusculeCrystal(build("A", 2), 1),
      MinusculeCrystal(build("A", 3), 2),
      MinusculeCrystal(build("D", 4), 1),
      MinusculeCrystal(build("E", 6), 1),
  ]
  a2 = MinusculeCrystal(build("A", 2), 1)
  tensor = tensor_crystal(a2, a2, a2)
  return pool, tensor


_CRYSTALS, _TENSOR = _crystal_pool()
_TENSOR_ELEMENTS = list(_TENSOR.elements())


def _rep_pool():
  a2 = build("A", 2)
  d4 = build("D", 4)
  v_a2 = minuscule_representation(MinusculeCrystal(a2, 1))
  v_d4 = minuscule_representation(MinusculeCrystal(d4, 1))
  prod = ProductRepresentation([v_a2, v_a2])
  return [
      (a2, v_a2, list(v_a2.keys())),
      (d4, v_d4, list(v_d4.keys())),
      (a2, prod, list(prod.keys())),
  ]


_REPS = _rep_pool()

_FOLDINGS = [Folding("A", 5, 2), Folding("A", 4, 4), Folding("D", 5, 2),
             Folding("D", 6, 2), Folding("D", 4, 3), Folding("E", 6, 2)]


class TestCriterion12Properties:

  @_SETTINGS
  @given(idx=st.integers(min_value=0, max_value=len(_CRYSTALS)),
         pick=st.integers(min_value=0, max_value=10 ** 6),
         i=st.integers(min_value=1, max_value=6))
  def test_raising_and_lowering_are_inverse_bijections(self, idx, pick, i):
    if idx < len(_CRYSTALS):
      crys = _CRYSTALS[idx]
      b = pick % len(crys)
    else:
      crys = _TENSOR
      b = _TENSOR_ELEMENTS[pick % len(_TENSOR_ELEMENTS)]
    rank_ = getattr(crys, "rank", None) or crys.sys.rank
    i = 1 + (i - 1) % rank_
    down = crys.f(b, i)
    if down is not None:
      assert crys.e(down, i) == b
    up = crys.e(b, i)
    if up is not None:
      assert crys.f(up, i) == b

  @_SETTINGS
  @given(ridx=st.integers(min_value=0, max_value=len(_REPS) - 1),
         pick=st.integers(min_value=0, max_value=10 ** 6),
         i=st.integers(min_value=1, max_value=6),
         lower=st.booleans())
  def test_operators_preserve_weight_grading(self, ridx, pick, i, lower):
    sys, rep, keys = _REPS[ridx]
    key = keys[pick % len(keys)]
    i = 1 + (i - 1) % rep.rank
    alpha = tuple(row[i - 1] for row in sys.cartan)
    vec = SparseVector.unit(key)
    img = rep.apply_f(i, vec) if lower else rep.apply_e(i, vec)
    sgn = -1 if lower else 1
    expect = tuple(w + sgn * a for w, a in zip(rep.weight(key), alpha))
    for k2 in img.keys():
      assert rep.weight(k2) == expect

  @_SETTINGS
  @given(rows=st.lists(st.lists(st.integers(min_value=-4, max_value=4),
                                min_size=4, max_size=4),
                       min_size=1, max_size=6),
         seed=st.integers(min_value=0, max_value=10 ** 9),
         scalars=st.lists(_small_fractions(), min_size=6, max_size=6))
  def test_rank_deterministic_under_permutation_and_scaling(
      self, rows, seed, scalars):
    import random
    vectors = [SparseVector(dict(enumerate(row))) for row in rows]
    base = rank(vectors)
    shuffled = list(vectors)
    random.Random(seed).shuffle(shuffled)
    assert rank(shuffled) == base
    scaled = []
    for k, v in enumerate(shuffled):
      c = scalars[k % len(scalars)]
      if c == 0:
        c = Fraction(1)
      scaled.append(v.scale(c))
    assert rank(scaled) == base

  @_SETTINGS
  @given(didx=st.integers(min_value=0, max_value=len(_FOLDINGS) - 1),
         raw=st.lists(st.integers(min_value=-5, max_value=5),
                      min_size=6, max_size=6))
  def test_projection_invariant_under_the_twist(self, didx, raw):
    datum = _FOLDINGS[didx]
    n = datum.base_type.rank
    coords = tuple(raw[:n]) if len(raw) >= n else tuple(
        raw + [0] * (n - len(raw)))
    permuted = [0] * n
    for i in range(1, n + 1):
      permuted[datum.tau[i - 1] - 1] = coords[i - 1]
    assert datum.project(coords) == datum.project(tuple(permuted))
