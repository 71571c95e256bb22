import random
import tracemalloc
from fractions import Fraction

import pytest

from linalg_fixture import inverse

from twistedlie.rootsystem import (CartanType, build, cartan_matrix,
                                   minimal_coset_reps, symmetrizer)


class TestCartanMatrices:

  def test_a2(self):
    assert cartan_matrix(CartanType("A", 2)) == ((2, -1), (-1, 2))

  def test_b2_c2(self):
    assert cartan_matrix(CartanType("B", 2)) == ((2, -1), (-2, 2))
    assert cartan_matrix(CartanType("C", 2)) == ((2, -2), (-1, 2))

  def test_g2(self):
    assert cartan_matrix(CartanType("G", 2)) == ((2, -3), (-1, 2))

  def test_f4(self):
    assert cartan_matrix(CartanType("F", 4)) == (
        (2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))

  def test_e6_row_sums(self):
    c = cartan_matrix(CartanType("E", 6))
    # node 2 attaches to node 4; the chain is 1-3-4-5-6
    assert c[1][3] == c[3][1] == -1
    assert c[0][2] == c[2][3] == c[3][4] == c[4][5] == -1
    assert c[0][1] == c[1][2] == 0

  @pytest.mark.parametrize("family", ("BC", "", "AB", "a", "H"))
  def test_family_is_one_known_letter(self, family):
    with pytest.raises(ValueError, match="unknown family"):
      CartanType(family, 3)

  def test_symmetrizers(self):
    assert symmetrizer(CartanType("B", 3)) == (2, 2, 1)
    assert symmetrizer(CartanType("C", 3)) == (1, 1, 2)
    assert symmetrizer(CartanType("F", 4)) == (2, 2, 1, 1)
    assert symmetrizer(CartanType("G", 2)) == (1, 3)
    assert symmetrizer(CartanType("A", 4)) == (1, 1, 1, 1)

  def test_symmetrized_matrix_is_symmetric(self):
    for fam, rank in (("B", 4), ("C", 3), ("F", 4), ("G", 2), ("D", 5)):
      c = cartan_matrix(CartanType(fam, rank))
      d = symmetrizer(CartanType(fam, rank))
      n = len(c)
      for i in range(n):
        for j in range(n):
          assert d[i] * c[i][j] == d[j] * c[j][i]

  def test_invalid_types(self):
    with pytest.raises(ValueError):
      CartanType("D", 3)
    with pytest.raises(ValueError):
      CartanType("E", 9)
    with pytest.raises(ValueError):
      CartanType("H", 3)
    with pytest.raises(ValueError, match="does not fit in an index"):
      CartanType("A", 10 ** 20)


def _raise(root, i):
  """root + alpha_i."""
  return root[:i - 1] + (root[i - 1] + 1,) + root[i:]


def _maximal_roots(sys):
  """The seed's highest-root search, kept as an oracle: the positive roots
  with no positive root one simple root above them."""
  roots = set(sys.positive_roots)
  return [root for root in sys.positive_roots
          if not any(_raise(root, i) in roots
                     for i in range(1, sys.rank + 1))]


# every Cartan type of rank at most 8
_TYPES_TO_RANK_8 = ([(f, n) for f in "ABC" for n in range(1, 9)]
                    + [("D", n) for n in range(4, 9)]
                    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _pairing(cartan, root, i):
  """<root, acheck_i> for a root in simple-root coords, i 1-based."""
  return sum(c * r for c, r in zip(cartan[i - 1], root))


def _root_weight(cartan, root):
  """A root in fundamental-weight coordinates, its pairings <root, acheck_i>:
  the former ``RootSystem.root_weight``, kept as an oracle."""
  return tuple(_pairing(cartan, root, i) for i in range(1, len(root) + 1))


def _coroot_pairing(sys, wt, root):
  """<wt, rootcheck> = 2 (wt, root) / (root, root), as the former
  ``RootSystem.coroot_pairing`` computed it."""
  return Fraction(2 * sys.root_inner(root, wt),
                  sys.root_inner(root, _root_weight(sys.cartan, root)))


def _reflection_closure(sys):
  """The positive roots as the seed found them, kept as an oracle: every
  simple reflection of every root found so far, in (height, coords)
  order."""
  n = sys.rank
  simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
  found = set(simple)
  frontier = list(simple)
  while frontier:
    nxt = []
    for root in frontier:
      for i in range(1, n + 1):
        img = list(root)
        img[i - 1] -= _pairing(sys.cartan, root, i)
        img = tuple(img)
        if min(img) >= 0 and img not in found:
          found.add(img)
          nxt.append(img)
    frontier = nxt
  return tuple(sorted(found, key=lambda r: (sum(r), r)))


# every type the closure is checked on against the reflection oracle
_CLOSURE_TYPES = ([("A", n) for n in range(1, 13)]
                  + [(f, n) for f in "BC" for n in range(2, 11)]
                  + [("D", n) for n in range(4, 11)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


# the closure types with B1 and C1: every type is_minuscule is checked on
_MINUSCULE_TYPES = _CLOSURE_TYPES + [("B", 1), ("C", 1)]


def _minuscule_nodes(family, rank):
  """The minuscule nodes by the classification (Bourbaki, Lie groups ch.
  VIII, 7.3): every node of A_n, the last of B_n, the first of C_n, the
  first and the two spin nodes of D_n, 1 and 6 of E6, 7 of E7."""
  if family == "A" or rank == 1:
    return set(range(1, rank + 1))
  key = family if family in "BCD" else "%s%d" % (family, rank)
  return {"B": {rank}, "C": {1}, "D": {1, rank - 1, rank}, "E6": {1, 6},
          "E7": {7}}.get(key, set())


class TestPositiveRoots:

  @pytest.mark.parametrize("family,rank", _CLOSURE_TYPES,
                           ids=["%s%d" % t for t in _CLOSURE_TYPES])
  def test_closure_equals_reflection_closure(self, family, rank):
    sys = build(family, rank)
    roots = _reflection_closure(sys)
    assert sys.positive_roots == roots
    assert sys.highest_root == roots[-1]
    assert [alpha for alpha, _, _ in sys._positive_steps] == list(roots)
    for alpha, height, weight in sys._positive_steps:
      assert height == sum(alpha)
      assert weight == _root_weight(sys.cartan, alpha)

  @pytest.mark.parametrize("fam,rank,count", [
      ("A", 2, 3), ("A", 5, 15), ("B", 2, 4), ("C", 3, 9),
      ("D", 4, 12), ("G", 2, 6), ("F", 4, 24), ("E", 6, 36),
  ])
  def test_counts(self, fam, rank, count):
    assert len(build(fam, rank).positive_roots) == count

  def test_e6_highest_root(self):
    assert build("E", 6).highest_root == (1, 2, 2, 3, 2, 1)

  def test_g2_highest_root(self):
    assert build("G", 2).highest_root == (3, 2)

  @pytest.mark.parametrize("family,rank", _TYPES_TO_RANK_8,
                           ids=["%s%d" % t for t in _TYPES_TO_RANK_8])
  def test_highest_root_is_the_unique_maximal_root(self, family, rank):
    sys = build(family, rank)
    assert _maximal_roots(sys) == [sys.highest_root]

  def test_root_norms(self):
    sys = build("G", 2)
    norms = sorted({sys.root_inner(r, _root_weight(sys.cartan, r))
                    for r in sys.positive_roots})
    assert norms == [2, 6]


# The E6 root poset, transcribed from the published Hasse diagram: each
# root is written in simple-root coordinates (c1..c6), and each edge is
# (lower root, upper root, added node).  36 roots, 60 edges.
_RT = {
    "a1": (1, 0, 0, 0, 0, 0), "a2": (0, 1, 0, 0, 0, 0),
    "a3": (0, 0, 1, 0, 0, 0), "a4": (0, 0, 0, 1, 0, 0),
    "a5": (0, 0, 0, 0, 1, 0), "a6": (0, 0, 0, 0, 0, 1),
    "a13": (1, 0, 1, 0, 0, 0), "a34": (0, 0, 1, 1, 0, 0),
    "a24": (0, 1, 0, 1, 0, 0), "a45": (0, 0, 0, 1, 1, 0),
    "a56": (0, 0, 0, 0, 1, 1), "a134": (1, 0, 1, 1, 0, 0),
    "a234": (0, 1, 1, 1, 0, 0), "a345": (0, 0, 1, 1, 1, 0),
    "a245": (0, 1, 0, 1, 1, 0), "a456": (0, 0, 0, 1, 1, 1),
    "a1234": (1, 1, 1, 1, 0, 0), "a1345": (1, 0, 1, 1, 1, 0),
    "a2345": (0, 1, 1, 1, 1, 0), "a3456": (0, 0, 1, 1, 1, 1),
    "a2456": (0, 1, 0, 1, 1, 1), "a12345": (1, 1, 1, 1, 1, 0),
    "a13456": (1, 0, 1, 1, 1, 1), "a23445": (0, 1, 1, 2, 1, 0),
    "a23456": (0, 1, 1, 1, 1, 1), "a123445": (1, 1, 1, 2, 1, 0),
    "a123456": (1, 1, 1, 1, 1, 1), "a234456": (0, 1, 1, 2, 1, 1),
    "a1233445": (1, 1, 2, 2, 1, 0), "a1234456": (1, 1, 1, 2, 1, 1),
    "a2344556": (0, 1, 1, 2, 2, 1), "a12334456": (1, 1, 2, 2, 1, 1),
    "a12344556": (1, 1, 1, 2, 2, 1), "a123344556": (1, 1, 2, 2, 2, 1),
    "a1233444556": (1, 1, 2, 3, 2, 1), "a12233444556": (1, 2, 2, 3, 2, 1),
}

_EDGES = [
    ("a1", "a13", 3), ("a3", "a13", 1), ("a3", "a34", 4), ("a2", "a24", 4),
    ("a4", "a24", 2), ("a4", "a34", 3), ("a4", "a45", 5), ("a5", "a45", 4),
    ("a5", "a56", 6), ("a6", "a56", 5), ("a13", "a134", 4),
    ("a34", "a134", 1), ("a34", "a234", 2), ("a34", "a345", 5),
    ("a24", "a234", 3), ("a24", "a245", 5), ("a45", "a345", 3),
    ("a56", "a456", 4), ("a45", "a456", 6), ("a45", "a245", 2),
    ("a134", "a1234", 2), ("a134", "a1345", 5), ("a234", "a1234", 1),
    ("a234", "a2345", 5), ("a345", "a1345", 1), ("a345", "a2345", 2),
    ("a345", "a3456", 6), ("a245", "a2345", 3), ("a245", "a2456", 6),
    ("a456", "a3456", 3), ("a456", "a2456", 2), ("a1234", "a12345", 5),
    ("a1345", "a12345", 2), ("a1345", "a13456", 6), ("a2345", "a23456", 6),
    ("a2345", "a12345", 1), ("a2345", "a23445", 4), ("a3456", "a13456", 1),
    ("a3456", "a23456", 2), ("a2456", "a23456", 3),
    ("a12345", "a123445", 4), ("a12345", "a123456", 6),
    ("a13456", "a123456", 2), ("a23445", "a123445", 1),
    ("a23445", "a234456", 6), ("a23456", "a123456", 1),
    ("a23456", "a234456", 4), ("a123445", "a1233445", 3),
    ("a123445", "a1234456", 6), ("a123456", "a1234456", 4),
    ("a234456", "a2344556", 5), ("a234456", "a1234456", 1),
    ("a2344556", "a12344556", 1), ("a1233445", "a12334456", 6),
    ("a1234456", "a12334456", 3), ("a1234456", "a12344556", 5),
    ("a12334456", "a123344556", 5), ("a12344556", "a123344556", 3),
    ("a123344556", "a1233444556", 4), ("a1233444556", "a12233444556", 2),
]


def _root_poset_covers(sys):
  """The cover relations (gamma, gamma + alpha_i, i) of the positive-root
  poset."""
  roots = set(sys.positive_roots)
  return [(root, _raise(root, i), i) for root in sys.positive_roots
          for i in range(1, sys.rank + 1) if _raise(root, i) in roots]


class TestE6RootPoset:

  def test_nodes_match_fixture(self):
    sys = build("E", 6)
    assert set(sys.positive_roots) == set(_RT.values())
    assert len(_RT) == 36

  def test_edges_match_fixture(self):
    sys = build("E", 6)
    covers = _root_poset_covers(sys)
    expected = {(_RT[a], _RT[b], i) for a, b, i in _EDGES}
    assert set(covers) == expected
    assert len(_EDGES) == 60


class TestWeightMachinery:

  def test_fundamental_weights_pair_to_delta(self):
    sys = build("E", 6)
    for r in range(1, 7):
      omega = tuple(int(k == r - 1) for k in range(6))
      coords = sys.weight_root_coords(omega)
      for i in range(1, 7):
        assert _pairing(sys.cartan, coords, i) == (1 if i == r else 0)
    assert sys.weight_root_coords((0,) * 6) == (0,) * 6

  @pytest.mark.parametrize("family,rank", _TYPES_TO_RANK_8,
                           ids=["%s%d" % t for t in _TYPES_TO_RANK_8])
  def test_root_coords_match_fraction_inverse(self, family, rank):
    # against the Fraction product with the inverse Cartan matrix: ints
    # exactly where a coordinate is integral, Fractions elsewhere
    sys = build(family, rank)
    inv = inverse(sys.cartan)
    rng = random.Random("%s%d" % (family, rank))
    weights = [tuple(int(k == r) for k in range(rank)) for r in range(rank)]
    weights += [tuple(rng.randint(-3, 3) for _ in range(rank))
                for _ in range(20)]
    weights += [tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                      for _ in range(rank)) for _ in range(20)]
    for wt in weights:
      want = tuple(sum(inv[i][j] * wt[j] for j in range(rank))
                   for i in range(rank))
      got = sys.weight_root_coords(wt)
      assert got == want, wt
      assert [type(c) for c in got] == [
          int if Fraction(c).denominator == 1 else Fraction for c in want]

  def test_reflection_involutive(self):
    sys = build("F", 4)
    wt = (1, 2, 0, 3)
    for i in range(1, 5):
      assert sys.reflect(i, sys.reflect(i, wt)) == wt

  def test_dominant_representative(self):
    sys = build("B", 3)
    wt = sys.reflect(1, sys.reflect(2, (1, 0, 1)))
    assert sys.dominant_representative(wt) == (1, 0, 1)

  def test_weyl_orbit_sizes(self):
    sys = build("E", 6)
    assert len(sys.weyl_orbit((1, 0, 0, 0, 0, 0))) == 27
    assert len(sys.weyl_orbit((0, 0, 0, 1, 0, 0))) == 720

  def test_weyl_dimension(self):
    sys = build("E", 6)
    assert sys.weyl_dimension((1, 0, 0, 0, 0, 0)) == 27
    assert sys.weyl_dimension((0, 0, 0, 1, 0, 0)) == 2925
    assert sys.weyl_dimension((0,) * 6) == 1
    g2 = build("G", 2)
    assert g2.weyl_dimension((0, 1)) == 14

  @pytest.mark.parametrize("family,rank", _CLOSURE_TYPES,
                           ids=["%s%d" % t for t in _CLOSURE_TYPES])
  def test_weyl_dimension_matches_fraction_product(self, family, rank):
    # the integer quotient against the formula as one Fraction per positive
    # root, on 20 seeded dominant weights with coordinates 0 to 3
    sys = build(family, rank)
    rng = random.Random("%s%d" % (family, rank))
    rho = (1,) * rank
    for _ in range(20):
      lam = tuple(rng.randrange(4) for _ in range(rank))
      lam_rho = tuple(a + 1 for a in lam)
      product = Fraction(1)
      for root in sys.positive_roots:
        product *= Fraction(sys.root_inner(root, lam_rho),
                            sys.root_inner(root, rho))
      assert product.denominator == 1
      assert sys.weyl_dimension(lam) == product

  @pytest.mark.parametrize("family, rank, wt", [
      ("A", 2, (1, 0, 5)), ("E", 6, (1, 0, 0)), ("A", 2, ())])
  def test_weyl_orbit_rejects_wrong_length(self, family, rank, wt):
    with pytest.raises(ValueError, match="coordinates, expected %d" % rank):
      build(family, rank).weyl_orbit(wt)

  @pytest.mark.parametrize("family, rank, wt", [
      ("A", 2, (1, 0, 5)), ("E", 6, (1, 0, 0)), ("G", 2, (0,))])
  def test_weyl_dimension_rejects_wrong_length(self, family, rank, wt):
    with pytest.raises(ValueError, match="coordinates, expected %d" % rank):
      build(family, rank).weyl_dimension(wt)

  @pytest.mark.parametrize("wt", [(1,), (1, 0, 5), ()])
  def test_weight_root_coords_rejects_wrong_length(self, wt):
    with pytest.raises(ValueError, match="coordinates, expected 2"):
      build("A", 2).weight_root_coords(wt)

  @pytest.mark.parametrize("wt", [(1, -1, 5), (-1,)])
  def test_dominant_representative_rejects_wrong_length(self, wt):
    with pytest.raises(ValueError, match="coordinates, expected 2"):
      build("A", 2).dominant_representative(wt)

  @pytest.mark.parametrize("x, y", [((1, 0), (1, 0, 5)), ((1, 0, 5), (1, 0)),
                                    ((1,), (1, 0)), ((1, 0), (1,))])
  def test_inner_rejects_wrong_length(self, x, y):
    with pytest.raises(ValueError, match="coordinates, expected 2"):
      build("A", 2).inner(x, y)

  @pytest.mark.parametrize("root, y", [((1, 1), (1, 0, 7)), ((1, 0, 9), (1, 1)),
                                       ((1,), (1, 1)), ((1, 1), (1,))])
  def test_root_inner_rejects_wrong_length(self, root, y):
    with pytest.raises(ValueError, match="coordinates, expected 2"):
      build("A", 2).root_inner(root, y)

  @pytest.mark.parametrize("wt", [(1,), (1, 0, -5), ()])
  def test_is_dominant_rejects_wrong_length(self, wt):
    with pytest.raises(ValueError, match="coordinates, expected 2"):
      build("A", 2).is_dominant(wt)

  @pytest.mark.parametrize("i, wt, match", [
      (0, (1, 0, 0), "node"), (4, (1, 0, 0), "node"), (-1, (1, 0, 0), "node"),
      (1, (1, 0), "coordinates, expected 3"),
      (1, (1, 0, 0, 5), "coordinates, expected 3")])
  def test_reflect_rejects_bad_node_or_length(self, i, wt, match):
    # at A3, node 0 read as node 3 and node 4 raised IndexError
    with pytest.raises(ValueError, match=match):
      build("A", 3).reflect(i, wt)

  @pytest.mark.parametrize("family, rank, wt", [
      ("A", 2, (Fraction(1, 2), 0)), ("A", 2, (0.5, 0)),
      ("E", 6, (0, 0, 0, Fraction(3, 2), 0, 0)), ("G", 2, (1, Fraction(1, 3)))])
  def test_non_integral_weights_rejected(self, family, rank, wt):
    sys = build(family, rank)
    zero = (0,) * rank
    for call in (lambda: sys.weyl_dimension(wt),
                 lambda: sys.freudenthal_multiplicity(wt, wt),
                 lambda: sys.freudenthal_multiplicity(zero, wt)):
      with pytest.raises(ValueError, match="integral"):
        call()

  def test_weyl_orbit_of_a_rational_weight(self):
    sys = build("A", 2)
    half = Fraction(1, 2)
    assert sys.weyl_orbit((half, 0)) == {(half, 0), (-half, half),
                                         (0, -half)}

  def test_integral_fractions_accepted(self):
    sys = build("A", 2)
    one = Fraction(1)
    assert sys.weyl_dimension((one, one)) == 8
    assert sys.freudenthal_multiplicity((one, one), (0, 0)) == 2

  def test_freudenthal_dominant_character(self):
    sys = build("E", 6)
    om4 = (0, 0, 0, 1, 0, 0)
    assert sys.freudenthal_multiplicity(om4, om4) == 1
    assert sys.freudenthal_multiplicity(om4, (1, 0, 0, 0, 0, 1)) == 4
    assert sys.freudenthal_multiplicity(om4, (0, 1, 0, 0, 0, 0)) == 15
    assert sys.freudenthal_multiplicity(om4, (0,) * 6) == 45

  def test_freudenthal_sums_to_dimension(self):
    sys = build("A", 2)
    lam = (1, 1)
    total = 0
    for _, mu in sys.dominant_weights_below(lam):
      total += sys.freudenthal_multiplicity(lam, mu) * len(sys.weyl_orbit(mu))
    assert total == sys.weyl_dimension(lam) == 8

  def test_minuscule(self):
    sys = build("E", 6)
    assert sys.is_minuscule(1)
    assert sys.is_minuscule(6)
    assert not sys.is_minuscule(4)
    g2 = build("G", 2)
    assert not g2.is_minuscule(1)
    assert not g2.is_minuscule(2)
    a3 = build("A", 3)
    assert all(a3.is_minuscule(r) for r in (1, 2, 3))

  @pytest.mark.parametrize("family,rank", _MINUSCULE_TYPES,
                           ids=["%s%d" % t for t in _MINUSCULE_TYPES])
  def test_minuscule_equals_coroot_pairing_oracle(self, family, rank):
    # the step-table test against <omega_r, alphacheck> <= 1 computed as a
    # quotient of forms, and against the classification of minuscule nodes
    sys = build(family, rank)
    got = set()
    for r in range(1, rank + 1):
      omega = tuple(int(i == r) for i in range(1, rank + 1))
      want = all(_coroot_pairing(sys, omega, root) <= 1
                 for root in sys.positive_roots)
      assert sys.is_minuscule(r) == want, r
      if want:
        got.add(r)
    assert got == _minuscule_nodes(family, rank)


def _box_dominant_candidates(self, lam):
  """The box walk that dominant_weights_below replaced, as an oracle."""
  lam = tuple(lam)
  if not self.is_dominant(lam):
    raise ValueError("weight must be dominant")
  la = self.weight_root_coords(lam)
  bounds = [int(x) for x in la]  # floor; coords of dominant weights are >= 0
  n = self.rank
  out = []

  def rec(pos, c):
    if pos == n:
      mu = tuple(lam[i] - sum(c[j] * self.cartan[i][j] for j in range(n))
                 for i in range(n))
      if self.is_dominant(mu):
        out.append((sum(c), mu))
      return
    for v in range(bounds[pos] + 1):
      c[pos] = v
      rec(pos + 1, c)
    c[pos] = 0

  rec(0, [0] * n)
  out.sort()
  return out


_SMALL_TYPES = ([("A", n) for n in range(1, 6)] + [("B", n) for n in (2, 3, 4)]
                + [("C", n) for n in (2, 3, 4)] + [("D", 4), ("D", 5), ("F", 4),
                                                   ("G", 2)])
_BELOW_CASES = tuple(
    (family, rank, tuple(k * int(j == i) for j in range(rank)))
    for family, rank in _SMALL_TYPES for i in range(rank) for k in (1, 2)
) + tuple(("E", 6, tuple(int(j == i) for j in range(6))) for i in range(6))


class TestDominantWeightsBelow:

  @pytest.mark.parametrize("family,rank,lam", _BELOW_CASES,
                           ids=["%s%d %s" % (f, n, ",".join(map(str, lam)))
                                for f, n, lam in _BELOW_CASES])
  def test_matches_box_walk(self, family, rank, lam):
    sys_ = build(family, rank)
    assert sys_.dominant_weights_below(lam) == _box_dominant_candidates(
        sys_, lam)

  def test_rational_weight(self):
    sys_ = build("B", 2)
    lam = (Fraction(3, 2), 1)
    assert sys_.dominant_weights_below(lam) == _box_dominant_candidates(
        sys_, lam)

  @pytest.mark.parametrize("lam", ((1, -1), (1, 0, 0)))
  def test_rejects_bad_weights(self, lam):
    with pytest.raises(ValueError):
      build("A", 2).dominant_weights_below(lam)


def _betweenness_covers(sys_, weights):
  """The covers among ``weights`` by exhaustive betweenness search: b
  covers a when weights[b] - weights[a] has nonnegative integral Fraction
  simple-root coordinates, not all zero, and no weight lies strictly
  between."""
  inv = inverse(sys_.cartan)
  n = sys_.rank
  coords = [[sum(inv[i][j] * mu[j] for j in range(n)) for i in range(n)]
            for mu in weights]
  up = [0] * len(weights)    # bit b of up[a]: weights[a] < weights[b]
  down = [0] * len(weights)  # bit a of down[b]: weights[a] < weights[b]
  for a, low in enumerate(coords):
    for b, high in enumerate(coords):
      diff = [h - l for l, h in zip(low, high)]
      if a != b and all(d >= 0 and d.denominator == 1 for d in diff):
        up[a] |= 1 << b
        down[b] |= 1 << a
  return [(a, b) for a in range(len(weights)) for b in range(len(weights))
          if up[a] >> b & 1 and not up[a] & down[b]]


_COVER_CASES = (("A", 5, (2, 1, 1, 1, 2)), ("D", 5, (1, 1, 1, 1, 1)),
                ("E", 6, (1, 1, 0, 1, 1, 1)), ("E", 7, (1, 0, 0, 1, 0, 0, 1)),
                ("B", 3, (2, 2, 2)), ("C", 3, (2, 2, 2)),
                ("F", 4, (1, 1, 1, 1)), ("G", 2, (3, 3)))


class TestDominantCovers:

  @pytest.mark.parametrize("family,rank,lam", _COVER_CASES,
                           ids=["%s%d %s" % (f, n, ",".join(map(str, lam)))
                                for f, n, lam in _COVER_CASES])
  def test_matches_betweenness_search(self, family, rank, lam):
    sys_ = build(family, rank)
    weights = [mu for _, mu in sys_.dominant_weights_below(lam)]
    assert sys_.dominant_covers(weights) == _betweenness_covers(
        sys_, weights)


def _all_reflections_orbit(sys_, wt):
  """The seed's weyl_orbit, kept as an oracle: a breadth-first search that
  applies every simple reflection to every weight found."""
  start = tuple(wt)
  seen = {start}
  frontier = [start]
  while frontier:
    nxt = []
    for mu in frontier:
      for i in range(1, sys_.rank + 1):
        img = sys_.reflect(i, mu)
        if img not in seen:
          seen.add(img)
          nxt.append(img)
    frontier = nxt
  return frozenset(seen)


def _orbit_weights(sys_):
  """omega_i, 2 omega_i and s_1 of each."""
  for i in range(sys_.rank):
    for k in (1, 2):
      wt = tuple(k * int(j == i) for j in range(sys_.rank))
      yield wt
      yield sys_.reflect(1, wt)


_ORBIT_TYPES = _SMALL_TYPES + [("A", 6), ("B", 5), ("C", 5), ("D", 6)]
_RANK4_TYPES = [t for t in _SMALL_TYPES if t[1] <= 4]


class TestOrbitGraph:

  @pytest.mark.parametrize("family,rank", _ORBIT_TYPES,
                           ids=["%s%d" % t for t in _ORBIT_TYPES])
  def test_weyl_orbit_matches_all_reflections_search(self, family, rank):
    sys_ = build(family, rank)
    for wt in _orbit_weights(sys_):
      assert sys_.weyl_orbit(wt) == _all_reflections_orbit(sys_, wt), wt

  @pytest.mark.parametrize("family,rank", _RANK4_TYPES,
                           ids=["%s%d" % t for t in _RANK4_TYPES])
  def test_rational_weights_match_all_reflections_search(self, family, rank):
    sys_ = build(family, rank)
    for wt in ((Fraction(1, 2),) + (0,) * (rank - 1),
               tuple(Fraction(j + 1, 3) * (-1) ** j for j in range(rank))):
      orbit = _all_reflections_orbit(sys_, wt)
      assert sys_.weyl_orbit(wt) == orbit, wt
      assert sys_.orbit_size(wt) == len(orbit), wt

  @pytest.mark.parametrize("family,rank", _SMALL_TYPES + [("E", 6)],
                           ids=["%s%d" % t for t in _SMALL_TYPES + [("E", 6)]])
  def test_graph_is_the_lowering_steps_breadth_first(self, family, rank):
    sys_ = build(family, rank)
    for lam in _orbit_weights(sys_):
      if not sys_.is_dominant(lam):
        continue
      weights, steps = sys_.orbit_graph(lam)
      assert weights[0] == lam
      assert len(set(weights)) == len(weights)
      assert set(weights) == _all_reflections_orbit(sys_, lam)
      # one list per node, one entry per weight, None where no step
      assert len(steps) == rank
      assert all(len(row) == len(weights) for row in steps)
      table = {(k, i): j for i, row in enumerate(steps, 1)
               for k, j in enumerate(row) if j is not None}
      assert set(table) == {(k, i) for k, mu in enumerate(weights)
                            for i in range(1, rank + 1) if mu[i - 1] > 0}
      for (k, i), j in table.items():
        assert weights[j] == sys_.reflect(i, weights[k])
      # breadth-first: the first step into a weight comes from the least
      # index, and the depths so read never decrease along the list
      depth = [0]
      for (k, i), j in sorted(table.items()):
        if j == len(depth):
          depth.append(depth[k] + 1)
      assert len(depth) == len(weights)
      assert depth == sorted(depth)

  def test_weyl_orbit_memory_e7(self):
    # E7 omega_4 has 10,080 weights; the orbit and its lowering steps fit
    # in 3.5 MB, where a dict keyed by (weight index, node) took 5 MB
    sys_ = build("E", 7)
    tracemalloc.start()
    try:
      orbit = sys_.weyl_orbit((0, 0, 0, 1, 0, 0, 0))
      peak = tracemalloc.get_traced_memory()[1]
    finally:
      tracemalloc.stop()
    assert len(orbit) == 10080
    assert peak < 3.5e6

  @pytest.mark.parametrize("lam", ((1, -1), (0, Fraction(-1, 2)), (1, 0, 0),
                                   (1,)))
  def test_rejects_bad_weights(self, lam):
    with pytest.raises(ValueError):
      build("A", 2).orbit_graph(lam)


class TestOrbitSize:

  @pytest.mark.parametrize("family,rank", _ORBIT_TYPES + [("E", 6)],
                           ids=["%s%d" % t for t in _ORBIT_TYPES + [("E", 6)]])
  def test_matches_weyl_orbit(self, family, rank):
    sys_ = build(family, rank)
    weights = list(_orbit_weights(sys_)) + [
        (0,) * rank, (1,) * rank,
        tuple(int(j in (0, rank - 1)) for j in range(rank)),
        tuple(j % 3 - 1 for j in range(rank))]
    for wt in weights:
      assert sys_.orbit_size(wt) == len(sys_.weyl_orbit(wt)), wt

  @pytest.mark.parametrize("family,rank,order", (
      ("A", 9, 3628800), ("B", 8, 10321920), ("D", 8, 5160960),
      ("E", 6, 51840), ("E", 7, 2903040), ("E", 8, 696729600),
      ("F", 4, 1152), ("G", 2, 12)))
  def test_regular_orbit_is_the_weyl_group(self, family, rank, order):
    # rho has trivial stabiliser; the orders are the known |W|
    assert build(family, rank).orbit_size((1,) * rank) == order

  @pytest.mark.parametrize("wt", ((1, 0, 0), (1,)))
  def test_rejects_wrong_length(self, wt):
    with pytest.raises(ValueError, match="coordinates"):
      build("A", 2).orbit_size(wt)


class TestWeylElements:

  def test_minimal_coset_reps_d4(self):
    sys = build("D", 4)
    reps = minimal_coset_reps(sys, {2, 3, 4})
    assert len(reps) == 8

  def test_minimal_coset_reps_full_group(self):
    sys = build("A", 2)
    reps = minimal_coset_reps(sys, set())
    assert len(reps) == 6
