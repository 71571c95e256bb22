import random
from fractions import Fraction

import pytest

from linalg_fixture import inverse

from twistedlie import folding, linalg, rootsystem
from twistedlie.folding import CoinvariantWeight, Folding
from twistedlie.rootsystem import build, cartan_matrix

# (family, rank, order) -> (fixed type, weight-lattice type, component
# group invariant factors), for all six covered data
_TABLE = {
    ("A", 5, 2): ("C3", "C3", (2,)),
    ("A", 4, 4): ("C2", "B2", ()),
    ("D", 5, 2): ("B4", "B4", (2,)),
    ("D", 6, 2): ("B5", "B5", (2,)),
    ("D", 4, 3): ("G2", "G2", ()),
    ("E", 6, 2): ("F4", "F4", ()),
}


def _data():
  return [Folding(f, n, m) for (f, n, m) in _TABLE]


def _simple_coroots(datum):
  """(i, alpha_i^vee) for every base node i, in fundamental coweight
  coordinates: row i of the base Cartan matrix."""
  return enumerate(cartan_matrix(datum.base_type), 1)


def _root_weight(cartan, root):
  """A root in fundamental-weight coordinates, its pairings <root, acheck_i>:
  the former ``RootSystem.root_weight``, kept as an oracle."""
  return tuple(sum(c * r for c, r in zip(row, root)) for row in cartan)


class TestFoldingTable:

  @pytest.mark.parametrize("key", sorted(_TABLE))
  def test_fixed_and_weight_types(self, key):
    datum = Folding(*key)
    fixed, weight, _ = _TABLE[key]
    assert str(datum.fixed_ctype) == fixed
    assert str(datum.weight_ctype) == weight

  @pytest.mark.parametrize("key", sorted(_TABLE))
  def test_component_group(self, key):
    datum = Folding(*key)
    assert datum.component_group() == _TABLE[key][2]

  def test_fixed_type(self):
    assert str(Folding("E", 6, 2).fixed_ctype) == "F4"
    assert str(Folding("A", 2, 4).fixed_ctype) == "A1"

  def test_unknown_folding_rejected(self):
    with pytest.raises(ValueError):
      Folding("A", 4, 2)   # even-rank A with order 2 is not covered
    with pytest.raises(ValueError):
      Folding("E", 6, 3)

  @pytest.mark.parametrize("key", (("A", 160, 2), ("A", 160, 3),
                                   ("D", 120, 5), ("E", 7, 2)))
  def test_invalid_datum_builds_no_root_system(self, monkeypatch, key):
    # the usage error comes before any positive-root closure, whose cost
    # grows with the rank
    def refuse(*args):
      raise AssertionError("a root system was built")
    monkeypatch.setattr(rootsystem, "build", refuse)
    monkeypatch.setattr(rootsystem.RootSystem, "__init__", refuse)
    with pytest.raises(ValueError):
      Folding(*key)

  def test_ell(self):
    assert Folding("D", 5, 2).ell == 4


class TestTauEta:

  def test_tau_is_involution_or_triality(self):
    for datum in _data():
      order = 3 if (datum.base_type.family, datum.base_type.rank,
                    datum.order) == ("D", 4, 3) else 2
      perm = list(range(1, datum.base_type.rank + 1))
      for _ in range(order):
        perm = [datum.tau[i - 1] for i in perm]
      assert perm == list(range(1, datum.base_type.rank + 1))

  def test_eta_constant_on_tau_orbits(self):
    for datum in _data():
      for i in range(1, datum.base_type.rank + 1):
        assert datum.eta[i - 1] == datum.eta[datum.tau[i - 1] - 1]

  def test_fibers_partition_nodes(self):
    for datum in _data():
      nodes = []
      for j in range(1, datum.ell + 1):
        nodes.extend(datum.fiber(j))
      assert sorted(nodes) == list(range(1, datum.base_type.rank + 1))


class TestFoldedRoots:

  def test_beta_matrix_is_folded_cartan(self):
    """Pairings of the folded simple roots against the folded simple
    coroots reproduce the Cartan matrix of the fixed type."""
    for datum in _data():
      expected = cartan_matrix(datum.fixed_ctype)
      for j in range(1, datum.ell + 1):
        beta = datum.beta(j)
        for k in range(1, datum.ell + 1):
          assert beta[k - 1] == expected[k - 1][j - 1]

  def test_restriction_is_the_fiber_sum_of_pairings(self):
    """beta_j against the pairings of its base root in the base root
    system: a simple root of the j-th fiber, or alpha_ell + alpha_{ell+1}
    at the short node of the ramified family.  Its k-th coordinate is the
    sum of <root, acheck_i> over the k-th fiber."""
    for datum in _data():
      base = build(datum.base_type.family, datum.base_type.rank)
      n = base.rank
      for j in range(1, datum.ell + 1):
        nodes = {datum.fiber(j)[0]}
        if datum.is_ramified and j == datum.ell:
          nodes = {datum.ell, datum.ell + 1}
        root = tuple(int(i in nodes) for i in range(1, n + 1))
        assert base.is_positive_root(root)
        pairs = _root_weight(base.cartan, root)
        assert datum.beta(j) == tuple(
            sum(pairs[i - 1] for i in datum.fiber(k))
            for k in range(1, datum.ell + 1))

  def test_iota_of_simple_coroot_is_beta(self):
    """The iota image of every base simple coroot alpha_i^vee equals the
    folded simple root of its fiber, beta_eta(i), halved at the short node
    of the one ramified family."""
    for datum in _data():
      for i, coroot in _simple_coroots(datum):
        j = datum.eta[i - 1]
        beta = datum.beta(j)
        if datum.is_ramified and j == datum.ell:
          assert list(datum.iota(coroot)) == [Fraction(c, 2) for c in beta]
        else:
          assert datum.iota(coroot) == beta

  def test_iota_rejects_wrong_length(self):
    # the coweight of A3 has three coordinates; five were read as two
    datum = Folding("A", 3, 2)
    for coweight in ((1, 0, 0, 7, 7), (1, 0), ()):
      with pytest.raises(ValueError, match="coordinates, expected 3"):
        datum.iota(coweight)

  @pytest.mark.parametrize("key", [("A", 5, 2), ("E", 6, 2)])
  @pytest.mark.parametrize("method", ["fiber", "beta", "gamma"])
  def test_node_out_of_range_rejected(self, key, method):
    # node 0 and -1 were read as node ell (A5/m2: fiber(0) was (3,)) and
    # node ell + 1 raised IndexError
    datum = Folding(*key)
    for j in (0, datum.ell + 1, -1):
      with pytest.raises(ValueError, match="out of range 1..%d" % datum.ell):
        getattr(datum, method)(j)
    getattr(datum, method)(1)
    getattr(datum, method)(datum.ell)

  def test_iota_of_fundamental_coweights(self):
    for datum in _data():
      n = datum.base_type.rank
      for i in range(1, n + 1):
        om = tuple(int(k == i - 1) for k in range(n))
        img = datum.iota(om)
        j = datum.eta[i - 1]
        assert img == tuple(int(k == j - 1) for k in range(datum.ell))


class TestProjection:

  def test_project_identity_for_unramified(self):
    """For the unramified data, classes of fundamental coweights are the
    fundamental weights of H indexed by eta."""
    for datum in _data():
      if datum.is_ramified:
        continue
      n = datum.base_type.rank
      for i in range(1, n + 1):
        om = tuple(int(k == i - 1) for k in range(n))
        cls = datum.project(om)
        j = datum.eta[i - 1]
        assert cls.coords == tuple(int(k == j - 1)
                                   for k in range(datum.ell))

  def test_ramified_projection_doubles_short_node(self):
    datum = Folding("A", 2, 4)
    assert datum.project((1, 0)).coords == (2,)
    assert datum.project((2, 0)).coords == (4,)

  def test_project_of_simple_coroot_is_gamma(self):
    # the class of every base simple coroot is the simple root of H of its
    # fiber
    for datum in _data():
      for i, coroot in _simple_coroots(datum):
        assert datum.project(coroot) == datum.gamma(datum.eta[i - 1])

  def test_lattice_membership(self):
    datum = Folding("A", 2, 4)
    assert datum.in_coinvariant_lattice(CoinvariantWeight(
        datum.weight_ctype, (2,)))
    assert not datum.in_coinvariant_lattice(CoinvariantWeight(
        datum.weight_ctype, (1,)))
    unram = Folding("A", 5, 2)
    assert unram.in_coinvariant_lattice(CoinvariantWeight(
        unram.weight_ctype, (0, 1, 0)))


class TestDiscreteInvariants:

  def test_level_one_sets(self):
    assert Folding("A", 5, 2).level_one_set() == [(0, 0, 0), (1, 0, 0)]
    assert Folding("D", 5, 2).level_one_set() == [(0, 0, 0, 0),
                                                  (0, 0, 0, 1)]
    assert Folding("A", 4, 4).level_one_set() == [(0, 0)]
    assert Folding("D", 4, 3).level_one_set() == [(0, 0)]
    assert Folding("E", 6, 2).level_one_set() == [(0, 0, 0, 0)]

  def test_special_coweights_map_onto_level_one(self):
    for datum in _data():
      images = [datum.iota(cw) for cw in datum.special_coweights()]
      assert sorted(images) == sorted(tuple(v) for v in
                                      datum.level_one_set())

  def test_level_one_count_matches_component_group(self):
    for datum in _data():
      order = 1
      for d in datum.component_group():
        order *= d
      assert len(datum.level_one_set()) == order


class TestCoinvariantWeight:

  def test_arithmetic(self):
    t = Folding("A", 5, 2).weight_ctype
    a = CoinvariantWeight(t, (1, 2, 0))
    b = CoinvariantWeight(t, (0, 1, 1))
    assert (a + b).coords == (1, 3, 1)

  def test_normalizes_integral_fractions(self):
    t = Folding("A", 5, 2).weight_ctype
    a = CoinvariantWeight(t, (Fraction(2, 1), Fraction(1, 2), 0))
    assert a.coords == (2, Fraction(1, 2), 0)
    assert not a.is_integral()
    assert a.is_dominant()

  def test_type_mismatch_rejected(self):
    a = CoinvariantWeight(Folding("A", 5, 2).weight_ctype, (0, 0, 0))
    b = CoinvariantWeight(Folding("E", 6, 2).weight_ctype, (0, 0, 0, 0))
    with pytest.raises(ValueError):
      a + b


# -- what Folding reads off Q, against the base-rank formulas it replaced ----

# The six covered data at several ranks each, ell = 1 included.
_RANKED = ([("A", 2 * ell - 1, 2) for ell in (2, 3, 5, 8, 13)]
           + [("A", 2 * ell, 4) for ell in (1, 2, 3, 5, 8)]
           + [("D", n, 2) for n in (4, 5, 6, 9, 13)]
           + [("D", 4, 3), ("E", 6, 2)])


def _fraction_projection(datum):
  """P = C_H Q^{-1} in Fraction arithmetic, as Folding built it before it
  held integer rows."""
  ell, n = datum.ell, datum.base_type.rank
  cartan = cartan_matrix(datum.base_type)
  q = [datum.iota(tuple(cartan[k][datum.fiber(j)[0] - 1]
                        for k in range(n))) for j in range(1, ell + 1)]
  qinv = inverse(tuple(tuple(Fraction(q[j][k]) for j in range(ell))
                       for k in range(ell)))
  p = cartan_matrix(datum.weight_ctype)
  return tuple(tuple(sum(Fraction(p[k][j]) * qinv[j][c] for j in range(ell))
                     for c in range(ell)) for k in range(ell))


def _fraction_project(datum, pmat, coweight):
  cprime = [sum(coweight[i - 1] for i in datum.fiber(j))
            for j in range(1, datum.ell + 1)]
  return CoinvariantWeight(datum.weight_ctype, tuple(
      sum(pmat[k][j] * cprime[j] for j in range(datum.ell))
      for k in range(datum.ell)))


def _seed_component_group(datum):
  """The component group as Folding computed it before it held Q, kept as
  an oracle: the invariant factors (> 1) of the rank x 2 rank matrix
  [1 - tau | C], C the base Cartan matrix."""
  n = datum.base_type.rank
  cartan = cartan_matrix(datum.base_type)
  cols = []
  for i in range(n):
    col = [0] * n
    col[i] += 1
    col[datum.tau[i] - 1] -= 1
    cols.append(col)
  for j in range(n):
    cols.append([cartan[i][j] for i in range(n)])
  mat = [[cols[c][r] for c in range(2 * n)] for r in range(n)]
  return tuple(d for d in linalg.smith_invariant_factors(mat) if d != 1)


class TestIntegerProjection:

  @pytest.mark.parametrize("key", _RANKED)
  def test_component_group_equals_seed_matrix(self, key):
    datum = Folding(*key)
    assert datum.component_group() == _seed_component_group(datum)

  @pytest.mark.parametrize("key", _RANKED)
  def test_equals_fraction_formulas(self, key):
    datum = Folding(*key)
    n = datum.base_type.rank
    pmat = _fraction_projection(datum)
    rows, den = datum._projection
    assert tuple(tuple(Fraction(x, den) for x in row) for row in rows) == pmat
    rng = random.Random("%s%d/%d" % key)
    coweights = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    coweights += [tuple(rng.randint(-3, 3) for _ in range(n))
                  for _ in range(10)]
    coweights += [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                        for _ in range(n)) for _ in range(5)]
    for coweight in coweights:
      cls = datum.project(coweight)
      assert cls == _fraction_project(datum, pmat, coweight)
      assert all(type(c) is int or c.denominator > 1 for c in cls.coords)

  def test_no_inverse_per_projection(self, monkeypatch):
    # the folding inverts Q once, on construction, and never C_H; a
    # projection inverts nothing
    calls = []
    monkeypatch.setattr(folding, "integer_inverse",
                        lambda mat: calls.append(mat)
                        or linalg.integer_inverse(mat))
    datum = Folding("A", 41, 2)
    assert calls == [datum._q]
    monkeypatch.setattr(linalg, "_pivot_inverse", None)
    monkeypatch.setattr(folding, "integer_inverse", None)
    for i, coroot in _simple_coroots(datum):
      assert datum.project(coroot) == datum.gamma(datum.eta[i - 1])
