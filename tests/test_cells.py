import pytest

from twistedlie import cells
from twistedlie.cells import (DominantCoinvariant, VARIANT_ABS_SPECIAL,
                              VARIANT_SPECIAL, dominants_below,
                              dominants_below_direct, gamma_coords, is_cover,
                              is_cover_brute, is_cover_fast, leq,
                              smooth_cells)
from twistedlie.folding import CoinvariantWeight, Folding


def _cw(datum, coords):
  return CoinvariantWeight(datum.weight_ctype, tuple(coords))


@pytest.fixture(scope="module")
def a2_4():
  return Folding("A", 2, 4)


@pytest.fixture(scope="module")
def a4_4():
  return Folding("A", 4, 4)


@pytest.fixture(scope="module")
def a6_4():
  return Folding("A", 6, 4)


@pytest.fixture(scope="module")
def e6_2():
  return Folding("E", 6, 2)


class TestOrder:

  def test_leq_reflexive_and_antisymmetric(self, a4_4):
    lam = _cw(a4_4, (2, 2))
    mu = _cw(a4_4, (1, 2))
    assert leq(a4_4, lam, lam)
    assert leq(a4_4, mu, lam)
    assert not leq(a4_4, lam, mu)

  def test_gamma_coords_of_gamma(self, a4_4):
    for j in (1, 2):
      y = gamma_coords(a4_4, a4_4.gamma(j))
      assert y == tuple(int(k == j - 1) for k in range(a4_4.ell))

  def test_dominant_witness(self, a2_4):
    dom = DominantCoinvariant.make(a2_4, (4,))
    assert all(p >= 0 for p in dom.pairings)
    with pytest.raises(ValueError):
      DominantCoinvariant.make(a2_4, (-2,))


class TestDominantsBelow:

  def test_a2_4_chain(self, a2_4):
    got = [mu.coords for mu in dominants_below(a2_4, _cw(a2_4, (4,)))]
    assert got == [(4,), (2,), (0,)]

  def test_bfs_equals_direct(self, a4_4, a6_4):
    for datum, lam in ((a4_4, (2, 2)), (a4_4, (0, 4)), (a6_4, (1, 1, 2))):
      lam = _cw(datum, lam)
      assert dominants_below(datum, lam) == dominants_below_direct(
          datum, lam)

  def test_rejects_nondominant(self, a4_4):
    with pytest.raises(ValueError):
      dominants_below(a4_4, _cw(a4_4, (-1, 2)))


class TestCovers:

  def test_single_gamma_is_cover(self, a2_4):
    lam = _cw(a2_4, (4,))
    mu = _cw(a2_4, (2,))
    assert is_cover(a2_4, mu, lam)
    assert not is_cover(a2_4, lam, mu)
    assert not is_cover(a2_4, mu, mu)

  def test_double_gamma_not_cover(self, a2_4):
    assert not is_cover(a2_4, _cw(a2_4, (0,)), _cw(a2_4, (4,)))

  def test_interval_clause(self, a4_4):
    # difference gamma_1 + gamma_2 above the zero class is a cover
    zero = _cw(a4_4, (0, 0))
    top = a4_4.gamma(1) + a4_4.gamma(2)
    assert is_cover(a4_4, zero, top)

  def test_fast_matches_brute_on_lattice_box(self, a4_4):
    classes = []
    for a in range(0, 5):
      for b in range(0, 5, 2):
        cw = _cw(a4_4, (a, b))
        if a4_4.in_coinvariant_lattice(cw):
          classes.append(cw)
    for mu in classes:
      for lam in classes:
        assert is_cover_fast(a4_4, mu, lam) == is_cover_brute(
            a4_4, mu, lam)

  def test_fast_path_guard(self, e6_2):
    with pytest.raises(ValueError):
      is_cover_fast(e6_2, _cw(e6_2, (0, 0, 0, 0)), _cw(e6_2, (1, 0, 0, 0)))


class TestSmoothLocus:

  def test_open_cell_only_for_unramified(self, e6_2):
    lam = _cw(e6_2, (0, 0, 0, 1))
    report = smooth_cells(e6_2, None, lam)
    assert report.variant == "standard"
    open_cells = [v for v in report.cells if v.reason == "open-cell"]
    assert len(open_cells) == 1 and open_cells[0].smooth
    for v in report.cells:
      if v.reason != "open-cell":
        assert not v.smooth and v.reason == "not-open-cell"

  def test_unramified_takes_no_variant(self, e6_2):
    lam = _cw(e6_2, (0, 0, 0, 1))
    for variant in (VARIANT_SPECIAL, VARIANT_ABS_SPECIAL, "standard"):
      with pytest.raises(ValueError):
        smooth_cells(e6_2, variant, lam)

  def test_quasi_minuscule_cover_smooth(self, a2_4):
    report = smooth_cells(a2_4, VARIANT_SPECIAL, a2_4.gamma(1))
    reasons = {v.mu.coords: (v.smooth, v.reason) for v in report.cells}
    assert reasons[(2,)] == (True, "open-cell")
    assert reasons[(0,)] == (True, "quasi-minuscule-cover")

  def test_two_gamma_closure_all_singular_below(self, a2_4):
    report = smooth_cells(a2_4, VARIANT_SPECIAL, _cw(a2_4, (4,)))
    reasons = {v.mu.coords: (v.smooth, v.reason) for v in report.cells}
    assert reasons[(4,)] == (True, "open-cell")
    assert reasons[(2,)] == (False, "case1-cover-not-quasi-minuscule")
    assert reasons[(0,)] == (False, "step1-even-short-coefficient")

  def test_absolutely_special_variant(self, a2_4):
    report = smooth_cells(a2_4, VARIANT_ABS_SPECIAL, a2_4.gamma(1))
    below = [v for v in report.cells if v.reason != "open-cell"]
    assert below
    for v in below:
      assert not v.smooth
      assert v.reason == "external-only-open-cell"
      assert v.provenance == "external"

  def test_clause_two_cover_smooth(self, a4_4):
    # the zero class under gamma_1 + gamma_2: the difference is the full
    # tail interval, the class vanishes on it, so the cell is smooth
    lam = a4_4.gamma(1) + a4_4.gamma(2)
    report = smooth_cells(a4_4, VARIANT_SPECIAL, lam)
    by_mu = {v.mu.coords: v for v in report.cells}
    zero = (0, 0)
    assert by_mu[zero].smooth
    assert by_mu[zero].reason == "quasi-minuscule-cover"

  def test_rejects_bad_input(self, a2_4):
    with pytest.raises(ValueError):
      smooth_cells(a2_4, VARIANT_SPECIAL, _cw(a2_4, (1,)))  # not in lattice
    with pytest.raises(ValueError):
      smooth_cells(a2_4, "no-such-variant", _cw(a2_4, (2,)))
