from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from operator import add, mul, sub

import pytest

from linalg_fixture import inverse

from twistedlie import cells
from twistedlie.cells import (VARIANT_ABS_SPECIAL, VARIANT_SPECIAL,
                              _closed_form_cover, covers,
                              dominants_below, is_cover,
                              is_cover_brute, is_cover_fast, leq,
                              smooth_cells)
from twistedlie.folding import CoinvariantWeight, Folding
from twistedlie.rootsystem import RootSystem, cartan_matrix, symmetrizer


def _cw(datum, coords):
  return CoinvariantWeight(datum.weight_ctype, tuple(coords))


def _minus(lam, mu):
  """The class lam - mu."""
  return CoinvariantWeight(lam.htype, tuple(map(sub, lam.coords, mu.coords)))


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
      y = _seed_gamma_coords(a4_4, a4_4.gamma(j))
      assert y == tuple(int(k == j - 1) for k in range(a4_4.ell))

  def test_leq_rejects_non_integral_offset(self, a2_4):
    # (4) - (1) is 3/2 gamma_1: comparable over Q but not in the order
    assert _seed_gamma_coords(a2_4, _cw(a2_4, (3,))) == (Fraction(3, 2),)
    assert not leq(a2_4, _cw(a2_4, (1,)), _cw(a2_4, (4,)))
    assert leq(a2_4, _cw(a2_4, (0,)), _cw(a2_4, (4,)))

  @pytest.mark.parametrize("mu, lam", [((0,), (2, 0)), ((2, 0), (0,)),
                                       ((0, 0, 1), (2, 0))])
  def test_leq_rejects_wrong_length(self, a4_4, mu, lam):
    # coordinate tuples, as the CLI and a user pass them: H is B2
    with pytest.raises(ValueError, match="coordinates, expected 2"):
      leq(a4_4, mu, lam)


class TestDominantsBelow:

  def test_a2_4_chain(self, a2_4):
    got = [mu.coords for mu in dominants_below(a2_4, _cw(a2_4, (4,)))]
    assert got == [(4,), (2,), (0,)]

  def test_bfs_equals_direct(self, a4_4, a6_4):
    for datum, lam in ((a4_4, (2, 2)), (a4_4, (0, 4)), (a6_4, (1, 1, 2))):
      lam = _cw(datum, lam)
      assert dominants_below(datum, lam) == _seed_dominants_below(
          datum, lam)

  def test_off_lattice_class_has_nothing_below(self, a2_4, a4_4):
    # the lattice condition is kept under gamma subtraction, so a class
    # outside the lattice (odd short coordinate, or not integral) has no
    # lattice class below it (the seed's search finds none); the
    # enumerator rejects it, as smooth_cells does
    for datum, lam in ((a2_4, _cw(a2_4, (3,))), (a4_4, _cw(a4_4, (2, 3))),
                       (a4_4, a4_4.project((Fraction(1, 2), 1, 1, 1)))):
      assert _seed_dominants_below(datum, lam) == []
      with pytest.raises(ValueError,
                         match="lam must lie in the coinvariant lattice"):
        dominants_below(datum, lam)
      with pytest.raises(ValueError,
                         match="lam must lie in the coinvariant lattice"):
        smooth_cells(datum, None, lam)

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


# -- the seed's Fraction order, BFS enumerator and cover tests, as oracles ---

@lru_cache(maxsize=None)
def _seed_cartan_inv(ctype):
  return inverse(cartan_matrix(ctype))


def _seed_gamma_coords(datum, cw):
  inv = _seed_cartan_inv(datum.weight_ctype)
  ell = datum.ell
  return tuple(sum(inv[i][j] * Fraction(cw.coords[j]) for j in range(ell))
               for i in range(ell))


def _seed_leq(datum, mu, lam):
  y = _seed_gamma_coords(datum, _minus(lam, mu))
  return all(Fraction(c).denominator == 1 and c >= 0 for c in y)


def _seed_dominants_below(datum, lam):
  """Breadth-first gamma subtraction over the box under lam."""
  bounds = [int(c) for c in _seed_gamma_coords(datum, lam)]
  ell = datum.ell
  gammas = [datum.gamma(j) for j in range(1, ell + 1)]
  seen = {(0,) * ell}
  frontier = [(0,) * ell]
  found = []
  while frontier:
    nxt = []
    for y in frontier:
      mu = lam
      for j in range(ell):
        for _ in range(y[j]):
          mu = _minus(mu, gammas[j])
      if mu.is_dominant() and datum.in_coinvariant_lattice(mu):
        found.append(mu)
      for j in range(ell):
        if y[j] < bounds[j]:
          y2 = y[:j] + (y[j] + 1,) + y[j + 1:]
          if y2 not in seen:
            seen.add(y2)
            nxt.append(y2)
    frontier = nxt
  found.sort(key=lambda c: c.coords, reverse=True)
  return found


def _seed_is_cover_brute(datum, mu, lam):
  if mu == lam or not _seed_leq(datum, mu, lam):
    return False
  for nu in _seed_dominants_below(datum, lam):
    if nu != mu and nu != lam and _seed_leq(datum, mu, nu):
      return False
  return True


def _seed_tail_interval(y, ell):
  support = [j + 1 for j in range(ell) if y[j]]
  if not support or any(y[j] != 1 for j in range(ell) if y[j]):
    return None
  i = support[0]
  if support != list(range(i, ell + 1)):
    return None
  return i


def _seed_interval(y, ell):
  support = [j + 1 for j in range(ell) if y[j]]
  if not support or any(y[j] != 1 for j in range(ell) if y[j]):
    return None
  i, k = support[0], support[-1]
  if support != list(range(i, k + 1)):
    return None
  return i, k


def _seed_is_cover_fast(datum, mu, lam):
  if mu == lam or not _seed_leq(datum, mu, lam):
    return False
  ell = datum.ell
  y = tuple(int(c) for c in _seed_gamma_coords(datum, _minus(lam, mu)))
  c = y[ell - 1]
  if c >= 2:
    return False
  if c == 1:
    i = _seed_tail_interval(y, ell)
    if i is None:
      return False
    if i == ell:
      return True
    return all(mu.coords[t - 1] == 0 for t in range(i, ell + 1))
  iv = _seed_interval(y, ell)
  if iv is None:
    return False
  i, k = iv
  if i == k:
    return True
  return all(mu.coords[t - 1] == 0 for t in range(i, k + 1))


def _seed_covers(datum, below):
  """The CLI's n^2 loop over the seed's is_cover, as index pairs."""
  test = _seed_is_cover_fast if datum.is_ramified else _seed_is_cover_brute
  return [(a, b) for a, mu in enumerate(below)
          for b, nu in enumerate(below) if test(datum, mu, nu)]


_FOLDINGS = (("A", 2, 4), ("A", 4, 4), ("A", 6, 4), ("A", 3, 2), ("A", 5, 2),
             ("D", 4, 2), ("D", 5, 2), ("D", 4, 3), ("E", 6, 2))

# every base fundamental coweight on every folding, the README inputs, and
# a few larger closures that the seed oracle still checks quickly
_DIFFERENTIAL = tuple(
    (family, rank, order, tuple(int(k == i) for k in range(rank)))
    for family, rank, order in _FOLDINGS for i in range(rank)) + (
        ("A", 2, 4, (2, 0)), ("A", 4, 4, (1, 1, 1, 1)),
        ("A", 6, 4, (1, 1, 1, 1, 1, 1)), ("D", 4, 2, (1, 1, 1, 1)),
        ("D", 4, 3, (1, 1, 1, 1)), ("E", 6, 2, (1, 0, 0, 0, 0, 1)))


@lru_cache(maxsize=None)
def _folding(family, rank, order):
  return Folding(family, rank, order)


@pytest.mark.parametrize("family,rank,order,coweight", _DIFFERENTIAL,
                         ids=["%s%d/m%d %s" % (f, n, m, ",".join(map(str, c)))
                              for f, n, m, c in _DIFFERENTIAL])
def test_enumerator_and_cover_pass_match_seed(family, rank, order, coweight):
  datum = _folding(family, rank, order)
  lam = datum.project(coweight)
  below = dominants_below(datum, lam)
  assert below == _seed_dominants_below(datum, lam)
  assert covers(datum, below) == _seed_covers(datum, below)
  for mu in below:
    for nu in below:
      assert leq(datum, mu, nu) == _seed_leq(datum, mu, nu)



@pytest.mark.parametrize("family,rank,order", _FOLDINGS,
                         ids=["%s%d/m%d" % key for key in _FOLDINGS])
def test_gammas_are_the_simple_roots_of_h(family, rank, order):
  # dominants_below searches the root system of H, so gamma_j must be the
  # j-th simple root of H: column j of its Cartan matrix
  datum = _folding(family, rank, order)
  cartan = cartan_matrix(datum.weight_ctype)
  for j in range(1, datum.ell + 1):
    assert datum.gamma(j).coords == tuple(row[j - 1] for row in cartan)


@pytest.mark.parametrize("family,rank,order,count", (
    ("D", 6, 2, 1998), ("A", 8, 4, 3495)))
def test_large_closure_sizes(family, rank, order, count):
  # both the box walk and the root search list this many classes below the
  # base coweight (2, ..., 2)
  datum = _folding(family, rank, order)
  assert len(dominants_below(datum, datum.project((2,) * rank))) == count


# -- the pairwise cover pass, as an oracle -----------------------------------

@lru_cache(maxsize=None)
def _integer_cartan_inv(ctype):
  """The seed's inverse Cartan matrix as integer rows over one common
  denominator."""
  inv = _seed_cartan_inv(ctype)
  den = lcm(*(c.denominator for row in inv for c in row))
  return [[int(c * den) for c in row] for row in inv], den


def _pairwise_covers(datum, below):
  """The cover pass that computes a gamma offset for every ordered pair of
  classes: the closed form on the ramified family, otherwise b covers a
  when a < b and no class of ``below`` lies strictly between them."""
  ramified = datum.is_ramified
  rows, den = _integer_cartan_inv(datum.weight_ctype)
  scaled = [[sum(map(mul, row, cw.coords)) for row in rows] for cw in below]
  n = len(below)
  pairs = []
  up = [0] * n    # bit b of up[a]: below[a] < below[b]
  down = [0] * n  # bit a of down[b]: below[a] < below[b]
  for a in range(n):
    for b in range(n):
      qr = [divmod(h - l, den) for l, h in zip(scaled[a], scaled[b])]
      y = tuple(q for q, _ in qr)
      if any(r for _, r in qr) or min(y) < 0 or not any(y):
        continue
      if ramified:
        if _closed_form_cover(y, below[a].coords):
          pairs.append((a, b))
      else:
        up[a] |= 1 << b
        down[b] |= 1 << a
  if ramified:
    return pairs
  return [(a, b) for a in range(n) for b in range(n)
          if up[a] >> b & 1 and not up[a] & down[b]]


def _grid(datum):
  """Every lattice class with coordinates in {0, 1, 2} (ell <= 3) or in
  {0, 1} (ell = 4), with the classes below it."""
  values = (0, 1, 2) if datum.ell <= 3 else (0, 1)
  for coords in product(values, repeat=datum.ell):
    lam = _cw(datum, coords)
    if datum.in_coinvariant_lattice(lam):
      yield lam, dominants_below(datum, lam)


@pytest.mark.parametrize("family,rank,order", _FOLDINGS,
                         ids=["%s%d/m%d" % key for key in _FOLDINGS])
def test_cover_pass_matches_pairwise_oracle(family, rank, order):
  datum = _folding(family, rank, order)
  for lam, below in _grid(datum):
    assert covers(datum, below) == _pairwise_covers(datum, below), lam


@pytest.mark.parametrize("family,rank,order", _FOLDINGS,
                         ids=["%s%d/m%d" % key for key in _FOLDINGS])
def test_every_cover_is_a_positive_root_step(family, rank, order):
  # Stembridge's theorem on the unramified family, the interval steps of
  # the closed form on the ramified family: the candidates of ``covers``
  datum = _folding(family, rank, order)
  roots = set(RootSystem(datum.weight_ctype).positive_roots)
  found = 0
  for lam, below in _grid(datum):
    for a, b in _pairwise_covers(datum, below):
      assert (_seed_gamma_coords(datum, _minus(below[b], below[a]))
              in roots), (lam, a, b)
      found += 1
  assert found


def _closed_form_covers(datum, below):
  """The pairs that the paper's closed form accepts among the interval
  steps gamma_i + ... + gamma_k above each class of ``below``, the only
  steps it accepts, in row-major order."""
  index = {cw.coords: a for a, cw in enumerate(below)}
  ell = datum.ell
  gammas = [datum.gamma(k).coords for k in range(1, ell + 1)]
  pairs = []
  for a, mu in enumerate(below):
    for i in range(ell):
      nu = mu.coords
      for k in range(i, ell):
        nu = tuple(map(add, nu, gammas[k]))
        y = tuple(int(i <= t <= k) for t in range(ell))
        b = index.get(nu)
        if b is not None and _closed_form_cover(y, mu.coords):
          pairs.append((a, b))
  return sorted(pairs)


def _ramified_inputs(rank, top):
  """The lattice classes with coordinates in 0..top on A_rank/m4, with the
  classes below each."""
  datum = _folding("A", rank, 4)
  for coords in product(range(top + 1), repeat=datum.ell):
    lam = _cw(datum, coords)
    if datum.in_coinvariant_lattice(lam):
      yield datum, lam, dominants_below(datum, lam)


def test_ramified_covers_come_from_the_closed_form():
  # the positive-root rule of ``covers`` against the paper's closed form:
  # on every pair by the pairwise oracle where that is quick (96 inputs),
  # on the interval steps on A8 with coordinates up to 3 (128 inputs)
  checked = 0
  for rank, top in ((2, 3), (4, 3), (6, 3), (8, 2)):
    for datum, lam, below in _ramified_inputs(rank, top):
      assert covers(datum, below) == _pairwise_covers(datum, below), lam
      checked += 1
  assert checked == 96
  checked = 0
  for datum, lam, below in _ramified_inputs(8, 3):
    assert covers(datum, below) == _closed_form_covers(datum, below), lam
    checked += 1
  assert checked == 128


def _root_data(ctype):
  """(root norm, coroot pairing) of a type from its Cartan matrix and
  symmetrizer alone: (x, y) = sum_j x_j d_j y_j for x in simple-root and y
  in fundamental-weight coordinates, and <wt, betacheck> = 2 (wt, beta) /
  (beta, beta)."""
  cartan, d = cartan_matrix(ctype), symmetrizer(ctype)

  def form(root, wt):
    return sum(map(mul, root, map(mul, d, wt)))

  def norm(root):
    return form(root, tuple(sum(map(mul, row, root)) for row in cartan))

  def pairing(wt, root):
    return Fraction(2 * form(root, wt), norm(root))
  return norm, pairing


def test_smooth_locus_matches_root_data_rule():
  # the special variant against a rule stated in the root data of H alone:
  # mu is smooth iff mu = lam, or lam - mu is a short positive root beta
  # with <mu, beta^vee> = 0
  checked = cells_seen = smooth = 0
  for rank, top in ((2, 9), (4, 5), (6, 3), (8, 2), (10, 1)):
    system = RootSystem(_folding("A", rank, 4).weight_ctype)
    norm, pairing = _root_data(system.ctype)
    short = min(map(norm, system.positive_roots))
    roots = set(system.positive_roots)
    for datum, lam, below in _ramified_inputs(rank, top):
      report = smooth_cells(datum, VARIANT_SPECIAL, lam)
      assert [v.mu for v in report.cells] == below
      for v in report.cells:
        beta = _seed_gamma_coords(datum, _minus(lam, v.mu))
        expected = v.mu == lam or (
            beta in roots and norm(beta) == short
            and pairing(v.mu.coords, beta) == 0)
        assert v.smooth == expected, (lam, v)
        smooth += v.smooth
      cells_seen += len(report.cells)
      checked += 1
  assert (checked, cells_seen, smooth) == (125, 3543, 209)
