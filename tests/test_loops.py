import collections
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loop_element_fixture as oracle
from linalg_fixture import independent
from twistedlie import cli, linalg, loops
from twistedlie.linalg import GaussianRational, SparseVector, i_power, rank
from twistedlie.loops import (_all_basis_keys, _fixed_dimensions,
                              _independence_break, bracket, cartan_vector,
                              degrees, eta_apply, eta_bracket_check,
                              eta_c_apply, eta_k_apply, expected_eta_image,
                              fixed_degree_dimension, hyperspecial_basis,
                              is_sigma_fixed, is_tau_fixed, root_vector,
                              sigma_apply, tau_apply, verify_hyperspecial)


def _elt(bkey, deg, coeff=1):
  return SparseVector({(bkey, deg): coeff})


def _old(x):
  """A loop element as the oracle's LoopElement."""
  return oracle.LoopElement(dict(x.items()))


def _same(x, old):
  """The SparseVector ``x`` equals the oracle's LoopElement ``old``."""
  return dict(x.items()) == old.terms


class TestLoopElement:

  def test_arithmetic(self):
    a = _elt(("E", 1, 2), 0)
    b = _elt(("E", 1, 2), 0, 2)
    assert (a + a) == b
    assert not (a - a)
    assert (-a) + a == SparseVector({})
    assert a.scale(GaussianRational(0, 1)) == _elt(("E", 1, 2), 0, i_power(1))

  def test_degrees_and_sparse(self):
    x = _elt(("E", 1, 2), 0) + _elt(("h", 1), 3)
    assert degrees(x) == [0, 3]
    assert x.support() == {(("E", 1, 2), 0), (("h", 1), 3)}

  def test_root_and_cartan_vectors(self):
    assert root_vector(1, 1, 2) == ("E", 1, 3)
    assert root_vector(-1, 1, 2) == ("E", 3, 1)
    assert cartan_vector(2) == ("h", 2)

  def test_coefficients_stay_int_until_a_twist_phase(self):
    for _, _, elt in hyperspecial_basis(2, 6):
      for x in (elt, tau_apply(2, elt), eta_apply(2, elt),
                bracket(elt, eta_c_apply(elt))):
        assert all(type(c) is int for _, c in x.items())
      img = sigma_apply(2, elt)
      assert all(isinstance(c, GaussianRational) for _, c in img.items())


class TestBracket:

  def test_sl3_chevalley(self):
    e1 = _elt(("E", 1, 2), 0)
    f1 = _elt(("E", 2, 1), 0)
    h1 = _elt(("h", 1), 0)
    assert bracket(e1, f1) == h1
    assert bracket(h1, e1) == e1.scale(2)

  def test_antisymmetry(self):
    x = _elt(("E", 1, 3), 1) + _elt(("h", 2), 0)
    y = _elt(("E", 3, 2), 2)
    assert bracket(x, y) == -bracket(y, x)

  def test_jacobi(self):
    x = _elt(("E", 1, 2), 0)
    y = _elt(("E", 2, 3), 1)
    z = _elt(("E", 3, 1), 2)
    total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
             + bracket(z, bracket(x, y)))
    assert not total

  def test_loop_degrees_add(self):
    x = _elt(("E", 1, 2), 2)
    y = _elt(("E", 2, 1), 3)
    out = bracket(x, y)
    assert degrees(out) == [5]


class TestAutomorphisms:

  def test_tau_involution(self):
    x = _elt(("E", 1, 2), 1) + _elt(("h", 1), 2, 3)
    assert tau_apply(1, tau_apply(1, x)) == x

  def test_sigma_on_simple_root_vectors(self):
    # the order-four twist sends the first simple root vector to i times
    # the second in rank two
    e1 = _elt(("E", 1, 2), 0)
    e2 = _elt(("E", 2, 3), 0)
    assert sigma_apply(1, e1) == e2.scale(i_power(1))

  def test_sigma_fixes_lowest_root_vector(self):
    f_theta = _elt(("E", 3, 1), 0)
    assert is_sigma_fixed(1, f_theta)

  def test_sigma_order_exactly_four(self):
    x = _elt(("E", 1, 2), 0)
    powers = [x]
    for _ in range(4):
      powers.append(sigma_apply(1, powers[-1]))
    assert powers[4] == x
    assert powers[2] != x  # order is exactly four, not two

  def test_sigma_respects_bracket(self):
    x = _elt(("E", 1, 2), 1)
    y = _elt(("E", 2, 1), 2)
    lhs = sigma_apply(1, bracket(x, y))
    rhs = bracket(sigma_apply(1, x), sigma_apply(1, y))
    assert lhs == rhs

  def test_eta_c_is_cartan_involution(self):
    e1 = _elt(("E", 1, 2), 0)
    assert eta_c_apply(e1) == _elt(("E", 2, 1), 0, -1)
    h = _elt(("h", 1), 2)
    assert eta_c_apply(h) == h.scale(-1)
    assert eta_c_apply(eta_c_apply(e1)) == e1

  def test_eta_k_requires_tau_fixed(self):
    with pytest.raises(ValueError):
      eta_k_apply(1, _elt(("E", 1, 2), 0))

  def test_eta_k_degree_shift(self):
    # h_1 - h_2 in degree one is tau-fixed (tau swaps the coroots and
    # flips odd powers) with ad-h eigenvalue zero: degrees double
    x = _elt(("h", 1), 1) - _elt(("h", 2), 1)
    assert degrees(eta_k_apply(1, x)) == [2]


class TestEtaImages:

  def test_rank_one_long_root_family(self):
    # the tau-fixed vectors on the longest root line map onto the opposite
    # line in degree zero with a minus sign
    plus = _elt(("E", 1, 3), 1)
    minus = _elt(("E", 3, 1), -1)
    assert eta_apply(1, plus) == _elt(("E", 3, 1), 0, -1)
    assert eta_apply(1, minus) == _elt(("E", 1, 3), 0, -1)

  def test_images_match_closed_forms(self):
    for ell in (1, 2):
      for family, desc, elt in hyperspecial_basis(ell, 4):
        assert eta_apply(ell, elt) == expected_eta_image(ell, family, desc)

  def test_images_sigma_fixed_inputs_tau_fixed(self):
    for family, desc, elt in hyperspecial_basis(2, 4):
      assert is_tau_fixed(2, elt)
      img = eta_apply(2, elt)
      assert is_sigma_fixed(2, img)
      assert all(deg >= 0 for deg in degrees(img))


class TestVerification:

  def test_fixed_degree_dimensions_fill_the_algebra(self):
    for ell in (1, 2):
      total = sum(fixed_degree_dimension(ell, d) for d in range(4))
      assert total == 4 * ell * ell + 4 * ell

  def test_rank_one_report(self):
    report = verify_hyperspecial(1, 6)
    assert report["passed"]
    assert report["basis_size"] == 14
    assert report["mismatches"] == []
    assert report["independent"]

  def test_rank_two_report(self):
    report = verify_hyperspecial(2, 6)
    assert report["passed"]
    assert report["basis_size"] == 44

  def test_bracket_compatibility(self):
    assert eta_bracket_check(1, 6, 50) == []
    assert eta_bracket_check(2, 4, 20) == []

  def test_bound_validation(self):
    with pytest.raises(ValueError):
      hyperspecial_basis(1, 1)

  def test_sizes_beyond_an_index_rejected(self):
    # rejected before a range over them is walked, which would not end
    huge = sys.maxsize + 1
    for call in (lambda: hyperspecial_basis(huge, 4),
                 lambda: hyperspecial_basis(1, huge),
                 lambda: eta_bracket_check(huge, 4, 0),
                 lambda: eta_bracket_check(1, huge, 0),
                 lambda: eta_bracket_check(1, 4, huge)):
      with pytest.raises(ValueError, match="does not fit in an index"):
        call()

  def test_element_not_tau_fixed_is_a_witness(self, monkeypatch):
    # eta is undefined on the injected element: the verifier reports it
    # instead of raising, and the bracket check fails its pairs
    bad = _elt(("E", 1, 2), 0)
    assert not is_tau_fixed(1, bad)
    basis = hyperspecial_basis(1, 4)
    monkeypatch.setattr(loops, "hyperspecial_basis",
                        lambda ell, bound: basis + [("injected", (9,), bad)])
    report = verify_hyperspecial(1, 4)
    assert not report["passed"]
    assert {"family": "injected", "descriptor": (9,),
            "problems": ["not-tau-fixed"]} in report["mismatches"]
    failures = eta_bracket_check(1, 4, 200)
    assert failures and all((9,) in pair for pair in failures)


def _first_dependent(images):
  """The index of the first image that does not raise the rank of those
  before it, by one exact echelon over all the images in order, or None."""
  raised = independent(images)
  return next((n for n, b in enumerate(raised) if n != b),
              None if len(raised) == len(images) else len(raised))


def _images(ell, bound):
  return [eta_apply(ell, x) for _, _, x in hyperspecial_basis(ell, bound)]


def _bracket_failures_uncached(ell, bound, trials):
  """eta_bracket_check as it stood with every eta-image rebuilt per draw."""
  rng = random.Random(0)
  pool = [(desc, x, is_tau_fixed(ell, x))
          for _, desc, x in loops.hyperspecial_basis(ell, bound)]
  failures = []
  for _ in range(trials):
    da, a, a_fixed = rng.choice(pool)
    db, b, b_fixed = rng.choice(pool)
    if not (a_fixed and b_fixed):
      failures.append((da, db))
      continue
    lhs = eta_apply(ell, bracket(a, b))
    rhs = bracket(eta_apply(ell, a), eta_apply(ell, b))
    if lhs != rhs:
      failures.append((da, db))
  return failures


class TestCycleDimensions:
  """The sigma-fixed dimensions from the cycles of sigma on the basis keys,
  against the Gaussian rank of fixed_degree_dimension."""

  @pytest.mark.parametrize("ell", range(1, 11))
  def test_equal_fixed_degree_dimension(self, ell):
    assert _fixed_dimensions(ell) == [fixed_degree_dimension(ell, d)
                                      for d in range(4)]

  def test_fill_the_algebra(self):
    for ell in range(1, 41):
      assert sum(_fixed_dimensions(ell)) == 4 * ell * ell + 4 * ell


class TestBlockRank:
  """Independence of the eta-images by one ``_append_row`` echelon in
  basis order, against one rank of all the images and the oracle echelon
  in basis order."""

  @staticmethod
  def _agree(images):
    brk = _independence_break(images)
    assert (brk is None) == (rank(images) == len(images))
    assert brk == _first_dependent(images)
    return brk

  @pytest.mark.parametrize("ell", (1, 2, 3, 4))
  def test_real_images_independent(self, ell):
    assert self._agree(_images(ell, 8)) is None

  @pytest.mark.parametrize("ell", (1, 2, 3))
  def test_injected_duplicate(self, ell):
    images = _images(ell, 6)
    assert self._agree(images + [images[3]]) == len(images)
    # a copy placed first makes the original the dependent one
    assert self._agree([images[-1]] + images) == len(images)
    assert self._agree(images[:5] + [images[1]] + images[5:]
                       + [images[0]]) == 5

  @pytest.mark.parametrize("ell", (1, 2, 3))
  def test_injected_mixed_degree_image(self, ell):
    # dependent only across degrees 0 and 2: each block alone is
    # independent, their union is not
    images = _images(ell, 6)
    low = next(img for img in images if degrees(img) == [0])
    high = next(img for img in images if degrees(img) == [2])
    mixed = low + high.scale(-3)
    assert degrees(mixed) == [0, 2]
    assert self._agree(images + [mixed]) == len(images)
    assert self._agree([mixed] + images) == images.index(high) + 1
    assert self._agree([mixed, low]) is None

  def test_zero_image(self):
    images = _images(1, 4)
    assert self._agree(images + [SparseVector({})]) == len(images)


_GAINS = {
    "int": (1, -1, 2, -2, 3),
    "fraction": (Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3),
                 Fraction(-3, 2)),
}
_GAINS["mixed"] = _GAINS["int"] + _GAINS["fraction"]


@st.composite
def _key_vectors(draw, max_width):
  """1-9 vectors on the keys 0..4 with int, Fraction or mixed coefficients
  and at most ``max_width`` keys each.  A vector is fresh, or, half of the
  time, a combination of two earlier ones that cancels a key they share,
  which closes a balanced cycle: so that many sets are dependent."""
  scalars = _GAINS[draw(st.sampled_from(sorted(_GAINS)))]
  vectors = []
  for _ in range(draw(st.integers(1, 9))):
    if len(vectors) > 1 and draw(st.booleans()):
      i, j = draw(st.lists(st.sampled_from(range(len(vectors))),
                           min_size=2, max_size=2, unique=True))
      u, w = vectors[i], vectors[j]
      shared = sorted(u.keys() & w.keys())
      if shared:
        k = draw(st.sampled_from(shared))
        v = u.scale(w.get(k)) - w.scale(u.get(k))
        if len(v) <= max_width:
          vectors.append(v)
          continue
    width = draw(st.integers(1, max_width))
    keys = draw(st.lists(st.integers(0, 4), min_size=width, max_size=width,
                         unique=True))
    vectors.append(SparseVector({k: draw(st.sampled_from(scalars))
                                 for k in keys}))
  return vectors


def _counting_append_row(monkeypatch):
  """Record each vector ``loops._append_row`` is given."""
  appended = []
  real = loops._append_row

  def counting(rows, vec, b=None):
    appended.append(vec)
    return real(rows, vec, b)

  monkeypatch.setattr(loops, "_append_row", counting)
  return appended


class TestGainGraph:
  """The first dependent index of ``_independence_break`` against prefix
  ranks of the oracle echelon, on vectors with one or two keys, the edges
  and half-edges of a gain graph, and on wider ones."""

  @settings(max_examples=300, deadline=None)
  @given(_key_vectors(2))
  # two full components joined by an edge: e0, e1, then e0 + e1
  @example([SparseVector({0: 1}), SparseVector({1: 2}),
            SparseVector({0: 1, 1: 1})])
  def test_one_and_two_keys(self, vectors):
    assert _independence_break(vectors) == _first_dependent(vectors)

  @settings(max_examples=200, deadline=None)
  @given(_key_vectors(4))
  def test_wide_images_go_through_the_echelon(self, vectors):
    with pytest.MonkeyPatch.context() as monkeypatch:
      appended = _counting_append_row(monkeypatch)
      brk = _independence_break(vectors)
    assert brk == _first_dependent(vectors)
    wide = next((n for n, v in enumerate(vectors) if len(v) > 2), None)
    if wide is not None and (brk is None or wide < brk):
      assert vectors[wide] in appended

  def test_echelon_meets_a_gain_component(self):
    # a wide image, a path of two edges, an edge joining the two, then
    # v0 - v3 + v1 and 4 e3 + e5 = 4 v1 + 2 v2, each in the earlier span
    vectors = [SparseVector({0: 1, 1: 1, 2: 1}),
               SparseVector({3: 1, 4: -1}),
               SparseVector({4: 2, 5: Fraction(1, 2)}),
               SparseVector({2: 1, 3: 1}),
               SparseVector({0: 1, 1: 1, 4: -1}),
               SparseVector({3: 4, 5: 1})]
    assert _first_dependent(vectors) == 4
    assert _independence_break(vectors) == 4
    assert _independence_break(vectors[:4] + vectors[5:]) == 4
    assert _first_dependent(vectors[:4] + vectors[5:]) == 4


class TestIndependenceWitness:

  def test_no_witness_when_independent(self):
    assert "independence_break" not in verify_hyperspecial(2, 6)

  def test_injected_duplicate(self, monkeypatch):
    basis = hyperspecial_basis(2, 4)
    family, desc, _ = basis[7]
    monkeypatch.setattr(loops, "hyperspecial_basis",
                        lambda ell, bound: basis + [basis[7]])
    report = verify_hyperspecial(2, 4)
    assert not report["passed"]
    assert not report["independent"]
    assert report["mismatches"] == []
    assert report["independence_break"] == {"family": family,
                                            "descriptor": desc}

  def test_injected_duplicate_through_cli(self, monkeypatch, capsys):
    basis = hyperspecial_basis(1, 4)
    family, desc, _ = basis[2]
    monkeypatch.setattr(loops, "hyperspecial_basis",
                        lambda ell, bound: [basis[2]] + basis)
    code = cli.main(["hyperspecial-check", "--ell", "1", "--degree", "4",
                     "--trials", "20"])
    data = json.loads(capsys.readouterr().out)
    assert code == 1
    assert not data["independent"]
    assert data["independence_break"] == {"family": family,
                                          "descriptor": list(desc)}


class TestVerifierCost:

  def test_no_gaussian_rank(self, monkeypatch):
    # the verifier ranks nothing, and the images of a correct eta share no
    # (key, degree) pair, so appending them to the echelon takes no
    # elimination step; an injected duplicate takes exactly one
    ranked = []
    monkeypatch.setattr(loops, "rank", lambda vectors: ranked.append(1))
    steps = []
    add_scaled = linalg._add_scaled

    def counting(acc, c, vec, a=1):
      steps.append(c)
      add_scaled(acc, c, vec, a)

    monkeypatch.setattr(linalg, "_add_scaled", counting)
    assert verify_hyperspecial(2, 6)["passed"]
    assert eta_bracket_check(2, 6, 50) == []
    assert verify_hyperspecial(16, 6)["passed"]
    assert ranked == [] and steps == []
    basis = hyperspecial_basis(2, 6)
    report = verify_hyperspecial(2, 6, basis + [basis[7]])
    assert not report["independent"] and len(steps) == 1
    appended = _counting_append_row(monkeypatch)
    # a tau-fixed element x + y whose image, in degree 10, has four keys is
    # a mismatch, and its int image goes through the echelon; then y,
    # after x, is the dependent one
    x, y = [b for b in hyperspecial_basis(2, 10) if b[0] == 1
            and b[1][3] == 5]
    wide = (x[0], x[1], x[2] + y[2])
    report = verify_hyperspecial(2, 6, basis + [wide])
    assert not report["passed"] and report["independent"]
    assert report["mismatches"] == [{"family": 1, "descriptor": x[1],
                                     "problems": ["image-mismatch"]}]
    assert ranked == []
    assert eta_apply(2, wide[2]) in appended
    assert all(type(c) is int for v in appended for _, c in v.items())
    report = verify_hyperspecial(2, 6, basis + [wide, x, y])
    assert report["independence_break"] == {"family": 1, "descriptor": y[1]}

  def test_each_pool_image_built_once(self, monkeypatch):
    basis = hyperspecial_basis(2, 4)
    pool_ids = {id(x) for _, _, x in basis}
    monkeypatch.setattr(loops, "hyperspecial_basis", lambda ell, bound: basis)
    built = []
    real = loops.eta_c_apply

    def counting(x):
      if id(x) in pool_ids:
        built.append(id(x))
      return real(x)

    monkeypatch.setattr(loops, "eta_c_apply", counting)
    assert eta_bracket_check(2, 4, 300) == []
    assert built and len(built) == len(set(built))
    # an element never drawn gets no image: 3 trials draw at most 6
    built.clear()
    assert eta_bracket_check(2, 4, 3) == []
    assert 0 < len(built) <= 6

  def test_tau_tested_once_per_element(self, monkeypatch):
    # verify_hyperspecial tests each basis element once and builds its
    # image without a second test; the bracket check tests each drawn pool
    # element once, and each bracket inside eta_apply
    basis = hyperspecial_basis(2, 6)
    tested = collections.Counter()
    real = loops.is_tau_fixed

    def counting(ell, x):
      tested[id(x)] += 1
      return real(ell, x)

    monkeypatch.setattr(loops, "is_tau_fixed", counting)
    assert verify_hyperspecial(2, 6, basis)["passed"]
    assert tested == collections.Counter(id(x) for _, _, x in basis)
    tested.clear()
    assert eta_bracket_check(2, 6, 50, basis) == []
    pool = [tested[id(x)] for _, _, x in basis]
    assert set(pool) <= {0, 1} and 1 in pool
    assert sum(tested.values()) - sum(pool) == 50
    # testing x in place of eta_c(x) is sound: eta_c commutes with tau
    for _, _, x in basis + [(None, None, _elt(("E", 1, 2), 0))]:
      assert is_tau_fixed(2, x) == is_tau_fixed(2, eta_c_apply(x))
    x = basis[0][2]
    assert loops._eta_k(2, eta_c_apply(x)) == eta_apply(2, x)

  def test_draws_cover_colliding_descriptors(self):
    # families (1) and (2) share descriptors (sign, i, j, k): an image
    # cache keyed by the descriptor alone hands one family the other's
    # image, and the bracket check then fails
    basis = hyperspecial_basis(3, 6)
    descs = [d for f, d, _ in basis if f in (1, 2)]
    assert len(set(descs)) < len(descs)
    assert eta_bracket_check(3, 6, 400) == []
    assert _bracket_failures_uncached(3, 6, 400) == []

  def test_injected_failures_unchanged(self, monkeypatch):
    bad = _elt(("E", 1, 2), 0)
    for ell, bound in ((1, 4), (2, 6)):
      basis = hyperspecial_basis(ell, bound)
      monkeypatch.setattr(
          loops, "hyperspecial_basis",
          lambda ell, bound, basis=basis: basis + [("injected", (9,), bad)])
      failures = eta_bracket_check(ell, bound, 200)
      assert failures == _bracket_failures_uncached(ell, bound, 200)
      assert failures and all((9,) in pair for pair in failures)


# -- the LoopElement model as the oracle --------------------------------------

ELLS = (1, 2, 3, 4)
UNITS = (1, -1, i_power(1), -i_power(1))


def _keys_and_degrees(ell):
  return [(bkey, deg) for bkey in _all_basis_keys(ell)
          for deg in range(-3, 4)]


class TestAgainstLoopElementModel:

  @pytest.mark.parametrize("ell", ELLS)
  def test_basis_and_closed_forms(self, ell):
    new = hyperspecial_basis(ell, 8)
    old = oracle.hyperspecial_basis(ell, 8)
    assert [(f, d) for f, d, _ in new] == [(f, d) for f, d, _ in old]
    for (family, desc, x), (_, _, y) in zip(new, old):
      assert _same(x, y)
      assert _same(expected_eta_image(ell, family, desc),
                   oracle.expected_eta_image(ell, family, desc))

  @pytest.mark.parametrize("ell", ELLS)
  def test_maps_on_basis_elements(self, ell):
    for _, _, x in hyperspecial_basis(ell, 8):
      old = _old(x)
      assert _same(tau_apply(ell, x), oracle.tau_apply(ell, old))
      assert _same(sigma_apply(ell, x), oracle.sigma_apply(ell, old))
      assert _same(eta_c_apply(x), oracle.eta_c_apply(old))
      assert _same(eta_k_apply(ell, x), oracle.eta_k_apply(ell, old))
      assert _same(eta_apply(ell, x), oracle.eta_apply(ell, old))

  @pytest.mark.parametrize("ell", ELLS)
  def test_maps_on_every_key(self, ell):
    for key in _keys_and_degrees(ell):
      x = SparseVector.unit(key)
      old = _old(x)
      assert _same(tau_apply(ell, x), oracle.tau_apply(ell, old))
      assert _same(sigma_apply(ell, x), oracle.sigma_apply(ell, old))
      assert _same(eta_c_apply(x), oracle.eta_c_apply(old))
      fixed = x + tau_apply(ell, x)
      assert _same(eta_k_apply(ell, fixed),
                   oracle.eta_k_apply(ell, _old(fixed)))

  @pytest.mark.parametrize("ell", ELLS)
  def test_bracket_on_random_pairs(self, ell):
    rng = random.Random(ell)
    elements = [x for _, _, x in hyperspecial_basis(ell, 8)]
    # Gaussian coefficients too: sigma-images of basis elements
    elements += [sigma_apply(ell, x) for x in elements[::3]]
    for _ in range(150):
      x, y = rng.choice(elements), rng.choice(elements)
      assert _same(bracket(x, y), oracle.bracket(_old(x), _old(y)))
      s = x + y.scale(rng.choice(UNITS))
      assert _same(bracket(s, y), oracle.bracket(_old(s), _old(y)))

  @pytest.mark.parametrize("ell", ELLS)
  def test_fixed_degree_dimension(self, ell):
    for degree in range(8):
      assert (fixed_degree_dimension(ell, degree)
              == oracle.fixed_degree_dimension(ell, degree))

  @pytest.mark.parametrize("ell", ELLS)
  def test_fixed_degree_dimension_depends_on_degree_mod_4(self, ell):
    for degree in range(12):
      assert (fixed_degree_dimension(ell, degree)
              == fixed_degree_dimension(ell, degree % 4))

  @pytest.mark.parametrize("ell", ELLS)
  @pytest.mark.parametrize("bound", (4, 6, 8))
  def test_verify_hyperspecial(self, ell, bound):
    report = verify_hyperspecial(ell, bound)
    assert report == oracle.verify_hyperspecial(ell, bound)
    assert report["passed"]


def _norm(c):
  return c.norm() if isinstance(c, GaussianRational) else c * c


class TestMapsInjective:
  """Each map sends distinct keys to distinct keys and multiplies each
  coefficient by a unit, so its image dict needs no accumulation and no
  zero filter."""

  @staticmethod
  def _image_keys(apply, vectors):
    keys = []
    for x in vectors:
      img = apply(x)
      assert len(img) == len(x)
      assert (sorted(_norm(c) for _, c in img.items())
              == sorted(_norm(c) for _, c in x.items()))
      keys.extend(img.keys())
    assert len(set(keys)) == len(keys)
    return keys

  @pytest.mark.parametrize("ell", ELLS)
  def test_injective_on_keys_and_degrees(self, ell):
    units = [SparseVector.unit(key) for key in _keys_and_degrees(ell)]
    for apply in (lambda x: tau_apply(ell, x), lambda x: sigma_apply(ell, x),
                  eta_c_apply):
      assert len(self._image_keys(apply, units)) == len(units)
    # eta_k needs tau-fixed inputs: the tau-orbit sums, which cover every
    # key that occurs in a tau-fixed element
    orbits = {}
    for x in units:
      fixed = x + tau_apply(ell, x)
      if fixed:
        orbits[fixed.support()] = fixed
    image = self._image_keys(lambda x: eta_k_apply(ell, x), orbits.values())
    assert len(image) == len(set().union(*orbits))


# -- the key-level bracket and the phase checks, property-based ---------------

_INTS = st.integers(-4, 4)
_FRACTIONS = st.builds(Fraction, _INTS, st.integers(1, 3))
_SCALARS = {
    "int": _INTS.filter(bool),
    "fraction": _FRACTIONS.filter(bool),
    "gaussian": st.builds(GaussianRational, _FRACTIONS,
                          _FRACTIONS).filter(bool),
}


# the coefficient kinds of one element: a single kind, or each term its own
_KIND_MIXES = (("int",), ("fraction",), ("gaussian",),
               ("int", "fraction", "gaussian"))


@st.composite
def _loop_elements(draw, ell, kinds, max_terms=6, even_phase=False):
  """A loop element of sl_{2l+1} over keys in degrees -3..3.  With
  ``even_phase``, every term's sigma phase exponent ad h(k) - d is even."""
  terms = {}
  for _ in range(draw(st.integers(0, max_terms))):
    bkey = draw(st.sampled_from(_all_basis_keys(ell)))
    deg = draw(st.integers(-3, 3))
    if even_phase:
      deg += (oracle._adh_eigenvalue(ell, bkey) - deg) % 2
    terms[bkey, deg] = draw(_SCALARS[draw(st.sampled_from(kinds))])
  return SparseVector(terms)


def _sigma_orbit_sum(ell, x):
  """x + sigma(x) + sigma^2(x) + sigma^3(x), which sigma fixes, with each
  real Gaussian coefficient written as a Fraction."""
  total, cur = x, x
  for _ in range(3):
    cur = sigma_apply(ell, cur)
    total = total + cur
  return SparseVector({key: c.re if isinstance(c, GaussianRational)
                       and not c.im else c for key, c in total.items()})


class TestKeyLevelAgainstMatrixModel:
  """The bracket from the structure constants of the basis keys against the
  matrix-model bracket of loop_element_fixture, and the per-term tau and
  sigma checks against comparing each image with the element."""

  @settings(max_examples=200, deadline=None)
  @given(data=st.data())
  def test_bracket(self, data):
    ell = data.draw(st.integers(1, 5))
    kinds = data.draw(st.sampled_from(_KIND_MIXES))
    x = data.draw(_loop_elements(ell, kinds))
    y = data.draw(_loop_elements(ell, kinds))
    # eta_c transposes every key of x, so [x, y + eta_c(x)] meets the
    # diagonal of [E_ab, E_ba] on every E-term of x
    for u, v in ((x, y), (y, x), (x, y + eta_c_apply(x))):
      out = bracket(u, v)
      assert _same(out, oracle.bracket(_old(u), _old(v)))
      if kinds == ("int",):
        assert all(type(c) is int for _, c in out.items())

  @settings(max_examples=200, deadline=None)
  @given(data=st.data())
  def test_sigma_fixed(self, data):
    ell = data.draw(st.integers(1, 5))
    x = data.draw(_loop_elements(ell, data.draw(st.sampled_from(_KIND_MIXES))))
    even = data.draw(_loop_elements(ell, ("int", "fraction"),
                                    even_phase=True))
    orbit = _sigma_orbit_sum(ell, x)
    fixed = _sigma_orbit_sum(ell, even)
    # sigma multiplies an even-phase term by a sign: its orbit stays rational
    assert not any(isinstance(c, GaussianRational) for _, c in fixed.items())
    poke = data.draw(_loop_elements(ell, ("int",), max_terms=1))
    for z in (x, even, orbit, fixed, fixed + poke):
      old = _old(z)
      assert is_sigma_fixed(ell, z) == (oracle.sigma_apply(ell, old) == old)
    assert is_sigma_fixed(ell, orbit)
    assert is_sigma_fixed(ell, fixed)

  @settings(max_examples=200, deadline=None)
  @given(data=st.data())
  def test_tau_fixed(self, data):
    ell = data.draw(st.integers(1, 5))
    kinds = data.draw(st.sampled_from(_KIND_MIXES))
    x = data.draw(_loop_elements(ell, kinds))
    fixed = x + tau_apply(ell, x)
    poke = data.draw(_loop_elements(ell, kinds, max_terms=1))
    for z in (x, fixed, fixed + poke):
      old = _old(z)
      expected = oracle.tau_apply(ell, old) == old
      assert is_tau_fixed(ell, z) == expected
      if expected:
        assert _same(eta_k_apply(ell, z), oracle.eta_k_apply(ell, old))
      else:
        with pytest.raises(ValueError):
          eta_k_apply(ell, z)
    assert is_tau_fixed(ell, fixed)
