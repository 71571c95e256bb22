import random

import pytest

import loop_element_fixture as oracle
from twistedlie.linalg import GaussianRational, I_UNIT, SparseVector
from twistedlie.loops import (_all_basis_keys, bracket, cartan_vector,
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
    assert a.scale(GaussianRational(0, 1)) == _elt(("E", 1, 2), 0, I_UNIT)

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
    assert sigma_apply(1, e1) == e2.scale(I_UNIT)

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


# -- the LoopElement model as the oracle --------------------------------------

ELLS = (1, 2, 3, 4)
UNITS = (1, -1, I_UNIT, -I_UNIT)


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
