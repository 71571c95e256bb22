import collections
import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linalg_fixture import relations
from subrep_fixture import subrepresentation as oracle_subrepresentation
from wedge_fixture import antisymmetrise
from twistedlie.crystal import (HighestWeightComponent, MinusculeCrystal,
                                highest_weight_component, tensor_crystal)
from twistedlie import reps as reps_module
from twistedlie.linalg import GaussianRational, SparseVector, ZERO_VECTOR
from twistedlie.reps import (ExteriorPower, OperatorWord,
                             ProductRepresentation, Representation,
                             TableRepresentation, _integer_tables, _pairs,
                             exp_nilpotent, highest_weight_check,
                             minuscule_representation, root_lowering_operator,
                             root_poset_path, subrepresentation,
                             verify_representation_detailed, weyl_act)
from twistedlie.rootsystem import build


@pytest.fixture(scope="module")
def a2():
  return build("A", 2)


@pytest.fixture(scope="module")
def a2_v1(a2):
  return minuscule_representation(MinusculeCrystal(a2, 1))


class TestMinusculeModel:

  def test_a2_defining_relations(self, a2, a2_v1):
    ok, witness = verify_representation_detailed(a2_v1, a2.cartan)
    assert ok, witness

  def test_d4_vector_rep(self):
    sys = build("D", 4)
    rep = minuscule_representation(MinusculeCrystal(sys, 1))
    assert len(list(rep.keys())) == 8
    assert verify_representation_detailed(rep, sys.cartan) == (True, None)

  def test_weights_and_h_action(self, a2_v1):
    v = SparseVector.unit(0)
    assert a2_v1.weight(0) == (1, 0)
    assert _apply_h(a2_v1, 1, v) == v
    assert not _apply_h(a2_v1, 2, v)


class TestTensorProduct:

  def test_leibniz_on_pair(self, a2, a2_v1):
    prod = ProductRepresentation([a2_v1, a2_v1])
    v = SparseVector.unit((0, 0))
    img = prod.apply_f(1, v)
    down = a2_v1.apply_f(1, SparseVector.unit(0))
    key_down = next(iter(down.keys()))
    assert img.get((key_down, 0)) == 1
    assert img.get((0, key_down)) == 1
    # a Fraction coefficient is carried through the int 1 of each factor
    img = prod.apply_f(1, v.scale(Fraction(2, 3)))
    assert dict(img.items()) == {(key_down, 0): Fraction(2, 3),
                                 (0, key_down): Fraction(2, 3)}
    assert all(type(c) is Fraction for _, c in img.items())

  def test_tensor_relations(self, a2, a2_v1):
    prod = ProductRepresentation([a2_v1, a2_v1])
    assert verify_representation_detailed(prod, a2.cartan) == (True, None)

  @pytest.mark.parametrize("family,rank,nodes", (
      ("E", 6, (1, 1)), ("E", 7, (7, 7)), ("D", 5, (5, 5, 5)),
      ("A", 4, (2, 2, 2)), ("A", 2, (1, 1, 1)), ("D", 5, (1, 5, 4))))
  def test_keys_match_seed_enumerator(self, family, rank, nodes):
    # the quick benchmark's crystals, A2 V(omega_1)^3 and factors of
    # unequal sizes
    sys = build(family, rank)
    prod = ProductRepresentation(
        [minuscule_representation(MinusculeCrystal(sys, r)) for r in nodes])
    assert list(prod.keys()) == list(_seed_keys(prod))

  def test_nested_product_keys_match_seed_enumerator(self, a2_v1):
    prod = ProductRepresentation(
        [a2_v1, ProductRepresentation([a2_v1, a2_v1])])
    keys = list(prod.keys())
    assert keys == list(_seed_keys(prod))
    assert len(keys) == 27 and keys[1] == (0, (0, 1))

  def test_weight_additive(self, a2_v1):
    prod = ProductRepresentation([a2_v1, a2_v1])
    for key in prod.keys():
      w = prod.weight(key)
      parts = [a2_v1.weight(k) for k in key]
      assert w == tuple(sum(p[t] for p in parts) for t in range(2))


class TestExponentials:

  def test_factorial_denominators(self):
    # nilpotent shift on three keys: N e0 = e1, N e1 = e2
    table = {0: SparseVector.unit(1), 1: SparseVector.unit(2)}
    apply_fn = lambda v: _apply_table(table, v)
    out = exp_nilpotent(apply_fn, SparseVector.unit(0))
    assert out.get(0) == 1
    assert out.get(1) == 1
    assert out.get(2) == Fraction(1, 2)

  def test_sign_argument(self):
    table = {0: SparseVector.unit(1)}
    apply_fn = lambda v: _apply_table(table, v)
    out = exp_nilpotent(apply_fn, SparseVector.unit(0), sign=-1)
    assert out.get(1) == -1

  def test_non_nilpotent_detected(self):
    apply_fn = lambda v: v
    with pytest.raises(ArithmeticError):
      exp_nilpotent(apply_fn, SparseVector.unit(0))

  def test_simple_reflection_squares_to_weight_sign(self, a2_v1):
    # s_i^2 acts on a weight line by (-1)^{<wt, acheck_i>}
    for key in a2_v1.keys():
      v = SparseVector.unit(key)
      out = weyl_act(a2_v1, 1, weyl_act(a2_v1, 1, v))
      expect = v if a2_v1.weight(key)[0] % 2 == 0 else -v
      assert out == expect

  def test_reflection_moves_weight(self, a2, a2_v1):
    v = SparseVector.unit(0)
    out = weyl_act(a2_v1, 1, v)
    key = next(iter(out.keys()))
    assert a2_v1.weight(key) == a2.reflect(1, a2_v1.weight(0))


class TestNodeRange:
  """A node outside 1..rank is a ValueError in apply_e and apply_f, and so
  in weyl_act; it used to give the zero vector, or u unchanged."""

  def test_operators_reject_node_outside_range(self, a2_v1, suite):
    reps = [(a2_v1, 0), (ProductRepresentation([a2_v1, a2_v1]), (0, 1)),
            (ExteriorPower(a2_v1, 2), (0, 1)), (suite.subrep, 0)]
    for rep, key in reps:
      u = SparseVector.unit(key)
      assert any(op(i, u) for i in range(1, rep.rank + 1)
                 for op in (rep.apply_e, rep.apply_f))
      for i in (0, -1, rep.rank + 1):
        for op in (rep.apply_e, rep.apply_f):
          with pytest.raises(ValueError, match="node"):
            op(i, u)
    with pytest.raises(ValueError, match="node"):
      weyl_act(a2_v1, 3, SparseVector.unit(0))


class TestHighestWeightCheck:

  def test_accepts_and_rejects(self, a2_v1):
    assert highest_weight_check(a2_v1, SparseVector.unit(0), (1, 0))
    assert not highest_weight_check(a2_v1, SparseVector.unit(0), (0, 1))
    lowered = a2_v1.apply_f(1, SparseVector.unit(0))
    wt = a2_v1.weight(next(iter(lowered.keys())))
    assert not highest_weight_check(a2_v1, lowered, wt)
    assert not highest_weight_check(a2_v1, SparseVector({}), (1, 0))


class TestSubrepresentation:

  def test_a2_adjoint_inside_tensor(self, a2):
    c1 = MinusculeCrystal(a2, 1)
    c2 = MinusculeCrystal(a2, 2)
    v1 = minuscule_representation(c1)
    v2 = minuscule_representation(c2)
    ambient = ProductRepresentation([v1, v2])
    tcrys = tensor_crystal(c1, c2)
    comp = highest_weight_component(tcrys, (1, 1))
    hw = SparseVector.unit((0, 0))
    rep = subrepresentation(ambient, hw, comp)
    assert len(list(rep.keys())) == 8
    assert verify_representation_detailed(rep, a2.cartan) == (True, None)
    zero_fiber = [k for k in rep.keys() if rep.weight(k) == (0, 0)]
    assert len(zero_fiber) == 2

  def test_each_action_applied_once(self, a2, monkeypatch):
    c1 = MinusculeCrystal(a2, 1)
    ambient = ProductRepresentation([minuscule_representation(c1)] * 3)
    comp = highest_weight_component(tensor_crystal(c1, c1, c1), (3, 0))
    calls = collections.Counter()
    act = ambient._act

    def counted(op, i, vec):
      calls[(op, i, frozenset(vec.items()))] += 1
      return act(op, i, vec)

    built = collections.Counter()
    pivot_inverse = reps_module._pivot_inverse

    def counted_inverse(basis):
      built[ambient.weight(next(iter(basis[0].keys())))] += 1
      return pivot_inverse(basis)

    ambient._act = counted
    monkeypatch.setattr(reps_module, "_pivot_inverse", counted_inverse)
    rep = subrepresentation(ambient, SparseVector.unit((0, 0, 0)), comp)
    assert verify_representation_detailed(rep, a2.cartan) == (True, None)
    # the highest weight check applies each E_i to the hw vector beforehand
    hw = frozenset({(0, 0, 0): 1}.items())
    calls.subtract({("e", i, hw): 1 for i in (1, 2)})
    # one application per (op, i, element): the path vectors are distinct,
    # and the F_i image of each element's canonical parent is the element's
    # own path vector, with its unit coordinates
    assert len(calls) == 2 * 2 * len(comp)
    assert set(calls.values()) == {1}
    for b in range(1, len(comp)):
      parent = comp.e(b, comp.paths[b][0])
      assert rep.table("f", comp.paths[b][0])[parent] == ((b, 1),)
    # every fiber's basis is inverted, and so checked for independence, once
    assert built == collections.Counter(set(comp.weights))
    assert rep._tables == oracle_subrepresentation(
        ambient, SparseVector.unit((0, 0, 0)), comp)._tables

  def test_rejects_non_highest_vector(self, a2):
    c1 = MinusculeCrystal(a2, 1)
    c2 = MinusculeCrystal(a2, 2)
    ambient = ProductRepresentation([minuscule_representation(c1),
                                     minuscule_representation(c2)])
    tcrys = tensor_crystal(c1, c2)
    comp = highest_weight_component(tcrys, (1, 1))
    bad = ambient.apply_f(1, SparseVector.unit((0, 0)))
    with pytest.raises(ValueError):
      subrepresentation(ambient, bad, comp)


  @staticmethod
  def _adjoint_component(a2):
    c1, c2 = MinusculeCrystal(a2, 1), MinusculeCrystal(a2, 2)
    return highest_weight_component(tensor_crystal(c1, c2), (1, 1))

  @staticmethod
  def _crystal_model(comp, key, extra_e=None):
    """The 0/1 model on a crystal component with basis keys relabelled by
    ``key``; ``extra_e`` adds terms to the E_i images of chosen elements."""
    weights, e_act, f_act = {}, {1: {}, 2: {}}, {1: {}, 2: {}}
    for b in comp.indices():
      weights[key(b)] = comp.wt(b)
      for i in (1, 2):
        if comp.e(b, i) is not None:
          e_act[i][key(b)] = SparseVector.unit(key(comp.e(b, i)))
        if comp.f(b, i) is not None:
          f_act[i][key(b)] = SparseVector.unit(key(comp.f(b, i)))
    for (i, b), (extra_key, extra_wt) in (extra_e or {}).items():
      weights[extra_key] = extra_wt
      e_act[i][key(b)] = e_act[i][key(b)] + SparseVector.unit(extra_key)
    return TableRepresentation(2, weights, e_act, f_act)

  def test_dependent_fiber_rejected(self, a2):
    comp = self._adjoint_component(a2)
    zero = [b for b in comp.indices() if comp.wt(b) == (0, 0)]
    assert len(zero) == 2
    # both weight-zero path vectors land on the same basis line
    ambient = self._crystal_model(comp, lambda b: min(zero) if b in zero
                                  else b)
    with pytest.raises(ValueError, match="fiber vectors are linearly "
                                         "dependent"):
      subrepresentation(ambient, SparseVector.unit(0), comp)

  def test_path_vector_of_wrong_weight_rejected(self, a2):
    c1 = MinusculeCrystal(a2, 1)
    comp = highest_weight_component(tensor_crystal(c1, c1, c1), (3, 0))
    lowest = len(comp) - 1
    assert comp.wt(lowest) == (0, -3)
    # the lowest path vector, reached only as the F_2 image of its canonical
    # parent, is given the weight of the highest one in the ambient
    ambient = self._crystal_model(comp, lambda b: b)
    ambient._weights[lowest] = (3, 0)
    with pytest.raises(ValueError, match="action leaves the span of the "
                                         "fiber basis"):
      subrepresentation(ambient, SparseVector.unit(0), comp)

  def test_action_outside_a_wide_fiber_rejected(self, a2):
    # inside V(omega_1) (x) V(omega_2) the weight-zero fiber has two path
    # vectors on three keys, so its images are checked by their residual;
    # an E_i image that gains a weight-zero term leaves its span
    c1, c2 = MinusculeCrystal(a2, 1), MinusculeCrystal(a2, 2)
    comp = highest_weight_component(tensor_crystal(c1, c2), (1, 1))
    factors = [minuscule_representation(c1), minuscule_representation(c2)]
    plain = ProductRepresentation(factors)
    zero = sorted(k for k in plain.keys() if plain.weight(k) == (0, 0))
    assert len(zero) == 3

    class Strayed(ProductRepresentation):
      def _act(self, op, i, vec):
        img = super()._act(op, i, vec)
        if op == "e" and img and self.weight(next(iter(img))) == (0, 0):
          img[zero[0]] = img.get(zero[0], 0) + 1
          img = {k: c for k, c in img.items() if c}
        return img

    ambient = Strayed(factors)
    with pytest.raises(ValueError, match="action leaves the span of the "
                                         "fiber basis"):
      subrepresentation(ambient, SparseVector.unit((0, 0)), comp)

  def test_action_outside_fiber_span_rejected(self, a2):
    comp = self._adjoint_component(a2)
    low = next(b for b in comp.indices() if comp.wt(b) == (-2, 1))
    # E_1 of the weight -alpha_1 vector gains a weight-zero term that no
    # canonical path vector reaches
    ambient = self._crystal_model(comp, lambda b: b,
                                  {(1, low): ("stray", (0, 0))})
    with pytest.raises(ValueError, match="action leaves the span of the "
                                         "fiber basis"):
      subrepresentation(ambient, SparseVector.unit(0), comp)


#: (family, rank, minuscule node, power, k): the ambient V^(x)k ("tensor")
#: or Lambda^k V ("wedge") of a minuscule module V.  Lambda^3 of the
#: two-dimensional A1 module is zero, and the 1000-element cube of the A4
#: omega_2 crystal is left to the square and the exterior powers.
_SUBREP_CASES = tuple(
    (family, rank, node, power, k)
    for family, rank, node in (("A", 1, 1), ("A", 2, 1), ("A", 3, 1),
                               ("A", 3, 2), ("A", 4, 1), ("A", 4, 2),
                               ("D", 4, 1))
    for power in ("tensor", "wedge") for k in (2, 3)
    if (rank, power, k) != (1, "wedge", 3)
    and (rank, node, power, k) != (4, 2, "tensor", 3)) + (
        ("D", 5, 5, "tensor", 2), ("D", 5, 5, "wedge", 2),
        ("D", 5, 5, "wedge", 3))


@functools.lru_cache(maxsize=None)
def _subrep_case(family, rank, node, power, k):
  """(ambient, [(component, highest weight vectors)]): a component for
  every highest weight element of the k-th tensor power of the crystal,
  with an int basis of the ambient's highest weight vectors of its weight
  (none when that weight has none in an exterior power)."""
  crys = MinusculeCrystal(build(family, rank), node)
  v = minuscule_representation(crys)
  ambient = (ProductRepresentation([v] * k) if power == "tensor"
             else ExteriorPower(v, k))
  nodes = range(1, rank + 1)
  by_weight = {}
  for key in ambient.keys():
    by_weight.setdefault(ambient.weight(key), []).append(key)
  spaces = {}
  tensor = tensor_crystal(*[crys] * k)
  components = []
  for b in tensor.elements():
    if any(tensor.eps(b, i) for i in nodes):
      continue
    wt = tensor.wt(b)
    if wt not in spaces:
      keys = by_weight.get(wt, [])
      raising = [{(i, k2): c for i in nodes
                  for k2, c in ambient.apply_e(i, SparseVector.unit(key))
                  .items()} for key in keys]
      # each relation scaled to integers
      spaces[wt] = []
      for rel in relations(raising):
        d = math.lcm(*(c.denominator for c in rel.values()))
        spaces[wt].append(SparseVector({keys[j]: int(c * d)
                                        for j, c in rel.items()}))
    components.append((HighestWeightComponent(tensor, b), spaces[wt]))
  return ambient, components


def _build_or_error(build_subrep, ambient, hw_vec, comp):
  try:
    return build_subrep(ambient, hw_vec, comp)
  except ValueError as exc:
    return str(exc)


class TestSubrepresentationAgainstOracle:
  """``subrepresentation`` against the per-solve build it replaced
  (subrep_fixture), on tensor and exterior powers of minuscule modules,
  for every highest weight element of the tensor power of the crystal and
  a drawn highest weight vector of its weight: the same weights and pair
  tables, in the same order and with the same coefficient types, or the
  same ValueError."""

  @pytest.mark.parametrize("case", _SUBREP_CASES,
                           ids=lambda case: "%s%d-w%d-%s%d" % case)
  @settings(max_examples=3, deadline=None)
  @given(data=st.data())
  def test_same_tables(self, case, data):
    ambient, components = _subrep_case(*case)
    built = 0
    for comp, space in components:
      if not space:
        continue
      coeffs = data.draw(st.lists(
          st.sampled_from([-2, -1, 1, 2, Fraction(1, 3)]),
          min_size=len(space), max_size=len(space)))
      hw_vec = ZERO_VECTOR
      for c, vec in zip(coeffs, space):
        hw_vec = hw_vec + vec.scale(c)
      new = _build_or_error(subrepresentation, ambient, hw_vec, comp)
      old = _build_or_error(oracle_subrepresentation, ambient, hw_vec, comp)
      if isinstance(old, str):
        assert new == old
        continue
      assert not isinstance(new, str), new
      built += 1
      assert list(new._weights.items()) == list(old._weights.items())
      assert list(new._tables) == list(old._tables)
      for name, table in old._tables.items():
        assert list(new._tables[name].items()) == list(table.items())
        assert [type(c) for img in new._tables[name].values()
                for _, c in img] == [type(c) for img in table.values()
                                     for _, c in img]
    # every case builds at least one component
    assert built

  def test_every_case_has_components(self):
    for case in _SUBREP_CASES:
      ambient, components = _subrep_case(*case)
      assert any(space for _, space in components), case
      if case[3] == "tensor":
        # the highest weight space of a weight in a tensor power is as
        # large as the number of crystal components of that weight
        for comp, space in components:
          assert len(space) == sum(
              c.tensor.wt(c.hw) == comp.tensor.wt(comp.hw)
              for c, _ in components)


class TestRelationCheckerAgainstOracle:
  """The table-wise relation checker against the per-unit-vector one."""

  @staticmethod
  def _reps(a2):
    c1, c2 = MinusculeCrystal(a2, 1), MinusculeCrystal(a2, 2)
    v1 = minuscule_representation(c1)
    adjoint = TestSubrepresentation._adjoint_component(a2)
    d4 = build("D", 4)
    yield v1, a2.cartan
    yield minuscule_representation(MinusculeCrystal(d4, 1)), d4.cartan
    yield ProductRepresentation([v1, v1]), a2.cartan
    # the 0/1 model on the adjoint crystal is not a representation
    yield TestSubrepresentation._crystal_model(adjoint, lambda b: b), a2.cartan
    ambient = ProductRepresentation([v1, minuscule_representation(c2)])
    yield (subrepresentation(ambient, SparseVector.unit((0, 0)), adjoint),
           a2.cartan)

  def test_same_verdicts(self, a2):
    verdicts = []
    for rep, cartan in self._reps(a2):
      got = verify_representation_detailed(rep, cartan)
      assert got == _oracle_verify(rep, cartan)
      verdicts.append(got[0])
    assert verdicts == [True, True, True, False, True]

  @staticmethod
  def _tables(rep, keys):
    """The weights and E_i / F_i actions of rep, keys in the given order."""
    nodes = range(1, rep.rank + 1)
    return ({k: rep.weight(k) for k in keys},
            {i: {k: rep.apply_e(i, SparseVector.unit(k)) for k in keys}
             for i in nodes},
            {i: {k: rep.apply_f(i, SparseVector.unit(k)) for k in keys}
             for i in nodes})

  def _pair_table(self, a2, reverse=False):
    """A2 V(omega_1) x V(omega_1) as explicit tables, keys in product order
    or reversed."""
    v1 = minuscule_representation(MinusculeCrystal(a2, 1))
    prod = ProductRepresentation([v1, v1])
    return self._tables(prod, list(prod.keys())[::-1 if reverse else 1])

  # (kind, keys reversed, defect): ("e" | "f", i, key, key2) sets the
  # coefficient of key2 in the image of key to 2; ("wt", t, key) adds 1 to
  # coordinate t of the weight of key.  Each gives its kind as the first
  # failing relation.  "HH" has no case: the H_i act diagonally through
  # the weights, so they always commute.
  DEFECTS = (
      ("EF", False, ("e", 1, (0, 1), (0, 0))),
      ("HE", True, ("wt", 0, (2, 1))),
      ("HF", False, ("wt", 0, (0, 1))),
      ("SerreE", True, ("e", 1, (2, 1), (2, 0))),
      ("SerreF", False, ("f", 1, (0, 1), (1, 1))),
  )

  def _defective(self, a2, reverse, defect):
    """The pair table with one defect injected."""
    return _inject(2, self._pair_table(a2, reverse), defect)

  @pytest.mark.parametrize("kind, reverse, defect", DEFECTS,
                           ids=[d[0] for d in DEFECTS])
  def test_same_witness_on_injected_defect(self, a2, kind, reverse, defect):
    rep = self._defective(a2, reverse, defect)
    expected = _oracle_verify(rep, a2.cartan)
    assert not expected[0] and expected[1][0] == kind
    assert verify_representation_detailed(rep, a2.cartan) == expected

  # -- the check on integer-scaled tables -------------------------------

  @staticmethod
  def _rescaled(rep, lam=lambda t: Fraction(t % 5 + 1, t % 3 + 2),
                a=lambda i: Fraction(i + 1, 2 * i + 1)):
    """rep in the basis w = lam(t) v for its t-th key v, with E_i scaled by
    a(i) and F_i by 1 / a(i): the same relations hold or fail at the same
    keys, but the coefficients change (by default to Fractions in every
    table)."""
    lams = {k: lam(t) for t, k in enumerate(rep.keys())}

    def images(op, i):
      s = a(i) if op == "e" else Fraction(1) / a(i)
      out = {}
      for k in lams:
        img = rep._act(op, i, {k: 1})
        if img:
          out[k] = {k2: s * lams[k] * c / lams[k2] for k2, c in img.items()}
      return out

    nodes = range(1, rep.rank + 1)
    return TableRepresentation(rep.rank, {k: rep.weight(k) for k in lams},
                               {i: images("e", i) for i in nodes},
                               {i: images("f", i) for i in nodes})

  def _three_checks(self, rep, cartan):
    """The checker on the stored tables, on the tables compiled from
    ``_act`` (through _Unscaled; both are scaled to integers) and the
    oracle agree; returns their verdict."""
    scales, tables = _integer_tables(rep._tables)
    assert all(d > 1 for d in scales.values())
    assert all(type(c) is int for table in tables.values()
               for img in table.values() for _, c in img)
    expected = _oracle_verify(rep, cartan)
    assert verify_representation_detailed(_Unscaled(rep), cartan) == expected
    assert verify_representation_detailed(rep, cartan) == expected
    return expected

  def test_scaled_tables_same_verdicts(self, a2):
    verdicts = [self._three_checks(self._rescaled(rep), cartan)[0]
                for rep, cartan in self._reps(a2)]
    assert verdicts == [True, True, True, False, True]

  @pytest.mark.parametrize("kind, reverse, defect", DEFECTS,
                           ids=[d[0] for d in DEFECTS])
  def test_scaled_tables_same_witness(self, a2, kind, reverse, defect):
    rep = self._rescaled(self._defective(a2, reverse, defect))
    expected = self._three_checks(rep, a2.cartan)
    assert not expected[0] and expected[1][0] == kind

  def test_gaussian_tables(self, a2, a2_v1):
    # A2 V(omega_1) in the basis i^t v_t: the Gaussian coefficients are
    # left as they are
    rep = self._rescaled(a2_v1, lam=lambda t: GaussianRational(1, t),
                         a=lambda i: 1)
    assert set(_integer_tables(rep._tables)[0].values()) == {1}
    assert verify_representation_detailed(rep, a2.cartan) == \
        _oracle_verify(rep, a2.cartan) == (True, None)

  @pytest.mark.parametrize("reverse", [False, True])
  def test_same_witness_on_defect_pairs(self, a2, reverse):
    # a defect in E and one in F, or in two weights, can break two
    # relations at the same key and (i, j): the witness must still name
    # the one the oracle checks first
    weights, e_act, f_act = self._pair_table(a2, reverse)
    kinds = set()

    def check(rep):
      expected = _oracle_verify(rep, a2.cartan)
      assert verify_representation_detailed(rep, a2.cartan) == expected
      kinds.add(expected[1][0] if expected[1] else None)

    def defective(act, i, key, key2):
      bad = {j: dict(images) for j, images in act.items()}
      bad[i][key] = SparseVector({**act[i][key].entries, key2: 2})
      return bad

    def slots(act):
      return [(act, i, key, key2) for i in (1, 2) for key in weights
              for key2 in act[i][key].keys()]

    for e_slot, f_slot in itertools.product(slots(e_act), slots(f_act)):
      check(TableRepresentation(2, weights, defective(*e_slot),
                                defective(*f_slot)))
    for key1, key2 in itertools.combinations(weights, 2):
      bad = dict(weights)
      bad[key1] = (bad[key1][0] + 1, bad[key1][1])
      bad[key2] = (bad[key2][0], bad[key2][1] - 1)
      check(TableRepresentation(2, bad, e_act, f_act))
    # E raises weights, F lowers them, and the first failing key is the
    # first one whose words reach a defect
    assert kinds == ({"EF", "HE", "SerreE"} if reverse
                     else {"EF", "HF", "SerreF"})

  @pytest.mark.parametrize("cartan, witness", [
      (((2, -1), (0, 2)), ("HE", 2, 1, (0, 2))),
      (((2, 0), (-1, 2)), ("SerreE", 1, 2, (0, 2)))])
  def test_order_within_a_pair(self, a2, cartan, witness):
    # Checked against a wrong Cartan entry, the first key of A2
    # V(omega_1) x V(omega_2) breaks both HE and HF (or both Serre
    # relations) for the same (i, j); E is checked first.
    c1, c2 = MinusculeCrystal(a2, 1), MinusculeCrystal(a2, 2)
    prod = ProductRepresentation([minuscule_representation(c1),
                                  minuscule_representation(c2)])
    keys = [(0, 2)] + [k for k in prod.keys() if k != (0, 2)]
    rep = TableRepresentation(2, *self._tables(prod, keys))
    expected = _oracle_verify(rep, cartan)
    assert expected == (False, witness)
    assert verify_representation_detailed(rep, cartan) == expected

  # -- A3 and D4: nodes that are not adjacent ---------------------------

  # (family, rank, minuscule nodes of the factors, number of defects): the
  # defects are every coefficient and every weight coordinate of the table,
  # one at a time, in both key orders.  C3 and B3 have a Serre relation
  # with 1 - a_ij = 3, which A3 and D4 never reach.
  SWEEPS = (("A", 3, (1, 1), 192), ("D", 4, (1,), 96), ("C", 3, (1,), 56),
            ("B", 3, (3,), 80))

  # the (kind, a_ij = 0) that no single defect of the sweep gives first
  UNREACHED_KINDS = {
      "A": set(),
      "D": {("SerreE", False), ("SerreF", False)},
      "B": {("SerreE", False), ("SerreF", False)},
      "C": {("EF", True), ("SerreE", False), ("SerreF", False),
            ("SerreE", True), ("SerreF", True)},
  }

  @pytest.mark.parametrize("family, rank, nodes, count", SWEEPS,
                           ids=["A3", "D4", "C3", "B3"])
  def test_same_witness_on_every_single_defect(self, family, rank, nodes,
                                               count):
    # On A2 every pair of nodes is adjacent; here [E_i, F_j] = 0 and the
    # Serre relations with a_ij = 0 fail too, and are checked by comparing
    # two images.  Each defect is checked on the integer tables, unscaled
    # through _act, and rescaled to Fractions.
    sys = build(family, rank)
    prod = ProductRepresentation(
        [minuscule_representation(MinusculeCrystal(sys, r)) for r in nodes])
    kinds = set()
    defects = 0
    for reverse in (False, True):
      tables = self._tables(prod, list(prod.keys())[::-1 if reverse else 1])
      weights, e_act, f_act = tables
      slots = [(op, i, key, key2)
               for op, act in (("e", e_act), ("f", f_act))
               for i in act for key in weights for key2 in act[i][key].keys()]
      slots += [("wt", t, key) for key in weights for t in range(rank)]
      for defect in slots:
        rep = _inject(rank, tables, defect)
        expected = _oracle_verify(rep, sys.cartan)
        assert not expected[0]
        assert verify_representation_detailed(rep, sys.cartan) == expected
        assert verify_representation_detailed(_Unscaled(rep),
                                              sys.cartan) == expected
        assert verify_representation_detailed(self._rescaled(rep),
                                              sys.cartan) == expected
        kind, i, j, _ = expected[1]
        kinds.add((kind, i != j and sys.cartan[i - 1][j - 1] == 0))
        defects += 1
    assert defects == count
    # every kind, and each with a_ij = 0, but for a few: D4 V(omega_1) and
    # B3 V(omega_3) break no Serre relation between adjacent nodes first,
    # and C3 V(omega_1) no Serre relation and no [E_i, F_j] with i != j
    expected_kinds = {(kind, zero) for kind in
                      ("EF", "HE", "HF", "SerreE", "SerreF")
                      for zero in (False, True)}
    assert kinds == expected_kinds - self.UNREACHED_KINDS[family]

  # (row, column, change) of one E6 Cartan entry: the oracle trips over
  # each within the first few keys of the 2925-dimensional module.  The
  # first leaves a_13 = -1 but makes a_31 = 0, so the two orders of the pair
  # (1, 3) ask for different powers of the one bracket [F_1, F_3].
  @pytest.mark.parametrize("row, col, change, witness", [
      (3, 1, 1, ("SerreF", 3, 1, 1)),
      (1, 6, -1, ("HF", 1, 6, 4))])
  def test_same_witness_on_e6_with_a_wrong_cartan_entry(self, suite, row,
                                                        col, change,
                                                        witness):
    cartan = [list(r) for r in suite.sys.cartan]
    cartan[row - 1][col - 1] += change
    expected = _oracle_verify(suite.subrep, cartan)
    assert expected == (False, witness)
    assert verify_representation_detailed(suite.subrep, cartan) == expected

  def test_explicit_zero_coefficients_ignored(self, a2):
    # an _act that leaves an explicit zero coefficient gets the verdict of
    # the same action without it
    cases = list(self._reps(a2))
    cases += [(self._defective(a2, reverse, defect), a2.cartan)
              for _, reverse, defect in self.DEFECTS]
    for rep, cartan in cases:
      expected = _oracle_verify(rep, cartan)
      assert verify_representation_detailed(_ZeroPadded(rep),
                                            cartan) == expected

  def test_table_drops_zero_coefficients(self, a2, a2_v1):
    weights, e_act, f_act = self._tables(a2_v1, list(a2_v1.keys()))

    def padded(act):
      return {i: {k: {**img.entries, "zero": 0} for k, img in images.items()}
              for i, images in act.items()}

    rep = TableRepresentation(2, {**weights, "zero": (0, 0)}, padded(e_act),
                              padded(f_act))
    assert all(c for table in rep._tables.values()
               for img in table.values() for _, c in img)
    for key in weights:
      for i in (1, 2):
        unit = SparseVector.unit(key)
        assert rep.apply_e(i, unit) == a2_v1.apply_e(i, unit)
        assert rep.apply_f(i, unit) == a2_v1.apply_f(i, unit)
    assert verify_representation_detailed(rep, a2.cartan) == (True, None)


class TestRelationCheckerShapes:
  """The Cartan matrix must be rank x rank, and each weight must have rank
  coordinates."""

  def test_cartan_matrix_of_a_higher_rank(self, a2_v1):
    with pytest.raises(ValueError, match="Cartan matrix"):
      verify_representation_detailed(a2_v1, build("A", 3).cartan)

  def test_cartan_matrix_of_a_lower_rank(self, a2):
    a3_v1 = minuscule_representation(MinusculeCrystal(build("A", 3), 1))
    with pytest.raises(ValueError, match="Cartan matrix"):
      verify_representation_detailed(a3_v1, a2.cartan)

  def test_weight_with_an_extra_coordinate(self, a2, a2_v1):
    weights, e_act, f_act = TestRelationCheckerAgainstOracle._tables(
        a2_v1, list(a2_v1.keys()))
    rep = TableRepresentation(2, {k: wt + (0,) for k, wt in weights.items()},
                              e_act, f_act)
    with pytest.raises(ValueError, match="coordinates"):
      verify_representation_detailed(rep, a2.cartan)


def _inject(rank, tables, defect):
  """The tables (weights, e_act, f_act) as a TableRepresentation with one
  defect: ("e" | "f", i, key, key2) sets the coefficient of key2 in the
  image of key to 2; ("wt", t, key) adds 1 to coordinate t of the weight
  of key."""
  weights, e_act, f_act = tables
  if defect[0] == "wt":
    _, t, key = defect
    wt = list(weights[key])
    wt[t] += 1
    weights = {**weights, key: tuple(wt)}
  else:
    op, i, key, key2 = defect
    act = {j: dict(images) for j, images in
           (e_act if op == "e" else f_act).items()}
    assert key2 in act[i][key].keys()
    act[i][key] = SparseVector({**act[i][key].entries, key2: 2})
    e_act, f_act = (act, f_act) if op == "e" else (e_act, act)
  return TableRepresentation(rank, weights, e_act, f_act)


class _Unscaled(Representation):
  """A TableRepresentation seen only through the Representation interface:
  the relation checker runs it through the tables that
  ``Representation.table`` compiles from its ``_act``, not through the
  stored ones."""

  def __init__(self, rep):
    self.rep = rep
    self.rank = rep.rank

  def keys(self):
    return self.rep.keys()

  def weight(self, key):
    return self.rep.weight(key)

  def _act(self, op, i, vec):
    return self.rep._act(op, i, vec)


class _ZeroPadded(_Unscaled):
  """A representation whose ``_act`` also gives the first basis key an
  explicit zero coefficient when the image lacks that key."""

  def _act(self, op, i, vec):
    img = self.rep._act(op, i, vec)
    probe = next(iter(self.rep.keys()))
    return img if probe in img else {**img, probe: 0}


def _product_vectors(keys):
  coeffs = st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4))
  return st.dictionaries(st.sampled_from(keys), coeffs, max_size=12).map(
      SparseVector)


class TestPairTables:
  """Compiled actions are tables {key: pairs} of nonzero (key2, coeff)
  pairs."""

  def test_pairs_keeps_tuples_without_zeros(self):
    clean = ((0, 1), (2, Fraction(1, 2)))
    assert _pairs(clean) is clean
    assert _pairs(()) == ()
    with_zero = {0: 1, 1: 0, 2: Fraction(1, 2)}
    assert _pairs(tuple(with_zero.items())) == clean
    assert _pairs(with_zero) == clean
    assert _pairs(SparseVector._raw(with_zero)) == clean
    assert _pairs({1: 0}) == ()

  @pytest.mark.parametrize("power", [ProductRepresentation, ExteriorPower],
                           ids=["tensor", "exterior"])
  def test_table_equals_stored_table(self, a2_v1, power):
    # A2 V(omega_1)^(x2) or ^(^2): the tables compiled from _act equal
    # those a TableRepresentation stores from the apply_e / apply_f images
    rep = (power([a2_v1, a2_v1]) if power is ProductRepresentation
           else power(a2_v1, 2))
    keys = list(rep.keys())
    nodes = range(1, rep.rank + 1)
    stored = TableRepresentation(
        rep.rank, {k: rep.weight(k) for k in keys},
        {i: {k: rep.apply_e(i, SparseVector.unit(k)) for k in keys}
         for i in nodes},
        {i: {k: rep.apply_f(i, SparseVector.unit(k)) for k in keys}
         for i in nodes})
    for op in ("e", "f"):
      for i in nodes:
        assert rep.table(op, i)
        assert rep.table(op, i) == stored.table(op, i)
    # the factor tables of the product are the factor's stored tables
    assert rep._tables[("f", 1)][0] is a2_v1.table("f", 1)

  @settings(max_examples=100, deadline=None)
  @given(st.data())
  def test_apply_keeps_values_and_types(self, data):
    # against the loop that multiplied and added every term: an int 1
    # skips the product and a new key takes its term, but a Fraction(1) or
    # GaussianRational coefficient still scales, so no type changes
    scalars = st.sampled_from([1, -1, 2, Fraction(1), Fraction(-1, 2),
                               GaussianRational(1), GaussianRational(0, 1)])
    pairs = st.lists(st.tuples(st.integers(0, 4), scalars), max_size=4,
                     unique_by=lambda p: p[0]).map(tuple)
    table = data.draw(st.dictionaries(st.integers(0, 3), pairs))
    vec = data.draw(st.dictionaries(st.integers(0, 4), scalars))
    got = reps_module._apply(table, vec)
    want = _seed_apply(table, vec)
    assert got == want
    assert {k: type(c) for k, c in got.items()} == \
        {k: type(c) for k, c in want.items()}


class TestCompiledLeibniz:
  """The compiled tensor action against the per-key Leibniz rule."""

  @staticmethod
  def _check(prod, vec):
    for i in range(1, prod.rank + 1):
      assert prod.apply_e(i, vec) == _oracle_leibniz(prod, "e", i, vec)
      assert prod.apply_f(i, vec) == _oracle_leibniz(prod, "f", i, vec)

  A2_CUBE = ProductRepresentation(
      [minuscule_representation(MinusculeCrystal(build("A", 2), 1))] * 3)
  E6_SQUARE = ProductRepresentation(
      [minuscule_representation(MinusculeCrystal(build("E", 6), 1))] * 2)

  @settings(max_examples=100, deadline=None)
  @given(_product_vectors(list(A2_CUBE.keys())))
  def test_a2_cube(self, vec):
    self._check(self.A2_CUBE, vec)

  @settings(max_examples=100, deadline=None)
  @given(_product_vectors(list(E6_SQUARE.keys())))
  def test_e6_square(self, vec):
    self._check(self.E6_SQUARE, vec)

  def test_out_of_range_node_acts_by_zero(self):
    # the unchecked kernel has no table for such a node; the public
    # operators reject it (TestNodeRange)
    vec = SparseVector.unit((0, 0, 0))
    assert self.A2_CUBE._act("e", 3, vec.entries) == {}
    assert self.A2_CUBE._act("f", 0, vec.entries) == {}
    with pytest.raises(ValueError, match="node"):
      self.A2_CUBE.apply_e(3, vec)


def _v1(family, rank):
  sys = build(family, rank)
  return sys, minuscule_representation(MinusculeCrystal(sys, 1))


def _wedge_cases():
  """(label, exterior power, factor, k, cartan) with k = 2 and 3 for the
  first fundamental representations of A2, A3 and D4 and the tensor square
  of A2's as factors."""
  factors = []
  for family, rank in (("A", 2), ("A", 3), ("D", 4)):
    sys, v1 = _v1(family, rank)
    factors.append(("%s%d" % (family, rank), v1, sys.cartan))
  sys, v1 = _v1("A", 2)
  factors.append(("A2(x)A2", ProductRepresentation([v1, v1]), sys.cartan))
  return [("%s^%d" % (label, k), ExteriorPower(factor, k), factor, k, cartan)
          for label, factor, cartan in factors for k in (2, 3)]


_WEDGES = _wedge_cases()
_each_wedge = pytest.mark.parametrize("label,wedge,factor,k,cartan", _WEDGES,
                                      ids=[w[0] for w in _WEDGES])


class TestExteriorPower:
  """The exterior power model against the tensor power, through the
  antisymmetrisation map, which is injective and must commute with every
  E_i and F_i."""

  @_each_wedge
  def test_dimension_and_keys(self, label, wedge, factor, k, cartan):
    keys = list(wedge.keys())
    assert len(keys) == math.comb(len(list(factor.keys())), k)
    assert all(list(key) == sorted(set(key)) for key in keys)

  @_each_wedge
  def test_relations(self, label, wedge, factor, k, cartan):
    assert verify_representation_detailed(wedge, cartan) == (True, None)

  @_each_wedge
  def test_images_are_sorted_keys(self, label, wedge, factor, k, cartan):
    keys = set(wedge.keys())
    for key in keys:
      for i in range(1, wedge.rank + 1):
        unit = SparseVector.unit(key)
        assert set(wedge.apply_e(i, unit).keys()) <= keys
        assert set(wedge.apply_f(i, unit).keys()) <= keys

  @_each_wedge
  @settings(max_examples=40, deadline=None)
  @given(data=st.data())
  def test_antisymmetrisation_is_equivariant(self, label, wedge, factor, k,
                                             cartan, data):
    vec = data.draw(_product_vectors(list(wedge.keys())))
    prod = ProductRepresentation([factor] * k)
    up = antisymmetrise(vec)
    for i in range(1, wedge.rank + 1):
      assert antisymmetrise(wedge.apply_e(i, vec)) == prod.apply_e(i, up)
      assert antisymmetrise(wedge.apply_f(i, vec)) == prod.apply_f(i, up)

  def test_repeated_key_vanishes(self):
    # A2 V(omega_1): F_1 e0 = e1 and F_2 e1 = e2
    _, v1 = _v1("A", 2)
    wedge2 = ExteriorPower(v1, 2)
    assert not wedge2.apply_f(1, SparseVector.unit((0, 1)))
    assert not wedge2.apply_e(2, SparseVector.unit((1, 2)))
    assert (wedge2.apply_f(1, SparseVector.unit((0, 2)))
            == SparseVector.unit((1, 2)))
    # F_2 moves the 1 of (0, 1) to 2 without passing a key, the
    # E_1 of (1, 2) moves it to 0 in front of 2
    assert (wedge2.apply_f(2, SparseVector.unit((0, 1)))
            == SparseVector.unit((0, 2)))
    assert (wedge2.apply_e(1, SparseVector.unit((1, 2)))
            == SparseVector.unit((0, 2)))
    # the top power of the three-dimensional representation is trivial
    wedge3 = ExteriorPower(v1, 3)
    for i in (1, 2):
      assert not wedge3.apply_e(i, SparseVector.unit((0, 1, 2)))
      assert not wedge3.apply_f(i, SparseVector.unit((0, 1, 2)))

  def test_sign_of_a_moved_key(self):
    # in A2 V(omega_1) (x) V(omega_1), F_1 (0, 0) = (1, 0) + (0, 1) and
    # F_1 (0, 2) = (1, 2); the image (1, 0) of the first key of
    # (0, 0) ^ (0, 2) passes (0, 2), so it takes a sign
    _, v1 = _v1("A", 2)
    wedge = ExteriorPower(ProductRepresentation([v1, v1]), 2)
    assert wedge.apply_f(1, SparseVector.unit(((0, 0), (0, 2)))) == \
        SparseVector({((0, 2), (1, 0)): -1, ((0, 1), (0, 2)): 1,
                      ((0, 0), (1, 2)): 1})
    # and a Fraction coefficient keeps its type, sign included
    img = wedge.apply_f(1, SparseVector({((0, 0), (0, 2)): Fraction(1, 2)}))
    assert dict(img.items()) == {((0, 2), (1, 0)): Fraction(-1, 2),
                                 ((0, 1), (0, 2)): Fraction(1, 2),
                                 ((0, 0), (1, 2)): Fraction(1, 2)}
    assert all(type(c) is Fraction for _, c in img.items())


def _searched_root_poset_path(sys, gamma):
  """The lexicographically least climbing sequence by backtracking
  search."""
  n = sys.rank
  height = sum(gamma)

  def rec(current, prefix):
    if len(prefix) == height:
      return prefix if current == gamma else None
    for i in range(1, n + 1):
      if current[i - 1] < gamma[i - 1]:
        nxt = current[:i - 1] + (current[i - 1] + 1,) + current[i:]
        if sys.is_positive_root(nxt):
          got = rec(nxt, prefix + (i,))
          if got is not None:
            return got
    return None

  return rec((0,) * n, ())


_ROOT_POSET_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 8)]
    + [("C", n) for n in range(2, 8)] + [("D", n) for n in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


class TestRootOperators:

  def test_greedy_path_equals_search(self):
    # every positive root of 27 types, 751 in all
    checked = 0
    for family, rank in _ROOT_POSET_TYPES:
      sys = build(family, rank)
      for gamma in sys.positive_roots:
        assert root_poset_path(sys, gamma) == _searched_root_poset_path(
            sys, tuple(gamma)), (family, rank, gamma)
        checked += 1
    assert checked == 751

  def test_path_without_a_step_is_an_internal_error(self):
    # a system whose only positive root is gamma leaves the walk no step
    class Stub:
      rank = 2

      @staticmethod
      def is_positive_root(root):
        return tuple(root) == (1, 1)

    with pytest.raises(AssertionError):
      root_poset_path(Stub, (1, 1))

  def test_path_for_simple_root(self, a2):
    assert root_poset_path(a2, (1, 0)) == (1,)

  def test_path_for_highest_root_a2(self, a2):
    assert root_poset_path(a2, (1, 1)) == (1, 2)

  def test_e6_paths(self):
    sys = build("E", 6)
    beta = (1, 1, 2, 3, 2, 1)
    assert root_poset_path(sys, beta) == (1, 3, 4, 2, 5, 4, 3, 6, 5, 4)
    assert len(root_poset_path(sys, sys.highest_root)) == 11

  def test_rejects_non_root(self, a2):
    with pytest.raises(ValueError):
      root_poset_path(a2, (2, 0))

  def test_operator_term_counts(self):
    sys = build("E", 6)
    beta = (1, 1, 2, 3, 2, 1)
    assert len(root_lowering_operator(sys, beta).terms) == 512
    assert len(root_lowering_operator(sys, sys.highest_root).terms) == 1024

  def test_simple_root_operator_is_plain_lowering(self, a2, a2_v1):
    op = root_lowering_operator(a2, (1, 0))
    assert op.terms == ((1, (1,)),)
    v = SparseVector.unit(0)
    assert op.apply(a2_v1, v) == a2_v1.apply_f(1, v)

  def test_highest_root_operator_reaches_lowest(self, a2, a2_v1):
    # on the standard representation, the commutator [F_1, F_2] moves the
    # highest weight line to the lowest one with a unit coefficient
    op = root_lowering_operator(a2, (1, 1))
    out = op.apply(a2_v1, SparseVector.unit(0))
    assert len(list(out.keys())) == 1
    key = next(iter(out.keys()))
    assert a2_v1.weight(key) == (0, -1)
    assert abs(out.get(key)) == 1

  def test_operator_word_signs(self, a2_v1):
    word = OperatorWord(((1, (1,)), (-1, (1,))))
    assert not word.apply(a2_v1, SparseVector.unit(0))

  def test_apply_equals_per_term_loop_a2(self, a2):
    c1, c2 = MinusculeCrystal(a2, 1), MinusculeCrystal(a2, 2)
    v1, v2 = minuscule_representation(c1), minuscule_representation(c2)
    adjoint = subrepresentation(
        ProductRepresentation([v1, v2]), SparseVector.unit((0, 0)),
        highest_weight_component(tensor_crystal(c1, c2), (1, 1)))
    words = [root_lowering_operator(a2, gamma) for gamma in a2.positive_roots]
    # a Serre element with a repeated term, and a term that is a suffix of
    # an earlier one
    words.append(OperatorWord(((1, (1, 2, 1)), (-1, (2, 1, 1)),
                               (-1, (2, 1, 1)), (1, (1, 1, 2)), (1, (2, 1)))))
    for rep in (v1, ProductRepresentation([v1, v1]), adjoint):
      for word in words:
        for key in rep.keys():
          vec = SparseVector.unit(key)
          assert word.apply(rep, vec) == _oracle_word_apply(word, rep, vec)

  def test_apply_equals_per_term_loop_e6(self, suite):
    # the two long-root operators of the E6 suite, as build_vzero applies
    # them; each distinct nonzero suffix is applied once
    counted = _CountedLowering(suite.wedge3)
    vec = suite.hw_vec
    for gamma in ((1, 1, 2, 3, 2, 1), suite.sys.highest_root):
      word = root_lowering_operator(suite.sys, gamma)
      counted.calls = 0
      got = word.apply(counted, vec)
      suffixes = {w[k:] for _, w in word.terms for k in range(len(w))}
      assert counted.calls <= len(suffixes)
      per_term = _CountedLowering(suite.wedge3)
      assert got == _oracle_word_apply(word, per_term, vec)
      assert counted.calls < per_term.calls
      vec = got
    assert vec == suite.build_vzero()


class _CountedLowering:
  """A representation's lowering operators, counting the calls."""

  def __init__(self, rep):
    self.rep = rep
    self.calls = 0

  def apply_f(self, i, vec):
    self.calls += 1
    return self.rep.apply_f(i, vec)


def _oracle_word_apply(word, rep, vec):
  """OperatorWord.apply as a per-term loop, each word applied in full."""
  total = ZERO_VECTOR
  for sign, letters in word.terms:
    cur = vec
    for i in reversed(letters):
      cur = rep.apply_f(i, cur)
      if not cur:
        break
    if cur:
      total = total + (cur if sign > 0 else -cur)
  return total


def _seed_apply(table, vec):
  """The compiled-table loop that multiplied and added every term."""
  acc = {}
  for key, c in vec.items():
    for k2, c2 in table.get(key, ()):
      s = acc.get(k2, 0) + c * c2
      if s:
        acc[k2] = s
      else:
        del acc[k2]
  return acc


def _apply_table(table, vec):
  acc = SparseVector({})
  for key, c in vec.items():
    img = table.get(key)
    if img is not None:
      acc = acc + img.scale(c)
  return acc


# -- test-only oracles: the per-unit-vector relation checker and the per-key
# Leibniz rule that the compiled versions replaced ----------------------------

def _seed_keys(prod):
  """The seed's recursive enumerator of a product's keys, the leftmost
  factor slowest."""
  def rec(pos):
    if pos == len(prod.factors):
      yield ()
      return
    for head in prod.factors[pos].keys():
      for rest in rec(pos + 1):
        yield (head,) + rest
  return rec(0)


def _apply_h(rep, i, vec):
  """H_i on vec: each basis vector scaled by the pairing of its weight with
  the i-th simple coroot."""
  return SparseVector({key: c * rep.weight(key)[i - 1]
                       for key, c in vec.items()})


def _oracle_verify(rep, cartan):
  n = rep.rank
  for key in rep.keys():
    v = SparseVector.unit(key)
    wt = rep.weight(key)
    for i in range(1, n + 1):
      for j in range(1, n + 1):
        # [H_i, H_j] = 0: diagonal operators commute
        hh1 = _apply_h(rep, i, _apply_h(rep, j, v))
        hh2 = _apply_h(rep, j, _apply_h(rep, i, v))
        if hh1 != hh2:
          return False, ("HH", i, j, key)
        # [E_i, F_j] = delta_ij H_i
        lhs = rep.apply_e(i, rep.apply_f(j, v)) - rep.apply_f(j, rep.apply_e(i, v))
        rhs = _apply_h(rep, i, v) if i == j else ZERO_VECTOR
        if lhs != rhs:
          return False, ("EF", i, j, key)
        # [H_i, E_j] = <alpha_j, acheck_i> E_j
        ej = rep.apply_e(j, v)
        lhs = _apply_h(rep, i, ej) - ej.scale(wt[i - 1])
        if lhs != ej.scale(cartan[i - 1][j - 1]):
          return False, ("HE", i, j, key)
        # [H_i, F_j] = -<alpha_j, acheck_i> F_j
        fj = rep.apply_f(j, v)
        lhs = _apply_h(rep, i, fj) - fj.scale(wt[i - 1])
        if lhs != fj.scale(-cartan[i - 1][j - 1]):
          return False, ("HF", i, j, key)
    # Serre relations ad(X_i)^{1 - a_ij}(X_j) = 0 for i != j
    for i in range(1, n + 1):
      for j in range(1, n + 1):
        if i == j:
          continue
        m = 1 - cartan[i - 1][j - 1]
        if _oracle_ad_power(rep, "e", i, j, m, v):
          return False, ("SerreE", i, j, key)
        if _oracle_ad_power(rep, "f", i, j, m, v):
          return False, ("SerreF", i, j, key)
  return True, None


def _oracle_ad_power(rep, op, i, j, m, v):
  """ad(X_i)^m (X_j) applied to v, expanded by the binomial formula."""
  apply_i = (lambda w: rep.apply_e(i, w)) if op == "e" else \
            (lambda w: rep.apply_f(i, w))
  apply_j = (lambda w: rep.apply_e(j, w)) if op == "e" else \
            (lambda w: rep.apply_f(j, w))
  total = ZERO_VECTOR
  binom = 1
  for k in range(m + 1):
    cur = v
    for _ in range(k):
      cur = apply_i(cur)
    cur = apply_j(cur)
    for _ in range(m - k):
      cur = apply_i(cur)
    total = total + cur.scale(((-1) ** k) * binom)
    binom = binom * (m - k) // (k + 1)
  return total


def _oracle_leibniz(prod, op, i, vec):
  """E_i or F_i on a tensor product vector, one basis key and one tensor
  position at a time, through the factors' per-key images."""
  acc = {}
  for key, c in vec.items():
    part_acc = {}
    for pos, (f, k) in enumerate(zip(prod.factors, key)):
      apply = f.apply_e if op == "e" else f.apply_f
      part = apply(i, SparseVector.unit(k))
      for k2, c2 in part.items():
        full = key[:pos] + (k2,) + key[pos + 1:]
        s = part_acc.get(full, 0) + c2
        if s:
          part_acc[full] = s
        else:
          del part_acc[full]
    for k2, c2 in part_acc.items():
      s = acc.get(k2, 0) + c * c2
      if s:
        acc[k2] = s
      else:
        del acc[k2]
  return SparseVector(acc)
