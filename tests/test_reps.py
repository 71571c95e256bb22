from fractions import Fraction

import pytest

from twistedlie.crystal import (MinusculeCrystal, highest_weight_component,
                                tensor_crystal)
from twistedlie.linalg import SparseVector
from twistedlie.reps import (OperatorWord, TableRepresentation, exp_nilpotent,
                             highest_weight_check, minuscule_representation,
                             root_lowering_operator, root_poset_path,
                             subrepresentation, tensor_many,
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
    assert a2_v1.apply_h(1, v) == v
    assert not a2_v1.apply_h(2, v)


class TestTensorProduct:

  def test_leibniz_on_pair(self, a2, a2_v1):
    prod = tensor_many([a2_v1, a2_v1])
    v = SparseVector.unit((0, 0))
    img = prod.apply_f(1, v)
    down = a2_v1.apply_f(1, SparseVector.unit(0))
    key_down = next(iter(down.keys()))
    assert img.get((key_down, 0)) == 1
    assert img.get((0, key_down)) == 1

  def test_tensor_relations(self, a2, a2_v1):
    prod = tensor_many([a2_v1, a2_v1])
    assert verify_representation_detailed(prod, a2.cartan) == (True, None)

  def test_weight_additive(self, a2_v1):
    prod = tensor_many([a2_v1, a2_v1])
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
      exp_nilpotent(apply_fn, SparseVector.unit(0), max_power=10)

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
    ambient = tensor_many([v1, v2])
    tcrys = tensor_crystal(c1, c2)
    comp = highest_weight_component(tcrys, (1, 1))
    hw = SparseVector.unit((0, 0))
    rep = subrepresentation(ambient, hw, comp)
    assert len(list(rep.keys())) == 8
    assert verify_representation_detailed(rep, a2.cartan) == (True, None)
    zero_fiber = [k for k in rep.keys() if rep.weight(k) == (0, 0)]
    assert len(zero_fiber) == 2

  def test_rejects_non_highest_vector(self, a2):
    c1 = MinusculeCrystal(a2, 1)
    c2 = MinusculeCrystal(a2, 2)
    ambient = tensor_many([minuscule_representation(c1),
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


class TestRootOperators:

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


def _apply_table(table, vec):
  acc = SparseVector({})
  for key, c in vec.items():
    img = table.get(key)
    if img is not None:
      acc = acc + img.scale(c)
  return acc
