import pytest

from crystal_fixture import OracleTensor, component, string_tables
from twistedlie.crystal import (HighestWeightComponent,
                                MinusculeCrystal,
                                highest_weight_component, tensor_crystal)
from twistedlie.e6 import OMEGA4
from twistedlie.linalg import SparseVector
from twistedlie.rootsystem import build, minimal_coset_reps


@pytest.fixture(scope="module")
def a2():
  return build("A", 2)


@pytest.fixture(scope="module")
def e6():
  return build("E", 6)


class TestMinusculeCrystal:

  def test_e6_sizes(self, e6):
    assert len(MinusculeCrystal(e6, 1)) == 27
    assert len(MinusculeCrystal(e6, 6)) == 27

  def test_non_minuscule_rejected(self, e6):
    with pytest.raises(ValueError):
      MinusculeCrystal(e6, 4)

  def test_highest_element_first(self, e6):
    c = MinusculeCrystal(e6, 1)
    assert c.wt(0) == (1, 0, 0, 0, 0, 0)
    assert all(c.e(0, i) is None for i in range(1, 7))

  def test_weights_are_an_orbit_with_multiplicity_one(self, e6):
    c = MinusculeCrystal(e6, 1)
    weights = [c.wt(b) for b in c.indices()]
    assert len(set(weights)) == 27
    assert set(weights) == set(e6.weyl_orbit((1, 0, 0, 0, 0, 0)))

  def test_e_f_inverse(self, e6):
    c = MinusculeCrystal(e6, 1)
    for b in c.indices():
      for i in range(1, 7):
        d = c.f(b, i)
        if d is not None:
          assert c.e(d, i) == b
        u = c.e(b, i)
        if u is not None:
          assert c.f(u, i) == b

  def test_f_shifts_weight_by_simple_root(self, a2):
    c = MinusculeCrystal(a2, 1)
    for b in c.indices():
      for i in (1, 2):
        d = c.f(b, i)
        if d is not None:
          diff = tuple(x - y for x, y in zip(c.wt(b), c.wt(d)))
          alpha = tuple(row[i - 1] for row in a2.cartan)
          assert diff == alpha

  def test_a2_standard_chain(self, a2):
    c = MinusculeCrystal(a2, 1)
    assert len(c) == 3
    b1 = c.f(0, 1)
    b2 = c.f(b1, 2)
    assert b1 is not None and b2 is not None
    assert c.f(0, 2) is None and c.f(b2, 1) is None


class TestTensorCrystal:

  def test_size_and_weights(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    assert len(t) == 9
    total = [0, 0]
    for b in t.elements():
      w = t.wt(b)
      total = [a + x for a, x in zip(total, w)]
    assert total == [0, 0]

  def test_e_f_partial_inverse(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c, c)
    for b in t.elements():
      for i in (1, 2):
        d = t.f(b, i)
        if d is not None:
          assert t.e(d, i) == b
        u = t.e(b, i)
        if u is not None:
          assert t.f(u, i) == b

  def test_eps_phi_weight_identity(self, a2):
    # phi(b, i) - eps(b, i) = <wt(b), acheck_i>
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    for b in t.elements():
      for i in (1, 2):
        assert t.phi(b, i) - t.eps(b, i) == t.wt(b)[i - 1]

  def test_empty_rejected(self):
    with pytest.raises(ValueError):
      tensor_crystal()

  def test_unequal_ranks_rejected(self, a2):
    # A2 then A3 used to truncate the A3 weights, A3 then A2 to raise
    # IndexError in wt
    c2 = MinusculeCrystal(a2, 1)
    c3 = MinusculeCrystal(build("A", 3), 1)
    for factors in ((c2, c3), (c3, c2)):
      with pytest.raises(ValueError, match="rank"):
        tensor_crystal(*factors)

  def test_factor_without_tables_rejected(self, a2):
    c = MinusculeCrystal(a2, 1)
    with pytest.raises(TypeError, match="TableCrystal"):
      tensor_crystal(c, tensor_crystal(c, c))

  def test_columns_are_per_factor_not_per_product(self, e6):
    # the E6 cube has 19,683 elements; the tensor holds only the factors'
    # own 27-entry columns, and the factor's f columns are the lowering
    # steps of the orbit graph as given; the fold columns of a node are
    # the factors' eps and phi columns, right to left
    c = MinusculeCrystal(e6, 1)
    assert c._f == e6.orbit_graph((1, 0, 0, 0, 0, 0))[1]
    t = tensor_crystal(c, c, c)
    for i in range(1, 7):
      eps = [c.eps(b, i) for b in c.indices()]
      phi = [c.phi(b, i) for b in c.indices()]
      assert t._columns[i - 1] == ((2, eps, phi), (1, eps, phi),
                                   (0, eps, phi))
      for k in range(3):
        assert t._e[i - 1][k] is c._e[i - 1]
        assert t._f[i - 1][k] is c._f[i - 1]


class TestHighestWeightComponent:

  def test_a2_square_decomposition(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    sym = highest_weight_component(t, (2, 0))
    alt = highest_weight_component(t, (0, 1))
    assert len(sym) == 6
    assert len(alt) == 3
    assert len(sym) + len(alt) == len(t)

  def test_canonical_paths(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    comp = highest_weight_component(t, (2, 0))
    assert comp.paths[0] == ()
    for k in range(1, len(comp)):
      # walking the canonical path right to left by lowering reproduces
      # the element from the highest weight element
      b = comp.hw
      for i in reversed(comp.paths[k]):
        b = t.f(b, i)
      assert b == comp.elements[k]

  def test_order_by_depth_then_path(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    comp = highest_weight_component(t, (2, 0))
    keys = [(len(p), p) for p in comp.paths]
    assert keys == sorted(keys)

  def test_rejects_non_highest(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    lowered = t.f(comp_hw(t), 1)
    with pytest.raises(ValueError):
      HighestWeightComponent(t, lowered)

  def test_eps_phi_are_string_lengths_a2(self, a2):
    c = MinusculeCrystal(a2, 1)
    comp = highest_weight_component(tensor_crystal(c, c, c), (3, 0))
    _assert_string_lengths(comp)
    # V(3 omega_1) has i-strings of length 3, so 0/1 answers would fail
    assert max(comp.phi(b, 1) for b in comp.indices()) == 3

  def test_eps_phi_are_string_lengths_e6(self, suite):
    _assert_string_lengths(suite.component)

  def test_missing_weight_rejected(self, a2):
    c = MinusculeCrystal(a2, 1)
    t = tensor_crystal(c, c)
    # no element of the weight, and elements of the weight but none highest
    for wt in ((5, 5), (0, -2)):
      with pytest.raises(ValueError, match="no highest weight element"):
        highest_weight_component(t, wt)


class TestNodeRange:
  """A node outside 1..rank is a ValueError in every public operator; node
  0 used to read the last node's column."""

  def test_table_crystals(self):
    a3 = build("A", 3)
    c = MinusculeCrystal(a3, 1)
    comp = highest_weight_component(tensor_crystal(c, c), (2, 0, 0))
    for crys in (c, comp):
      for op in (crys.e, crys.f, crys.eps, crys.phi):
        for i in (0, 4, -1):
          with pytest.raises(ValueError, match="node"):
            op(0, i)

  def test_tensor_crystal(self):
    c = MinusculeCrystal(build("A", 3), 1)
    t = tensor_crystal(c, c)
    assert t.eps((3, 3), 3) == 2
    for op in (t.e, t.f, t.eps, t.phi):
      for i in (0, 4, -1):
        with pytest.raises(ValueError, match="node"):
          op((3, 3), i)

  def test_component_element_length(self):
    # (0,) used to give a 4-element "component"
    c = MinusculeCrystal(build("A", 3), 1)
    t = tensor_crystal(c, c)
    for hw in ((0,), (0, 0, 0)):
      with pytest.raises(ValueError, match="one entry per factor"):
        HighestWeightComponent(t, hw)


class TestTableElement:
  """An element of a table crystal is an index in range(len(crystal));
  anything else is a ValueError in every public operator, of a minuscule
  crystal and of a highest weight component alike."""

  @pytest.fixture(params=("minuscule", "component"))
  def crys(self, request):
    c = MinusculeCrystal(build("A", 3), 1)
    if request.param == "minuscule":
      return c
    return highest_weight_component(tensor_crystal(c, c), (2, 0, 0))

  def test_negative_index_in_wt(self, crys):
    # used to return the weight of the last element, (0, 0, -1) on B(w1)
    with pytest.raises(ValueError, match="not in range"):
      crys.wt(-1)

  def test_negative_index_in_f(self, crys):
    # used to return f_1 of the last element, None
    with pytest.raises(ValueError, match="not in range"):
      crys.f(-1, 1)

  def test_index_past_the_end_in_wt(self, crys):
    # used to raise IndexError
    with pytest.raises(ValueError, match="not in range"):
      crys.wt(len(crys))

  def test_every_public_operator_checks(self, crys):
    assert crys.wt(len(crys) - 1) == crys.weights[-1]
    for b in (-1, len(crys), len(crys) + 5, 1.5, None):
      with pytest.raises(ValueError, match="not in range"):
        crys.wt(b)
      for op in (crys.e, crys.f, crys.eps, crys.phi):
        with pytest.raises(ValueError, match="not in range"):
          op(b, 1)


class TestTensorElement:
  """A tensor element is one index per factor, each in that factor's range;
  anything else is a ValueError in every public operator.  Each case below
  used to give a wrong answer or an IndexError."""

  @pytest.fixture
  def t(self):
    c = MinusculeCrystal(build("A", 3), 1)
    return tensor_crystal(c, c)

  def test_too_long_element_in_eps(self, t):
    # used to return 0, reading only (0, 3)
    with pytest.raises(ValueError, match="one entry per factor"):
      t.eps((0, 3, 3), 1)

  def test_out_of_range_entry_in_f(self, t):
    # used to return (1, 0, 9)
    with pytest.raises(ValueError, match="one entry per factor"):
      t.f((0, 0, 9), 1)

  def test_negative_entry_in_wt(self, t):
    # used to return (1, 0, -1), the weight of (3, 0)
    with pytest.raises(ValueError, match="one entry per factor"):
      t.wt((-1, 0))

  def test_too_short_element_in_eps(self, t):
    # used to raise IndexError
    with pytest.raises(ValueError, match="one entry per factor"):
      t.eps((0,), 1)

  def test_every_public_operator_checks(self, t):
    for b in ((0,), (0, 0, 0), (4, 0), (0, -1), (0, 1.5)):
      with pytest.raises(ValueError, match="one entry per factor"):
        t.wt(b)
      for op in (t.e, t.f, t.eps, t.phi):
        with pytest.raises(ValueError, match="one entry per factor"):
          op(b, 1)

  def test_component_rejects_out_of_range_hw(self, t):
    with pytest.raises(ValueError, match="one entry per factor"):
      HighestWeightComponent(t, (0, 4))


def comp_hw(t):
  for b in t.elements():
    if all(t.eps(b, i) == 0 for i in range(1, t.rank + 1)):
      if t.wt(b) == (2, 0):
        return b
  raise AssertionError


def _string_length(step, b, i):
  """How many times step(., i) applies from b before it gives None."""
  n = 0
  b = step(b, i)
  while b is not None:
    n += 1
    b = step(b, i)
  return n


def _assert_string_lengths(comp):
  for b in comp.indices():
    for i in range(1, comp.rank + 1):
      assert comp.eps(b, i) == _string_length(comp.e, b, i), (b, i)
      assert comp.phi(b, i) == _string_length(comp.f, b, i), (b, i)


# -- the seed's recursive signature rule, kept as an oracle ------------------

def _oracle_suffix(t, b, i, pos):
  """Aggregated (eps, phi) of factors pos..end, by recursion."""
  if pos == len(t.factors):
    return (0, 0)
  e1 = t.factors[pos].eps(b[pos], i)
  p1 = t.factors[pos].phi(b[pos], i)
  e2, p2 = _oracle_suffix(t, b, i, pos + 1)
  return (e1 + max(0, e2 - p1), p2 + max(0, p1 - e2))


def _oracle_step(t, b, i, raising):
  for pos in range(len(t.factors)):
    p1 = t.factors[pos].phi(b[pos], i)
    e2 = _oracle_suffix(t, b, i, pos + 1)[0]
    if (p1 >= e2) if raising else (p1 > e2):
      factor = t.factors[pos]
      img = factor.e(b[pos], i) if raising else factor.f(b[pos], i)
      return None if img is None else b[:pos] + (img,) + b[pos + 1:]
  return None


def _factor(sys, spec):
  """The minuscule crystal of a node, or for (weight, nodes) the component
  of that highest weight in the tensor of those minuscule crystals."""
  if isinstance(spec, int):
    return MinusculeCrystal(sys, spec)
  wt, nodes = spec
  return highest_weight_component(
      tensor_crystal(*[MinusculeCrystal(sys, r) for r in nodes]), wt)


# (family, rank, factors as _factor specs): powers of omega_1, factors of
# unequal sizes (10, 16 and 16 elements), the E7 square, and components as
# left factors: the 6-element A2 component V(2 omega_1) and the 120-element
# D5 component V(omega_3) of V(omega_5)^2
_ORACLE_TENSORS = (("A", 2, (1, 1, 1)), ("E", 6, (1, 1)), ("D", 5, (1, 5, 4)),
                   ("E", 7, (7, 7)), ("A", 2, (((2, 0), (1, 1)), 1)),
                   ("D", 5, (((0, 0, 1, 0, 0), (5, 5)), 5)))


@pytest.mark.parametrize("family,rank,nodes", _ORACLE_TENSORS,
                         ids=["A-2-3", "E-6-2", "D-5-1,5,4", "E-7-7,7",
                              "A-2-V(2,0),1", "D-5-V(0,0,1,0,0),5"])
def test_tensor_operators_match_recursive_oracle(family, rank, nodes):
  sys = build(family, rank)
  t = tensor_crystal(*[_factor(sys, spec) for spec in nodes])
  for b in t.elements():
    for i in range(1, rank + 1):
      assert (t.eps(b, i), t.phi(b, i)) == _oracle_suffix(t, b, i, 0)
      assert t.e(b, i) == _oracle_step(t, b, i, True)
      assert t.f(b, i) == _oracle_step(t, b, i, False)


# -- the kernel that folded over the factors by index, kept as an oracle -----

# (family, rank, factors as _factor specs, highest weight element or None
# for all of them): the 2925-element component V(omega_4) of the paper's E6
# cube, the quick tensor crystals but the E6 square, and the D5 component
# V(omega_3) of V(omega_5)^2 as a left factor
_KERNEL_TENSORS = (("E", 6, (1, 1, 1), (0, 1, 2)), ("E", 7, (7, 7), None),
                   ("D", 5, (5, 5, 5), None), ("A", 4, (2, 2, 2), None),
                   ("D", 5, (((0, 0, 1, 0, 0), (5, 5)), 5), None))


@pytest.mark.parametrize("family,rank,nodes,hw", _KERNEL_TENSORS,
                         ids=["E-6-1,1,1", "E-7-7,7", "D-5-5,5,5", "A-4-2,2,2",
                              "D-5-V(0,0,1,0,0),5"])
def test_kernel_matches_fold_by_index(family, rank, nodes, hw):
  sys = build(family, rank)
  t = tensor_crystal(*[_factor(sys, spec) for spec in nodes])
  oracle = OracleTensor(t.factors)
  highest = [hw] if hw else [
      b for b in t.elements()
      if not any(oracle.fold(b, i, False)[0] for i in range(1, rank + 1))]
  components = [HighestWeightComponent(t, hw) for hw in highest]
  assert sum(map(len, components)) == (2925 if hw else len(t))
  for comp in components:
    elements, paths, weights, f = component(oracle, comp.hw)
    assert (comp.elements, comp.paths, comp.weights) == (elements, paths,
                                                         weights)
    e, eps, phi = string_tables(f, len(elements))
    assert (comp._f, comp._e) == (f, e)
    for i in range(1, rank + 1):
      assert [comp.eps(b, i) for b in comp.indices()] == eps[i - 1]
      assert [comp.phi(b, i) for b in comp.indices()] == phi[i - 1]
    for b in elements:
      for i in range(1, rank + 1):
        assert (t.eps(b, i), t.phi(b, i)) == oracle.fold(b, i, False)[:2]
        assert t.e(b, i) == oracle.step(b, i, True)
        assert t.f(b, i) == oracle.step(b, i, False)


# -- the seed constructions, kept as oracles ----------------------------------

def _reflection_matrix(sys, i):
  """s_i acting on fundamental-weight coordinates."""
  n = sys.rank
  return tuple(tuple(int(j == k) - (sys.cartan[j][i - 1] if k == i - 1 else 0)
                     for k in range(n)) for j in range(n))


def _matmul(a, b):
  return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
               for row in a)


def _matrix_coset_reps(sys, J):
  """The seed's minimal coset representatives for W / W_J, as (matrix,
  reduced word) pairs in breadth-first order: a search that lowers rho_J one
  simple reflection at a time and multiplies the Weyl-group matrices."""
  n = sys.rank
  lam = tuple(0 if i in J else 1 for i in range(1, n + 1))
  start = (tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), ())
  seen = {lam}
  order = [start]
  frontier = [(lam, start)]
  while frontier:
    nxt = []
    for mu, (mat, word) in frontier:
      for i in range(1, n + 1):
        if mu[i - 1] > 0:
          nu = sys.reflect(i, mu)
          if nu not in seen:
            w = (_matmul(_reflection_matrix(sys, i), mat), (i,) + word)
            seen.add(nu)
            order.append(w)
            nxt.append((nu, w))
    frontier = nxt
  return order


def _seed_minuscule(sys, r):
  """The minuscule crystal on the minimal coset representatives W^J (J the
  node complement): s_i w is f_i w when it is longer, e_i w when shorter.
  Returns weights, e_table, f_table and the 0/1 eps and phi."""
  elements = _matrix_coset_reps(sys, set(range(1, sys.rank + 1)) - {r})
  index = {mat: k for k, (mat, _) in enumerate(elements)}
  omega = tuple(int(i == r - 1) for i in range(sys.rank))
  reflections = [_reflection_matrix(sys, i) for i in range(1, sys.rank + 1)]
  e_table, f_table = {}, {}
  for k, (mat, word) in enumerate(elements):
    for i, s in enumerate(reflections, 1):
      j = index.get(_matmul(s, mat))
      if j is None:
        continue
      if len(elements[j][1]) > len(word):
        f_table[(k, i)] = j
      else:
        e_table[(k, i)] = j
  keys = [(b, i) for b in range(len(elements))
          for i in range(1, sys.rank + 1)]
  return ([tuple(sum(x * y for x, y in zip(row, omega)) for row in mat)
           for mat, _ in elements], e_table, f_table,
          {key: int(key in e_table) for key in keys},
          {key: int(key in f_table) for key in keys})


def _seed_component(tensor, hw):
  """The seed's component builder: breadth-first by f, the canonical node
  and parent of each new element found by e, then both tables by f and e.
  Returns elements, paths, weights, e_table, f_table, eps and phi, the last
  two read from the tensor crystal."""
  rank = tensor.rank
  paths = {hw: ()}
  frontier = [hw]
  while frontier:
    nxt = []
    for b in frontier:
      for i in range(1, rank + 1):
        c = tensor.f(b, i)
        if c is not None and c not in paths:
          istar = min(j for j in range(1, rank + 1)
                      if tensor.e(c, j) is not None)
          paths[c] = (istar,) + paths[tensor.e(c, istar)]
          nxt.append(c)
    frontier = nxt
  order = sorted(paths, key=lambda b: (len(paths[b]), paths[b]))
  index = {b: k for k, b in enumerate(order)}
  e_table, f_table = {}, {}
  for k, b in enumerate(order):
    for i in range(1, rank + 1):
      for op, table in ((tensor.f, f_table), (tensor.e, e_table)):
        c = op(b, i)
        if c is not None and c in index:
          table[(k, i)] = index[c]
  keys = [(k, i) for k in range(len(order)) for i in range(1, rank + 1)]
  return (order, [paths[b] for b in order], [tensor.wt(b) for b in order],
          e_table, f_table,
          {(k, i): tensor.eps(order[k], i) for k, i in keys},
          {(k, i): tensor.phi(order[k], i) for k, i in keys})


def _tables(crys):
  """e, f, eps and phi of a table crystal, read through its operators as
  the seed's {(b, i): value} dicts; e and f omit the None values."""
  keys = [(b, i) for b in crys.indices() for i in range(1, crys.rank + 1)]
  return tuple({key: value for key in keys
                if (value := op(*key)) is not None}
               for op in (crys.e, crys.f, crys.eps, crys.phi))


def _minuscule_nodes():
  for family, ranks in (("A", range(1, 9)), ("B", range(2, 7)),
                        ("C", range(2, 7)), ("D", range(4, 8)),
                        ("E", (6, 7))):
    for rank in ranks:
      sys = build(family, rank)
      for r in range(1, rank + 1):
        if sys.is_minuscule(r):
          yield sys, r


def test_minuscule_crystals_match_seed_coset_build():
  nodes = list(_minuscule_nodes())
  assert len(nodes) == 61
  for sys, r in nodes:
    c = MinusculeCrystal(sys, r)
    got = (c.weights,) + _tables(c)
    assert got == _seed_minuscule(sys, r), (sys.ctype, r)


_COSET_TYPES = ([("A", n) for n in range(1, 6)] + [("B", n) for n in (2, 3, 4)]
                + [("C", n) for n in (2, 3, 4)] + [("D", 4), ("D", 5), ("F", 4),
                                                   ("G", 2)])


@pytest.mark.parametrize("family,rank", _COSET_TYPES,
                         ids=["%s%d" % t for t in _COSET_TYPES])
def test_coset_words_match_matrix_search(family, rank):
  sys = build(family, rank)
  nodes = set(range(1, rank + 1))
  for J in (set(), nodes - {1}, nodes - {rank}, {1}):
    words = [word for _, word in _matrix_coset_reps(sys, J)]
    assert minimal_coset_reps(sys, J) == words, J


# the tensor crystals (family, rank, minuscule node, copies) of the quick
# benchmark workload
_QUICK_CRYSTALS = (("E", 6, 1, 2), ("E", 7, 7, 2), ("D", 5, 5, 3),
                   ("A", 4, 2, 3))


def _assert_matches_seed_component(comp):
  got = (comp.elements, comp.paths, comp.weights) + _tables(comp)
  assert got == _seed_component(comp.tensor, comp.hw), comp.hw


@pytest.mark.parametrize("family,rank,node,copies", _QUICK_CRYSTALS)
def test_components_match_seed_builder(family, rank, node, copies):
  factor = MinusculeCrystal(build(family, rank), node)
  tensor = tensor_crystal(*[factor] * copies)
  highest = [b for b in tensor.elements()
             if all(tensor.eps(b, i) == 0 for i in range(1, rank + 1))]
  components = [HighestWeightComponent(tensor, hw) for hw in highest]
  assert sum(len(comp) for comp in components) == len(tensor)
  for comp in components:
    _assert_matches_seed_component(comp)


@pytest.mark.parametrize("family,rank,node,copies", _QUICK_CRYSTALS)
def test_component_weights_are_tensor_weights(family, rank, node, copies):
  # each weight is built from the parent's, one factor weight swapped
  factor = MinusculeCrystal(build(family, rank), node)
  tensor = tensor_crystal(*[factor] * copies)
  for hw in tensor.elements():
    if all(tensor.eps(hw, i) == 0 for i in range(1, rank + 1)):
      comp = HighestWeightComponent(tensor, hw)
      assert comp.weights == [tensor.wt(b) for b in comp.elements]


def test_e6_component_matches_seed_builder(suite):
  _assert_matches_seed_component(suite.component)


def test_e6_highest_element_is_the_scanned_one(suite):
  # the suite builds its component from the keys of its highest weight
  # vector; the scan for the least highest element of weight omega_4 finds
  # the same element
  tensor = tensor_crystal(*[suite.crys1] * 3)
  assert suite.component.hw == highest_weight_component(tensor, OMEGA4).hw
  assert suite.component.hw == (0, 1, 2)
  assert suite.hw_vec == SparseVector.unit(suite.component.hw)


def _seed_elements(tensor):
  """The seed's enumerator, kept as an oracle: every code below the product
  of the factor sizes, written in mixed radix with the leftmost factor
  slowest."""
  sizes = [len(f) for f in tensor.factors]
  total = 1
  for s in sizes:
    total *= s
  for code in range(total):
    out = []
    c = code
    for s in reversed(sizes):
      out.append(c % s)
      c //= s
    yield tuple(reversed(out))


# the quick crystals, A2 V(omega_1)^3, and factors of unequal sizes
_ENUMERATED = tuple((f, n, (r,) * k) for f, n, r, k in _QUICK_CRYSTALS) + (
    ("A", 2, (1, 1, 1)), ("D", 5, (1, 5, 4)))


@pytest.mark.parametrize("family,rank,nodes", _ENUMERATED)
def test_elements_match_seed_enumerator(family, rank, nodes):
  sys = build(family, rank)
  tensor = tensor_crystal(*[MinusculeCrystal(sys, r) for r in nodes])
  got = list(tensor.elements())
  assert got == list(_seed_elements(tensor))
  assert len(tensor) == len(got) == len(set(got))


def test_component_calls_f_once_per_element_and_node():
  factor = MinusculeCrystal(build("D", 5), 5)
  tensor = tensor_crystal(factor, factor, factor)
  calls = {"e": 0, "f": 0}
  step = tensor._step

  def counted(b, i, raising):
    # the step behind the public e and f, which the search calls unchecked
    calls["e" if raising else "f"] += 1
    return step(b, i, raising)

  tensor._step = counted
  comp = HighestWeightComponent(tensor, (0, 0, 0))
  assert len(comp) == 672
  assert calls == {"e": 0, "f": len(comp) * 5}


def _oracle_least_highest(tensor):
  """The seed's full scan: for each weight, the least element of that
  weight with every eps zero."""
  least = {}
  for b in tensor.elements():
    if all(tensor.eps(b, i) == 0 for i in range(1, tensor.rank + 1)):
      wt = tensor.wt(b)
      if wt not in least or b < least[wt]:
        least[wt] = b
  return least


@pytest.mark.parametrize("family,rank,node,copies",
                         _QUICK_CRYSTALS + (("E", 6, 1, 3),))
def test_highest_weight_component_is_least_element(family, rank, node,
                                                   copies):
  factor = MinusculeCrystal(build(family, rank), node)
  tensor = tensor_crystal(*[factor] * copies)
  least = _oracle_least_highest(tensor)
  assert len(least) > 1
  for wt, hw in least.items():
    assert highest_weight_component(tensor, wt).hw == hw
