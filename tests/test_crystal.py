import pytest

from twistedlie.crystal import (HighestWeightComponent,
                                MinusculeCrystal,
                                highest_weight_component, tensor_crystal)
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


@pytest.mark.parametrize("family,rank,copies", [("A", 2, 3), ("E", 6, 2)])
def test_tensor_operators_match_recursive_oracle(family, rank, copies):
  c = MinusculeCrystal(build(family, rank), 1)
  t = tensor_crystal(*([c] * copies))
  for b in t.elements():
    for i in range(1, rank + 1):
      assert (t.eps(b, i), t.phi(b, i)) == _oracle_suffix(t, b, i, 0)
      assert t.e(b, i) == _oracle_step(t, b, i, True)
      assert t.f(b, i) == _oracle_step(t, b, i, False)


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


def _eps_phi(crys):
  keys = [(b, i) for b in crys.indices() for i in range(1, crys.rank + 1)]
  return ({key: crys.eps(*key) for key in keys},
          {key: crys.phi(*key) for key in keys})


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
    got = (c.weights, c.e_table, c.f_table) + _eps_phi(c)
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
  got = ((comp.elements, comp.paths, comp.weights, comp.e_table,
          comp.f_table) + _eps_phi(comp))
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


def test_e6_component_matches_seed_builder(suite):
  _assert_matches_seed_component(suite.component)


def test_component_calls_f_once_per_element_and_node():
  factor = MinusculeCrystal(build("D", 5), 5)
  tensor = tensor_crystal(factor, factor, factor)
  calls = {"e": 0, "f": 0}

  def counted(op, step):
    def wrapped(b, i):
      calls[op] += 1
      return step(b, i)
    return wrapped

  tensor.e = counted("e", tensor.e)
  tensor.f = counted("f", tensor.f)
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
