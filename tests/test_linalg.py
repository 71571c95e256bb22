from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linalg_fixture import (echelon_solver, independent, inverse,
                            scan_append_row, scan_pivot_inverse, scan_rank,
                            span_solver)
from linalg_fixture import smith_invariant_factors as smith_oracle

from twistedlie import linalg
from twistedlie.folding import Folding
from twistedlie.linalg import (GaussianRational, SparseVector,
                               ZERO_VECTOR, i_power, integer_inverse,
                               normalize_scalar, rank,
                               smith_invariant_factors)
from twistedlie.rootsystem import CartanType, cartan_matrix


# -- dense fraction-free (Bareiss) rank: the reference for ``rank`` ------------

def _clear_denominators(row, gaussian):
  lcm = 1
  for v in row:
    if isinstance(v, GaussianRational):
      d = v.re.denominator * v.im.denominator // gcd(v.re.denominator,
                                                     v.im.denominator)
    else:
      d = Fraction(v).denominator
    lcm = lcm * d // gcd(lcm, d)
  if gaussian:
    return [GaussianRational(v.re * lcm, v.im * lcm)
            if isinstance(v, GaussianRational)
            else GaussianRational(Fraction(v) * lcm) for v in row]
  return [int(Fraction(v) * lcm) for v in row]


def _exact_div(num, den, gaussian):
  if gaussian:
    return num / den
  q, rem = divmod(num, den)
  assert not rem, "non-exact division in fraction-free elimination"
  return q


def bareiss_rank(vectors):
  """Rank by dense Bareiss elimination over the integers, or over the
  Gaussian integers for Q(i) input, after clearing denominators row by row
  (Bareiss, Math. Comp. 22, 1968)."""
  vecs = [v for v in vectors if v]
  if not vecs:
    return 0
  gaussian = any(isinstance(c, GaussianRational)
                 for v in vecs for _, c in v.items())
  keys = sorted(set().union(*[v.support() for v in vecs]))
  col_of = {k: c for c, k in enumerate(keys)}
  rows = []
  for v in vecs:
    row = [0] * len(keys)
    for k, val in v.items():
      row[col_of[k]] = val
    rows.append(_clear_denominators(row, gaussian))
  n_rows, n_cols = len(rows), len(keys)
  r = 0
  prev = GaussianRational(1) if gaussian else 1
  for c in range(n_cols):
    pivot_row = next((rr for rr in range(r, n_rows) if rows[rr][c]), None)
    if pivot_row is None:
      continue
    rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
    piv = rows[r][c]
    for rr in range(r + 1, n_rows):
      lead = rows[rr][c]
      for cc in range(c, n_cols):
        rows[rr][cc] = _exact_div(piv * rows[rr][cc] - lead * rows[r][cc],
                                  prev, gaussian)
    prev = piv
    r += 1
    if r == n_rows:
      break
  return r


_SMALL = st.integers(min_value=-3, max_value=3)
_SCALARS = {
    "int": _SMALL,
    "fraction": st.builds(Fraction, _SMALL,
                          st.integers(min_value=1, max_value=4)),
    "gaussian": st.builds(GaussianRational,
                          st.builds(Fraction, _SMALL,
                                    st.integers(min_value=1, max_value=3)),
                          st.integers(min_value=-2, max_value=2)),
}
_RATIONAL_KINDS = ("fraction", "int")


#: The Mersenne prime 2**61 - 1: a basis vector shifted by it at one key is
#: independent over Q but dependent modulo the prime.
_P61 = (1 << 61) - 1


@st.composite
def _matrices(draw, kind):
  """Wide, square and tall matrices of one scalar kind, often with sparse
  rows and with rows that are combinations of earlier ones."""
  n_rows = draw(st.integers(min_value=1, max_value=7))
  n_cols = draw(st.integers(min_value=1, max_value=7))
  entry = st.one_of(st.just(0), _SCALARS[kind])
  rows = [draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
          for _ in range(n_rows)]
  for r in range(1, n_rows):
    if draw(st.booleans()):
      a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
      ca, cb = draw(_SCALARS[kind]), draw(_SCALARS[kind])
      rows[r] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
  if kind == "gaussian":
    rows = [[GaussianRational(x) if not isinstance(x, GaussianRational)
             else x for x in row] for row in rows]
  return [SparseVector(enumerate(row)) for row in rows]


# (family, rank) of every type that the perfbench quick workload queries with
# rootsys, and the six folding data at the ranks it queries with fold.
_CARTAN_TYPES = (
    [("A", n) for n in range(1, 9)] + [("B", n) for n in range(2, 7)]
    + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(4, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
_FOLDINGS = ([("A", n, 2) for n in (3, 5, 7, 9)]
             + [("A", n, 4) for n in (2, 4, 6, 8)]
             + [("D", n, 2) for n in (4, 5, 6, 7)]
             + [("D", 4, 3), ("E", 6, 2)])


def _times(a, b):
  n = len(b)
  return tuple(tuple(sum(Fraction(a[i][k]) * b[k][j] for k in range(n))
                     for j in range(n)) for i in range(len(a)))


def _identity(n):
  return tuple(tuple(Fraction(int(i == j)) for j in range(n))
               for i in range(n))


class TestGaussianRational:

  def test_arithmetic(self):
    a = GaussianRational(1, 2)
    b = GaussianRational(Fraction(1, 2), -1)
    assert a + b == GaussianRational(Fraction(3, 2), 1)
    assert a - b == GaussianRational(Fraction(1, 2), 3)
    assert a * b == GaussianRational(Fraction(5, 2), 0)
    assert (a / b) * b == a

  def test_i_squares_to_minus_one(self):
    assert i_power(1) * i_power(1) == GaussianRational(-1)

  def test_conjugate_and_norm(self):
    a = GaussianRational(3, -4)
    assert a.norm() == 25
    assert a * GaussianRational(a.re, -a.im) == a.norm()

  def test_i_power_cycle(self):
    assert [i_power(k) for k in range(4)] == [
        GaussianRational(1), GaussianRational(0, 1), GaussianRational(-1),
        GaussianRational(0, -1)]
    assert i_power(-1) == i_power(3)
    assert i_power(10**9) == i_power(0)

  def test_mixing_with_ints(self):
    assert GaussianRational(2) + 3 == GaussianRational(5)
    assert 2 * i_power(1) == GaussianRational(0, 2)

  def test_bool_and_zero(self):
    assert not GaussianRational(0, 0)
    assert GaussianRational(0, 1)


class TestSparseVector:

  def test_unit_and_get(self):
    v = SparseVector.unit("x")
    assert v.get("x") == 1
    assert v.get("y") == 0

  def test_no_zero_entries_stored(self):
    v = SparseVector({"a": 1, "b": 0})
    assert set(v.support()) == {"a"}

  def test_addition_cancels(self):
    v = SparseVector({"a": 1}) - SparseVector({"a": 1})
    assert not v
    assert v == ZERO_VECTOR

  def test_scale(self):
    v = SparseVector({"a": 2, "b": -3}).scale(Fraction(1, 2))
    assert v.get("a") == 1
    assert v.get("b") == Fraction(-3, 2)

  def test_canonical_sorted(self):
    v = SparseVector({"b": 1, "a": 2})
    assert v.canonical() == (("a", 2), ("b", 1))

  def test_hashable(self):
    assert len({SparseVector({"a": 1}), SparseVector({"a": 1})}) == 1


class TestRank:

  def test_empty(self):
    assert rank([]) == 0
    assert rank([ZERO_VECTOR]) == 0

  def test_dependent_triple(self):
    a = SparseVector({0: 1, 1: 2})
    b = SparseVector({0: 3, 1: 4})
    c = a + b
    assert rank([a, b, c]) == 2

  def test_gaussian_pair(self):
    a = SparseVector({0: GaussianRational(1), 1: i_power(1)})
    b = a.scale(i_power(1))
    assert rank([a, b]) == 1

  def test_fractional_entries(self):
    a = SparseVector({0: Fraction(1, 2), 1: Fraction(1, 3)})
    b = SparseVector({0: 3, 1: 2})
    assert rank([a, b]) == 1

  def test_mixed_scalars_rejected(self):
    a = SparseVector({0: Fraction(1, 2)})
    b = SparseVector({0: i_power(1)})
    with pytest.raises(TypeError):
      rank([a, b])

  def test_order_independent(self):
    vecs = [SparseVector({0: 2, 1: 1}), SparseVector({1: 5}),
            SparseVector({0: 4, 1: 7})]
    assert rank(vecs) == rank(list(reversed(vecs))) == 2

  @pytest.mark.parametrize("kind", sorted(_SCALARS))
  @settings(max_examples=200, deadline=None)
  @given(data=st.data())
  def test_equals_bareiss(self, kind, data):
    vectors = data.draw(_matrices(kind))
    assert rank(vectors) == bareiss_rank(vectors)

  def test_stops_at_full_column_rank(self):
    vecs = [SparseVector({0: 1}), SparseVector({0: 2}), SparseVector({1: 1}),
            SparseVector({0: 3, 1: 5})]
    assert rank(vecs) == bareiss_rank(vecs) == 2


def _fraction_rows(inv):
  """(rows, den) as the Fraction matrix it stands for."""
  rows, den = inv
  return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


class TestInverse:
  """M M^-1 = I for ``integer_inverse``, on int matrices and on Fraction
  ones."""

  @pytest.mark.parametrize("family,n", _CARTAN_TYPES)
  def test_cartan_matrices(self, family, n):
    cartan = cartan_matrix(CartanType(family, n))
    inv = _fraction_rows(integer_inverse(cartan))
    assert _times(cartan, inv) == _identity(n)
    assert _times(inv, cartan) == _identity(n)

  @pytest.mark.parametrize("family,n,m", _FOLDINGS)
  def test_folding_projection_matrices(self, family, n, m):
    # the projection C_H Q^{-1} of a folding: the inverses of Q and of C_H,
    # and the inverse of their product is their product reversed
    datum = Folding(family, n, m)
    ell = datum.ell
    q, hcartan = datum._q, cartan_matrix(datum.weight_ctype)
    qinv = _fraction_rows(integer_inverse(q))
    hinv = _fraction_rows(integer_inverse(hcartan))
    for mat, inv in ((q, qinv), (hcartan, hinv)):
      assert _times(mat, inv) == _times(inv, mat) == _identity(ell)
    mat = _fraction_rows(datum._projection)
    assert mat == _times(hcartan, qinv)
    inv = _fraction_rows(integer_inverse(mat))
    assert _times(mat, inv) == _identity(ell)
    assert inv == _times(q, hinv)

  def test_singular_rejected(self):
    with pytest.raises(ValueError, match="singular"):
      integer_inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="singular"):
      integer_inverse(((0, 0), (0, 1)))

  def test_non_square_rejected(self):
    with pytest.raises(ValueError, match="square"):
      integer_inverse(((1, 0, 0), (0, 1, 0)))


class TestIntegerInverse:
  """``integer_inverse`` against ``inverse``, the standalone Fraction
  echelon of linalg_fixture."""

  @staticmethod
  def _check(matrix):
    rows, den = got = integer_inverse(matrix)
    want = inverse(matrix)
    assert _fraction_rows(got) == want
    assert den == lcm(*(c.denominator for row in want for c in row))
    assert all(type(x) is int for row in rows for x in row)

  @pytest.mark.parametrize("family,n", _CARTAN_TYPES)
  def test_cartan_matrices(self, family, n):
    self._check(cartan_matrix(CartanType(family, n)))

  @settings(max_examples=100, deadline=None)
  @given(_matrices("int"), _matrices("fraction"))
  def test_random_matrices(self, ints, fractions):
    for vecs in (ints, fractions):
      n = max(len(vecs), 1 + max((k for v in vecs for k in v.keys()),
                                 default=0))
      matrix = [[v.get(k) for k in range(n)] for v in vecs]
      matrix += [[int(i == k) for k in range(n)]
                 for i in range(len(matrix), n)]
      if rank([SparseVector(enumerate(row)) for row in matrix]) < n:
        with pytest.raises(ValueError, match="singular"):
          integer_inverse(matrix)
      else:
        self._check(matrix)

  def test_prime_shifted_and_wide_denominator_matrices(self):
    # independent over Q yet dependent modulo the prime 2**61 - 1, and an
    # inverse entry 1/q with q above 2**30
    q = (1 << 31) - 1
    for matrix in (((1, 1), (1, 1 + _P61)), ((q, 0), (0, 1))):
      self._check(matrix)
    assert integer_inverse(((1, 1), (1, 1 + _P61)))[1] == _P61

  def test_rejects_singular_and_non_square(self):
    with pytest.raises(ValueError, match="singular"):
      integer_inverse(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="square"):
      integer_inverse(((1, 0, 0), (0, 1, 0)))

  def test_rejects_float_and_gaussian_entries(self):
    with pytest.raises(TypeError, match="float"):
      integer_inverse([[0.5, 0], [0, 1]])
    with pytest.raises(TypeError, match="rational"):
      integer_inverse([[i_power(1), 0], [0, i_power(0)]])


class TestSpanSolver:

  def test_coordinates(self):
    a = SparseVector({"x": 1, "y": 2})
    b = SparseVector({"y": Fraction(1, 2), "z": 1})
    solve = span_solver([a, b])
    target = a.scale(3) + b.scale(Fraction(-2, 3))
    assert solve(target) == [3, Fraction(-2, 3)]
    assert solve(ZERO_VECTOR) == [0, 0]

  def test_outside_span_is_none(self):
    solve = span_solver([SparseVector({"x": 1, "y": 2}),
                         SparseVector({"y": 1, "z": 1})])
    assert solve(SparseVector({"x": 1})) is None
    assert solve(SparseVector({"w": 1})) is None

  def test_gaussian_coordinates(self):
    # no coordinates over Q(i): a Gaussian basis or target is rejected
    a = SparseVector({0: GaussianRational(1), 1: i_power(1)})
    b = SparseVector({1: GaussianRational(2, 1)})
    with pytest.raises(TypeError, match="Gaussian"):
      span_solver([a, b])
    target = SparseVector({0: i_power(1)})
    for basis in ([{0: 1}], [{0: 1, 1: 1}]):
      with pytest.raises(TypeError):
        span_solver([SparseVector(v) for v in basis])(target)

  def test_dependent_basis_rejected(self):
    a = SparseVector({0: 1, 1: 2})
    with pytest.raises(ValueError, match="dependent"):
      span_solver([a, a.scale(Fraction(1, 3))])

  def test_float_and_mixed_bases_rejected(self):
    with pytest.raises(TypeError, match="float"):
      span_solver([SparseVector({0: 1.5, 1: 1})])
    with pytest.raises(TypeError, match="mix"):
      span_solver([SparseVector({0: 1}), SparseVector({1: i_power(1)})])

  @pytest.mark.parametrize("basis,target", [
      ([{0: 1}], {0: 0.5}),
      ([{0: 2}], {0: 0.5}),
      ([{0: 1, 1: 1}], {0: 0.1, 1: 0.1}),
      ([{0: 2, 1: 2}], {0: 0.1, 1: 0.1}),
      ([{0: 1, 1: 1}], {0: 0.1, 1: 0.2}),
  ], ids=["square-D1", "square-D2", "nonsquare-D1", "nonsquare-D2",
          "nonsquare-outside"])
  def test_float_target_rejected(self, basis, target):
    # a float target is not turned into a binary Fraction, nor answered
    # None by a residual that rounds to zero or not
    solve = span_solver([SparseVector(v) for v in basis])
    with pytest.raises(TypeError, match="float"):
      solve(SparseVector(target))


#: Coordinate scales of the combination targets: 1, and the prime
#: 2**31 - 1, which is prime to every gcd the combinations can have and so
#: puts the numerator of every nonzero coordinate above 2**30.
_COORD_SCALES = (1, (1 << 31) - 1)


@st.composite
def _int_solves(draw):
  """An int basis, independent over Q, with int targets: combinations of
  it with rational coordinates (the combination divided by the gcd of its
  entries) and an arbitrary vector on one key more than the basis uses,
  which mostly lies outside the span.  Basis entries stay small, unless the
  last vector is swapped for the first plus the prime 2**61 - 1 at one key,
  which keeps it independent over Q (``assume``) but makes it dependent
  modulo that prime.  Returns (basis, targets)."""
  n_keys = draw(st.integers(min_value=1, max_value=6))
  entry = st.one_of(st.just(0), _SMALL)
  rows = draw(st.lists(st.lists(entry, min_size=n_keys, max_size=n_keys),
                       min_size=1, max_size=n_keys))
  if len(rows) > 1 and draw(st.booleans()):
    at = draw(st.integers(min_value=0, max_value=n_keys - 1))
    rows[-1] = [x + _P61 * (k == at) for k, x in enumerate(rows[0])]
  basis = [SparseVector(enumerate(row)) for row in rows]
  assume(len(independent(basis)) == len(basis))
  scale = draw(st.sampled_from(_COORD_SCALES))
  targets = []
  for _ in range(draw(st.integers(min_value=1, max_value=3))):
    coeffs = draw(st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=len(rows), max_size=len(rows)))
    combo = [sum(c * row[k] for c, row in zip(coeffs, rows))
             for k in range(n_keys)]
    g = gcd(*combo) or 1
    targets.append(SparseVector(enumerate(x // g * scale for x in combo)))
  targets.append(SparseVector(enumerate(
      draw(st.lists(entry, min_size=n_keys + 1, max_size=n_keys + 1)))))
  return basis, targets


def _check_pivot_inverse(basis):
  """``_pivot_inverse`` is an exact inverse on the pivot keys: with B the
  basis read at those keys, N . B == D * I over the integers."""
  cols, den = linalg._pivot_inverse(basis)
  assert type(den) is int and den > 0
  assert all(type(x) is int for col in cols.values() for _, x in col)
  for b, vec in enumerate(basis):
    y = [0] * len(basis)
    for key, col in cols.items():
      for b2, x in col:
        y[b2] += x * vec.get(key)
    assert y == [den * (b2 == b) for b2 in range(len(basis))]


def _fraction_basis(basis):
  return [SparseVector({k: Fraction(v) for k, v in b.items()})
          for b in basis]


class TestModularSpanSolver:
  """``span_solver`` on int bases against the standalone echelon solve,
  on the inputs that the solver once answered modulo a prime: bases
  dependent modulo 2**61 - 1, coordinates and inverse entries beyond a
  reconstruction bound of 2**30, and Fraction and Gaussian targets."""

  @settings(max_examples=300, deadline=None)
  @given(_int_solves())
  def test_equals_echelon(self, case):
    basis, targets = case
    _check_pivot_inverse(basis)
    exact = echelon_solver(basis)
    solve = span_solver(basis)
    fractions = span_solver(_fraction_basis(basis))
    outside = 0
    for target in targets:
      want = exact(target)
      outside += want is None
      # answered by the inverse alone: the echelon is never reduced
      with mock.patch.object(linalg, "_reduce", side_effect=AssertionError):
        got = solve(target)
        assert fractions(target) == got
      assert got == want
      assert all(type(c) is int or c.denominator > 1 for c in got or ())
    # the combinations lie in the span
    assert outside <= 1
    keys = sorted(set().union(*(v.keys() for v in basis)))
    if len(keys) == len(basis):
      # a square int matrix: integer_inverse reads the same inverse
      TestIntegerInverse._check([[v.get(k) for k in keys] for v in basis])

  def test_independent_over_q_but_dependent_mod_p(self):
    p = _P61
    basis = [SparseVector({0: 1, 1: 1}), SparseVector({0: 1, 1: 1 + p})]
    assert linalg._pivot_inverse(basis)[1] == p
    solve = span_solver(basis)
    assert solve(SparseVector({0: 2, 1: 2 + p})) == [1, 1]
    assert solve(SparseVector({0: 1})) == [Fraction(p + 1, p),
                                           Fraction(-1, p)]
    assert solve(SparseVector({2: 1})) is None

  def test_coordinates_above_the_bound(self):
    basis = [SparseVector({0: 1, 1: 1}), SparseVector({1: 1, 2: 3})]
    solve = span_solver(basis)
    for big in (1 << 31, _P61 + 5, -(1 << 40)):
      target = basis[0].scale(big) + basis[1].scale(3)
      assert solve(target) == [big, 3]
    # an inverse entry 1/q with q above 2**30
    q = (1 << 31) - 1
    basis = [SparseVector({0: q, 1: 2 * q})]
    assert linalg._pivot_inverse(basis)[1] == q
    assert span_solver(basis)(SparseVector({0: 1, 1: 2})) == [Fraction(1, q)]

  def test_outside_the_span_is_checked(self):
    # three support keys, two vectors: the residual check decides
    basis = [SparseVector({0: 1, 1: 2}), SparseVector({1: 1, 2: 1})]
    # agrees with the basis at both pivots, but not at key 2
    target = SparseVector({0: 1, 1: 5})
    assert span_solver(basis)(target) is None
    assert span_solver(basis)(SparseVector({0: 1, 1: 5, 2: 3})) == [1, 3]

  def test_square_basis_needs_no_residual_check(self):
    # two vectors on two keys: a target on those keys is in the span, one
    # with another key is not, and neither is checked against the basis
    basis = [SparseVector({0: 2, 1: 1}), SparseVector({0: 1, 1: 1})]
    cols, den = linalg._pivot_inverse(basis)
    assert set(cols) == {0, 1} and den == 1
    solve = span_solver(basis)
    with mock.patch.object(linalg, "_add_scaled", side_effect=AssertionError):
      assert solve(SparseVector({0: 1})) == [1, -1]
      assert solve(SparseVector({1: 3})) == [-3, 6]
      assert solve(SparseVector({0: 1, 5: 1})) is None
    basis = [SparseVector({0: 2, 1: 4})]
    assert span_solver(basis)(SparseVector({0: 1, 1: 2})) == \
        [Fraction(1, 2)]
    assert span_solver(basis)(SparseVector({0: 1, 1: 3})) is None

  def test_non_int_targets(self):
    # Fraction targets over an int inverse with D = 2; a Gaussian one is
    # rejected
    basis = [SparseVector({0: 2, 1: 1})]
    assert linalg._pivot_inverse(basis)[1] == 2
    solve = span_solver(basis)
    assert solve(SparseVector({0: Fraction(1, 3), 1: Fraction(1, 6)})) == \
        [Fraction(1, 6)]
    assert solve(SparseVector({0: Fraction(1, 3)})) is None
    basis = [SparseVector({0: 2}), SparseVector({1: 1})]
    assert linalg._pivot_inverse(basis)[1] == 2
    with pytest.raises(TypeError):
      span_solver(basis)(SparseVector({0: GaussianRational(1, 1)}))

  def test_dependent_int_basis_rejected(self):
    a, b = SparseVector({0: 1, 1: 2}), SparseVector({1: 1, 2: -1})
    for basis in ([a, a.scale(2)], [a, b, a + b.scale(3)]):
      with pytest.raises(ValueError, match="dependent"):
        span_solver(basis)


class TestEchelonKernel:
  """The rows ``_append_row`` builds, on both rational kinds: integral and
  primitive, zero at every earlier pivot, and equal to the combination of
  the input vectors that their comb records."""

  @pytest.mark.parametrize("kind", _RATIONAL_KINDS)
  @settings(max_examples=100, deadline=None)
  @given(data=st.data())
  def test_rows_are_primitive_combinations(self, kind, data):
    vectors = data.draw(_matrices(kind))
    rows, raised = {}, []
    for b, v in enumerate(vectors):
      if linalg._append_row(rows, v, b):
        raised.append(b)
    assert raised == independent(vectors)
    pivots = list(rows)
    for r, (pivot, (pos, row, comb)) in enumerate(rows.items()):
      assert pos == r
      assert pivot == min(row)
      assert all(p not in row for p in pivots[:r])
      values = [*row.values(), *comb.values()]
      assert all(type(x) is int for x in values)
      assert gcd(*values) == 1
      total = ZERO_VECTOR
      for b, c in comb.items():
        total = total + vectors[b].scale(c)
      assert total == SparseVector(row)

  @settings(max_examples=100, deadline=None)
  @given(data=st.data())
  def test_gaussian_rank_appends_rational_rows(self, data):
    # rank realifies Gaussian vectors before they reach the kernel
    vectors = data.draw(_matrices("gaussian"))
    append_row = linalg._append_row

    def rational_only(rows, vec, b=None):
      assert all(type(x) in (int, Fraction) for x in vec.entries.values())
      return append_row(rows, vec, b)

    with mock.patch.object(linalg, "_append_row", rational_only):
      assert rank(vectors) == bareiss_rank(vectors)


@st.composite
def _echelon_inputs(draw, kind):
  """1-10 vectors of one rational kind on the keys 0..11: sparse, with one
  to three nonzero keys each, or dense, with every key drawn; and, unless
  kept independent, with vectors that are combinations of earlier ones,
  some of which cancel a key the two share."""
  n_keys = draw(st.integers(1, 12))
  dense = draw(st.booleans())
  dependent = draw(st.booleans())
  scalar = _SCALARS[kind]
  nonzero = scalar.filter(bool)
  vectors = []
  for _ in range(draw(st.integers(1, 10))):
    if dependent and len(vectors) > 1 and draw(st.booleans()):
      u, w = draw(st.lists(st.sampled_from(vectors), min_size=2,
                           max_size=2))
      shared = sorted(u.keys() & w.keys())
      if shared and draw(st.booleans()):
        k = draw(st.sampled_from(shared))
        vectors.append(u.scale(w.get(k)) - w.scale(u.get(k)))
      else:
        vectors.append(u.scale(draw(scalar)) + w.scale(draw(scalar)))
    elif dense:
      vectors.append(SparseVector(enumerate(
          draw(st.lists(scalar, min_size=n_keys, max_size=n_keys)))))
    else:
      keys = draw(st.lists(st.integers(0, n_keys - 1), min_size=1,
                           max_size=3, unique=True))
      vectors.append(SparseVector({k: draw(nonzero) for k in keys}))
  return vectors


class TestEchelonAgainstScan:
  """The echelon that visits only the pivots a vector holds against the
  list echelon that scans every row (tests/linalg_fixture.py): the same
  steps in the same order, so the same pivots, positions, rows and combs,
  the same ``_pivot_inverse`` and the same ``rank``."""

  @pytest.mark.parametrize("kind", _RATIONAL_KINDS)
  @settings(max_examples=300, deadline=None)
  @given(data=st.data())
  def test_same_echelon_inverse_and_rank(self, kind, data):
    vectors = data.draw(_echelon_inputs(kind))
    for index in (True, False):
      rows, scanned = {}, []
      for b, v in enumerate(vectors):
        b = b if index else None
        assert linalg._append_row(rows, v, b) == \
            scan_append_row(scanned, v, b)
      assert [(pivot, pos, row, comb)
              for pivot, (pos, row, comb) in rows.items()] == \
          [(pivot, pos, row, comb)
           for pos, (pivot, row, comb) in enumerate(scanned)]
    basis = [vectors[b] for b in independent(vectors)]
    for vecs in (vectors, basis):
      assert linalg._pivot_inverse(vecs) == scan_pivot_inverse(vecs)
      assert rank(vecs) == scan_rank(vecs)

  def test_back_substitution_keeps_the_scan_order(self):
    # a chain: each row brings in the pivot of the next, so back
    # substitution visits the later rows in order from one pivot
    basis = [SparseVector({k: 1, k + 1: k + 2}) for k in range(6)]
    basis.append(SparseVector({6: 3, 0: 5}))
    assert linalg._pivot_inverse(basis) == scan_pivot_inverse(basis)
    assert rank(basis) == scan_rank(basis) == 7


class TestSolverAgainstEchelon:
  """``span_solver`` against the standalone per-target echelon solve, on
  bases and targets of both rational kinds; a Gaussian basis is
  rejected."""

  @pytest.mark.parametrize("kind", sorted(_SCALARS))
  @settings(max_examples=30, deadline=None)
  @given(data=st.data())
  def test_equals_echelon_solve(self, kind, data):
    # an independent basis: the rows that raise the rank
    vectors = data.draw(_matrices(kind))
    basis = [vectors[b] for b in independent(vectors)]
    if kind == "gaussian":
      if basis:
        with pytest.raises(TypeError, match="Gaussian"):
          span_solver(basis)
      return
    old = echelon_solver(basis)
    solve = span_solver(basis)
    for target_kind in _RATIONAL_KINDS:
      scalar = _SCALARS[target_kind]
      coeffs = data.draw(st.lists(scalar, min_size=len(basis),
                                  max_size=len(basis)))
      combo = ZERO_VECTOR
      for c, v in zip(coeffs, basis):
        combo = combo + v.scale(c)
      other = SparseVector(enumerate(data.draw(
          st.lists(st.one_of(st.just(0), scalar), min_size=8, max_size=8))))
      assert old(combo) is not None
      for target in (combo, other):
        got = solve(target)
        assert got == old(target)
        # rational coordinates are ints where integral
        assert all(type(c) is not Fraction or c.denominator > 1
                   for c in got or ())


def test_normalize_scalar():
  assert normalize_scalar(Fraction(4, 2)) == 2
  assert type(normalize_scalar(Fraction(4, 2))) is int
  assert normalize_scalar(Fraction(1, 2)) == Fraction(1, 2)
  assert type(normalize_scalar(3)) is int
  assert type(normalize_scalar(True)) is int
  with pytest.raises(TypeError, match="GaussianRational"):
    normalize_scalar(GaussianRational(1, 1), 2)


@pytest.mark.parametrize("x,den", [(0.5, 1), (1.0, 1), (0.1, 2)])
def test_normalize_scalar_rejects_float(x, den):
  with pytest.raises(TypeError, match="float"):
    normalize_scalar(x, den)


@pytest.mark.parametrize("x,den", [(6, 3), (-6, 3), (6, -3), (0, 7), (3, 2),
                                   (-3, 2), (3, -2), (-3, -2), (5, 1),
                                   (Fraction(1, 2), 2), (Fraction(4, 3), 2),
                                   (Fraction(-9, 2), -3), (True, 1)])
def test_normalize_scalar_divides(x, den):
  # x / den, an int exactly when the quotient is integral
  got = normalize_scalar(x, den)
  want = Fraction(x, den)
  assert got == want
  assert type(got) is (int if want.denominator == 1 else Fraction)


class TestSmithInvariantFactors:

  def test_identity(self):
    assert smith_invariant_factors([[1, 0], [0, 1]]) == [1, 1]

  def test_diagonalizable(self):
    assert smith_invariant_factors([[2, 4], [6, 8]]) == [2, 4]

  def test_rank_deficient(self):
    assert smith_invariant_factors([[1, 2], [2, 4]]) == [1, 0]

  def test_wide_matrix(self):
    # [I - P | C] style block with a single torsion factor
    assert smith_invariant_factors([[2, 0, 4], [0, 1, 1]]) == [1, 2]

  def test_rejects_non_integral_entries(self):
    for matrix in ([[Fraction(1, 2), 0], [0, 3]], [[1.7, 0], [0, 2]],
                   [[2.0, 0], [0, 2]]):
      with pytest.raises(ValueError, match="not an integer"):
        smith_invariant_factors(matrix)
    assert smith_invariant_factors([[Fraction(4, 2), 0], [0, 3]]) == [1, 6]

  def test_rejects_ragged_rows(self):
    for matrix in ([[1, 2], [3]], [[1], [2, 3]]):
      with pytest.raises(ValueError, match="unequal length"):
        smith_invariant_factors(matrix)


@st.composite
def _integer_matrices(draw):
  """0-7 x 0-7 integer matrices with entries in -20..20, often zero; a
  matrix with no rows has no columns either."""
  n_rows = draw(st.integers(min_value=0, max_value=7))
  n_cols = draw(st.integers(min_value=0, max_value=7)) if n_rows else 0
  entry = st.one_of(st.just(0), st.integers(min_value=-20, max_value=20))
  return [draw(st.lists(entry, min_size=n_cols, max_size=n_cols))
          for _ in range(n_rows)]


@st.composite
def _outer_products(draw):
  """Sums of one or two integer outer products u v^T: rank at most 2, so
  square ones from 3 x 3 up are singular."""
  n_rows = draw(st.integers(min_value=1, max_value=7))
  n_cols = draw(st.integers(min_value=1, max_value=7))
  small = st.integers(min_value=-6, max_value=6)
  m = [[0] * n_cols for _ in range(n_rows)]
  for _ in range(draw(st.integers(min_value=1, max_value=2))):
    u = draw(st.lists(small, min_size=n_rows, max_size=n_rows))
    v = draw(st.lists(small, min_size=n_cols, max_size=n_cols))
    m = [[x + a * b for x, b in zip(row, v)] for row, a in zip(m, u)]
  return m


def _folding_q_matrices():
  """Q (``Folding._q``) of every folding datum of base rank at most 12, and
  of A161/m2, D120/m2 and A160/m4."""
  data = [(f, n, m) for f in "ADE" for n in range(1, 13) for m in (2, 3, 4)]
  data += [("A", 161, 2), ("D", 120, 2), ("A", 160, 4)]
  out = []
  for key in data:
    try:
      out.append(pytest.param(Folding(*key)._q, id="%s%d/m%d" % key))
    except ValueError:
      pass
  return out


class TestSmithAgainstOracle:
  """Diagonalise-then-gcd/lcm against the earlier pivot-and-restart Smith
  form (tests/linalg_fixture.py)."""

  @settings(max_examples=400, deadline=None)
  @given(_integer_matrices())
  def test_random_matrices(self, m):
    assert smith_invariant_factors(m) == smith_oracle(m)

  @settings(max_examples=200, deadline=None)
  @given(_outer_products())
  def test_rank_deficient_outer_products(self, m):
    assert smith_invariant_factors(m) == smith_oracle(m)

  @settings(max_examples=100, deadline=None)
  @given(_integer_matrices())
  def test_fraction_entries(self, m):
    fractions = [[Fraction(v) for v in row] for row in m]
    got = smith_invariant_factors(fractions)
    assert got == smith_oracle(m)
    assert all(type(d) is int for d in got)

  @pytest.mark.parametrize("q", _folding_q_matrices())
  def test_folding_q(self, q):
    assert smith_invariant_factors(q) == smith_oracle(q)

  def test_divisor_chain_and_zeros_last(self):
    # diagonal entries out of divisor order, and a zero among them
    assert smith_invariant_factors([[4, 0, 0], [0, 6, 0], [0, 0, 0]]) == [
        2, 12, 0]
    assert smith_invariant_factors([[0, 0], [0, 3]]) == [3, 0]
    assert smith_invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert smith_invariant_factors([]) == []
    assert smith_invariant_factors([[], []]) == []
