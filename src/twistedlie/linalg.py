"""Exact scalars and sparse linear algebra over Q, with ranks over Q(i).

Scalars are python ints, ``fractions.Fraction``, or :class:`GaussianRational`
for Q(i).  No floating point is used anywhere.  Vectors are sparse maps from
opaque, totally ordered keys to nonzero scalars.  One fraction-free sparse
echelon kernel, ``_reduce``, does all elimination on int rows: vectors are
scaled to integral entries and rows kept primitive, so it divides only by a
gcd.  The echelon is indexed by pivot, and a vector is reduced only
against the rows whose pivots it holds, in the order they were appended,
so a sparse vector costs what its own entries cost, however many rows
there are.  ``rank`` counts its rows, and ranks Gaussian vectors by their
real and imaginary parts; ``loops`` appends the eta-images to it to test
their independence; ``_pivot_inverse`` back-substitutes the rows into the
inverse of a rational basis on its pivot keys, which
``reps.subrepresentation`` multiplies each fiber image by and
``integer_inverse`` reads a matrix inverse off.  Smith invariant factors
take two integer phases of their own: diagonalise against a least pivot,
then make the diagonal a divisor chain by gcd/lcm.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

_RATIONAL_TYPES = (int, Fraction)


class GaussianRational:
  """An element re + im*i of Q(i), with exact Fraction components."""

  __slots__ = ("re", "im")

  def __init__(self, re=0, im=0):
    if isinstance(re, GaussianRational) or isinstance(im, GaussianRational):
      raise TypeError("components must be rational")
    object.__setattr__(self, "re", Fraction(re))
    object.__setattr__(self, "im", Fraction(im))

  def __setattr__(self, name, value):
    raise AttributeError("GaussianRational is immutable")

  def _coerce(self, other):
    if isinstance(other, GaussianRational):
      return other
    if isinstance(other, _RATIONAL_TYPES):
      return GaussianRational(other)
    return None

  def __add__(self, other):
    o = self._coerce(other)
    if o is None:
      return NotImplemented
    return GaussianRational(self.re + o.re, self.im + o.im)

  __radd__ = __add__

  def __sub__(self, other):
    o = self._coerce(other)
    if o is None:
      return NotImplemented
    return GaussianRational(self.re - o.re, self.im - o.im)

  def __rsub__(self, other):
    o = self._coerce(other)
    if o is None:
      return NotImplemented
    return GaussianRational(o.re - self.re, o.im - self.im)

  def __neg__(self):
    return GaussianRational(-self.re, -self.im)

  def __mul__(self, other):
    o = self._coerce(other)
    if o is None:
      return NotImplemented
    return GaussianRational(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

  __rmul__ = __mul__

  def norm(self):
    """The rational norm re^2 + im^2."""
    return self.re * self.re + self.im * self.im

  def __truediv__(self, other):
    o = self._coerce(other)
    if o is None:
      return NotImplemented
    n = o.norm()
    if n == 0:
      raise ZeroDivisionError("division by zero in Q(i)")
    return GaussianRational((self.re * o.re + self.im * o.im) / n,
                            (self.im * o.re - self.re * o.im) / n)

  def __rtruediv__(self, other):
    o = self._coerce(other)
    if o is None:
      return NotImplemented
    return o / self

  def __eq__(self, other):
    if isinstance(other, GaussianRational):
      return self.re == other.re and self.im == other.im
    if isinstance(other, _RATIONAL_TYPES):
      return self.im == 0 and self.re == other
    return NotImplemented

  def __hash__(self):
    if self.im == 0:
      return hash(self.re)
    return hash((self.re, self.im))

  def __bool__(self):
    return self.re != 0 or self.im != 0

  def __repr__(self):
    return "GaussianRational(%s, %s)" % (self.re, self.im)

  def __str__(self):
    if self.im == 0:
      return str(self.re)
    if self.re == 0:
      return "%s*i" % self.im
    sign = "+" if self.im > 0 else "-"
    return "%s%s%s*i" % (self.re, sign, abs(self.im))


def i_power(k):
  """Return i**k as a GaussianRational, for any integer k."""
  return (GaussianRational(1), GaussianRational(0, 1),
          GaussianRational(-1), GaussianRational(0, -1))[k % 4]


class SparseVector:
  """A sparse vector: a map from opaque totally ordered keys to scalars.

  Zero entries are never stored.  Instances behave as immutable values;
  arithmetic returns new vectors.
  """

  __slots__ = ("entries",)

  def __init__(self, entries=None):
    d = {}
    if entries:
      for k, v in (entries.items() if isinstance(entries, dict) else entries):
        if v:
          d[k] = v
    object.__setattr__(self, "entries", d)

  def __setattr__(self, name, value):
    raise AttributeError("SparseVector is immutable")

  @classmethod
  def _raw(cls, d):
    """Wrap a dict already purged of zeros, without copying."""
    v = cls.__new__(cls)
    object.__setattr__(v, "entries", d)
    return v

  @classmethod
  def unit(cls, key):
    return cls._raw({key: 1})

  def get(self, key, default=0):
    return self.entries.get(key, default)

  def items(self):
    return self.entries.items()

  def keys(self):
    return self.entries.keys()

  def support(self):
    return frozenset(self.entries)

  def __len__(self):
    return len(self.entries)

  def __bool__(self):
    return bool(self.entries)

  def __eq__(self, other):
    if not isinstance(other, SparseVector):
      return NotImplemented
    return self.entries == other.entries

  def __hash__(self):
    return hash(self.canonical())

  def canonical(self):
    """A hashable canonical form: sorted tuple of (key, value) pairs."""
    return tuple(sorted(self.entries.items(), key=lambda kv: kv[0]))

  def __add__(self, other):
    d = dict(self.entries)
    for k, v in other.entries.items():
      s = d.get(k, 0) + v
      if s:
        d[k] = s
      else:
        d.pop(k, None)
    return SparseVector._raw(d)

  def __sub__(self, other):
    return self + -other

  def __neg__(self):
    return SparseVector._raw({k: -v for k, v in self.entries.items()})

  def scale(self, c):
    if not c:
      return SparseVector._raw({})
    return SparseVector._raw({k: c * v for k, v in self.entries.items()})

  def __repr__(self):
    return "SparseVector(%r)" % (dict(self.entries),)


ZERO_VECTOR = SparseVector._raw({})


def _scalar_kinds(vectors, allow_gaussian=False):
  """Check that the scalars are all rational, or all Gaussian when
  ``allow_gaussian`` is set, and return whether they are Gaussian.

  Raises TypeError on a mix of Gaussian and plain rational values, on
  Gaussian values where they are not allowed, or on unsupported scalar
  types (e.g. float).
  """
  saw_gauss = False
  saw_rat = False
  for vec in vectors:
    for _, v in vec.items():
      if isinstance(v, GaussianRational):
        saw_gauss = True
      elif isinstance(v, _RATIONAL_TYPES) and not isinstance(v, bool):
        saw_rat = True
      else:
        raise TypeError("unsupported scalar type: %r" % type(v).__name__)
  if saw_gauss and saw_rat:
    raise TypeError("cannot mix Gaussian and plain rational scalars")
  if saw_gauss and not allow_gaussian:
    raise TypeError("Gaussian scalars where rational ones are needed")
  return saw_gauss


def normalize_scalar(x, den=1):
  """x / den, for a rational x and a nonzero int den: an int when it is
  integral and a Fraction when it is not.  Raises TypeError on any other x
  (a float or a GaussianRational)."""
  if type(x) is int:
    q, r = divmod(x, den)
    return Fraction(x, den) if r else q
  if not isinstance(x, _RATIONAL_TYPES):
    raise TypeError("unsupported scalar type: %r" % type(x).__name__)
  f = Fraction(x) if den == 1 else Fraction(x, den)
  return f.numerator if f.denominator == 1 else f


# -- the echelon kernel ------------------------------------------------------
# An echelon is a dict {pivot: (position, row, comb)} in insertion order,
# position counting the rows before it.  Each row is a dict of integers
# with no common factor; it is nonzero at its pivot, the smallest key of its
# support, and 0 at the pivot of every earlier row.  comb is None or the
# dict of its coefficients over the input vectors, scaled alike:
# row = sum(comb[b] * input[b]).

def _add_scaled(acc, c, vec, a=1):
  """acc = a * acc + c * vec on dicts, in place, never storing a zero."""
  if a != 1:
    for k, v in acc.items():
      acc[k] = a * v
  for k, v in vec.items():
    s = acc.get(k, 0) + c * v
    if s:
      acc[k] = s
    else:
      del acc[k]


def _reduce(rows, cur, comb, after=-1):
  """Reduce the integral dict ``cur`` in place against the echelon rows
  at positions after ``after``, in order: cur = p * cur - c * row for a row
  with pivot entry p where cur holds c, carrying the same steps over to
  ``comb`` unless it is None.  Then cur and comb are divided by the gcd of
  their integer parts.

  Only the rows whose pivot cur holds are visited, from a heap of their
  positions: a row is 0 at every earlier pivot, so a step brings in only
  later pivots, and they are pushed as they come in."""
  heap = [(e[0], k) for k in cur if (e := rows.get(k)) and e[0] > after]
  heapify(heap)
  while heap:
    _, pivot = heappop(heap)
    c = cur.get(pivot)
    if c:
      _, row, row_comb = rows[pivot]
      for k in row:
        if k not in cur and (e := rows.get(k)):
          heappush(heap, (e[0], k))
      p = row[pivot]
      _add_scaled(cur, -c, row, p)
      if comb is not None:
        _add_scaled(comb, -c, row_comb, p)
  if not cur:
    return
  dicts = (cur,) if comb is None else (cur, comb)
  g = gcd(*(v for d in dicts for v in d.values()))
  if g > 1:
    for d in dicts:
      for k, v in d.items():
        d[k] = v // g


def _append_row(rows, vec, b=None):
  """Reduce the rational ``vec``, times the lcm s of its denominators, and
  append it to the echelon unless it reduces to zero.  Returns whether it
  was appended.  With an index ``b`` its comb starts as {b: s}, else it is
  None."""
  s = lcm(*(v.denominator for v in vec.entries.values()))
  cur = {k: v.numerator * (s // v.denominator) for k, v in vec.items()}
  comb = None if b is None else {b: s}
  _reduce(rows, cur, comb)
  if not cur:
    return False
  rows[min(cur)] = (len(rows), cur, comb)
  return True


def rank(vectors):
  """Exact rank of a list of sparse vectors over Q or Q(i).

  Rows are reduced in input order; the elimination stops once the rank
  reaches the number of distinct keys.  Gaussian vectors are ranked over Q
  by the real and imaginary parts of each v and i*v, on the keys (k, 0)
  and (k, 1): their Q-span is the Q(i)-span of the vectors, of twice its
  dimension over Q.  Raises TypeError on float scalars or on a mix of
  Gaussian and plain rational ones.
  """
  vecs = [v for v in vectors if v]
  if not vecs:
    return 0
  gaussian = _scalar_kinds(vecs, allow_gaussian=True)
  if gaussian:
    vecs = [SparseVector([p for k, c in w.items()
                          for p in (((k, 0), c.re), ((k, 1), c.im))])
            for v in vecs for w in (v, v.scale(i_power(1)))]
  n_keys = len(set().union(*[v.keys() for v in vecs]))
  rows = {}
  for v in vecs:
    _append_row(rows, v)
    if len(rows) == n_keys:
      break
  return len(rows) // 2 if gaussian else len(rows)


def _pivot_inverse(basis):
  """The inverse of the rational basis on its pivot keys, as (cols, D):
  cols maps each pivot key to the pairs (b, N[b][key]) with N[b][key] != 0,
  so that any v = sum(c[b] * basis[b]) has c[b] = sum(v[key] * N[b][key])
  / D, with N an int matrix; None when the basis is linearly dependent.
  Back substitution against the later rows, which are 0 at every pivot but
  their own, leaves row r d_r at its pivot and 0 at every other, so
  N[b][pivot_r] is comb_r[b] * D / d_r with D the lcm of the d_r."""
  rows = {}
  for b, v in enumerate(basis):
    if not _append_row(rows, v, b):
      return None
  for pos, row, comb in list(rows.values())[-2::-1]:
    _reduce(rows, row, comb, pos)
  den = lcm(*(row[pivot] for pivot, (_, row, _) in rows.items()))
  return {pivot: tuple((b, c * (den // row[pivot])) for b, c in comb.items())
          for pivot, (_, row, comb) in rows.items()}, den


def integer_inverse(matrix):
  """The exact inverse of a square rational matrix as integer rows over one
  common denominator: (rows, den) with den > 0 the lcm of the entries'
  denominators and rows[i][j] / den the (i, j) entry.

  Row i of the inverse is the coordinates of the i-th unit vector over the
  matrix rows, read off ``_pivot_inverse``.  Raises ValueError when the
  matrix is not square or is singular, and TypeError on an entry that is
  not an int or a Fraction.
  """
  n = len(matrix)
  if any(len(row) != n for row in matrix):
    raise ValueError("matrix is not square")
  basis = [SparseVector(enumerate(row)) for row in matrix]
  _scalar_kinds(basis)
  inverse = _pivot_inverse(basis)
  if inverse is None:
    raise ValueError("matrix is singular")
  cols, den = inverse
  rows = [dict(cols[i]) for i in range(n)]
  g = gcd(den, *(x for row in rows for x in row.values()))
  return (tuple(tuple(row.get(b, 0) // g for b in range(n)) for row in rows),
          den // g)


def smith_invariant_factors(matrix):
  """Invariant factors of an integer matrix (Smith normal form diagonal).

  Returns the nonnegative diagonal entries d_1 | d_2 | ... for the
  min(rows, cols) positions.  Raises ValueError on an entry that is not an
  integer (an int or a Fraction with denominator 1) or on rows of unequal
  length.  Diagonalise: for each t, move a nonzero entry of least absolute
  value in the block from (t, t) down to (t, t), subtract its quotients
  times row t from the rows below and likewise for the columns to the
  right, until row and column t are clear (each remainder is smaller than
  the pivot), and record |m[t][t]|, 0 once the block is zero.  Divisor
  chain: diag(a, b) has Smith form diag(gcd, lcm), so set (d_i, d_j) <-
  (gcd, lcm) for every i < j.
  """
  if any(not isinstance(v, _RATIONAL_TYPES) or v.denominator != 1
         for row in matrix for v in row):
    raise ValueError("an entry is not an integer")
  m = [list(map(int, row)) for row in matrix]
  rows = len(m)
  cols = len(m[0]) if rows else 0
  if any(len(row) != cols for row in m):
    raise ValueError("rows of unequal length")
  d = []
  for t in range(min(rows, cols)):
    while block := [(abs(v), r, c) for r in range(t, rows)
                    for c, v in enumerate(m[r][t:], t) if v]:
      _, r0, c0 = min(block)
      m[t], m[r0] = m[r0], m[t]
      for row in m[t:]:
        row[t], row[c0] = row[c0], row[t]
      p = m[t][t]
      for r in range(t + 1, rows):
        if q := m[r][t] // p:
          m[r] = [a - q * b for a, b in zip(m[r], m[t])]
      for c in range(t + 1, cols):
        if q := m[t][c] // p:
          for row in m[t:]:
            row[c] -= q * row[t]
      if not any(row[t] for row in m[t + 1:]) and not any(m[t][t + 1:]):
        break
    d.append(abs(m[t][t]))
  for i in range(len(d)):
    for j in range(i + 1, len(d)):
      d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
  return d
