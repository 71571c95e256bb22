"""Exact scalars and sparse linear algebra over the rationals and Q(i).

Scalars are python ints, ``fractions.Fraction``, or :class:`GaussianRational`.
No floating point is used anywhere.  Vectors are sparse maps from opaque,
totally ordered keys to nonzero scalars.  One sparse echelon kernel,
``_reduce``, does all elimination: ``rank``, and the inverse of a basis on
its pivot keys (``_pivot_inverse``: the echelon, then back substitution of
each row against the rows after it), exactly or modulo a prime.
``span_solver`` holds that inverse as N over one denominator D: for a
basis with int entries, integers N proposed modulo the prime 2^61 - 1,
rebuilt as fractions and certified once by an exact integer identity; for
any other basis, or when the certificate fails, the exact inverse with
D = 1.  Each target is then answered by an exact sparse product with it,
checked against the basis only when the basis has support keys beyond its
pivots.
``integer_inverse`` solves for the unit vectors over a matrix's rows.
Integer Smith invariant factors are computed separately.
"""

from fractions import Fraction
from math import lcm

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
    d = dict(self.entries)
    for k, v in other.entries.items():
      s = d.get(k, 0) - v
      if s:
        d[k] = s
      else:
        d.pop(k, None)
    return SparseVector._raw(d)

  def __neg__(self):
    return SparseVector._raw({k: -v for k, v in self.entries.items()})

  def scale(self, c):
    if not c:
      return SparseVector._raw({})
    return SparseVector._raw({k: c * v for k, v in self.entries.items()})

  def __repr__(self):
    return "SparseVector(%r)" % (dict(self.entries),)


ZERO_VECTOR = SparseVector._raw({})


def _scalar_kinds(vectors):
  """Check that the scalars are all rational or all Gaussian.

  Raises TypeError on a mix of Gaussian and plain rational values, or on
  unsupported scalar types (e.g. float).
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


def normalize_scalar(x, den=1):
  """x / den, for an exact scalar x and a nonzero int den: a
  GaussianRational for a Gaussian x, else an int when it is integral and a
  Fraction when it is not."""
  if type(x) is int:
    q, r = divmod(x, den)
    return Fraction(x, den) if r else q
  if isinstance(x, GaussianRational):
    return x / den
  f = Fraction(x) if den == 1 else Fraction(x, den)
  return f.numerator if f.denominator == 1 else f


# -- the echelon kernel ------------------------------------------------------
# An echelon is a list of rows (pivot, row, comb).  Each row is a dict that
# is 1 at its pivot, the smallest key of its support, and 0 at the pivot of
# every earlier row; comb is None or the dict of its coefficients over the
# input vectors.  With a prime ``p`` the same steps run on int entries
# modulo p; with None they are exact.

def _add_scaled(acc, c, vec, p=None):
  """acc += c * vec on dicts (modulo p unless it is None), never storing
  a zero."""
  if p is None:
    for k, v in vec.items():
      s = acc.get(k, 0) + c * v
      if s:
        acc[k] = s
      else:
        del acc[k]
  else:
    for k, v in vec.items():
      s = (acc.get(k, 0) + c * v) % p
      if s:
        acc[k] = s
      else:
        del acc[k]


def _reduce(rows, cur, comb, p=None):
  """Reduce the dict ``cur`` in place against the echelon rows, in order,
  carrying the same steps over to ``comb`` unless it is None."""
  for pivot, row, row_comb in rows:
    c = cur.get(pivot)
    if c:
      _add_scaled(cur, -c, row, p)
      if comb is not None:
        _add_scaled(comb, -c, row_comb, p)


def _append_row(rows, vec, comb, p=None):
  """Reduce ``vec`` and append it to the echelon unless it reduces to zero.

  Returns whether it was appended.  ``comb`` holds the coefficients of
  ``vec`` itself over the input vectors, or is None."""
  if p is None:
    cur = dict(vec.items())
  else:
    cur = {k: r for k, v in vec.items() if (r := v % p)}
  _reduce(rows, cur, comb, p)
  if not cur:
    return False
  pivot = min(cur)
  if p is None:
    inv = Fraction(1) / cur[pivot]
    row = {k: v * inv for k, v in cur.items()}
    if comb is not None:
      comb = {k: v * inv for k, v in comb.items()}
  else:
    inv = pow(cur[pivot], -1, p)
    row = {k: v * inv % p for k, v in cur.items()}
    if comb is not None:
      comb = {k: v * inv % p for k, v in comb.items()}
  rows.append((pivot, row, comb))
  return True


def rank(vectors):
  """Exact rank of a list of sparse vectors over Q or Q(i).

  Rows are reduced in input order; the elimination stops once the rank
  reaches the number of distinct keys.  Raises TypeError on float scalars
  or on a mix of Gaussian and plain rational ones.
  """
  vecs = [v for v in vectors if v]
  if not vecs:
    return 0
  _scalar_kinds(vecs)
  n_keys = len(set().union(*[v.keys() for v in vecs]))
  rows = []
  for v in vecs:
    _append_row(rows, v, None)
    if len(rows) == n_keys:
      break
  return len(rows)


# -- the modular front end of span_solver -------------------------------------
# For a basis with int entries the echelon runs modulo _PRIME.  The prime
# only proposes the inverse: its entries are recovered as fractions with
# numerator and denominator below _BOUND in absolute value (Wang, Guy and
# Davenport, SIGSAM Bull. 16, 1982) and used only after an exact integer
# check.  Since 2 * (_BOUND - 1)**2 < _PRIME, a fraction within the bounds
# is the only one with its residue.

_PRIME = (1 << 61) - 1
_BOUND = 1 << 30


def _pivot_inverse(basis, p=None):
  """The inverse of the basis on its pivot keys, modulo p unless it is
  None: a map from each pivot key to the pairs (b, N[b][key]) with
  N[b][key] != 0, such that any v = sum(c[b] * basis[b]) has
  c[b] = sum(v[key] * N[b][key]).  None when the basis is linearly
  dependent (modulo p)."""
  rows = []
  for b, v in enumerate(basis):
    if not _append_row(rows, v, {b: 1}, p):
      return None
  # back substitution: reduced against the rows after it, which already are
  # 0 at every pivot but their own, row r is 1 at its pivot and 0 at every
  # other, so its comb is the inverse's column at that pivot
  for r in reversed(range(len(rows) - 1)):
    _, row, comb = rows[r]
    _reduce(rows[r + 1:], row, comb, p)
  return {pivot: tuple(comb.items()) for pivot, _, comb in rows}


def _rational(u):
  """The fraction with |numerator|, denominator < _BOUND that is congruent
  to u modulo _PRIME, as (numerator, denominator > 0), or None
  (half-extended Euclid).  The pair is in lowest terms: a common divisor of
  a remainder and its cofactor divides _PRIME, which exceeds both."""
  if u < _BOUND:
    return u, 1
  if _PRIME - u < _BOUND:
    return u - _PRIME, 1
  r0, r1, s0, s1 = _PRIME, u, 0, 1
  while r1 >= _BOUND:
    q = r0 // r1
    r0, r1 = r1, r0 - q * r1
    s0, s1 = s1, s0 - q * s1
  if abs(s1) >= _BOUND:
    return None
  return (r1, s1) if s1 > 0 else (-r1, -s1)


def _certified_inverse(basis):
  """The inverse of an int basis on its pivot keys, or None.

  The inverse is proposed modulo _PRIME (``_pivot_inverse``), its entries
  rebuilt as fractions and the result certified once, exactly: with N the
  entries times their common denominator D, N . B == D * I over the
  integers, B being the basis read at the pivot keys.  Returns (cols, den),
  cols mapping each pivot key to the pairs (b, N[b][key]) with
  N[b][key] != 0 and den = D; None when the basis is dependent modulo
  _PRIME or an entry has no reconstruction or the certificate fails."""
  modular = _pivot_inverse(basis, _PRIME)
  if modular is None:
    return None
  pairs = {key: [(b, _rational(u)) for b, u in col]
           for key, col in modular.items()}
  if any(q is None for col in pairs.values() for _, q in col):
    return None
  den = lcm(*(d for col in pairs.values() for _, (_, d) in col))
  inv = {key: tuple((b, num * (den // d)) for b, (num, d) in col)
         for key, col in pairs.items()}
  # N . B == D * I: N applied to each basis vector gives D times its unit
  for b, vec in enumerate(basis):
    y = _times_inverse(inv, len(basis), vec.entries)
    y[b] -= den
    if any(y):
      return None
  return inv, den


def _times_inverse(cols, n, target, strict=False):
  """N times a target read at the pivot keys, as a list of n scalars; a
  key outside the pivots is skipped, or gives None when strict."""
  y = [0] * n
  for k, x in target.items():
    col = cols.get(k)
    if col is not None:
      for b, c in col:
        y[b] += c * x
    elif strict:
      return None
  return y


def span_solver(basis):
  """A solver for coordinates over linearly independent sparse vectors.

  Returns ``solve(target)``, which gives the list ``c`` with
  ``sum(c[b] * basis[b]) == target``, or None when ``target`` lies outside
  the span.  Raises ValueError when the basis is linearly dependent.

  The basis gets its inverse on its n pivot keys once, as N over one
  denominator D: for plain int entries the certified inverse
  (``_certified_inverse``), integers N; for any other basis, or an int one
  without a certificate (dependent modulo the prime, yet perhaps
  independent over Q; an entry beyond the reconstruction bound), the exact
  ``_pivot_inverse`` with D = 1.  A target is answered by the exact sparse
  product of N with its entries at the pivot keys, divided by D: the only
  coordinates it can have.  When the basis has no support key besides the
  pivots, n independent vectors on n keys span every vector on those keys,
  so no further check is needed and a target with another key lies outside
  the span.  Otherwise the coordinates are returned only if
  D * target == sum(D * c[b] * basis[b]) holds exactly.  Rational
  coordinates are ints where integral and Fractions otherwise.
  """
  basis = list(basis)
  n = len(basis)
  certified = (all(type(x) is int for v in basis for x in v.entries.values())
               and _certified_inverse(basis))
  cols, den = certified or (_pivot_inverse(basis), 1)
  if cols is None:
    raise ValueError("vectors are linearly dependent")
  square = len(set().union(*(v.keys() for v in basis))) == n

  def solve(target):
    y = _times_inverse(cols, n, target.entries, square)
    if y is None:
      return None
    if not square:
      acc = {k: den * x for k, x in target.items()}
      for yb, vec in zip(y, basis):
        if yb:
          _add_scaled(acc, -yb, vec.entries)
      if acc:
        return None
    return [normalize_scalar(yb, den) for yb in y]

  return solve


def integer_inverse(matrix):
  """The exact inverse of a square rational matrix as integer rows over one
  common denominator: (rows, den) with den > 0 the lcm of the entries'
  denominators and rows[i][j] / den the (i, j) entry.

  Row i of the inverse is the coordinates of the i-th unit vector over the
  matrix rows, given by ``span_solver``.  Raises ValueError when the matrix
  is not square or is singular.
  """
  n = len(matrix)
  if any(len(row) != n for row in matrix):
    raise ValueError("matrix is not square")
  try:
    solve = span_solver([SparseVector(enumerate(row)) for row in matrix])
  except ValueError:
    raise ValueError("matrix is singular") from None
  inv = [solve(SparseVector.unit(k)) for k in range(n)]
  den = lcm(*(c.denominator for row in inv for c in row))
  return tuple(tuple(c.numerator * (den // c.denominator) for c in row)
               for row in inv), den


def smith_invariant_factors(matrix):
  """Invariant factors of an integer matrix (Smith normal form diagonal).

  Returns the nonnegative diagonal entries d_1 | d_2 | ... for the
  min(rows, cols) positions.  Pure integer row/column reduction.
  """
  m = [list(map(int, row)) for row in matrix]
  rows = len(m)
  cols = len(m[0]) if rows else 0
  out = []
  top = 0
  while top < rows and top < cols:
    # find a nonzero entry of minimal absolute value in the working block
    best = None
    for r in range(top, rows):
      for c in range(top, cols):
        v = m[r][c]
        if v and (best is None or abs(v) < abs(m[best[0]][best[1]])):
          best = (r, c)
    if best is None:
      out.extend([0] * (min(rows, cols) - top))
      return out
    r0, c0 = best
    m[top], m[r0] = m[r0], m[top]
    for row in m:
      row[top], row[c0] = row[c0], row[top]
    piv = m[top][top]
    done = True
    for r in range(top + 1, rows):
      if m[r][top] % piv:
        done = False
      q = m[r][top] // piv
      if q:
        m[r] = [a - q * b for a, b in zip(m[r], m[top])]
    for c in range(top + 1, cols):
      if m[top][c] % piv:
        done = False
      q = m[top][c] // piv
      if q:
        for r in range(rows):
          m[r][c] -= q * m[r][top]
    if not done:
      continue
    if any(m[r][top] for r in range(top + 1, rows)) or \
       any(m[top][c] for c in range(top + 1, cols)):
      continue
    # ensure divisibility of the remaining block by the pivot
    bad = None
    for r in range(top + 1, rows):
      for c in range(top + 1, cols):
        if m[r][c] % piv:
          bad = r
          break
      if bad is not None:
        break
    if bad is not None:
      m[top] = [a + b for a, b in zip(m[top], m[bad])]
      continue
    out.append(abs(piv))
    top += 1
  return out

