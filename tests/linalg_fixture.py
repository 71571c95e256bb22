"""An exact echelon over Q and Q(i), written apart from ``linalg``'s
integral kernel and kept as the oracle for it: rows are divided by their
pivot entry with Fraction or Gaussian arithmetic and each carries its
coefficients over the input vectors.  ``independent`` picks the vectors
that raise the rank, ``relations`` gives the combinations that vanish,
``echelon_solver`` solves per target and ``inverse`` is the Fraction
inverse of a square matrix on top of it.  ``span_solver`` is the solver
that once answered the subrepresentation's fiber solves, one exact sparse
product with ``linalg._pivot_inverse`` per target, kept as the oracle for
the product that ``reps`` now inlines.
``smith_invariant_factors`` is the earlier Smith normal form, one pivot at
a time with a row-addition restart while the block is not divisible by the
pivot, kept as the oracle for ``linalg``'s diagonalise-then-gcd/lcm form.
``scan_reduce``, ``scan_append_row``, ``scan_rank`` and
``scan_pivot_inverse`` are ``linalg``'s fraction-free kernel as it stood
with the echelon a list of (pivot, row, comb) scanned in full for each
vector, kept as the oracle for the echelon that visits only the pivots a
vector holds: they take the same steps in the same order."""

from fractions import Fraction
from math import gcd, lcm

from twistedlie import linalg
from twistedlie.linalg import GaussianRational, SparseVector


def _exact(x):
  return x if isinstance(x, GaussianRational) else Fraction(x)


def _subtract(acc, c, vec):
  """acc -= c * vec on dicts, dropping the zeros."""
  for k, v in vec.items():
    s = acc.get(k, 0) - c * v
    if s:
      acc[k] = s
    else:
      acc.pop(k, None)


def _reduce(rows, cur, comb):
  """Reduce ``cur`` against the rows (each 1 at its pivot), in order, and
  ``comb`` alike."""
  for pivot, row, row_comb in rows:
    c = cur.get(pivot)
    if c:
      _subtract(cur, c, row)
      _subtract(comb, c, row_comb)


def _echelon(vectors):
  """The echelon of the vectors, in input order, the indices of those
  that raised its rank, and the combination {b: c} of the vectors that
  vanishes for each of the others."""
  rows, raised, vanishing = [], [], []
  for b, vec in enumerate(vectors):
    cur = {k: _exact(v) for k, v in vec.items()}
    comb = {b: Fraction(1)}
    _reduce(rows, cur, comb)
    if cur:
      pivot = min(cur)
      inv = 1 / cur[pivot]
      rows.append((pivot, {k: v * inv for k, v in cur.items()},
                   {k: v * inv for k, v in comb.items()}))
      raised.append(b)
    else:
      vanishing.append(comb)
  return rows, raised, vanishing


def independent(vectors):
  """The indices of the vectors that raise the rank of those before them."""
  return _echelon(vectors)[1]


def relations(vectors):
  """A basis of the linear relations among the vectors: one vanishing
  combination {b: c} for each vector that does not raise the rank of
  those before it."""
  return _echelon(vectors)[2]


def echelon_solver(basis):
  """``solve(target)`` by reducing each target against the exact echelon
  of the basis: its coordinates, or None outside the span.  Raises
  ValueError when the basis is linearly dependent."""
  basis = list(basis)
  n = len(basis)
  rows, raised, _ = _echelon(basis)
  if len(raised) < n:
    raise ValueError("vectors are linearly dependent")

  def solve(target):
    cur = {k: _exact(v) for k, v in target.items()}
    comb = {}
    _reduce(rows, cur, comb)
    if cur:
      return None
    return [-comb.get(b, 0) for b in range(n)]

  return solve


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
  """A solver for coordinates over linearly independent rational sparse
  vectors.

  Returns ``solve(target)``, which gives the list ``c`` with
  ``sum(c[b] * basis[b]) == target``, or None when ``target`` lies outside
  the span.  Raises ValueError when the basis is linearly dependent and
  TypeError on a float or Gaussian scalar.  A target with a float or
  Gaussian scalar raises TypeError too, unless it has a key outside the
  keys of a square basis, which answers None first.

  A target is answered by the exact sparse product of the basis inverse N
  over D (``linalg._pivot_inverse``) with its entries at the pivot keys,
  divided by D: the only coordinates it can have.  When the basis has no
  support key besides its n pivots, a target with another key lies outside
  the span and no other needs a check.  Otherwise the coordinates are
  returned only if D * target == sum(D * c[b] * basis[b]) holds exactly.
  Rational coordinates are ints where integral and Fractions otherwise.
  """
  basis = list(basis)
  linalg._scalar_kinds(basis)
  n = len(basis)
  inverse = linalg._pivot_inverse(basis)
  if inverse is None:
    raise ValueError("vectors are linearly dependent")
  cols, den = inverse
  square = len(set().union(*(v.keys() for v in basis))) == n

  def solve(target):
    if not square:
      # a float target could pass the residual check by rounding
      linalg._scalar_kinds((target,))
    y = _times_inverse(cols, n, target.entries, square)
    if y is None:
      return None
    if not square:
      acc = {k: den * x for k, x in target.items()}
      for yb, vec in zip(y, basis):
        if yb:
          linalg._add_scaled(acc, -yb, vec.entries)
      if acc:
        return None
    return [linalg.normalize_scalar(yb, den) for yb in y]

  return solve


def scan_reduce(rows, cur, comb):
  """Reduce the integral dict ``cur`` in place against every row of the
  list echelon, in order: cur = p * cur - c * row where cur holds c at the
  row's pivot and the row holds p, and ``comb`` alike unless it is None;
  then divide both by the gcd of their entries."""
  for pivot, row, row_comb in rows:
    c = cur.get(pivot)
    if c:
      p = row[pivot]
      linalg._add_scaled(cur, -c, row, p)
      if comb is not None:
        linalg._add_scaled(comb, -c, row_comb, p)
  if not cur:
    return
  dicts = (cur,) if comb is None else (cur, comb)
  g = gcd(*(v for d in dicts for v in d.values()))
  if g > 1:
    for d in dicts:
      for k, v in d.items():
        d[k] = v // g


def scan_append_row(rows, vec, b=None):
  """Append the rational ``vec``, scaled to integers, to the list echelon
  unless it reduces to zero, with comb {b: scale} or None; returns whether
  it was appended."""
  s = lcm(*(v.denominator for v in vec.entries.values()))
  cur = {k: v.numerator * (s // v.denominator) for k, v in vec.items()}
  comb = None if b is None else {b: s}
  scan_reduce(rows, cur, comb)
  if not cur:
    return False
  rows.append((min(cur), cur, comb))
  return True


def scan_rank(vectors):
  """The rank of rational vectors: rows of the list echelon, appended in
  input order until there are as many as keys."""
  vecs = [v for v in vectors if v]
  n_keys = len(set().union(*(v.keys() for v in vecs)))
  rows = []
  for v in vecs:
    scan_append_row(rows, v)
    if len(rows) == n_keys:
      break
  return len(rows)


def scan_pivot_inverse(basis):
  """(cols, D) of ``linalg._pivot_inverse`` on the list echelon: each row
  back-substituted against the slice of rows after it."""
  rows = []
  for b, v in enumerate(basis):
    if not scan_append_row(rows, v, b):
      return None
  for r in reversed(range(len(rows) - 1)):
    _, row, comb = rows[r]
    scan_reduce(rows[r + 1:], row, comb)
  den = lcm(*(row[pivot] for pivot, row, _ in rows))
  return {pivot: tuple((b, c * (den // row[pivot])) for b, c in comb.items())
          for pivot, row, comb in rows}, den


def inverse(matrix):
  """Exact inverse of a square matrix, as a tuple of tuples of Fractions.

  Raises ValueError when the matrix is not square or is singular.
  """
  n = len(matrix)
  if any(len(row) != n for row in matrix):
    raise ValueError("matrix is not square")
  try:
    solve = echelon_solver([SparseVector(enumerate(row)) for row in matrix])
  except ValueError:
    raise ValueError("matrix is singular") from None
  return tuple(tuple(Fraction(c) for c in solve(SparseVector.unit(k)))
               for k in range(n))


def smith_invariant_factors(matrix):
  """Invariant factors of an integer matrix, d_1 | d_2 | ..., for the
  min(rows, cols) positions: each pivot is cleared from its row and column
  and, while some entry of the block is not divisible by it, a row holding
  one is added to the pivot row and the pivot step restarts."""
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
