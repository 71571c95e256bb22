"""An exact echelon over Q and Q(i), written apart from ``linalg``'s
integral kernel and kept as the oracle for it: rows are divided by their
pivot entry with Fraction or Gaussian arithmetic and each carries its
coefficients over the input vectors.  ``independent`` picks the vectors
that raise the rank, ``echelon_solver`` solves per target and ``inverse``
is the Fraction inverse of a square matrix on top of it.
``smith_invariant_factors`` is the earlier Smith normal form, one pivot at
a time with a row-addition restart while the block is not divisible by the
pivot, kept as the oracle for ``linalg``'s diagonalise-then-gcd/lcm form."""

from fractions import Fraction

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
  """The echelon of the vectors, in input order, and the indices of those
  that raised its rank."""
  rows, raised = [], []
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
  return rows, raised


def independent(vectors):
  """The indices of the vectors that raise the rank of those before them."""
  return _echelon(vectors)[1]


def echelon_solver(basis):
  """``solve(target)`` by reducing each target against the exact echelon
  of the basis: its coordinates, or None outside the span.  Raises
  ValueError when the basis is linearly dependent."""
  basis = list(basis)
  n = len(basis)
  rows, raised = _echelon(basis)
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
