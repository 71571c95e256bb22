"""An exact echelon over Q and Q(i), written apart from ``linalg``'s
integral kernel and kept as the oracle for it: rows are divided by their
pivot entry with Fraction or Gaussian arithmetic and each carries its
coefficients over the input vectors.  ``independent`` picks the vectors
that raise the rank, ``echelon_solver`` solves per target and ``inverse``
is the Fraction inverse of a square matrix on top of it."""

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
