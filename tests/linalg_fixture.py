"""The solvers ``linalg`` used before one pivot inverse answered every
solve, kept as oracles for it: the dense modular back substitution, the
per-target exact echelon solve and the Fraction ``inverse`` on top of it."""

from fractions import Fraction

from twistedlie.linalg import (SparseVector, _PRIME, _append_row,
                               _reduce)


def modular_coordinates(basis):
  """Columns for reading coordinates modulo _PRIME off pivot entries.

  Returns (pivots, cols) such that any v = sum(c[b] * basis[b]) has
  c[b] = sum(v[pivots[r]] * cols[b][r]) mod _PRIME, or None when the basis
  is linearly dependent modulo _PRIME."""
  rows = []
  for b, v in enumerate(basis):
    if not _append_row(rows, v, {b: 1}, _PRIME):
      return None
  n = len(rows)
  pivots = [pivot for pivot, _, _ in rows]
  # back substitution: u_r = row_r - sum_{s > r} row_r[pivot_s] * u_s is 1
  # at pivot_r and 0 at every other pivot; full[r] holds its coefficients
  full = [None] * n
  for r in range(n - 1, -1, -1):
    _, row, comb = rows[r]
    acc = [comb.get(b, 0) for b in range(n)]
    for s in range(r + 1, n):
      c = row.get(pivots[s])
      if c:
        acc = [a - c * f for a, f in zip(acc, full[s])]
    full[r] = [a % _PRIME for a in acc]
  return pivots, list(zip(*full))


def echelon_solver(basis):
  """``solve(target)`` by reducing each target against the exact echelon
  of the basis: its coordinates, or None outside the span.  Raises
  ValueError when the basis is linearly dependent."""
  basis = list(basis)
  n = len(basis)
  rows = []
  for b, v in enumerate(basis):
    if not _append_row(rows, v, {b: 1}):
      raise ValueError("vectors are linearly dependent")

  def solve(target):
    cur = dict(target.items())
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
    solve = echelon_solver([SparseVector(enumerate(map(Fraction, row)))
                            for row in matrix])
  except ValueError:
    raise ValueError("matrix is singular") from None
  return tuple(tuple(Fraction(c) for c in solve(SparseVector.unit(k)))
               for k in range(n))
