"""Dominance order on coinvariant classes and the smooth-locus classifier.

Classes live in the weight lattice of the small group H attached to a
folding; the simple roots of H are the classes gamma_j of base simple
coroots.  The order compares differences against nonnegative integral
combinations of the gamma_j.  The smooth-locus classifier distinguishes the
unramified foldings (only the open cell is smooth) from the ramified family
(base A_{2l}, order 4), where certain quasi-minuscule cover cells are also
smooth.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .folding import CoinvariantWeight
from .linalg import inverse, normalize_scalar
from .rootsystem import cartan_matrix

VARIANT_SPECIAL = "special-not-absolutely-special"
VARIANT_ABS_SPECIAL = "absolutely-special"


@lru_cache(maxsize=None)
def _cartan_inv(ctype):
  return inverse(cartan_matrix(ctype))


def gamma_coords(datum, cw):
  """Coordinates of a class in the simple-root (gamma) basis of H."""
  inv = _cartan_inv(datum.weight_ctype)
  ell = datum.ell
  return tuple(sum(inv[i][j] * Fraction(cw.coords[j]) for j in range(ell))
               for i in range(ell))


def _as_class(datum, value):
  if isinstance(value, CoinvariantWeight):
    if value.htype != datum.weight_ctype:
      raise ValueError("class belongs to a different folding")
    return value
  return CoinvariantWeight(datum.weight_ctype, tuple(value))


@dataclass(frozen=True)
class DominantCoinvariant:
  """A dominant class together with its nonnegative pairing witness."""

  value: CoinvariantWeight
  pairings: tuple

  @classmethod
  def make(cls, datum, cw):
    cw = _as_class(datum, cw)
    # the pairings of the iota image against the folded simple coroots are
    # exactly the fundamental weight coordinates of the iota image; for the
    # identification used here these agree with Q * gamma-coordinates
    y = gamma_coords(datum, cw)
    ell = datum.ell
    iota_img = tuple(
        sum(y[j] * Fraction(datum.iota(tuple(
            datum.base.cartan[k][datum.fiber(j + 1)[0] - 1]
            for k in range(datum.base.rank)))[c]) for j in range(ell))
        for c in range(ell))
    if any(p < 0 for p in iota_img):
      raise ValueError("class is not dominant")
    return cls(cw, tuple(normalize_scalar(p) for p in iota_img))


def leq(datum, mu, lam):
  """Whether mu precedes lam: lam - mu a nonnegative integral combination
  of the simple roots gamma_j of H."""
  mu = _as_class(datum, mu)
  lam = _as_class(datum, lam)
  y = gamma_coords(datum, lam - mu)
  return all(Fraction(c).denominator == 1 and c >= 0 for c in y)


def dominants_below(datum, lam):
  """All dominant classes below lam, by breadth-first gamma subtraction.

  The search walks the integer box 0 <= y <= gamma-coords(lam) (dominant
  classes have nonnegative gamma coordinates, so nothing dominant lies
  outside it) and keeps the dominant, lattice-valid points.
  """
  lam = _as_class(datum, lam)
  if not lam.is_dominant():
    raise ValueError("lam must be dominant")
  bounds = [int(c) for c in gamma_coords(datum, lam)]
  ell = datum.ell
  gammas = [datum.gamma(j) for j in range(1, ell + 1)]
  seen = {(0,) * ell}
  frontier = [(0,) * ell]
  found = []
  while frontier:
    nxt = []
    for y in frontier:
      mu = lam
      for j in range(ell):
        for _ in range(y[j]):
          mu = mu - gammas[j]
      if mu.is_dominant() and datum.in_coinvariant_lattice(mu):
        found.append(mu)
      for j in range(ell):
        if y[j] < bounds[j]:
          y2 = y[:j] + (y[j] + 1,) + y[j + 1:]
          if y2 not in seen:
            seen.add(y2)
            nxt.append(y2)
    frontier = nxt
  found.sort(key=lambda c: c.coords, reverse=True)
  return found


def dominants_below_direct(datum, lam):
  """Box-enumeration oracle for dominants_below (no graph search)."""
  lam = _as_class(datum, lam)
  if not lam.is_dominant():
    raise ValueError("lam must be dominant")
  bounds = [int(c) for c in gamma_coords(datum, lam)]
  ell = datum.ell
  gammas = [datum.gamma(j) for j in range(1, ell + 1)]
  found = []

  def rec(j, mu):
    if j == ell:
      if mu.is_dominant() and datum.in_coinvariant_lattice(mu):
        found.append(mu)
      return
    cur = mu
    for _ in range(bounds[j] + 1):
      rec(j + 1, cur)
      cur = cur - gammas[j]

  rec(0, lam)
  found.sort(key=lambda c: c.coords, reverse=True)
  return found


def is_cover_brute(datum, mu, lam):
  """Cover test by exhaustive betweenness search."""
  mu = _as_class(datum, mu)
  lam = _as_class(datum, lam)
  if mu == lam or not leq(datum, mu, lam):
    return False
  for nu in dominants_below(datum, lam):
    if nu != mu and nu != lam and leq(datum, mu, nu):
      return False
  return True


def _tail_interval(y, ell):
  """If y is the indicator of an interval [i..ell], return i, else None."""
  support = [j + 1 for j in range(ell) if y[j]]
  if not support or any(y[j] != 1 for j in range(ell) if y[j]):
    return None
  i = support[0]
  if support != list(range(i, ell + 1)):
    return None
  return i


def _interval(y, ell):
  """If y is the indicator of an interval [i..k], return (i, k), else None."""
  support = [j + 1 for j in range(ell) if y[j]]
  if not support or any(y[j] != 1 for j in range(ell) if y[j]):
    return None
  i, k = support[0], support[-1]
  if support != list(range(i, k + 1)):
    return None
  return i, k


def is_cover_fast(datum, mu, lam):
  """Closed-form cover test for foldings whose small side is type B.

  With delta = lam - mu in gamma coordinates and c the coefficient of the
  short simple root gamma_ell:
    * c >= 2: never a cover;
    * c == 1: cover iff delta is the indicator of an interval [i..ell] and
      either i == ell (with the two published clauses merging: the short
      coordinate of mu is nonzero, or mu is supported below ell), or
      mu vanishes on coordinates i..ell;
    * c == 0: delta must be an interval root gamma_i + .. + gamma_k with
      k < ell; a single gamma_i is always a cover, a longer interval is a
      cover iff mu vanishes on coordinates i..k.
  """
  htype = datum.weight_ctype
  if htype.family not in ("B", "A") or (htype.family == "A" and htype.rank != 1):
    raise ValueError("fast path requires a type B (or rank one) small side")
  mu = _as_class(datum, mu)
  lam = _as_class(datum, lam)
  if mu == lam or not leq(datum, mu, lam):
    return False
  ell = datum.ell
  y = tuple(int(c) for c in gamma_coords(datum, lam - mu))
  c = y[ell - 1]
  if c >= 2:
    return False
  if c == 1:
    i = _tail_interval(y, ell)
    if i is None:
      return False
    if i == ell:
      # difference is the single short root: either the short coordinate of
      # mu is nonzero, or mu is supported strictly below ell -- both clauses
      # of the closed form apply, so this is always a cover
      return True
    return all(mu.coords[t - 1] == 0 for t in range(i, ell + 1))
  iv = _interval(y, ell)
  if iv is None:
    return False
  i, k = iv
  if i == k:
    return True
  return all(mu.coords[t - 1] == 0 for t in range(i, k + 1))


def is_cover(datum, mu, lam):
  """Cover relation in the dominance order; uses the closed form for the
  ramified family (small side type B with the restricted lattice), the
  betweenness search otherwise."""
  if datum.is_ramified:
    return is_cover_fast(datum, mu, lam)
  return is_cover_brute(datum, mu, lam)


# -- smooth locus ------------------------------------------------------------

@dataclass(frozen=True)
class CellVerdict:
  mu: CoinvariantWeight
  smooth: bool
  reason: str
  provenance: str


@dataclass(frozen=True)
class SmoothLocusReport:
  family: str
  rank: int
  order: int
  variant: str
  lam: CoinvariantWeight
  cells: tuple


def smooth_cells(datum, variant, lam):
  """Classify every cell in the closure of the cell of lam as smooth or
  singular.

  For unramified foldings only the open cell is smooth.  For the ramified
  family the special (not absolutely special) variant admits additional
  smooth cells: those whose difference from lam is gamma_i + ... + gamma_ell
  with mu supported strictly below i; the absolutely special variant again
  has only the open cell smooth, a fact imported from the literature and
  marked with provenance "external".  A variant is given only for the
  ramified family; None selects its default, the special variant.
  """
  lam = _as_class(datum, lam)
  if not lam.is_dominant():
    raise ValueError("lam must be dominant")
  if not datum.in_coinvariant_lattice(lam):
    raise ValueError("lam must lie in the coinvariant lattice")
  ramified = datum.is_ramified
  if not ramified:
    if variant is not None:
      raise ValueError("variant %r applies only to the ramified folding"
                       % (variant,))
    variant = "standard"
  elif variant is None:
    variant = VARIANT_SPECIAL
  elif variant not in (VARIANT_SPECIAL, VARIANT_ABS_SPECIAL):
    raise ValueError("unknown variant %r" % (variant,))
  ell = datum.ell
  cells = []
  for mu in dominants_below(datum, lam):
    if mu == lam:
      cells.append(CellVerdict(mu, True, "open-cell", "internal"))
      continue
    if not ramified:
      cells.append(CellVerdict(mu, False, "not-open-cell", "internal"))
      continue
    if variant == VARIANT_ABS_SPECIAL:
      cells.append(CellVerdict(mu, False, "external-only-open-cell",
                               "external"))
      continue
    y = tuple(int(c) for c in gamma_coords(datum, lam - mu))
    c = y[ell - 1]
    if c % 2 == 0:
      cells.append(CellVerdict(mu, False, "step1-even-short-coefficient",
                               "internal"))
      continue
    if c > 1:
      cells.append(CellVerdict(mu, False, "step2-odd-short-coefficient",
                               "internal"))
      continue
    i = _tail_interval(y, ell)
    if i is not None and all(mu.coords[t - 1] == 0 for t in range(i, ell + 1)):
      cells.append(CellVerdict(mu, True, "quasi-minuscule-cover", "internal"))
      continue
    if is_cover_fast(datum, mu, lam):
      cells.append(CellVerdict(mu, False, "case1-cover-not-quasi-minuscule",
                               "internal"))
    else:
      cells.append(CellVerdict(mu, False, "step3-not-a-cover", "internal"))
  return SmoothLocusReport(datum.base_type.family, datum.base_type.rank,
                           datum.order, variant, lam, tuple(cells))
