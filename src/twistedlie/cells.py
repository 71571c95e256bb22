"""Dominance order on coinvariant classes and the smooth-locus classifier.

Classes live in the weight lattice of the small group H attached to a
folding; the simple roots of H are the classes gamma_j of base simple
coroots.  The order compares differences against nonnegative integral
combinations of the gamma_j, so every order question goes to the root
system of H: ``RootSystem.weight_root_coords`` gives the gamma-coordinates
of a difference, ``dominant_weights_below`` the dominant classes below a
class and ``dominant_covers`` the covers among them.  The smooth-locus
classifier distinguishes the unramified foldings (only the open cell is
smooth) from the ramified family (base A_{2l}, order 4), where certain
quasi-minuscule cover cells are also smooth.
"""

from dataclasses import dataclass
from functools import lru_cache
from operator import sub

from .folding import CoinvariantWeight
from .rootsystem import RootSystem

VARIANT_SPECIAL = "special-not-absolutely-special"
VARIANT_ABS_SPECIAL = "absolutely-special"


@lru_cache(maxsize=None)
def _system(ctype):
  """The root system of H, shared by the enumerator and the cover pass."""
  return RootSystem(ctype)


def _gamma_offset(datum, mu, lam):
  """The gamma-coordinates of lam - mu, or None when one of them is not an
  integer."""
  y = _system(datum.weight_ctype).weight_root_coords(
      tuple(map(sub, lam.coords, mu.coords)))
  return y if all(isinstance(c, int) for c in y) else None


def _as_class(datum, value):
  if isinstance(value, CoinvariantWeight):
    if value.htype != datum.weight_ctype:
      raise ValueError("class belongs to a different folding")
    return value
  return CoinvariantWeight(datum.weight_ctype, tuple(value))


def leq(datum, mu, lam):
  """Whether mu precedes lam: lam - mu a nonnegative integral combination
  of the simple roots gamma_j of H."""
  mu = _as_class(datum, mu)
  lam = _as_class(datum, lam)
  y = _gamma_offset(datum, mu, lam)
  return y is not None and min(y) >= 0


def dominants_below(datum, lam):
  """All dominant, lattice-valid classes below lam, largest coordinates
  first.

  The gamma_j are the simple roots of H and lie in the coinvariant
  lattice, so these are the weights of ``RootSystem.dominant_weights_below``
  in the root system of H.  lam must be dominant and lie in the lattice;
  gamma subtraction keeps a class outside the lattice outside it, so such a
  lam has nothing below it and is rejected rather than answered with an
  empty list.
  """
  lam = _as_class(datum, lam)
  if not lam.is_dominant():
    raise ValueError("lam must be dominant")
  if not datum.in_coinvariant_lattice(lam):
    raise ValueError("lam must lie in the coinvariant lattice")
  htype = datum.weight_ctype
  found = [CoinvariantWeight(htype, mu)
           for _, mu in _system(htype).dominant_weights_below(lam.coords)]
  found.sort(key=lambda c: c.coords, reverse=True)
  return found


def _interval(y):
  """If y is the indicator of an interval [i..k], return (i, k), else None."""
  support = [j + 1 for j, c in enumerate(y) if c]
  if not support or any(y[j - 1] != 1 for j in support):
    return None
  i, k = support[0], support[-1]
  if support != list(range(i, k + 1)):
    return None
  return i, k


def _closed_form_cover(y, mu):
  """The paper's cover test on the ramified family, for y = gamma-coords of
  lam - mu (nonnegative integers) and mu the coordinates of the lower class.

  A cover needs y to be the indicator of an interval [i..k]; a short
  coefficient y_ell >= 2 therefore never gives one, and y_ell == 1 forces
  k == ell.  A single gamma_i (including the short root alone, where the
  two published clauses merge) is always a cover; a longer interval is a
  cover iff mu vanishes on coordinates i..k.
  """
  iv = _interval(y)
  if iv is None:
    return False
  i, k = iv
  return i == k or all(mu[t] == 0 for t in range(i - 1, k))


def is_cover_fast(datum, mu, lam):
  """Closed-form cover test for foldings whose small side is type B."""
  htype = datum.weight_ctype
  if htype.family not in ("B", "A") or (htype.family == "A" and htype.rank != 1):
    raise ValueError("fast path requires a type B (or rank one) small side")
  mu = _as_class(datum, mu)
  lam = _as_class(datum, lam)
  y = _gamma_offset(datum, mu, lam)
  return y is not None and min(y) >= 0 and _closed_form_cover(y, mu.coords)


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


def is_cover(datum, mu, lam):
  """Cover relation in the dominance order; uses the closed form for the
  ramified family (small side type B with the restricted lattice), the
  betweenness search otherwise."""
  if datum.is_ramified:
    return is_cover_fast(datum, mu, lam)
  return is_cover_brute(datum, mu, lam)


def covers(datum, below):
  """Every cover among the classes of ``below``, a list returned by
  ``dominants_below``: the index pairs (a, b), in row-major order, with
  below[a] covered by below[b], by ``RootSystem.dominant_covers`` in the
  root system of H.  On the ramified family they are the covers of the
  paper's closed form (``is_cover_fast``), its test oracle."""
  return _system(datum.weight_ctype).dominant_covers(
      [cw.coords for cw in below])


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
    y = _gamma_offset(datum, mu, lam)
    c = y[-1]
    if c % 2 == 0:
      cells.append(CellVerdict(mu, False, "step1-even-short-coefficient",
                               "internal"))
      continue
    if c > 1:
      cells.append(CellVerdict(mu, False, "step2-odd-short-coefficient",
                               "internal"))
      continue
    # c == 1, so an interval support of y ends at ell
    iv = _interval(y)
    if iv is not None and all(mu.coords[t] == 0
                              for t in range(iv[0] - 1, datum.ell)):
      cells.append(CellVerdict(mu, True, "quasi-minuscule-cover", "internal"))
    elif _closed_form_cover(y, mu.coords):
      cells.append(CellVerdict(mu, False, "case1-cover-not-quasi-minuscule",
                               "internal"))
    else:
      cells.append(CellVerdict(mu, False, "step3-not-a-cover", "internal"))
  return SmoothLocusReport(datum.base_type.family, datum.base_type.rank,
                           datum.order, variant, lam, tuple(cells))
