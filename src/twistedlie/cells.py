"""Dominance order on coinvariant classes and the smooth-locus classifier.

Classes live in the weight lattice of the small group H attached to a
folding; the simple roots of H are the classes gamma_j of base simple
coroots.  The order compares differences against nonnegative integral
combinations of the gamma_j.  Every comparison of two classes is answered
from integer gamma offsets: the inverse Cartan matrix of H is kept as an
integer matrix over one common denominator, so no comparison builds a
Fraction.  Comparable dominant weights are joined by a chain of dominant
weights whose steps are positive roots (Stembridge, "The partial order of
dominant weights", Adv. Math. 136, 1998).  So the dominant classes below a
class come from the positive-root search of the root system of H, and one
pass finds the covers among them by stepping from each class by the
positive roots of H and looking the results up among the enumerated
classes, never comparing all pairs of classes.  The smooth-locus classifier
distinguishes the unramified foldings (only the open cell is smooth) from
the ramified family (base A_{2l}, order 4), where certain quasi-minuscule
cover cells are also smooth.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import lcm
from operator import add, le

from .folding import CoinvariantWeight
from .rootsystem import RootSystem

VARIANT_SPECIAL = "special-not-absolutely-special"
VARIANT_ABS_SPECIAL = "absolutely-special"


@lru_cache(maxsize=None)
def _system(ctype):
  """The root system of H, shared by the enumerator and the cover pass."""
  return RootSystem(ctype)


@lru_cache(maxsize=None)
def _gamma_basis(ctype):
  """The inverse Cartan matrix of ctype as integer rows over one common
  denominator den: the gamma-coordinates of a class are row . coords / den.
  """
  inv = _system(ctype).cartan_inv
  den = lcm(*(c.denominator for row in inv for c in row))
  return tuple(tuple(int(c * den) for c in row) for row in inv), den


def _scaled(datum, coords):
  """den times the gamma-coordinates of a class with these coordinates."""
  rows, _ = _gamma_basis(datum.weight_ctype)
  return tuple(sum(a * c for a, c in zip(row, coords)) for row in rows)


def _offset(datum, low, high):
  """The gamma-coordinates of high - low as an integer tuple, or None when
  one of them is not an integer; low and high are ``_scaled`` values."""
  _, den = _gamma_basis(datum.weight_ctype)
  y = []
  for a, b in zip(low, high):
    q, r = divmod(b - a, den)
    if r:
      return None
    y.append(q)
  return tuple(y)


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
  y = _offset(datum, _scaled(datum, mu.coords), _scaled(datum, lam.coords))
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
  y = _offset(datum, _scaled(datum, mu.coords), _scaled(datum, lam.coords))
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


@lru_cache(maxsize=None)
def _root_steps(ctype):
  """The positive roots alpha of ctype by height, as triples (alpha in
  simple-root (gamma) coordinates, alpha in fundamental-weight
  coordinates, the positive roots strictly below alpha).  A root below
  alpha has a smaller height, so it comes before alpha."""
  system = _system(ctype)
  roots = system.positive_roots
  return tuple((alpha, system.root_weight(alpha),
                tuple(beta for beta in roots[:k] if all(map(le, beta, alpha))))
               for k, alpha in enumerate(roots))


def covers(datum, below):
  """Every cover among the classes of ``below``: the index pairs (a, b), in
  row-major order, with below[a] covered by below[b].  Each pair agrees
  with ``is_cover``.

  ``below`` must be a list returned by ``dominants_below``: every dominant
  lattice class under one of its members is itself a member, so a cover
  inside ``below`` is a cover of the dominance order.  A cover of dominant
  weights differs by a positive root (Stembridge, "The partial order of
  dominant weights", Adv. Math. 136, 1998).  So the candidates for b are
  the classes below[a] + alpha, alpha in the positive roots of H, looked up
  by their coordinates, and below[a] + alpha is a cover iff no positive
  root beta < alpha has below[a] + beta in ``below``, since the first step
  of a chain from below[a] to a class strictly between would be such a
  beta.  On the ramified family this rule gives the covers of the paper's
  closed form (``is_cover_fast``), its test oracle.
  """
  index = {cw.coords: a for a, cw in enumerate(below)}
  roots = _root_steps(datum.weight_ctype)
  pairs = []
  for a, cw in enumerate(below):
    up = {alpha: index.get(tuple(map(add, cw.coords, step)))
          for alpha, step, _ in roots}
    hits = sorted(up[alpha] for alpha, _, lower in roots
                  if up[alpha] is not None
                  and all(up[beta] is None for beta in lower))
    pairs.extend((a, b) for b in hits)
  return pairs


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
  top = _scaled(datum, lam.coords)
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
    y = _offset(datum, _scaled(datum, mu.coords), top)
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
