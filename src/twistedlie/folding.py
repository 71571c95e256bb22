"""Diagram foldings of simply laced root systems and coinvariant lattices.

A folding consists of a simply laced base system together with a diagram
automorphism tau of order dividing m; for the one genuinely ramified family
(base A_{2l} with m = 4) the automorphism is tau composed with a torus
element, which twists the loop-algebra picture but acts on cocharacter
lattices through tau alone.

Coordinates:
  * Base coweights are tuples in the fundamental coweight basis, so
    ``v[i-1] = <alpha_i, v>``.
  * Folded (fixed subalgebra) weights are tuples in the fundamental weight
    basis of the fixed type.
  * Coinvariant classes live in the weight lattice of the small side H and
    are stored in fundamental weight coordinates of ``weight_ctype``.
  * The base enters only through the ell x ell matrix ``Folding._q`` of
    fiber sums of simple coroots.
"""

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .linalg import integer_inverse, normalize_scalar, smith_invariant_factors
from .rootsystem import CartanType, cartan_matrix


@dataclass(frozen=True)
class CoinvariantWeight:
  """A coinvariant class, in fundamental weight coordinates of H."""

  htype: CartanType
  coords: tuple

  def __post_init__(self):
    if len(self.coords) != self.htype.rank:
      raise ValueError("class has %d coordinates, expected %d"
                       % (len(self.coords), self.htype.rank))
    object.__setattr__(self, "coords",
                       tuple(normalize_scalar(c) for c in self.coords))

  def is_integral(self):
    return all(isinstance(c, int) for c in self.coords)

  def is_dominant(self):
    return all(c >= 0 for c in self.coords)

  def __add__(self, other):
    if self.htype != other.htype:
      raise ValueError("mismatched types")
    return CoinvariantWeight(self.htype, tuple(
        a + b for a, b in zip(self.coords, other.coords)))


class Folding:
  """A standard diagram folding with all derived coordinate data."""

  def __init__(self, family, rank, order):
    base_type = CartanType(family, rank)
    self.order = order
    f, n, m = family, rank, order
    if f == "A" and m == 2 and n >= 3 and n % 2 == 1:
      self.ell = (n + 1) // 2
      tau = tuple(n + 1 - i for i in range(1, n + 1))
      eta = tuple(min(i, n + 1 - i) for i in range(1, n + 1))
      fixed = CartanType("C", self.ell) if self.ell >= 2 else CartanType("A", 1)
      weight = fixed
    elif f == "A" and m == 4 and n >= 2 and n % 2 == 0:
      self.ell = n // 2
      tau = tuple(n + 1 - i for i in range(1, n + 1))
      eta = tuple(min(i, n + 1 - i) for i in range(1, n + 1))
      fixed = CartanType("C", self.ell) if self.ell >= 2 else CartanType("A", 1)
      weight = CartanType("B", self.ell) if self.ell >= 2 else CartanType("A", 1)
    elif f == "D" and m == 2 and n >= 4:
      self.ell = n - 1
      tau = tuple(i if i <= n - 2 else (2 * n - 1 - i) for i in range(1, n + 1))
      eta = tuple(min(i, n - 1) for i in range(1, n + 1))
      fixed = CartanType("B", self.ell)
      weight = fixed
    elif f == "D" and n == 4 and m == 3:
      self.ell = 2
      tau = (3, 2, 4, 1)
      eta = (1, 2, 1, 1)
      fixed = CartanType("G", 2)
      weight = fixed
    elif f == "E" and n == 6 and m == 2:
      self.ell = 4
      tau = (6, 2, 5, 4, 3, 1)
      eta = (4, 1, 3, 2, 3, 4)
      fixed = CartanType("F", 4)
      weight = fixed
    else:
      raise ValueError("no standard folding for (%s%d, %d)" % (f, n, m))
    self.base_type = base_type
    self.tau = tau
    self.eta = eta
    self.fixed_ctype = fixed
    self.weight_ctype = weight
    self.is_ramified = (f == "A" and m == 4)
    self._fibers = tuple(
        tuple(i for i in range(1, n + 1) if eta[i - 1] == j)
        for j in range(1, self.ell + 1))
    self._hcartan = cartan_matrix(weight)
    # P = C_H Q^{-1} (see ``_q``), summing over the nonzero entries of C_H
    rows, den = integer_inverse(self._q)
    self._projection = tuple(
        tuple(sum(a * rows[j][c] for j, a in terms) for c in range(self.ell))
        for terms in ([(j, a) for j, a in enumerate(row) if a]
                      for row in self._hcartan)), den

  # -- restriction and the folded simple roots ----------------------------

  def _check_node(self, j):
    if not 1 <= j <= self.ell:
      raise ValueError("node %r out of range 1..%d" % (j, self.ell))

  def fiber(self, j):
    """All base nodes i with eta(i) = j."""
    self._check_node(j)
    return self._fibers[j - 1]

  def beta(self, j):
    """Folded simple root beta_j in fixed-type fundamental weight coords:
    the restriction of a simple base root in the j-th fiber, column j of Q;
    at the ramified short node it is that of alpha_ell + alpha_{ell+1},
    whose summands lie in one fiber, so the column is doubled."""
    self._check_node(j)
    col = tuple(row[j - 1] for row in self._q)
    if self.is_ramified and j == self.ell:
      return tuple(2 * c for c in col)
    return col

  # -- the iota map and projection to coinvariants ------------------------

  def iota(self, coweight):
    """iota of a base coweight (fundamental coweight coords), in fixed-type
    fundamental weight coordinates.

    The base system is simply laced and its normalized invariant form
    identifies coroots with roots, so the pairing of the restriction against
    betacheck_j is the sum of the coordinates over the j-th fiber.
    """
    if len(coweight) != self.base_type.rank:
      raise ValueError("coweight has %d coordinates, expected %d"
                       % (len(coweight), self.base_type.rank))
    return tuple(normalize_scalar(sum(coweight[i - 1] for i in fiber))
                 for fiber in self._fibers)

  @cached_property
  def _q(self):
    """Q, the fiber sums of the simple coroots: entry (k, j) sums over the
    k-th fiber the coordinates of a simple coroot in the j-th fiber, so
    column j is iota of that coroot.

    Modulo the image of 1 - tau, Z^rank is free on the fibers (the
    tau-orbits) by fiber sums, and there coroot i is column eta(i) of Q.
    So Q holds all the folding reads from the base: column j is the folded
    simple root beta_j (doubled at the ramified short node); the
    projection from fiber sums to fundamental weight coordinates of H is
    P = C_H Q^{-1}, so gamma_j, the class of a coroot in the j-th fiber, is
    column j of C_H, and P is held as integer rows over one denominator;
    the component group is Z^ell modulo the columns of Q.
    """
    cartan = cartan_matrix(self.base_type)
    heads = [fiber[0] - 1 for fiber in self._fibers]
    return tuple(tuple(sum(cartan[a - 1][i] for a in fiber) for i in heads)
                 for fiber in self._fibers)

  def project(self, coweight):
    """Class of a base coweight in the coinvariant lattice.

    Input in base fundamental coweight coordinates; output in fundamental
    weight coordinates of H.
    """
    cprime = self.iota(coweight)
    rows, den = self._projection
    return CoinvariantWeight(self.weight_ctype, tuple(
        normalize_scalar(sum(map(mul, row, cprime)), den) for row in rows))

  def gamma(self, j):
    """The class of a simple coroot in the j-th fiber: the j-th simple root
    of H, column j of C_H (see ``_q``)."""
    self._check_node(j)
    return CoinvariantWeight(self.weight_ctype,
                             tuple(row[j - 1] for row in self._hcartan))

  def in_coinvariant_lattice(self, cw):
    """Whether the class lies in the image lattice of the projection."""
    if not cw.is_integral():
      return False
    if self.is_ramified:
      return cw.coords[self.ell - 1] % 2 == 0
    return True

  # -- discrete invariants -------------------------------------------------

  def component_group(self):
    """Invariant factors (> 1) of the coinvariants of pi_1 of the adjoint
    base group: Z^rank modulo the span of (1 - tau) and the coroot columns,
    that is Z^ell modulo the columns of Q (see ``_q``)."""
    return tuple(d for d in smith_invariant_factors(self._q) if d != 1)

  def level_one_set(self):
    """Minimal dominant fixed-type weights, one per component.

    Fixed-type fundamental weight coordinates, the iota images of the
    special coweights; always contains zero.
    """
    return [self.iota(c) for c in self.special_coweights()]

  def special_coweights(self):
    """Base coweights (fund coweight coords) mapping onto level_one_set
    under iota; always contains zero."""
    n = self.base_type.rank
    zero = (0,) * n
    out = [zero]
    f = self.base_type.family
    if f == "A" and self.order == 2:
      out.append(tuple(int(k == 0) for k in range(n)))
    elif f == "D" and self.order == 2:
      out.append(tuple(int(k == self.ell - 1) for k in range(n)))
    return out
