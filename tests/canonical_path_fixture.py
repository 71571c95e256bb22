"""The E6 suite's checks in the canonical-path basis of the crystal
component, kept as the oracle for the checks on the exterior cube's own
basis: the orbit search on the subrepresentation, whose reflections on the
weight-zero fiber carry denominators up to 64, scaled to integers, with
each orbit vector kept as a Fraction times a primitive int vector."""

from fractions import Fraction
from math import gcd, lcm

from twistedlie import e6, reps
from twistedlie.linalg import SparseVector, normalize_scalar


def primitive(c, num):
  """The nonzero vector c * num, c a Fraction and num an int dict, as
  (key, c, num) with the entries of num made coprime; the vectors v and -v
  have the same key."""
  g = gcd(*num.values())
  if g != 1:
    num = {k: x // g for k, x in num.items()}
    c *= g
  key = sorted(num.items())
  if key[0][1] < 0:
    key = [(k, -x) for k, x in key]
  return (tuple(key), abs(c)), c, num


class CanonicalPathSuite(e6.E6Suite):
  """A built suite seen in the canonical-path basis.

  The suite's vector, reflection and sweep methods read ``wedge3`` and
  start from ``hw_vec``; here those are the suite's ``subrep`` and its
  highest weight vector, unit(0), and ``zero_fiber`` is the component's
  elements of weight zero.  The orbit search is the integer-scaled one.
  Only the suite's data is shared, not an attribute a test has set."""

  def __init__(self, suite):
    self.sys = suite.sys
    self.extremal_weights = suite.extremal_weights
    self.progress = suite.progress
    self.wedge3 = suite.subrep
    self.hw_vec = SparseVector.unit(0)
    self.zero_fiber = tuple(b for b in range(len(suite.component))
                            if suite.component.wt(b) == (0,) * 6)
    self._vzero = None
    self._orbit = None

  def orbit_up_to_sign(self):
    """The orbit up to sign, in breadth-first order.  The reflections act
    on the weight-zero fiber as integer matrices: each table times the lcm
    L_i of its denominators.  An orbit vector is kept as c * num, so s_i
    maps it to (c / L_i) * (L_i s_i) num."""
    if self._orbit is not None:
      return self._orbit
    v = self.build_vzero()
    if not v:
      raise ValueError("the weight-zero vector vanished")
    scales, tables = reps._integer_tables(
        dict(enumerate(self.zero_fiber_reflections())))
    scaled = [(scales[t], tables[t]) for t in tables]
    d = lcm(*(Fraction(c).denominator for c in v.entries.values()))
    key0, c0, num0 = primitive(Fraction(1, d),
                               {k: int(x * d) for k, x in v.items()})
    seen = {key0: (c0, num0)}
    frontier = [(c0, num0)]
    while frontier:
      nxt = []
      for c, num in frontier:
        for scale, table in scaled:
          key, c2, num2 = primitive(c / scale, reps._apply(table, num))
          if key not in seen:
            seen[key] = (c2, num2)
            nxt.append((c2, num2))
            if len(seen) > e6.WEYL_ORDER:
              raise ArithmeticError(
                  "orbit exceeds |W(E6)| = %d vectors" % e6.WEYL_ORDER)
      frontier = nxt
    self._orbit = [
        SparseVector._raw({k: normalize_scalar(c * x) for k, x in num.items()})
        for c, num in seen.values()]
    return self._orbit
