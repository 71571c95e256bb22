"""The twisted loop algebra in rank one: the diagram automorphism, the
order-four twist, the five-family basis of the fixed current algebra, and
the identification map.

Run as: python demos/twisted_loop_demo.py
"""

from twistedlie.linalg import SparseVector
from twistedlie.loops import (eta_apply, hyperspecial_basis, sigma_apply,
                              tau_apply, verify_hyperspecial)


def show(x):
  """A loop element, a map (basis key, t-degree) -> coefficient, as a sum."""
  terms = sorted(x.items(), key=lambda kv: (kv[0][1], kv[0][0]))
  return " + ".join("(%s)*%r*t^%d" % (c, bkey, deg)
                    for (bkey, deg), c in terms) or "0"


def main():
  ell = 1
  e1 = SparseVector.unit((("E", 1, 2), 0))
  print("the diagram automorphism swaps the simple root vectors:")
  print("  tau(%s) = %s" % (show(e1), show(tau_apply(ell, e1))))

  print("\nthe twist sends the first simple root vector to i times the")
  print("second:")
  print("  sigma(%s) = %s" % (show(e1), show(sigma_apply(ell, e1))))

  x = e1
  for k in range(1, 5):
    x = sigma_apply(ell, x)
    print("  sigma^%d: %s" % (k, show(x)))

  print("\nbasis of the fixed current algebra (image degrees <= 4):")
  for family, desc, elt in hyperspecial_basis(ell, 4):
    print("  family %d %-14s %s -> %s" % (family, desc, show(elt),
                                          show(eta_apply(ell, elt))))

  report = verify_hyperspecial(ell, 6)
  print("\nverification up to degree 6: passed=%s, basis size %d"
        % (report["passed"], report["basis_size"]))


if __name__ == "__main__":
  main()
