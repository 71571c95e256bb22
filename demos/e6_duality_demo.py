"""Build the 2925-dimensional representation of E6 inside the exterior
cube of the 27-dimensional one and run the verification suite.

This takes a few seconds; progress is printed as it goes.

Run as: python demos/e6_duality_demo.py
"""

from twistedlie.e6 import E6Suite


def main():
  suite = E6Suite(progress=lambda msg: print("  ..", msg))
  print("component size:", len(suite.component))
  print("weight-zero fiber:", len(suite.zero_fiber))
  card = suite.scorecard()
  for key in sorted(card):
    print("%-18s %s" % (key, card[key]))


if __name__ == "__main__":
  main()
