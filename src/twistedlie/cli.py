"""Command-line entry point.

Subcommands:

  rootsys           Cartan data and weight computations for a single type.
  fold              folding datum: fixed type, component group, level-one set.
  dominance         dominant coinvariant classes below a class, with covers.
  smooth-locus      smooth/singular classification of the cells in a closure.
  e6-duality        the full E6 verification suite scorecard.
  levi-extremal     just the Levi-extremal sweep of the E6 suite.
  hyperspecial-check  the twisted loop algebra basis verification.
  numbers-game      the numbers-game poset seeded at the fourth fundamental
                    weight of E6.

Output on stdout is deterministic JSON (sorted keys, fractions rendered as
strings such as "1/2", a schema_version field).  The json format is exactly
what json.dumps(..., sort_keys=True, indent=2) would print; the tsv format is
one key<TAB>value line per field, the value as compact JSON with ", " and
": " separators.  One renderer, _render, produces both in one pass over the
payload.  Progress for long-running suites goes to stderr.  Exit code 0
means every requested check passed, 1 means a verification failure (a JSON
witness is still printed), 2 is a usage error, whose reason is printed as an
``error: ...`` line on stderr.  Only a ValueError is a usage error: any
other exception is a bug and propagates.

``main(argv)`` may be called any number of times in one process.  No
parser is built at import.  The first call that names a subcommand builds
a parser holding that subcommand alone, and later calls naming it reuse
it; the first call naming another command, or none (``-h``, no arguments,
an unknown word), builds the full parser once, and that serves every
later call.  A parse leaves nothing on a parser, so the calls are
independent, and every help, usage and error text is the full parser's.
"""

import argparse
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import cells, e6, folding, loops
from .linalg import normalize_scalar
from .rootsystem import build, cartan_matrix

SCHEMA_VERSION = 1
_PLAIN_INT = frozenset([int])


def _render(value, nl):
  """The JSON text of value: dict keys as str(k), sorted; tuples as arrays;
  a Fraction as "p/q", or as an int when integral.  nl is the line break
  and indent of value's own level in the indented layout, None in the
  compact one."""
  if isinstance(value, (list, tuple, dict)):
    if not value:
      return "{}" if isinstance(value, dict) else "[]"
    if nl is None:
      child, lead, sep, tail = None, "", ", ", ""
    else:
      child = nl + "  "
      lead, sep, tail = child, "," + child, nl
    if isinstance(value, dict):
      items = {str(k): v for k, v in value.items()}
      body = sep.join([encode_basestring_ascii(k) + ": "
                       + _render(items[k], child) for k in sorted(items)])
      return "{" + lead + body + tail + "}"
    if set(map(type, value)) <= _PLAIN_INT:
      # a coordinate vector: no bool among the items, so one join
      body = sep.join(map(int.__repr__, value))
    else:
      body = sep.join([_render(v, child) for v in value])
    return "[" + lead + body + tail + "]"
  if value is None:
    return "null"
  if value is True:
    return "true"
  if value is False:
    return "false"
  if isinstance(value, int):
    return int.__repr__(value)
  if isinstance(value, str):
    return encode_basestring_ascii(value)
  if isinstance(value, Fraction):
    return (int.__repr__(value.numerator) if value.denominator == 1
            else encode_basestring_ascii(str(value)))
  raise TypeError("cannot render %r as JSON" % type(value).__name__)


def _emit(payload, fmt):
  """Write payload and the schema version on stdout, in one write once
  every value has rendered: one indented JSON document, or one line per
  top-level key with its value as compact JSON after a tab."""
  payload = {str(k): v for k, v in payload.items()}
  payload["schema_version"] = SCHEMA_VERSION
  if fmt == "tsv":
    text = "".join("%s\t%s\n" % (key, _render(payload[key], None))
                   for key in sorted(payload))
  else:
    text = _render(payload, "\n") + "\n"
  sys.stdout.write(text)


def _progress(msg):
  sys.stderr.write(msg + "\n")
  sys.stderr.flush()


def _parse_coords(text, flag, rank):
  """The value of ``flag``, comma-separated coordinates, one per node: ints
  where integral, else Fractions.  Each error names the flag and the
  whole argument."""
  try:
    coords = tuple(normalize_scalar(Fraction(part))
                   for part in text.split(","))
  except ZeroDivisionError:
    problem = "has a zero denominator"
  except ValueError:
    problem = "is not a comma-separated list of rationals"
  else:
    if len(coords) == rank:
      return coords
    problem = "has %d coordinates, expected %d" % (len(coords), rank)
  raise ValueError("%s %r %s" % (flag, text, problem))


def _parse_weight(text, rank):
  """Integral fundamental weight coordinates, one per node."""
  coords = _parse_coords(text, "--weight", rank)
  if any(type(c) is not int for c in coords):
    raise ValueError("--weight %r has coordinates that are not integers"
                     % text)
  return coords


def _cmd_rootsys(args):
  sys_ = build(args.type, args.rank)
  payload = {
      "type": str(sys_.ctype),
      "cartan": [list(row) for row in sys_.cartan],
      "symmetrizer": list(sys_.d),
      "positive_roots": len(sys_.positive_roots),
      "highest_root": list(sys_.highest_root),
  }
  if args.weight is not None:
    wt = _parse_weight(args.weight, sys_.rank)
    payload["weight"] = list(wt)
    payload["dimension"] = sys_.weyl_dimension(wt)
    payload["orbit_size"] = sys_.orbit_size(wt)
  _emit(payload, args.format)
  return 0


def _cmd_fold(args):
  datum = folding.Folding(args.type, args.rank, args.m)
  betas = [datum.beta(j) for j in range(1, datum.ell + 1)]
  # iota of each base simple coroot (a row of the simply laced Cartan
  # matrix) is the folded simple root of its fiber, halved at the ramified
  # short node; the first node where it is not is reported
  expected = list(betas)
  if datum.is_ramified:
    expected[-1] = tuple(normalize_scalar(c, 2) for c in betas[-1])
  coroots = enumerate(cartan_matrix(datum.base_type), 1)
  iota_break = next((i for i, coroot in coroots
                     if datum.iota(coroot) != expected[datum.eta[i - 1] - 1]),
                    None)
  payload = {
      "base_type": str(datum.base_type),
      "order": datum.order,
      "fixed_type": str(datum.fixed_ctype),
      "weight_type": str(datum.weight_ctype),
      "ramified": datum.is_ramified,
      "component_group": list(datum.component_group()),
      "level_one_set": [list(v) for v in datum.level_one_set()],
      "special_coweights": [list(v) for v in datum.special_coweights()],
      "folded_simple_roots": betas,
      "iota_consistent": iota_break is None,
  }
  if iota_break is not None:
    payload["iota_break"] = iota_break
  _emit(payload, args.format)
  return 0 if iota_break is None else 1


def _cmd_dominance(args):
  datum = folding.Folding(args.type, args.rank, args.m)
  lam = datum.project(_parse_coords(args.lam, "--lambda", args.rank))
  below = cells.dominants_below(datum, lam)
  payload = {
      "class_type": str(datum.weight_ctype),
      "lambda": list(lam.coords),
      "dominants_below": [list(mu.coords) for mu in below],
      "covers": [[list(below[a].coords), list(below[b].coords)]
                 for a, b in cells.covers(datum, below)],
  }
  _emit(payload, args.format)
  return 0


def _cmd_smooth_locus(args):
  datum = folding.Folding(args.type, args.rank, args.m)
  lam = datum.project(_parse_coords(args.lam, "--lambda", args.rank))
  report = cells.smooth_cells(datum, args.variant, lam)
  payload = {
      "family": report.family,
      "rank": report.rank,
      "order": report.order,
      "variant": report.variant,
      "lambda": list(report.lam.coords),
      "cells": [{
          "mu": list(v.mu.coords),
          "smooth": v.smooth,
          "reason": v.reason,
          "provenance": v.provenance,
      } for v in report.cells],
  }
  _emit(payload, args.format)
  return 0


def _cmd_e6_duality(args):
  suite = e6.E6Suite(progress=_progress)
  card = suite.scorecard()
  _emit(card, args.format)
  return 0 if e6.scorecard_ok(card) else 1


def _cmd_levi_extremal(args):
  suite = e6.E6Suite(progress=_progress)
  _progress("sweeping the 151200 lowering words")
  report = suite.levi_extremal_sweep()
  _emit(report, args.format)
  return 0 if report["all_levi_extremal"] else 1


def _cmd_hyperspecial(args):
  basis = loops.hyperspecial_basis(args.ell, args.degree)
  report = loops.verify_hyperspecial(args.ell, args.degree, basis)
  failures = loops.eta_bracket_check(args.ell, args.degree, args.trials,
                                     basis)
  payload = dict(report)
  payload["bracket_trials"] = args.trials
  payload["bracket_failures"] = [list(map(str, f)) for f in failures]
  ok = report["passed"] and not failures
  payload["passed"] = ok
  _emit(payload, args.format)
  return 0 if ok else 1


def _cmd_numbers_game(args):
  poset = e6.numbers_game_poset()
  payload = {
      "nodes": [{"weight": list(w), "star": star} for w, star in
                poset["nodes"]],
      "edges": [list(edge) for edge in poset["edges"]],
      "stars": sum(1 for _, star in poset["nodes"] if star),
  }
  _emit(payload, args.format)
  return 0


def _flag(*names, **kwargs):
  return names, kwargs


_TYPE_RANK = (_flag("--type", required=True),
              _flag("--rank", type=int, required=True))
_DATUM = _TYPE_RANK + (_flag("--m", type=int, required=True),)

# (name, help, handler, flags); every command also takes --format
_COMMANDS = (
    ("rootsys", "Cartan data for a single type", _cmd_rootsys, _TYPE_RANK + (
        _flag("--weight", help="fundamental weight coordinates, e.g. 1,0"),)),
    ("fold", "folding datum summary", _cmd_fold, _DATUM),
    ("dominance", "dominant classes below a class", _cmd_dominance, _DATUM + (
        _flag("--lambda", dest="lam", required=True,
              help="base coweight in fundamental coweight coordinates; "
                   "fractions such as 1/2 are accepted"),)),
    ("smooth-locus", "smooth/singular cell report", _cmd_smooth_locus,
     _DATUM + (_flag("--lambda", dest="lam", required=True),
               _flag("--variant", choices=(cells.VARIANT_SPECIAL,
                                           cells.VARIANT_ABS_SPECIAL)))),
    ("e6-duality", "full E6 suite scorecard", _cmd_e6_duality, ()),
    ("levi-extremal", "the Levi-extremal sweep", _cmd_levi_extremal, ()),
    ("hyperspecial-check", "twisted loop basis check", _cmd_hyperspecial, (
        _flag("--ell", type=int, required=True),
        _flag("--degree", type=int, default=6),
        _flag("--trials", type=int, default=200))),
    ("numbers-game", "the numbers-game poset", _cmd_numbers_game, ()),
)
_FORMAT = _flag("--format", choices=("json", "tsv"), default="json")


# the coordinate flag of each command that has one: argparse reads a value
# such as -1,0,1 after it as an option, so main joins the two as FLAG=VALUE
_COORD_FLAGS = {"rootsys": "--weight", "dominance": "--lambda",
                "smooth-locus": "--lambda"}
_NAMES = tuple(name for name, _, _, _ in _COMMANDS)
# parsers by the command names they hold, built on first use: parse_args
# leaves no state on them
_PARSERS = {}


def _parser(names):
  """The argument parser holding the commands ``names`` of _COMMANDS.  One
  that holds fewer than all of them names them all in its top-level usage
  line, as the full parser does."""
  parser = _PARSERS.get(names)
  if parser is None:
    parser = argparse.ArgumentParser(prog="twistedlie",
                                     description=__doc__.splitlines()[0])
    # the full parser derives this metavar itself; setting it there would
    # change its missing and invalid command errors
    extra = {} if names == _NAMES else {"metavar": "{%s}" % ",".join(_NAMES)}
    sub = parser.add_subparsers(dest="command", required=True, **extra)
    for name, help_text, handler, flags in _COMMANDS:
      if name in names:
        p = sub.add_parser(name, help=help_text)
        for flag_names, kwargs in flags + (_FORMAT,):
          p.add_argument(*flag_names, **kwargs)
        p.set_defaults(func=handler)
    _PARSERS[names] = parser
  return parser


def main(argv=None):
  if argv is None:
    argv = sys.argv[1:]
  # the first command's parser alone, until another command or none asks
  # for the full parser
  names = tuple(argv[:1])
  if not (names and names[0] in _NAMES and _PARSERS.keys() <= {names}):
    names = _NAMES
  flag = _COORD_FLAGS.get(argv[0], "") if argv else ""
  words = []
  for word in argv:
    # the flag or an abbreviation of it, then a value that begins with "-"
    if (words and len(words[-1]) > 2 and flag.startswith(words[-1])
        and re.match(r"-[\d.]", word)):
      words[-1] += "=" + word
    else:
      words.append(word)
  args = _parser(names).parse_args(words)
  try:
    return args.func(args)
  except ValueError as exc:
    sys.stderr.write("error: %s\n" % exc)
    return 2


if __name__ == "__main__":
  sys.exit(main())
