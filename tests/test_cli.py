import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistedlie import cli, e6, folding, loops
from twistedlie.linalg import SparseVector, ZERO_VECTOR


def _run(capsys, argv):
  code = cli.main(argv)
  out = capsys.readouterr().out
  return code, out


class TestRootsys:

  def test_basic(self, capsys):
    code, out = _run(capsys, ["rootsys", "--type", "E", "--rank", "6"])
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["type"] == "E6"
    assert data["positive_roots"] == 36
    assert data["highest_root"] == [1, 2, 2, 3, 2, 1]

  def test_weight_report(self, capsys):
    code, out = _run(capsys, ["rootsys", "--type", "E", "--rank", "6",
                              "--weight", "0,0,0,1,0,0"])
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 2925
    assert data["orbit_size"] == 720

  def test_e8_regular_orbit_is_not_enumerated(self, capsys):
    # 696,729,600 weights: the size comes from the closed form
    code, out = _run(capsys, ["rootsys", "--type", "E", "--rank", "8",
                              "--weight", "1,1,1,1,1,1,1,1"])
    assert code == 0
    assert json.loads(out)["orbit_size"] == 696729600

  def test_deterministic_output(self, capsys):
    _, first = _run(capsys, ["rootsys", "--type", "F", "--rank", "4"])
    _, second = _run(capsys, ["rootsys", "--type", "F", "--rank", "4"])
    assert first == second

  def test_tsv_format(self, capsys):
    code, out = _run(capsys, ["rootsys", "--type", "A", "--rank", "2",
                              "--format", "tsv"])
    assert code == 0
    lines = dict(line.split("\t", 1) for line in out.splitlines())
    assert json.loads(lines["positive_roots"]) == 3
    assert json.loads(lines["schema_version"]) == 1

  def test_bad_type_is_usage_error(self, capsys):
    code, _ = _run(capsys, ["rootsys", "--type", "Z", "--rank", "2"])
    assert code == 2


class TestFold:

  def test_e6(self, capsys):
    code, out = _run(capsys, ["fold", "--type", "E", "--rank", "6",
                              "--m", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["fixed_type"] == "F4"
    assert data["level_one_set"] == [[0, 0, 0, 0]]
    assert data["iota_consistent"]

  def test_ramified(self, capsys):
    code, out = _run(capsys, ["fold", "--type", "A", "--rank", "4",
                              "--m", "4"])
    assert code == 0
    data = json.loads(out)
    assert data["ramified"]
    assert data["weight_type"] == "B2"
    assert data["component_group"] == []

  def test_uncovered_datum_is_usage_error(self, capsys):
    code, _ = _run(capsys, ["fold", "--type", "A", "--rank", "4",
                            "--m", "2"])
    assert code == 2

  @pytest.mark.parametrize("family, rank, m", [
      ("A", 7, 2), ("A", 6, 4), ("D", 6, 2), ("D", 4, 3), ("E", 6, 2),
      ("A", 2, 4)])
  def test_valid_data_pass_the_iota_check(self, capsys, family, rank, m):
    code, out = _run(capsys, ["fold", "--type", family, "--rank", str(rank),
                              "--m", str(m)])
    assert code == 0
    data = json.loads(out)
    assert data["iota_consistent"] is True
    assert "iota_break" not in data

  def test_corrupted_fiber_table_fails_with_witness(self, capsys,
                                                    monkeypatch):
    # E6/m2 with nodes 1, 5 and 3, 6 in common fibers: the fiber table no
    # longer agrees with the Cartan matrix, first at node 5, whose coroot
    # has another iota image than node 1's
    class Corrupted(folding.Folding):
      def __init__(self, *args):
        super().__init__(*args)
        self.eta = (4, 1, 3, 2, 4, 3)
        self._fibers = tuple(
            tuple(i for i in range(1, 7) if self.eta[i - 1] == j)
            for j in range(1, 5))
        vars(self).pop("_q", None)
    monkeypatch.setattr(folding, "Folding", Corrupted)
    code, out = _run(capsys, ["fold", "--type", "E", "--rank", "6",
                              "--m", "2"])
    assert code == 1
    data = json.loads(out)
    assert data["iota_consistent"] is False
    assert data["iota_break"] == 5


class TestE6Verdict:
  """The verdict of e6-duality, on scorecards given without the suite."""

  PASSING = {"vzero_nonzero": True, "orbit_size": 240, "rank": 45,
             "levi_extremal_ok": True, "chain_ok": True, "poset_ok": True}
  FAILING = (("vzero_nonzero", False), ("orbit_size", 239), ("rank", 44),
             ("levi_extremal_ok", False), ("chain_ok", False),
             ("poset_ok", False))

  @staticmethod
  def _run_with(capsys, monkeypatch, card):
    class Suite:
      def __init__(self, progress):
        pass

      def scorecard(self):
        return card

    monkeypatch.setattr(e6, "E6Suite", Suite)
    code, out = _run(capsys, ["e6-duality"])
    data = json.loads(out)
    assert data.pop("schema_version") == 1
    assert data == card
    return code

  def test_passing_scorecard(self, capsys, monkeypatch):
    assert (e6.ORBIT_SIZE, e6.ORBIT_RANK) == (240, 45)
    assert e6.scorecard_ok(self.PASSING) is True
    assert self._run_with(capsys, monkeypatch, self.PASSING) == 0

  @pytest.mark.parametrize("field, value", FAILING,
                           ids=[f for f, _ in FAILING])
  def test_each_failing_field(self, capsys, monkeypatch, field, value):
    card = {**self.PASSING, field: value}
    assert e6.scorecard_ok(card) is False
    assert self._run_with(capsys, monkeypatch, card) == 1


def _drop_edge(poset):
  return {"nodes": poset["nodes"], "edges": poset["edges"][:-1]}


def _drop_star(poset):
  nodes = list(poset["nodes"])
  k = max(k for k, (_, star) in enumerate(nodes) if star)
  nodes[k] = (nodes[k][0], False)
  return {"nodes": nodes, "edges": poset["edges"]}


def _drop_node(poset):
  last = len(poset["nodes"]) - 1
  return {"nodes": poset["nodes"][:-1],
          "edges": [e for e in poset["edges"] if last not in e[:2]]}


def _relabel_edge(poset):
  a, b, i = poset["edges"][0]
  return {"nodes": poset["nodes"], "edges": [(a, b, i + 1)]
          + poset["edges"][1:]}


def _repeat_edge(poset):
  return {"nodes": poset["nodes"], "edges": poset["edges"]
          + poset["edges"][:1]}


_LAST = [1, 2, 0, -1, 1, -1]
_FIRST_EDGE = [[0, 0, 0, 1, 0, 0], [0, 1, 1, -1, 1, 0]]

# Each defect with its witness: the first node or edge of the figure that the
# generator no longer produces, or else the first generated one that the
# figure does not have or that repeats.
_POSET_DEFECTS = (
    (_drop_edge, ["edge", [1, 2, 0, -1, 0, 1], _LAST, 6]),
    (_drop_star, ["node", _LAST, True]),
    (_drop_node, ["node", _LAST, True]),
    (_relabel_edge, ["edge"] + _FIRST_EDGE + [4]),
    (_repeat_edge, ["edge"] + _FIRST_EDGE + [4]),
)


class TestPosetDefect:
  """The real suite and scorecard, with a defect injected into the output
  of the real numbers-game generator."""

  @pytest.mark.parametrize("defect, witness", _POSET_DEFECTS,
                           ids=("edge", "star", "node", "label", "repeat"))
  def test_defect_fails_the_verdict(self, capsys, monkeypatch, suite, defect,
                                    witness):
    real = e6.numbers_game_poset
    monkeypatch.setattr(e6, "numbers_game_poset", lambda: defect(real()))
    monkeypatch.setattr(e6, "E6Suite", lambda progress: suite)
    code, out = _run(capsys, ["e6-duality"])
    assert code == 1
    data = json.loads(out)
    assert data.pop("schema_version") == 1
    assert data == {**TestE6Verdict.PASSING, "poset_ok": False,
                    "poset_break": witness}


def test_vanished_vzero_is_a_witness(capsys, monkeypatch, suite):
  # the orbit is skipped, not a usage error: exit 1 with the card on stdout
  monkeypatch.setattr(suite, "build_vzero", lambda: ZERO_VECTOR)
  monkeypatch.setattr(e6, "E6Suite", lambda progress: suite)
  code = cli.main(["e6-duality"])
  captured = capsys.readouterr()
  assert code == 1
  assert captured.err == ""
  data = json.loads(captured.out)
  assert data.pop("schema_version") == 1
  assert data == {**TestE6Verdict.PASSING, "vzero_nonzero": False,
                  "orbit_size": 0, "rank": 0}
  # a direct caller of the orbit still gets the ValueError
  monkeypatch.setattr(suite, "_orbit", None)
  with pytest.raises(ValueError, match="vanished"):
    suite.orbit_up_to_sign()


def test_runaway_orbit_is_a_witness(capsys, monkeypatch, suite):
  # a key that never identifies two vectors makes the orbit search outgrow
  # W(E6): exit 1 with the bound on stdout, not a traceback
  fresh = count()
  monkeypatch.setattr(e6, "_up_to_sign", lambda vec: next(fresh))
  monkeypatch.setattr(suite, "_orbit", None)
  monkeypatch.setattr(e6, "E6Suite", lambda progress: suite)
  code = cli.main(["e6-duality"])
  captured = capsys.readouterr()
  assert code == 1
  assert captured.err == ""
  data = json.loads(captured.out)
  assert data.pop("schema_version") == 1
  assert data == {**TestE6Verdict.PASSING, "orbit_size": e6.WEYL_ORDER + 1,
                  "rank": 0, "orbit_overflow": e6.WEYL_ORDER}


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
  # only a ValueError is a usage error; a KeyError is a bug and propagates
  def broken(family, rank):
    raise KeyError("internal")

  monkeypatch.setattr(cli, "build", broken)
  with pytest.raises(KeyError, match="internal"):
    cli.main(["rootsys", "--type", "A", "--rank", "2"])
  assert capsys.readouterr().err == ""


class TestDominance:

  def test_rank_one_chain(self, capsys):
    code, out = _run(capsys, ["dominance", "--type", "A", "--rank", "2",
                              "--m", "4", "--lambda", "2,0"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [4]
    assert data["dominants_below"] == [[4], [2], [0]]
    assert [[2], [4]] in data["covers"]
    assert [[0], [2]] in data["covers"]
    assert [[0], [4]] not in data["covers"]

  def test_fractional_coordinates_accepted(self, capsys):
    code, out = _run(capsys, ["dominance", "--type", "A", "--rank", "2",
                              "--m", "4", "--lambda", "1/2,1/2"])
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == [2]

  def test_e6_all_ones_finishes(self, capsys):
    code, out = _run(capsys, ["dominance", "--type", "E", "--rank", "6",
                              "--m", "2", "--lambda", "1,1,1,1,1,1"])
    assert code == 0
    data = json.loads(out)
    assert len(data["dominants_below"]) == 157
    assert len(data["covers"]) == 275


class TestSmoothLocus:

  def test_doubled_class_report(self, capsys):
    code, out = _run(capsys, ["smooth-locus", "--type", "A", "--rank", "2",
                              "--m", "4", "--lambda", "2,0",
                              "--variant", "special-not-absolutely-special"])
    assert code == 0
    data = json.loads(out)
    cells = {tuple(c["mu"]): c for c in data["cells"]}
    assert cells[(4,)]["smooth"]
    assert not cells[(2,)]["smooth"]
    assert cells[(2,)]["reason"] == "case1-cover-not-quasi-minuscule"
    assert not cells[(0,)]["smooth"]

  def test_deterministic(self, capsys):
    argv = ["smooth-locus", "--type", "A", "--rank", "4", "--m", "4",
            "--lambda", "1,1,1,1", "--variant", "special-not-absolutely-special"]
    _, first = _run(capsys, argv)
    _, second = _run(capsys, argv)
    assert first == second


class TestHyperspecial:

  def test_rank_one(self, capsys):
    code, out = _run(capsys, ["hyperspecial-check", "--ell", "1",
                              "--degree", "4", "--trials", "20"])
    assert code == 0
    data = json.loads(out)
    assert data["passed"]
    assert data["mismatches"] == []
    assert data["bracket_failures"] == []

  def test_element_not_tau_fixed_fails_the_check(self, capsys, monkeypatch):
    # a verification failure (exit 1) with its witness, not a usage error
    bad = SparseVector({(("E", 1, 2), 0): 1})
    basis = loops.hyperspecial_basis(1, 4)
    monkeypatch.setattr(loops, "hyperspecial_basis",
                        lambda ell, bound: basis + [("injected", (9,), bad)])
    code, out = _run(capsys, ["hyperspecial-check", "--ell", "1",
                              "--degree", "4", "--trials", "20"])
    assert code == 1
    data = json.loads(out)
    assert not data["passed"]
    assert {"family": "injected", "descriptor": [9],
            "problems": ["not-tau-fixed"]} in data["mismatches"]


class TestNumbersGame:

  def test_counts(self, capsys):
    code, out = _run(capsys, ["numbers-game"])
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 16
    assert len(data["edges"]) == 16
    assert data["stars"] == 10
    assert data["nodes"][0] == {"star": False,
                                "weight": [0, 0, 0, 1, 0, 0]}


class TestUsageErrors:

  def test_missing_subcommand(self):
    with pytest.raises(SystemExit) as err:
      cli.main([])
    assert err.value.code == 2

  def test_unknown_flag(self):
    with pytest.raises(SystemExit) as err:
      cli.main(["rootsys", "--type", "A", "--rank", "2", "--nope"])
    assert err.value.code == 2


def test_parsed_coordinates_are_ints_where_integral():
  got = cli._parse_coords("1,-2,1/2,4/2,0", "--lambda", 5)
  assert got == (1, -2, Fraction(1, 2), 2, 0)
  assert [type(c) for c in got] == [int, int, Fraction, int, int]
  assert [type(c) for c in cli._parse_weight("3,0", 2)] == [int, int]


def _jsonable(value):
  """The oracle's converter to json's types: ints, bools and None as they
  are, a Fraction as "p/q" or an int, tuples as lists, keys as str(k)."""
  if isinstance(value, bool) or isinstance(value, int) or value is None:
    return value
  if isinstance(value, Fraction):
    return str(value) if value.denominator != 1 else int(value)
  if isinstance(value, str):
    return value
  if isinstance(value, (list, tuple)):
    return [_jsonable(v) for v in value]
  if isinstance(value, dict):
    return {str(k): _jsonable(v) for k, v in value.items()}
  raise TypeError("cannot render %r as JSON" % type(value).__name__)


def _oracle_emit(payload, fmt):
  """The text cli._emit must write, through _jsonable and json.dumps."""
  data = _jsonable(dict(payload, schema_version=cli.SCHEMA_VERSION))
  if fmt == "tsv":
    return "".join("%s\t%s\n" % (key, json.dumps(data[key], sort_keys=True))
                   for key in sorted(data))
  return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emitted(payload, fmt):
  out = io.StringIO()
  with contextlib.redirect_stdout(out):
    cli._emit(payload, fmt)
  return out.getvalue()


class TestJsonable:

  def test_fractions_render_as_strings_or_ints(self):
    payload = {"half": Fraction(1, 2), "two": Fraction(4, 2), 3: (None,)}
    assert cli._render(payload, None) == \
        '{"3": [null], "half": "1/2", "two": 2}'
    assert cli._render(payload, "\n") == \
        '{\n  "3": [\n    null\n  ],\n  "half": "1/2",\n  "two": 2\n}'

  def test_unsupported_value_raises(self):
    with pytest.raises(TypeError):
      cli._render(object(), None)


# quotes, escapes, control characters, non-ASCII and an astral character
_CHARS = "az\"\\/\n\t\x00\x1f\x7f\u00e9 \u20ac\U0001f600"
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
            | st.text(st.sampled_from(_CHARS), max_size=4))
# int lists with bools among them, beside the plain int coordinate vectors
_VECTORS = (st.lists(st.integers(-9, 9), max_size=4)
            | st.lists(st.integers(-2, 2) | st.booleans(), max_size=4))
_KEYS = st.integers(-3, 3) | st.text(st.sampled_from(_CHARS), max_size=2)
_VALUES = st.recursive(
    _SCALARS | _VECTORS | _VECTORS.map(tuple),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_KEYS, kids, max_size=4)),
    max_leaves=8)
_PAYLOADS = st.dictionaries(_KEYS, _VALUES, max_size=4)


class TestRendererAgainstJsonDumps:

  @settings(max_examples=200, deadline=None)
  @given(payload=_PAYLOADS)
  def test_both_layouts_equal_json_dumps(self, payload):
    for fmt in ("json", "tsv"):
      assert _emitted(payload, fmt) == _oracle_emit(payload, fmt)

  @pytest.mark.parametrize("fmt", ("json", "tsv"))
  @pytest.mark.parametrize("value", (0.5, [1, 2.0], {"a": (1, {"b": 1e9})}),
                           ids=("float", "in-vector", "nested"))
  def test_float_raises_before_any_output(self, fmt, value):
    payload = {"first": [1, 2], "value": value}
    with pytest.raises(TypeError):
      _oracle_emit(payload, fmt)
    out = io.StringIO()
    with pytest.raises(TypeError, match="'float'"), \
        contextlib.redirect_stdout(out):
      cli._emit(payload, fmt)
    assert out.getvalue() == ""

  @pytest.mark.parametrize("argv", (
      ["dominance", "--type", "A", "--rank", "6", "--m", "4",
       "--lambda", "2,2,2,2,2,2"],
      ["smooth-locus", "--type", "A", "--rank", "6", "--m", "4",
       "--lambda", "2,2,2,2,2,2"],
      ["numbers-game"]), ids=lambda argv: argv[0])
  @pytest.mark.parametrize("fmt", ("json", "tsv"))
  def test_command_payloads_equal_json_dumps(self, monkeypatch, argv, fmt):
    payloads = []
    monkeypatch.setattr(cli, "_emit", lambda payload, _: payloads.append(
        payload))
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert _emitted(payloads[0], fmt) == _oracle_emit(payloads[0], fmt)


# (argv, whether argparse rejects it before a subcommand runs): one
# malformed input per subcommand at least.
_MALFORMED = (
    (["rootsys", "--type", "A", "--rank", "2", "--weight", "1/2,0"], False),
    (["rootsys", "--type", "A", "--rank", "2", "--weight", "1,0,5"], False),
    (["rootsys", "--type", "A", "--rank", "2", "--weight", "x,0"], False),
    (["rootsys", "--type", "A", "--rank", "2", "--weight", "1/0,0"], False),
    (["rootsys", "--type", "BC", "--rank", "3"], False),
    (["rootsys", "--type", "", "--rank", "3"], False),
    (["rootsys", "--type", "A", "--rank", "2", "--weight", ""], False),
    (["rootsys", "--type", "A", "--rank", "99999999999999999999"], False),
    (["fold", "--type", "A", "--rank", "3", "--m", "3"], False),
    (["fold", "--type", "A", "--rank", "3", "--m", "two"], True),
    (["dominance", "--type", "A", "--rank", "2", "--m", "4",
      "--lambda", "1"], False),
    (["dominance", "--type", "A", "--rank", "4", "--m", "4",
      "--lambda", "1/2,1,1,1"], False),
    (["dominance", "--type", "A", "--rank", "2", "--m", "4",
      "--lambda", "1/0,0"], False),
    (["smooth-locus", "--type", "A", "--rank", "2", "--m", "4",
      "--lambda", "1/0,0"], False),
    (["smooth-locus", "--type", "A", "--rank", "2", "--m", "4",
      "--lambda", "1,0,0"], False),
    (["smooth-locus", "--type", "D", "--rank", "4", "--m", "2",
      "--lambda", "1,0,0,0", "--variant", "absolutely-special"], False),
    (["hyperspecial-check", "--ell", "0"], False),
    (["hyperspecial-check", "--ell", "1", "--degree", "4",
      "--trials", "-1"], False),
    (["hyperspecial-check", "--ell", "99999999999999999999",
      "--trials", "0"], False),
    (["hyperspecial-check", "--ell", "1",
      "--degree", "99999999999999999999"], False),
    (["hyperspecial-check", "--ell", "1", "--degree", "4",
      "--trials", "99999999999999999999"], False),
    (["e6-duality", "--format", "xml"], True),
    (["levi-extremal", "--format", "xml"], True),
    (["numbers-game", "--format", "xml"], True),
    (["numbers-game", "--jobs", "2"], True),
)


@pytest.mark.parametrize("argv,by_argparse", _MALFORMED,
                         ids=[" ".join(a) for a, _ in _MALFORMED])
def test_malformed_input_is_usage_error(capsys, argv, by_argparse):
  try:
    code = cli.main(argv)
  except SystemExit as exc:
    code = exc.code
  captured = capsys.readouterr()
  assert code == 2
  assert captured.out == ""
  lines = captured.err.splitlines()
  assert [line for line in lines if "error: " in line] == lines[-1:]
  if by_argparse:
    # argparse prints its usage text before the error line
    assert lines[0].startswith("usage: ")
  else:
    assert len(lines) == 1 and lines[0].startswith("error: ")


# malformed coordinates, each given as the last argument after its flag
_BAD_COORDS = tuple(argv + [flag, text] for argv, flag, texts in (
    (["rootsys", "--type", "A", "--rank", "2"], "--weight",
     ("x,0", ",", "", "1/0,0", "1,0,5", "1", "1/2,0")),
    (["dominance", "--type", "A", "--rank", "2", "--m", "4"], "--lambda",
     ("x,0", ",", "1/0,0", "1", "1,0,0")),
    (["smooth-locus", "--type", "A", "--rank", "2", "--m", "4"], "--lambda",
     ("1/0,0", "1,0,0")),
) for text in texts)


@pytest.mark.parametrize("argv", _BAD_COORDS,
                         ids=[" ".join(a) for a in _BAD_COORDS])
def test_coordinate_errors_name_their_flag(capsys, argv):
  # one error line that names the flag and quotes the whole argument
  assert cli.main(argv) == 2
  captured = capsys.readouterr()
  assert captured.out == ""
  lines = captured.err.splitlines()
  assert len(lines) == 1
  assert lines[0].startswith("error: %s %r " % tuple(argv[-2:])), lines[0]


# a coordinate flag whose value has a negative first coordinate, per
# command, and the exit code: rootsys asks for a dominant weight
_SIGNED_COORDS = (
    (["rootsys", "--type", "A", "--rank", "3"], "--weight", "-1,0,1", 2),
    (["dominance", "--type", "A", "--rank", "3", "--m", "2"], "--lambda",
     "-1,0,1", 0),
    (["smooth-locus", "--type", "A", "--rank", "3", "--m", "2"], "--lambda",
     "-1,0,1", 0),
    (["dominance", "--type", "A", "--rank", "3", "--m", "2"], "--lam",
     "-.5,0,1/2", 0),
)


@pytest.mark.parametrize("argv,flag,text,code", _SIGNED_COORDS,
                         ids=[" ".join(a + [f, t])
                              for a, f, t, _ in _SIGNED_COORDS])
def test_negative_coordinate_is_a_value(capsys, argv, flag, text, code):
  # "--flag -1,0,1" reads -1,0,1 as the flag's value, as "--flag=-1,0,1"
  # does, and not as an option
  spaced = _outcome(capsys, argv + [flag, text])
  assert spaced == _outcome(capsys, argv + ["%s=%s" % (flag, text)])
  assert spaced[0] == code
  assert "expected one argument" not in spaced[2]


# one valid argv per subcommand, each with the default json and with tsv
_VALID = tuple(argv + fmt for argv in (
    ["rootsys", "--type", "A", "--rank", "2", "--weight", "1,0"],
    ["fold", "--type", "A", "--rank", "4", "--m", "4"],
    ["dominance", "--type", "A", "--rank", "2", "--m", "4", "--lambda", "2,0"],
    ["smooth-locus", "--type", "A", "--rank", "2", "--m", "4",
     "--lambda", "2,0", "--variant", "special-not-absolutely-special"],
    ["e6-duality"],
    ["levi-extremal"],
    ["hyperspecial-check", "--ell", "1", "--degree", "4", "--trials", "5"],
    ["numbers-game"],
) for fmt in ([], ["--format", "tsv"]))


def _outcome(capsys, argv):
  try:
    code = cli.main(argv)
  except SystemExit as exc:
    code = exc.code
  captured = capsys.readouterr()
  return code, captured.out, captured.err


# what argparse alone prints: the top-level and every subcommand help, the
# missing and the unknown command, and one unrecognized argument per command
_ARGPARSE_ONLY = ([], ["bogus"], ["-h"], ["--format", "tsv"]) + tuple(
    argv for name in cli._NAMES
    for argv in ([name, "-h"], [name, "--unknown-flag", "x"]))


def test_one_command_parser_matches_full_parser(capsys, monkeypatch, suite):
  # each argv as the first call of a process, which builds the parser of
  # its command alone, gives byte for byte what the full parser gives
  monkeypatch.setattr(e6, "E6Suite", lambda progress: suite)
  monkeypatch.setenv("COLUMNS", "80")
  monkeypatch.setattr(cli, "_PARSERS", {})
  argvs = (list(_VALID) + [argv for argv, _ in _MALFORMED]
           + list(_ARGPARSE_ONLY))
  for argv in argvs:
    cli._PARSERS.clear()
    first = _outcome(capsys, argv)
    assert set(cli._PARSERS) <= {tuple(argv[:1]), cli._NAMES}
    cli._PARSERS.clear()
    cli._parser(cli._NAMES)
    assert _outcome(capsys, argv) == first, argv
    assert list(cli._PARSERS) == [cli._NAMES]
  # a command argv builds only its own parser
  cli._PARSERS.clear()
  _outcome(capsys, ["rootsys", "--unknown-flag", "x"])
  assert list(cli._PARSERS) == [("rootsys",)]
  # the full parser names the command argument "command" in its errors
  assert _outcome(capsys, [])[2].splitlines()[-1] == \
      "twistedlie: error: the following arguments are required: command"
  assert _outcome(capsys, ["bogus"])[2].splitlines()[-1].startswith(
      "twistedlie: error: argument command: invalid choice: 'bogus' ")


def test_cached_parser_matches_fresh_parsers(capsys, monkeypatch, suite):
  # the valid and the malformed argvs interleaved through the parsers of
  # one process give byte for byte what a fresh process gives on each
  monkeypatch.setattr(e6, "E6Suite", lambda progress: suite)
  monkeypatch.setattr(cli, "_PARSERS", {})
  malformed = [argv for argv, _ in _MALFORMED]
  argvs = [argv for pair in zip(_VALID, malformed) for argv in pair]
  argvs += malformed[len(_VALID):]
  assert len(argvs) == len(_VALID) + len(_MALFORMED)
  cached = [_outcome(capsys, argv) for argv in argvs]
  # the first command's parser and the full one, each built once
  assert list(cli._PARSERS) == [(argvs[0][0],), cli._NAMES]
  fresh = []
  for argv in argvs:
    cli._PARSERS.clear()
    fresh.append(_outcome(capsys, argv))
  assert cached == fresh
  assert [code for code, _, _ in cached[:2 * len(_VALID):2]] == \
      [0] * len(_VALID)


def test_parser_built_once_per_process(capsys, monkeypatch):
  built = []
  init = argparse.ArgumentParser.__init__

  def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

  monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
  monkeypatch.setattr(cli, "_PARSERS", {})
  # one command: one top-level parser and its one subcommand parser
  for _ in range(3):
    assert _outcome(capsys, _VALID[0])[0] == 0
  assert built == ["twistedlie", "twistedlie rootsys"]
  # more commands: the full parser, built once, with its eight subcommand
  # parsers, for 18 calls
  for _ in range(3):
    for argv in _VALID[:4] + _VALID[-2:]:
      assert _outcome(capsys, argv)[0] == 0
  assert built[2] == "twistedlie"
  assert sorted(built[3:]) == sorted("twistedlie " + argv[0]
                                     for argv in _VALID[::2])


def test_parser_not_built_at_import():
  src = os.path.dirname(os.path.dirname(cli.__file__))
  code = "import twistedlie.cli as cli; print(len(cli._PARSERS))"
  out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=src)).stdout
  assert out == "0\n"
