"""Self-test of the benchmark harness.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
  """A clock that reads the next value of a list."""

  def __init__(self, ticks):
    self.ticks = iter(ticks)

  def __call__(self):
    return next(self.ticks)


class SelfTimeTest(unittest.TestCase):

  def test_nested_tree(self):
    # cli.main [0, 10] > cells.dominants_below [1, 4]
    #                  > cells.is_cover [5, 9] > cells.is_cover_fast [6, 8]
    rec = spans.Recorder(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    root = rec.open("cli.main")
    a = rec.open("cells.dominants_below")
    rec.close(a)
    b = rec.open("cells.is_cover")
    c = rec.open("cells.is_cover_fast")
    rec.close(c)
    rec.close(b)
    rec.close(root)
    self.assertEqual(spans.self_times(rec.spans), [3, 3, 2, 2])
    out = spans.summarize(rec.spans, {})
    self.assertEqual(out["cli.self_s"], 3)
    self.assertEqual(out["cells.self_s"], 7)
    # nested cells spans are counted once in the layer's total
    self.assertEqual(out["cells.total_s"], 7)
    self.assertEqual(out["cli.total_s"], 10)
    self.assertEqual(out["cells.calls"], 3)
    self.assertEqual(out["cells.is_cover_fast.self_s"], 2)
    self.assertEqual([s[3] for s in rec.spans], [None, 0, 0, 2])


class CheckTest(unittest.TestCase):

  OP = {"key": "cli rootsys --type A --rank 1", "kind": "cli"}
  REPLY = {"exit": 0, "sha256": "ab" * 32}

  def test_matching_digest_passes(self):
    ref = {self.OP["key"]: {"exit": 0, "sha256": "ab" * 32}}
    self.assertIsNone(run.check(self.OP, self.REPLY, ref))

  def test_corrupted_reference_digest_fails(self):
    ref = {self.OP["key"]: {"exit": 0, "sha256": "cd" * 32}}
    self.assertIsNotNone(run.check(self.OP, self.REPLY, ref))
    passes = [{"traced": False, "replies": [dict(self.REPLY, id=0)]}]
    self.assertEqual(len(run.failures_of(passes, [self.OP], ref)), 1)

  def test_oracle_checks_the_paper_constants(self):
    op = {"key": "e6.scorecard", "kind": "lib", "name": "e6.scorecard",
          "args": []}
    card = dict(run.SCORECARD, orbit_size=239)
    sweep = {"total_words": 151200, "all_levi_extremal": True,
             "counterexamples": []}
    reply = {"exit": 0, "sha256": "x",
             "summary": {"scorecard": card, "sweep": sweep}}
    self.assertIsNotNone(run.check(op, reply, {}))
    reply["summary"]["scorecard"] = run.SCORECARD
    self.assertIsNone(run.check(op, reply, {}))
    sweep["total_words"] = 151199
    self.assertIsNotNone(run.check(op, reply, {}))


class TimeoutTest(unittest.TestCase):

  def test_timed_out_op_is_a_failure(self):
    # a worker that becomes ready and then never answers
    argv = [sys.executable, "-c",
            "import sys, time; print('{\"ready\": true}', "
            "flush=True); time.sleep(60)"]
    ops = [{"key": "slow", "kind": "cli", "argv": []},
           {"key": "next", "kind": "cli", "argv": []}]
    t0 = time.perf_counter()
    p = run.run_pass(argv, ops, time.perf_counter() + 1.0)
    self.assertLess(time.perf_counter() - t0, 30)
    self.assertEqual(len(p["replies"]), 2)
    self.assertIn("timeout", p["replies"][0]["error"])
    p["traced"] = False
    failures = run.failures_of([p], ops, {})
    self.assertEqual([f[1] for f in failures], ["slow", "next"])


class WrapTest(unittest.TestCase):

  def test_wrapped_returns_the_same_object(self):
    rec = spans.Recorder()
    result = object()
    wrapped = spans.wrap(rec, "linalg.fake", lambda x: result)
    self.assertIs(wrapped(1), result)
    self.assertEqual(len(rec.spans), 1)

  def test_wrapped_raises_the_same_exception(self):
    rec = spans.Recorder()
    err = ValueError("bad")

    def fail():
      raise err

    with self.assertRaises(ValueError) as ctx:
      spans.wrap(rec, "linalg.fake", fail)()
    self.assertIs(ctx.exception, err)
    self.assertTrue(rec.spans[0][5])
    self.assertEqual(rec.stack, [])

  def test_installed_program_gives_the_same_results(self):
    from twistedlie import linalg, loops
    from twistedlie.linalg import GaussianRational, SparseVector
    vecs = [SparseVector({0: 1, 1: 2}), SparseVector({1: 1}),
            SparseVector({0: 1, 1: 3})]
    gauss = [SparseVector({0: GaussianRational(1, 1)}),
             SparseVector({0: GaussianRational(0, 2)})]
    plain = (linalg.rank(vecs), linalg.rank(gauss),
             loops.fixed_degree_dimension(1, 2))
    rec = spans.Recorder()
    restore = spans.install(rec)
    try:
      self.assertIsNot(loops.rank, linalg.rank.__wrapped__)
      traced = (linalg.rank(vecs), linalg.rank(gauss),
                loops.fixed_degree_dimension(1, 2))
    finally:
      restore()
    self.assertEqual(traced, plain)
    self.assertIs(loops.rank, linalg.rank)
    names = [s[0] for s in rec.spans]
    self.assertEqual(names.count("linalg.rank"), 3)
    self.assertEqual(rec.counters["linalg.rank.gaussian_calls"], 2)


if __name__ == "__main__":
  unittest.main()
