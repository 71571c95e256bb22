"""Benchmark worker: one fresh single-threaded interpreter per pass.

Usage: worker.py --src DIR --modules M1,M2 [--spans FILE]

Imports the listed twistedlie modules from DIR, then writes one JSON line
``{"ready": ...}`` on its protocol stream (the original stdout; fd 1 is
pointed at stderr so nothing else can write there).  It then answers each
JSON op line read from stdin with one JSON reply line, and stops on
``{"cmd": "exit"}``.  With ``--spans`` every op runs traced, and the spans
are written to FILE at exit.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import sys
import time


def peak_rss_kb():
  return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def sha256_text(text):
  return hashlib.sha256(text.encode()).hexdigest()


def canonical(value):
  return json.dumps(value, sort_keys=True, separators=(",", ":"))


# -- library ops ------------------------------------------------------------------
# Each takes (state, span, *args) and returns a JSON-able summary that the
# harness checks against the paper's constants and the reference digest.

def e6_build(state, span):
  from twistedlie import e6
  suite = e6.E6Suite()
  state["suite"] = suite
  return {"component": len(suite.component),
          "zero_fiber": len(suite.zero_fiber),
          "extremal_weights": len(suite.extremal_weights)}


def e6_scorecard(state, span):
  """The scorecard, with the sweep report whose word count it drops."""
  suite = state["suite"]
  return {"scorecard": suite.scorecard(),
          "sweep": suite.levi_extremal_sweep()}


def e6_verify(state, span):
  from twistedlie import reps
  suite = state["suite"]
  ok, witness = reps.verify_representation_detailed(suite.subrep,
                                                    suite.sys.cartan)
  return {"ok": ok, "witness": None if witness is None else repr(witness)}


def e6_action_digest(state, span):
  """sha256 over the E_i/F_i images of every unit vector of the subrep."""
  from twistedlie.linalg import SparseVector
  rep = state["suite"].subrep
  h = hashlib.sha256()
  nonzero = 0
  with span("reps.action_table"):
    for key in sorted(rep.keys()):
      unit = SparseVector.unit(key)
      for i in range(1, rep.rank + 1):
        for op, apply in (("e", rep.apply_e), ("f", rep.apply_f)):
          img = apply(i, unit)
          nonzero += bool(img)
          terms = ",".join("%s:%s" % (k, c) for k, c in sorted(img.items()))
          h.update(("%s %d %s %s\n" % (key, i, op, terms)).encode())
  return {"digest": h.hexdigest(), "nonzero_images": nonzero}


def crystal_components(state, span, family, rank, node, copies):
  """Every highest weight component of a tensor power of a minuscule
  crystal, with its size and the Weyl dimension of its highest weight."""
  from twistedlie import crystal
  from twistedlie.rootsystem import build
  sys_ = build(family, rank)
  with span("crystal.components"):
    factor = crystal.MinusculeCrystal(sys_, node)
    tensor = crystal.tensor_crystal(*[factor] * copies)
    highest = {}
    for b in tensor.elements():
      if all(tensor.eps(b, i) == 0 for i in range(1, rank + 1)):
        wt = tensor.wt(b)
        highest[wt] = highest.get(wt, 0) + 1
    components = []
    for wt in sorted(highest):
      comp = crystal.highest_weight_component(tensor, wt)
      components.append({"weight": list(wt), "multiplicity": highest[wt],
                         "size": len(comp),
                         "dimension": sys_.weyl_dimension(wt)})
  return {"elements": len(tensor), "components": components}


LIB_OPS = {
    "e6.build": e6_build,
    "e6.scorecard": e6_scorecard,
    "e6.verify": e6_verify,
    "e6.action_digest": e6_action_digest,
    "crystal.components": crystal_components,
}


def run_op(msg, state, recorder):
  reply = {"id": msg["id"]}
  span = recorder.span if recorder else (lambda name: contextlib.nullcontext())
  out, err = io.StringIO(), io.StringIO()
  t0, c0 = time.perf_counter(), time.process_time()
  try:
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
      if msg["kind"] == "cli":
        from twistedlie import cli
        try:
          code = cli.main(msg["argv"])
        except SystemExit as exc:
          code = exc.code if isinstance(exc.code, int) else int(exc.code
                                                                 is not None)
        text = out.getvalue()
        reply["exit"] = code
        reply["sha256"] = sha256_text(text)
        if recorder:
          recorder.add("cli.stdout_bytes", len(text.encode()))
      else:
        summary = LIB_OPS[msg["name"]](state, span, *msg["args"])
        reply["exit"] = 0
        reply["summary"] = summary
        reply["sha256"] = sha256_text(canonical(summary))
  except Exception as exc:  # an op failure is reported, the worker goes on
    reply["error"] = "%s: %s" % (type(exc).__name__, exc)
  reply["wall"] = time.perf_counter() - t0
  reply["cpu"] = time.process_time() - c0
  return reply


def main():
  parser = argparse.ArgumentParser()
  parser.add_argument("--src", required=True)
  parser.add_argument("--modules", required=True)
  parser.add_argument("--spans")
  args = parser.parse_args()
  proto = os.fdopen(os.dup(1), "w", buffering=1)
  os.dup2(2, 1)

  def send(msg):
    proto.write(json.dumps(msg) + "\n")

  src = os.path.abspath(args.src)
  sys.path.insert(0, src)
  for name in args.modules.split(","):
    importlib.import_module(name)
  import twistedlie
  if not os.path.abspath(twistedlie.__file__).startswith(src + os.sep):
    sys.stderr.write("worker: twistedlie imported from %s, not %s\n"
                     % (twistedlie.__file__, src))
    return 3
  send({"ready": True})

  recorder = None
  if args.spans:
    import spans
    recorder = spans.Recorder()
    spans.install(recorder)
  state = {}
  for line in sys.stdin:
    msg = json.loads(line)
    if msg.get("cmd") == "exit":
      break
    if recorder:
      recorder.op = msg["id"]
    send(run_op(msg, state, recorder))
  final = {"done": True, "rss_kb": peak_rss_kb()}
  if recorder:
    recorder.write(args.spans)
    final["layers"] = spans.summarize(recorder.spans, recorder.counters)
    final["spans"] = len(recorder.spans)
  send(final)
  return 0


if __name__ == "__main__":
  sys.exit(main())
