"""Run one benchmark workload and print its metrics.

Usage (from the repository root):

  python3 perfbench/run.py --workload quick --seed 0 --seconds 8 --trace 0

A run repeats passes until ``--seconds`` have elapsed, with at least one
pass.  A pass is one fresh single-threaded worker interpreter that imports
``twistedlie`` from ``src/`` and runs the workload's op list as a closed
loop: each op is sent after the previous reply arrived.  Every op's output
is checked against ``reference.json`` and the paper's constants.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run metadata,
per-op digests and (when traced) the spans go to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Ops stop this long after the run started, so that the run, with its
# worker shutdown, exits within three minutes.  A stopped op is a failure.
OP_DEADLINE_S = 160.0
# Set-up is sampled at least this many times per run; passes count.
SETUP_SAMPLES = 7


class WorkerError(Exception):
  """The worker did not answer: it timed out or exited."""


class Worker:
  """One worker process and its line-based JSON protocol."""

  def __init__(self, argv):
    self.launched = time.perf_counter()
    self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, cwd=ROOT)
    self.buf = b""

  def send(self, msg):
    self.proc.stdin.write(json.dumps(msg).encode() + b"\n")
    self.proc.stdin.flush()

  def recv(self, deadline):
    fd = self.proc.stdout.fileno()
    while b"\n" not in self.buf:
      left = deadline - time.perf_counter()
      if left <= 0:
        raise WorkerError("timeout")
      ready, _, _ = select.select([fd], [], [], left)
      if ready:
        chunk = os.read(fd, 1 << 16)
        if not chunk:
          raise WorkerError("worker exited with code %s" % self.proc.wait())
        self.buf += chunk
    line, _, self.buf = self.buf.partition(b"\n")
    return json.loads(line)

  def close(self, grace=0.0):
    """Stops the worker, after ``grace`` seconds to exit by itself, and
    waits until it has ended."""
    try:
      self.proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
      self.proc.kill()
      self.proc.wait()
    self.proc.stdin.close()
    self.proc.stdout.close()


def worker_argv(modules, spans_path=None):
  argv = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
          "--modules", ",".join(modules)]
  if spans_path is not None:
    argv += ["--spans", str(spans_path)]
  return argv


def start(argv, deadline):
  """Launches a worker; returns it and its set-up time: seconds from launch
  until the imports returned."""
  worker = Worker(argv)
  try:
    worker.recv(deadline)
  except WorkerError as exc:
    worker.close()
    raise SystemExit("perfbench: the worker did not start (%s)" % exc)
  return worker, time.perf_counter() - worker.launched


def stop(worker, deadline):
  """Asks the worker to exit; returns its final message."""
  try:
    worker.send({"cmd": "exit"})
    return worker.recv(deadline)
  except (WorkerError, OSError):
    return {}
  finally:
    worker.close(grace=5.0)


def run_pass(argv, ops, deadline):
  """Runs ``ops`` in one fresh worker as a closed loop.

  The worker times each op itself, so the pipe round trip is not counted.
  Every op gets a reply.  An op the worker does not answer before
  ``deadline`` gets an ``error`` reply, and so does every op after it,
  which is never sent: a timeout is a failure, never dropped."""
  worker, setup = start(argv, deadline)
  replies = []
  stopped = None
  for idx, op in enumerate(ops):
    if stopped:
      replies.append({"id": idx, "error": "not run: the worker was stopped"})
      continue
    t0 = time.perf_counter()
    try:
      worker.send(dict(op, id=idx))
      reply = worker.recv(deadline)
    except (WorkerError, OSError) as exc:
      stopped = "op stopped: %s" % exc
      reply = {"id": idx, "error": stopped, "wall": time.perf_counter() - t0,
               "cpu": 0.0}
    replies.append(reply)
  if stopped:
    worker.close()
    final = {}
  else:
    final = stop(worker, deadline + 10)
  timed = [r for r in replies if "wall" in r]
  return {"setup_s": setup, "wall_s": sum(r["wall"] for r in timed),
          "cpu_s": sum(r["cpu"] for r in timed),
          "rss_kb": final.get("rss_kb", 0), "replies": replies,
          "layers": final.get("layers", {}), "spans": final.get("spans", 0)}


def setup_sample(modules, deadline):
  worker, setup = start(worker_argv(modules), deadline)
  stop(worker, deadline)
  return setup


# -- correctness ------------------------------------------------------------------

def _expect(ok, why):
  return None if ok else why


SCORECARD = {"vzero_nonzero": True, "orbit_size": 240, "rank": 45,
             "levi_extremal_ok": True, "chain_ok": True, "poset_ok": True}
# Component sizes of the tensor squares named in the paper's examples.
CRYSTAL_SIZES = {("E", 6, 1, 2): [27, 351, 351],
                 ("E", 7, 7, 2): [1, 133, 1463, 1539]}


def _crystal_oracle(summary, args):
  comps = summary["components"]
  if any(c["size"] != c["dimension"] for c in comps):
    return "a component's size differs from the Weyl dimension"
  if sum(c["multiplicity"] * c["dimension"] for c in comps) != \
     summary["elements"]:
    return "the components do not fill the tensor crystal"
  sizes = CRYSTAL_SIZES.get(tuple(args))
  return _expect(sizes is None or sorted(c["size"] for c in comps) == sizes,
                 "component sizes differ from %s" % sizes)


# The paper's constants, checked on every library op's summary.
ORACLES = {
    "e6.build": lambda s, a: _expect(
        s["component"] == 2925 and s["zero_fiber"] == 45,
        "the component is not 2925-dimensional with a 45-dimensional "
        "weight-zero fiber"),
    "e6.scorecard": lambda s, a: _expect(
        s["scorecard"] == SCORECARD and s["sweep"]["total_words"] == 151200
        and s["sweep"]["all_levi_extremal"]
        and not s["sweep"]["counterexamples"],
        "scorecard %s, sweep %s" % (s["scorecard"], s["sweep"])),
    "e6.verify": lambda s, a: _expect(
        s["ok"] is True and s["witness"] is None,
        "relation check failed: %s" % s["witness"]),
    "e6.action_digest": lambda s, a: None,
    "crystal.components": _crystal_oracle,
}


def check(op, reply, reference):
  """Why the op failed, or None.  An op fails on an exception, a timeout,
  an exit code or output digest other than the reference's, or a library
  summary that contradicts the paper's constants.  An op outside the
  recorded pool is checked on its exit code alone."""
  if "error" in reply:
    return reply["error"]
  ref = reference.get(op["key"])
  if ref is None:
    if reply["exit"] != 0:
      return "exit code %s" % reply["exit"]
  elif reply["exit"] != ref["exit"]:
    return "exit code %s, reference %s" % (reply["exit"], ref["exit"])
  elif reply["sha256"] != ref["sha256"]:
    return "output digest differs from the reference"
  if op["kind"] == "lib":
    return ORACLES[op["name"]](reply["summary"], op["args"])
  return None


def failures_of(passes, ops, reference):
  """(pass index, op key, reason) for every failed op of every pass.  In
  traced runs, a traced pass must also reproduce the untraced outputs."""
  failures = []
  for n, p in enumerate(passes):
    for op, reply in zip(ops, p["replies"]):
      why = check(op, reply, reference)
      if why is None and p["traced"]:
        plain = passes[n - 1]["replies"][reply["id"]]
        if plain.get("sha256") != reply["sha256"]:
          why = "traced output differs from the untraced output"
      if why is not None:
        failures.append((n, op["key"], why))
  return failures


# -- metrics ----------------------------------------------------------------------

def p90(values):
  if len(values) == 1:
    return values[0]
  return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(passes, setups):
  plain = [p for p in passes if not p["traced"]]
  latencies = [r["wall"] * 1000 for p in plain for r in p["replies"]
               if "wall" in r]
  return {
      "wall_s": statistics.median(p["wall_s"] for p in plain),
      "cpu_s": statistics.median(p["cpu_s"] for p in plain),
      "setup_s": statistics.median(setups),
      "peak_rss_mb": statistics.median(p["rss_kb"] for p in plain) / 1024,
      "op_p50_ms": statistics.median(latencies),
      "op_p90_ms": p90(latencies),
  }


def per_layer(passes, names):
  traced = [p for p in passes if p["traced"]]
  plain = [p for p in passes if not p["traced"]]
  out = {name: statistics.median(p["layers"].get(name, 0) for p in traced)
         for name in names}
  traced_wall = statistics.median(p["wall_s"] for p in traced)
  out["trace.wall_s"] = traced_wall
  out["trace.overhead"] = traced_wall / statistics.median(
      p["wall_s"] for p in plain)
  out["trace.spans"] = statistics.median(p["spans"] for p in traced)
  return out


# -- run metadata -----------------------------------------------------------------

def git_state():
  if not (ROOT / ".git").exists():
    return None
  try:
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                         capture_output=True, text=True, check=True).stdout
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            timeout=30, capture_output=True, text=True,
                            check=True).stdout
  except (OSError, subprocess.SubprocessError):
    return None
  return {"sha": sha.strip(), "dirty": bool(status.strip())}


def src_lines():
  return sum(len(path.read_text().splitlines())
             for path in sorted((ROOT / "src").rglob("*.py")))


def metadata(args):
  return {
      "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
      "trace": args.trace, "python": platform.python_version(),
      "cpu_count": os.cpu_count(),
      "affinity_count": len(os.sched_getaffinity(0)),
      "git": git_state(), "src_lines": src_lines(),
      "loadavg_start": os.getloadavg(),
  }


# -- the run ------------------------------------------------------------------------

def run(args, declared):
  ops = workloads.ops_for(args.workload, args.seed)
  modules = workloads.MODULES[args.workload]
  with open(HERE / "reference.json") as fh:
    reference = json.load(fh)["ops"]
  meta = metadata(args)
  OUT.mkdir(exist_ok=True)
  stem = "%s-seed%d" % (args.workload, args.seed)
  t_run = time.perf_counter()
  deadline = t_run + OP_DEADLINE_S
  setups = []
  if not args.trace:
    setups = [setup_sample(modules, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
  passes = []
  t_passes = time.perf_counter()
  while True:
    traced = bool(args.trace) and len(passes) % 2 == 1
    spans_path = OUT / (stem + "-spans.jsonl") if traced else None
    p = run_pass(worker_argv(modules, spans_path), ops, deadline)
    p["traced"] = traced
    passes.append(p)
    if not traced:
      setups.append(p["setup_s"])
    if args.trace and len(passes) < 2:
      continue
    if time.perf_counter() - t_passes >= args.seconds or \
       any("error" in r for r in p["replies"]):
      break
    # start no pass that would run into the deadline
    if time.perf_counter() + 2 * p["wall_s"] > deadline:
      break
  failures = failures_of(passes, ops, reference)
  attempted = len(ops) * len(passes)
  if args.trace:
    values = per_layer(passes, [m["name"] for m in declared["per_layer"]])
    values["error_rate"] = len(failures) / attempted
    wanted = declared["per_layer"]
  else:
    values = end_to_end(passes, setups)
    wanted = declared["end_to_end"]
  metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
             for m in wanted}
  meta["loadavg_end"] = os.getloadavg()
  plain = [p for p in passes if not p["traced"]]
  samples = {"passes": len(plain), "traced_passes": len(passes) - len(plain),
             "setups": len(setups),
             "op_times": sum(len(p["replies"]) for p in plain)}
  record = {
      "meta": meta, "metrics": metrics, "samples": samples,
      "failures": [list(f) for f in failures],
      "passes": [{
          "traced": p["traced"], "setup_s": p["setup_s"],
          "wall_s": p["wall_s"], "cpu_s": p["cpu_s"], "rss_kb": p["rss_kb"],
          "ops": [{"key": op["key"], "exit": r.get("exit"),
                   "sha256": r.get("sha256"), "error": r.get("error"),
                   "wall_ms": r["wall"] * 1000 if "wall" in r else None}
                  for op, r in zip(ops, p["replies"])],
      } for p in passes],
  }
  with open(OUT / ("%s-trace%d.json" % (stem, args.trace)), "w") as fh:
    json.dump(record, fh, indent=1, sort_keys=True)
  print("meta " + json.dumps(meta, sort_keys=True))
  print("samples " + json.dumps(samples, sort_keys=True))
  for f in failures:
    print("failed pass %d: %s: %s" % f)
  return {"correct": not failures, "attempted": attempted,
          "failed": len(failures), "metrics": metrics}


def main(argv=None):
  parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
  parser.add_argument("--workload", required=True,
                      choices=workloads.WORKLOADS)
  parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
  parser.add_argument("--seconds", type=float, default=10)
  parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
  args = parser.parse_args(argv)
  if not (ROOT / "src" / "twistedlie" / "__init__.py").is_file():
    sys.stderr.write("perfbench: no twistedlie sources under %s\n"
                     % (ROOT / "src"))
    return 2
  with open(ROOT / "BENCHMARK.json") as fh:
    declared = json.load(fh)
  result = run(args, declared)
  print(json.dumps(result))
  return 0


if __name__ == "__main__":
  sys.exit(main())
