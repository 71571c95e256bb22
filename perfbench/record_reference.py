"""Record reference.json: the exit code and output sha256 of every op any
seed can produce, run once in one worker.

Usage (from the repository root): python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known to be right; it refuses to
write when an op fails or a library summary contradicts the paper's
constants.  It takes about a minute and a half on a 2-core machine.
"""

import json
import sys
import time

import run
import workloads


def main():
  ops = workloads.reference_ops()
  modules = sorted({m for ms in workloads.MODULES.values() for m in ms})
  p = run.run_pass(run.worker_argv(modules), ops,
                   time.perf_counter() + 1800)
  recorded = {}
  bad = 0
  for op, reply in zip(ops, p["replies"]):
    why = run.check(op, reply, {})
    if why is not None:
      bad += 1
      sys.stderr.write("%s: %s\n" % (op["key"], why))
      continue
    recorded[op["key"]] = {"exit": reply["exit"], "sha256": reply["sha256"]}
  if bad:
    sys.stderr.write("not written: %d ops failed\n" % bad)
    return 1
  git = run.git_state()
  with open(run.HERE / "reference.json", "w") as fh:
    json.dump({"recorded_at": git and git["sha"], "ops": recorded}, fh,
              indent=1, sort_keys=True)
    fh.write("\n")
  print("recorded %d ops in %.1f s" % (len(recorded), p["wall_s"]))
  return 0


if __name__ == "__main__":
  sys.exit(main())
