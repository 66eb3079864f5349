#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark command.

For every workload run.py accepts (those in BENCHMARK.json, and
cold_pairs, which runs by hand only) it checks that an untraced run emits
exactly the end-to-end metrics and a traced run exactly the per-layer
metrics, each with the unit BENCHMARK.json names, and that a deliberately
wrong answer (--inject-wrong) makes the command fail with "correct": false,
traced or not.

    python3 perfbench/selftest.py        # from the repository root
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
from run import WORKLOADS  # noqa: E402
SCALE = "0.05"
SECONDS = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", str(trace), "--scale", SCALE, *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stdout + done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, output = run(workload, trace)
            tag = "%s --trace %d" % (workload, trace)
            if code != 0 or result is None or not result.get("correct"):
                problems.append("%s: failed (exit %d)\n%s" %
                                (tag, code, output[-2000:]))
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (tag, sorted(result)))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in set(got) & set(want[trace])
                               if got[k] != want[trace][k])
                problems.append("%s: missing %s, unexpected %s, wrong unit %s"
                                % (tag, missing, extra, units))
            for name in want[trace]:
                if "metric %s = " % name not in output:
                    problems.append("%s: %s not printed by name" % (tag, name))
        for trace in (0, 1):
            code, result, output = run(workload, trace, "--inject-wrong")
            if code == 0 or result is None or result.get("correct") \
                    or result.get("failed", 0) < 1:
                problems.append("%s --trace %d --inject-wrong: the gate did "
                                "not fail the run (exit %d)"
                                % (workload, trace, code))
        print("%-18s ok" % workload if not problems else
              "%-18s problems so far: %d" % (workload, len(problems)),
              flush=True)
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
