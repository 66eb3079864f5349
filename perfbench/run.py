#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the sjsel library, the `sjsel` tool and the `perfbench` runner from
this checkout's sources (CMake, Release, into .bench_build/perfbench), then
runs one workload and passes the runner's report through. The last line of
standard output is the JSON result; the exit code is the runner's (non-zero
when any answer was wrong or a step failed).

    python3 perfbench/run.py --workload hot_estimate --seed 1 --seconds 30 --trace 0

Workloads, metrics and what each layer metric should move are described in
perfbench/INTERACTIONS.md. cold_pairs runs by hand only: BENCHMARK.json
leaves it out because its throughput follows the host's speed swings.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
WORKLOADS = ("cold_pairs", "hot_estimate", "stream_churn", "offline_pipeline")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds into .bench_build; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sjsel sources next to perfbench/ (src/CMakeLists.txt missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(step))


def source_digest():
    """sha256 over src/ (paths + bytes): identifies the measured code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale, for the self-test only "
                             "(default: the runner's kDefaultScale)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one answer to prove the gate fails")
    args = parser.parse_args()

    build()
    runner = [
        os.path.join(BUILD, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--sjsel", os.path.join(BUILD, "sjsel", "sjsel"),
        "--work-dir", os.path.join(".bench_build", "run-%s-%d" % (
            args.workload, os.getpid())),
        "--trace-path", os.path.join(".bench_build",
                                     "spans-%s.jsonl" % args.workload),
        "--git-commit", git_commit(),
        "--source-digest", source_digest(),
    ]
    if args.scale is not None:
        runner += ["--scale", str(args.scale)]
    if args.inject_wrong:
        runner.append("--inject-wrong")
    sys.stdout.flush()
    sys.exit(subprocess.run(runner).returncode)


if __name__ == "__main__":
    main()
