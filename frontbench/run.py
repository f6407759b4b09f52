#!/usr/bin/env python3
"""Front-door benchmark for `sqlnf serve`.

    python3 frontbench/run.py --workload query|validate|rw --seed N \
        --seconds S --trace 0|1

Builds the `sqlnf` server and the `frontbench` load generator from the
sources of this checkout (into .bench_build/frontbench), then runs one
workload:

  --trace 0  twice in a row: spawns `sqlnf serve --workers 2
             --threads 1`, loads the Section-7 dataset over POST /query
             and drives the workload's light and heavy streams as two
             closed-loop keep-alive connections for S/2 seconds. Prints
             the end-to-end metrics over the two servers.
  --trace 1  replays all three workloads in-process with spans around
             every layer call and prints the per-layer metrics; spans
             go to .bench_build/frontbench/out/spans-<workload>.tsv.

Every answer is checked against an oracle computed from the generated
data. The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import fcntl
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "frontbench")
WORKLOADS = ("query", "validate", "rw")
RUN_TIMEOUT_S = 170


def fail(message):
    print("frontbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no sqlnf sources next to frontbench/ (src/ is missing)")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", "frontbench", "sqlnf_cli"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, env=env).returncode:
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")

    build()
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(BUILD, "frontbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.trace:
        cmd += ["--mode", "trace", "--out", out_dir]
    else:
        cmd += ["--mode", "serve", "--server", os.path.join(BUILD, "sqlnf")]

    # frontbench and the servers it spawns share a process group of their
    # own, so a hung or crashed run leaves no server behind.
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if stdout is None:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail("frontbench exited with %d" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    for line in lines[:-1]:
        print(line)
    print("run took %.1f s" % (time.monotonic() - start), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
