#!/usr/bin/env python3
"""Run one workload of the rkrd benchmark.

    python3 perfbench/run.py --workload cold-uniform --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It builds the `rkr` binary and
the benchmark's load generator (`perfbench/`, a package of its own) with
cargo into $CARGO_TARGET_DIR (default `.bench_build`), then runs the load
generator, which starts the real `rkr` daemons, drives them, checks every
reply and prints one JSON object as the last line of standard output.
Generated graphs, cached reference answers and trace files go to
`.bench_out/`. The workloads are described in `perfbench/workloads.json`.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("cold-uniform", "zipf-open", "churn-mixed", "fleet-zipf")
# A run must end within 180 s; the build before it is not part of that.
RUN_TIMEOUT_S = 170


def build(root, target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "-p", "reverse_k_ranks", "--bin", "rkr"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Cargo's progress goes to stderr; stdout stays reserved for results.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at %s; run from a full source checkout" % root)
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(root, target_dir)
    build(root, target_dir)

    release = os.path.join(target_dir, "release")
    cmd = [
        os.path.join(release, "rkr_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rkr", os.path.join(release, "rkr"),
        "--out", os.path.join(root, ".bench_out"),
    ]
    # Its own session, so a timeout can stop the daemons it started too.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
    finally:
        # The load generator stops its daemons itself; this catches any
        # left behind by a crash.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(code)


if __name__ == "__main__":
    main()
