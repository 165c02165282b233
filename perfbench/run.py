#!/usr/bin/env python3
"""Build and run the OFTEC benchmark.

    python3 perfbench/run.py --workload <alg1|serve|fleet> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench` (this directory's own
Cargo package) and the workspace's `oftec-cli` in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload. The
last line of standard output is the result object; see README.md here.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
# The workspace's determinism contract is checked at one executor thread;
# Algorithm 1 is the paper's serial metric.
THREADS = {"alg1": "1"}
# Each run must end well inside the three minutes it is allowed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["alg1", "serve", "fleet"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    workspace = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(workspace) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"no OFTEC workspace at {ROOT}")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (
        ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        ["--manifest-path", workspace, "-p", "oftec-serve", "--bin", "oftec-cli"],
    ):
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *build],
            cwd=ROOT, env=env, stdout=sys.stderr,
        )
        if done.returncode != 0:
            fail("build failed")

    release = os.path.join(target, "release")
    if args.workload in THREADS:
        env["OFTEC_THREADS"] = THREADS[args.workload]
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", os.path.join(target, "perfbench-work"),
        "--cli", os.path.join(release, "oftec-cli"),
    ]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the server it started.
    child = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
