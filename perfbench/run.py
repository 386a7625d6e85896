#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload resnet18-cold|serve-mix \
        --seed N --seconds S --trace 0|1

The load generator (`perfbench`) and the daemon under test
(`sunstone-serve`) are built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`). The generator's output is passed through; its
last line is the JSON result. Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("resnet18-cold", "serve-mix")
BUILD_TIMEOUT_S = 700
# A run may take its window, the traced run's extra passes, and a fixed
# allowance for set-up, draining and the oracle: 160 s at --seconds 50.
RUN_ALLOWANCE_S = 60
RUN_TIME_PER_WINDOW_S = 2
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def stop_group(child):
    """Stops the generator and every process it started (the daemon
    included), and waits until all of them have exited."""
    if child.poll() is None:
        child.kill()
        child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    os.chdir(root)
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", "perfbench/Cargo.toml"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    binary = target / "release" / "perfbench"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    # A session of its own, so a timeout or crash can stop the daemon the
    # generator launched along with the generator itself.
    timeout = RUN_ALLOWANCE_S + RUN_TIME_PER_WINDOW_S * args.seconds
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:.0f} s")
    finally:
        stop_group(child)

    lines = out.splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"{args.workload} exited with code {child.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        fail("the generator printed no result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
