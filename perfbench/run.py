#!/usr/bin/env python3
"""Build and run the SafeCross fleet benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: backlog_flood, rush_hour, city_10k (`all` runs each in turn,
one process per workload). The benchmark is a Cargo package of its own
(perfbench/Cargo.toml) built from the repository's crates by path, in
release mode, into $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Every metric is printed by name with its unit; the
last line of a single-workload run is the JSON result object. The exit
status is non-zero when the build fails, an output check fails, or the
run exceeds its time limit.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["backlog_flood", "rush_hour", "city_10k"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def cargo_env():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    # Keep cargo's own cache and lock files inside the build directory.
    env["CARGO_HOME"] = os.path.join(target, "cargo-home")
    return env


def build(env):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed (cargo exit {done.returncode})")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "safecross-perfbench")


def rustc_version(env):
    try:
        out = subprocess.run(["rustc", "--version"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_one(binary, env, workload, args):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    with subprocess.Popen(cmd, cwd=ROOT, env=env) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    env = cargo_env()
    binary = build(env)
    env["PERFBENCH_RUSTC"] = rustc_version(env)
    sys.stdout.flush()
    failed = []
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        if run_one(binary, env, workload, args) != 0:
            failed.append(workload)
    if failed:
        print(f"perfbench: failed: {', '.join(failed)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
