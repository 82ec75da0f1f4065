#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                      # every workload, untraced then traced

Run from the repository root. The benchmark is the Rust package next to
this file; it is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Before the results, a `stamp:` line records the machine
and the source (nproc, CPU model, rustc version, git revision, dirty
flag). The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

The simulator is measured with its default engine settings: environment
variables starting with `TL_` are removed before it starts.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["grid_rr", "giant_component", "xl_fabric", "packet_grid"]
# One run must end within this many seconds, build excluded.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("TL_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    return env


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr; stdout is kept for results.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    exe = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "tl-perfbench")
    if not os.path.isfile(exe):
        fail(f"built binary missing at {exe}")
    return exe


def command_output(cmd):
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    rev = command_output(["git", "rev-parse", "HEAD"])
    status = command_output(["git", "status", "--porcelain"]) if rev else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_rev": rev or "unknown",
        "dirty": bool(status) if rev else "unknown",
    }


def run_one(exe, env, workload, seed, seconds, trace):
    """Run one workload, forward its report, and return its result line
    and that line parsed."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        fail(f"{workload} exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result: {lines[-1]}")
    return lines[-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1])
    args = p.parse_args()

    env = child_env()
    exe = build(env)
    print("stamp: " + json.dumps(stamp()))
    sys.stdout.flush()

    if args.workload != "all":
        trace = args.trace if args.trace is not None else 0
        line, _ = run_one(exe, env, args.workload, args.seed, args.seconds, trace)
        print(line)
        return

    # Every workload, each untraced and then traced (or only the mode
    # asked for); the last line merges the results, metric names
    # prefixed by workload.
    modes = [args.trace] if args.trace is not None else [0, 1]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in modes:
            print(f"== {workload} trace={trace}")
            sys.stdout.flush()
            _, result = run_one(exe, env, workload, args.seed, args.seconds, trace)
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
