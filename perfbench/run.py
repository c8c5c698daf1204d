#!/usr/bin/env python3
"""Repository benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` package (release,
offline) into `$CARGO_TARGET_DIR` (default `.bench_build`), runs one
workload in a fresh process, stamps the result with the machine it ran on
and writes the full record (per-repetition series, knobs, spans) to
`.bench_results/`. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
The exit code is nonzero when the build fails, the run fails, or its
outputs are incorrect. Any `EDN_*` environment variable is refused: those
knobs change what the program does.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def proc_field(path, key):
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_stamp(args):
    """Where and on what the result was measured: baselines are only valid
    on the machine that made them."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": proc_field("/proc/cpuinfo", "model name"),
        "mem_total": proc_field("/proc/meminfo", "MemTotal"),
        "rustc": command_output(["rustc", "--version"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()

    stray = sorted(k for k in os.environ if k.startswith("EDN_"))
    if stray:
        fail(f"refusing to run with {', '.join(stray)} set: EDN_* knobs change what is measured", 2)

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                          "release", "perfbench")

    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace, "--size", args.size]
    # The run stops itself after --seconds; allow for set-up on top.
    timeout = args.seconds + 140
    try:
        run = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout} s")
    lines = run.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload} exited {run.returncode} without a result")

    record["stamp"] = machine_stamp(args)
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f)

    print("stamp " + json.dumps(record["stamp"]))
    print("knobs " + json.dumps(record["knobs"]))
    print("digest " + record["digest"] + f" reps {json.dumps(record['reps'])}")
    print(json.dumps({
        "correct": bool(record["correct"]) and run.returncode == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    sys.exit(0 if record["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
