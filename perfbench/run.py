#!/usr/bin/env python3
"""Build and run one workload of the simt-omp host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|tiny] [--record FILE]

Run from the repository root. Builds the `perfbench` binary from source
(into $CARGO_TARGET_DIR, default `.bench_build`), runs the workload with
every SIMT_* environment knob removed, prints a short human summary, and
prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. --record appends the full record
(checks, pinned simulated statistics, host environment) as one JSON line,
the input format of compare.py. Exits non-zero, printing no result, when
the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Seed reserved for checking a performance claim; never tune against it.
HELD_OUT_SEED = 7919

# The run itself must end within the benchmark's 180-second limit.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the binary is built from (the commit
    stands in where a git checkout exists)."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def catalogue(trace):
    """Metric names BENCHMARK.json promises for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    ap.add_argument("--record", help="append the full record to this JSON-lines file")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    for crate in ("gpu-sim", "core", "codegen", "kernels", "serve"):
        if not os.path.isdir(os.path.join(ROOT, "crates", crate)):
            fail(f"crates/{crate} is missing: run from a full checkout of the repository")
    binary = build()

    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMT_")}
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--scale", args.scale,
    ]
    t0 = time.monotonic()
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if res.returncode != 0:
        fail(f"perfbench exited with code {res.returncode}")
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        fail("perfbench printed no record")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("perfbench's last line is not JSON")

    names = catalogue(args.trace)
    if names is not None and sorted(record["metrics"]) != sorted(names):
        fail(f"metric set differs from BENCHMARK.json: {sorted(record['metrics'])}")

    record["env"].update({
        "rustc": command_output(["rustc", "--version"]),
        "commit": (command_output(["git", "rev-parse", "HEAD"])
                   if os.path.exists(os.path.join(ROOT, ".git")) else None),
        "source_digest": source_digest(),
        "held_out_seed": args.seed == HELD_OUT_SEED,
        "run_wall_s": time.monotonic() - t0,
    })
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")

    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")
    print(f"# env {json.dumps(record['env'])}")
    print(f"# simulated (unvalidated model) {json.dumps(record['simulated_unvalidated'])}")
    for name, ok in record["checks"].items():
        print(f"# check {'ok  ' if ok else 'FAIL'} {name}")
    for name, m in record["metrics"].items():
        print(f"# {name:34s} {m['value']:.6g} {m['unit']}")
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
