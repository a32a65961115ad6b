#!/usr/bin/env python3
"""Benchmark entry point for the Nezha reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload crr_offload --seed 1 --seconds 10 --trace 0

Builds the measuring program (perfbench/bin/main.exe) from source with
dune, runs it once in a fresh process for the requested workload, and
prints two lines: a details record (every metric by name, host-metric
repeat statistics, checks and provenance), then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with
--trace 0, and its per-layer metrics with --trace 1.  See
perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bin", "main.exe")
SPANS_DIR = ".perfbench_out"
BUILD_TIMEOUT_S = 850
# The measuring process gets its budget plus room for set-up and the
# traced repeats; the whole invocation must end within 180 s.
RUN_SLACK_S = 120


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache", "disabled", "--display", "quiet",
           "./perfbench/bin/main.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not run: %s" % e)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def source_digest():
    """SHA-256 over the simulator and benchmark sources, so a result
    names the code it measured even where there is no git metadata."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        paths = []
        if os.path.isfile(top):
            paths = [top]
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith((".", "_")))
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def commit():
    if not os.path.exists(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None


def measure(args):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, args.workload + ".spans.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("measuring process timed out")
    if proc.returncode != 0:
        fail("measuring process exited with code %d" % proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("measuring process printed nothing")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    build()
    out = measure(args)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = out["per_layer"] if args.trace else out["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        name = m["name"]
        if name in source:
            value = source[name]
        elif args.trace:
            # A layer the workload never enters (the BE on crr_local,
            # the testbed dataplane on region_day) reads 0.
            value = 0.0
            absent.append(name)
        else:
            fail("end-to-end metric %s missing" % name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number: %r" % (name, value))
        metrics[name] = {"value": value, "unit": m["unit"]}

    out["provenance"].update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    out["absent_metrics"] = absent
    print(json.dumps({"details": out}, sort_keys=True))
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
