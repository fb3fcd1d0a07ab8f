#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench (this directory's CMake package, compiled against the
header-only library in ../src) and runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build)/perfbench. Standard output carries a provenance line,
a human-readable metric table, and, as its last line, the result object
{"correct", "attempted", "failed", "metrics"}: every end_to_end metric of
BENCHMARK.json with --trace 0, every per_layer metric with --trace 1. The
exit status is 1 when a correctness check fails and 2 when the benchmark
cannot be built or run.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "ds", "ellen_bst.h")):
        fail("library sources (src/) not found next to perfbench/")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", "2"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if r.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    return os.path.join(bdir, "perfbench")


def read_first(path, prefix, sep):
    """Value after `sep` on the first line of `path` starting with `prefix`."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith(prefix):
                    return line.split(sep, 1)[-1].strip()
    except OSError:
        pass
    return "unknown"


def provenance():
    """Build and host facts, read when the benchmark runs."""
    bdir = build_dir()
    cache = os.path.join(bdir, "CMakeCache.txt")
    cxx = read_first(cache, "CMAKE_CXX_COMPILER:", "=")
    try:
        version = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = "unknown"
    flags = read_first(os.path.join(bdir, "CMakeFiles", "perfbench.dir",
                                    "flags.make"), "CXX_FLAGS", "=")
    sha, dirty = "unknown (not a git checkout)", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "compiler": version,
        "cxx_flags": flags,
        "build_type": read_first(cache, "CMAKE_BUILD_TYPE:", "="),
        "nproc": os.cpu_count(),
        "cpu_model": read_first("/proc/cpuinfo", "model name", ":"),
        "kernel": platform.release(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run failed: {e}")
    lines = r.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"no result from perfbench (exit {r.returncode})")

    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    print("run: " + json.dumps(doc["run"], sort_keys=True))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = doc["layers"] if args.trace else doc["metrics"]
    metrics = {}
    for m in wanted:
        got = source.get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing from the {args.workload} run")
        if not isinstance(got["value"], (int, float)):
            fail(f"metric {m['name']} is not a finite number")
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
        note = ""
        if m["name"] in doc["samples"]:
            note = f"  (p99 over {doc['samples'][m['name']]:.0f} samples, " \
                   f"none: {doc['samples']['none.p99']:.0f})"
        print(f"  {m['name']:<40} {got['value']:>16.6g} {m['unit']}{note}")
    if not args.trace:
        for name, got in doc["layers"].items():
            print(f"  [context] {name:<30} {got['value']:>16.6g} {got['unit']}")
    result = {"correct": bool(doc["correct"]) and r.returncode == 0,
              "attempted": int(doc["attempted"]),
              "failed": int(doc["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
