#!/usr/bin/env python3
"""Build and run the two-clock checkpoint/restart benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload store_incr --seed 7 --seconds 20 --trace 0

The first run configures and builds perfbench/ (the simulator library from
src/ plus the ckptbench driver) into a subdirectory of $CARGO_TARGET_DIR, or
of .bench_build when it is unset; later runs re-configure and re-check the
build. The subdirectory is named by a hash of this checkout's path, so
checkouts that share one build root never build or run each other's sources.
ckptbench's human-readable lines start with '#'; the last line of standard
output is the JSON result. Build output goes to standard error. Exits
non-zero, printing no result, when the build or the run fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def configured_source(build_dir):
    """CMAKE_HOME_DIRECTORY of an existing build directory, or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        return None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return ""


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    source = configured_source(build_dir)
    if source is not None and os.path.realpath(source) != os.path.realpath(HERE):
        fail(f"{build_dir} was configured from {source!r}, not {HERE!r}")
    # Configure every time: it is quick on a configured tree, and it
    # completes a build directory whose first configure failed.
    cfg = subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr)
    if cfg.returncode != 0:
        fail("cmake configure failed")
    done = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ckptbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    exe = os.path.join(build_dir, "ckptbench")
    if not os.path.exists(exe):
        fail(f"{exe} missing after the build")
    return exe


def expected_metrics(trace):
    """{name: unit} that BENCHMARK.json promises for this mode, if present."""
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tag = hashlib.sha1(os.path.realpath(HERE).encode()).hexdigest()[:12]
    exe = build(os.path.join(root, "ckptbench-" + tag))
    out_dir = os.path.join(root, "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ckptbench did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(run.stdout)
        fail(f"ckptbench exited with code {run.returncode}")
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want is not None and got != want:
        sys.stderr.write(run.stdout)
        fail("metrics differ from BENCHMARK.json: " +
             str(sorted(set(got.items()) ^ set(want.items()))))
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
