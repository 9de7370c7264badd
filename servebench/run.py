#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload hot_repeat --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Configures and builds servebench/ (the
repository's src/ plus the benchmark program) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs one workload.  Build output goes
to stderr; the last line of stdout is the result object.  Stamps, phase
counts and traces are written under .bench_out/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def src_hash():
    """Content hash of src/, so a result names the code it measured."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, or "unknown" outside a git work tree of its own."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("servebench: no src/ next to servebench/; run from a full checkout",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(ROOT, ".bench_out"), "--git-sha", git_sha(),
           "--src-hash", src_hash()]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
