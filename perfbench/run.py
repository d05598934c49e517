#!/usr/bin/env python3
"""Builds the benchmark from source (once per checkout) and runs one workload.

    python3 perfbench/run.py --workload ask_rag|triage_mixed|finetune \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build lives in .bench_build/ (or in
$CARGO_TARGET_DIR when set); build output goes to stderr, so the last line
of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "CMakeLists.txt")):
        sys.exit("perfbench: the repository sources are missing next to "
                 "perfbench/; run from the root of a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def main():
    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        sys.exit(f"perfbench: build failed ({error})")
    sys.stdout.flush()
    done = subprocess.run([binary, *sys.argv[1:], "--git-sha", git_sha()])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
