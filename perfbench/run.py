#!/usr/bin/env python3
"""Build and run the HARVEST host benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the
repository's libraries from src/) into .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is always the benchmark's JSON result. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("plant_online", "crsa_realtime", "agri_lm", "des_study")
RUN_TIMEOUT_S = 175


def build():
    """Configure (once) and build the benchmark; False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    """The checked-out commit when this is a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no HARVEST sources next to perfbench/", file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    # Thread budget (perfbench/README.md): every forward, prefill and
    # decode step runs on its calling thread. An OpenMP team's barriers
    # turn each vCPU the hypervisor deschedules into a stall for the whole
    # team; concurrency comes from the server's streams and pools instead.
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = "1"
    env.setdefault("HARVEST_LOG_LEVEL", "warn")
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--commit", commit(), "--source-digest", source_digest(),
               "--out-dir", BUILD]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
