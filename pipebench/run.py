#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark.

Run from the repository root:

    python3 pipebench/run.py --workload simulate --seed 0 --seconds 20 --trace 0
    python3 pipebench/run.py --selftest

The first call configures and builds pipebench/ (and the libraries under
src/) into .bench_build/pipebench/build with the installed CMake and C++
compiler; later calls rebuild incrementally. Before every run it checks the
benchmark's helpers and that the pipebench binary's workload and metric names
equal BENCHMARK.json. The binary's last stdout line is the result JSON; the exit
code is non-zero when a build step or a correctness check fails.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "pipebench")
BUILD = os.path.join(WORK, "build")
BUILD_TIMEOUT_S = 850


def run_timeout_s(seconds):
    """A run does work sized to take `seconds` plus a few seconds of set-up
    on the reference machine; this only stops a run that hangs, with room
    for a host several times slower."""
    return 120 + 5 * seconds


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; False on any failure."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"timed out: {' '.join(cmd)}")
            return False
        if done.returncode != 0:
            log(f"failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def names_match():
    """The binary's workload and metric catalogue must equal BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    out = subprocess.run([os.path.join(BUILD, "pipebench"), "--describe"], cwd=ROOT,
                         stdout=subprocess.PIPE, check=True, timeout=60).stdout
    binary = json.loads(out.decode().strip().splitlines()[-1])
    ok = True
    if [w["name"] for w in spec["workloads"]] != binary["workloads"]:
        log(f"workloads differ: BENCHMARK.json {[w['name'] for w in spec['workloads']]} "
            f"vs pipebench {binary['workloads']}")
        ok = False
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        have = [(m["name"], m["unit"], m["better"]) for m in binary[kind]]
        if want != have:
            log(f"{kind} metrics differ between BENCHMARK.json and pipebench: "
                f"only in BENCHMARK.json {sorted(set(want) - set(have))}, "
                f"only in pipebench {sorted(set(have) - set(want))}")
            ok = False
    return ok


def selftest():
    done = subprocess.run([os.path.join(BUILD, "pipebench_selftest")], cwd=ROOT,
                          stdout=sys.stderr, timeout=60)
    return done.returncode == 0 and names_match()


def spec_seconds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["run_seconds"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["simulate", "replay", "serve"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and check the helpers and names only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec_seconds()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    os.makedirs(WORK, exist_ok=True)
    if not build():
        return 1
    if not selftest():
        log("self-test failed")
        return 1
    if args.selftest:
        log("self-test ok")
        return 0

    # Scratch directories of an earlier run that was killed before its
    # own clean-up.
    for stale in glob.glob(os.path.join(WORK, "tmp-*")):
        shutil.rmtree(stale, ignore_errors=True)

    cmd = [os.path.join(BUILD, "pipebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK]
    timeout = run_timeout_s(args.seconds)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s")
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
