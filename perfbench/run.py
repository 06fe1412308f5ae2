#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload plan_scale --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

--selftest feeds every correctness check a broken output, and checks that
the metrics the binary reports are those of BENCHMARK.json, in its units.

The build tree lives in .bench_build/perfbench (configured once, then
rebuilt incrementally on every call); a traced run writes its spans to
.bench_build/traces/<workload>-seed<seed>.json. Build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. Exits non-zero without a result when the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_JOBS = "4"


def build(root, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
                    not os.path.exists(os.path.join(build_dir, "Makefile")):
                shutil.rmtree(build_dir, ignore_errors=True)  # retry configure next time
            return None
    return os.path.join(build_dir, "perfbench")


def manifest_matches(root, binary):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    expected = ["%s %s %s" % (mode, m["name"], m["unit"])
                for mode in ("end_to_end", "per_layer") for m in manifest[mode]]
    reported = subprocess.run([binary, "--manifest"], stdout=subprocess.PIPE,
                              universal_newlines=True).stdout.splitlines()
    for line in sorted(set(expected) ^ set(reported)):
        side = "BENCHMARK.json" if line in expected else "the binary"
        sys.stderr.write("perfbench: only %s lists metric %s\n" % (side, line))
    return sorted(expected) == sorted(reported)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.path.join(root, ".bench_build")
    binary = build(root, os.path.join(build_root, "perfbench"))
    if binary is None:
        return 1
    if args.selftest:
        checks = subprocess.run([binary, "--selftest"]).returncode
        return checks if checks != 0 else int(not manifest_matches(root, binary))

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
