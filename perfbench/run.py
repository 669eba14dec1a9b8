#!/usr/bin/env python3
"""Builds the benchmark binary and runs one workload.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (which compiles ../src) into .bench_build/perfbench;
later runs only re-check the build. The benchmark binary prints the result as
the last line of standard output; this script passes it through and exits
with the binary's status. Outputs land in .bench_build/perfbench-out/.
"""
import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no hhpim sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text(errors="replace")[-4000:]
                print(f"perfbench: build failed:\n{tail}", file=sys.stderr)
                return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not build():
        return 1
    out_dir = OUT / args.workload
    cmd = [str(BUILD / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--out={out_dir}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode(errors="replace"))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
