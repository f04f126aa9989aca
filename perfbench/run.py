#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program is configured and built with
CMake under .bench_build/ (or $CARGO_TARGET_DIR when set) on every call;
an up-to-date tree rebuilds nothing. Build output goes to standard error,
so the last line of standard output is the benchmark's result object.
See perfbench/README.md for the workloads and metrics.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def build_dir() -> Path:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no repository sources next to {BENCH}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return out / "perfbench"


def main() -> int:
    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
