#!/usr/bin/env python3
"""Self-tests of the benchmark, at small N (a few thousand nodes).

    python3 perfbench/selftest.py

Checks, exiting non-zero on the first failure:
  1. the 2-lane ParallelCycleEngine with churn and census ends with the
     same state digest as the sequential CycleEngine for the same seed;
  2. on every workload, both modes print a well-formed result with no
     failed operation; on the cycle workload every episode ends with the
     same state digest and the traced run ends with the same digest as
     its untraced twin;
  3. budget.unaccounted_ratio stays within its tolerance (README.md). The
     layer parts are self times, residuals of their parents' walls, so
     their sum is the loop's own timed calls by construction: this ratio
     measures the benchmark's loop overhead, not attribution. The check
     that catches a span attributed to the wrong parent is the run's
     "span self times are non-negative" check, required here too;
  4. every metric a run prints is declared in BENCHMARK.json with the
     same unit, and every declared metric is printed; end-to-end values
     are never 0.
"""
import json
import subprocess
import sys
from pathlib import Path

import run

BUDGET_TOLERANCE = 0.05
DIGEST_WORKLOADS = {"cycle-census-100k"}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def passed(lines: list, check: str) -> bool:
    """True when the run printed the named check and it passed."""
    return any(line.startswith(f"check {check}") and line.endswith(" ok")
               for line in lines)


def run_small(binary: Path, workload: str, trace: int) -> tuple[list, dict]:
    cmd = [str(binary), "--workload", workload, "--seed", "7", "--seconds",
           "2", "--trace", str(trace), "--small"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if out.returncode != 0:
        fail(f"{' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    binary = run.build()

    out = subprocess.run([str(binary), "--selftest", "--seed", "7"],
                         capture_output=True, text=True, timeout=180)
    print(out.stdout.strip())
    if out.returncode != 0:
        fail("parallel engine digest differs from the sequential engine")

    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            lines, result = run_small(binary, workload, trace)
            where = f"{workload} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                fail(f"{where}: correct={result['correct']} "
                     f"failed={result['failed']}")
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != declared[trace]:
                missing = set(declared[trace]) - set(printed)
                extra = set(printed) - set(declared[trace])
                wrong = {k for k in set(printed) & set(declared[trace])
                         if printed[k] != declared[trace][k]}
                fail(f"{where}: undeclared {sorted(extra)}, unprinted "
                     f"{sorted(missing)}, unit mismatch {sorted(wrong)}")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if v["value"] == 0]
                if zero:
                    fail(f"{where}: end-to-end metrics read 0: {zero}")
            else:
                unaccounted = result["metrics"]["budget.unaccounted_ratio"]
                if abs(unaccounted["value"]) > BUDGET_TOLERANCE:
                    fail(f"{where}: budget.unaccounted_ratio "
                         f"{unaccounted['value']:.4f}")
                if not passed(lines, "span self times"):
                    fail(f"{where}: a span self time is negative")
                if workload in DIGEST_WORKLOADS and \
                        not passed(lines, "traced digest"):
                    fail(f"{where}: traced and untraced digests differ")
            if workload in DIGEST_WORKLOADS and \
                    not passed(lines, "every episode ends with one digest"):
                fail(f"{where}: episodes end with different digests")
            print(f"selftest {where}: ok")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
