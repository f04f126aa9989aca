#!/usr/bin/env python3
"""Compare two or more BENCH_*.json envelopes and render regression curves.

Every scale driver records its results through obs::RunRecorder as a
self-describing envelope (schema name + version, meta, driver sections,
gates). Given >= 2 such documents IN CHRONOLOGICAL ORDER (oldest first —
e.g. the committed baseline then a fresh nightly re-run), this tool:

  * groups the inputs by schema name and refuses to compare documents of
    different schema versions (the repo-wide versioning rule: a reader
    never guesses a layout);
  * flattens every numeric leaf into a labelled metric, using identifying
    keys (n, check, mode, threads, phase, ...) instead of array indices,
    so "runs[n=10000].traced_exchanges_per_s" stays stable when the
    ladder grows;
  * renders one markdown table per schema: first value, last value,
    delta %, and an ASCII trend curve across all inputs;
  * reports gate flips (a gate true in one document and false in a later
    one) prominently — those are regressions by definition.

Exit status is 0 unless --fail-regress PCT is given and some metric
matching --watch regressed (fell) by more than PCT percent between the
first and last document. Throughput-style metrics (suffix `_per_s`) are
watched by default.

Usage:
    python3 scripts/bench_trend.py OLD.json NEW.json [MORE.json...]
        [-o TREND.md] [--watch REGEX] [--fail-regress PCT]
"""

from __future__ import annotations

import argparse
import json
import re
import sys

SPARK_LEVELS = " .:-=+*#%@"

# List-item keys that identify a row better than its index does.
ID_KEYS = ("check", "mode", "phase", "protocol", "n", "engine", "kernel",
           "threads", "sockets", "bucket", "removed_fraction")

# Envelope keys that are not driver metrics.
SKIP_TOP = {"schema", "meta", "gates", "gates_ok"}


def label_for(item, index):
    if isinstance(item, dict):
        parts = [f"{k}={item[k]}" for k in ID_KEYS if k in item]
        if parts:
            return ",".join(parts)
    return str(index)


def flatten(node, prefix="", out=None):
    """Numeric leaves only; digest strings and labels are not trends."""
    if out is None:
        out = {}
    if isinstance(node, dict):
        for key, value in node.items():
            if prefix == "" and key in SKIP_TOP:
                continue
            flatten(value, f"{prefix}.{key}" if prefix else key, out)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            flatten(item, f"{prefix}[{label_for(item, index)}]", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node
    return out


def spark(values):
    lo, hi = min(values), max(values)
    if hi == lo:
        return "=" * len(values)
    return "".join(SPARK_LEVELS[int((v - lo) / (hi - lo) *
                                    (len(SPARK_LEVELS) - 1))]
                   for v in values)


def fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"bench_trend: {path}: {exc}")
    schema = doc.get("schema")
    if not isinstance(schema, dict) or "name" not in schema:
        raise SystemExit(f"bench_trend: {path}: not a RunRecorder envelope "
                         "(missing schema object)")
    return doc


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+",
                        help="BENCH_*.json documents, oldest first")
    parser.add_argument("-o", "--output", default="-",
                        help="output markdown path (default stdout)")
    parser.add_argument("--watch", default=r"_per_s$",
                        help="regex of metric labels watched for regression "
                             "(default: throughput suffixes)")
    parser.add_argument("--fail-regress", type=float, default=None,
                        metavar="PCT",
                        help="exit non-zero if a watched metric fell more "
                             "than PCT%% between first and last document")
    args = parser.parse_args(argv[1:])
    if len(args.files) < 2:
        parser.error("need at least two documents to compare")
    watch = re.compile(args.watch)

    groups = {}  # schema name -> [(path, doc)]
    for path in args.files:
        doc = load(path)
        groups.setdefault(doc["schema"]["name"], []).append((path, doc))

    out = ["# Bench trend report", ""]
    regressions = []
    for name in sorted(groups):
        series = groups[name]
        out.append(f"## `{name}`")
        out.append("_documents (oldest first): " +
                   ", ".join(f"`{p}`" for p, _ in series) + "_")
        out.append("")
        if len(series) < 2:
            out.append("_Only one document — nothing to compare._")
            out.append("")
            continue
        versions = {doc["schema"].get("version") for _, doc in series}
        if len(versions) != 1:
            raise SystemExit(
                f"bench_trend: {name}: mixed schema versions "
                f"{sorted(versions)}; comparing across versions would "
                "compare different field layouts")

        # Gate flips first — a gate that was true and went false is a
        # regression whatever the numbers say.
        gate_series = [doc.get("gates", {}) for _, doc in series]
        all_gates = sorted({g for gates in gate_series for g in gates})
        flips = []
        for gate in all_gates:
            values = [gates.get(gate) for gates in gate_series]
            known = [v for v in values if v is not None]
            if known and not all(v is True for v in known):
                flips.append((gate, values))
        if flips:
            out.append("### Gate regressions")
            for gate, values in flips:
                out.append(f"* **{gate}**: " +
                           " -> ".join(str(v) for v in values))
            out.append("")
            regressions.extend(f"gate {g}" for g, _ in flips)

        flats = [flatten(doc) for _, doc in series]
        labels = [label for label in flats[0]
                  if all(label in f for f in flats)]
        dropped = {label for f in flats for label in f} - set(labels)
        out.append("| metric | first | last | delta % | trend |")
        out.append("|---|---|---|---|---|")
        for label in labels:
            values = [f[label] for f in flats]
            first, last = values[0], values[-1]
            delta = ((last - first) / abs(first) * 100.0) if first else 0.0
            out.append(f"| `{label}` | {fmt(first)} | {fmt(last)} | "
                       f"{delta:+.1f} | `{spark(values)}` |")
            if (watch.search(label) and args.fail_regress is not None
                    and first and delta < -args.fail_regress):
                regressions.append(f"{label} ({delta:+.1f}%)")
        out.append("")
        if dropped:
            out.append(f"_{len(dropped)} metric(s) not present in every "
                       "document were skipped._")
            out.append("")

    if regressions and args.fail_regress is not None:
        out.append("## REGRESSIONS")
        out.extend(f"* {r}" for r in regressions)
        out.append("")

    text = "\n".join(out) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"bench_trend: wrote {args.output}")
    if regressions and args.fail_regress is not None:
        print("bench_trend: regressions detected:", file=sys.stderr)
        for r in regressions:
            print(f"  - {r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
