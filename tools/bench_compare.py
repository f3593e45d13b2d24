#!/usr/bin/env python3
"""Compare two bench timing files and fail on wall-clock regressions.

Inputs are rn-bench-timing-v1..v5 sidecars written by `bench_suite --timing`
(v5 adds the distributed-rank fields emitted by `rn_dist`)
and/or google-benchmark JSON written by `bench_micro --benchmark_out=...`.
The file kind is auto-detected. Tracked metrics:

  * bench_suite:  per-experiment `wall_ms`
  * bench_micro:  per-benchmark `real_time` (aggregate rows are skipped)

The v2 sidecar also carries `peak_rss_kb` (process high-water mark); it is
reported for trend-watching but never gated — RSS on shared CI runners is
too noisy for a hard threshold.

Usage:
    bench_compare.py BASELINE CURRENT [--threshold 1.25] [--min-ms 5]
                     [--markdown PATH]

Exit codes: 0 ok (or no comparable baseline), 1 regression, 2 bad input.
Metrics only present on one side are reported but never fail the gate: a
benchmark's first appearance shows as "new (no baseline)" and a removed one
as "retired". Timings below --min-ms are ignored: at micro scale CI-runner
noise swamps any real signal.

A markdown comparison table is appended to --markdown PATH, defaulting to
$GITHUB_STEP_SUMMARY when that is set — so the CI perf job surfaces the
numbers on the run's summary page without artifact digging.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# (metric, baseline_ms, current_ms, verdict) — one comparison-table row.
Row = tuple[str, float | None, float | None, str]


# v3 made the per-experiment peak_rss_kb a per-run high-water mark (reset
# between experiments); the top-level peak_rss_kb stays process-monotone, so
# the comparison logic is unchanged across versions. v4 added the active
# SIMD kernel tier and per-experiment simd/scalar round splits — execution
# evidence, not timings, so they ride along untracked here.
TIMING_SCHEMAS = ("rn-bench-timing-v1", "rn-bench-timing-v2",
                  "rn-bench-timing-v3", "rn-bench-timing-v4",
                  "rn-bench-timing-v5", "rn-bench-timing-v6")


def load_metrics(path: str) -> tuple[dict[str, float], int | None]:
    """Returns ({metric_name: milliseconds}, peak_rss_kb_or_None)."""
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e}") from e

    metrics: dict[str, float] = {}
    peak_rss: int | None = None
    if isinstance(data, dict) and data.get("schema") in TIMING_SCHEMAS:
        for row in data.get("experiments", []):
            metrics[f"suite/{row['id']}"] = float(row["wall_ms"])
        if "peak_rss_kb" in data:
            peak_rss = int(data["peak_rss_kb"])
    elif isinstance(data, dict) and "benchmarks" in data:  # google-benchmark
        unit_ms = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
        for row in data["benchmarks"]:
            if row.get("run_type") == "aggregate":
                continue
            # Skipped benchmarks report error rows, not timings.
            if row.get("error_occurred"):
                continue
            scale = unit_ms.get(row.get("time_unit", "ns"))
            if scale is None:
                continue
            metrics[f"micro/{row['name']}"] = float(row["real_time"]) * scale
    else:
        raise SystemExit(f"bench_compare: {path}: unrecognized format")
    return metrics, peak_rss


def _fmt_cell(value: float | None) -> str:
    return f"{value:.2f}" if value is not None else "-"


def write_markdown(path: str, title: str, rows: list[Row],
                   verdict_line: str) -> None:
    """Appends a GitHub-flavored markdown comparison table to `path`."""
    with open(path, "a") as f:
        f.write(f"### perf compare: {title}\n\n")
        f.write("| metric | base | cur | verdict |\n")
        f.write("|---|---:|---:|---|\n")
        for name, b, c, verdict in rows:
            cell = verdict
            if verdict.startswith("REGRESSION"):
                cell = f"**{verdict}** :red_circle:"
            elif verdict.startswith("improved"):
                cell = f"{verdict} :green_circle:"
            f.write(f"| `{name}` | {_fmt_cell(b)} | {_fmt_cell(c)} | {cell} |\n")
        f.write(f"\n{verdict_line}\n\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="fail when current > threshold * baseline (default 1.25)")
    ap.add_argument("--min-ms", type=float, default=5.0,
                    help="ignore suite metrics faster than this in the baseline")
    ap.add_argument("--min-micro-ms", type=float, default=0.01,
                    help="ignore micro (per-iteration) metrics faster than this")
    ap.add_argument("--markdown", default=os.environ.get("GITHUB_STEP_SUMMARY"),
                    help="append a markdown comparison table to this file "
                         "(default: $GITHUB_STEP_SUMMARY when set)")
    args = ap.parse_args()

    # A fresh branch (or a wiped cache) has no baseline artifact at all;
    # that is a seeding run, not an error — never fail the gate on it.
    if not os.path.exists(args.baseline):
        print("no baseline, skipping gate")
        return 0

    base, base_rss = load_metrics(args.baseline)
    cur, cur_rss = load_metrics(args.current)

    regressions: list[str] = []
    rows: list[Row] = []
    for name in sorted(set(base) | set(cur)):
        b, c = base.get(name), cur.get(name)
        if b is None:
            rows.append((name, b, c, "new (no baseline, not gated)"))
            continue
        if c is None:
            rows.append((name, b, c, "retired"))
            continue
        floor = args.min_micro_ms if name.startswith("micro/") else args.min_ms
        if max(b, c) < floor:  # ignore only when both sides are in the noise
            rows.append((name, b, c, "(below noise floor, ignored)"))
            continue
        ratio = c / b if b > 0 else float("inf")
        verdict = "ok"
        if ratio > args.threshold:
            verdict = f"REGRESSION x{ratio:.2f}"
            regressions.append(name)
        elif ratio < 1 / args.threshold:
            verdict = f"improved x{1 / ratio:.2f}"
        rows.append((name, b, c, verdict))

    # The v2 sidecar's RSS high-water mark rides along in the same table (in
    # MiB, not ms) so memory regressions are visible on the step summary —
    # reported, never gated: RSS on shared CI runners is too noisy for a
    # hard threshold.
    if base_rss is not None or cur_rss is not None:
        def to_mib(v: int | None) -> float | None:
            return v / 1024.0 if v is not None else None

        rss_verdict = "reported only, not gated"
        if base_rss and cur_rss:
            rss_verdict += f" (x{cur_rss / base_rss:.2f})"
        rows.append(("suite/peak_rss_mib", to_mib(base_rss), to_mib(cur_rss),
                     rss_verdict))

    width = max((len(r[0]) for r in rows), default=10)

    def fmt_ms(v: float | None) -> str:
        return f"{v:10.2f}" if v is not None else "         -"

    print(f"{'metric':<{width}}  {'base':>10}  {'cur':>10}  verdict")
    for name, b, c, verdict in rows:
        print(f"{name:<{width}}  {fmt_ms(b)}  {fmt_ms(c)}  {verdict}")

    if regressions:
        verdict_line = (f"FAIL: {len(regressions)} metric(s) regressed beyond "
                        f"x{args.threshold}: {', '.join(regressions)}")
    else:
        verdict_line = f"OK: no tracked metric regressed beyond x{args.threshold}"
    if cur_rss is not None:
        rss_note = f"peak RSS: {cur_rss / 1024.0:.0f} MiB"
        if base_rss is not None:
            rss_note += f" (baseline {base_rss / 1024.0:.0f} MiB)"
        verdict_line += f" — {rss_note} [not gated]"

    if args.markdown:
        try:
            write_markdown(args.markdown, args.current, rows, verdict_line)
        except OSError as e:
            print(f"bench_compare: cannot write markdown summary: {e}",
                  file=sys.stderr)

    print(f"\n{verdict_line}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
