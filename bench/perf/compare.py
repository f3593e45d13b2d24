"""Report statistics and the two-commit comparison rule of `run.py compare`.

A report (written by `run.py`) holds the host fingerprint and one record per
run: workload, seed, operations failed and each metric's value. `compare A B`
pairs the runs of A (the parent) and B (the change) by workload and seed and,
for every end-to-end metric of every workload in BENCHMARK.json, gives one
verdict:

  gain          B wins at least 9 of every 10 pairs (ties count for neither)
                and the medians differ by more than A's interquartile range
  void-gain     a gain, but B's runs of the workload failed more operations
  better        the spread of A or B exceeds the bound, but every run of B
                is better than every run of A
  unresolved    the spread (IQR / median) of A or B exceeds the bound
  regression    B's median is worse than A's by more than the bound
  same          none of the above
  too-few-pairs fewer than MIN_PAIRS pairs
  missing       no pair at all: a side lacks the workload or the metric

One more row per workload compares the operations failed, summed over its
runs: `more-failed` when B failed more than A. The change passes only when
every row is same, gain or better. Reports from hosts with different
fingerprints are refused.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

MIN_PAIRS = 10
FINGERPRINT_KEYS = ("cpu_model", "nproc", "l3_cache", "simd", "compiler")
PASSING = ("same", "gain", "better")

Report = dict[str, Any]
Row = tuple[str, str, str, list[float], list[float], int, str]


class CompareError(Exception):
    pass


def quantiles(values: list[float], n: int) -> list[float]:
    """statistics.quantiles(values, n) by linear interpolation between the
    sorted values ("inclusive"), so no quantile lies outside the values; one
    value is every quantile. Every median, quartile and percentile of the
    benchmark comes from here."""
    if len(values) == 1:
        return [values[0]] * (n - 1)
    return statistics.quantiles(values, n=n, method="inclusive")


def summarize(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3)."""
    q1, med, q3 = quantiles(values, 4)
    return q1, med, q3


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile, 1 <= p <= 99."""
    return quantiles(values, 100)[p - 1]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = summarize(values)
    return (q3 - q1) / med if med else 0.0


def fingerprint_diff(a: dict[str, Any], b: dict[str, Any]) -> list[str]:
    return [k for k in FINGERPRINT_KEYS if a.get(k) != b.get(k)]


def load(path: str | Path) -> Report:
    """One report, or every report of a directory (name order), merged."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    if not files:
        raise CompareError(f"no reports in {path}")
    merged: Report = {}
    for f in files:
        report = json.loads(f.read_text())
        fp = report.get("fingerprint", {})
        if not merged:
            merged = {"fingerprint": fp, "runs": []}
        elif fingerprint_diff(merged["fingerprint"], fp):
            raise CompareError(f"{f} comes from another host than {files[0]}")
        merged["runs"].extend(r for r in report.get("runs", []) if not r.get("trace"))
    return merged


def _by_seed(runs: list[dict[str, Any]], workload: str, metric: str) -> dict[int, float]:
    return {r["seed"]: r["metrics"][metric]["value"]
            for r in runs if r["workload"] == workload and metric in r["metrics"]}


def _failed(runs: list[dict[str, Any]], workload: str) -> dict[int, float]:
    """Operations failed per seed, over every run of `workload`."""
    return {r["seed"]: float(r["failed"]) for r in runs if r["workload"] == workload}


def _wins(parent: list[float], change: list[float], better: str) -> int:
    sign = 1.0 if better == "lower" else -1.0
    return sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict for two lists of values paired by index."""
    pairs = min(len(parent), len(change))
    if pairs == 0:
        return "missing"
    if pairs < MIN_PAIRS:
        return "too-few-pairs"
    sign = 1.0 if better == "lower" else -1.0
    q1a, med_a, q3a = summarize(parent)
    med_b = summarize(change)[1]
    if _wins(parent, change, better) >= 0.9 * pairs and sign * (med_a - med_b) > q3a - q1a:
        return "gain"
    if max(spread(parent), spread(change)) > bound:
        beats_all = (max(change) < min(parent) if better == "lower"
                     else min(change) > max(parent))
        return "better" if beats_all else "unresolved"
    if sign * (med_b - med_a) / med_a > bound:
        return "regression"
    return "same"


def compare(parent: Report, change: Report, bench: dict[str, Any]) -> tuple[list[Row], bool]:
    """One row (workload, metric, unit, parent values, change values, wins,
    verdict) per workload of `bench` (BENCHMARK.json) and end-to-end metric,
    plus a `failed` row per workload; and whether the change passes."""
    diff = fingerprint_diff(parent["fingerprint"], change["fingerprint"])
    if diff:
        raise CompareError("different hosts, refusing to compare: " + ", ".join(
            f"{k}: {parent['fingerprint'].get(k)!r} vs {change['fingerprint'].get(k)!r}"
            for k in diff))
    rows: list[Row] = []
    for w in (x["name"] for x in bench["workloads"]):
        fa, fb = _failed(parent["runs"], w), _failed(change["runs"], w)
        more_failed = sum(fb.values()) > sum(fa.values())
        for m in bench["end_to_end"]:
            a = _by_seed(parent["runs"], w, m["name"])
            b = _by_seed(change["runs"], w, m["name"])
            seeds = sorted(set(a) & set(b))
            pa, pb = [a[s] for s in seeds], [b[s] for s in seeds]
            v = verdict(pa, pb, m["better"], m["bound"])
            if v == "gain" and more_failed:
                v = "void-gain"
            rows.append((w, m["name"], m["unit"], pa, pb, _wins(pa, pb, m["better"]), v))
        v = "missing" if not fa or not fb else "more-failed" if more_failed else "same"
        seeds = sorted(set(fa) & set(fb))
        pa, pb = [fa[s] for s in seeds], [fb[s] for s in seeds]
        rows.append((w, "failed", "count", pa, pb, _wins(pa, pb, "lower"), v))
    return rows, bool(rows) and all(r[6] in PASSING for r in rows)


def _cell(values: list[float]) -> str:
    if not values:
        return "-"
    q1, med, q3 = summarize(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def format_rows(rows: list[Row]) -> str:
    out = [f"{'workload':18} {'metric':12} {'unit':5} {'parent median [q1, q3]':>30} "
           f"{'change median [q1, q3]':>30} {'wins':>7}  verdict"]
    for w, name, unit, pa, pb, wins, v in rows:
        out.append(f"{w:18} {name:12} {unit:5} {_cell(pa):>30} {_cell(pb):>30} "
                   f"{wins:>3}/{min(len(pa), len(pb)):<3}  {v}")
    return "\n".join(out)
