#!/usr/bin/env python3
"""The repository benchmark: four reference workloads, their end-to-end
metrics, and an outside-in per-layer trace. See README.md beside this file.

  python3 bench/perf/run.py [--seed S] [--repeat N] [--seconds T] [--out DIR]
                            [--workload W ...] [--trace [0|1]]
  python3 bench/perf/run.py compare A B

The first call builds the shipped programs from source into build-perf
(or $CARGO_TARGET_DIR). Every run checks the programs' outputs and writes a
report under DIR/reports; `compare` reads two sets of reports. Run with one
--workload and --repeat 1, the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 1
when an output check fails and 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, BinaryIO

import compare
import serveload
import workloads
from workloads import BATCH, JOB_TIMEOUT_S, ROOT, Proc, Tally, sha256

HERE = Path(__file__).resolve().parent
WORKLOADS = (*BATCH, "serve-mix")
PROGRAMS = ("bench_suite", "rn_dist", "rn_serve")
TRACE_TIMEOUT_S = 170

Record = dict[str, Any]
Span = dict[str, Any]


class BenchError(Exception):
    pass


# --- build ---------------------------------------------------------------------

def build(log_path: Path) -> dict[str, str]:
    """Configures (once) and builds the programs; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources at {ROOT}: nothing to build")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", "build-perf")
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", str(min(4, os.cpu_count() or 1)),
                  "--target", *PROGRAMS, "layer_trace"])
    with open(log_path, "wb") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                raise BenchError(f"cannot run {cmd[0]}: {e}") from e
            if rc != 0:
                raise BenchError(f"build failed, see {log_path}")
    bins = {p: str(build_dir / "repo" / p) for p in PROGRAMS}
    bins["layer_trace"] = str(build_dir / "layer_trace")
    bins["build_dir"] = str(build_dir)
    return bins


def _read(path: str | Path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def fingerprint(bins: dict[str, str], out: Path) -> dict[str, Any]:
    """Host identity for `compare`: CPU model, cores, L3 size, detected SIMD
    tier and compiler. A field that cannot be read is null."""
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), None)
    l3 = _read("/sys/devices/system/cpu/cpu0/cache/index3/size")
    timing = out / "simd-probe.json"
    subprocess.run([bins["bench_suite"], "--topology", "path:n=8", "--trials", "1",
                    "--timing", str(timing)], stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=JOB_TIMEOUT_S)
    try:
        simd = json.loads(timing.read_text()).get("simd")
    except (OSError, ValueError):
        simd = None
    cache = _read(Path(bins["build_dir"]) / "CMakeCache.txt") or ""
    cxx = next((line.split("=", 1)[1] for line in cache.splitlines()
                if line.startswith("CMAKE_CXX_COMPILER:")), None)
    compiler = None
    if cxx and shutil.which(cxx):
        version = subprocess.run([cxx, "--version"], capture_output=True, text=True)
        compiler = (version.stdout.splitlines() or [None])[0]
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "l3_cache": l3.strip() if l3 else None,
            "simd": simd, "compiler": compiler}


# --- one run -------------------------------------------------------------------

def summary(values: list[float], unit: str) -> dict[str, Any]:
    q1, med, q3 = compare.summarize(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def run_end_to_end(name: str, ctx: dict[str, Any], seed: int, seconds: float, wdir: Path,
                   log: BinaryIO) -> tuple[Tally, dict[str, Any], dict[str, Any]]:
    units = {m["name"]: m["unit"] for m in ctx["bench"]["end_to_end"]}
    if name == "serve-mix":
        runner = serveload.ServeRunner(ctx["bins"], seed, wdir, log)
        samples = runner.measure(seconds)
        lat = runner.latencies_ms
        per_segment = sum(n for _, n in serveload.SEGMENT_MIX)
        extras: dict[str, Any] = {"requests": len(lat())}
        if samples["wall_s"]:
            extras["requests_per_s"] = (per_segment * len(samples["wall_s"])
                                        / sum(samples["wall_s"]))
        for key, kind, p in (("p50_ms", None, 50), ("p99_ms", None, 99),
                             ("hit_p90_ms", "hit", 90), ("miss_p50_ms", "cold", 50)):
            if lat(kind):
                extras[key] = compare.percentile(lat(kind), p)
        tally = runner.tally
    else:
        batch = workloads.BatchRunner(BATCH[name], ctx["bins"], seed, wdir, ctx["digests"], log)
        samples = batch.measure(seconds)
        extras = {"results_sha256": batch.digest}
        tally = batch.tally
    # Times in seconds of a host whose probe takes PROBE_NOMINAL_S; the raw
    # medians stay in the extras.
    probe_s = compare.summarize(samples.pop("probe_s"))[1]
    extras["probe_s"] = probe_s
    for m in ("setup_s", "wall_s"):
        if samples[m]:
            extras[f"raw_{m}"] = compare.summarize(samples[m])[1]
        samples[m] = [x * workloads.PROBE_NOMINAL_S / probe_s for x in samples[m]]
    metrics = {m: summary(v, units[m]) for m, v in samples.items() if v}
    return tally, metrics, extras


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time (ms) per span name: duration minus the part of it
    that its children cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, reach = 0, start
        for a, b in sorted(children.get(s["id"], [])):
            lo, hi = max(a, reach), min(b, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["name"]] += (end - start - covered) / 1e6
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def socket_spans(records: list[tuple[Any, Any, int, int]]) -> list[Span]:
    """serve-mix client spans: one per request, with the reply's wall_ms as
    a `svc.execute` child that ends when the reply arrives."""
    spans: list[Span] = []
    for _, reply, t0, t1 in records:
        sid = len(spans) + 1
        spans.append({"trace": "serve.socket", "id": sid, "parent": 0,
                      "name": "client.request", "start_ns": t0, "end_ns": t1})
        if reply and "wall_ms" in reply:
            spans.append({"trace": "serve.socket", "id": sid + 1, "parent": sid,
                          "name": "svc.execute",
                          "start_ns": t1 - int(reply["wall_ms"] * 1e6), "end_ns": t1})
    return spans


def run_trace(name: str, ctx: dict[str, Any], seed: int, seconds: float, wdir: Path,
              log: BinaryIO) -> tuple[Tally, dict[str, Any], dict[str, Any]]:
    """layer_trace on the workload (passes 1 and 2), checked against an
    untraced run of the shipped program."""
    bins = ctx["bins"]
    tdir = wdir / "trace"
    shutil.rmtree(tdir, ignore_errors=True)
    tdir.mkdir(parents=True)
    budget = str(max(1.0, seconds / 2))
    client_spans: list[Span] = []
    if name == "serve-mix":
        runner = serveload.ServeRunner(bins, seed, wdir, log)
        runner.run(1, measuring=False)
        tally = runner.tally
        records = sorted(runner.records, key=lambda r: r[0].id)
        reference: Any = {}
        for _, reply, _, _ in records:
            if reply and reply.get("status") == "ok":
                reference.setdefault(reply["key"], sha256(reply["payload"].encode()))
        client_spans = socket_spans(records)
        (tdir / "requests.txt").write_text("".join(r[0].line + "\n" for r in records))
        cmd = [bins["layer_trace"], "--out", str(tdir), "--requests", str(tdir / "requests.txt"),
               "--clients", str(serveload.CLIENTS), *serveload.SERVE_FLAGS, "--seconds", budget]
    else:
        w = BATCH[name]
        batch = workloads.BatchRunner(w, bins, seed, wdir, ctx["digests"], log)
        batch.job(seed)
        tally = batch.tally
        reference = batch.digest
        ranks = ["--ranks", str(w.ranks)] if w.ranks else []
        cmd = [bins["layer_trace"], "--out", str(tdir), *ranks, "--seconds", budget, "--",
               *w.args, "--seed", str(seed)]
    p = Proc(cmd, log)
    problems = []
    if p.wait(TRACE_TIMEOUT_S) != 0:
        problems.append(f"layer_trace exited {p.returncode}")
    layers: dict[str, Any] = {}
    spans: list[Span] = []
    traced = b""
    try:
        layers = json.loads((tdir / "layers.json").read_text())
        spans = json.loads((tdir / "spans.json").read_text())
        traced = (tdir / "results.json").read_bytes()
        if name == "serve-mix":
            got: Any = {k: sha256(v.encode()) for k, v in json.loads(traced).items()}
        else:
            got = sha256(traced)
        if got != reference:
            problems.append("traced results differ from the untraced run")
    except (OSError, ValueError) as e:
        problems.append(f"layer_trace outputs unreadable: {e}")
    if not layers.get("same_results", False):
        problems.append("traced and untraced passes disagree")
    tally.record(problems)

    offset = max((s["id"] for s in spans), default=0)
    for s in client_spans:
        s["id"] += offset
        if s["parent"]:
            s["parent"] += offset
    all_spans = spans + client_spans
    trace_file = wdir.parent / f"trace-{name}-s{seed}.json"
    trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                      "self_ms": self_times(all_spans),
                                      "spans": all_spans}) + "\n")
    extras = {**layers.get("extra", {}), "trace_file": os.path.relpath(trace_file),
              "simd": layers.get("simd")}
    return tally, layers.get("metrics", {}), extras


def run_one(name: str, seed: int, seconds: float, trace: bool, ctx: dict[str, Any]) -> Record:
    wdir = ctx["out"] / name
    wdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    with open(wdir / "stderr.log", "ab") as log:
        try:
            if trace:
                tally, values, extras = run_trace(name, ctx, seed, seconds, wdir, log)
                metrics = {}
                for m in ctx["bench"]["per_layer"]:
                    if m["name"] in values:
                        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
                    else:
                        tally.failed += 1
                        tally.problems.append(f"per-layer metric {m['name']} missing")
            else:
                tally, metrics, extras = run_end_to_end(name, ctx, seed, seconds, wdir, log)
        finally:
            workloads.stop_all()
    return {"workload": name, "seed": seed, "trace": trace,
            "elapsed_s": time.perf_counter() - t0,
            "correct": tally.failed == 0 and bool(metrics), "attempted": tally.attempted,
            "failed": tally.failed, "problems": tally.problems[:20],
            "metrics": metrics, "extras": extras}


# --- printing ------------------------------------------------------------------

def _line(name: str, value: Any, unit: str = "") -> str:
    if isinstance(value, (int, float)):
        return f"  {name:28} {value:>14.6g} {unit}"
    return f"  {name:28} {value}"


def print_run(rec: Record) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}{'  trace' if rec['trace'] else ''}  "
          f"({rec['elapsed_s']:.1f} s)  attempted {rec['attempted']}  failed {rec['failed']}")
    for name, m in rec["metrics"].items():
        stats = f"  median of {m['n']} [{m['q1']:.6g}, {m['q3']:.6g}]" if "n" in m else ""
        print(_line(name, m["value"], f"{m['unit']:6}{stats}"))
    for k, v in rec["extras"].items():
        if isinstance(v, dict):
            for kk, vv in v.items():
                print(_line(f"{k}.{kk}", vv))
        elif not isinstance(v, list):
            print(_line(k, v))
    for p in rec["problems"]:
        print(f"  FAILED: {p}")
    sys.stdout.flush()


def print_summary(records: list[Record], bench: dict[str, Any]) -> None:
    print("\n== summary over runs: median [q1, q3] (runs)")
    for w in dict.fromkeys(r["workload"] for r in records):
        runs = [r for r in records if r["workload"] == w]
        for m in bench["per_layer" if runs[0]["trace"] else "end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs if m["name"] in r["metrics"]]
            if vals:
                q1, med, q3 = compare.summarize(vals)
                print(f"  {w:18} {m['name']:28} {med:>12.6g} [{q1:.6g}, {q3:.6g}] "
                      f"({len(vals)}) {m['unit']}")


# --- main ----------------------------------------------------------------------

def become_subreaper() -> None:
    """Orphaned rank processes re-parent here, so they can be reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def main_compare(argv: list[str], bench: dict[str, Any]) -> int:
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("parent", help="report file or directory of reports")
    ap.add_argument("change", help="report file or directory of reports")
    args = ap.parse_args(argv)
    try:
        rows, ok = compare.compare(compare.load(args.parent), compare.load(args.change), bench)
    except compare.CompareError as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2
    print(compare.format_rows(rows))
    print("no regression, nothing unresolved or missing" if ok
          else "FAILED: a regression, more failures, or a metric unresolved, missing "
               "or with too few pairs")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"run.py: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:], bench)

    ap = argparse.ArgumentParser(description=(__doc__ or "").split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1, help="first seed (run i uses seed + i)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help="measured time per run")
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="per-layer trace instead of end-to-end metrics")
    ap.add_argument("--out", default="build/perf", help="outputs, sockets and reports")
    args = ap.parse_args(argv)
    out = Path(args.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    become_subreaper()
    try:
        bins = build(out / "build.log")
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    try:
        digests = json.loads((HERE / "digests.json").read_text())
    except (OSError, ValueError):
        digests = {}
    ctx = {"bins": bins, "out": out, "bench": bench, "digests": digests}
    records = []
    try:
        fp = fingerprint(bins, out)
        for i in range(args.repeat):
            for name in args.workload or WORKLOADS:
                records.append(run_one(name, args.seed + i, args.seconds, bool(args.trace), ctx))
                print_run(records[-1])
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    finally:
        workloads.stop_all()
    report = out / "reports" / f"{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.json"
    report.write_text(json.dumps({"schema": "rn-perf-report-v1", "fingerprint": fp,
                                  "run_seconds": args.seconds, "runs": records}, indent=1) + "\n")
    if len(records) > 1:
        print_summary(records, bench)
    print(f"report: {report}")
    if len(records) == 1:
        r = records[0]
        print(json.dumps({"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"],
                          "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                      for k, v in r["metrics"].items()}}))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
