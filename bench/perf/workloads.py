"""The benchmark's batch workloads, how they run, and how their outputs are
checked. serveload.py holds the fourth workload, serve-mix.

Every workload is a closed loop of jobs from one client: the next job starts
when the previous one has ended. For a batch workload a job is one run of a
shipped program on the workload's arguments plus `--seed`. Job i of a run
gets seed S + i * JOB_SEED_STRIDE for run seed S: a job's time and memory
depend on its input graphs, and a median over many inputs varies less from
run to run than one input does. The warm-up job and the first measured job
share seed S, so their results must be byte-identical.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

ROOT = Path(__file__).resolve().parents[2]
JOB_TIMEOUT_S = 120
# Set-up takes 1-5 ms, and a launch right after idle time is up to 30% faster
# than one under load, so set-up probes follow each measured job.
SETUP_PER_JOB = 3
MIN_JOBS = 3
JOB_SEED_STRIDE = 1_000_003

# The layered family of the e10 scale sweep at n = 150001, small enough for a
# job to take about 2.5 s; the same spec runs locally and on the rank fleet.
LAYERED = "layered:depth=50,width=3000,edge_prob=0.0066"


@dataclass(frozen=True)
class Batch:
    name: str
    program: str           # bench_suite or rn_dist
    args: tuple[str, ...]  # bench_suite CLI, without --seed and --json
    ranks: int = 0         # rn_dist fleet size (0 = single process)

    def _ranks(self) -> tuple[str, ...]:
        return ("--ranks", str(self.ranks)) if self.ranks else ()

    def command(self, bins: dict[str, str], seed: int, json_path: Path) -> list[str]:
        return [bins[self.program], *self._ranks(), *self.args,
                "--seed", str(seed), "--json", str(json_path)]

    def ready_command(self, bins: dict[str, str]) -> list[str]:
        """The set-up probe: start, register everything, exit."""
        return [bins[self.program], *self._ranks(), "--list"]


BATCH = {b.name: b for b in (
    Batch("suite-small", "bench_suite",
          ("-e", "all", "--trials", "10", "--threads", "4")),
    Batch("layered-150k", "bench_suite",
          ("--topology", LAYERED, "--protocol", "gst-known,decay", "--trials", "2",
           "--threads", "4", "--intra-trial-threads", "2")),
    Batch("dist-layered-150k", "rn_dist",
          ("--threads", "1", "--intra-trial-threads", "1", "--topology", LAYERED,
           "--protocol", "gst-known,decay", "--trials", "1"), ranks=3),
)}


# --- processes -----------------------------------------------------------------

LIVE: set[Proc] = set()  # started and not yet reaped
SAMPLE_S = 0.01


def tree_peak_kb(pid: int) -> int | None:
    """Largest VmHWM (kB) over `pid` and its descendants; None when none
    could be read.

    VmHWM is the kernel's resident high-water mark of one address space. The
    ru_maxrss that wait4 reports would do instead, but Linux folds in the
    pages a child shared with this process before its exec, so for a program
    smaller than this client it would measure the client."""
    peak = None
    todo = [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak = max(peak or 0, int(line.split()[1]))
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as f:
                    todo.extend(int(c) for c in f.read().split())
        except (OSError, ValueError):
            continue
    return peak


class Proc:
    """A child in its own session and process group.
    With `sample_memory`, a thread polls the peak RSS of its process tree
    every SAMPLE_S until it ends.

    posix_spawn (vfork and exec) starts it without copying this client's
    page tables, so launch time does not grow with the client's memory."""

    def __init__(self, cmd: list[str], log: BinaryIO, sample_memory: bool = False) -> None:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                   (os.POSIX_SPAWN_DUP2, log.fileno(), 2)]
        self.t0 = time.perf_counter()
        self.pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions, setsid=True)
        LIVE.add(self)
        self.wall_s = 0.0
        self.returncode: int | None = None
        self.peak_kb: int | None = None
        self._ended = threading.Event()
        self._sampler: threading.Thread | None = None
        if sample_memory:
            self._sampler = threading.Thread(target=self._sample, daemon=True)
            self._sampler.start()

    def _sample(self) -> None:
        while True:
            kb = tree_peak_kb(self.pid)
            if kb:
                self.peak_kb = max(self.peak_kb or 0, kb)
            if self._ended.wait(SAMPLE_S):
                return

    def kill(self) -> None:
        try:
            os.killpg(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def wait(self, timeout: float) -> int | None:
        """Blocks until the process ends; kills its group after `timeout`."""
        timer = threading.Timer(timeout, self.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status = os.waitpid(self.pid, 0)
        finally:
            timer.cancel()
        self._reaped(status)
        return self.returncode

    def poll(self) -> int | None:
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid != 0:
            self._reaped(status)
        return self.returncode

    def _reaped(self, status: int) -> None:
        self.wall_s = time.perf_counter() - self.t0
        self._ended.set()
        if self._sampler is not None:
            self._sampler.join()
        self.returncode = os.waitstatus_to_exitcode(status)
        LIVE.discard(self)
        reap_group(self.pid)

    @property
    def peak_rss_mb(self) -> float | None:
        """Sampled tree peak; None when no sample was read."""
        return self.peak_kb / 1024.0 if self.peak_kb else None


def reap_group(pgid: int) -> None:
    """Kills what is left of a process group (rank processes of a killed
    coordinator) and waits up to 5 s until none of it exists."""
    end = time.monotonic() + 5.0
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while time.monotonic() < end:
        try:
            # Orphans are re-parented to this process (a child subreaper).
            while os.waitpid(-pgid, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.005)


def stop_all() -> None:
    for p in list(LIVE):
        p.kill()
        p.wait(10)


# --- outputs -------------------------------------------------------------------

def results_problems(data: bytes | str) -> list[str]:
    """Problems in one results JSON (rn-bench-v2): a completion or payload
    flag below 1, or an ad-hoc protocol run that never completed (its round
    count is -1)."""
    try:
        doc = json.loads(data)
    except ValueError as e:
        return [f"results are not JSON: {e}"]
    if not isinstance(doc, list) or not doc:
        return ["results hold no experiment"]
    problems = []
    for exp in doc:
        for sc in exp.get("scenarios", []):
            for name, st in sc.get("metrics", {}).items():
                where = f"{exp.get('experiment')} {sc.get('label')} {name}"
                if name in ("completed", "payloads_verified") and st.get("mean") != 1:
                    problems.append(f"{where}: mean {st.get('mean')}, not 1")
                if exp.get("experiment") == "adhoc" and st.get("min", 0) < 0:
                    problems.append(f"{where}: a run did not complete")
    return problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# --- host speed ----------------------------------------------------------------

# The host is shared, and over minutes its speed drifts for every workload at
# once: whole runs of the same job on the same seed took up to 1.8x as long.
# A longer run cannot average out a drift that lasts minutes. A fixed probe,
# timed after every job, tracks it: in a set of ten runs per workload, the
# run's median probe correlated 0.61-0.96 with its median wall. run.py scales
# a run's times by PROBE_NOMINAL_S / (the run's median probe); 0.034 s is the
# probe's median on the 4-vCPU AVX-512 Xeon that measured the baseline.
PROBE_NOMINAL_S = 0.034


@functools.cache
def _probe_buffers() -> tuple[bytes, bytearray, bytearray]:
    # Written here once, so that no probe takes a page fault: a probe that
    # copied into fresh memory read 2-3x noisier back to back (IQR / median
    # 0.18-0.22 against 0.07-0.10).
    return bytes(16 << 20), bytearray(b"\1") * (64 << 20), bytearray(b"\2") * (64 << 20)


def host_probe_s() -> float:
    """Seconds of a fixed piece of work that no repository code takes part
    in: sha256 over 16 MiB (compute-bound, like suite-small), then two copies
    of 64 MiB between buffers allocated once (memory-bound, like the layered
    walk). Either half alone left wider spreads on some workload."""
    hashed, src, dst = _probe_buffers()
    t0 = time.perf_counter()
    hashlib.sha256(hashed).digest()
    dst[:] = src
    dst[:] = src
    return time.perf_counter() - t0


def launch_s(cmd: list[str], log: BinaryIO) -> float:
    """Seconds from launch to exit of a set-up probe."""
    p = Proc(cmd, log)
    if p.wait(JOB_TIMEOUT_S) != 0:
        raise RuntimeError(f"{cmd[0]} set-up probe exited {p.returncode}")
    return p.wall_s


class BatchRunner:
    def __init__(self, w: Batch, bins: dict[str, str], seed: int, out: Path,
                 digests: dict[str, Any], log: BinaryIO) -> None:
        self.w, self.bins, self.seed, self.out, self.log = w, bins, seed, out, log
        self.committed = (digests.get("seed"), digests.get("sha256", {}).get(w.name))
        self.tally = Tally()
        self.digests: dict[int, str] = {}  # job seed -> results digest

    def job(self, seed: int, program: str | None = None) -> tuple[Proc, str | None]:
        """One job (on `program` in place of the workload's own, with the
        same arguments); returns the process and its results digest."""
        path = self.out / "results.json"
        if path.exists():
            path.unlink()
        w = Batch(self.w.name, program, self.w.args) if program else self.w
        p = Proc(w.command(self.bins, seed, path), self.log, sample_memory=True)
        problems = []
        digest = None
        if p.wait(JOB_TIMEOUT_S) != 0:
            problems.append(f"{w.name}: {w.program} exit code {p.returncode}")
        else:
            data = path.read_bytes()
            digest = sha256(data)
            problems += results_problems(data)
            expected_seed, expected = self.committed
            if seed == expected_seed and expected and digest != expected:
                problems.append(f"{w.name}: seed {seed} results digest {digest[:12]} "
                                f"!= committed {expected[:12]}")
            if self.digests.setdefault(seed, digest) != digest:
                problems.append(f"{w.name}: {w.program} results of seed {seed} differ "
                                "from an earlier job of that seed")
        self.tally.record(problems)
        return p, digest

    @property
    def digest(self) -> str | None:
        return self.digests.get(self.seed)

    def measure(self, seconds: float) -> dict[str, list[float]]:
        self.job(self.seed)  # warm-up: page cache, CPU frequency
        if self.w.ranks:
            # A rank-fleet job must match bench_suite on the same arguments.
            self.job(self.seed, program="bench_suite")
        setup: list[float] = []
        walls: list[float] = []
        peaks: list[float] = []
        probes: list[float] = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or (len(walls) < MIN_JOBS and not self.tally.failed):
            p, _ = self.job(self.seed + len(walls) * JOB_SEED_STRIDE)
            if p.returncode == 0:
                walls.append(p.wall_s)
                if p.peak_rss_mb is None:
                    self.tally.failed += 1
                    self.tally.problems.append(f"{self.w.name}: no VmHWM sample of a job")
                else:
                    peaks.append(p.peak_rss_mb)
            probes.append(host_probe_s())
            setup += [launch_s(self.w.ready_command(self.bins), self.log)
                      for _ in range(SETUP_PER_JOB)]
        return {"setup_s": setup, "wall_s": walls, "peak_rss_mb": peaks, "probe_s": probes}
