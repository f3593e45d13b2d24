"""The serve-mix workload: closed-loop load on rn_serve from one process and
one thread (asyncio) over CLIENTS connections to its Unix socket. Closed,
because rn_submit callers wait for each reply before sending the next line.

A run pre-warms the hot keys, replays one untimed segment, then replays
segments of the fixed SEGMENT_MIX until the time is up; wall_s is the median
segment wall. A segment's order, hot-key picks and cold seeds come from the
run seed.

The traffic is synthetic. No record of real rn_serve requests exists, so the
mix of hits, cold runs and malformed lines, and the 4 clients on 2 workers,
are assumptions, not observations. The request shapes are not invented: every
run request names one of the repository's own experiments e1-e9, the
reproduction suite that suite-small runs in batch.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import random
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from workloads import (
    JOB_TIMEOUT_S,
    SETUP_PER_JOB,
    Proc,
    Tally,
    host_probe_s,
    results_problems,
    sha256,
    tree_peak_kb,
)

CLIENTS = min(4, os.cpu_count() or 1)
SERVE_FLAGS = ("--workers", "2", "--threads", "1", "--cache", "64")
# The assumed mix, per 212-request segment: 80% cache hits, 17% cold runs
# (a run plus a cache write), 3% malformed lines that must get structured
# errors.
SEGMENT_MIX = (("hit", 170), ("cold", 36), ("bad-json", 3), ("bad-request", 3))
REPLY_DEADLINE_S = 60

# A hot key is an experiment at HOT_TRIALS trials and the run seed, answered
# from cache after the pre-warm. A cold run is an experiment at COLD_TRIALS
# trial and a fresh seed, 3-270 ms at --threads 1. Each experiment is cold
# equally often in a segment, so every segment holds the same work.
EXPERIMENTS = tuple(f"e{i}" for i in range(1, 10))
HOT_TRIALS = 2
COLD_TRIALS = 1
# What a reply must carry per request kind: (status, cache origin or code).
EXPECTED = {"prewarm": ("ok", "miss"), "hit": ("ok", "hit"), "cold": ("ok", "miss"),
            "bad-json": ("error", "bad-json"), "bad-request": ("error", "bad-request")}

Reply = dict[str, Any]


@dataclass
class Request:
    kind: str  # a key of EXPECTED
    id: int
    line: str
    hot: int = -1  # EXPERIMENTS index of prewarm and hit requests


def run_line(rid: int, experiment: str, trials: int, seed: int) -> str:
    return json.dumps({"id": rid, "method": "run", "experiment": experiment,
                       "trials": trials, "seed": seed})


class Trace:
    """The seeded request trace."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.next_id = 0
        self.cold = 0

    def _id(self) -> int:
        self.next_id += 1
        return self.next_id

    def prewarm(self) -> list[Request]:
        out = []
        for i, e in enumerate(EXPERIMENTS):
            rid = self._id()
            out.append(Request("prewarm", rid, run_line(rid, e, HOT_TRIALS, self.seed), i))
        return out

    def segment(self, index: int) -> list[Request]:
        rng = random.Random(f"serve-mix/{self.seed}/{index}")
        kinds = [k for k, n in SEGMENT_MIX for _ in range(n)]
        rng.shuffle(kinds)
        cold = list(EXPERIMENTS) * (dict(SEGMENT_MIX)["cold"] // len(EXPERIMENTS))
        rng.shuffle(cold)
        out = []
        for kind in kinds:
            rid = self._id()
            hot = -1
            if kind == "hit":
                hot = rng.randrange(len(EXPERIMENTS))
                line = run_line(rid, EXPERIMENTS[hot], HOT_TRIALS, self.seed)
            elif kind == "cold":
                self.cold += 1
                # A fresh seed is a fresh cache key: always a miss.
                seed = 10**9 + self.seed * 10**6 + self.cold
                line = run_line(rid, cold.pop(), COLD_TRIALS, seed)
            elif kind == "bad-json":
                line = f'{{"id": {rid}, "method": "run", "topology": '
            else:
                line = json.dumps({"id": rid, "method": "run", "topology": "no_such_kind:n=4"})
            out.append(Request(kind, rid, line, hot))
        return out


def check(req: Request, reply: Reply | None, fills: dict[int, str]) -> list[str]:
    """Problems with one reply; `fills` maps a hot index to the digest of the
    payload of the miss that filled its cache entry."""
    if reply is None:
        return [f"request {req.id} ({req.kind}): no reply within {REPLY_DEADLINE_S} s"]
    status = reply.get("status")
    got = (status, reply.get("cache") if status == "ok" else reply.get("code"))
    if got != EXPECTED[req.kind]:
        return [f"request {req.id} ({req.kind}): got {got}, want {EXPECTED[req.kind]}"]
    if req.kind != "bad-json" and reply.get("id") != req.id:
        return [f"request {req.id}: reply carries id {reply.get('id')}"]
    payload = reply.get("payload", "")
    if req.kind == "hit" and sha256(payload.encode()) != fills.get(req.hot):
        return [f"request {req.id}: cached payload differs from the miss that filled it"]
    if req.kind == "cold":
        return [f"request {req.id}: {p}" for p in results_problems(payload)]
    return []


class Client:
    def __init__(self, path: str) -> None:
        self.path = path
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_unix_connection(self.path, limit=1 << 26)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.writer = None

    async def ask(self, line: str) -> Reply | None:
        """The reply object, or None on timeout or a broken connection (the
        connection is then replaced, since its replies are out of step)."""
        assert self.reader is not None and self.writer is not None
        try:
            self.writer.write(line.encode() + b"\n")
            await self.writer.drain()
            raw = await asyncio.wait_for(self.reader.readline(), REPLY_DEADLINE_S)
            return json.loads(raw) if raw else None
        except (asyncio.TimeoutError, ConnectionError, ValueError):
            self.close()
            await self.open()
            return None


def prometheus(text: str) -> dict[str, float]:
    """Counter name -> value; a key that is missing is simply absent."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


class ServeRunner:
    def __init__(self, bins: dict[str, str], seed: int, out: Path, log: BinaryIO) -> None:
        self.bins, self.seed, self.out, self.log = bins, seed, out, log
        # Relative paths: sun_path holds about 100 bytes.
        self.sock = os.path.relpath(out / "rn.sock")
        self.probe_sock = os.path.relpath(out / "setup.sock")
        self.trace = Trace(seed)
        self.tally = Tally()
        self.fills: dict[int, str] = {}
        self.records: list[tuple[Request, Reply | None, int, int]] = []  # start, end ns
        self.measured_from = 0  # first request id of the measured segments
        self.counters: dict[str, float] = {}
        self.setup_s: list[float] = []
        self.probe_s: list[float] = []

    def start(self, sock: str) -> Proc:
        if os.path.exists(sock):
            os.unlink(sock)
        return Proc([self.bins["rn_serve"], "--socket", sock, *SERVE_FLAGS], self.log)

    def wait_ready(self, daemon: Proc, sock: str) -> socket.socket:
        """Connects once the daemon listens and gets its `list` reply."""
        deadline = time.monotonic() + 30
        while True:
            if daemon.poll() is not None:
                raise RuntimeError(f"rn_serve exited {daemon.returncode} before it was ready")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(sock)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                s.close()
                if time.monotonic() > deadline:
                    raise RuntimeError("rn_serve did not listen within 30 s") from None
                time.sleep(0.0001)
        s.settimeout(30)
        s.sendall(b'{"id": 0, "method": "list"}\n')
        with s.makefile("rb") as f:
            reply = json.loads(f.readline() or b"{}")
        if reply.get("status") != "ok":
            s.close()
            raise RuntimeError(f"rn_serve answered list with {reply}")
        return s

    def stop(self, daemon: Proc, sock: str) -> None:
        if daemon.returncode is None:
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                    s.settimeout(5)
                    s.connect(sock)
                    s.sendall(b'{"id": 0, "method": "shutdown"}\n')
                    s.recv(4096)
            except OSError:
                daemon.kill()
            daemon.wait(JOB_TIMEOUT_S)
        if daemon.returncode != 0:
            self.tally.failed += 1
            self.tally.problems.append(f"rn_serve exited {daemon.returncode}")

    def probe_setup(self) -> None:
        """Set-up probes: a second daemon, launch to its first `list` reply."""
        for _ in range(SETUP_PER_JOB):
            daemon = self.start(self.probe_sock)
            try:
                s = self.wait_ready(daemon, self.probe_sock)
                self.setup_s.append(time.perf_counter() - daemon.t0)
                s.close()
            finally:
                self.stop(daemon, self.probe_sock)

    async def replay(self, clients: list[Client], reqs: list[Request]) -> float:
        """Closed loop over `reqs`; returns the wall time in seconds."""
        queue = collections.deque(reqs)

        async def loop(c: Client) -> None:
            while queue:
                req = queue.popleft()
                t0 = time.perf_counter_ns()
                reply = await c.ask(req.line)
                t1 = time.perf_counter_ns()
                problems = check(req, reply, self.fills)
                if reply is not None and req.kind == "prewarm" and not problems:
                    self.fills[req.hot] = sha256(reply["payload"].encode())
                self.tally.record(problems)
                self.records.append((req, reply, t0, t1))

        t0 = time.perf_counter()
        await asyncio.gather(*(loop(c) for c in clients))
        return time.perf_counter() - t0

    async def session(self, segments: int, seconds: float, measuring: bool) -> list[float]:
        """Pre-warm, then `segments` segments and more until `seconds` pass.
        When `measuring`, an untimed segment comes first and a host probe
        and set-up probes follow each segment (the main daemon idles
        meanwhile). Returns the wall of each measured segment."""
        clients = [Client(self.sock) for _ in range(CLIENTS)]
        try:
            for c in clients:
                await c.open()
            await self.replay(clients[:1], self.trace.prewarm())
            if measuring:
                await self.replay(clients, self.trace.segment(0))
            self.measured_from = self.trace.next_id + 1
            walls: list[float] = []
            end = time.perf_counter() + seconds
            while len(walls) < segments or time.perf_counter() < end:
                walls.append(await self.replay(clients, self.trace.segment(len(walls) + 1)))
                if measuring:
                    self.probe_s.append(host_probe_s())
                    self.probe_setup()
            reply = await clients[0].ask('{"id": 0, "method": "metrics"}')
            self.counters = prometheus((reply or {}).get("metrics", ""))
        finally:
            for c in clients:
                c.close()
        return walls

    def run(self, segments: int, seconds: float = 0.0,
            measuring: bool = True) -> tuple[list[float], float | None]:
        """Returns the measured segment walls and the daemon's peak RSS in
        MiB (None when it could not be read)."""
        daemon = self.start(self.sock)
        try:
            self.wait_ready(daemon, self.sock).close()
            walls = asyncio.run(self.session(segments, seconds, measuring))
            peak_kb = tree_peak_kb(daemon.pid)
        finally:
            self.stop(daemon, self.sock)
        if peak_kb is None:
            self.tally.failed += 1
            self.tally.problems.append("no VmHWM sample of rn_serve")
        hits = sum(1 for r in self.records if r[0].kind == "hit")
        counted = self.counters.get("rn_cache_hits_total")
        if counted is not None and counted != hits:
            self.tally.failed += 1
            self.tally.problems.append(f"rn_cache_hits_total {counted:g} != {hits} hits served")
        return walls, peak_kb / 1024.0 if peak_kb else None

    def measure(self, seconds: float) -> dict[str, list[float]]:
        walls, peak_mb = self.run(3, seconds)
        return {"setup_s": self.setup_s, "wall_s": walls,
                "peak_rss_mb": [] if peak_mb is None else [peak_mb], "probe_s": self.probe_s}

    def latencies_ms(self, kind: str | None = None) -> list[float]:
        """Client latencies of the measured segments."""
        return [(t1 - t0) / 1e6 for req, _, t0, t1 in self.records
                if req.id >= self.measured_from and (kind is None or req.kind == kind)]
