"""The ``serve-stream`` workload: an open-loop load on a ``repro serve`` process."""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from time import perf_counter

import numpy as np

from .common import (
    HERE,
    WARMUP_S,
    child_env,
    median,
    proc_cpu_s,
    proc_peak_rss_mb,
)
from .counters import InstructionCounter
from .workload import Phase, Verdict, Workload


class ServeStream(Workload):
    """Replay dataset patterns at sensor rate into the session server.

    One asyncio generator opens two ``StreamingClient`` connections that
    own 1024 D-ATC sessions between them.  Every 20 ms tick (50 samples
    per session at 2500 Hz) each connection sends one ``push_all`` wave
    and then drains its probe session; the connections' ticks are half a
    tick apart, as independent wearers' would not line up.  The loop is
    open: a tick is due on the schedule whatever the server did with the
    last one, and its latency runs from when it was due to the drain
    reply, so pump work and any stall count.  The offered load, 1024
    session-seconds per second, is about 45% of what the server sustains
    on one core of the reference host.

    The server runs in its own process, started by ``serve_launcher.py``
    (which times the server's codec and pump when traced).  Each timed
    phase gets its own server; at the end of a phase every session is
    finalized and its envelope kept for :meth:`verify`.
    """

    name = "serve-stream"
    op = "one tick: push_all wave + probe drain, from due time"
    item = "session-second (throughput: per second of server CPU time)"

    TICK_S = 0.02
    CONNECTIONS = 2

    def setup(self) -> None:
        from repro.core.config import DATCConfig
        from repro.runtime.client import StreamingClient
        from repro.runtime.sessions import SessionSpec
        from repro.signals.dataset import DatasetSpec

        self.StreamingClient = StreamingClient
        self.sessions, n_base, duration_s = (
            (8, 2, 2.0) if self.tiny else (1024, 16, 20.0)
        )
        dataset = DatasetSpec(
            n_patterns=n_base, duration_s=duration_s, seed=self.seed
        )
        self.base = [dataset.pattern(i).emg for i in range(n_base)]
        self.fs = dataset.fs
        self.chunk = int(round(self.fs * self.TICK_S))
        self.config = DATCConfig()
        self.spec = SessionSpec(scheme="datc", fs=self.fs, config=self.config)
        # (ticks pushed, {session index: (envelope, n_events)}, busy pushes)
        self.epochs: "list[tuple]" = []
        self.server_rss_mb: "list[float]" = []
        # The server and the generator each get a core of their own when
        # there are two: left to the scheduler, they sometimes share one
        # for a whole run, and latency then measures that placement.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.loop = asyncio.new_event_loop()
        self.proc = None
        self.server_counter = None
        self.clients: list = []
        self._epoch = 0
        self._ticks = None
        self._start(traced=False)

    # -- server lifetime -------------------------------------------------
    def _start(self, traced: bool) -> None:
        self._epoch += 1
        tag = f"{self._epoch}"
        ready = self.work / f"serve-ready-{tag}"
        self.trace_file = self.work / f"serve-spans-{tag}.json" if traced else None
        self.log = open(self.work / f"serve-{tag}.log", "w")
        cmd = [
            sys.executable,
            str(HERE / "serve_launcher.py"),
            "--trace-out",
            str(self.trace_file or ""),
            "serve",
            "--port", "0",
            "--ready-file", str(ready),
            "--max-sessions", str(self.sessions),
        ]
        self.proc = subprocess.Popen(
            cmd, env=child_env(), stdout=self.log, stderr=subprocess.STDOUT
        )
        if len(self.cpus) >= 2:
            os.sched_setaffinity(self.proc.pid, {self.cpus[1]})
        deadline = perf_counter() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode} before ready"
                )
            lines = ready.read_text().splitlines() if ready.exists() else []
            if len(lines) >= 2:
                host, port = lines[1].split()
                break
            if perf_counter() > deadline:
                raise RuntimeError("server never became ready")
            self.loop.run_until_complete(asyncio.sleep(0.005))
        self.server_counter = InstructionCounter(self.proc.pid)
        self.loop.run_until_complete(self._connect(host, int(port)))

    async def _connect(self, host: str, port: int) -> None:
        per = self.sessions // self.CONNECTIONS
        self.clients, self.sids = [], []
        for c in range(self.CONNECTIONS):
            client = await self.StreamingClient.connect(
                host, port, name=f"perfbench-{c}"
            )
            self.clients.append(client)
            self.sids.append(await client.create_many(self.spec, per))
        # Session index i (0..sessions-1) replays base pattern i % n_base.
        self.owned = [
            list(range(c * per, (c + 1) * per)) for c in range(self.CONNECTIONS)
        ]

    def _stop(self) -> None:
        """Finalize every session, read the server's counters, shut it down."""
        if self.proc is None:
            return
        try:
            if self.clients and self._ticks is not None:
                with self.tracer.paused():
                    envelopes, stats = self.loop.run_until_complete(
                        self._finish()
                    )
                self.last_stats = stats
                self.server_rss_mb.append(proc_peak_rss_mb(self.proc.pid))
                self.epochs.append((self._ticks, envelopes, stats["n_busy"]))
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.clients = []
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc = None
            self.log.close()
            if self.server_counter is not None:
                self.server_counter.close()
                self.server_counter = None
        if self.trace_file is not None:
            self._merge_server_trace(json.loads(self.trace_file.read_text()))

    async def _finish(self):
        envelopes: dict = {}
        for client, sids, owned in zip(self.clients, self.sids, self.owned):
            for sid, index in zip(sids, owned):
                try:
                    result = await client.finalize(sid)
                except Exception:
                    envelopes[index] = None
                    continue
                envelopes[index] = (result.envelope, result.stream.n_events)
        return envelopes, await self.clients[0].stats()

    def _merge_server_trace(self, dump: dict) -> None:
        """Sum the server's spans that fall inside the timed phase.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        the server's span times compare with the generator's.
        """
        busy: dict = {}
        counts: dict = {}
        for s in dump["spans"]:
            if s["start"] < self._t0 or s["end"] > self._last_reply:
                continue  # set-up or finalize traffic
            busy[s["name"]] = busy.get(s["name"], 0.0) + (s["end"] - s["start"])
            for key, value in (s["counts"] or {}).items():
                counts[key] = counts.get(key, 0) + value
        self.server_busy_ms = {k: v * 1e3 for k, v in busy.items()}
        self.server_counters = counts

    # -- the open loop ---------------------------------------------------
    def run(self, seconds: float, traced: bool = False) -> Phase:
        if self.proc is None or (self.trace_file is not None) != traced:
            with self.tracer.paused():
                self._stop()
                self._start(traced)
        self._ticks = None
        # Every server is new, so each phase starts with untimed ticks.
        self._warm_ticks = int(round(WARMUP_S / self.TICK_S))
        n_ticks = self._warm_ticks + max(1, int(round(seconds / self.TICK_S)))
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, {self.cpus[0]})
        try:
            cpu_start = proc_cpu_s(self.proc.pid)
            count = self.counter.read() + self.server_counter.read()
            latencies, lateness = self.loop.run_until_complete(
                self._drive_all(n_ticks)
            )
            instructions = (
                self.counter.read() + self.server_counter.read() - count
            )
            server_cpu_s = proc_cpu_s(self.proc.pid) - cpu_start
        finally:
            os.sched_setaffinity(0, self.cpus)
        self._ticks = n_ticks
        served = n_ticks * self.sessions * self.TICK_S  # session-seconds
        offered = self.sessions  # session-seconds per second, by design
        achieved = served / (self._last_reply - self._t0)
        self._stop()
        self.tracer.count("server.busy_replies", self.last_stats["n_busy"])
        self.tracer.count("server.shed", self.last_stats["n_shed"])
        lagged = sum(1 for x in lateness if x > self.TICK_S * 1e3)
        # A run whose generator fell over a tick behind on more than 1% of
        # its ticks measures the generator.  Fewer cannot set the p95 (which
        # has 5% of each window beyond it); a shared host's stall of a few
        # tens of ms gives one or two such ticks in some runs.
        valid = lagged <= 0.01 * len(lateness)
        # The loop is open, so the achieved rate is the offered one while
        # the server keeps up; what the server's work costs shows as the
        # session-seconds it serves per second of its own CPU time.
        return Phase(
            latencies_ms=latencies,
            throughput=served / server_cpu_s,
            instructions_per_item=instructions / served,
            notes={
                "ticks": n_ticks,
                "server_cpu_s": server_cpu_s,
                "latency_samples": len(latencies),
                "sessions": self.sessions,
                "late_p50_ms": median(lateness),
                "late_max_ms": max(lateness),
                "offered_session_s_per_s": offered,
                "achieved_session_s_per_s": achieved,
                "offered_vs_achieved": achieved / offered,
                "lagged_ticks": lagged,
                "valid": valid,
            },
        )

    async def _drive_all(self, n_ticks: int):
        self._t0 = perf_counter() + 0.05
        self._last_reply = self._t0
        out = await asyncio.gather(
            *(self._drive(c, n_ticks) for c in range(self.CONNECTIONS))
        )
        # Tick k of every connection, then tick k + 1: the order in time.
        latencies = [x for ticks in zip(*(lat for lat, _ in out)) for x in ticks]
        lateness = [x for _, late in out for x in late]
        return latencies, lateness

    async def _drive(self, c: int, n_ticks: int):
        tracer = self.tracer
        tracer.set_request(c)
        client, sids = self.clients[c], self.sids[c]
        pairs = list(zip(sids, (self.base[i % len(self.base)] for i in self.owned[c])))
        n_samples = self.base[0].size
        latencies, lateness = [], []
        now = 0.0
        with tracer.span("round"):
            for k in range(n_ticks):
                due = self._t0 + (k + c / self.CONNECTIONS) * self.TICK_S
                with tracer.span("loadgen.wait"):
                    delay = due - perf_counter()
                    if delay > 0:
                        await asyncio.sleep(delay)
                # The generator's own lag: how late it started the tick
                # once the tick was due and the last reply was in.  Waiting
                # for that reply is the server's doing, and latency (from
                # the due time) already counts it.
                late = perf_counter() - max(due, now)
                off = (k * self.chunk) % n_samples
                wave = {sid: emg[off : off + self.chunk] for sid, emg in pairs}
                await client.push_all(wave)
                await client.drain(sids[0])
                now = perf_counter()
                if k >= self._warm_ticks:
                    lateness.append(late * 1e3)
                    latencies.append((now - due) * 1e3)
                self._last_reply = max(self._last_reply, now)
        return latencies, lateness

    # -- results ---------------------------------------------------------
    def peak_rss_mb(self) -> float:
        return self.server_rss_mb[0]

    def _reference(self, n_ticks: int) -> "list[tuple[np.ndarray, int]]":
        """Scalar ``StreamingEncoder``/``StreamingDecoder`` per base pattern."""
        from repro.core.encoders import DATCEncoder
        from repro.rx.decoders import StreamingDecoder

        out = []
        for emg in self.base:
            enc = DATCEncoder(self.fs, self.config, rectify=True)
            dec = StreamingDecoder(
                scheme="datc",
                config=self.config,
                fs_out=self.spec.fs_out,
                window_s=self.spec.window_s,
            )
            n_events = 0
            for k in range(n_ticks):
                off = (k * self.chunk) % emg.size
                events = enc.push(emg[off : off + self.chunk])
                n_events += events.n_events
                dec.push(events)
            enc.finalize()
            tail = enc.drain()
            n_events += tail.n_events
            dec.push(tail)
            dec.finalize()
            out.append((dec.envelope, n_events))
        return out

    def verify(self) -> Verdict:
        """Every session's envelope against the scalar streaming path."""
        verdict = Verdict()
        for n_ticks, envelopes, busy in self.epochs:
            reference = self._reference(n_ticks)
            # Pushes plus finalizes; refused pushes count as failed.
            verdict.attempted += self.sessions * (n_ticks + 1)
            verdict.failed += busy
            for index in range(self.sessions):
                got = envelopes.get(index)
                want_env, want_events = reference[index % len(self.base)]
                if got is None:
                    verdict.raised += 1
                elif not (np.array_equal(got[0], want_env) and got[1] == want_events):
                    verdict.mismatched += 1
        verdict.failed += verdict.mismatched + verdict.raised
        return verdict

    def layer_metrics(self, phase: Phase) -> dict:
        tracer = self.tracer
        server_busy = getattr(self, "server_busy_ms", {})
        server_counts = getattr(self, "server_counters", {})
        calls = server_counts.get("sessions.push_many.calls", 0)
        codec = (
            tracer.busy_ms("client.pack")
            + tracer.busy_ms("client.unpack")
            + server_busy.get("server.unpack", 0.0)
            + server_busy.get("server.pack", 0.0)
        )
        rtt = tracer.busy_ms("client.push_all") + tracer.busy_ms("client.drain")
        notes = phase.notes
        return {
            "server.unpack_ms": server_busy.get("server.unpack", 0.0),
            "server.pack_ms": server_busy.get("server.pack", 0.0),
            "server.frames": server_counts.get("server.frames", 0),
            "sessions.push_many.calls": calls,
            "sessions.push_many.rows_per_call": (
                server_counts.get("sessions.push_many.rows", 0) / calls
                if calls else 0.0
            ),
            "sessions.push_many.busy_ms": server_busy.get(
                "sessions.push_many", 0.0
            ),
            "loadgen.late_p50_ms": notes["late_p50_ms"],
            "loadgen.late_max_ms": notes["late_max_ms"],
            "loadgen.offered_vs_achieved": notes["offered_vs_achieved"],
            "loadgen.lagged_ticks": notes["lagged_ticks"],
            "share.codec_pct": 100.0 * codec / rtt if rtt else 0.0,
        }

    def close(self) -> None:
        try:
            if hasattr(self, "loop"):
                self._ticks = None  # a failed phase leaves nothing to verify
                try:
                    self._stop()
                finally:
                    self.loop.close()
        finally:
            super().close()
