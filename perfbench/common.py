"""Shared pieces of the repo benchmark: paths, metric tables, statistics, host.

The metric tables below define what the benchmark reports.  ``BENCHMARK.json``
at the repo root must name exactly these metrics (``selftest.py`` checks
it), and every workload prints every one of them.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # per-run scratch (stores, queues), removed
OUT = ROOT / ".perfbench_out"  # result and span files, kept

# Untimed work before a workload's first timed operation: the allocator,
# caches and lazy imports settle in the first second or so.
WARMUP_S = 1.0

WORKLOADS = ("sweep-cold", "spec-grid", "serve-stream", "queue-sweep")

# End-to-end metrics (tracing off): (name, unit, better).  Times other
# than set-up are not among them: the reference host's speed drifts too
# far for a bound on them (README.md, "Noise and bounds"); a traced run
# reports them as ``plain.*``, and every run prints them.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("instructions_per_item", "count", "lower"),
)

# Layers recorded as spans, in the layer table's order.  ``round`` is the
# root span, so its self time is the part of the wall time no layer
# claims.
LAYERS = (
    "signals.pattern",
    "encoders.encode_batch",
    "link.simulate_link_batch",
    "decoders.reconstruct_batch",
    "reference",
    "correlation",
    "store.put",
    "store.get",
    "queue.submit",
    "queue.claim",
    "queue.idle_sleep",
    "queue.execute",
    "queue.collect",
    "loadgen.wait",
    "client.push_all",
    "client.drain",
    "client.pack",
    "client.unpack",
)

# The layers whose spans hold other layers' spans: only for these does
# self time differ from busy time, so only these get a ``.self_ms``
# metric.  (``queue.idle_sleep`` holds ``queue.submit``; its self time
# is ``queue.idle_sleep_ms``.)
PARENT_LAYERS = ("queue.execute", "queue.collect", "client.push_all", "client.drain")

# Per-layer metrics (traced run): (name, unit, better).
PER_LAYER = (
    # The traced run's untraced half, timed.
    ("plain.throughput_per_s", "1/s", "higher"),
    ("plain.latency_p50_ms", "ms", "lower"),
    ("plain.latency_p95_ms", "ms", "lower"),
    ("signals.pattern.count", "count", "lower"),
    ("signals.pattern.busy_ms", "ms", "lower"),
    ("encoders.encode_batch.rows", "count", "lower"),
    ("encoders.encode_batch.busy_ms", "ms", "lower"),
    ("link.simulate_link_batch.pulses", "count", "lower"),
    ("link.simulate_link_batch.busy_ms", "ms", "lower"),
    ("decoders.reconstruct_batch.busy_ms", "ms", "lower"),
    ("reference.calls", "count", "lower"),
    ("reference.busy_ms", "ms", "lower"),
    ("reference.distinct_ratio", "ratio", "higher"),
    ("correlation.busy_ms", "ms", "lower"),
    ("store.put.count", "count", "lower"),
    ("store.put.busy_ms", "ms", "lower"),
    ("store.get.count", "count", "lower"),
    ("store.get.busy_ms", "ms", "lower"),
    ("store.get.hit_ratio", "ratio", "higher"),
    ("queue.submit_ms", "ms", "lower"),
    ("queue.claim_wait_ms", "ms", "lower"),
    ("queue.idle_sleep_ms", "ms", "lower"),
    ("queue.collect_ms", "ms", "lower"),
    ("queue.claim.count", "count", "lower"),
    ("queue.claim.empty_ratio", "ratio", "lower"),
    ("queue.claim.busy_ms", "ms", "lower"),
    ("queue.execute.busy_ms", "ms", "lower"),
    ("client.push_all.rtt_ms_p50", "ms", "lower"),
    ("client.drain.rtt_ms_p50", "ms", "lower"),
    ("client.pack_ms", "ms", "lower"),
    ("client.unpack_ms", "ms", "lower"),
    ("server.unpack_ms", "ms", "lower"),
    ("server.pack_ms", "ms", "lower"),
    ("server.frames", "count", "lower"),
    ("server.busy_replies", "count", "lower"),
    ("server.shed", "count", "lower"),
    ("sessions.push_many.calls", "count", "lower"),
    ("sessions.push_many.rows_per_call", "count", "higher"),
    ("sessions.push_many.busy_ms", "ms", "lower"),
    ("loadgen.wait_ms", "ms", "higher"),
    ("loadgen.late_p50_ms", "ms", "lower"),
    ("loadgen.late_max_ms", "ms", "lower"),
    ("loadgen.offered_vs_achieved", "ratio", "higher"),
    ("loadgen.lagged_ticks", "count", "lower"),
    ("share.synthesis_pct", "%", "lower"),
    ("share.wait_idle_pct", "%", "lower"),
    ("share.codec_pct", "%", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
) + tuple((f"{layer}.self_ms", "ms", "lower") for layer in PARENT_LAYERS)


def ensure_src() -> None:
    """Put the checkout's ``src`` on the import path, or exit 2.

    The benchmark measures the program in the checkout it sits in; a
    directory holding only the benchmark has nothing to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program to measure (missing {SRC / 'repro'})",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def derive_seed(seed: int, *parts: int) -> int:
    """A deterministic sub-seed for round ``parts`` of workload ``seed``."""
    value = int(seed) & 0xFFFFFFFF
    for part in parts:
        value = (value * 1_000_003 + int(part) + 1) % 2**31
    return value


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0..1) of ``values``, linear between samples."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def self_peak_rss_mb() -> float:
    """Peak resident set of this process, MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_s(pid: int) -> float:
    """CPU time (user + system) a live process has used so far, seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> dict:
    """What a result depends on besides the code: cores, versions, backend."""
    import numpy as np

    from repro.kernels.dispatch import active_backend, numba_available

    return {
        "nproc": os.cpu_count(),
        # Instruction counts depend on it: numpy picks SIMD code per CPU.
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": active_backend(),
        "numba": numba_available(),
        "machine": platform.machine(),
        "system": platform.system(),
    }
