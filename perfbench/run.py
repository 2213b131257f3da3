"""The repo benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` runs the workload twice for half the time each, first
plain and then with every layer boundary wrapped in a span, and prints
the per-layer metrics (with the plain half's timed figures), the layer
table and the tracing overhead (traced minus plain instructions per
item).  Either way, every output is checked against the
program's scalar reference path after the timed part, and the last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
A serve-stream run whose load generator fell more than one tick behind
its own schedule on more than 1% of the ticks is invalid: it exits with
code 3 and prints no result.

Results and spans are also written under ``.perfbench_out/`` in the
checkout; ``compare.py`` summarises them.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, layers  # noqa: E402
from perfbench.common import (  # noqa: E402
    END_TO_END,
    LAYERS,
    PARENT_LAYERS,
    PER_LAYER,
    WORKLOADS,
    median,
)
from perfbench.spans import Tracer  # noqa: E402

SETUP_PROBES = 5  # set-ups per run; setup_s is their median

# What each workload's headline claim in ROADMAP.md is, checked from the
# traced run: (metric, what it is, what ROADMAP.md says).
ROADMAP_CLAIMS = {
    "sweep-cold": (
        "share.synthesis_pct", "synthesis share of the sweep",
        "~94% of a cold dataset sweep",
    ),
    "queue-sweep": (
        "share.wait_idle_pct", "claim-wait share of time to result",
        "poll sleeps take most of a queued sweep",
    ),
    "serve-stream": (
        "share.codec_pct", "codec share of client round trips",
        "socket/JSON layer ~68% of served time",
    ),
}


def make_workload(name: str, seed: int, tiny: bool, tracer: Tracer, work: Path):
    from perfbench.wl_batch import SpecGrid, SweepCold
    from perfbench.wl_queue import QueueSweep
    from perfbench.wl_serve import ServeStream

    classes = {
        "sweep-cold": SweepCold,
        "spec-grid": SpecGrid,
        "serve-stream": ServeStream,
        "queue-sweep": QueueSweep,
    }
    return classes[name](seed, tiny, tracer, work)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repo benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="self-test sizes (fast, not tuned)"
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="set the workload up, print READY, tear down (measures setup_s)",
    )
    return parser.parse_args(argv)


def measure_setup(args) -> "list[float]":
    """Wall time of fresh processes from start to ready, ``SETUP_PROBES`` times.

    A set-up probe is a new interpreter that imports the program and
    builds everything the workload needs before its first timed
    operation, so work moved into imports or set-up shows here.
    """
    from time import perf_counter

    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=common.child_env()
        )
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(
                f"set-up probe failed (exit {proc.returncode}, said {line!r})"
            )
        times.append(elapsed)
    return times


def layer_metrics(tracer: Tracer, workload, plain, traced) -> dict:
    counters, samples = tracer.counters, tracer.samples
    busy = tracer.busy_ms
    self_ms = tracer.self_times_ms()
    wall = tracer.root_wall_ms()

    def ratio(a: str, b: str) -> float:
        return counters[a] / counters[b] if counters[b] else 0.0

    metrics = {
        "plain.throughput_per_s": plain.throughput,
        "plain.latency_p50_ms": plain.p50,
        "plain.latency_p95_ms": plain.p95,
        "signals.pattern.count": counters["signals.pattern.count"],
        "signals.pattern.busy_ms": busy("signals.pattern"),
        "encoders.encode_batch.rows": counters["encoders.encode_batch.rows"],
        "encoders.encode_batch.busy_ms": busy("encoders.encode_batch"),
        "link.simulate_link_batch.pulses": counters[
            "link.simulate_link_batch.pulses"
        ],
        "link.simulate_link_batch.busy_ms": busy("link.simulate_link_batch"),
        "decoders.reconstruct_batch.busy_ms": busy("decoders.reconstruct_batch"),
        "reference.calls": counters["reference.calls"],
        "reference.busy_ms": busy("reference"),
        "reference.distinct_ratio": ratio("reference.distinct", "reference.calls"),
        "correlation.busy_ms": busy("correlation"),
        "store.put.count": counters["store.put.count"],
        "store.put.busy_ms": busy("store.put"),
        "store.get.count": counters["store.get.count"],
        "store.get.busy_ms": busy("store.get"),
        "store.get.hit_ratio": ratio("store.get.hits", "store.get.count"),
        "queue.submit_ms": busy("queue.submit"),
        "queue.claim_wait_ms": 0.0,
        "queue.idle_sleep_ms": self_ms.get("queue.idle_sleep", 0.0),
        "queue.collect_ms": busy("queue.collect"),
        "queue.claim.count": counters["queue.claim.count"],
        "queue.claim.empty_ratio": 0.0,
        "queue.claim.busy_ms": busy("queue.claim"),
        "queue.execute.busy_ms": busy("queue.execute"),
        "client.push_all.rtt_ms_p50": median(samples["client.push_all.rtt_ms"]),
        "client.drain.rtt_ms_p50": median(samples["client.drain.rtt_ms"]),
        "client.pack_ms": busy("client.pack"),
        "client.unpack_ms": busy("client.unpack"),
        "server.unpack_ms": 0.0,
        "server.pack_ms": 0.0,
        "server.frames": 0,
        "server.busy_replies": counters["server.busy_replies"],
        "server.shed": counters["server.shed"],
        "sessions.push_many.calls": 0,
        "sessions.push_many.rows_per_call": 0.0,
        "sessions.push_many.busy_ms": 0.0,
        "loadgen.wait_ms": busy("loadgen.wait"),
        "loadgen.late_p50_ms": 0.0,
        "loadgen.late_max_ms": 0.0,
        "loadgen.offered_vs_achieved": 0.0,
        "loadgen.lagged_ticks": 0,
        "share.synthesis_pct": (
            100.0 * self_ms.get("signals.pattern", 0.0) / wall if wall else 0.0
        ),
        "share.wait_idle_pct": 0.0,
        "share.codec_pct": 0.0,
        "trace.wall_ms": wall,
        "trace.unattributed_ms": self_ms.get("round", 0.0),
        "trace.overhead_pct": 100.0
        * (traced.instructions_per_item - plain.instructions_per_item)
        / plain.instructions_per_item,
    }
    for layer in PARENT_LAYERS:
        metrics[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
    metrics.update(workload.layer_metrics(traced))
    expected = [name for name, _, _ in PER_LAYER]
    if sorted(metrics) != sorted(expected):
        raise RuntimeError(
            f"per-layer metrics drifted from the table: "
            f"{sorted(set(metrics) ^ set(expected))}"
        )
    return metrics


def print_layer_table(tracer: Tracer, metrics: dict, workload: str) -> None:
    self_ms = tracer.self_times_ms()
    wall = tracer.root_wall_ms()
    print(f"\nlayer table (traced phase, wall {wall:.1f} ms over root spans)")
    print(f"  {'layer':<28}{'busy ms':>11}{'self ms':>11}{'self %':>8}")
    for layer in LAYERS + ("round",):
        if layer not in self_ms:
            continue
        label = "(unattributed)" if layer == "round" else layer
        print(
            f"  {label:<28}{tracer.busy_ms(layer):>11.1f}"
            f"{self_ms[layer]:>11.1f}{100 * self_ms[layer] / wall:>7.1f}%"
        )
    residual = wall - sum(self_ms.values())
    print(f"  self times + unattributed - wall = {residual:+.3f} ms")
    print(
        "  tracing overhead on instructions per item: "
        f"{metrics['trace.overhead_pct']:+.1f}%"
    )
    claim = ROADMAP_CLAIMS.get(workload)
    if claim is not None:
        name, what, roadmap = claim
        print(f"  ROADMAP check: {what} = {metrics[name]:.1f}% (ROADMAP: {roadmap})")


def run(args, work: Path) -> dict:
    tracer = Tracer()
    host = common.host_fingerprint()
    setup_times = [] if args.trace else measure_setup(args)
    workload = make_workload(args.workload, args.seed, args.tiny, tracer, work)
    plain = None
    try:
        workload.setup()
        if args.trace:
            plain = workload.run(args.seconds / 2)
            layers.install(tracer)
            tracer.enabled = True
            phase = workload.run(args.seconds / 2, traced=True)
            tracer.enabled = False
            tracer.unwrap_all()
        else:
            phase = workload.run(args.seconds)
        rss = workload.peak_rss_mb()
        per_layer = (
            layer_metrics(tracer, workload, plain, phase) if args.trace else None
        )
        verdict = workload.verify()
    finally:
        workload.close()

    print(
        f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, "
        f"trace {args.trace}{', tiny' if args.tiny else ''}"
    )
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"op: {workload.op}; item: {workload.item}")
    for key, value in phase.notes.items():
        print(f"  {key}: {value}")
    if any(p.notes.get("valid") is False for p in (plain, phase) if p):
        # The latencies of such a run measure the generator, not the
        # program: it gives no result at all.
        print(
            "perfbench: INVALID run: the load generator lagged its schedule "
            "by more than one tick on more than 1% of the ticks",
            file=sys.stderr,
        )
        raise SystemExit(3)
    fail_frac = verdict.failed / verdict.attempted if verdict.attempted else 1.0
    print(
        f"correctness: {verdict.attempted} attempted, {verdict.failed} failed "
        f"({verdict.mismatched} mismatched, {verdict.raised} raised), "
        f"fail_frac {fail_frac:g}"
    )
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = per_layer
        print_layer_table(tracer, per_layer, args.workload)
    else:
        units = {name: unit for name, unit, _ in END_TO_END}
        values = {
            "setup_s": median(setup_times),
            "peak_rss_mb": rss,
            "instructions_per_item": phase.instructions_per_item,
        }
        print(f"setup probes (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
        print(
            f"timed (not emitted): throughput {phase.throughput:.6g}/s, "
            f"latency p50 {phase.p50:.6g} ms, p95 {phase.p95:.6g} ms "
            f"over {len(phase.latencies_ms)} samples"
        )
    metrics = {}
    for name, value in values.items():
        value = float(value)
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": units[name]}
        if value or not args.trace:
            print(f"  {name:<40}{value:>16.6g} {units[name]}")
    if args.trace:
        zero = sum(1 for m in metrics.values() if not m["value"])
        print(f"  ({zero} more are 0: layers this workload does not reach)")
    result = {
        "correct": verdict.mismatched == 0 and verdict.raised == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }

    common.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        tiny=args.tiny,
        host=host,
        fail_frac=fail_frac,
        notes=phase.notes,
        setup_probes_s=setup_times,
        latencies_ms=phase.latencies_ms,
    )
    (common.OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.dump(common.OUT / f"{stem}-spans.json", extra={"host": host})
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    common.ensure_src()
    common.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORK))
    try:
        if args.setup_probe:
            workload = make_workload(
                args.workload, args.seed, args.tiny, Tracer(), work
            )
            try:
                workload.setup()
                print("READY", flush=True)
            finally:
                workload.close()
            return 0
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
