"""The shape every workload shares: set up, run timed rounds, verify."""

from __future__ import annotations

import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from .common import WARMUP_S, median, quantile, self_peak_rss_mb
from .counters import InstructionCounter
from .spans import Tracer


P95_WINDOW = 200  # samples per window of the p95 (see Phase.p95)


@dataclass
class Phase:
    """What one timed phase measured."""

    latencies_ms: "list[float]"  # one per operation, in the order timed
    throughput: float  # work items per second
    instructions_per_item: float  # user-space instructions per work item
    notes: dict = field(default_factory=dict)  # printed, not emitted

    @property
    def p50(self) -> float:
        return median(self.latencies_ms)

    @property
    def p95(self) -> float:
        """The 95th percentile, robust to a stall of the host.

        The samples, in the order they were taken, are cut into windows
        of at least ``P95_WINDOW`` (ten samples beyond each window's p95);
        the result is the median of the windows' p95.  A few seconds in
        which a shared host took the core away then move one window, not
        the run's figure.  Fewer than two windows' worth is one window.
        """
        data = self.latencies_ms
        n = max(1, len(data) // P95_WINDOW)
        size = len(data) // n
        return median(
            quantile(data[i * size : (i + 1) * size], 0.95) for i in range(n)
        )


def pattern_mismatches(experiment, dataset, correlations, n_events) -> int:
    """How many patterns of a swept ``dataset`` differ from ``run_one``.

    Each pattern's correlation and event count must equal, bit for bit,
    what ``experiment.run_one`` gives for that pattern alone.
    """
    mismatched = 0
    for i in range(dataset.n_patterns):
        ref = experiment.run_one(dataset.pattern(i))
        if not (
            np.float64(ref.correlation_pct) == correlations[i]
            and ref.n_events == n_events[i]
        ):
            mismatched += 1
    return mismatched


@dataclass
class Verdict:
    """Correctness of every output the run produced, checked after timing."""

    attempted: int = 0
    failed: int = 0  # raised, refused, or differs from the reference
    mismatched: int = 0  # the part of ``failed`` that is a wrong output
    raised: int = 0  # the part of ``failed`` that raised


class Workload:
    """Base class: subclasses fill in :meth:`setup`, :meth:`run` and
    :meth:`verify`.  ``tiny`` selects the self-test sizes."""

    name = ""
    # Printed once per run so results say what each op and item is.
    op = ""
    item = ""

    def __init__(self, seed: int, tiny: bool, tracer: Tracer, work: Path):
        self.seed = seed
        self.tiny = tiny
        self.tracer = tracer
        self.work = work
        self.raised = 0
        self._next_round = 0
        self._warm = False
        # This process's instructions; subclasses add those spent inside
        # their timed operations to ``instructions`` (reset per phase).
        self.counter = InstructionCounter(os.getpid())
        self.instructions = 0.0

    def setup(self) -> None:
        """Everything done before the first timed operation."""

    def run(self, seconds: float, traced: bool = False) -> Phase:
        raise NotImplementedError

    def verify(self) -> Verdict:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_metrics(self, phase: Phase) -> dict:
        """Workload-specific per-layer metrics of the traced phase."""
        return {}

    def close(self) -> None:
        """Release what :meth:`setup` acquired (idempotent)."""
        self.counter.close()

    def rounds(self, seconds: float, body) -> "tuple[list[float], list[float]]":
        """Call ``body(round_index)`` until ``seconds`` have passed.

        ``body`` returns the round's timed duration and the durations of
        the operations in it, in seconds.  The first call warms up for
        ``WARMUP_S`` untimed seconds first (allocator, caches, lazy
        imports).  A round that raises is counted in :attr:`raised`; the
        third one ends the run.  Each round is its own request in the
        trace.  Returns the timed rounds' durations and their operations'.
        """
        if not self._warm:
            self._warm = True
            self._loop(WARMUP_S, body)
        self.instructions = 0.0
        return self._loop(seconds, body)

    def _loop(self, seconds: float, body) -> "tuple[list[float], list[float]]":
        deadline = perf_counter() + seconds
        times: "list[float]" = []
        ops: "list[float]" = []
        while not times or perf_counter() < deadline:
            index = self._next_round
            self._next_round += 1
            self.tracer.set_request(index)
            try:
                elapsed, op_times = body(index)
            except Exception:
                self.raised += 1
                traceback.print_exc(file=sys.stderr)
                if self.raised >= 3:
                    raise
                continue
            times.append(elapsed)
            ops.extend(op_times)
        return times, ops
