"""The two batch workloads: ``sweep-cold`` and ``spec-grid``."""

from __future__ import annotations

import hashlib
import tempfile
from time import perf_counter

import numpy as np

from .common import derive_seed
from .workload import Phase, Verdict, Workload, pattern_mismatches


class SweepCold(Workload):
    """A cold, uncached D-ATC dataset sweep on the serial backend.

    Each round sweeps a freshly seeded dataset into a fresh result store,
    so no layer can serve it from a cache.  The paper's evaluation path:
    pattern synthesis does most of the work, then store writes.
    """

    name = "sweep-cold"
    op = "one cold dataset_sweep"
    item = "pattern"

    def setup(self) -> None:
        from repro.api import Experiment, ExperimentSpec
        from repro.runtime.store import ResultStore
        from repro.signals.dataset import DatasetSpec

        self.Experiment, self.ResultStore = Experiment, ResultStore
        self.DatasetSpec = DatasetSpec
        self.spec = ExperimentSpec.for_scheme("datc")
        # Small sweeps, so a run holds enough of them for a p95.
        self.n, self.duration_s = (2, 2.0) if self.tiny else (4, 20.0)
        self.outputs: "list[tuple[int, np.ndarray, np.ndarray]]" = []

    def _dataset(self, seed: int):
        return self.DatasetSpec(
            n_patterns=self.n, duration_s=self.duration_s, seed=seed
        )

    def _round(self, index: int) -> float:
        seed = derive_seed(self.seed, index)
        # Stores are left for the run's work directory to take away:
        # deleting files is slow on some disks and is no part of a sweep.
        root = tempfile.mkdtemp(prefix="sweep-", dir=self.work)
        count = self.counter.read()
        start = perf_counter()
        with self.tracer.span("round"):
            result = self.Experiment(
                self.spec, store=self.ResultStore(root)
            ).dataset_sweep(self._dataset(seed))
        elapsed = perf_counter() - start
        self.instructions += self.counter.read() - count
        self.outputs.append(
            (seed, result.correlations_pct.copy(), result.n_events.copy())
        )
        return elapsed, [elapsed]

    def run(self, seconds: float, traced: bool = False) -> Phase:
        times, _ = self.rounds(seconds, self._round)
        return Phase(
            latencies_ms=[t * 1e3 for t in times],
            throughput=self.n * len(times) / sum(times),
            instructions_per_item=self.instructions / (self.n * len(times)),
            notes={"rounds": len(times), "patterns_per_round": self.n},
        )

    def verify(self) -> Verdict:
        """Every swept pattern against a per-pattern ``run_one``."""
        verdict = Verdict()
        experiment = self.Experiment(self.spec)
        for seed, corr, events in self.outputs:
            verdict.attempted += self.n
            verdict.mismatched += pattern_mismatches(
                experiment, self._dataset(seed), corr, events
            )
        verdict.raised = self.raised * self.n
        verdict.attempted += verdict.raised
        verdict.failed = verdict.mismatched + verdict.raised
        return verdict


def _digest(result) -> tuple:
    """A pipeline result's outputs, reduced to exact comparable values."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.reconstruction).tobytes())
    h.update(np.ascontiguousarray(result.stream.times).tobytes())
    if result.stream.levels is not None:
        h.update(np.ascontiguousarray(result.stream.levels).tobytes())
    return (float(result.correlation_pct), int(result.n_events), h.hexdigest())


class SpecGrid(Workload):
    """The Fig. 5 / Fig. 7 trade-off grid over patterns made in set-up.

    Ten operating points, every one through the IR-UWB link: ATC at four
    thresholds, D-ATC float and quantized at three frame selectors.
    Encode, link, decode, reference envelope and correlation do all the
    work; synthesis happens once, in set-up.
    """

    name = "spec-grid"
    op = "one operating point: Experiment(spec).run over the pattern set"
    item = "point (pattern x spec)"

    ATC_THRESHOLDS = (0.1, 0.15, 0.2, 0.25)
    FRAME_SELECTORS = (0, 1, 2)

    def setup(self) -> None:
        from repro.api import EncoderSpec, Experiment, ExperimentSpec, LinkSpec
        from repro.core.config import ATCConfig, DATCConfig
        from repro.signals.dataset import DatasetSpec
        from repro.uwb.link import LinkConfig

        self.Experiment = Experiment
        # The same patterns serve every round, so their subjects' EMG
        # models set the run's work per point.  Drawn from a dataset's 8
        # subjects, it moved by +-6% between seeds (as much with 64
        # patterns as with 16); each pattern gets a subject of its own.
        n, duration_s = (2, 2.0) if self.tiny else (32, 20.0)
        dataset = DatasetSpec(
            n_patterns=n, n_subjects=n, duration_s=duration_s, seed=self.seed
        )
        self.patterns = [dataset.pattern(i) for i in range(n)]
        link = LinkSpec(LinkConfig())
        self.specs = [
            ExperimentSpec(
                encoder=EncoderSpec("atc", ATCConfig(vth=vth)), link=link
            )
            for vth in self.ATC_THRESHOLDS
        ] + [
            ExperimentSpec(
                encoder=EncoderSpec(
                    "datc", DATCConfig(frame_selector=sel, quantized=quantized)
                ),
                link=link,
            )
            for quantized in (False, True)
            for sel in self.FRAME_SELECTORS
        ]
        self.points = len(self.specs) * len(self.patterns)
        self.outputs: "list[list[tuple]]" = []

    def _round(self, index: int) -> float:
        results, op_times = [], []
        count = self.counter.read()
        start = perf_counter()
        with self.tracer.span("round"):
            for spec in self.specs:
                t0 = perf_counter()
                results.append(self.Experiment(spec).run(self.patterns))
                op_times.append(perf_counter() - t0)
        elapsed = perf_counter() - start
        self.instructions += self.counter.read() - count
        self.outputs.append([_digest(r) for rows in results for r in rows])
        return elapsed, op_times

    def run(self, seconds: float, traced: bool = False) -> Phase:
        times, op_times = self.rounds(seconds, self._round)
        return Phase(
            latencies_ms=[t * 1e3 for t in op_times],
            throughput=self.points * len(times) / sum(times),
            instructions_per_item=self.instructions / (self.points * len(times)),
            notes={"rounds": len(times), "points_per_round": self.points},
        )

    def verify(self) -> Verdict:
        """Every point of every pass against per-(spec, pattern) ``run_one``."""
        reference = [
            _digest(self.Experiment(spec).run_one(pattern))
            for spec in self.specs
            for pattern in self.patterns
        ]
        verdict = Verdict()
        for digests in self.outputs:
            verdict.attempted += len(digests)
            verdict.mismatched += sum(a != b for a, b in zip(digests, reference))
        verdict.raised = self.raised * self.points
        verdict.attempted += verdict.raised
        verdict.failed = verdict.mismatched + verdict.raised
        return verdict
