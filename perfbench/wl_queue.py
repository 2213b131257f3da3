"""The ``queue-sweep`` workload: a small dataset sweep through the job queue."""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from time import perf_counter

from .common import derive_seed
from .workload import Phase, Verdict, Workload, pattern_mismatches


class QueueSweep(Workload):
    """One in-process worker drains a sweep submitted while it idles.

    ``run_worker`` runs on this thread against a fresh sqlite queue and
    result store.  Its fixed ``worker_id`` makes its idle backoff jitter
    deterministic.  The submitter calls ``submit_dataset`` a fixed offset
    after the worker starts, from inside the worker's injected ``sleep``:
    the worker wakes when its own backoff says so, exactly as it would
    with the submitter in another process, and the run needs no second
    thread.  Jobs are small (one short pattern each), so claim wait, idle
    backoff, fenced transitions and store traffic dominate.  The result
    is collected with one warm ``dataset_sweep``.
    """

    name = "queue-sweep"
    op = "one queued sweep, submit to collected result"
    item = "pattern"

    WORKER_ID = "perfbench-worker"

    def setup(self) -> None:
        from repro.api import Experiment, ExperimentSpec
        from repro.runtime.queue import ExperimentQueue, run_worker
        from repro.runtime.store import ResultStore
        from repro.signals.dataset import DatasetSpec

        self.Experiment, self.ResultStore = Experiment, ResultStore
        self.ExperimentQueue, self.run_worker = ExperimentQueue, run_worker
        self.DatasetSpec = DatasetSpec
        self.spec = ExperimentSpec.for_scheme("datc")
        if self.tiny:
            self.n, self.duration_s, self.offset_s = 2, 1.0, 0.1
        else:
            # The submit lands in the worker's first idle backoff; the
            # untimed wait before it is kept short so a run holds ~20 rounds.
            self.n, self.duration_s, self.offset_s = 16, 4.0, 0.1
        # (dataset seed, jobs submitted, jobs done, correlations, events)
        self.outputs: "list[tuple]" = []

    def _dataset(self, seed: int):
        return self.DatasetSpec(
            n_patterns=self.n, duration_s=self.duration_s, seed=seed
        )

    def _round(self, index: int) -> float:
        tracer = self.tracer
        seed = derive_seed(self.seed, index)
        dataset = self._dataset(seed)
        root = Path(tempfile.mkdtemp(prefix="queue-", dir=self.work))
        queue_path, store_root = root / "queue.sqlite", root / "store"
        submitter = self.ExperimentQueue(queue_path)
        sent: dict = {}

        def sleep(delay: float) -> None:
            # The worker's idle backoff.  The submitter's call lands
            # inside it when due; the worker still wakes at its own time.
            with tracer.span("queue.idle_sleep"):
                wake = perf_counter() + delay
                if not sent and due <= wake:
                    time.sleep(max(0.0, due - perf_counter()))
                    sent["at"] = perf_counter()
                    with tracer.span("queue.submit"):
                        sent["jobs"] = submitter.submit_dataset(
                            self.spec, dataset, shard_size=1
                        )
                    tracer.mark("queue.submitted")
                time.sleep(max(0.0, wake - perf_counter()))

        try:
            count = self.counter.read()
            due = perf_counter() + self.offset_s
            with tracer.span("round"):
                self.run_worker(
                    queue_path,
                    store_root,
                    worker_id=self.WORKER_ID,
                    max_idle_s=None,
                    sleep=sleep,
                )
                with tracer.span("queue.collect"):
                    result = self.Experiment(
                        self.spec, store=self.ResultStore(store_root)
                    ).dataset_sweep(dataset)
            elapsed = perf_counter() - sent["at"]
            self.instructions += self.counter.read() - count
            tracer.sample("queue.time_to_result_ms", elapsed * 1e3)
            done = submitter.counts()["done"]
        finally:
            submitter.close()  # the run's work directory is removed at exit
        self.outputs.append(
            (
                seed,
                sent["jobs"],
                done,
                result.correlations_pct.copy(),
                result.n_events.copy(),
            )
        )
        return elapsed, [elapsed]

    def run(self, seconds: float, traced: bool = False) -> Phase:
        times, _ = self.rounds(seconds, self._round)
        return Phase(
            latencies_ms=[t * 1e3 for t in times],
            throughput=self.n * len(times) / sum(times),
            instructions_per_item=self.instructions / (self.n * len(times)),
            notes={
                "rounds": len(times),
                "jobs_per_round": self.n,
                "submit_offset_s": self.offset_s,
            },
        )

    def verify(self) -> Verdict:
        """Every job done, every collected pattern equal to ``run_one``."""
        verdict = Verdict()
        experiment = self.Experiment(self.spec)
        for seed, jobs, done, corr, events in self.outputs:
            verdict.attempted += jobs + self.n
            verdict.failed += jobs - done
            verdict.mismatched += pattern_mismatches(
                experiment, self._dataset(seed), corr, events
            )
        verdict.raised = self.raised * 2 * self.n
        verdict.attempted += verdict.raised
        verdict.failed += verdict.mismatched + verdict.raised
        return verdict

    def layer_metrics(self, phase: Phase) -> dict:
        tracer = self.tracer
        marks = tracer.marks
        wait_ms = sum(
            (marks[("queue.first_claim", r)] - at) * 1e3
            for (name, r), at in marks.items()
            if name == "queue.submitted" and ("queue.first_claim", r) in marks
        )
        claims = tracer.counters["queue.claim.count"]
        ttr_ms = sum(tracer.samples["queue.time_to_result_ms"])
        return {
            "queue.claim_wait_ms": wait_ms,
            "queue.claim.empty_ratio": (
                tracer.counters["queue.claim.empty"] / claims if claims else 0.0
            ),
            "share.wait_idle_pct": 100.0 * wait_ms / ttr_ms if ttr_ms else 0.0,
        }
