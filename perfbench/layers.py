"""Which public functions of the program the traced run times, and how.

Every span named here wraps a function the workloads reach through the
program's public API.  Wrapping ``repro.api.encode_batch`` (and its
siblings) times the batched stage calls that ``Experiment.run`` and
``dataset_sweep`` make, without touching the program's files.
"""

from __future__ import annotations

from .spans import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the in-process layers: batch path, store, queue and client."""
    from repro import api
    from repro.runtime import client, queue
    from repro.runtime.client import StreamingClient
    from repro.runtime.queue import ExperimentQueue
    from repro.runtime.store import ResultStore
    from repro.signals.dataset import DatasetSpec, Pattern

    tracer.wrap(
        DatasetSpec, "pattern", "signals.pattern",
        counts=lambda a, k, r: {"signals.pattern.count": 1},
    )
    tracer.wrap(
        api, "encode_batch", "encoders.encode_batch",
        counts=lambda a, k, r: {"encoders.encode_batch.rows": len(r)},
    )
    tracer.wrap(
        api, "simulate_link_batch", "link.simulate_link_batch",
        counts=lambda a, k, r: {
            "link.simulate_link_batch.pulses": sum(x.n_pulses for x in r)
        },
    )
    tracer.wrap(api, "reconstruct_batch", "decoders.reconstruct_batch")
    tracer.wrap(api, "aligned_correlation_percent_batch", "correlation")

    seen: "set[tuple]" = set()

    def reference_counts(args, kwargs, result):
        pattern = args[0]
        window = kwargs.get("window_s", args[1] if len(args) > 1 else None)
        key = (tracer.request, pattern.pattern_id, window)
        if key in seen:
            return {"reference.calls": 1}
        seen.add(key)
        return {"reference.calls": 1, "reference.distinct": 1}

    tracer.wrap(Pattern, "ground_truth_envelope", "reference", reference_counts)

    tracer.wrap(
        ResultStore, "put", "store.put",
        counts=lambda a, k, r: {"store.put.count": 1},
    )
    tracer.wrap(
        ResultStore, "get", "store.get",
        counts=lambda a, k, r: {
            "store.get.count": 1, "store.get.hits": int(r is not None)
        },
    )

    def claim_counts(args, kwargs, result):
        if result is not None:
            tracer.mark("queue.first_claim")
        return {"queue.claim.count": 1, "queue.claim.empty": int(result is None)}

    tracer.wrap(ExperimentQueue, "claim", "queue.claim", claim_counts)
    tracer.wrap(queue, "execute_job", "queue.execute")

    tracer.wrap_async(
        StreamingClient, "push_all", "client.push_all",
        sample="client.push_all.rtt_ms",
    )
    tracer.wrap_async(
        StreamingClient, "drain", "client.drain", sample="client.drain.rtt_ms"
    )
    tracer.wrap(client, "pack_array", "client.pack")
    tracer.wrap(client, "unpack_floats", "client.unpack")
    tracer.wrap(client, "unpack_ints", "client.unpack")


def install_server(tracer: Tracer) -> None:
    """Wrap the server-side wire codec and the batched session pump."""
    from repro.runtime import server
    from repro.runtime.sessions import SessionBatch

    tracer.wrap(
        server, "unpack_floats", "server.unpack",
        counts=lambda a, k, r: {"server.frames": 1},
    )
    tracer.wrap(server, "pack_array", "server.pack")
    tracer.wrap(
        SessionBatch, "push_many", "sessions.push_many",
        counts=lambda a, k, r: {
            "sessions.push_many.calls": 1,
            "sessions.push_many.rows": len(a[1]),
        },
    )
