"""In-memory span tracer that times calls into the program from outside.

The benchmark does not instrument the program.  It replaces a public
function or method with a wrapper that records one span per call (name,
start, end, parent span, request id) plus optional counters, and puts the
original back afterwards.  Spans stay in memory and are written out once,
at the end of the run.

A layer's *self time* is its spans' duration minus the part of each span
that its child spans cover, so the self times of every layer plus the
root spans' own self time add up to the root spans' wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    parent: "int | None"
    name: str
    start: float
    end: float
    request: int
    counts: "dict | None" = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counters while :attr:`enabled` is true.

    The current span and request id live in context variables, so nested
    calls find their parent and concurrent asyncio tasks keep separate
    stacks.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: "list[Span]" = []
        self.counters: "dict[str, float]" = defaultdict(float)
        self.samples: "dict[str, list[float]]" = defaultdict(list)
        self.marks: "dict[tuple[str, int], float]" = {}
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=0
        )
        self._patches: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------
    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        if self.enabled:
            self.samples[name].append(value)

    def set_request(self, request: int) -> None:
        """Tag spans opened from here on (in this context) with ``request``."""
        self._request.set(request)

    @property
    def request(self) -> int:
        return self._request.get()

    def mark(self, name: str) -> None:
        """Remember the first time ``name`` happened in the current request."""
        if self.enabled:
            self.marks.setdefault((name, self.request), perf_counter())

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside this block."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._current.reset(token)
            self.spans.append(
                Span(span_id, parent, name, start, end, self._request.get())
            )

    # -- wrapping the program's functions --------------------------------
    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``counts(args, kwargs, result)`` may return ``{counter: value}``
        to add after each call; the call's span keeps them too.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if counts is not None:
                added = counts(args, kwargs, result)
                self.spans[-1].counts = added
                for key, value in added.items():
                    self.counters[key] += value
            return result

        self._install(owner, attr, original, wrapper)

    def wrap_async(self, owner, attr: str, name: str, sample=None) -> None:
        """Like :meth:`wrap` for a coroutine function; ``sample`` names a
        sample list that receives each call's duration in ms."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not self.enabled:
                return await original(*args, **kwargs)
            start = perf_counter()
            with self.span(name):
                result = await original(*args, **kwargs)
            if sample is not None:
                self.samples[sample].append((perf_counter() - start) * 1e3)
            return result

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper) -> None:
        # Class attributes are read from __dict__ so a staticmethod or
        # classmethod wrapper goes back exactly as it was.
        saved = owner.__dict__[attr] if isinstance(owner, type) else original
        self._patches.append((owner, attr, saved))
        setattr(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, saved = self._patches.pop()
            setattr(owner, attr, saved)

    # -- analysis --------------------------------------------------------
    def busy_ms(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name) * 1e3

    def self_times_ms(self) -> "dict[str, float]":
        """Per span name: total duration minus time covered by children."""
        children: "dict[int, list[Span]]" = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: "dict[str, float]" = defaultdict(float)
        for s in self.spans:
            covered = _union_length(
                (max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.span_id, ())
            )
            out[s.name] += (s.duration - covered) * 1e3
        return dict(out)

    def root_wall_ms(self) -> float:
        """Total duration of the root spans (spans with no parent)."""
        return sum(s.duration for s in self.spans if s.parent is None) * 1e3

    def dump(self, path, extra: "dict | None" = None) -> None:
        """Write every span and counter as JSON."""
        payload = {
            "spans": [
                {
                    "id": s.span_id,
                    "parent": s.parent,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "request": s.request,
                    "counts": s.counts,
                }
                for s in self.spans
            ],
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
