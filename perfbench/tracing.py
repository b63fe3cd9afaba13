"""In-memory span tracing for functions wrapped from outside the library.

A span is (name, start, end, parent index, op id); spans stay in memory
until the benchmark writes them out at the end of a run.  A span's self
time is its duration minus the part of that interval its child spans
cover.  This module knows nothing of threadsum: the benchmark decides which
module attributes to wrap.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import json
import re
import time

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

OUTSIDE_OPS = -1  # op id of spans recorded during set-up and end-of-run checks


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace module.attr by make_wrapper(original) for the duration of the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self.op_id = OUTSIDE_OPS
        self._open: list[int] = []

    def _enter(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        return index, parent

    def _exit(self, index, parent, name, start) -> None:
        end = time.perf_counter()
        self._open.pop()
        self.spans[index] = (name, start, end, parent, self.op_id)

    @contextlib.contextmanager
    def span(self, name: str):
        index, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(index, parent, name, start)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one timed operation; spans inside it carry op_id."""
        self.op_id = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self.op_id = OUTSIDE_OPS

    def wrap(self, name: str, fn, on_result=None):
        """fn wrapped in a span; on_result(result) may add counts afterwards."""

        def traced(*args, **kwargs):
            index, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index, parent, name, start)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count(self, name: str, amount=1) -> None:
        self.counts[(name, self.op_id)] += amount

    @contextlib.contextmanager
    def installed(self, tracepoints):
        """Wrap every (module, attr, span name[, on_result]) for the block."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, *hook in tracepoints:
                on_result = hook[0](self) if hook else None
                stack.enter_context(
                    patched(module, attr, lambda fn, n=name, h=on_result: self.wrap(n, fn, h))
                )
            yield

    def write(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start - origin, "end": end - origin,
                     "parent": parent, "op": op},
                    separators=(",", ":"),
                ) + "\n")


def covered_time(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its direct children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered_time(children[i], start, end)
        for i, (_, start, end, _, _) in enumerate(spans)
    ]


def totals(spans, in_ops: bool) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds, over the spans
    recorded inside timed operations (in_ops) or outside them."""
    out: dict[str, dict[str, float]] = collections.defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _, op), self_s in zip(spans, self_times(spans)):
        if (op != OUTSIDE_OPS) == in_ops:
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_s
    return out
