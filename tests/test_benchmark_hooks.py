"""The benchmark's tracepoints name functions that exist.

perfbench's --trace 1 wraps each (module, attribute) of
perfbench/workloads.TRACEPOINTS for the duration of a run.  Some of them,
such as decoding.decode_step and decoding.blocked_tokens, are reached only
by the benchmark and the tests, so a cleanup that deleted or renamed one
would break the traced run without failing anything else.
"""

import importlib
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def test_every_tracepoint_resolves(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # workloads imports its sibling tracing
    workloads = importlib.import_module("workloads")
    assert workloads.TRACEPOINTS
    missing = [
        f"{module.__name__}.{attr}" for module, attr, *_ in workloads.TRACEPOINTS
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
