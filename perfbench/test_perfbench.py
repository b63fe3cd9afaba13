"""Tests of the benchmark's own arithmetic and naming.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def span(name, start, end, parent=-1, op=0):
    return (name, start, end, parent, op)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            span("root", 0.0, 10.0),
            span("child", 1.0, 6.0, parent=0),
            span("grandchild", 2.0, 4.0, parent=1),
            span("child", 7.0, 8.0, parent=0),
        ]
        assert tracing.self_times(spans) == pytest.approx([4.0, 3.0, 2.0, 1.0])

    def test_covered_time_merges_overlaps_and_clips(self):
        intervals = [(1.0, 3.0), (2.0, 5.0), (9.0, 12.0), (-2.0, -1.0)]
        assert tracing.covered_time(intervals, 0.0, 10.0) == pytest.approx(5.0)

    def test_totals_split_ops_from_setup(self):
        spans = [
            span("op", 0.0, 4.0, op=0),
            span("layers.linear_fwd", 1.0, 2.0, parent=0, op=0),
            span("corpus.preprocess", 5.0, 6.5, op=tracing.OUTSIDE_OPS),
        ]
        in_ops = tracing.totals(spans, in_ops=True)
        outside = tracing.totals(spans, in_ops=False)
        assert in_ops["op"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
        assert in_ops["layers.linear_fwd"]["calls"] == 1
        assert "corpus.preprocess" not in in_ops
        assert outside["corpus.preprocess"]["total_s"] == pytest.approx(1.5)

    def test_wrapped_calls_nest_and_self_times_add_up(self):
        tracer = tracing.Tracer()

        def leaf():
            time.sleep(0.002)

        traced_leaf = tracer.wrap("leaf", leaf)

        def middle():
            traced_leaf()
            traced_leaf()

        traced_middle = tracer.wrap("middle", middle)
        with tracer.op(0):
            traced_middle()
        names = [s[0] for s in tracer.spans]
        assert names == ["op", "middle", "leaf", "leaf"]
        assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
        assert tracer.op_id == tracing.OUTSIDE_OPS
        root = tracer.spans[0]
        assert sum(tracing.self_times(tracer.spans)) == pytest.approx(root[2] - root[1])

    def test_installed_restores_attributes(self):
        import types

        module = types.SimpleNamespace(f=lambda x: x + 1)
        original = module.f
        tracer = tracing.Tracer()
        with tracer.installed([(module, "f", "mod.f")]):
            assert module.f(1) == 2
        assert module.f is original
        assert tracer.spans[0][0] == "mod.f"


class _Work:
    """Stand-in workload: the metric functions only read these fields."""

    quality_window = 1
    checkpoint_bytes = 1024

    def __init__(self):
        self.record = workloads.Record()
        self.record.tokens = 100

    def quality(self):
        return 1.5


def emitted(trace: bool) -> dict:
    work = _Work()
    if not trace:
        return run.end_to_end(work, [(0.01, 0.001, 50), (0.02, 0.001, 50)], [0.1, 0.2, 0.3])
    tracer = tracing.Tracer()
    with tracer.op(0):
        pass
    return run.per_layer(work, tracer, 1, 0.1, workloads.LAYER_FUNCS)


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_names_match_the_spec(trace):
    key = "per_layer" if trace else "end_to_end"
    metrics = emitted(trace)
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {name: unit for name, (_, unit) in metrics.items()} == spec


def test_names_and_units_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert tracing.METRIC_NAME.match(name), name
    for w in SPEC["workloads"]:
        assert w["name"] in workloads.WORKLOADS


def test_pinned_inputs_match_their_hashes():
    workloads.verify_pinned()


def test_tampered_pinned_input_is_refused(tmp_path, monkeypatch):
    copy_dir = tmp_path / "pinned"
    shutil.copytree(workloads.PINNED_DIR, copy_dir)
    with open(copy_dir / "vocab.txt", "a", encoding="utf-8") as fh:
        fh.write("extra\n")
    monkeypatch.setattr(workloads, "PINNED_DIR", str(copy_dir))
    monkeypatch.setattr(workloads, "PINNED_SUMS", str(copy_dir / "SHA256SUMS"))
    with pytest.raises(workloads.PinnedInputError, match="vocab.txt"):
        workloads.verify_pinned()


def test_refuses_to_run_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "no-such-dir"))
    code = run.main(["--workload", "train-directional", "--seed", "0", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
