#!/usr/bin/env python3
"""threadsum benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload train-directional --seed 1 --seconds 30 --trace 0

Run from the repository root (it imports the library from ./src).  With
--trace 0 it times operations untraced and prints every end-to-end metric;
with --trace 1 it runs half the time traced, replays the same operations
untraced, and prints per-layer metrics plus the tracing overhead.  The last
stdout line is the result JSON; the line before it holds the environment
and run details.  Spans and the full result go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from tracing import OUTSIDE_OPS, Tracer, totals

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_REPEATS = 5  # setup_s is the median of these
REF_SHARE = 0.05  # reference-kernel time after each operation, as a share of the operation's time


def blas_info() -> dict:
    """BLAS vendor and the thread count its pool uses by default."""
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def git_commit() -> str | None:
    """HEAD of the repository the benchmark runs in; None outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import threadsum

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "kernel_backend": threadsum.kernel_backend,
        "commit": git_commit(),
    }


def reference_kernel(a) -> None:
    """Fixed interpreter and small-array numpy work, timed after every operation.

    On a shared machine the speed of a core drifts by tens of percent
    within seconds (other tenants, clock changes).  The drift slows this
    kernel and the operation alike, so their ratio holds still where wall
    time does not.
    It calls no BLAS routine, so the library's BLAS threading cannot move it.
    """
    s = 0
    for i in range(1000):
        s += i * i
    for _ in range(40):
        y = np.tanh(a + 1.0) * a + 0.5
        y = (y - y.mean(axis=-1, keepdims=True)) / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)


def run_ops(work, seconds: float | None, n_ops: int | None = None, tracer=None):
    """Closed loop: the next operation starts when the previous one ends.
    Runs for `seconds` (and at least the workload's quality window) or
    exactly n_ops operations.  Returns (op seconds, reference seconds,
    tokens) per operation and the loop's wall time."""
    a = np.random.default_rng(0).standard_normal((53, 48)).astype(np.float32)
    samples = []
    start = time.perf_counter()
    i = 0
    while True:
        if n_ops is None:
            if time.perf_counter() - start >= seconds and i >= work.quality_window:
                break
        elif i >= n_ops:
            break
        tokens = work.record.tokens
        t0 = time.perf_counter()
        if tracer is None:
            work.op(i)
        else:
            with tracer.op(i):
                work.op(i)
        t1 = time.perf_counter()
        # Repeat the kernel for a twentieth of the operation's time (at
        # least once), so that long operations get a steady reference.
        reps = 0
        while True:
            reference_kernel(a)
            reps += 1
            t2 = time.perf_counter()
            if t2 - t1 >= REF_SHARE * (t1 - t0):
                break
        samples.append((t1 - t0, (t2 - t1) / reps, work.record.tokens - tokens))
        i += 1
    return samples, time.perf_counter() - start


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(work, samples, setup_times) -> dict:
    cost = [op / ref for op, ref, _ in samples]
    return {
        "op_cost.p50": (percentile(cost, 50), "ref"),
        "op_cost.p75": (percentile(cost, 75), "ref"),
        "tokens_per_ref": (percentile([n / c for (_, _, n), c in zip(samples, cost)], 50), "1/ref"),
        "quality_nats": (work.quality(), "nats"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def wall_clock(samples, wall) -> dict:
    """Unnormalized timings, for reading next to the metrics."""
    op_ms = [op * 1000.0 for op, _, _ in samples]
    busy_s = sum(op_ms) / 1000.0
    return {
        "op_ms.p50": percentile(op_ms, 50),
        "op_ms.p75": percentile(op_ms, 75),
        "op_ms.p90": percentile(op_ms, 90),
        "ref_ms.p50": percentile([ref * 1000.0 for _, ref, _ in samples], 50),
        "ops_per_s": len(samples) / busy_s,
        "tokens_per_s": sum(n for _, _, n in samples) / busy_s,
        "loop_wall_s": wall,
    }


def per_layer(work, tracer, n_ops, overhead_ms, layer_funcs) -> dict:
    in_ops = totals(tracer.spans, in_ops=True)
    outside = totals(tracer.spans, in_ops=False)

    def per_op(name, key, unit="ms"):
        value = in_ops[name][key] if name in in_ops else 0
        return (value * 1000.0 if unit == "ms" else value) / n_ops, unit

    def per_call_ms(name):
        entry = outside.get(name)
        return (entry["total_s"] * 1000.0 / entry["calls"] if entry else 0.0), "ms"

    generated = sum(v for (name, op), v in tracer.counts.items()
                    if name == "decoding.tokens_generated" and op != OUTSIDE_OPS)
    metrics = {}
    for f in layer_funcs:
        metrics[f"layers.{f}.self_ms"] = per_op(f"layers.{f}", "self_s")
        metrics[f"layers.{f}.calls"] = per_op(f"layers.{f}", "calls", "count")
    metrics.update({
        "model.forward_loss.self_ms": per_op("model.forward_loss", "self_s"),
        "model.forward_loss.calls": per_op("model.forward_loss", "calls", "count"),
        "training.sample_target.ms": per_op("training.sample_target", "total_s"),
        "training.sample_target.calls": per_op("training.sample_target", "calls", "count"),
        "tokenizer.encode.ms": per_op("tokenizer.encode", "total_s"),
        "tokenizer.encode.calls": per_op("tokenizer.encode", "calls", "count"),
        "training.train.self_ms": per_op("training.train", "self_s"),
        "model.decode_step.self_ms": per_op("model.decode_step", "self_s"),
        "model.decode_step.calls": per_op("model.decode_step", "calls", "count"),
        "model.encode_thread.ms": per_op("model.encode_thread", "total_s"),
        "decoding.beam_search.self_ms": per_op("decoding.beam_search", "self_s"),
        "decoding.blocked_tokens.ms": per_op("decoding.blocked_tokens", "total_s"),
        "decoding.blocked_tokens.calls": per_op("decoding.blocked_tokens", "calls", "count"),
        "decoding.tokens_generated": (generated / n_ops, "count"),
        "evaluation.rouge_n.ms": per_op("evaluation.rouge_n", "total_s"),
        "evaluation.rouge_n.calls": per_op("evaluation.rouge_n", "calls", "count"),
        "evaluation.evaluate_thread.ms": per_op("evaluation.evaluate_thread", "total_s"),
        "checkpoint.save_ms": per_call_ms("checkpoint.write_tensors"),
        "checkpoint.load_ms": per_call_ms("checkpoint.read_tensors"),
        "checkpoint.bytes": (float(work.checkpoint_bytes), "bytes"),
        "corpus.preprocess.ms": per_call_ms("corpus.preprocess"),
        "tokenizer.train_vocab.ms": per_call_ms("tokenizer.train_vocab"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "threadsum", "__init__.py")):
        print(f"error: no threadsum sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = Tracer() if args.trace else None

    setup_times = []
    try:
        for rep in range(SETUP_REPEATS):
            work = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
            traced = tracer is not None and rep == SETUP_REPEATS - 1
            t0 = time.perf_counter()
            if traced:
                with tracer.installed(workloads.TRACEPOINTS):
                    work.setup()
            else:
                work.setup()
            setup_times.append(time.perf_counter() - t0)
    except workloads.PinnedInputError as exc:
        print(f"error: refusing to run {args.workload}: {exc}", file=sys.stderr)
        return 3

    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if tracer is None:
        with work.probes():
            samples, wall = run_ops(work, args.seconds)
        details.update(work.finish())
        metrics = end_to_end(work, samples, setup_times)
    else:
        snapshot = work.snapshot()
        # Half the time traced, then the same operations again untraced.
        with work.probes(), tracer.installed(workloads.TRACEPOINTS):
            samples, wall = run_ops(work, args.seconds / 2, tracer=tracer)
            details.update(work.finish())
        traced_record = work.record
        # The untraced replay starts from the same state: the difference in
        # op time is the tracing overhead, and equal outputs show that the
        # wrappers do not change what the library computes.
        work.restore(snapshot)
        work.record = workloads.Record()
        with work.probes():
            replay, _ = run_ops(work, None, n_ops=len(samples))
        if work.record.outputs != traced_record.outputs:
            traced_record.fail("traced and untraced passes produced different outputs")
        work.record = traced_record
        traced_s, untraced_s = (sum(op for op, _, _ in run) for run in (samples, replay))
        overhead_ms = (traced_s - untraced_s) * 1000.0 / len(samples)
        metrics = per_layer(work, tracer, len(samples), overhead_ms, workloads.LAYER_FUNCS)
        details["traced_wall_s"], details["untraced_wall_s"] = traced_s, untraced_s
        spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(spans_path)
        details["spans"] = os.path.relpath(spans_path, ROOT)

    record = work.record
    details.update(ops=len(samples), wall_clock=wall_clock(samples, wall),
                   setup_times_s=setup_times, failures=record.failures)
    result = {
        "correct": record.failed == 0,
        "attempted": len(samples),
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info = {"environment": environment(), "run": details}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**info, "result": result, "samples": samples}, fh)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
