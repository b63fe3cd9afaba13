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


def test_eval_patch_points_are_seen_by_evaluate_fold(monkeypatch):
    """perfbench's eval workload counts encoded tokens and keeps each summary
    by patching decoding.encode and decoding.summarize, so evaluate_fold
    must reach both through the decoding module.  If either lookup moved,
    its tokens_per_ref would read 0 without any error."""
    from threadsum import decoding, evaluation
    from threadsum.corpus import CleanComment, CleanThread
    from threadsum.model import ModelConfig
    from threadsum.tokenizer import train_vocab
    from threadsum.training import get_variant, new_state

    thread = CleanThread("t", "un titulo", [
        CleanComment("uno dos tres cuatro cinco", 3), CleanComment("seis siete ocho nueve diez", 1),
    ])
    vocab = train_vocab([thread], vocab_size=60)
    config = ModelConfig(vocab_size=len(vocab), d_model=8, n_enc_blocks=1, n_dec_blocks=1, n_heads=2, d_ff=16)
    state = new_state(config, get_variant(7), seed=0)
    seen = []

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decoding, "encode", recorded("encode", decoding.encode))
    monkeypatch.setattr(decoding, "summarize", recorded("summarize", decoding.summarize))
    reports, _, skipped = evaluation.evaluate_fold(state, [thread], decoding.DecodeConfig(beam_size=2, max_out_len=6), vocab)
    assert (len(reports), skipped) == (1, 0)
    assert seen == ["summarize", "encode"]
