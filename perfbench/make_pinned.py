#!/usr/bin/env python3
"""Regenerate the pinned inputs of the eval-directional workload.

Trains variant 7 at the directional acceptance config for 2000 steps
(seed 0) on the graded 200-thread corpus that train-directional builds for
seed 0, then writes into perfbench/pinned/: the vocabulary (vocab.txt and
vocab.txt.meta), the checkpoint (model.tsck) and SHA256SUMS, which the
benchmark checks before every eval run.  Deterministic: rerunning it on the
same machine and library version reproduces the files byte for byte.

Run from the repository root:  python3 perfbench/make_pinned.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads as w  # noqa: E402
from threadsum import tokenizer, training  # noqa: E402


def main() -> None:
    os.makedirs(w.PINNED_DIR, exist_ok=True)
    fold = w.directional_train_fold(w.PINNED_SEED)
    vocab = tokenizer.train_vocab(fold, vocab_size=w.DIRECTIONAL_VOCAB_SIZE)
    tokenizer.save_vocab(vocab, w.PINNED_VOCAB)
    vocab_sha = tokenizer.vocab_hash(w.PINNED_VOCAB)
    state = training.train(
        fold, vocab, w.VARIANT, w.directional_config(len(vocab)), w.DIRECTIONAL_OPT,
        training.TrainSchedule(max_steps=w.PINNED_STEPS, eval_every=0), seed=w.PINNED_SEED,
    )
    training.save_checkpoint(state, w.PINNED_MODEL, vocab_sha)
    names = [os.path.basename(p) for p in (w.PINNED_VOCAB, w.PINNED_VOCAB + ".meta", w.PINNED_MODEL)]
    with open(w.PINNED_SUMS, "w", encoding="utf-8") as fh:
        for name in names:
            fh.write(f"{w.sha256_file(os.path.join(w.PINNED_DIR, name))}  {name}\n")
    print(f"wrote {', '.join(names)} and SHA256SUMS to {w.PINNED_DIR}")


if __name__ == "__main__":
    main()
