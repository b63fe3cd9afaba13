"""Target sampling law, schedule, training determinism, checkpoint/resume."""

import copy
import ctypes
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

from threadsum.checkpoint import CheckpointError, read_tensors, write_tensors
from threadsum.corpus import CleanComment, CleanThread
from threadsum import layers, training
from threadsum.model import (
    ModelConfig, NumericsError, attention_weights, dropout_keep, forward_loss, param_layout,
)
from threadsum.tokenizer import BOS, EOS, SEP, save_vocab, train_vocab, vocab_hash
from threadsum.training import (
    CHUNK_TOKENS,
    OptimizerConfig,
    TrainingDiverged,
    TrainingError,
    TrainSchedule,
    VARIANTS,
    get_variant,
    learning_rate,
    load_checkpoint,
    new_state,
    sample_comment_indices,
    sample_target,
    save_checkpoint,
    token_chunks,
    train,
)

WORDS = ["la", "casa", "azul", "cielo", "gato", "perro", "sol", "luna", "mar", "rio"]


def make_corpus(n_threads, n_comments, seed=0, likes_fn=None):
    rng = np.random.default_rng(seed)
    threads = []
    for t in range(n_threads):
        comments = []
        for c in range(n_comments):
            text = " ".join(rng.choice(WORDS, size=6))
            likes = likes_fn(t, c) if likes_fn else int(rng.integers(0, 20))
            comments.append(CleanComment(text, likes))
        title = " ".join(rng.choice(WORDS, size=4))
        threads.append(CleanThread(id=f"t{t}", title=title, comments=comments, fold="train"))
    return threads


@pytest.fixture(scope="module")
def small_setup():
    corpus = make_corpus(4, 3, seed=1)
    vocab = train_vocab(corpus, vocab_size=64)
    config = ModelConfig(
        vocab_size=len(vocab), d_model=16, n_enc_blocks=1, n_dec_blocks=1,
        n_heads=2, d_ff=32, max_len=64, dropout=0.0, label_smoothing=0.0,
    )
    return corpus, vocab, config


class TestVariants:
    def test_table_matches_design(self):
        """Attention encoding, title task and comment count per variant id."""
        expected = {
            1: (False, True, 1), 2: (False, False, 1), 3: (True, True, 1), 4: (True, False, 1),
            5: (False, True, 3), 6: (False, False, 3), 7: (True, True, 3), 8: (True, False, 3),
        }
        for vid, (att, title, k) in expected.items():
            v = VARIANTS[vid]
            assert (v.attention_encoding, v.include_title, v.n_comments) == (att, title, k)

    def test_unknown_variant(self):
        with pytest.raises(TrainingError):
            get_variant(9)


class TestLearningRate:
    def test_warmup_then_inverse_sqrt(self):
        opt = OptimizerConfig(lr_peak=1e-3, warmup_steps=400)
        assert learning_rate(100, opt) == pytest.approx(1e-3 * 0.25)
        assert learning_rate(400, opt) == pytest.approx(1e-3)
        assert learning_rate(1600, opt) == pytest.approx(1e-3 * 0.5)

    def test_step_zero_invalid(self):
        with pytest.raises(TrainingError):
            learning_rate(0, OptimizerConfig())


def inclusion_oracle(weights, take):
    """Enumerate sequential weighted draws without replacement."""
    n = len(weights)
    probs = np.zeros(n)

    def rec(pool, acc, chosen):
        if len(chosen) == take:
            for c in chosen:
                probs[c] += acc
            return
        w = np.array([weights[i] for i in pool], dtype=float)
        if w.sum() > 0:
            p = w / w.sum()
        else:
            p = np.full(len(pool), 1.0 / len(pool))
        for j, i in enumerate(pool):
            if p[j] > 0:
                rec([x for x in pool if x != i], acc * p[j], chosen + [i])

    rec(list(range(n)), 1.0, [])
    return probs


class TestSamplingLaw:
    def test_single_positive_mass_is_deterministic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert sample_comment_indices(np.array([1.0, 0.0, 0.0]), 1, rng) == [0]

    def test_two_comment_frequencies_match_analytic(self):
        """likes [9, 3]: P(first comment) = 1 / (1 + sqrt(1/3)) ~ 0.634."""
        thread = CleanThread(
            id="t", title="x", comments=[CleanComment("a", 9), CleanComment("b", 3)]
        )
        w = attention_weights(thread).weights[1:]
        rng = np.random.default_rng(42)
        hits = sum(sample_comment_indices(w, 1, rng) == [0] for _ in range(10000))
        expected = 1.0 / (1.0 + math.sqrt(3 / 9))
        assert abs(hits / 10000 - expected) < 0.02

    def test_without_replacement_inclusion_probabilities(self):
        """Empirical inclusion of each comment over 10k draws of 2 from 3
        matches the enumerated sequential-draw probabilities within 2%."""
        weights = np.array([1.0, 2 / 3, 1 / 3])
        oracle = inclusion_oracle(weights, 2)
        rng = np.random.default_rng(7)
        counts = np.zeros(3)
        n = 10000
        for _ in range(n):
            for i in sample_comment_indices(weights, 2, rng):
                counts[i] += 1
        np.testing.assert_allclose(counts / n, oracle, atol=0.02)

    def test_zero_weight_fallback_uniform(self):
        rng = np.random.default_rng(3)
        counts = np.zeros(2)
        for _ in range(10000):
            counts[sample_comment_indices(np.zeros(2), 1, rng)[0]] += 1
        np.testing.assert_allclose(counts / 10000, [0.5, 0.5], atol=0.02)

    def test_positives_taken_before_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            chosen = sample_comment_indices(np.array([0.7, 0.0, 0.0]), 2, rng)
            assert 0 in chosen and len(chosen) == 2

    def test_exhaustive_draw_in_thread_order(self):
        rng = np.random.default_rng(5)
        assert sample_comment_indices(np.array([0.2, 0.9, 0.5]), 3, rng) == [0, 1, 2]


def reference_sample_comment_indices(comment_weights, n_comments, rng):
    """sample_comment_indices before it drew from the cumulative weights
    itself, kept verbatim: each pick is Generator.choice's."""
    n = len(comment_weights)
    take = min(n_comments, n)
    pool = list(range(n))
    chosen = []
    for _ in range(take):
        w = np.asarray([comment_weights[i] for i in pool], dtype=np.float64)
        total = w.sum()
        probs = w / total if total > 0 else np.full(len(pool), 1.0 / len(pool))
        probs = probs / probs.sum()
        pick = int(rng.choice(len(pool), p=probs))
        chosen.append(pool.pop(pick))
    return sorted(chosen)


class TestSamplingDraw:
    def test_equals_generator_choice(self):
        """20,000 random weight vectors of 1 to 8 comments, zero weights and
        all-zero vectors among them, 3 draws each: the same picks, and the
        rng left in the same state, as Generator.choice's draws."""
        gen = np.random.default_rng(52)
        ours, theirs = np.random.default_rng(53), np.random.default_rng(53)
        for _ in range(20000):
            n = int(gen.integers(1, 9))
            weights = gen.random(n) * (gen.random(n) < 0.7)
            assert sample_comment_indices(weights, 3, ours) == reference_sample_comment_indices(weights, 3, theirs)
            assert ours.bit_generator.state == theirs.bit_generator.state


def numpy_sample_comment_indices(comment_weights, n_comments, rng):
    """sample_comment_indices before it drew in Python floats, kept
    verbatim: the float64 arrays, cumulative sum and searchsorted of the
    draw rng.choice makes."""
    n = len(comment_weights)
    take = min(n_comments, n)
    pool = list(range(n))
    chosen = []
    for _ in range(take):
        w = np.asarray([comment_weights[i] for i in pool], dtype=np.float64)
        total = w.sum()
        probs = w / total if total > 0 else np.full(len(pool), 1.0 / len(pool))
        probs = probs / probs.sum()
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        pick = int(np.searchsorted(cdf, rng.random(), side="right"))
        chosen.append(pool.pop(pick))
    return sorted(chosen)


class TestSamplingInPythonFloats:
    @pytest.mark.parametrize("kind", ["zero", "equal", "random"])
    def test_equals_the_numpy_draw(self, kind):
        """Pools of 1 to 64 comments, 1 to 3 draws, 20 rng streams each:
        the same picks, and the rng left in the same state."""
        gen = np.random.default_rng(71)
        for n in range(1, 65):
            for n_comments in (1, 2, 3):
                for _ in range(20):
                    if kind == "zero":
                        weights = np.zeros(n)
                    elif kind == "equal":
                        weights = np.full(n, gen.random())
                    else:
                        weights = gen.random(n) * (gen.random(n) < 0.8)
                    seed = int(gen.integers(1 << 32))
                    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                    assert (sample_comment_indices(weights, n_comments, ours)
                            == numpy_sample_comment_indices(weights, n_comments, theirs)), (kind, n, weights)
                    assert ours.bit_generator.state == theirs.bit_generator.state

    def test_float64_sum_is_numpys(self):
        """Sequential below 8 values, 8-lane pairwise above, split in halves
        above 128: np.add.reduce's float64 sum for 1 to 399 values of
        mixed magnitude."""
        gen = np.random.default_rng(72)
        for n in range(1, 400):
            for values in (gen.random(n), gen.standard_normal(n) * 10.0 ** gen.integers(-8, 8, n)):
                assert training._float64_sum(values.tolist()) == float(np.add.reduce(values)), n


class TestSampleTarget:
    def test_target_layout_title_variant(self, small_setup):
        corpus, vocab, config = small_setup
        rng = np.random.default_rng(0)
        thread = corpus[0]
        ex = sample_target(thread, attention_weights(thread), get_variant(5), vocab, rng)
        assert ex.target[0] == BOS and ex.target[-1] == EOS
        assert ex.target.count(SEP) == 3  # title + 3 comments -> 3 separators
        assert len(ex.sampled_comment_indices) == 3
        assert ex.sampled_comment_indices == sorted(ex.sampled_comment_indices)

    def test_target_layout_no_title(self, small_setup):
        corpus, vocab, config = small_setup
        rng = np.random.default_rng(0)
        thread = corpus[0]
        ex = sample_target(thread, attention_weights(thread), get_variant(6), vocab, rng)
        assert ex.target.count(SEP) == 2  # 3 comments only -> 2 separators

    def test_single_comment_no_sep_without_title(self, small_setup):
        corpus, vocab, config = small_setup
        rng = np.random.default_rng(0)
        thread = corpus[0]
        ex = sample_target(thread, attention_weights(thread), get_variant(2), vocab, rng)
        assert ex.target.count(SEP) == 0

    def test_fresh_sampling_produces_distinct_targets(self, small_setup):
        corpus, vocab, config = small_setup
        rng = np.random.default_rng(1)
        thread = corpus[0]
        weights = attention_weights(thread)
        assert (np.asarray(weights.weights[1:]) > 0).sum() >= 2
        targets = {
            tuple(sample_target(thread, weights, get_variant(1), vocab, rng).target)
            for _ in range(100)
        }
        assert len(targets) >= 2

    def test_target_capped_at_max_len(self, small_setup):
        corpus, vocab, config = small_setup
        rng = np.random.default_rng(2)
        thread = corpus[0]
        ex = sample_target(thread, attention_weights(thread), get_variant(5), vocab, rng, max_len=12)
        assert len(ex.target) <= 12
        assert ex.target[-1] == EOS


class TestTrainLoop:
    def test_same_seed_identical_params(self, small_setup):
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=2, warmup_steps=4)
        sched = TrainSchedule(max_steps=5, eval_every=0)
        a = train(corpus, vocab, get_variant(7), config, opt, sched, seed=9)
        b = train(corpus, vocab, get_variant(7), config, opt, sched, seed=9)
        for name in a.params.tensors:
            np.testing.assert_array_equal(a.params.tensors[name], b.params.tensors[name])
        assert a.last_train_loss == b.last_train_loss

    def test_zero_steps_returns_initial_state(self, small_setup, tmp_path):
        corpus, vocab, config = small_setup
        state = train(
            corpus, vocab, get_variant(1), config, OptimizerConfig(),
            TrainSchedule(max_steps=0), seed=1, out_dir=str(tmp_path / "run"),
        )
        assert state.step == 0
        assert not (tmp_path / "run").exists()

    def test_loss_decreases(self, small_setup):
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=2, warmup_steps=10, lr_peak=2e-3)
        one = train(corpus[:2], vocab, get_variant(1), config, opt, TrainSchedule(1, 0), seed=3)
        many = train(corpus[:2], vocab, get_variant(1), config, opt, TrainSchedule(80, 0), seed=3)
        assert many.last_train_loss < one.last_train_loss * 0.6

    def test_empty_corpus_rejected(self, small_setup):
        _, vocab, config = small_setup
        with pytest.raises(TrainingError):
            train([], vocab, get_variant(1), config, OptimizerConfig(), TrainSchedule(1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_checkpoint_path(self, small_setup, tmp_path):
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=1, warmup_steps=1, lr_peak=1e30, clip_norm=0.0)
        with pytest.raises(TrainingDiverged) as err:
            train(
                corpus, vocab, get_variant(1), config, opt,
                TrainSchedule(max_steps=50, eval_every=1),
                seed=0, out_dir=str(tmp_path),
            )
        assert err.value.checkpoint_path is not None
        assert "step" in err.value.checkpoint_path


class TestCheckpointRoundTrip:
    def test_save_load_identity(self, small_setup, tmp_path):
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=2)
        state = train(corpus, vocab, get_variant(3), config, opt, TrainSchedule(3, 0), seed=5)
        path = tmp_path / "ck.tsck"
        save_checkpoint(state, path, vocab_sha="abc123")
        loaded = load_checkpoint(path)
        assert loaded.step == state.step
        assert loaded.variant == state.variant
        assert loaded.rng.bit_generator.state == state.rng.bit_generator.state
        for name in state.params.tensors:
            np.testing.assert_array_equal(loaded.params.tensors[name], state.params.tensors[name])
            np.testing.assert_array_equal(loaded.adam_m[name], state.adam_m[name])
            np.testing.assert_array_equal(loaded.adam_v[name], state.adam_v[name])

    def test_vocab_hash_mismatch(self, small_setup, tmp_path):
        corpus, vocab, config = small_setup
        state = new_state(config, get_variant(1), seed=0)
        path = tmp_path / "ck.tsck"
        save_checkpoint(state, path, vocab_sha="aaaa")
        with pytest.raises(CheckpointError, match="vocab hash mismatch"):
            load_checkpoint(path, expected_vocab_sha="bbbb")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.tsck"
        path.write_bytes(b"definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, small_setup, tmp_path):
        corpus, vocab, config = small_setup
        state = new_state(config, get_variant(1), seed=0)
        path = tmp_path / "ck.tsck"
        save_checkpoint(state, path, vocab_sha="x")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        """A file that declares two tensors of one name is corrupt; the
        later one does not silently replace the earlier."""
        path = tmp_path / "ck.tsck"
        write_tensors(path, {"step": 1}, {"w": np.zeros(2, np.float32), "x": np.ones(2, np.float32)})
        data = path.read_bytes()
        assert data.count(b"\x01\x00x") == 1  # the second tensor's name, after its length
        path.write_bytes(data.replace(b"\x01\x00x", b"\x01\x00w"))
        with pytest.raises(CheckpointError, match="'w' appears twice"):
            read_tensors(path)

    def test_header_and_config_key_sweep(self, small_setup, tmp_path):
        """Each header key removed, and each config key removed or one added:
        a key load_checkpoint needs raises CheckpointError naming it; the
        optional counters load with their defaults.  A header that is not a
        JSON object is refused as such."""
        corpus, vocab, config = small_setup
        path = tmp_path / "ck.tsck"
        save_checkpoint(new_state(config, get_variant(1), seed=0), path, vocab_sha="x")
        header, tensors = read_tensors(path)
        optional = {"best_val_xent", "best_checkpoint", "last_train_loss"}
        assert set(header) == optional | {"kind", "config", "step", "variant", "rng_state", "vocab_sha256"}

        def load(edited):
            write_tensors(path, edited, tensors)
            return load_checkpoint(path)

        for key in header:
            edited = {k: v for k, v in header.items() if k != key}
            if key in optional:
                assert load(edited).step == 0
            else:
                message = "not a threadsum checkpoint" if key == "kind" else f"header has no '{key}'"
                with pytest.raises(CheckpointError, match=message):
                    load(edited)
        for key in header["config"]:  # d_ff would load as ModelConfig's default, 512
            edited = {**header, "config": {k: v for k, v in header["config"].items() if k != key}}
            with pytest.raises(CheckpointError, match=f"config has no '{key}'"):
                load(edited)
        with pytest.raises(CheckpointError, match="config has unknown key 'd_hidden'"):
            load({**header, "config": {**header["config"], "d_hidden": 64}})
        with pytest.raises(CheckpointError, match="config is a list"):
            load({**header, "config": list(header["config"])})
        for edited, kind in (([], "list"), ("x", "str"), (3, "int"), (None, "NoneType")):
            with pytest.raises(CheckpointError, match=f"header is a {kind}, not an object"):
                load(edited)
        assert load(header).params.config == config

    def test_header_value_type_sweep(self, small_setup, tmp_path):
        """Each header value, and each config value, of a wrong type or out
        of range raises CheckpointError naming its key, never another class."""
        corpus, vocab, config = small_setup
        path = tmp_path / "ck.tsck"
        state = new_state(config, get_variant(1), seed=0)
        state.best_val_xent, state.best_checkpoint, state.last_train_loss = 2.5, "step00000003.tsck", 3.25
        save_checkpoint(state, path, vocab_sha="x")
        header, tensors = read_tensors(path)
        rng_state = header["rng_state"]
        pcg = rng_state["state"]
        wrong = {
            "step": ["5", 5.9, True, -3, None, [5]],
            "variant": ["7", 7.5, True, 0, 9, None],
            "vocab_sha256": [5, None, ["x"], {}],
            "rng_state": [
                5, "x", None, [], {}, {**rng_state, "bit_generator": "MT19937"},
                {**rng_state, "state": "x"}, {**rng_state, "state": {**pcg, "state": "x"}},
                {k: v for k, v in rng_state.items() if k != "state"}, {**rng_state, "has_uint32": "x"},
                {**rng_state, "state": {**pcg, "state": -1}}, {**rng_state, "state": {**pcg, "inc": 2**200}},
                {**rng_state, "state": {**pcg, "state": 1.5}}, {**rng_state, "extra": 1},
            ],
            "best_val_xent": ["x", [1], True, {}, math.nan, math.inf, -math.inf],
            "best_checkpoint": [5, None, ["x"], True],
            "last_train_loss": ["x", [1], False, {}, math.nan, math.inf, -math.inf],
        }
        wrong_config = {
            "d_model": ["16", 16.0, True, None, 0],
            "vocab_size": [[64], 64.5, 1],
            "dropout": ["0.1", None, True, 1.5],
            "label_smoothing": [[0.0], -0.1],
        }

        def load(edited):
            write_tensors(path, edited, tensors)
            return load_checkpoint(path)

        for key, values in wrong.items():
            for value in values:
                with pytest.raises(CheckpointError, match=f"'{key}'"):
                    load({**header, key: value})
        for key, values in wrong_config.items():
            for value in values:
                with pytest.raises(CheckpointError, match=key):
                    load({**header, "config": {**header["config"], key: value}})
        back = load({**header, "best_val_xent": 2, "config": {**header["config"], "dropout": 0}})
        assert (back.step, back.variant.id, back.best_val_xent, back.best_checkpoint, back.last_train_loss) == (
            0, 1, 2.0, "step00000003.tsck", 3.25,
        )
        assert back.params.config == config
        assert back.rng.bit_generator.state == rng_state

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "ck.tsck"
        tensors = {"w": np.arange(6, dtype=np.float32).reshape(2, 3)}
        write_tensors(path, {"step": 1}, tensors)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="unsupported tensor dtype"):
            write_tensors(path, {"step": 2}, {**tensors, "ids": np.arange(3, dtype=np.int32)})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ck.tsck"]


class TestCheckpointTensorSweep:
    """Every tensor of a tiny checkpoint, parameter or Adam moment, removed,
    reshaped, cut short, cast to the other float dtype or given a NaN, and
    one unknown tensor added: each file raises CheckpointError naming that
    tensor, and never another class."""

    CONFIG = ModelConfig(
        vocab_size=12, d_model=4, n_enc_blocks=1, n_dec_blocks=1, n_heads=2, d_ff=6, max_len=8,
    )

    def edits(self, tensor):
        nan = tensor.copy()
        nan.flat[-1] = np.nan
        return {
            "removed": None,
            "reshaped": tensor[None],
            "short": tensor[:-1],
            "cast": tensor.astype(np.float64),
            "nan": nan,
        }

    def test_each_tensor_edited(self, tmp_path):
        path = tmp_path / "ck.tsck"
        save_checkpoint(new_state(self.CONFIG, get_variant(1), seed=0), path, vocab_sha="x")
        header, tensors = read_tensors(path)
        assert len(tensors) == 3 * len(param_layout(self.CONFIG))

        def load(edited):
            write_tensors(path, header, edited)
            return load_checkpoint(path)

        assert list(load(tensors).params.tensors) == list(param_layout(self.CONFIG))
        messages = {
            "removed": "has no tensor '{}'", "reshaped": "'{}' has shape", "short": "'{}' has shape",
            "cast": "'{}' is float64", "nan": "'{}' holds a non-finite value",
        }
        for name, tensor in tensors.items():
            for case, changed in self.edits(tensor).items():
                edited = {**tensors, name: changed} if changed is not None else {
                    k: v for k, v in tensors.items() if k != name
                }
                # tok_emb sets the dtype, so with it cast the first tensor left in float32 is named
                named = "adam.m.tok_emb' is float32" if (name, case) == ("tok_emb", "cast") else messages[case].format(name)
                with pytest.raises(CheckpointError) as err:
                    load(edited)
                assert named in str(err.value), (name, case, str(err.value))
        with pytest.raises(CheckpointError, match="'dec0.self.Wz' is not in the model's layout"):
            load({**tensors, "dec0.self.Wz": tensors["dec0.self.Wq"]})
        with pytest.raises(CheckpointError, match="'tok_emb' is int64"):
            load({**tensors, "tok_emb": tensors["tok_emb"].astype(np.int64)})

    def test_a_size_past_64_bits_reads_as_truncated(self, tmp_path):
        """A tensor header of shape (2**31, 2**31, 4) declares 2**64
        elements, which a product in int64 wraps to 0 (and the file then
        failed to reshape an empty array); the loader reports the tensor
        truncated."""
        path = tmp_path / "ck.tsck"
        save_checkpoint(new_state(self.CONFIG, get_variant(1), seed=0), path, vocab_sha="x")
        header, tensors = read_tensors(path)
        write_tensors(path, header, {**tensors, "tok_emb": np.zeros((2, 2, 4), np.float32)})
        data = path.read_bytes()
        entry = b"tok_emb" + struct.pack("<BB3I", 0, 3, 2, 2, 4)
        assert data.count(entry) == 1
        path.write_bytes(data.replace(entry, b"tok_emb" + struct.pack("<BB3I", 0, 3, 2**31, 2**31, 4)))
        with pytest.raises(CheckpointError, match="tensor 'tok_emb' truncated"):
            load_checkpoint(path)


class TestResume:
    def test_resume_matches_uninterrupted_run(self, small_setup, tmp_path):
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=2, warmup_steps=4)
        vpath = tmp_path / "vocab.txt"
        save_vocab(vocab, vpath)
        sha = vocab_hash(vpath)

        straight_dir = tmp_path / "straight"
        straight = train(
            corpus, vocab, get_variant(7), config, opt,
            TrainSchedule(max_steps=6, eval_every=3), seed=11,
            out_dir=str(straight_dir), vocab_sha=sha,
        )

        resumed_dir = tmp_path / "resumed"
        train(
            corpus, vocab, get_variant(7), config, opt,
            TrainSchedule(max_steps=3, eval_every=3), seed=11,
            out_dir=str(resumed_dir), vocab_sha=sha,
        )
        mid = load_checkpoint(resumed_dir / "step00000003.tsck", expected_vocab_sha=sha)
        final = train(
            corpus, vocab, mid.variant, config, opt,
            TrainSchedule(max_steps=6, eval_every=3), seed=999,  # seed ignored on resume
            out_dir=str(resumed_dir), vocab_sha=sha, initial_state=mid,
        )
        for name in straight.params.tensors:
            np.testing.assert_array_equal(
                straight.params.tensors[name], final.params.tensors[name]
            )
        a = (straight_dir / "step00000006.tsck").read_bytes()
        b = (resumed_dir / "step00000006.tsck").read_bytes()
        assert a == b


class TestOptimizerConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [("batch_size", 0), ("lr_peak", 0.0), ("warmup_steps", -1), ("clip_norm", -0.5)],
    )
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(TrainingError, match=field):
            OptimizerConfig(**{field: value})


class TestTrainScheduleValidation:
    @pytest.mark.parametrize("field", ["max_steps", "eval_every"])
    def test_negative_field_rejected(self, field):
        with pytest.raises(TrainingError, match=field):
            TrainSchedule(**{"max_steps": 5, field: -1})

    def test_zero_keeps_its_meaning(self, small_setup, tmp_path):
        """max_steps 0 trains nothing; eval_every 0 writes no checkpoint."""
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=1)
        assert train(corpus, vocab, get_variant(1), config, opt, TrainSchedule(0, 0), out_dir=str(tmp_path)).step == 0
        assert train(corpus, vocab, get_variant(1), config, opt, TrainSchedule(1, 0), out_dir=str(tmp_path)).step == 1
        assert list(tmp_path.iterdir()) == []


class TestGradientCheckedOncePerStep:
    """A finite loss with a non-finite gradient stops training before the
    update: parameters and Adam moments keep their values."""

    @pytest.mark.parametrize("clip_norm", [0.0, 1.0])
    def test_nan_gradient_diverges_before_the_update(self, small_setup, monkeypatch, clip_norm):
        corpus, vocab, config = small_setup
        opt = OptimizerConfig(batch_size=2, warmup_steps=4, clip_norm=clip_norm)
        state = train(corpus, vocab, get_variant(3), config, opt, TrainSchedule(2, 0), seed=4)
        before = {
            kind: {k: v.copy() for k, v in tensors.items()}
            for kind, tensors in
            (("params", state.params.tensors), ("m", state.adam_m), ("v", state.adam_v))
        }
        real = training.forward_loss

        def nan_gradient(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads["dec0.ffn.W1"][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "forward_loss", nan_gradient)
        with pytest.raises(TrainingDiverged, match="dec0.ffn.W1"):
            train(corpus, vocab, get_variant(3), config, opt, TrainSchedule(3, 0), initial_state=state)
        after = {"params": state.params.tensors, "m": state.adam_m, "v": state.adam_v}
        for kind, tensors in before.items():
            for name, tensor in tensors.items():
                np.testing.assert_array_equal(after[kind][name], tensor, err_msg=f"{kind} {name}")


def directional_setup():
    """The graded corpus, vocabulary and model config of the directional
    acceptance config with dropout 0.1."""
    from threadsum.corpus import RawComment, RawThread, preprocess
    from threadsum.synth import make_corpus as synth_corpus

    raw = [
        RawThread(d["id"], d["title"], [RawComment(c["text"], c["likes"]) for c in d["comments"]])
        for d in synth_corpus(40, seed=38, style="graded")
    ]
    corpus = preprocess(raw)
    vocab = train_vocab(corpus, vocab_size=420)
    config = ModelConfig(
        vocab_size=len(vocab), d_model=48, n_enc_blocks=1, n_dec_blocks=1,
        n_heads=4, d_ff=96, max_len=128, dropout=0.1, label_smoothing=0.1,
    )
    return corpus, vocab, config


def reference_step(state, corpus, vocab, variant, config, opt):
    """The training step before examples were packed into chunks, kept
    verbatim: one forward_loss per example, each drawing its dropout from
    state.rng inside the call."""
    state.step += 1
    idxs = state.rng.integers(0, len(corpus), size=opt.batch_size)
    batch_loss = 0.0
    grad_sum = None
    for i in idxs:
        thread = corpus[int(i)]
        example = sample_target(
            thread, attention_weights(thread), variant, vocab, state.rng, config.max_len
        )
        loss, grads = forward_loss(
            state.params,
            example.input_seq,
            example.weights,
            example.target,
            disable_attention=not variant.attention_encoding,
            rng=state.rng if config.dropout > 0 else None,
        )
        batch_loss += loss
        if grad_sum is None:
            grad_sum = grads
        else:
            for name in grad_sum:
                grad_sum[name] += grads[name]
    scale = 1.0 / opt.batch_size
    for name in grad_sum:
        grad_sum[name] *= scale
    training._adam_update(state, grad_sum, opt)
    state.last_train_loss = batch_loss / opt.batch_size


class TestChunkedStep:
    """A step packs its examples into token-budgeted chunks, one forward_loss
    call each, and keeps the per-example step's rng stream and results."""

    def test_token_chunks_keep_order_and_isolate_long_items(self):
        sizes = [
            CHUNK_TOKENS // 5, 3 * CHUNK_TOKENS // 5, 2 * CHUNK_TOKENS // 5,
            CHUNK_TOKENS + 50, 10, CHUNK_TOKENS - 10, 12, CHUNK_TOKENS,
        ]
        chunks = list(token_chunks(range(len(sizes)), sizes.__getitem__))
        assert chunks == [[0, 1], [2], [3], [4, 5], [6], [7]]
        assert [i for chunk in chunks for i in chunk] == list(range(len(sizes)))
        for chunk in chunks:
            assert len(chunk) == 1 or sum(sizes[i] for i in chunk) <= CHUNK_TOKENS
        assert list(token_chunks([], len)) == []

    def test_matches_the_per_example_step(self, monkeypatch):
        """Five float32 steps at the directional config with dropout 0.1 and
        a 512-token budget, which splits every step into chunks: after every
        step the rng state is bit-equal, the batch losses agree to 1e-6 and
        the parameters to float32 reassociation."""
        monkeypatch.setattr(training, "CHUNK_TOKENS", 512)
        chunk_sizes = self.compare_with_the_per_example_step(monkeypatch)
        assert max(chunk_sizes) > 1 and len(chunk_sizes) > 5  # packed, and more than one chunk a step

    def test_matches_the_per_example_step_at_the_shipped_budget(self, monkeypatch):
        """The same comparison at CHUNK_TOKENS, where a directional step is one chunk."""
        chunk_sizes = self.compare_with_the_per_example_step(monkeypatch)
        assert chunk_sizes == [8] * 5

    @staticmethod
    def compare_with_the_per_example_step(monkeypatch):
        """Runs the comparison; returns the number of examples of every
        forward_loss call train made."""
        corpus, vocab, config = directional_setup()
        opt = OptimizerConfig(lr_peak=1e-3, warmup_steps=200, batch_size=8)
        variant = get_variant(7)
        chunked = new_state(config, variant, seed=39)
        reference = new_state(config, variant, seed=39)

        chunk_sizes = []

        def recording(params, seq, *args, **kwargs):
            chunk_sizes.append(len(seq))
            return forward_loss(params, seq, *args, **kwargs)

        monkeypatch.setattr(training, "forward_loss", recording)
        for step in range(1, 6):
            train(corpus, vocab, variant, config, opt, TrainSchedule(step, 0), initial_state=chunked)
            reference_step(reference, corpus, vocab, variant, config, opt)
            assert chunked.rng.bit_generator.state == reference.rng.bit_generator.state
            assert abs(chunked.last_train_loss - reference.last_train_loss) <= 1e-6 * reference.last_train_loss
            for name, tensor in reference.params.tensors.items():
                assert chunked.params.tensors[name].dtype == np.float32
                # rtol covers reassociated sums; atol the key biases, whose
                # exact gradient is 0, so Adam turns their rounding into updates
                np.testing.assert_allclose(
                    chunked.params.tensors[name], tensor, rtol=1e-5, atol=1e-6, err_msg=name
                )
        assert sum(chunk_sizes) == 5 * opt.batch_size
        return chunk_sizes


def reference_adam_update(state, grads, opt):
    """training._adam_update before it worked in place, kept verbatim: the
    clip scales a copy of every gradient and the update is cast to the
    tensor's dtype.  Returns the gradient norm."""
    sq = 0.0
    for g in grads.values():
        sq += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(sq)
    if not math.isfinite(norm):
        bad = next((k for k, g in grads.items() if not np.all(np.isfinite(g))), None)
        raise NumericsError(f"non-finite gradient in tensor '{bad}'" if bad else "gradient norm overflows")
    if 0 < opt.clip_norm < norm:
        scale = opt.clip_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    t = state.step
    lr = learning_rate(t, opt)
    bias1 = 1.0 - training.ADAM_BETA1**t
    bias2 = 1.0 - training.ADAM_BETA2**t
    for name, tensor in state.params.tensors.items():
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= training.ADAM_BETA1
        m += (1.0 - training.ADAM_BETA1) * g
        v *= training.ADAM_BETA2
        v += (1.0 - training.ADAM_BETA2) * g * g
        update = (m / bias1) / (np.sqrt(v / bias2) + training.ADAM_EPS)
        tensor -= (lr * update).astype(tensor.dtype)
    return norm


def reference_summed_step(state, corpus, vocab, variant, config, opt):
    """train's step before it owned one gradient buffer, kept verbatim: each
    chunk's forward_loss returns a gradient dict of its own, the step sums
    them, and reference_adam_update takes the sum.  Returns the number of
    chunks and the gradient norm."""
    state.step += 1
    idxs = state.rng.integers(0, len(corpus), size=opt.batch_size)

    def sampled():
        """Each example with its dropout keep masks, drawn right after it."""
        for i in idxs:
            thread = corpus[int(i)]
            example = sample_target(
                thread, attention_weights(thread), variant, vocab, state.rng, config.max_len
            )
            n_input, n_target = len(example.input_seq.ids), len(example.target)
            yield example, dropout_keep(config, state.rng, n_input, n_target) if config.dropout > 0 else None

    batch_loss = 0.0
    grad_sum = None
    n_chunks = 0
    for chunk in token_chunks(sampled(), lambda pair: len(pair[0].input_seq.ids) + len(pair[0].target)):
        n_chunks += 1
        examples = [example for example, _ in chunk]
        loss, grads = forward_loss(
            state.params,
            [example.input_seq for example in examples],
            [example.weights for example in examples],
            [example.target for example in examples],
            disable_attention=not variant.attention_encoding,
            rng=[keep for _, keep in chunk] if config.dropout > 0 else None,
        )
        batch_loss += loss
        if grad_sum is None:
            grad_sum = grads
        else:
            for name in grad_sum:
                grad_sum[name] += grads[name]
    scale = 1.0 / opt.batch_size
    for name in grad_sum:
        grad_sum[name] *= scale
    norm = reference_adam_update(state, grad_sum, opt)
    state.last_train_loss = batch_loss / opt.batch_size
    return n_chunks, norm


class TestOneGradientBuffer:
    """Every chunk of a step adds into the step's one gradient dict, which
    clipping scales in place and Adam uses as scratch: the step equals the
    one that summed per-chunk dicts, clipped by copy and cast Adam's
    update, bit for bit."""

    @pytest.mark.parametrize("clip_norm", [1.0, 1e-3])
    def test_equals_the_summed_dicts_step(self, monkeypatch, clip_norm):
        """Five float32 steps at the directional config with dropout 0.1 and
        a 512-token budget, so every step has more than one chunk; 1e-3
        clips every step."""
        monkeypatch.setattr(training, "CHUNK_TOKENS", 512)
        corpus, vocab, config = directional_setup()
        opt = OptimizerConfig(lr_peak=1e-3, warmup_steps=200, batch_size=8, clip_norm=clip_norm)
        variant = get_variant(7)
        buffered = new_state(config, variant, seed=40)
        reference = new_state(config, variant, seed=40)
        for step in range(1, 6):
            train(corpus, vocab, variant, config, opt, TrainSchedule(step, 0), initial_state=buffered)
            n_chunks, norm = reference_summed_step(reference, corpus, vocab, variant, config, opt)
            assert n_chunks > 1
            if clip_norm < 1.0:
                assert norm > clip_norm
            assert buffered.rng.bit_generator.state == reference.rng.bit_generator.state
            assert buffered.last_train_loss == reference.last_train_loss
            for kind, got, want in (
                ("params", buffered.params.tensors, reference.params.tensors),
                ("adam_m", buffered.adam_m, reference.adam_m),
                ("adam_v", buffered.adam_v, reference.adam_v),
            ):
                assert list(got) == list(want)
                for name, tensor in want.items():
                    assert got[name].dtype == tensor.dtype == np.float32
                    assert got[name].tobytes() == tensor.tobytes(), f"step {step} {kind} {name}"


def assert_same_state(got, want, what):
    assert got.rng.bit_generator.state == want.rng.bit_generator.state, what
    assert got.last_train_loss == want.last_train_loss, what
    for kind, a, b in (
        ("params", got.params.tensors, want.params.tensors), ("adam_m", got.adam_m, want.adam_m),
        ("adam_v", got.adam_v, want.adam_v),
    ):
        assert list(a) == list(b)
        for name, tensor in b.items():
            assert a[name].tobytes() == tensor.tobytes(), f"{what} {kind} {name}"


class TestFlatAdam:
    """A state's parameters and Adam moments are the rows of its buffers:
    params.tensors, adam_m and adam_v hold views of them whose entries
    cannot be re-bound, and a deep copy owns buffers of its own."""

    @pytest.fixture(scope="class")
    def setup(self):
        corpus, vocab, config = directional_setup()
        opt = OptimizerConfig(lr_peak=1e-3, warmup_steps=200, batch_size=8, clip_norm=0.5)
        return corpus, vocab, config, opt, get_variant(7)

    @staticmethod
    def trained(setup, n_steps):
        corpus, vocab, config, opt, variant = setup
        state = new_state(config, variant, seed=41)
        train(corpus, vocab, variant, config, opt, TrainSchedule(n_steps, 0), initial_state=state)
        return state

    @staticmethod
    def views_of_the_buffers(state):
        for group in (state.params.tensors, state.adam_m, state.adam_v):
            assert all(tensor.base is state.buffers for tensor in group.values())

    @pytest.mark.parametrize("made_by", ["deepcopy", "load_checkpoint"])
    def test_a_state_without_the_views_steps_as_the_reference(self, setup, tmp_path, made_by):
        """Three steps from a copied and a loaded state equal
        reference_summed_step's, bit for bit, and the state's tensors stay
        views of its buffers."""
        corpus, vocab, config, opt, variant = setup
        start = self.trained(setup, 2)
        reference = copy.deepcopy(start)
        if made_by == "deepcopy":
            state = copy.deepcopy(start)
        else:
            save_checkpoint(start, tmp_path / "mid.tsck", "")
            state = load_checkpoint(tmp_path / "mid.tsck")
        self.views_of_the_buffers(state)
        for step in range(3, 6):
            train(corpus, vocab, variant, config, opt, TrainSchedule(step, 0), initial_state=state)
            reference_summed_step(reference, corpus, vocab, variant, config, opt)
            assert_same_state(state, reference, f"{made_by} step {step}")
            self.views_of_the_buffers(state)

    def test_entries_are_fixed_and_a_copy_shares_no_memory(self, setup):
        """Re-binding an entry raises TypeError; stepping a deep copy leaves
        the original's bytes and rng state as they were."""
        corpus, vocab, config, opt, variant = setup
        state = self.trained(setup, 2)
        for group in (state.params.tensors, state.adam_m, state.adam_v):
            with pytest.raises(TypeError):
                group["lm_b"] = group["lm_b"] + 0
        copied = copy.deepcopy(state)
        assert not np.shares_memory(copied.buffers, state.buffers)
        assert not np.shares_memory(copied.adam_v["dec0.ffn.W1"], state.adam_v["dec0.ffn.W1"])
        self.views_of_the_buffers(copied)
        before, rng_state = state.buffers.tobytes(), state.rng.bit_generator.state
        train(corpus, vocab, variant, config, opt, TrainSchedule(3, 0), initial_state=copied)
        assert copied.step == 3 and copied.buffers.tobytes() != before
        assert state.buffers.tobytes() == before
        assert (state.step, state.rng.bit_generator.state) == (2, rng_state)

    def test_checkpoint_equals_the_reference_paths(self, setup, tmp_path):
        corpus, vocab, config, opt, variant = setup
        flat = self.trained(setup, 4)
        reference = new_state(config, variant, seed=41)
        for _ in range(4):
            reference_summed_step(reference, corpus, vocab, variant, config, opt)
        save_checkpoint(flat, tmp_path / "flat.tsck", "")
        save_checkpoint(reference, tmp_path / "reference.tsck", "")
        assert (tmp_path / "flat.tsck").read_bytes() == (tmp_path / "reference.tsck").read_bytes()

    def test_nan_gradient_changes_nothing_on_a_copied_state(self, setup, monkeypatch):
        """The norm is checked before any row changes: the state keeps its
        tensors, and their values."""
        corpus, vocab, config, opt, variant = setup
        state = copy.deepcopy(self.trained(setup, 2))
        before = [dict(group) for group in (state.params.tensors, state.adam_m, state.adam_v)]
        values = [{k: v.copy() for k, v in group.items()} for group in before]
        real = training.forward_loss

        def nan_gradient(*args, **kwargs):
            loss, grads = real(*args, **kwargs)
            grads["enc0.ffn.b2"][3] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "forward_loss", nan_gradient)
        with pytest.raises(TrainingDiverged, match="enc0.ffn.b2"):
            train(corpus, vocab, variant, config, opt, TrainSchedule(3, 0), initial_state=state)
        for group, held, value in zip((state.params.tensors, state.adam_m, state.adam_v), before, values):
            for name, tensor in held.items():
                assert group[name] is tensor
                np.testing.assert_array_equal(tensor, value[name])


# The layers before they cached only what their backward reads, kept
# verbatim: GELU cached its input and tanh, dropout a float mask, attend
# allocated the probabilities apart from its scores, and attention_fwd
# merged its heads' context after writing it.


def full_cache_gelu_fwd(x):
    # 0.5 x (1 + tanh(c (x + a x^3))), x^3 as x*x*x (x**3 is numpy's slow pow path)
    u = x * x
    u *= x
    u *= layers._GELU_A
    u += x
    u *= layers._GELU_C
    t = np.tanh(u)
    out = t + 1.0
    out *= np.multiply(x, 0.5, out=u)
    return out, (x, t)


def full_cache_gelu_bwd(dout, cache):
    # dout (0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2))
    x, t = cache
    g = t * t
    np.subtract(1.0, g, out=g)
    h = np.multiply(x, 0.5)
    g *= h
    np.multiply(x, x, out=h)
    h *= 3.0 * layers._GELU_A
    h += 1.0
    h *= layers._GELU_C
    g *= h
    np.add(t, 1.0, out=h)
    h *= 0.5
    g += h
    g *= dout
    return g


def full_cache_dropout_fwd(x, p: float, keeps):
    if p <= 0.0 or keeps is None:
        return x, None
    mask = next(keeps).astype(x.dtype) * x.dtype.type(1.0 / (1.0 - p))
    return x * mask, mask


def full_cache_dropout_bwd(dout, mask):
    return dout if mask is None else dout * mask


def allocating_attend(q, k, v, mask=None):
    s = q @ np.swapaxes(k, -1, -2)
    s *= 1.0 / math.sqrt(q.shape[-1])
    if mask is not None:
        s += mask
    probs = layers.softmax(s, axis=-1)
    return probs, probs @ v


def full_cache_attention_fwd(q_in, kv_in, p: dict, n_heads: int, mask=None):
    Q, c_q = layers.linear_fwd(q_in, p["Wq"], p["bq"])
    K, c_k = layers.linear_fwd(kv_in, p["Wk"], p["bk"])
    V, c_v = layers.linear_fwd(kv_in, p["Wv"], p["bv"])
    Qh, Kh, Vh = (layers._split_heads(m, n_heads) for m in (Q, K, V))
    blocks = mask if isinstance(mask, list) else [(slice(None), slice(None), mask)]
    Ch = np.empty_like(Qh)
    probs = []
    for q_rows, kv_rows, block in blocks:
        P, Ch[:, q_rows] = allocating_attend(Qh[:, q_rows], Kh[:, kv_rows], Vh[:, kv_rows], block)
        probs.append(P)
    out, c_o = layers.linear_fwd(layers._merge_heads(Ch), p["Wo"], p["bo"])
    return out, (c_q, c_k, c_v, c_o, Qh, Kh, Vh, Ch, blocks, probs, n_heads)


FULL_CACHE_LAYERS = {
    "gelu_fwd": full_cache_gelu_fwd, "gelu_bwd": full_cache_gelu_bwd,
    "dropout_fwd": full_cache_dropout_fwd, "dropout_bwd": full_cache_dropout_bwd,
    "attend": allocating_attend, "attention_fwd": full_cache_attention_fwd,
}


class TestLeanCaches:
    """GELU caches its derivative, computed in row tiles, dropout its bool
    mask, attention one context and attend its probabilities in its score
    array: the results are those of the full-cache layers, bit for bit."""

    def test_steps_equal_the_full_cache_layers(self, monkeypatch):
        """Five float32 steps at the directional config with dropout 0.1 and
        d_ff 512, whose FFN rows end in a partial GELU tile: parameters, both
        Adam moments, the rng state and the loss equal those of the same
        steps on the full-cache layers."""
        corpus, vocab, config = directional_setup()
        config = ModelConfig(**{**config.__dict__, "d_ff": 512})
        opt = OptimizerConfig(lr_peak=1e-3, warmup_steps=200, batch_size=8)
        variant = get_variant(7)
        lean = new_state(config, variant, seed=41)
        full = new_state(config, variant, seed=41)
        gelu_rows = []
        lean_gelu_fwd = layers.gelu_fwd

        def recording(x):
            gelu_rows.append(len(x))
            return lean_gelu_fwd(x)

        for step in range(1, 6):
            with monkeypatch.context() as patch:
                patch.setattr(layers, "gelu_fwd", recording)
                train(corpus, vocab, variant, config, opt, TrainSchedule(step, 0), initial_state=lean)
            with monkeypatch.context() as patch:
                for name, fn in FULL_CACHE_LAYERS.items():
                    patch.setattr(layers, name, fn)
                train(corpus, vocab, variant, config, opt, TrainSchedule(step, 0), initial_state=full)
            assert lean.rng.bit_generator.state == full.rng.bit_generator.state
            assert lean.last_train_loss == full.last_train_loss
            for kind, got, want in (
                ("params", lean.params.tensors, full.params.tensors),
                ("adam_m", lean.adam_m, full.adam_m),
                ("adam_v", lean.adam_v, full.adam_v),
            ):
                for name, tensor in want.items():
                    assert got[name].dtype == tensor.dtype == np.float32
                    assert got[name].tobytes() == tensor.tobytes(), f"step {step} {kind} {name}"
        tile_rows = layers._TILE_BYTES // (config.d_ff * np.dtype(np.float32).itemsize)
        assert any(rows > tile_rows and rows % tile_rows for rows in gelu_rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_at_tile_edges(self, dtype):
        """At d_ff 512 a float32 tile holds 128 rows, a float64 tile 64:
        gelu equals gelu_fwd's output, and gelu_fwd and gelu_bwd equal the
        full-cache pair, bit for bit."""
        rng = np.random.default_rng(54)
        for rows in (1, 127, 128, 129, 1000):
            x = rng.normal(0.0, 2.0, (rows, 512)).astype(dtype)
            dout = rng.normal(size=x.shape).astype(dtype)
            out, dgelu = layers.gelu_fwd(x)
            want, cache = full_cache_gelu_fwd(x)
            assert out.dtype == dgelu.dtype == dtype
            assert layers.gelu(x).tobytes() == out.tobytes() == want.tobytes(), rows
            assert layers.gelu_bwd(dout, dgelu).tobytes() == full_cache_gelu_bwd(dout, cache).tobytes(), rows


class TestInitialStateMustMatch:
    """Sampling follows the variant and config arguments while checkpoints
    record the state's, so train refuses a state that disagrees with them."""

    def test_variant_mismatch_rejected(self, small_setup):
        corpus, vocab, config = small_setup
        state = new_state(config, get_variant(7), seed=0)
        with pytest.raises(TrainingError, match="variant"):
            train(corpus, vocab, get_variant(5), config, OptimizerConfig(batch_size=2),
                  TrainSchedule(1, 0), initial_state=state)
        assert state.step == 0

    def test_config_mismatch_names_the_field(self, small_setup):
        corpus, vocab, config = small_setup
        state = new_state(config, get_variant(7), seed=0)
        other = ModelConfig(**{**config.__dict__, "dropout": 0.3})
        with pytest.raises(TrainingError, match="dropout"):
            train(corpus, vocab, get_variant(7), other, OptimizerConfig(batch_size=2),
                  TrainSchedule(1, 0), initial_state=state)
        assert state.step == 0


FAULTS_PER_STEP = """
import resource
from test_training import directional_setup
from threadsum.training import OptimizerConfig, TrainSchedule, get_variant, new_state, train

corpus, vocab, config = directional_setup()
opt = OptimizerConfig(lr_peak=1e-3, warmup_steps=200, batch_size=8)
variant = get_variant(7)
state = new_state(config, variant, seed=0)

def steps(n):  # one train() call per step, as the benchmark makes them
    for _ in range(n):
        train(corpus, vocab, variant, config, opt, TrainSchedule(state.step + 1, 0), initial_state=state)

steps(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
steps(20)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def has_glibc_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


class TestTrainingMemory:
    @pytest.mark.skipif(not has_glibc_mallopt(), reason="the C library has no mallopt")
    def test_a_step_does_not_fault_its_memory_back_in(self):
        """train() keeps the memory a step frees mapped for the next step.
        Under glibc's dynamic thresholds a directional step takes about
        1,000 minor page faults; run in a fresh process, so that no earlier
        test has set the allocator already."""
        src = os.path.dirname(os.path.dirname(training.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.path.dirname(__file__)])}
        run = subprocess.run(
            [sys.executable, "-c", FAULTS_PER_STEP], env=env, capture_output=True, text=True, check=True
        )
        faults = float(run.stdout.split()[-1])
        assert faults < 64, f"{faults} minor page faults per training step"
