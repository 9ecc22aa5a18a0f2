import dataclasses
import logging
import math

import numpy as np
import pytest

import tweetembed.manifest
import tweetembed.model
import tweetembed.training
from tweetembed.cli import EXIT_INPUT, EXIT_OK, main
from tweetembed.corpus import build_dictionary, count_ngrams
from tweetembed.dataset import (
    filter_ngrams,
    select_vocabulary,
    split_dataset,
)
from tweetembed.model import (
    PARAM_FIELDS,
    Gradients,
    ModelHyper,
    evaluate,
    init_params,
    load_checkpoint,
)
from tweetembed.training import (
    AdamState,
    EpochLog,
    NonFiniteGradientError,
    TrainConfig,
    TrainingDiverged,
    adam_step,
    read_run_log,
    train,
    write_run_log,
)

from oracles import oracle_adam_step, oracle_sigmoid, oracle_softmax
from synth import zipf_corpus


def tiny_hyper():
    return ModelHyper(vocab_size=8, d_in=4, d_ctx=4)


def grad_like(params, fill):
    return Gradients(**{
        name: np.full_like(getattr(params, name), fill) for name in PARAM_FIELDS
    })


class TestAdamStep:
    def test_zero_gradient_leaves_params(self):
        params = init_params(tiny_hyper(), seed=1)
        snapshot = {name: getattr(params, name).copy() for name in PARAM_FIELDS}
        state = AdamState.for_params(params)
        adam_step(params, grad_like(params, 0.0), state, TrainConfig())
        assert state.t == 1
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(getattr(params, name), snapshot[name])

    def test_first_step_magnitude_is_learning_rate(self):
        # bias correction makes m_hat / sqrt(v_hat) = 1 for any constant gradient
        params = init_params(tiny_hyper(), seed=1)
        snapshot = {name: getattr(params, name).copy() for name in PARAM_FIELDS}
        state = AdamState.for_params(params)
        cfg = TrainConfig(learning_rate=0.001)
        adam_step(params, grad_like(params, 1.0), state, cfg)
        for name in PARAM_FIELDS:
            delta = snapshot[name] - getattr(params, name)
            np.testing.assert_allclose(delta, cfg.learning_rate, rtol=1e-6)

    def test_identical_steps_are_deterministic(self):
        results = []
        for _ in range(2):
            params = init_params(tiny_hyper(), seed=2)
            state = AdamState.for_params(params)
            cfg = TrainConfig()
            for step in range(3):
                adam_step(params, grad_like(params, 0.5 * (step + 1)), state, cfg)
            results.append({name: getattr(params, name).copy() for name in PARAM_FIELDS})
        for name in PARAM_FIELDS:
            np.testing.assert_array_equal(results[0][name], results[1][name])

    def test_bit_identical_to_textbook_adam(self):
        rng = np.random.default_rng(4)
        hyper = ModelHyper(vocab_size=30, d_in=5, d_ctx=6)
        cfg = TrainConfig(learning_rate=0.01)
        fast, slow = init_params(hyper, seed=9), init_params(hyper, seed=9)
        fast_state, slow_state = AdamState.for_params(fast), AdamState.for_params(slow)
        for _ in range(5):
            grads = Gradients(**{name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2),
                                                  getattr(fast, name).shape)
                                 for name in PARAM_FIELDS})
            grads.b_ctx[0] = 0.0
            grads.b_ctx[1] = -0.0
            adam_step(fast, grads, fast_state, cfg)
            oracle_adam_step(slow, grads, slow_state, cfg)
            for name in PARAM_FIELDS:
                assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
                assert np.array_equal(fast_state.m[name], slow_state.m[name]), name
                assert np.array_equal(fast_state.v[name], slow_state.v[name]), name
        assert fast_state.t == slow_state.t == 5

    def test_non_finite_gradient_names_matrix(self):
        params = init_params(tiny_hyper(), seed=3)
        state = AdamState.for_params(params)
        grads = grad_like(params, 0.0)
        grads.w_ctx[0, 0] = np.nan
        with pytest.raises(NonFiniteGradientError, match="w_ctx"):
            adam_step(params, grads, state, TrainConfig())


def toy_split(seed=13):
    """Tiny 5-word toy language with deterministic successors."""
    tweets = ["a b c d e a b c d e", "b c d e a b c d e a", "c d e a b c d e a b"] * 20
    db = count_ngrams(tweets)
    vocab = select_vocabulary(build_dictionary(db), 5)
    tuples = filter_ngrams(db, vocab, include_boundary=True)
    return split_dataset(tuples, validation_ratio=0.2, fraction=1.0, seed=seed)


class BrokenWrites:
    """A file whose first write puts 16 bytes on disk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[:16])
        self.fh.flush()
        raise OSError("disk full")


class TestTrain:
    def test_loss_decreases_on_toy_language(self):
        hyper = ModelHyper(vocab_size=5, d_in=8, d_ctx=8)
        cfg = TrainConfig(epochs=40, batch_size=8, seed=7)
        _, logs = train(toy_split(), hyper, cfg)
        assert logs[-1].train_loss < logs[0].train_loss

    def test_fresh_model_validation_loss_near_log_vocab(self):
        split = toy_split()
        hyper = ModelHyper(vocab_size=5, d_in=8, d_ctx=8)
        params = init_params(hyper, seed=11)
        val0 = evaluate(params, split.validation[:, :4], split.validation[:, 4])
        assert abs(val0 - math.log(5)) / math.log(5) < 0.05

    def test_one_epoch_one_log(self):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        _, logs = train(toy_split(), hyper, TrainConfig(epochs=1, batch_size=16, seed=1))
        assert len(logs) == 1
        assert logs[0].epoch == 1

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_train_split_rejected(self):
        split = toy_split()
        split.train = split.train[:0]
        with pytest.raises(ValueError):
            train(split, ModelHyper(vocab_size=5), TrainConfig(epochs=1))

    def test_deterministic_runs_identical(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=21, deterministic=True)
        outputs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            _, logs = train(toy_split(), hyper, cfg, checkpoint_path=path)
            outputs.append((logs, path.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert all(entry.wall_seconds == 0.0 for entry in outputs[0][0])

    def test_divergence_keeps_last_good_checkpoint(self, tmp_path):
        # lr=1000 survives epoch 1 (loss 10.49) and trips the 10 ln|V| = 16.09
        # guard at epoch 2 (loss 17.76), so the checkpoint on disk must be the
        # epoch-1 state. A separate one-epoch run with the same seed
        # reproduces that state exactly.
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        reference = tmp_path / "reference.ckpt"
        train(toy_split(), hyper,
              TrainConfig(epochs=1, batch_size=16, seed=3, learning_rate=1000.0),
              checkpoint_path=reference)
        diverging = tmp_path / "diverging.ckpt"
        with pytest.raises(TrainingDiverged):
            train(toy_split(), hyper,
                  TrainConfig(epochs=5, batch_size=16, seed=3, learning_rate=1000.0),
                  checkpoint_path=diverging)
        assert diverging.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("sigmoid_logits", [False, True])
    def test_hot_path_bytes_match_reference_implementations(self, sigmoid_logits,
                                                            tmp_path, monkeypatch):
        # Guard for hot-path rewrites: swapping softmax, sigmoid and adam_step
        # for their textbook forms must not change one byte of the checkpoint.
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4, sigmoid_logits=sigmoid_logits)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=21, deterministic=True)
        fast, slow = tmp_path / "fast.ckpt", tmp_path / "slow.ckpt"
        _, fast_logs = train(toy_split(), hyper, cfg, checkpoint_path=fast)
        monkeypatch.setattr(tweetembed.model, "softmax", oracle_softmax)
        monkeypatch.setattr(tweetembed.model, "sigmoid", oracle_sigmoid)
        monkeypatch.setattr(tweetembed.training, "adam_step", oracle_adam_step)
        _, slow_logs = train(toy_split(), hyper, cfg, checkpoint_path=slow)
        assert fast.read_bytes() == slow.read_bytes()
        assert fast_logs == slow_logs

    @pytest.mark.parametrize("failing", [
        "model.ckpt", "run_log.tsv", "ngrams.tsv", "dictionary.tsv", "dataset.tsv",
        "dataset.tsv.vocab.tsv", "dataset.tsv.manifest.json", "embeddings.txt",
        "embeddings.txt.bin", "report.json", "report.txt", "grid/summary.tsv",
    ])
    def test_write_failing_midway_keeps_previous_file(self, failing, tmp_path, monkeypatch,
                                                       capsys):
        # A second pipeline run over the first one's files, on another corpus,
        # seed and threshold, breaks the write of `failing` after its first 16
        # bytes reach the disk: the command exits 2, the first run's file
        # survives intact and no temp file is left.
        train_flags = ["--epochs", "1", "--batch-size", "16", "--emb-dim", "4", "--ctx-dim", "4"]

        def pipeline(out, seed):
            rng = np.random.default_rng(seed)
            corpus = tmp_path / f"corpus{seed}.txt"
            corpus.write_text("".join(" ".join(rng.choice(list("abcdef"), size=7)) + "\n"
                                      for _ in range(30)), encoding="utf-8")
            for argv in (
                ["ingest", corpus, "--out-db", out / "ngrams.tsv",
                 "--out-dict", out / "dictionary.tsv"],
                ["dataset", out / "ngrams.tsv", "--vocab-size", "5", "--include-boundary",
                 "--out", out / "dataset.tsv"],
                ["train", out / "dataset.tsv", "--out-checkpoint", out / "model.ckpt",
                 "--out-log", out / "run_log.tsv", *train_flags],
                ["export", out / "model.ckpt", "--vocab", out / "dataset.tsv.vocab.tsv",
                 "--out", out / "embeddings.txt"],
                ["eval", out / "embeddings.txt", "--membership-thresholds", f"0.{seed}",
                 "--out", out / "report.json"],
                ["grid", corpus, "--out-dir", out / "grid", "--vocab-sizes", "5",
                 "--fractions", "1.0", "--include-boundary", *train_flags],
            ):
                rc = main([str(arg) for arg in argv] + ["--seed", str(seed), "--deterministic"])
                if rc != EXIT_OK:
                    return rc
            return EXIT_OK

        out, other = tmp_path / "out", tmp_path / "other"
        out.mkdir()
        other.mkdir()
        assert pipeline(out, 3) == pipeline(other, 4) == EXIT_OK
        previous = (out / failing).read_bytes()
        assert previous != (other / failing).read_bytes()
        opened = []

        def flaky_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if path == out / (failing + ".tmp"):
                opened.append(path)
                return BrokenWrites(fh)
            return fh

        monkeypatch.setattr(tweetembed.manifest, "open", flaky_open, raising=False)
        capsys.readouterr()
        assert pipeline(out, 4) == EXIT_INPUT
        assert "disk full" in capsys.readouterr().err
        assert len(opened) == 1
        assert (out / failing).read_bytes() == previous
        assert not list(out.rglob("*.tmp"))

    @pytest.mark.parametrize("failing", ["model.ckpt", "run_log.tsv"])
    def test_write_failing_in_a_later_epoch_keeps_last_good_file(self, failing, tmp_path,
                                                                  monkeypatch):
        # The second write of `failing` within one run raises after its first
        # 16 bytes reach the disk; the epoch-1 file must survive intact, with
        # no temp file left.
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=3, deterministic=True)

        def run(out_dir, epochs):
            out_dir.mkdir()
            logs = []

            def record(entry):
                logs.append(entry)
                write_run_log(logs, out_dir / "run_log.tsv")

            train(toy_split(), hyper, dataclasses.replace(cfg, epochs=epochs),
                  checkpoint_path=out_dir / "model.ckpt", on_epoch=record)
            return out_dir

        reference = run(tmp_path / "reference", 1)
        opened = []

        def flaky_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if path.name == failing + ".tmp":
                opened.append(path)
                if len(opened) == 2:
                    return BrokenWrites(fh)
            return fh

        monkeypatch.setattr(tweetembed.manifest, "open", flaky_open, raising=False)
        with pytest.raises(OSError, match="disk full"):
            run(tmp_path / "broken", 3)
        broken = tmp_path / "broken"
        assert len(opened) == 2
        assert sorted(p.name for p in broken.iterdir()) == ["model.ckpt", "run_log.tsv"]
        assert (broken / failing).read_bytes() == (reference / failing).read_bytes()
        if failing == "model.ckpt":
            load_checkpoint(broken / failing)
        else:
            assert [e.epoch for e in read_run_log(broken / failing)] == [1]

    def test_clamping_run_warns_at_most_twice_per_epoch(self, caplog):
        # At learning rate 1000 most target probabilities fall below
        # LOSS_FLOOR, yet at |V| = 32 the clamped loss (at most 27.6) stays
        # under the 10 ln|V| = 34.7 divergence limit, so both epochs run.
        db = count_ngrams(zipf_corpus(300, seed=3, vocab_types=60))
        vocab = select_vocabulary(build_dictionary(db), 32)
        split = split_dataset(filter_ngrams(db, vocab, include_boundary=True),
                              validation_ratio=0.2, seed=1)
        hyper = ModelHyper(vocab_size=32, d_in=4, d_ctx=4)
        cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=1000.0, seed=3)
        assert len(split.train) > 10 * cfg.batch_size  # many batches per epoch

        def clamp_warnings():
            return sum("clamped" in r.getMessage() for r in caplog.records)

        seen = []
        with caplog.at_level(logging.WARNING, logger="tweetembed.model"):
            train(split, hyper, cfg, on_epoch=lambda _: seen.append(clamp_warnings()))
        per_epoch = [seen[0], seen[1] - seen[0]]
        assert all(1 <= n <= 2 for n in per_epoch), per_epoch

    def test_model_larger_than_physical_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text("#vocab_size=2048\t#vocab_hash=x\t#seed=1\t#validation_ratio=0.1"
                           "\t#fraction=1.0\t#validation=0\t#train=1\n0\t1\t2\t3\t4\n",
                           encoding="utf-8")
        # Report 1 MiB of physical memory: 256 pages of 4 KiB.
        pages = {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}
        monkeypatch.setattr(tweetembed.training.os, "sysconf", pages.__getitem__)
        ckpt = tmp_path / "model.ckpt"
        rc = main(["train", str(dataset), "--out-checkpoint", str(ckpt),
                   "--out-log", str(tmp_path / "log.tsv"), "--epochs", "1"])
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert "physical memory is 1048576 bytes" in err and "Traceback" not in err
        assert not ckpt.exists()

    def test_epoch_callback_streams_logs(self):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        seen = []
        train(toy_split(), hyper, TrainConfig(epochs=2, batch_size=16, seed=1),
              on_epoch=seen.append)
        assert [e.epoch for e in seen] == [1, 2]

    def test_checkpoint_carries_vocab_hash(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        path = tmp_path / "model.ckpt"
        train(toy_split(), hyper, TrainConfig(epochs=1, batch_size=16, seed=1),
              checkpoint_path=path, vocab_hash="deadbeef")
        _, header = load_checkpoint(path)
        assert header["vocab_hash"] == "deadbeef"


class TestRunLog:
    def test_round_trip(self, tmp_path):
        logs = [EpochLog(1, 5.123456, 5.234567, 1.25), EpochLog(2, 4.0, float("nan"), 0.0)]
        path = tmp_path / "run_log.tsv"
        write_run_log(logs, path)
        loaded = read_run_log(path)
        assert loaded[0] == logs[0]
        assert loaded[1].epoch == 2
        assert math.isnan(loaded[1].validation_loss)

    def test_tab_separated_format(self, tmp_path):
        path = tmp_path / "run_log.tsv"
        write_run_log([EpochLog(3, 1.5, 2.5, 0.125)], path)
        assert path.read_text(encoding="utf-8") == "3\t1.500000\t2.500000\t0.125\n"
