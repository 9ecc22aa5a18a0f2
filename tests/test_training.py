import dataclasses
import logging
import math
import os

import numpy as np
import pytest

import tweetembed.manifest
import tweetembed.model
import tweetembed.training
from tweetembed.cli import EXIT_INPUT, EXIT_OK, main
from tweetembed.corpus import build_dictionary, count_ngrams
from tweetembed.dataset import (
    DatasetSplit,
    filter_ngrams,
    split_dataset,
)
from tweetembed.model import (
    EVAL_CHUNK_ROWS,
    PARAM_FIELDS,
    ModelHyper,
    ModelParams,
    Workspace,
    backward_arrays,
    evaluate,
    init_params,
    load_checkpoint,
    param_count,
)
from tweetembed.training import (
    ADAM_BLOCK,
    AdamState,
    EpochLog,
    TrainConfig,
    TrainingDiverged,
    _check_fits_in_memory,
    adam_step,
    train,
    write_run_log,
)

from memory import traced_peak
from oracles import oracle_adam_step, oracle_sigmoid, oracle_softmax, read_run_log
from synth import zipf_corpus


def tiny_hyper():
    return ModelHyper(vocab_size=8, d_in=4, d_ctx=4)


def grad_like(params, fill):
    return ModelParams(params.hyper, np.full_like(params.flat, fill))


def grads_from(hyper, arrays):
    """Gradients in the parameters' layout, from one array per PARAM_FIELDS name."""
    grads = ModelParams(hyper)
    for name in PARAM_FIELDS:
        getattr(grads, name)[...] = arrays[name]
    return grads


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
        # The second model's 55,404 values span one full ADAM_BLOCK slice
        # and a partial second one.
        rng = np.random.default_rng(4)
        cfg = TrainConfig(learning_rate=0.01)
        for hyper in (ModelHyper(vocab_size=30, d_in=5, d_ctx=6),
                      ModelHyper(vocab_size=300, d_in=64, d_ctx=64)):
            fast, slow = init_params(hyper, seed=9), init_params(hyper, seed=9)
            fast_state, slow_state = AdamState.for_params(fast), AdamState.for_params(slow)
            for _ in range(5):
                grads = grads_from(hyper, {name: rng.normal(0.0, 10.0 ** rng.integers(-6, 2),
                                                            getattr(fast, name).shape)
                                           for name in PARAM_FIELDS})
                grads.b_ctx[0] = 0.0
                grads.b_ctx[1] = -0.0
                adam_step(fast, grads, fast_state, cfg)
                oracle_adam_step(slow, grads, slow_state, cfg)
                for name in PARAM_FIELDS:
                    assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
                    assert np.array_equal(getattr(fast_state.m, name),
                                          getattr(slow_state.m, name)), name
                    assert np.array_equal(getattr(fast_state.v, name),
                                          getattr(slow_state.v, name)), name
            assert fast_state.t == slow_state.t == 5
        assert fast.flat.size == 55404
        assert fast.flat.size > ADAM_BLOCK and fast.flat.size % ADAM_BLOCK

    def test_non_finite_gradient_names_matrix(self):
        params = init_params(tiny_hyper(), seed=3)
        state = AdamState.for_params(params)
        grads = grad_like(params, 0.0)
        grads.w_ctx[0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="w_ctx"):
            adam_step(params, grads, state, TrainConfig())

    def test_non_finite_in_last_slice_updates_nothing(self):
        hyper = ModelHyper(vocab_size=300, d_in=64, d_ctx=64)
        params = init_params(hyper, seed=3)
        state = AdamState.for_params(params)
        grads = grad_like(params, 0.5)
        adam_step(params, grads, state, TrainConfig())
        before = [params.flat.copy(), state.m.flat.copy(), state.v.flat.copy()]
        grads.b_out[-1] = np.nan
        assert params.flat.size - 1 >= ADAM_BLOCK  # the NaN is in the last slice
        with pytest.raises(TrainingDiverged, match="b_out at step 2"):
            adam_step(params, grads, state, TrainConfig())
        for got, expected in zip((params.flat, state.m.flat, state.v.flat), before):
            assert np.array_equal(got, expected)
        assert state.t == 1


def toy_split(seed=13):
    """Tiny 5-word toy language with deterministic successors."""
    tweets = ["a b c d e a b c d e", "b c d e a b c d e a", "c d e a b c d e a b"] * 20
    db = count_ngrams(tweets)
    tuples = filter_ngrams(db, build_dictionary(db).ids[:5], include_boundary=True)
    return split_dataset(tuples, validation_ratio=0.2, fraction=1.0, seed=seed)


def random_split(hyper, n_train, n_val, seed):
    """Uniformly drawn example rows, every id in range for `hyper`."""
    rng = np.random.default_rng(seed)
    rows = np.empty((n_val + n_train, 5), dtype=np.int64)
    rows[:, :4] = rng.integers(0, hyper.vocab_size + 4, (len(rows), 4))
    rows[:, 4] = rng.integers(0, hyper.vocab_size, len(rows))
    return DatasetSplit(rows[n_val:], rows[:n_val])


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
    def test_loss_decreases_on_toy_language(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=8, d_ctx=8)
        cfg = TrainConfig(epochs=40, batch_size=8, seed=7)
        _, logs = train(toy_split(), hyper, cfg, tmp_path / "model.ckpt",
                        tmp_path / "run_log.tsv", "")
        assert logs[-1].train_loss < logs[0].train_loss

    def test_fresh_model_validation_loss_near_log_vocab(self):
        split = toy_split()
        hyper = ModelHyper(vocab_size=5, d_in=8, d_ctx=8)
        params = init_params(hyper, seed=11)
        val0 = evaluate(params, split.validation[:, :4], split.validation[:, 4])
        assert abs(val0 - math.log(5)) / math.log(5) < 0.05

    def test_one_epoch_one_log(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        _, logs = train(toy_split(), hyper, TrainConfig(epochs=1, batch_size=16, seed=1),
                        tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "")
        assert len(logs) == 1
        assert logs[0].epoch == 1

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_empty_train_split_rejected(self, tmp_path):
        split = toy_split()
        split.train = split.train[:0]
        with pytest.raises(ValueError):
            train(split, ModelHyper(vocab_size=5), TrainConfig(epochs=1),
                  tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "")

    def test_deterministic_runs_identical(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=21, deterministic=True)
        outputs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            _, logs = train(toy_split(), hyper, cfg, path, tmp_path / f"{name}.log", "")
            outputs.append((logs, path.read_bytes()))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert all(entry.wall_seconds == 0.0 for entry in outputs[0][0])

    def test_divergence_keeps_last_good_checkpoint(self, tmp_path):
        # lr=1000 survives epoch 1 (loss 10.49) and trips the guard,
        # min(10 ln|V|, MAX_NLL / 2) = 13.82, at epoch 2 (loss 17.76), so the
        # checkpoint on disk must be the epoch-1 state. A separate one-epoch
        # run with the same seed reproduces that state exactly.
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        reference = tmp_path / "reference.ckpt"
        train(toy_split(), hyper,
              TrainConfig(epochs=1, batch_size=16, seed=3, learning_rate=1000.0),
              reference, tmp_path / "reference.log", "")
        diverging = tmp_path / "diverging.ckpt"
        with pytest.raises(TrainingDiverged):
            train(toy_split(), hyper,
                  TrainConfig(epochs=5, batch_size=16, seed=3, learning_rate=1000.0),
                  diverging, tmp_path / "diverging.log", "")
        assert diverging.read_bytes() == reference.read_bytes()

    def test_hot_path_bytes_match_reference_implementations(self, tmp_path, monkeypatch):
        # Guard for hot-path rewrites: swapping softmax, sigmoid and adam_step
        # for their textbook forms must not change one byte of the checkpoint.
        # The hot path passes `out=`, so the oracles' fresh results are
        # copied there; a call the hot path stopped making would fail
        # `calls`, which holds each call's row count. A step's softmax runs
        # once per row part: at this size one part, and two halves when
        # PART_MIN_VALUES = 0 and OpenBLAS can be set to one thread.
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        cfg = TrainConfig(epochs=3, batch_size=16, seed=21, deterministic=True)
        n = len(toy_split().train)
        batches = [min(cfg.batch_size, n - start) for start in range(0, n, cfg.batch_size)]
        two = tweetembed.training._openblas_threads() is not None
        for min_values, split in ((tweetembed.model.PART_MIN_VALUES, False), (0, two)):
            monkeypatch.setattr(tweetembed.model, "PART_MIN_VALUES", min_values)
            fast, slow = tmp_path / f"fast{min_values}.ckpt", tmp_path / f"slow{min_values}.ckpt"
            _, fast_logs = train(toy_split(), hyper, cfg, fast, tmp_path / "fast.log", "")
            calls = {"softmax": [], "sigmoid": []}

            def into_out(name, oracle):
                def wrapped(x, out):
                    calls[name].append(len(x))  # list.append is atomic across threads
                    out[...] = oracle(x)
                    return out
                return wrapped

            with monkeypatch.context() as patched:
                patched.setattr(tweetembed.model, "softmax", into_out("softmax", oracle_softmax))
                patched.setattr(tweetembed.model, "sigmoid", into_out("sigmoid", oracle_sigmoid))
                patched.setattr(tweetembed.training, "adam_step", oracle_adam_step)
                _, slow_logs = train(toy_split(), hyper, cfg, slow, tmp_path / "slow.log", "")
            assert fast.read_bytes() == slow.read_bytes()
            assert fast_logs == slow_logs
            parts = [part for rows in batches * cfg.epochs
                     for part in ((rows // 2, rows - rows // 2) if split and rows >= 4 else (rows,))]
            assert sorted(calls["softmax"]) == sorted(parts)
            assert len(calls["sigmoid"]) >= len(parts)

    @pytest.mark.parametrize("failing", [
        "model.ckpt", "run_log.tsv", "ngrams.tsv", "ngrams.tsv.bin", "dictionary.tsv",
        "dataset.tsv", "dataset.tsv.vocab.tsv", "dataset.tsv.manifest.json", "embeddings.txt",
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
            seeded = ["--seed", seed]  # for the commands that read it
            rng = np.random.default_rng(seed)
            corpus = tmp_path / f"corpus{seed}.txt"
            corpus.write_text("".join(" ".join(rng.choice(list("abcdef"), size=7)) + "\n"
                                      for _ in range(30)), encoding="utf-8")
            for argv in (
                ["ingest", corpus, "--out-db", out / "ngrams.tsv",
                 "--out-dict", out / "dictionary.tsv"],
                ["dataset", out / "ngrams.tsv", "--vocab-size", "5", "--include-boundary",
                 "--out", out / "dataset.tsv", *seeded],
                ["train", out / "dataset.tsv", "--out-checkpoint", out / "model.ckpt",
                 "--out-log", out / "run_log.tsv", *train_flags, *seeded],
                ["export", out / "model.ckpt", "--vocab", out / "dataset.tsv.vocab.tsv",
                 "--out", out / "embeddings.txt"],
                ["eval", out / "embeddings.txt", "--membership-thresholds", f"0.{seed}",
                 "--out", out / "report.json"],
                ["grid", corpus, "--out-dir", out / "grid", "--vocab-sizes", "5",
                 "--fractions", "1.0", "--include-boundary", *train_flags, *seeded],
            ):
                rc = main([str(arg) for arg in argv] + ["--deterministic"])
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
            if path == out / f"{failing}.{os.getpid()}.tmp":
                opened.append(path)
                return BrokenWrites(fh)
            return fh

        monkeypatch.setattr(tweetembed.manifest, "open", flaky_open, raising=False)
        capsys.readouterr()
        assert pipeline(out, 4) == EXIT_INPUT
        assert "disk full" in capsys.readouterr().err
        assert len(opened) == 1
        assert (out / failing).read_bytes() == previous
        assert not list(out.rglob("*.tmp"))  # any process's `<name>.<pid>.tmp`
        if failing == "ngrams.tsv.bin":
            # The second run's TSV is in place beside the first run's binary
            # database, now stale: dataset refuses it until ingest is re-run.
            assert main(["dataset", str(out / "ngrams.tsv"), "--vocab-size", "5",
                         "--include-boundary", "--out", str(out / "again.tsv"),
                         "--seed", "4", "--deterministic"]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert f"{out / 'ngrams.tsv.bin'}: written for other TSV bytes" in err
            assert not (out / "again.tsv").exists()

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
            train(toy_split(), hyper, dataclasses.replace(cfg, epochs=epochs),
                  out_dir / "model.ckpt", out_dir / "run_log.tsv", "")
            return out_dir

        reference = run(tmp_path / "reference", 1)
        opened = []

        def flaky_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if path.name == f"{failing}.{os.getpid()}.tmp":
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

    def test_clamping_run_warns_at_most_twice_per_epoch(self, caplog, tmp_path):
        # At learning rate 5 both evaluations of each epoch clamp some target
        # probabilities at LOSS_FLOOR (44 and 16 rows, then 21 and 9), yet
        # the train loss (8.25, then 6.04) stays under the MAX_NLL / 2 = 13.82
        # divergence limit, so both epochs run.
        db = count_ngrams(zipf_corpus(300, seed=3, vocab_types=60))
        examples = filter_ngrams(db, build_dictionary(db).ids[:32], include_boundary=True)
        split = split_dataset(examples,
                              validation_ratio=0.2, seed=1)
        hyper = ModelHyper(vocab_size=32, d_in=4, d_ctx=4)
        cfg = TrainConfig(epochs=2, batch_size=64, learning_rate=5.0, seed=3)
        assert len(split.train) > 10 * cfg.batch_size  # many batches per epoch

        def clamp_warnings():
            return sum("clamped" in r.getMessage() for r in caplog.records)

        seen = []
        with caplog.at_level(logging.WARNING, logger="tweetembed.model"):
            train(split, hyper, cfg, tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "",
                  on_epoch=lambda _: seen.append(clamp_warnings()))
        per_epoch = [seen[0], seen[1] - seen[0]]
        assert all(1 <= n <= 2 for n in per_epoch), per_epoch

    def test_model_larger_than_physical_memory_exits_2(self, tmp_path, monkeypatch, capsys):
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text(f"#vocab_size=2048\t#vocab_hash={'0' * 64}\t#seed=1"
                           "\t#validation_ratio=0.1\t#fraction=1.0\t#validation=0\t#train=1"
                           "\n0\t1\t2\t3\t4\n",
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

    def test_memory_check_counts_the_workspace(self, monkeypatch):
        # Physical memory between the four parameter-sized arrays alone and
        # those plus the workspace must be refused.
        hyper = ModelHyper(vocab_size=2048)
        rows = max(256, EVAL_CHUNK_ROWS)
        arrays = 4 * 8 * param_count(hyper)
        workspace = Workspace.nbytes(hyper, rows)
        assert workspace > 4 * 2 ** 20
        for physical, fits in ((arrays + workspace // 2, False), (arrays + workspace, True)):
            pages = {"SC_PHYS_PAGES": physical, "SC_PAGE_SIZE": 1}
            monkeypatch.setattr(tweetembed.training.os, "sysconf", pages.__getitem__)
            if fits:
                _check_fits_in_memory(hyper, rows)
            else:
                with pytest.raises(MemoryError, match="activations"):
                    _check_fits_in_memory(hyper, rows)

    def test_step_allocates_only_the_gradient(self):
        # Once the workspace and Adam's state exist, a step allocates the
        # gradient vector from np.bincount and little else.
        hyper = ModelHyper(vocab_size=2048)
        params = init_params(hyper, seed=1)
        state = AdamState.for_params(params)
        cfg = TrainConfig()
        ws = Workspace(hyper, cfg.batch_size)
        rng = np.random.default_rng(2)
        contexts = rng.integers(0, hyper.vocab_size + 4, (cfg.batch_size, 4))
        targets = rng.integers(0, hyper.vocab_size, cfg.batch_size)
        adam_step(params, backward_arrays(params, contexts, targets, ws), state, cfg)
        _, peak = traced_peak(
            lambda: adam_step(params, backward_arrays(params, contexts, targets, ws), state, cfg))
        assert peak <= 8 * param_count(hyper) + 2 ** 20, peak

    def test_rows_are_held_once(self, tmp_path):
        # A batch gathers its rows from the split and `evaluate` reads column
        # views of it. Copying the context and target columns took 40 bytes
        # per train row, about twice what a run of a tiny model holds beside
        # the split (the epoch's order and its shuffle take about 13).
        hyper = ModelHyper(vocab_size=16, d_in=2, d_ctx=2)
        split = random_split(hyper, 180_000, 20_000, seed=4)
        _, peak = traced_peak(train, split, hyper, TrainConfig(epochs=1, batch_size=1024, seed=1),
                              tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "")
        assert peak < 40 * len(split.train), peak / len(split.train)

    def test_peak_memory_is_what_the_fit_check_counts(self, tmp_path):
        # Parameters, Adam's two moments, one gradient and one workspace, as
        # `_check_fits_in_memory` counts them, plus Adam's two slice buffers:
        # a step's gradient is freed before the next step allocates its own.
        hyper = ModelHyper(vocab_size=2048)
        cfg = TrainConfig(epochs=1, batch_size=256, seed=1)
        _, peak = traced_peak(train, random_split(hyper, 1792, 256, seed=8), hyper, cfg,
                              tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "")
        counted = (4 * 8 * param_count(hyper)
                   + Workspace.nbytes(hyper, max(cfg.batch_size, EVAL_CHUNK_ROWS)))
        assert peak < counted + 1.5 * 2 ** 20, peak - counted

    def test_epoch_callback_streams_logs(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        seen = []
        train(toy_split(), hyper, TrainConfig(epochs=2, batch_size=16, seed=1),
              tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "", on_epoch=seen.append)
        assert [e.epoch for e in seen] == [1, 2]

    def test_checkpoint_carries_vocab_hash(self, tmp_path):
        hyper = ModelHyper(vocab_size=5, d_in=4, d_ctx=4)
        path = tmp_path / "model.ckpt"
        train(toy_split(), hyper, TrainConfig(epochs=1, batch_size=16, seed=1),
              path, tmp_path / "run_log.tsv", "deadbeef")
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
