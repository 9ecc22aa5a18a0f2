import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetembed.cli import EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, build_parser, main
from tweetembed.corpus import read_ngram_db
from tweetembed.dataset import Vocabulary, read_dataset, vocabulary_hash, write_vocabulary
from tweetembed.model import ModelHyper, init_params, save_checkpoint
from tweetembed.training import read_run_log

from oracles import db_records
from synth import class_corpus, class_gold, non_ascii_corpus, zipf_corpus


@pytest.fixture
def two_tweet_corpus(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("Olá @joao veja http://abc.pt\nolá olá mundo\n", encoding="utf-8")
    return path


def ingest(corpus, out_dir, *extra):
    out_dir.mkdir(parents=True, exist_ok=True)
    db = out_dir / "ngrams.tsv"
    dic = out_dir / "dictionary.tsv"
    rc = main(["ingest", str(corpus), "--out-db", str(db), "--out-dict", str(dic), *extra])
    return rc, db, dic


class TestIngest:
    def test_fixture_counts_match_hand_enumeration(self, two_tweet_corpus, tmp_path, capsys):
        rc, db_path, dict_path = ingest(two_tweet_corpus, tmp_path)
        assert rc == EXIT_OK
        db = read_ngram_db(db_path)
        # tweet 1 -> 4 tokens, tweet 2 -> 3 tokens, all 7 windows distinct
        assert db.total_tweets == 2
        assert db.total_tokens == 7
        assert len(db.records) == 7
        assert dict_path.read_text(encoding="utf-8") == (
            "olá\t3\t0\nLINK\t1\t1\nT_HANDLE\t1\t2\nmundo\t1\t3\nveja\t1\t4\n")
        out = capsys.readouterr().out
        assert "distinct 5-grams: 7" in out
        assert "dictionary entries: 5" in out

    def test_rerun_is_byte_identical(self, two_tweet_corpus, tmp_path):
        _, db1, dict1 = ingest(two_tweet_corpus, tmp_path / "a")
        _, db2, dict2 = ingest(two_tweet_corpus, tmp_path / "b")
        assert db1.read_bytes() == db2.read_bytes()
        assert dict1.read_bytes() == dict2.read_bytes()

    def test_empty_corpus_warns_and_succeeds(self, tmp_path, capsys):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("\n \n", encoding="utf-8")
        rc, db_path, _ = ingest(corpus, tmp_path)
        assert rc == EXIT_OK
        assert "empty" in capsys.readouterr().err
        assert db_records(read_ngram_db(db_path)) == {}

    def test_missing_corpus_exits_2(self, tmp_path, capsys):
        rc, _, _ = ingest(tmp_path / "nope.txt", tmp_path)
        assert rc == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    def test_manifest_written_with_input_hash(self, two_tweet_corpus, tmp_path):
        _, db_path, _ = ingest(two_tweet_corpus, tmp_path, "--deterministic")
        manifest = json.loads(
            db_path.with_suffix(".tsv.manifest.json").read_text(encoding="utf-8"))
        assert manifest["subcommand"] == "ingest"
        assert manifest["timestamp"] == ""
        assert len(manifest["inputs"]["corpus"]["sha256"]) == 64

    def test_threads_flag_is_accepted_and_ignored(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(zipf_corpus(300, seed=3)) + "\n", encoding="utf-8")
        rc1, db1, dict1 = ingest(corpus, tmp_path / "one", "--deterministic")
        rc2, db2, dict2 = ingest(corpus, tmp_path / "two", "--deterministic", "--threads", "2")
        assert rc1 == rc2 == EXIT_OK
        assert db1.read_bytes() == db2.read_bytes()
        assert dict1.read_bytes() == dict2.read_bytes()
        manifest = json.loads(db2.with_suffix(".tsv.manifest.json").read_text(encoding="utf-8"))
        assert "threads" not in manifest["config"]


@pytest.fixture
def bigger_corpus(tmp_path):
    rng = np.random.default_rng(17)
    words = ["casa", "bola", "rua", "sol", "mar", "luz"]
    lines = [" ".join(rng.choice(words, size=int(rng.integers(5, 10))))
             for _ in range(120)]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def make_dataset(db_path, out_dir, vocab_size=4, *extra):
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / "dataset.tsv"
    rc = main(["dataset", str(db_path), "--vocab-size", str(vocab_size),
               "--out", str(out), *extra])
    return rc, out


class TestDataset:
    def test_tuple_count_matches_brute_force(self, bigger_corpus, tmp_path, capsys):
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        rc, out = make_dataset(db_path, tmp_path, 4)
        assert rc == EXIT_OK
        db = read_ngram_db(db_path)
        dictionary = (tmp_path / "dictionary.tsv").read_text(encoding="utf-8").splitlines()
        top4 = {line.split("\t")[0] for line in dictionary[:4]}
        expected = sum(
            1 for gram in db_records(db)
            if gram[2] in top4 and all(t in top4 for t in (gram[0], gram[1], gram[3], gram[4]))
        )
        split, meta = read_dataset(out)
        assert len(split.train) + len(split.validation) == expected
        assert f"qualifying 5-grams: {expected}" in capsys.readouterr().out

    def test_quarter_fraction_is_prefix_of_full(self, bigger_corpus, tmp_path):
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        _, full_path = make_dataset(db_path, tmp_path / "full", 6, "--fraction", "1.0")
        _, quarter_path = make_dataset(db_path, tmp_path / "quarter", 6, "--fraction", "0.25")
        full, _ = read_dataset(full_path)
        quarter, _ = read_dataset(quarter_path)
        assert np.array_equal(full.validation, quarter.validation)
        assert np.array_equal(full.train[: len(quarter.train)], quarter.train)

    def test_identical_invocations_identical_files(self, bigger_corpus, tmp_path):
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        _, a = make_dataset(db_path, tmp_path / "a", 5)
        _, b = make_dataset(db_path, tmp_path / "b", 5)
        assert a.read_bytes() == b.read_bytes()

    def test_oversized_vocab_exits_2(self, bigger_corpus, tmp_path, capsys):
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        rc, _ = make_dataset(db_path, tmp_path, 32768)
        assert rc == EXIT_INPUT
        assert "32768" in capsys.readouterr().err

    def test_deterministic_bytes_are_pinned(self, tmp_path):
        # Both files hold only tokens and integers, so these hashes hold on
        # every platform; a change to them is a change of file format.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(zipf_corpus(500, seed=8, vocab_types=400)) + "\n",
                          encoding="utf-8")
        rc, db, _ = ingest(corpus, tmp_path, "--deterministic")
        assert rc == EXIT_OK
        rc, out = make_dataset(db, tmp_path, 64, "--include-boundary", "--validation-ratio", "0.2",
                               "--fraction", "0.75", "--seed", "5", "--deterministic")
        assert rc == EXIT_OK
        assert hashlib.sha256(db.read_bytes()).hexdigest() == (
            "7916819330e997b0e56a57bebc2322bbf9e63a2a2416c667ebd924668289c14d")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "21887ca62d1a34d44fc3f583cb7de02c3b21f1ec4b630da6f4bf79827afa89ce")

    def test_non_ascii_bytes_are_pinned(self, tmp_path):
        # Accents, an emoji, "İ", "ß", handles, links, a pad spelling written
        # in a tweet, one-token tweets and blank lines: the files order rows
        # by code point, which is also UTF-8 byte order.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(non_ascii_corpus(300, seed=21)) + "\n", encoding="utf-8")
        rc, db, dic = ingest(corpus, tmp_path, "--deterministic")
        assert rc == EXIT_OK
        rc, out = make_dataset(db, tmp_path, 10, "--include-boundary", "--deterministic")
        assert rc == EXIT_OK
        assert hashlib.sha256(db.read_bytes()).hexdigest() == (
            "1b1d1357acb7a9cab4c754c4457dc2c7cea7b2e884b8cdf8f6f349278131ecd0")
        assert hashlib.sha256(dic.read_bytes()).hexdigest() == (
            "f2519597dcdf536a9ab3e0918352e4d8314ed964febce658cea784af682252e1")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "2992a1a445981444f05a1e0594d674ef90c8b2264e03350188031ec657f3fdfc")

    def test_reordered_ngram_db_gives_the_same_dataset(self, bigger_corpus, tmp_path):
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        header, *body = db_path.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(3).shuffle(body)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text(header + "".join(body), encoding="utf-8")
        _, a = make_dataset(db_path, tmp_path / "sorted", 5, "--include-boundary")
        _, b = make_dataset(shuffled, tmp_path / "shuffled", 5, "--include-boundary")
        assert a.read_bytes() == b.read_bytes()

    def test_vocab_sidecar_written(self, bigger_corpus, tmp_path):
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        _, out = make_dataset(db_path, tmp_path, 4)
        sidecar = out.with_suffix(".tsv.vocab.tsv")
        assert sidecar.is_file()
        assert len(sidecar.read_text(encoding="utf-8").splitlines()) == 4


@pytest.fixture
def prepared_dataset(bigger_corpus, tmp_path):
    _, db_path, _ = ingest(bigger_corpus, tmp_path)
    _, out = make_dataset(db_path, tmp_path, 6)
    return out


def train_cmd(dataset_path, tmp_path, *extra):
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "run_log.tsv"
    rc = main(["train", str(dataset_path), "--out-checkpoint", str(ckpt),
               "--out-log", str(log), *extra])
    return rc, ckpt, log


class TestTrain:
    def test_three_epochs_three_lines(self, prepared_dataset, tmp_path, capsys):
        rc, ckpt, log = train_cmd(prepared_dataset, tmp_path, "--epochs", "3",
                                  "--emb-dim", "8", "--ctx-dim", "8")
        assert rc == EXIT_OK
        assert ckpt.is_file()
        logs = read_run_log(log)
        assert [e.epoch for e in logs] == [1, 2, 3]
        stdout_lines = [l for l in capsys.readouterr().out.splitlines()
                        if l and l[0].isdigit()]
        assert len(stdout_lines) == 3

    def test_deterministic_reruns_identical(self, prepared_dataset, tmp_path):
        blobs = []
        for name in ("a", "b"):
            sub = tmp_path / name
            sub.mkdir()
            _, ckpt, log = train_cmd(prepared_dataset, sub, "--epochs", "2",
                                     "--emb-dim", "8", "--ctx-dim", "8", "--deterministic")
            blobs.append((ckpt.read_bytes(), log.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_default_epochs_is_40(self):
        parser = build_parser()
        args = parser.parse_args(["train", "x", "--out-checkpoint", "c", "--out-log", "l"])
        assert args.epochs == 40
        assert args.batch_size == 256
        assert args.emb_dim == 64 and args.ctx_dim == 64

    def test_divergence_exits_3(self, prepared_dataset, tmp_path, capsys):
        rc, _, _ = train_cmd(prepared_dataset, tmp_path, "--epochs", "10",
                             "--emb-dim", "8", "--ctx-dim", "8",
                             "--learning-rate", "1000.0")
        assert rc == EXIT_DIVERGED
        assert "error" in capsys.readouterr().err

    def test_missing_dataset_exits_2(self, tmp_path):
        rc, _, _ = train_cmd(tmp_path / "missing.tsv", tmp_path)
        assert rc == EXIT_INPUT

    def test_zero_epochs_exits_2(self, prepared_dataset, tmp_path, capsys):
        rc, _, _ = train_cmd(prepared_dataset, tmp_path, "--epochs", "0")
        assert rc == EXIT_INPUT
        assert "epochs" in capsys.readouterr().err


def clustered_checkpoint(tmp_path):
    """Checkpoint with hand-placed output columns: 2 tight clusters of 3 words."""
    words = ["a1", "a2", "a3", "b1", "b2", "b3"]
    vocab = Vocabulary(words)
    hyper = ModelHyper(vocab_size=6, d_in=4, d_ctx=3)
    params = init_params(hyper, seed=0)
    params.w_output[...] = np.array([
        [1.0, 0.98, 1.02, 0.0, 0.01, 0.0],
        [0.01, 0.0, 0.02, 1.0, 0.97, 1.03],
        [0.0, 0.02, 0.0, 0.01, 0.0, 0.02],
    ])
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, ckpt, seed=0, vocab_hash=vocabulary_hash(vocab))
    vocab_path = tmp_path / "vocab.tsv"
    write_vocabulary(vocab, vocab_path)
    classes = tmp_path / "classes.tsv"
    classes.write_text(
        "".join(f"ca\t{w}\n" for w in words[:3]) +
        "".join(f"cb\t{w}\n" for w in words[3:]),
        encoding="utf-8",
    )
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a1\ta2\nb1\tzz\n", encoding="utf-8")
    return ckpt, vocab_path, classes, pairs


class TestExportAndEval:
    def test_clustered_fixture_scores(self, tmp_path, capsys):
        ckpt, vocab_path, classes, pairs = clustered_checkpoint(tmp_path)
        emb = tmp_path / "emb.txt"
        rc = main(["export", str(ckpt), "--vocab", str(vocab_path), "--out", str(emb)])
        assert rc == EXIT_OK
        assert emb.with_suffix(".txt.bin").is_file()  # full-precision sidecar
        report_path = tmp_path / "report.json"
        rc = main(["eval", str(emb), "--classes", str(classes), "--pairs", str(pairs),
                   "--out", str(report_path)])
        assert rc == EXIT_OK
        reports = json.loads(report_path.read_text(encoding="utf-8"))["reports"]
        by_key = {(r["name"], r["threshold"]): r for r in reports}
        assert by_key[("class_membership", 0.70)]["score"] == 1.0
        assert by_key[("class_distinction", 0.80)]["score"] == 1.0
        assert by_key[("topological_consistency", None)]["score"] == 1.0
        assert by_key[("word_equivalence", 0.85)]["coverage"] == 0.5
        out = capsys.readouterr().out
        assert "class_membership" in out

    def test_threshold_flags_override_defaults(self, tmp_path):
        ckpt, vocab_path, classes, pairs = clustered_checkpoint(tmp_path)
        emb = tmp_path / "emb.txt"
        main(["export", str(ckpt), "--vocab", str(vocab_path), "--out", str(emb)])
        report_path = tmp_path / "report.json"
        rc = main(["eval", str(emb), "--classes", str(classes), "--pairs", str(pairs),
                   "--membership-thresholds", "0.5",
                   "--distinction-thresholds", "0.6",
                   "--equivalence-thresholds", "0.9",
                   "--out", str(report_path)])
        assert rc == EXIT_OK
        reports = json.loads(report_path.read_text(encoding="utf-8"))["reports"]
        assert [(r["name"], r["threshold"]) for r in reports] == [
            ("class_membership", 0.5),
            ("class_distinction", 0.6),
            ("word_equivalence", 0.9),
            ("topological_consistency", None),
        ]

    def test_vocab_hash_mismatch_exits_2(self, tmp_path, capsys):
        ckpt, _, _, _ = clustered_checkpoint(tmp_path)
        wrong = Vocabulary(["x1", "x2", "x3", "x4", "x5", "x6"])
        wrong_path = tmp_path / "wrong_vocab.tsv"
        write_vocabulary(wrong, wrong_path)
        rc = main(["export", str(ckpt), "--vocab", str(wrong_path),
                   "--out", str(tmp_path / "emb.txt")])
        assert rc == EXIT_INPUT
        assert "mismatch" in capsys.readouterr().err

    def test_report_round_trips(self, tmp_path):
        ckpt, vocab_path, classes, pairs = clustered_checkpoint(tmp_path)
        emb = tmp_path / "emb.txt"
        main(["export", str(ckpt), "--vocab", str(vocab_path), "--out", str(emb)])
        report_path = tmp_path / "report.json"
        main(["eval", str(emb), "--classes", str(classes), "--pairs", str(pairs),
              "--out", str(report_path)])
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["manifest"]["subcommand"] == "eval"
        assert (tmp_path / "report.txt").is_file()
        assert len(payload["reports"]) == 7

    def test_deterministic_export_and_eval_reruns_identical(self, tmp_path):
        ckpt, vocab_path, classes, pairs = clustered_checkpoint(tmp_path)
        emb = tmp_path / "emb.txt"
        report = tmp_path / "report.json"
        export_argv = ["export", str(ckpt), "--vocab", str(vocab_path),
                       "--out", str(emb), "--deterministic"]
        eval_argv = ["eval", str(emb), "--classes", str(classes),
                     "--pairs", str(pairs), "--out", str(report), "--deterministic"]
        outputs = [emb, emb.with_suffix(".txt.bin"), report, tmp_path / "report.txt",
                   emb.with_suffix(".txt.manifest.json"),
                   report.with_suffix(".json.manifest.json")]
        blobs = []
        for _ in range(2):
            assert main(list(export_argv)) == EXIT_OK
            assert main(list(eval_argv)) == EXIT_OK
            blobs.append([path.read_bytes() for path in outputs])
        assert blobs[0] == blobs[1]

    def test_deterministic_reports_are_pinned(self, tmp_path):
        # A staged ingest -> dataset -> train -> export -> eval run on the
        # class-structured corpus, scored against its own gold classes. The
        # pass counts rest on trained floats, so a BLAS that rounds
        # differently could move one; these hashes were taken with numpy
        # and OpenBLAS on x86-64.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(class_corpus(400, seed=6, n_classes=4, words_per_class=8,
                                                  subset_size=4)) + "\n", encoding="utf-8")
        gold = class_gold(n_classes=4, words_per_class=8)
        classes = tmp_path / "classes.tsv"
        classes.write_text("".join(f"{cls.name}\t{w}\n" for cls in gold for w in cls.members),
                           encoding="utf-8")
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("".join(f"{cls.members[0]}\t{cls.members[1]}\n"
                                 f"{cls.members[2]}\t{gold[0].members[3]}\n" for cls in gold),
                         encoding="utf-8")
        ds = tmp_path / "dataset.tsv"
        emb = tmp_path / "embeddings.txt"
        report = tmp_path / "report.json"
        for argv in (
            ["ingest", str(corpus), "--out-db", str(tmp_path / "ngrams.tsv"),
             "--out-dict", str(tmp_path / "dictionary.tsv")],
            ["dataset", str(tmp_path / "ngrams.tsv"), "--vocab-size", "24", "--out", str(ds)],
            ["train", str(ds), "--out-checkpoint", str(tmp_path / "model.ckpt"),
             "--out-log", str(tmp_path / "run_log.tsv"), "--epochs", "3", "--batch-size", "64",
             "--learning-rate", "0.01", "--emb-dim", "8", "--ctx-dim", "8"],
            ["export", str(tmp_path / "model.ckpt"), "--vocab", str(ds) + ".vocab.tsv",
             "--out", str(emb)],
            ["eval", str(emb), "--classes", str(classes), "--pairs", str(pairs),
             "--out", str(report)],
        ):
            assert main([*argv, "--deterministic"]) == EXIT_OK
        reports = json.loads(report.read_text(encoding="utf-8"))["reports"]
        assert hashlib.sha256(json.dumps(reports, sort_keys=True).encode("utf-8")).hexdigest() == (
            "87903d5b4ec9901a9ec7331fc06084937038f3b5b4092a17b6aa4f5dc5fcfa3e")
        assert hashlib.sha256((tmp_path / "report.txt").read_bytes()).hexdigest() == (
            "80e72d8e108a13bf62a2364019da8a17d93f0e20654386a1b806100c625b08bd")


class TestGrid:
    def test_smoke_and_summary_shape(self, bigger_corpus, tmp_path, capsys):
        out_dir = tmp_path / "grid"
        rc = main(["grid", str(bigger_corpus), "--out-dir", str(out_dir),
                   "--vocab-sizes", "4,6", "--fractions", "0.5,1.0",
                   "--epochs", "1", "--batch-size", "32",
                   "--emb-dim", "8", "--ctx-dim", "8", "--deterministic"])
        assert rc == EXIT_OK
        summary = (out_dir / "summary.tsv").read_text(encoding="utf-8").splitlines()
        assert summary[0].split("\t") == [
            "vocab_size", "fraction", "train_tuples", "avg_secs_epoch",
            "train_loss", "val_loss",
        ]
        assert len(summary) == 5  # header + 4 cells
        for cell in ("v4_f050", "v4_f100", "v6_f050", "v6_f100"):
            for artifact in ("dataset.tsv", "model.ckpt", "run_log.tsv",
                             "embeddings.txt", "report.json", "manifest.json"):
                assert (out_dir / cell / artifact).is_file()

    def test_rejects_off_grid_fraction(self, bigger_corpus, tmp_path, capsys):
        rc = main(["grid", str(bigger_corpus), "--out-dir", str(tmp_path / "g"),
                   "--vocab-sizes", "4", "--fractions", "0.33"])
        assert rc == EXIT_INPUT
        assert "fraction" in capsys.readouterr().err


STAGE_SETTINGS = ["--seed", "5", "--deterministic"]
DATASET_SETTINGS = ["--validation-ratio", "0.2", "--include-boundary"]
TRAIN_SETTINGS = ["--epochs", "2", "--batch-size", "32", "--learning-rate", "0.01",
                  "--emb-dim", "8", "--ctx-dim", "8", "--sigmoid-logits"]


@pytest.fixture
def staged_and_grid(bigger_corpus, tmp_path):
    """The same flags run once as the five stage commands and once as a
    one-cell grid; returns the staged directory and the grid directory."""
    staged = tmp_path / "staged"
    staged.mkdir()
    ds = staged / "dataset.tsv"
    emb = staged / "embeddings.txt"
    for argv in (
        ["ingest", str(bigger_corpus), "--out-db", str(staged / "ngrams.tsv"),
         "--out-dict", str(staged / "dictionary.tsv")],
        ["dataset", str(staged / "ngrams.tsv"), "--vocab-size", "6", "--fraction", "0.5",
         "--out", str(ds), *DATASET_SETTINGS],
        ["train", str(ds), "--out-checkpoint", str(staged / "model.ckpt"),
         "--out-log", str(staged / "run_log.tsv"), *TRAIN_SETTINGS],
        ["export", str(staged / "model.ckpt"), "--vocab", str(ds) + ".vocab.tsv",
         "--out", str(emb)],
        ["eval", str(emb), "--out", str(staged / "report.json")],
    ):
        assert main([*argv, *STAGE_SETTINGS]) == EXIT_OK
    grid = tmp_path / "grid"
    assert main(["grid", str(bigger_corpus), "--out-dir", str(grid), "--vocab-sizes", "6",
                 "--fractions", "0.5", *DATASET_SETTINGS, *TRAIN_SETTINGS,
                 *STAGE_SETTINGS]) == EXIT_OK
    return staged, grid


class TestGridMatchesStages:
    def test_cell_files_are_byte_identical(self, staged_and_grid):
        staged, grid = staged_and_grid
        cell = grid / "v6_f050"
        same = {
            "ngrams.tsv": grid / "ngrams.tsv",
            "dictionary.tsv": grid / "dictionary.tsv",
            "dataset.tsv": cell / "dataset.tsv",
            "dataset.tsv.vocab.tsv": cell / "vocab.tsv",
            "model.ckpt": cell / "model.ckpt",
            "run_log.tsv": cell / "run_log.tsv",
            "embeddings.txt": cell / "embeddings.txt",
            "embeddings.txt.bin": cell / "embeddings.txt.bin",
            "report.txt": cell / "report.txt",
        }
        for name, path in same.items():
            assert (staged / name).read_bytes() == path.read_bytes(), name

    def test_manifests_record_every_staged_setting(self, staged_and_grid):
        staged, grid = staged_and_grid
        cell_config = json.loads((grid / "v6_f050" / "manifest.json").read_text())["config"]
        grid_config = json.loads((grid / "grid.manifest.json").read_text())["config"]
        for manifest in sorted(staged.glob("*.manifest.json")):
            for key, value in json.loads(manifest.read_text())["config"].items():
                if key.startswith("out"):  # output paths differ between the two runs
                    continue
                assert cell_config[key] == value, (manifest.name, key)
                if key not in ("vocab_size", "fraction"):
                    assert grid_config[key] == value, (manifest.name, key)
        assert grid_config["sigmoid_logits"] is True
        assert (grid_config["vocab_sizes"], grid_config["fractions"]) == ("6", "0.5")


def _edit_first_row(dataset, edit):
    header, row, *rest = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = edit(row.rstrip("\n").split("\t"))
    dataset.write_text(header + "\t".join(fields) + "\n" + "".join(rest), encoding="utf-8")


def _drop_header_key(dataset, key):
    header, *rows = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [f for f in header.rstrip("\n").split("\t") if not f.startswith(f"#{key}=")]
    dataset.write_text("\t".join(kept) + "\n" + "".join(rows), encoding="utf-8")


def _set_header_key(dataset, key, value):
    header, *rows = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = [f"#{key}={value}" if f.startswith(f"#{key}=") else f
              for f in header.rstrip("\n").split("\t")]
    dataset.write_text("\t".join(fields) + "\n" + "".join(rows), encoding="utf-8")


def _train_on(break_dataset):
    """Case builder: break the prepared dataset, then train on it."""
    def argv(dataset, tmp_path):
        break_dataset(dataset)
        return ["train", str(dataset), "--out-checkpoint", str(tmp_path / "m.ckpt"),
                "--out-log", str(tmp_path / "log.tsv"), "--epochs", "1",
                "--emb-dim", "8", "--ctx-dim", "8"]
    return argv


def _eval_on(embeddings="2 2\nolá 0.1 0.2\nbom 0.3 0.4\n", classes=None, pairs=None):
    """Case builder: eval an embeddings file, against gold files when given."""
    def argv(dataset, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text(embeddings, encoding="utf-8")
        args = ["eval", str(emb), "--out", str(tmp_path / "report.json")]
        for flag, text in (("--classes", classes), ("--pairs", pairs)):
            if text is not None:
                path = tmp_path / f"{flag[2:]}.tsv"
                path.write_text(text, encoding="utf-8")
                args += [flag, str(path)]
        return args
    return argv


def _export_broken_checkpoint(edit_header=None, cut=None, tail=b""):
    """Case builder: rewrite a valid checkpoint (header edit, truncation or
    appended bytes), then export from it."""
    def argv(dataset, tmp_path):
        ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
        data = ckpt.read_bytes()
        header_len = int.from_bytes(data[8:12], "little")
        header = json.loads(data[12:12 + header_len])
        if edit_header is not None:
            edit_header(header)
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        data = (data[:8] + len(blob).to_bytes(4, "little") + blob
                + data[12 + header_len:] + tail)
        ckpt.write_bytes(data[:cut])
        return ["export", str(ckpt), "--vocab", str(vocab_path),
                "--out", str(tmp_path / "emb.txt")]
    return argv


def _directory_at(command, option):
    """Case builder: a valid `command` whose `option` path is an existing directory."""
    def argv(dataset, tmp_path):
        directory = tmp_path / "a_directory"
        directory.mkdir()
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("olá mundo\n", encoding="utf-8")
        emb = tmp_path / "emb.txt"
        emb.write_text("2 2\nolá 0.1 0.2\nbom 0.3 0.4\n", encoding="utf-8")
        ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
        base = {
            "ingest": ["ingest", corpus, "--out-dict", tmp_path / "dict.tsv"],
            "train": ["train", dataset, "--out-log", tmp_path / "log.tsv", "--epochs", "1",
                      "--emb-dim", "8", "--ctx-dim", "8", "--out-checkpoint", tmp_path / "m.ckpt"],
            "export": ["export", ckpt, "--vocab", vocab_path],
            "eval": ["eval", emb],
            "grid": ["grid", corpus, "--out-dir", tmp_path / "grid", "--vocab-sizes", "2",
                     "--fractions", "1.0"],
        }[command]
        return [str(arg) for arg in base] + [option, str(directory)]
    return argv


def _dataset_from_db(edit_body):
    """Case builder: ingest a small corpus, rewrite the 5-gram DB body, run dataset."""
    def argv(dataset, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c d e\nb c d e a\n", encoding="utf-8")
        rc, db, _ = ingest(corpus, tmp_path)
        assert rc == EXIT_OK
        header, *body = db.read_text(encoding="utf-8").splitlines(keepends=True)
        db.write_text(header + "".join(edit_body(body)), encoding="utf-8")
        return ["dataset", str(db), "--vocab-size", "3", "--include-boundary",
                "--out", str(tmp_path / "ds.tsv")]
    return argv


# Case -> (build the failing argv from the prepared dataset and tmp_path;
# text the error must carry). The dataset has |V| = 6, so context ids run
# 0..9 and targets 0..5.
MALFORMED_INPUTS = {
    "negative context id": (_train_on(lambda ds: _edit_first_row(ds, lambda f: ["-1", *f[1:]])),
                            "out of range"),
    "context id past the boundary rows": (
        _train_on(lambda ds: _edit_first_row(ds, lambda f: ["10", *f[1:]])), "out of range"),
    "target equal to |V|": (_train_on(lambda ds: _edit_first_row(ds, lambda f: [*f[:4], "6"])),
                            "out of range"),
    "row with four fields": (_train_on(lambda ds: _edit_first_row(ds, lambda f: f[:4])),
                             "5 integer fields"),
    "float context id": (_train_on(lambda ds: _edit_first_row(ds, lambda f: ["1.5", *f[1:]])),
                         "5 integer fields"),
    "nan context id": (_train_on(lambda ds: _edit_first_row(ds, lambda f: ["nan", *f[1:]])),
                       "5 integer fields"),
    "empty line before the first row": (
        _train_on(lambda ds: _edit_first_row(ds, lambda f: ["\n" + f[0], *f[1:]])),
        ":2: expected 5 integer fields, got an empty line"),
    "header without #train=": (_train_on(lambda ds: _drop_header_key(ds, "train")), "#train="),
    # No machine's memory holds the arrays of this |V|, so train refuses it
    # before allocating; a |V| whose model could fit in RAM must never be
    # tried here.
    "header declaring an unallocatable |V|": (
        _train_on(lambda ds: _set_header_key(ds, "vocab_size", "1000000000000000")),
        "physical memory is"),
    "embeddings with more rows than the header": (
        _eval_on("2 2\nolá 0.1 0.2\nbom 0.3 0.4\ndia 0.5 0.6\n"), "rows"),
    "embeddings repeating a word": (_eval_on("3 2\nmonday 1 0\ntuesday 0 1\nmonday 0 1\n"),
                                    "'monday' more than once"),
    "--classes line without a tab": (_eval_on(classes="months\tjaneiro\nfevereiro\n"),
                                     "classes.tsv:2: expected 2 tab-separated fields, got 1"),
    "--pairs line with two tabs": (_eval_on(pairs="pq\tporque\tporquê\n"),
                                   "pairs.tsv:1: expected 2 tab-separated fields, got 3"),
    "checkpoint with trailing bytes": (_export_broken_checkpoint(tail=b"junk"),
                                       "4 trailing bytes"),
    "checkpoint format 2": (_export_broken_checkpoint(lambda h: h.update(format=2)),
                            "format 2"),
    "checkpoint dtype <f4": (_export_broken_checkpoint(lambda h: h.update(dtype="<f4")),
                             "dtype '<f4'"),
    "checkpoint header without hyper": (_export_broken_checkpoint(lambda h: h.pop("hyper")),
                                        "lacks hyper"),
    "checkpoint shorter than its length field": (_export_broken_checkpoint(cut=10),
                                                 "no header length"),
    "checkpoint cut inside an array": (_export_broken_checkpoint(cut=-8), "truncated"),
    "checkpoint arrays out of order": (
        _export_broken_checkpoint(lambda h: h["arrays"].reverse()), "array names"),
    "checkpoint shape not implied by hyper": (
        _export_broken_checkpoint(lambda h: h["hyper"].update(d_ctx=4)), "hyper implies"),
    "eval --out is a directory": (_directory_at("eval", "--out"), "Is a directory"),
    "export --out is a directory": (_directory_at("export", "--out"), "Is a directory"),
    "ingest --out-db is a directory": (_directory_at("ingest", "--out-db"), "Is a directory"),
    "train --out-checkpoint is a directory": (_directory_at("train", "--out-checkpoint"),
                                              "Is a directory"),
    "grid --classes is a directory": (_directory_at("grid", "--classes"), "Is a directory"),
    "5-gram DB with its body twice": (_dataset_from_db(lambda body: body + body),
                                      "repeated 5-gram"),
    "5-gram DB counts not summing to #total_tokens": (
        _dataset_from_db(lambda body: body[1:]), "#total_tokens="),
    "5-gram DB count below 1": (  # 0 and 2 keep the sum
        _dataset_from_db(lambda body: [body[0].replace("\t1\n", "\t0\n"),
                                       body[1].replace("\t1\n", "\t2\n"), *body[2:]]),
        ":2: 5-gram count 0 is below 1"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_without_traceback(case, prepared_dataset, tmp_path, capsys):
    build_argv, message = MALFORMED_INPUTS[case]
    assert main(build_argv(prepared_dataset, tmp_path)) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def valid_dataset_lines(tmp_path_factory):
    """A valid |V| = 6 dataset file, as lists of tab-separated fields per line."""
    tmp_path = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(17)
    words = ["casa", "bola", "rua", "sol", "mar", "luz"]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(" ".join(rng.choice(words, size=6)) + "\n" for _ in range(40)),
                      encoding="utf-8")
    _, db, _ = ingest(corpus, tmp_path)
    _, out = make_dataset(db, tmp_path, 6)
    return [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]


# Header values stay small: a header may declare any |V| it likes, and train
# allocates the model that |V| implies before reading a single row.
HEADER_VALUES = st.sampled_from(["", "x", "1.5", "-1", "0", "5", "7", "99"])
ROW_VALUES = st.sampled_from(["", "x", "1.5", " ", "0x1", "1e3", str(2 ** 70), "-0"]) | (
    st.integers(-3, 12).map(str))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_dataset_trains_or_exits_2(valid_dataset_lines, data):
    lines = [list(fields) for fields in valid_dataset_lines]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")  # line 0 is the header
        fields = lines[i]
        kind = data.draw(st.sampled_from(["drop field", "duplicate field", "set field",
                                          "drop line", "duplicate line"]), label="kind")
        if kind == "drop line":
            del lines[i]
        elif kind == "duplicate line":
            lines.insert(i, list(fields))
        elif fields:
            j = data.draw(st.integers(0, len(fields) - 1), label="field")
            if kind == "drop field":
                del fields[j]
            elif kind == "duplicate field":
                fields.insert(j, fields[j])
            elif i == 0:
                key = fields[j].partition("=")[0]
                fields[j] = f"{key}={data.draw(HEADER_VALUES, label='header value')}"
            else:
                fields[j] = data.draw(ROW_VALUES, label="row value")
        if not lines:
            break
    text = "".join("\t".join(fields) + "\n" for fields in lines)
    text = text[:data.draw(st.none() | st.integers(0, len(text)), label="truncate at")]
    with tempfile.TemporaryDirectory() as tmp:
        dataset = Path(tmp) / "dataset.tsv"
        dataset.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["train", str(dataset), "--out-checkpoint", str(Path(tmp) / "m.ckpt"),
                       "--out-log", str(Path(tmp) / "log.tsv"), "--epochs", "1",
                       "--emb-dim", "4", "--ctx-dim", "4"])
    assert rc in (EXIT_OK, EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # A body line that is empty or has a field that is not an integer never trains.
    body = text.partition("\n")[2].split("\n")[:-1]
    if any(not re.fullmatch(r"\s*[+-]?[0-9]+\s*", field)
           for line in body for field in line.split("\t")):
        assert rc == EXIT_INPUT, text



@pytest.fixture(scope="module")
def valid_ngram_db_lines(tmp_path_factory):
    """A valid 5-gram database, as lists of tab-separated fields per line."""
    tmp_path = tmp_path_factory.mktemp("valid_db")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c d e\nb c d e a\na a b\nc d\n", encoding="utf-8")
    _, db, _ = ingest(corpus, tmp_path)
    return [line.split("\t") for line in db.read_text(encoding="utf-8").splitlines()]


DB_HEADER_VALUES = st.sampled_from(["", "x", "1.5", "-1", "0", "4", "15", str(2 ** 70)])
DB_COUNTS = st.sampled_from(["0", "-1", "1.5", "x", "1", "2"])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_ngram_db_makes_dataset_or_exits_2(valid_ngram_db_lines, data):
    lines = [list(fields) for fields in valid_ngram_db_lines]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")  # line 0 is the header
        fields = lines[i]
        kind = data.draw(st.sampled_from(["drop line", "duplicate line", "swap lines",
                                          "drop field", "duplicate field", "swap fields",
                                          "set value"]), label="kind")
        if kind == "drop line":
            del lines[i]
        elif kind == "duplicate line":
            lines.insert(i, list(fields))
        elif kind == "swap lines":
            k = data.draw(st.integers(0, len(lines) - 1), label="other line")
            lines[i], lines[k] = lines[k], lines[i]
        elif fields:
            j = data.draw(st.integers(0, len(fields) - 1), label="field")
            if kind == "drop field":
                del fields[j]
            elif kind == "duplicate field":
                fields.insert(j, fields[j])
            elif kind == "swap fields":
                k = data.draw(st.integers(0, len(fields) - 1), label="other field")
                fields[j], fields[k] = fields[k], fields[j]
            elif i == 0:
                key = fields[j].partition("=")[0]
                fields[j] = f"{key}={data.draw(DB_HEADER_VALUES, label='header value')}"
            else:
                fields[-1] = data.draw(DB_COUNTS, label="count")
        if not lines:
            break
    text = "".join("\t".join(fields) + "\n" for fields in lines)
    text = text[:data.draw(st.none() | st.integers(0, len(text)), label="truncate at")]
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "ngrams.tsv"
        db.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["dataset", str(db), "--vocab-size", "3", "--include-boundary",
                       "--out", str(Path(tmp) / "dataset.tsv")])
    assert rc in (EXIT_OK, EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # A complete body line whose count is not a positive integer never passes.
    body = text.partition("\n")[2].split("\n")[:-1]
    if any(not re.fullmatch(r"[0-9]+", line.rpartition("\t")[2])
           or int(line.rpartition("\t")[2]) < 1 for line in body):
        assert rc == EXIT_INPUT, text

@pytest.fixture(scope="module")
def valid_embedding_lines(tmp_path_factory):
    """An exported embeddings file, as lists of space-separated fields per
    line, and gold files that cover its words."""
    tmp_path = tmp_path_factory.mktemp("valid_emb")
    ckpt, vocab_path, classes, pairs = clustered_checkpoint(tmp_path)
    emb = tmp_path / "emb.txt"
    assert main(["export", str(ckpt), "--vocab", str(vocab_path), "--out", str(emb)]) == EXIT_OK
    return [line.split(" ") for line in emb.read_text(encoding="utf-8").splitlines()], classes, pairs


# Header values stay small: eval allocates the rows and columns the header declares.
EMB_HEADER_VALUES = st.sampled_from(["", "x", "1.5", "-1", "0", "1", "3", "6", "7"])
EMB_WORDS = st.sampled_from(["", "a1", "b3", "zz", "olá"])
EMB_VALUES = st.sampled_from(["", "x", "nan", "inf", "-inf", "1e400", "1e300", "1e-320", "0",
                              "-0.0", "0x1", "1_0"])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_embeddings_evaluate_or_exit_2(valid_embedding_lines, data):
    valid_lines, classes, pairs = valid_embedding_lines
    lines = [list(fields) for fields in valid_lines]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")  # line 0 is the header
        fields = lines[i]
        kind = data.draw(st.sampled_from(["drop line", "duplicate line", "swap lines",
                                          "copy word", "drop field", "duplicate field",
                                          "set value"]), label="kind")
        k = data.draw(st.integers(0, len(lines) - 1), label="other line")
        if kind == "drop line":
            del lines[i]
        elif kind == "duplicate line":
            lines.insert(i, list(fields))
        elif kind == "swap lines":
            lines[i], lines[k] = lines[k], lines[i]
        elif kind == "copy word":
            if fields and lines[k]:
                fields[0] = lines[k][0]
        elif fields:
            j = data.draw(st.integers(0, len(fields) - 1), label="field")
            if kind == "drop field":
                del fields[j]
            elif kind == "duplicate field":
                fields.insert(j, fields[j])
            elif i == 0:
                fields[j] = data.draw(EMB_HEADER_VALUES, label="header value")
            elif j == 0:
                fields[j] = data.draw(EMB_WORDS, label="word")
            else:
                fields[j] = data.draw(EMB_VALUES, label="value")
        if not lines:
            break
    text = "".join(" ".join(fields) + "\n" for fields in lines)
    text = text[:data.draw(st.none() | st.integers(0, len(text)), label="truncate at")]
    with tempfile.TemporaryDirectory() as tmp:
        emb = Path(tmp) / "emb.txt"
        emb.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["eval", str(emb), "--classes", str(classes), "--pairs", str(pairs),
                       "--out", str(Path(tmp) / "report.json")])
    assert rc in (EXIT_OK, EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # A file that lists a word twice never evaluates.
    words = [line.split(" ")[0] for line in text.partition("\n")[2].split("\n")[:-1]]
    if len(set(words)) != len(words):
        assert rc == EXIT_INPUT, text


class TestSubprocessEntry:
    def test_module_invocation_works(self, two_tweet_corpus, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "tweetembed", "ingest", str(two_tweet_corpus),
             "--out-db", str(tmp_path / "db.tsv"), "--out-dict", str(tmp_path / "d.tsv")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "distinct 5-grams: 7" in result.stdout

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
