import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tweetembed import cli
from tweetembed.cli import EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, build_parser, main
from tweetembed.corpus import (BOUNDARY_TOKENS, NGRAM_DB_MAGIC, Dictionary, NGramDatabase,
                              read_ngram_db)
from tweetembed.dataset import read_dataset, read_vocabulary, vocabulary_hash, write_vocabulary
from tweetembed.embeddings import TABLE_MAGIC, read_embeddings_text
from tweetembed.manifest import file_sha256, read_container, write_container
from tweetembed.model import (CHECKPOINT_MAGIC, ModelHyper, ModelParams, init_params,
                              load_checkpoint, save_checkpoint)

from memory import count_calls, live_instances
from oracles import db_records, read_run_log
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


def read_db(db_path):
    """The database `ingest` wrote beside the TSV at `db_path`."""
    return read_ngram_db(db_path)[0]


class TestIngest:
    def test_fixture_counts_match_hand_enumeration(self, two_tweet_corpus, tmp_path, capsys):
        rc, db_path, dict_path = ingest(two_tweet_corpus, tmp_path)
        assert rc == EXIT_OK
        db = read_db(db_path)
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
        assert db_records(read_db(db_path)) == {}

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


# Every line boundary str.splitlines knows, "\r\n" as one, among text with
# one-, two-, three- and four-byte UTF-8 characters.
CORPUS_TEXT = st.lists(st.sampled_from(["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e",
                                        "\x85", "\u2028", "\u2029", "a", " ", "ç", "€", "😀"]),
                       max_size=40).map("".join)


@settings(max_examples=200, deadline=None)
@given(text=CORPUS_TEXT, chunk=st.integers(1, 7))
def test_streamed_corpus_gives_the_lines_of_splitlines(text, chunk):
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CORPUS_CHUNK_BYTES", chunk):
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(text.encode("utf-8"))
        assert list(cli._read_corpus_lines(path)) == path.read_text(encoding="utf-8").splitlines()


@settings(max_examples=100, deadline=None)
@given(lead=st.integers(0, 12000), text=CORPUS_TEXT, at=st.integers(0, 160),
       bad=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]),
       chunk=st.sampled_from([1, 7, 5000]))
def test_invalid_utf8_error_gives_the_offset_in_the_file(lead, text, at, bad, chunk):
    # `lead` bytes of one- and two-byte characters before the text put the
    # bad bytes anywhere in a chunk, or across two.
    valid = ("\u00e1" * (lead // 2) + "a" * (lead % 2) + text).encode("utf-8")
    data = valid[:lead + at] + bad + valid[lead + at:]
    offset = None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        offset = exc.start
    assume(offset is not None)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "CORPUS_CHUNK_BYTES", chunk):
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: can't decode byte 0x{data[offset]:02x} at byte offset {offset} ")):
            list(cli._read_corpus_lines(path))


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_invalid_utf8_error_gives_the_offset_in_a_pipe(tmp_path):
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(b"ol\xc3\xa1\ncaf\xff\n",))
    writer.start()
    try:
        with pytest.raises(ValueError, match="can't decode byte 0xff at byte offset 8 "):
            list(cli._read_corpus_lines(fifo))
    finally:
        writer.join()


# Corpora whose bytes meet the edge of the reader's first CORPUS_CHUNK_BYTES
# read, where the rest of the line is read on to the next b"\n".
EDGE = cli.CORPUS_CHUNK_BYTES
CHUNK_EDGE_CORPORA = {
    "a CR LF whose CR is the read's last byte": b"a" * (EDGE - 1) + b"\r\nb\rc\n",
    "a line three reads long": b"x" * (3 * EDGE) + "\u2028\n".encode("utf-8") + b"y",
    "a 4-byte character across the read's edge": (b"a" * (EDGE - 2)
                                                  + "\U0001f600\x85z\n".encode("utf-8") + b"end"),
    "a read ending at a newline": b"a" * (EDGE - 1) + b"\n" + b"b" * EDGE + b"\r",
    "an invalid byte just past the read's edge": b"a" * EDGE + b"\xff\n",
    "an invalid byte as the read's last byte": b"a" * (EDGE - 1) + b"\xc3\n",
    "a character cut short at the file's end past the edge": b"a" * EDGE + b"\n\xe2\x82",
}


@pytest.mark.parametrize("case", list(CHUNK_EDGE_CORPORA))
def test_chunk_edges_at_the_real_chunk_size(case, tmp_path):
    data = CHUNK_EDGE_CORPORA[case]
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    try:
        expected = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: can't decode byte 0x{data[exc.start]:02x} at byte offset {exc.start} "
                f"as UTF-8 ({exc.reason})")):
            list(cli._read_corpus_lines(path))
    else:
        assert list(cli._read_corpus_lines(path)) == expected


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
        db = read_db(db_path)
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
        # The files hold only tokens and integers, the sidecar's in fixed
        # little-endian widths, so these hashes hold on every platform; a
        # change to them is a change of file format.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(zipf_corpus(500, seed=8, vocab_types=400)) + "\n",
                          encoding="utf-8")
        rc, db, _ = ingest(corpus, tmp_path, "--deterministic")
        assert rc == EXIT_OK
        rc, out = make_dataset(db, tmp_path, 64, "--include-boundary", "--validation-ratio",
                               "0.2", "--fraction", "0.75", "--seed", "5", "--deterministic")
        assert rc == EXIT_OK
        assert hashlib.sha256(db.read_bytes()).hexdigest() == (
            "7916819330e997b0e56a57bebc2322bbf9e63a2a2416c667ebd924668289c14d")
        assert hashlib.sha256((tmp_path / "ngrams.tsv.bin").read_bytes()).hexdigest() == (
            "66950762caa2224f9bce504136d1c0ef4aa6bca118aa45374bfd016a8cf74fb9")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "183eab14f6358938f55324726f068cb38ae9c8d00992335f0fb1c989eba1cc30")

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
        assert hashlib.sha256((tmp_path / "ngrams.tsv.bin").read_bytes()).hexdigest() == (
            "4a3d8bca2f0ae960d16b0456753c8dcf208907be8db4b5b8ecbb6420a762e8e2")
        assert hashlib.sha256(dic.read_bytes()).hexdigest() == (
            "f2519597dcdf536a9ab3e0918352e4d8314ed964febce658cea784af682252e1")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "051ef071088f1a066921e9a10e6e113ceb68758d277df2074561537163d3f212")

    def test_reordered_ngram_db_gives_the_same_dataset(self, bigger_corpus, tmp_path):
        # dataset hashes the TSV but reads the rows from the binary: a copy
        # of the TSV with its rows shuffled, beside a binary bound to the
        # copy's bytes, gives the same dataset.
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        header, *body = db_path.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(3).shuffle(body)
        shuffled = tmp_path / "shuffled.tsv"
        shuffled.write_text(header + "".join(body), encoding="utf-8")
        assert shuffled.read_bytes() != db_path.read_bytes()
        bin_header, bin_body = read_container(Path(f"{db_path}.bin").read_bytes(), NGRAM_DB_MAGIC)
        write_container(f"{shuffled}.bin", NGRAM_DB_MAGIC,
                        {**bin_header, "tsv_sha256": file_sha256(shuffled)}, [bin_body])
        rc, a = make_dataset(db_path, tmp_path / "sorted", 5, "--include-boundary")
        assert rc == EXIT_OK
        rc, b = make_dataset(shuffled, tmp_path / "shuffled", 5, "--include-boundary")
        assert rc == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_stale_sidecar_exits_2(self, bigger_corpus, tmp_path, capsys):
        # Rows shuffled in place: the TSV holds the same rows, but its bytes
        # no longer match the database's tsv_sha256.
        _, db_path, _ = ingest(bigger_corpus, tmp_path)
        header, *body = db_path.read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(3).shuffle(body)
        db_path.write_text(header + "".join(body), encoding="utf-8")
        capsys.readouterr()
        rc, out = make_dataset(db_path, tmp_path / "shuffled", 5, "--include-boundary")
        assert rc == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{db_path}.bin: written for other TSV bytes" in err and "re-run ingest" in err
        assert "Traceback" not in err
        assert not any((tmp_path / "shuffled").iterdir())

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

    def test_seven_field_header_trains_to_the_same_bytes(self, prepared_dataset, tmp_path):
        # Files written before the header lost the split settings carry them
        # between #vocab_hash= and #validation=; train ignores them.
        header, body = prepared_dataset.read_text(encoding="utf-8").split("\n", 1)
        size, vocab_hash, *blocks = header.split("\t")
        old = tmp_path / "old" / "dataset.tsv"
        old.parent.mkdir()
        old.write_text("\t".join([size, vocab_hash, "#seed=13", "#validation_ratio=0.1",
                                  "#fraction=1.0", *blocks]) + "\n" + body, encoding="utf-8")
        blobs = []
        for dataset in (prepared_dataset, old):
            _, ckpt, log = train_cmd(dataset, dataset.parent, "--epochs", "2",
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

    def test_divergence_at_256_words_exits_3(self, tmp_path, capsys):
        # At |V| = 256 the mean loss, with each row capped at MAX_NLL = 27.63,
        # never reaches 10 ln|V| = 55.45. Learning rate 1000 clamps 16,816 of
        # the 17,993 train targets in epoch 1 (loss 25.90), past MAX_NLL / 2;
        # the default rate trains.
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(zipf_corpus(3000, seed=3, vocab_types=600)) + "\n",
                          encoding="utf-8")
        _, db_path, _ = ingest(corpus, tmp_path)
        rc, dataset = make_dataset(db_path, tmp_path, 256, "--include-boundary")
        assert rc == EXIT_OK
        flags = ["--epochs", "2", "--emb-dim", "8", "--ctx-dim", "8"]
        rc, ckpt, _ = train_cmd(dataset, tmp_path, *flags, "--learning-rate", "1000")
        assert rc == EXIT_DIVERGED
        assert "train loss 25.8952 at epoch 1" in capsys.readouterr().err
        assert not ckpt.exists()
        assert train_cmd(dataset, tmp_path, *flags)[0] == EXIT_OK

    # At learning rate 1000 the run diverges in epoch 1; at 10 with batch 16,
    # in epoch 2, after one checkpoint.
    @pytest.mark.parametrize("learning_rate,batch_size", [(1000.0, 256), (10.0, 16)])
    def test_diverged_run_leaves_a_consistent_record(self, learning_rate, batch_size,
                                                      prepared_dataset, tmp_path, capsys):
        # The manifest is written before the first epoch; the run log lists
        # the epochs that finished, and the checkpoint is the last of them.
        flags = ["--emb-dim", "8", "--ctx-dim", "8", "--learning-rate", str(learning_rate),
                 "--batch-size", str(batch_size), "--deterministic"]
        rc, ckpt, log = train_cmd(prepared_dataset, tmp_path, "--epochs", "10", *flags)
        assert rc == EXIT_DIVERGED
        out, err = capsys.readouterr()
        diverged_at = int(re.search(r"at epoch (\d+)", err).group(1))
        manifest = json.loads(ckpt.with_suffix(".ckpt.manifest.json").read_text(encoding="utf-8"))
        assert manifest["subcommand"] == "train"
        assert manifest["config"] == {
            "dataset": str(prepared_dataset), "out_checkpoint": str(ckpt), "out_log": str(log),
            "epochs": 10, "batch_size": batch_size, "learning_rate": learning_rate, "seed": 13,
            "emb_dim": 8, "ctx_dim": 8}
        finished = log.read_text(encoding="utf-8") if log.exists() else ""
        assert finished == "".join(line + "\n" for line in out.splitlines()
                                   if line[:1].isdigit())
        epochs = [e.epoch for e in read_run_log(log)] if finished else []
        assert epochs == list(range(1, diverged_at))
        if ckpt.exists():
            clean = tmp_path / "clean"
            clean.mkdir()
            rc, clean_ckpt, clean_log = train_cmd(prepared_dataset, clean, "--epochs",
                                                  str(diverged_at - 1), *flags)
            assert rc == EXIT_OK
            assert ckpt.read_bytes() == clean_ckpt.read_bytes()
            assert log.read_bytes() == clean_log.read_bytes()

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
    hyper = ModelHyper(vocab_size=6, d_in=4, d_ctx=3)
    params = init_params(hyper, seed=0)
    params.w_output[...] = np.array([
        [1.0, 0.98, 1.02, 0.0, 0.01, 0.0],
        [0.01, 0.0, 0.02, 1.0, 0.97, 1.03],
        [0.0, 0.02, 0.0, 0.01, 0.0, 0.02],
    ])
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(params, ckpt, seed=0, vocab_hash=vocabulary_hash(words))
    vocab_path = tmp_path / "vocab.tsv"
    write_vocabulary(words, vocab_path)
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

    def test_export_hashes_each_file_once(self, tmp_path, monkeypatch):
        # The table's checkpoint digest is also the manifest's.
        ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
        calls = count_calls(monkeypatch, file_sha256)
        rc = main(["export", str(ckpt), "--vocab", str(vocab_path),
                   "--out", str(tmp_path / "emb.txt")])
        assert rc == EXIT_OK
        assert sorted(Path(args[0]) for args in calls) == sorted([ckpt, vocab_path])

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

    def test_threshold_defaults_are_the_paper_thresholds(self):
        defaults = vars(build_parser().parse_args(["eval", "emb.txt", "--out", "r.json"]))
        assert {name: defaults[name] for name in ("membership_thresholds",
                                                  "distinction_thresholds",
                                                  "equivalence_thresholds")} == {
            "membership_thresholds": (0.70, 0.80),
            "distinction_thresholds": (0.70, 0.80),
            "equivalence_thresholds": (0.85, 0.95),
        }

    def test_vocab_hash_mismatch_exits_2(self, tmp_path, capsys):
        ckpt, _, _, _ = clustered_checkpoint(tmp_path)
        wrong = ["x1", "x2", "x3", "x4", "x5", "x6"]
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
        # and OpenBLAS on x86-64. The checkpoint body (the trained
        # parameters) is pinned apart from its header, which changes when a
        # header key does.
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
        checkpoint = (tmp_path / "model.ckpt").read_bytes()
        assert hashlib.sha256(checkpoint).hexdigest() == (
            "1fe2e6ff215ee109f35df3337939ccad12d73e3619adb29add487e2646b25fec")
        assert hashlib.sha256(read_container(checkpoint, CHECKPOINT_MAGIC)[1]).hexdigest() == (
            "b49d64bf698e5a7c65ad986bf345f43f656b144d0d21cecdd393e2d801979ad9")
        assert hashlib.sha256((tmp_path / "run_log.tsv").read_bytes()).hexdigest() == (
            "00c8bb4bfc75f051439de959ecbd9858aa530277603ab589aae945105c75035e")
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
            # the files grid checks before it writes are the files a cell holds
            assert sorted(os.listdir(out_dir / cell)) == sorted(cli.GRID_CELL_FILES)

    def test_cells_train_without_the_database_or_an_earlier_cell(self, bigger_corpus, tmp_path,
                                                                  monkeypatch):
        # Each cell's `train` starts with the 5-gram database, the dictionary
        # and every earlier cell's parameters already freed.
        def live():
            return [live_instances(cls) for cls in (NGramDatabase, Dictionary, ModelParams)]

        at_train = []
        real_train = cli.train

        def probed_train(*args, **kwargs):
            at_train.append(live())
            return real_train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", probed_train)
        before = live()
        rc = main(["grid", str(bigger_corpus), "--out-dir", str(tmp_path / "grid"),
                   "--vocab-sizes", "4,6", "--fractions", "0.5,1.0", "--epochs", "1",
                   "--batch-size", "32", "--emb-dim", "8", "--ctx-dim", "8", "--deterministic"])
        assert rc == EXIT_OK
        assert at_train == [before] * 4

    def test_hashes_each_file_once(self, bigger_corpus, tmp_path, monkeypatch):
        # The corpus once for the grid manifest and both cell manifests, and
        # each cell's checkpoint once; the 5-gram DB's TSV is hashed as it is
        # written, never read back.
        calls = count_calls(monkeypatch, file_sha256)
        out_dir = tmp_path / "grid"
        rc = main(["grid", str(bigger_corpus), "--out-dir", str(out_dir),
                   "--vocab-sizes", "6", "--fractions", "0.5,1.0", "--epochs", "1",
                   "--batch-size", "32", "--emb-dim", "8", "--ctx-dim", "8", "--deterministic"])
        assert rc == EXIT_OK
        assert sorted(Path(args[0]) for args in calls) == sorted([
            bigger_corpus, out_dir / "v6_f050" / "model.ckpt", out_dir / "v6_f100" / "model.ckpt"])

    def test_scores_the_text_table_eval_reads(self, bigger_corpus, tmp_path, monkeypatch):
        # Scoring the in-memory float64 table could pass a pair that the
        # six-decimal embeddings.txt, which `eval` reads, fails.
        scored = []
        real_eval_stage = cli.eval_stage

        def probed_eval_stage(table, *args):
            scored.append(table)
            return real_eval_stage(table, *args)

        monkeypatch.setattr(cli, "eval_stage", probed_eval_stage)
        out_dir = tmp_path / "grid"
        rc = main(["grid", str(bigger_corpus), "--out-dir", str(out_dir),
                   "--vocab-sizes", "6", "--fractions", "1.0", "--epochs", "1",
                   "--batch-size", "32", "--emb-dim", "8", "--ctx-dim", "8", "--deterministic"])
        assert rc == EXIT_OK
        (table,) = scored
        text = read_embeddings_text(out_dir / "v6_f100" / "embeddings.txt")
        assert table.words == text.words
        assert np.array_equal(table.vectors, text.vectors)

    def test_rejects_off_grid_fraction(self, bigger_corpus, tmp_path, capsys):
        rc = main(["grid", str(bigger_corpus), "--out-dir", str(tmp_path / "g"),
                   "--vocab-sizes", "4", "--fractions", "0.33"])
        assert rc == EXIT_INPUT
        assert "fraction" in capsys.readouterr().err


STAGE_SETTINGS = ["--deterministic"]
SEED_SETTINGS = ["--seed", "5"]  # for the commands that read it
DATASET_SETTINGS = ["--validation-ratio", "0.2", "--include-boundary"]
TRAIN_SETTINGS = ["--epochs", "2", "--batch-size", "32", "--learning-rate", "0.01",
                  "--emb-dim", "8", "--ctx-dim", "8"]


@pytest.fixture
def staged_and_grid(bigger_corpus, tmp_path):
    """The same flags run once as the five stage commands and once as a
    2 x 2 grid whose v6_f050 cell has the staged |V| and fraction; returns
    the staged directory and the grid directory."""
    staged = tmp_path / "staged"
    staged.mkdir()
    ds = staged / "dataset.tsv"
    emb = staged / "embeddings.txt"
    for argv in (
        ["ingest", str(bigger_corpus), "--out-db", str(staged / "ngrams.tsv"),
         "--out-dict", str(staged / "dictionary.tsv")],
        ["dataset", str(staged / "ngrams.tsv"), "--vocab-size", "6", "--fraction", "0.5",
         "--out", str(ds), *DATASET_SETTINGS, *SEED_SETTINGS],
        ["train", str(ds), "--out-checkpoint", str(staged / "model.ckpt"),
         "--out-log", str(staged / "run_log.tsv"), *TRAIN_SETTINGS, *SEED_SETTINGS],
        ["export", str(staged / "model.ckpt"), "--vocab", str(ds) + ".vocab.tsv",
         "--out", str(emb)],
        ["eval", str(emb), "--out", str(staged / "report.json")],
    ):
        assert main([*argv, *STAGE_SETTINGS]) == EXIT_OK
    grid = tmp_path / "grid"
    assert main(["grid", str(bigger_corpus), "--out-dir", str(grid), "--vocab-sizes", "4,6",
                 "--fractions", "0.5,1.0", *DATASET_SETTINGS, *TRAIN_SETTINGS,
                 *SEED_SETTINGS, *STAGE_SETTINGS]) == EXIT_OK
    return staged, grid


class TestGridMatchesStages:
    def test_cell_files_are_byte_identical(self, staged_and_grid):
        staged, grid = staged_and_grid
        cell = grid / "v6_f050"
        same = {
            "ngrams.tsv": grid / "ngrams.tsv",
            "ngrams.tsv.bin": grid / "ngrams.tsv.bin",
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
            record = json.loads(manifest.read_text())
            for key, value in record["config"].items():
                # input and output paths differ between the two runs
                if key.startswith("out") or key in record["inputs"]:
                    continue
                assert cell_config[key] == value, (manifest.name, key)
                if key not in ("vocab_size", "fraction"):
                    assert grid_config[key] == value, (manifest.name, key)
        assert (grid_config["vocab_sizes"], grid_config["fractions"]) == ([4, 6], [0.5, 1.0])

    def test_manifest_configs_record_every_parsed_argument(self, staged_and_grid):
        # A manifest's config is the parsed namespace less four keys, so a
        # flag added to a command is recorded without naming it anywhere
        # else; a grid cell adds its |V| and fraction.
        (commands,) = [action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]

        def dests(command):
            parser = commands.choices[command]
            return ({action.dest for action in parser._actions
                     if not isinstance(action, argparse._HelpAction)} | set(parser._defaults)
                    ) - {"func", "command", "threads", "deterministic"}

        staged, grid = staged_and_grid
        manifests = [*staged.glob("*.manifest.json"), grid / "grid.manifest.json",
                     *grid.glob("v*/manifest.json")]
        recorded = {}
        for path in manifests:
            manifest = json.loads(path.read_text(encoding="utf-8"))
            recorded.setdefault(manifest["subcommand"], []).append(set(manifest["config"]))
        assert recorded == {
            **{command: [dests(command)] for command in ("ingest", "dataset", "train", "export",
                                                         "eval", "grid")},
            "grid-cell": [dests("grid") | {"vocab_size", "fraction"}] * 4,
        }


def _edit_row(dataset, edit, line=2):
    """Replace the fields of the dataset's `line` (line 2 is the first row) with `edit(fields)`."""
    lines = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[line - 1] = "\t".join(edit(lines[line - 1].rstrip("\n").split("\t"))) + "\n"
    dataset.write_text("".join(lines), encoding="utf-8")


def _drop_header_key(dataset, key):
    header, *rows = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    kept = [f for f in header.rstrip("\n").split("\t") if not f.startswith(f"#{key}=")]
    dataset.write_text("\t".join(kept) + "\n" + "".join(rows), encoding="utf-8")


def _set_header_key(dataset, key, value):
    header, *rows = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = [f"#{key}={value}" if f.startswith(f"#{key}=") else f
              for f in header.rstrip("\n").split("\t")]
    dataset.write_text("\t".join(fields) + "\n" + "".join(rows), encoding="utf-8")


def _repeat_header_key(dataset, key):
    header, *rows = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    field = next(f for f in header.rstrip("\n").split("\t") if f.startswith(f"#{key}="))
    dataset.write_text(header.rstrip("\n") + "\t" + field + "\n" + "".join(rows),
                       encoding="utf-8")


def _empty_line_after(dataset, n_rows):
    header, *rows = dataset.read_text(encoding="utf-8").splitlines(keepends=True)
    dataset.write_text(header + "".join(rows[:n_rows]) + "\n" + "".join(rows[n_rows:]),
                       encoding="utf-8")


def _train_on(break_dataset, flags=()):
    """Case builder: break the prepared dataset, then train on it with `flags`."""
    def argv(dataset, tmp_path):
        break_dataset(dataset)
        return ["train", str(dataset), "--out-checkpoint", str(tmp_path / "m.ckpt"),
                "--out-log", str(tmp_path / "log.tsv"), "--epochs", "1",
                "--emb-dim", "8", "--ctx-dim", "8", *flags]
    return argv


def _eval_on(embeddings="2 2\nolá 0.1 0.2\nbom 0.3 0.4\n", classes=None, pairs=None,
             flags=()):
    """Case builder: eval an embeddings file, against gold files when given."""
    def argv(dataset, tmp_path):
        emb = tmp_path / "emb.txt"
        emb.write_text(embeddings, encoding="utf-8")
        args = ["eval", str(emb), "--out", str(tmp_path / "report.json"), *flags]
        for flag, text in (("--classes", classes), ("--pairs", pairs)):
            if text is not None:
                path = tmp_path / f"{flag[2:]}.tsv"
                path.write_text(text, encoding="utf-8")
                args += [flag, str(path)]
        return args
    return argv


def _with_header(data, edit_header):
    """Checkpoint (or 5-gram sidecar) bytes with the JSON header edited in
    place by `edit_header` and the length field set to match."""
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12:12 + header_len])
    edit_header(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return data[:8] + len(blob).to_bytes(4, "little") + blob + data[12 + header_len:]


def _export_blank_hash_reversed(dataset, tmp_path):
    """Case: export a checkpoint whose header carries an empty vocabulary
    hash with the vocabulary reversed; the empty hash must not skip the
    vocabulary check. `train` no longer writes such a checkpoint, so a
    valid one's header is rewritten."""
    ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
    ckpt.write_bytes(_with_header(ckpt.read_bytes(), lambda h: h.update(vocab_hash="")))
    reversed_vocab = tmp_path / "reversed.vocab.tsv"
    write_vocabulary(read_vocabulary(vocab_path)[::-1], reversed_vocab)
    return ["export", str(ckpt), "--vocab", str(reversed_vocab),
            "--out", str(tmp_path / "emb.txt")]


def _export_broken_checkpoint(edit_header=lambda header: None, cut=None, tail=b""):
    """Case builder: rewrite a valid checkpoint (header edit, truncation or
    appended bytes), then export from it."""
    def argv(dataset, tmp_path):
        ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
        data = _with_header(ckpt.read_bytes(), edit_header) + tail
        ckpt.write_bytes(data[:cut])
        return ["export", str(ckpt), "--vocab", str(vocab_path),
                "--out", str(tmp_path / "emb.txt")]
    return argv


def _export_nested_header(dataset, tmp_path):
    """Case: export a checkpoint whose JSON header nests a list 100,000
    deep, past what the decoder's recursion limit allows."""
    ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
    data = ckpt.read_bytes()
    body_start = 12 + int.from_bytes(data[8:12], "little")
    blob = b'{"seed": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
    ckpt.write_bytes(data[:8] + len(blob).to_bytes(4, "little") + blob + data[body_start:])
    return ["export", str(ckpt), "--vocab", str(vocab_path), "--out", str(tmp_path / "emb.txt")]


def _colliding(command, *option_pairs):
    """Case builder: a valid `command` run whose output options (flag,
    file name) name one file twice; that file must not be written."""
    def argv(dataset, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("olá mundo\n", encoding="utf-8")
        emb = tmp_path / "emb.txt"
        emb.write_text("2 2\nolá 0.1 0.2\nbom 0.3 0.4\n", encoding="utf-8")
        base = {
            "ingest": ["ingest", corpus],
            "train": ["train", dataset, "--epochs", "1", "--emb-dim", "8", "--ctx-dim", "8"],
            "eval": ["eval", emb],
        }[command]
        outputs = [arg for flag, name in option_pairs for arg in (flag, tmp_path / name)]
        return [str(arg) for arg in base + outputs]
    return argv


def _output_at_input(command, option, name):
    """Case builder: a valid `command` run whose output `option` (given
    last, so it wins) names the file `name` in tmp_path that the command
    reads; no file may be written."""
    def argv(dataset, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("olá mundo\n", encoding="utf-8")
        ckpt, vocab_path, classes, pairs = clustered_checkpoint(tmp_path)
        emb = tmp_path / "emb.txt"
        emb.write_text("2 2\nolá 0.1 0.2\nbom 0.3 0.4\n", encoding="utf-8")
        base = {
            "ingest": ["ingest", corpus, "--out-db", tmp_path / "x.tsv",
                       "--out-dict", tmp_path / "x.dict"],
            "dataset": ["dataset", tmp_path / "ngrams.tsv", "--vocab-size", "3",
                        "--out", tmp_path / "ds.tsv"],
            "train": ["train", dataset, "--out-checkpoint", tmp_path / "m.ckpt",
                      "--out-log", tmp_path / "log.tsv", "--epochs", "1",
                      "--emb-dim", "8", "--ctx-dim", "8"],
            "export": ["export", ckpt, "--vocab", vocab_path, "--out", tmp_path / "e.txt"],
            "eval": ["eval", emb, "--classes", classes, "--pairs", pairs,
                     "--out", tmp_path / "r.json"],
            "grid": ["grid", tmp_path / "ngrams.tsv", "--out-dir", tmp_path / "grid",
                     "--vocab-sizes", "2", "--fractions", "1.0", "--include-boundary",
                     "--epochs", "1", "--emb-dim", "4", "--ctx-dim", "4"],
        }[command]
        return [str(arg) for arg in base + [option, tmp_path / name]]
    return argv


def _vocab_file(text):
    """Case builder: export a valid checkpoint with `text` as its vocabulary file."""
    def argv(dataset, tmp_path):
        ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
        vocab_path.write_text(text, encoding="utf-8")
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


def _corpus_with_invalid_utf8(command):
    """Case builder: `command` on a corpus whose first invalid UTF-8 byte
    comes after the first chunk the reader decodes, once some lines have
    already been counted."""
    def argv(dataset, tmp_path):
        corpus = tmp_path / "corpus.txt"
        line = b"ol\xc3\xa1 mundo bom dia\n"
        valid = line * (cli.CORPUS_CHUNK_BYTES // len(line) + 2000)
        corpus.write_bytes(valid + b"caf\xff\n" + line)
        base = {
            "ingest": ["ingest", corpus, "--out-db", tmp_path / "ngrams.tsv",
                       "--out-dict", tmp_path / "dictionary.tsv"],
            "grid": ["grid", corpus, "--out-dir", tmp_path / "grid", "--vocab-sizes", "2",
                     "--fractions", "1.0", "--epochs", "1", "--emb-dim", "4", "--ctx-dim", "4"],
        }[command]
        return [str(arg) for arg in base]
    return argv


def _grid_on_small_corpus(*flags, corpus="corpus.txt",
                          text="olá mundo bom dia\nbom dia meu amigo\n", gold=()):
    """Case builder: grid on the corpus `text` (by default two tweets of six
    words), written to `corpus` under tmp_path, with `flags`. Each (flag,
    file text) in `gold` is written to a file and passed as that flag."""
    def argv(dataset, tmp_path):
        path = tmp_path / corpus
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        files = []
        for flag, content in gold:
            (tmp_path / f"{flag[2:]}.tsv").write_text(content, encoding="utf-8")
            files += [flag, tmp_path / f"{flag[2:]}.tsv"]
        return [str(arg) for arg in ["grid", path, "--out-dir", tmp_path / "grid", *flags, *files]]
    return argv


def _on_missing_inputs(command, *flags):
    """Case builder: `command` on input files that do not exist, with `flags` last."""
    def argv(dataset, tmp_path):
        missing = tmp_path / "missing"
        base = {
            "ingest": ["ingest", missing, "--out-db", tmp_path / "x.tsv",
                       "--out-dict", tmp_path / "x.dict"],
            "dataset": ["dataset", missing, "--vocab-size", "3", "--out", tmp_path / "ds.tsv"],
            "train": ["train", missing, "--out-checkpoint", tmp_path / "m.ckpt",
                      "--out-log", tmp_path / "log.tsv"],
            "export": ["export", missing, "--vocab", missing, "--out", tmp_path / "e.txt"],
            "eval": ["eval", missing, "--classes", missing, "--pairs", missing,
                     "--out", tmp_path / "r.json"],
            "grid": ["grid", missing, "--out-dir", tmp_path / "grid", "--vocab-sizes", "2",
                     "--classes", missing, "--pairs", missing],
        }[command]
        return [str(arg) for arg in [*base, *flags]]
    return argv


def _dataset_from_db(break_db, text="a b c d e\nb c d e a\n",
                     flags=("--vocab-size", "3", "--include-boundary")):
    """A case that ingests the corpus `text`, breaks its 5-gram database
    with `break_db(tsv_path, bin_path)` and runs dataset with `flags`."""
    def argv(dataset, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(text, encoding="utf-8")
        rc, db, _ = ingest(corpus, tmp_path)
        assert rc == EXIT_OK
        break_db(db, db.with_suffix(".tsv.bin"))
        return ["dataset", str(db), *flags, "--out", str(tmp_path / "ds.tsv")]
    return argv


def _edit_tsv_body(edit_body):
    """A `_dataset_from_db` break: the TSV's rows rewritten by `edit_body`."""
    def break_db(tsv, sidecar):
        header, *body = tsv.read_text(encoding="utf-8").splitlines(keepends=True)
        tsv.write_text(header + "".join(edit_body(body)), encoding="utf-8")
    return break_db


def _edit_bin_header(**values):
    """A `_dataset_from_db` break: the binary database's header given
    `values`, its body and both hashes kept."""
    def break_db(tsv, sidecar):
        header, body = read_container(sidecar.read_bytes(), NGRAM_DB_MAGIC)
        write_container(sidecar, NGRAM_DB_MAGIC, {**header, **values}, [body])
    return break_db


def _forge_db(edit):
    """A `_dataset_from_db` break: the binary database's rows and counts
    replaced by `edit(records, counts)`, its hashes made to match."""
    def break_db(tsv, sidecar):
        header, types, records, counts = _split_sidecar(sidecar.read_bytes())
        sidecar.write_bytes(_join_sidecar(header, types, *edit(records, counts)))
    return break_db


# Case -> (build the failing argv from the prepared dataset and tmp_path;
# text the error must carry). The dataset has |V| = 6, so context ids run
# 0..9 and targets 0..5.
MALFORMED_INPUTS = {
    "negative context id": (_train_on(lambda ds: _edit_row(ds, lambda f: ["-1", *f[1:]])),
                            "out of range"),
    "context id past the boundary rows": (
        _train_on(lambda ds: _edit_row(ds, lambda f: ["10", *f[1:]])), "out of range"),
    "target equal to |V|": (_train_on(lambda ds: _edit_row(ds, lambda f: [*f[:4], "6"])),
                            "out of range"),
    "row with four fields": (_train_on(lambda ds: _edit_row(ds, lambda f: f[:4])),
                             "dataset.tsv:2: expected 5 integer fields"),
    "float context id": (_train_on(lambda ds: _edit_row(ds, lambda f: ["1.5", *f[1:]])),
                         "dataset.tsv:2: expected 5 integer fields"),
    "nan context id": (_train_on(lambda ds: _edit_row(ds, lambda f: ["nan", *f[1:]])),
                       "dataset.tsv:2: expected 5 integer fields"),
    # np.loadtxt numbers these rows 1 (from 0) and 2 (from 1); the error names the file's line.
    "second row starting with #": (
        _train_on(lambda ds: _edit_row(ds, lambda f: ["#" + f[0], *f[1:]], line=3)),
        "dataset.tsv:3: expected 5 integer fields"),
    "second row with six fields": (
        _train_on(lambda ds: _edit_row(ds, lambda f: [*f, "6"], line=3)),
        "dataset.tsv:3: expected 5 integer fields"),
    "empty line before the first row": (
        _train_on(lambda ds: _edit_row(ds, lambda f: ["\n" + f[0], *f[1:]])),
        ":2: expected 5 integer fields, got an empty line"),
    # The prepared dataset has 359 rows, on lines 2 to 360.
    "empty line between two rows": (
        _train_on(lambda ds: _empty_line_after(ds, 100)),
        "dataset.tsv:102: expected 5 integer fields, got an empty line"),
    "empty line after the last row": (
        _train_on(lambda ds: _empty_line_after(ds, 359)),
        "dataset.tsv:361: expected 5 integer fields, got an empty line"),
    "header without #train=": (_train_on(lambda ds: _drop_header_key(ds, "train")), "#train="),
    "blank #vocab_hash=": (_train_on(lambda ds: _set_header_key(ds, "vocab_hash", "")),
                           "dataset.tsv:1: #vocab_hash='' is not the 64 lowercase hex digits"),
    "#train= not a number": (_train_on(lambda ds: _set_header_key(ds, "train", "x")),
                             "dataset.tsv:1: malformed dataset header (invalid literal for int()"),
    "header repeating #train=": (_train_on(lambda ds: _repeat_header_key(ds, "train")),
                                 "dataset.tsv:1: dataset header repeats #train="),
    # No machine's memory holds the arrays of this |V|, so train refuses it
    # before allocating; a |V| whose model could fit in RAM must never be
    # tried here.
    "header declaring an unallocatable |V|": (
        _train_on(lambda ds: _set_header_key(ds, "vocab_size", "1000000000000000")),
        "physical memory is"),
    "embeddings with more rows than the header": (
        _eval_on("2 2\nolá 0.1 0.2\nbom 0.3 0.4\ndia 0.5 0.6\n"), "rows"),
    "embeddings header of three numbers": (_eval_on("3 2 1\nolá 0.1 0.2\n"),
                                           "emb.txt:1: expected a header of 2 counts, got '3 2 1'"),
    "embeddings header with a negative count": (
        _eval_on("-1 2\nolá 0.1 0.2\n"), "emb.txt:1: expected a header of 2 counts, got '-1 2'"),
    "embeddings row with a non-number": (_eval_on("2 2\nolá 0.1 0.2\nbom 0.3 zz\n"),
                                         "emb.txt:3: could not convert string to float: 'zz'"),
    # 466 TiB of float64: more than any address space holds.
    "embeddings header declaring an unallocatable table": (
        _eval_on("1000000000000 64\nolá 0.1 0.2\n"),
        "emb.txt:1: header '1000000000000 64': Unable to allocate"),
    "embeddings repeating a word": (_eval_on("3 2\nmonday 1 0\ntuesday 0 1\nmonday 0 1\n"),
                                    "'monday' more than once"),
    "--classes line without a tab": (_eval_on(classes="months\tjaneiro\nfevereiro\n"),
                                     "classes.tsv:2: expected 2 tab-separated fields, got 1"),
    "--pairs line with two tabs": (_eval_on(pairs="pq\tporque\tporquê\n"),
                                   "pairs.tsv:1: expected 2 tab-separated fields, got 3"),
    # Only "# " starts a comment: "#note" is a hashtag line without its pair.
    "--pairs hashtag line without a tab": (
        _eval_on(pairs="# comment\n#note\n"),
        "pairs.tsv:2: expected 2 tab-separated fields, got 1"),
    "--membership-thresholds above 1": (
        _eval_on(flags=("--membership-thresholds", "0.5,1.5")),
        "argument --membership-thresholds: '1.5' is not a number in (0, 1)"),
    "--distinction-thresholds below 0": (
        _eval_on(flags=("--distinction-thresholds", "-0.2")),
        "argument --distinction-thresholds: '-0.2' is not a number in (0, 1)"),
    "--equivalence-thresholds nan": (
        _eval_on(flags=("--equivalence-thresholds", "nan")),
        "argument --equivalence-thresholds: 'nan' is not a number in (0, 1)"),
    "--membership-thresholds item not a number": (
        _eval_on(flags=("--membership-thresholds", "0.5,0.8x")),
        "argument --membership-thresholds: '0.8x' is not a number in (0, 1)"),
    "checkpoint with trailing bytes": (_export_broken_checkpoint(tail=b"junk"),
                                       "4 trailing bytes"),
    "checkpoint format 2": (_export_broken_checkpoint(lambda h: h.update(format=2)),
                            "format 2"),
    "checkpoint header without hyper": (_export_broken_checkpoint(lambda h: h.pop("hyper")),
                                        "lacks hyper"),
    "checkpoint shorter than its length field": (_export_broken_checkpoint(cut=10),
                                                 "no header length"),
    "checkpoint cut inside an array": (_export_broken_checkpoint(cut=-8), "truncated"),
    # The header's hyperparameters alone fix the body's length.
    "checkpoint shape not implied by hyper": (
        _export_broken_checkpoint(lambda h: h["hyper"].update(d_ctx=4)),
        "truncated checkpoint (920 body bytes, header implies 1104)"),
    "checkpoint hyper size as a string": (
        _export_broken_checkpoint(lambda h: h["hyper"].update(d_in="4")), "wrong type"),
    "export on a checkpoint whose hyper carries sigmoid_logits": (
        _export_broken_checkpoint(lambda h: h["hyper"].update(sigmoid_logits=False)),
        "checkpoint hyper has unexpected key sigmoid_logits"),
    "checkpoint header nested 100,000 deep": (_export_nested_header, "unreadable header"),
    "checkpoint with an empty vocabulary hash, reversed vocabulary": (
        _export_blank_hash_reversed, "vocabulary/checkpoint mismatch"),
    "eval --out is a directory": (_directory_at("eval", "--out"), "Is a directory"),
    "export --out is a directory": (_directory_at("export", "--out"), "Is a directory"),
    "ingest --out-db is a directory": (_directory_at("ingest", "--out-db"), "Is a directory"),
    "train --out-checkpoint is a directory": (_directory_at("train", "--out-checkpoint"),
                                              "Is a directory"),
    "grid --classes is a directory": (_directory_at("grid", "--classes"), "Is a directory"),
    "eval --out report.txt, the text table's own path": (
        _colliding("eval", ("--out", "report.txt")), "name the same file"),
    "ingest --out-db and --out-dict naming one file": (
        _colliding("ingest", ("--out-db", "x"), ("--out-dict", "x")), "name the same file"),
    "ingest --out-dict at the 5-gram DB's binary sidecar": (
        _colliding("ingest", ("--out-db", "x.tsv"), ("--out-dict", "x.tsv.bin")),
        "name the same file"),
    "train --out-checkpoint and --out-log naming one file": (
        _colliding("train", ("--out-checkpoint", "m"), ("--out-log", "m")),
        "name the same file"),
    "train --out-log at the checkpoint's manifest": (
        _colliding("train", ("--out-checkpoint", "m"), ("--out-log", "m.manifest.json")),
        "name the same file"),
    "ingest --out-db at its corpus": (
        _output_at_input("ingest", "--out-db", "corpus.txt"), "name the same file"),
    "ingest --out-dict at its corpus": (
        _output_at_input("ingest", "--out-dict", "corpus.txt"), "name the same file"),
    "dataset --out at its 5-gram DB": (
        _output_at_input("dataset", "--out", "ngrams.tsv"), "name the same file"),
    "dataset --out at its 5-gram DB's binary sidecar": (
        _output_at_input("dataset", "--out", "ngrams.tsv.bin"), "name the same file"),
    "train --out-checkpoint at its dataset": (
        _output_at_input("train", "--out-checkpoint", "dataset.tsv"), "name the same file"),
    "train --out-log at its dataset": (
        _output_at_input("train", "--out-log", "dataset.tsv"), "name the same file"),
    "export --out at its vocabulary": (
        _output_at_input("export", "--out", "vocab.tsv"), "name the same file"),
    "eval --out at its gold classes": (
        _output_at_input("eval", "--out", "classes.tsv"), "name the same file"),
    "grid --out-dir holding its corpus as ngrams.tsv": (
        _output_at_input("grid", "--out-dir", "."), "name the same file"),
    "export --vocab line without a tab": (_vocab_file("a1\t0\na2\n"),
                                          "vocab.tsv:2: expected 2 tab-separated fields, got 1"),
    "export --vocab id out of order": (_vocab_file("a1\t0\na2\t2\n"),
                                       "vocab.tsv:2: expected id 1, got '2'"),
    "export --vocab id in non-ASCII digits": (_vocab_file("a1\t0\na2\t\u0661\n"),
                                              "vocab.tsv:2: expected id 1, got '\u0661'"),
    "export --vocab id with a plus sign": (_vocab_file("a1\t+0\n"),
                                           "vocab.tsv:1: expected id 0, got '+0'"),
    "export --vocab repeating a word": (_vocab_file("a1\t0\na2\t1\na1\t2\n"),
                                        "vocab.tsv:3: word 'a1' is listed twice"),
    "ingest on a corpus with an invalid UTF-8 byte": (_corpus_with_invalid_utf8("ingest"),
                                                      "can't decode byte 0xff"),
    "grid on a corpus with an invalid UTF-8 byte": (_corpus_with_invalid_utf8("grid"),
                                                    "can't decode byte 0xff"),
    # Both runs of a repeated value would write one cell directory.
    "grid repeating a vocabulary size": (
        _grid_on_small_corpus("--vocab-sizes", "6,6", "--fractions", "0.5,0.5"),
        "argument --vocab-sizes: '6,6' names 6 more than once"),
    "grid --vocab-sizes item not an integer": (
        _grid_on_small_corpus("--vocab-sizes", "6,12x", "--fractions", "1.0"),
        "argument --vocab-sizes: '12x' is not an integer of at least 1"),
    "grid --vocab-sizes naming no size": (
        _grid_on_small_corpus("--vocab-sizes", ",", "--fractions", "1.0"),
        "argument --vocab-sizes: ',' names no value"),
    "grid --fractions item not a number": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0,0.5x"),
        "argument --fractions: '0.5x' is not one of the paper's fractions 0.25, 0.5, 0.75, 1.0"),
    "grid repeating a fraction": (
        _grid_on_small_corpus("--vocab-sizes", "2", "--fractions", "1.0,0.5,1"),
        "argument --fractions: '1.0,0.5,1' names 1.0 more than once"),
    # Both are found after the corpus is read, and before anything is written.
    "grid with a vocabulary size above the dictionary's": (
        _grid_on_small_corpus("--vocab-sizes", "999", "--fractions", "1.0"),
        "requested vocabulary size 999 exceeds dictionary length 6"),
    "grid with a vocabulary size no 5-gram qualifies for": (
        _grid_on_small_corpus("--vocab-sizes", "1", "--fractions", "1.0"),
        "no 5-grams qualify for vocabulary size 1"),
    # The 1.0 cell could train; the 0.25 cell's 3 examples leave it none.
    "grid with a cell whose split has no training rows": (
        _grid_on_small_corpus("--vocab-sizes", "7", "--fractions", "1.0,0.25", "--epochs", "1",
                              text="a b c d e f g\n"),
        "3 examples leave no training rows at validation ratio 0.1 and fraction 0.25"),
    # These are found from the gold data alone, before the corpus is read.
    "grid with one gold class": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0", "--include-boundary",
                              "--epochs", "1", gold=[("--classes", "dias\tbom\ndias\tdia\n")]),
        "class distinction needs at least 2 classes"),
    "grid with no equivalence pairs": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0", "--include-boundary",
                              "--epochs", "1", gold=[("--pairs", "# none\n")]),
        "coverage needs at least one pair"),
    "grid writing a cell's dataset.tsv over its corpus": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0", "--include-boundary",
                              "--epochs", "1", corpus="grid/v6_f100/dataset.tsv"),
        "name the same file"),
    "5-gram DB with its body twice": (
        _dataset_from_db(_forge_db(lambda records, counts: (np.concatenate([records] * 2),
                                                            np.concatenate([counts] * 2)))),
        "ngrams.tsv.bin: rows are not strictly ascending; re-run ingest"),
    "5-gram DB counts not summing to #total_tokens": (
        _dataset_from_db(_forge_db(lambda records, counts: (records[1:], counts[1:]))),
        "ngrams.tsv.bin: counts do not sum to total_tokens=10 below 2^63; re-run ingest"),
    "5-gram DB count below 1": (  # 0 and 2 keep the sum
        _dataset_from_db(_forge_db(lambda records, counts: (records, np.r_[0, 2, counts[2:]]))),
        "ngrams.tsv.bin: a count is below 1; re-run ingest"),
    # The TSV is a text view no stage parses; any edit unbinds the database.
    "5-gram DB count with a plus sign": (
        _dataset_from_db(_edit_tsv_body(
            lambda body: [body[0].replace("\t1\n", "\t+1\n"), *body[1:]])),
        "ngrams.tsv.bin: written for other TSV bytes"),
    "dataset with its 5-gram DB's .bin deleted": (
        _dataset_from_db(lambda tsv, sidecar: sidecar.unlink()),
        "ngrams.tsv.bin: no such file; re-run ingest"),
    "dataset whose split has no training rows": (
        _dataset_from_db(lambda tsv, sidecar: None, "a b c d e f g\n",
                         ("--vocab-size", "7", "--fraction", "0.25")),
        "3 examples leave no training rows at validation ratio 0.1 and fraction 0.25"),
    "dataset with its 5-gram DB's TSV deleted": (
        _dataset_from_db(lambda tsv, sidecar: tsv.unlink()),
        "ngrams.tsv: no such file; re-run ingest"),
    # The body hash does not cover the header; the TSV's header line binds the totals.
    "5-gram DB .bin claiming 7 tweets for a 4-tweet corpus": (
        _dataset_from_db(_edit_bin_header(total_tweets=7), "a b c d e\nb c d e a\na a b\nc d\n"),
        "ngrams.tsv.bin: header totals 7, 15 are not the TSV's; re-run ingest"),
    "train --learning-rate nan": (_train_on(lambda ds: None, ("--learning-rate", "nan")),
                                  "argument --learning-rate: 'nan' is not a finite number above 0"),
    "grid --learning-rate inf": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0", "--include-boundary",
                              "--epochs", "1", "--learning-rate", "inf"),
        "argument --learning-rate: 'inf' is not a finite number above 0"),
    "train --seed -1": (_train_on(lambda ds: None, ("--seed", "-1")),
                        "argument --seed: '-1' is not an integer of at least 0"),
    "grid --seed -1": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0", "--include-boundary",
                              "--epochs", "1", "--seed", "-1"),
        "argument --seed: '-1' is not an integer of at least 0"),
    "grid --validation-ratio 1.5": (
        _grid_on_small_corpus("--vocab-sizes", "6", "--fractions", "1.0", "--include-boundary",
                              "--epochs", "1", "--validation-ratio", "1.5"),
        "argument --validation-ratio: '1.5' is not a number in (0, 1)"),
    # Every command refuses a bad flag as it parses it, before it reads an
    # input (none of these exists) or writes a file.
    "ingest --threads x": (_on_missing_inputs("ingest", "--threads", "x"),
                           "argument --threads: invalid int value: 'x'"),
    "dataset --vocab-size 0": (_on_missing_inputs("dataset", "--vocab-size", "0"),
                               "argument --vocab-size: '0' is not an integer of at least 1"),
    "dataset --validation-ratio 0": (
        _on_missing_inputs("dataset", "--validation-ratio", "0"),
        "argument --validation-ratio: '0' is not a number in (0, 1)"),
    "dataset --fraction 0.3": (
        _on_missing_inputs("dataset", "--fraction", "0.3"),
        "argument --fraction: '0.3' is not one of the paper's fractions 0.25, 0.5, 0.75, 1.0"),
    "train --epochs 0": (_on_missing_inputs("train", "--epochs", "0"),
                         "argument --epochs: '0' is not an integer of at least 1"),
    "train --emb-dim -4": (_on_missing_inputs("train", "--emb-dim", "-4"),
                           "argument --emb-dim: '-4' is not an integer of at least 1"),
    "export --threads 1.5": (_on_missing_inputs("export", "--threads", "1.5"),
                             "argument --threads: invalid int value: '1.5'"),
    "eval --membership-thresholds 1.5": (
        _on_missing_inputs("eval", "--membership-thresholds", "1.5"),
        "argument --membership-thresholds: '1.5' is not a number in (0, 1)"),
    "grid --batch-size 0": (_on_missing_inputs("grid", "--batch-size", "0"),
                            "argument --batch-size: '0' is not an integer of at least 1"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_without_traceback(case, prepared_dataset, tmp_path, capsys):
    build_argv, message = MALFORMED_INPUTS[case]
    argv = build_argv(prepared_dataset, tmp_path)

    def files():
        return {path: path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")}

    before = files()
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    # A flag is refused as it is parsed, before any command starts; grid,
    # dataset and export also read all their inputs before they write.
    if (argv[0] in ("grid", "dataset", "export") or err.startswith("error: argument --")
            or message in ("name the same file", "can't decode byte 0xff")):
        assert files() == before
    if argv[0] == "train":  # a train run that exits 2 leaves no checkpoint
        assert not Path(argv[argv.index("--out-checkpoint") + 1]).is_file()


def test_invalid_utf8_error_names_the_corpus_and_the_offset(tmp_path, capsys):
    argv = _corpus_with_invalid_utf8("ingest")(None, tmp_path)
    corpus = tmp_path / "corpus.txt"
    valid = corpus.read_bytes().partition(b"caf\xff")[0]
    assert main(argv) == EXIT_INPUT
    assert (f"{corpus}: can't decode byte 0xff at byte offset {len(valid) + 3} "
            in capsys.readouterr().err)


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
    """A valid 5-gram TSV, as lists of tab-separated fields per line, and
    the bytes of the binary database bound to it."""
    tmp_path = tmp_path_factory.mktemp("valid_db")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c d e\nb c d e a\na a b\nc d\n", encoding="utf-8")
    _, db, _ = ingest(corpus, tmp_path)
    lines = [line.split("\t") for line in db.read_text(encoding="utf-8").splitlines()]
    return lines, db.with_suffix(".tsv.bin").read_bytes()


# int() takes each of the last five; the writer writes none of them.
NOT_DECIMAL = ["+3", " 3", "3 ", "\u0663", "1_0"]
DB_HEADER_VALUES = st.sampled_from(["", "x", "1.5", "-1", "0", "4", "15", str(2 ** 70),
                                    *NOT_DECIMAL])
DB_COUNTS = st.sampled_from(["0", "-1", "1.5", "x", "1", "2", *NOT_DECIMAL])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_ngram_db_makes_dataset_or_exits_2(valid_ngram_db_lines, data):
    valid_lines, sidecar = valid_ngram_db_lines
    lines = [list(fields) for fields in valid_lines]
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
        Path(tmp, "ngrams.tsv.bin").write_bytes(sidecar)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["dataset", str(db), "--vocab-size", "3", "--include-boundary",
                       "--out", str(Path(tmp) / "dataset.tsv")])
    # The binary database beside the TSV is bound to the TSV's bytes: any
    # edit that changes one leaves it stale.
    valid_text = "".join("\t".join(fields) + "\n" for fields in valid_lines)
    assert rc == (EXIT_OK if text == valid_text else EXIT_INPUT), text
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def valid_sidecar(tmp_path_factory):
    """A small ingested corpus: the TSV's bytes, its binary database's bytes
    and the dataset they give."""
    tmp_path = tmp_path_factory.mktemp("valid_sidecar")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a b c d e\nb c d e a\na a b\nc d\n", encoding="utf-8")
    _, db, _ = ingest(corpus, tmp_path)
    data = db.with_suffix(".tsv.bin").read_bytes()
    assert _join_sidecar(*_split_sidecar(data)) == data
    _, out = make_dataset(db, tmp_path, 3, "--include-boundary")
    return db.read_bytes(), data, out.read_bytes()


def _split_sidecar(data):
    """A sidecar's JSON header and its body as (types, records, counts)."""
    header_len = int.from_bytes(data[8:12], "little")
    header = json.loads(data[12:12 + header_len])
    body = data[12 + header_len:]
    types = body[:header["types_bytes"]].decode("utf-8").split("\n")
    records = np.frombuffer(body, "<i4", 5 * header["rows"], header["types_bytes"])
    counts = np.frombuffer(body, "<i8", header["rows"], header["types_bytes"] + records.nbytes)
    return header, types, records.reshape(-1, 5).copy(), counts.copy()


def _join_sidecar(header, types, records, counts):
    """Sidecar bytes with `header`, its sizes and body hash made to match the body."""
    types_bytes = "\n".join(types).encode("utf-8")
    body = types_bytes + records.astype("<i4").tobytes() + counts.astype("<i8").tobytes()
    header = {**header, "types_bytes": len(types_bytes), "rows": len(records),
              "body_sha256": hashlib.sha256(body).hexdigest()}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return b"EMBNGRM1" + len(blob).to_bytes(4, "little") + blob + body


def _forge(break_rule):
    """A mutation: a sidecar whose hashes match but whose body breaks one
    invariant, edited in place by `break_rule(types, records, counts, draw)`."""
    def mutate(data, draw):
        header, types, records, counts = _split_sidecar(data)
        break_rule(types, records, counts, draw)
        return _join_sidecar(header, types, records, counts)
    return mutate


def _id_past_the_types(types, records, counts, draw):
    # In the last row, so the rows still ascend.
    records[-1, draw(st.integers(0, 4), label="column")] = len(types)


def _swap_rows(types, records, counts, draw):
    i = draw(st.integers(0, len(records) - 2), label="row")
    records[[i, i + 1]] = records[[i + 1, i]]
    counts[[i, i + 1]] = counts[[i + 1, i]]


def _zero_count(types, records, counts, draw):
    # Its count moves to another row, so the counts still sum to the total.
    i, j = draw(st.permutations(range(len(counts))), label="rows")[:2]
    counts[j] += counts[i]
    counts[i] = 0


def _unsorted_types(types, records, counts, draw):
    i = draw(st.integers(0, len(types) - 2), label="type")
    types[i], types[i + 1] = types[i + 1], types[i]


def _rename_a_boundary_token(types, records, counts, draw):
    # "<PAD_R1>" becomes "<PAD_R1=", which sorts just below it in this corpus.
    i = types.index(draw(st.sampled_from(BOUNDARY_TOKENS), label="boundary token"))
    types[i] = types[i][:-1] + "="


def _flip_byte(data, draw):
    i = draw(st.integers(0, len(data) - 1), label="byte")
    return data[:i] + bytes([data[i] ^ draw(st.integers(1, 255), label="mask")]) + data[i + 1:]


def _edit_header(data, draw):
    def edit(header):
        key = draw(st.sampled_from(sorted(header) + ["extra"]), label="key")
        if draw(st.booleans(), label="drop"):
            header.pop(key, None)
        else:
            header[key] = draw(st.sampled_from([None, True, -1, 0, 1, 2, 7, 2 ** 63, 2 ** 70,
                                                1.5, "", "x", "0" * 64, [], {}]), label="value")
    return _with_header(data, edit)  # the sidecar has the checkpoint's container


SIDECAR_MUTATIONS = {
    "flip a byte": _flip_byte,
    "truncate": lambda data, draw: data[:draw(st.integers(0, len(data) - 1), label="cut")],
    "append bytes": lambda data, draw: data + draw(st.binary(min_size=1, max_size=9),
                                                   label="tail"),
    "edit the header": _edit_header,
    "forge an id equal to len(types)": _forge(_id_past_the_types),
    "forge two rows swapped": _forge(_swap_rows),
    "forge a count of 0": _forge(_zero_count),
    "forge unsorted types": _forge(_unsorted_types),
    "forge types without a boundary token": _forge(_rename_a_boundary_token),
}


def _same_database(data, mutated):
    """Whether `mutated` holds the database `data` holds: the same magic,
    JSON header and body."""
    try:
        header, body = read_container(mutated, b"EMBNGRM1")
    except ValueError:
        return False
    valid, valid_body = read_container(data, b"EMBNGRM1")
    return (body == valid_body
            and json.dumps(header, sort_keys=True) == json.dumps(valid, sort_keys=True))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_sidecar_exits_2(valid_sidecar, data):
    tsv, sidecar, expected = valid_sidecar
    kind = data.draw(st.sampled_from(sorted(SIDECAR_MUTATIONS)), label="kind")
    mutated = SIDECAR_MUTATIONS[kind](sidecar, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "ngrams.tsv"
        db.write_bytes(tsv)
        Path(tmp, "ngrams.tsv.bin").write_bytes(mutated)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["dataset", str(db), "--vocab-size", "3", "--include-boundary",
                       "--out", str(Path(tmp) / "dataset.tsv")])
        assert "Traceback" not in err.getvalue()
        if _same_database(sidecar, mutated):
            assert rc == EXIT_OK, err.getvalue()
            assert Path(tmp, "dataset.tsv").read_bytes() == expected
        else:
            assert rc == EXIT_INPUT
            assert err.getvalue().startswith(f"error: {db}.bin: ")
            assert err.getvalue().endswith("; re-run ingest\n")
            assert sorted(path.name for path in Path(tmp).iterdir()) == ["ngrams.tsv",
                                                                        "ngrams.tsv.bin"]


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


@pytest.fixture(scope="module")
def valid_checkpoint(tmp_path_factory):
    """A saved |V| = 6 checkpoint's bytes and the vocabulary it was trained on."""
    ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path_factory.mktemp("valid_ckpt"))
    return ckpt.read_bytes(), vocab_path


# Paths into the checkpoint's JSON header, and values to put there.
CKPT_HEADER_PATHS = st.sampled_from([
    ("format",), ("dtype",), ("seed",), ("vocab_hash",), ("hyper",), ("arrays",),
    ("hyper", "vocab_size"), ("hyper", "d_in"), ("hyper", "d_ctx"),
    ("arrays", 0), ("arrays", 0, "name"), ("arrays", 3, "shape"), ("arrays", 4, "shape"),
])
CKPT_HEADER_VALUES = st.sampled_from([None, False, True, 0, -1, 1, 2, 3, 4, 6, 7, 1.0, 1.5,
                                      2 ** 70, "", "x", "<f8", "<f4", "w_input", [], {},
                                      [6], [3, 6], [4, 4]])


def _has_slot(node, key):
    """Whether node[key] exists in a decoded JSON header."""
    if isinstance(node, dict):
        return key in node
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_checkpoint_exports_or_exits_2(valid_checkpoint, data):
    blob, vocab_path = valid_checkpoint
    n_edits = data.draw(st.integers(0, 2), label="header edits")

    def edit(header):
        for _ in range(n_edits):
            *parents, key = data.draw(CKPT_HEADER_PATHS, label="header path")
            node = header
            for step in parents:  # an earlier edit may have removed the path
                node = node[step] if _has_slot(node, step) else None
            if data.draw(st.booleans(), label="delete"):
                if _has_slot(node, key):
                    del node[key]
            elif isinstance(node, dict) or _has_slot(node, key):
                # A copy: the strategy hands out one shared [] and {}, which a
                # later edit could otherwise make contain itself.
                node[key] = copy.deepcopy(data.draw(CKPT_HEADER_VALUES, label="header value"))

    edited = _with_header(blob, edit)
    body_start = 12 + int.from_bytes(edited[8:12], "little")
    bounds = {"magic": (0, 8), "header length": (8, 12), "header": (12, body_start),
              "body": (body_start, len(edited))}
    raw = bytearray(edited)
    for _ in range(data.draw(st.integers(0 if n_edits else 1, 3), label="byte edits")):
        kind = data.draw(st.sampled_from(["flip", "truncate", "append"]), label="kind")
        if kind == "flip":
            start, stop = bounds[data.draw(st.sampled_from(sorted(bounds)), label="region")]
            i = data.draw(st.integers(start, stop - 1), label="offset")
            if i < len(raw):
                raw[i] ^= data.draw(st.integers(1, 255), label="xor")
        elif kind == "truncate":
            del raw[data.draw(st.integers(0, max(0, len(raw) - 1)), label="truncate at"):]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=16), label="appended")
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = Path(tmp) / "model.ckpt"
        ckpt.write_bytes(bytes(raw))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["export", str(ckpt), "--vocab", str(vocab_path),
                       "--out", str(Path(tmp) / "emb.txt")])
    assert rc in (EXIT_OK, EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()
    # A wrong magic or header length, or a body cut short or run long, never exports.
    if raw[:12] != edited[:12] or (len(raw) != len(edited) and not n_edits):
        assert rc == EXIT_INPUT, bytes(raw)
    # Nor does a header whose vocabulary hash is not the vocabulary's, empty included.
    header = json.loads(edited[12:body_start])
    if header.get("vocab_hash") != vocabulary_hash(read_vocabulary(vocab_path)):
        assert rc == EXIT_INPUT, header



def test_checkpoint_with_the_older_header_layout_exports_the_same_bytes(tmp_path):
    # Checkpoints used to repeat the parameter layout in the header: a
    # "dtype" and a name and shape per array. A header carrying them still
    # loads and exports the same table; only the .bin's manifest_hash, the
    # checkpoint file's own digest, differs.
    ckpt, vocab_path, _, _ = clustered_checkpoint(tmp_path)
    params = load_checkpoint(ckpt)[0]

    def older(header):
        header["dtype"] = "<f8"
        header["arrays"] = [{"name": name, "shape": list(getattr(params, name).shape)}
                            for name in ("w_input", "w_ctx", "b_ctx", "w_output", "b_out")]

    old = tmp_path / "old.ckpt"
    old.write_bytes(_with_header(ckpt.read_bytes(), older))
    tables = []
    for checkpoint in (ckpt, old):
        out = tmp_path / f"{checkpoint.stem}.txt"
        assert main(["export", str(checkpoint), "--vocab", str(vocab_path), "--out", str(out),
                     "--deterministic"]) == EXIT_OK
        header, body = read_container(out.with_suffix(".txt.bin").read_bytes(), TABLE_MAGIC)
        assert header.pop("manifest_hash") == file_sha256(checkpoint)
        tables.append((out.read_bytes(), header, bytes(body)))
    assert tables[0] == tables[1]


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

    def test_argparse_rejects_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(
            "error: argument command: invalid choice: 'frobnicate'")

    def test_argparse_rejects_a_seed_the_command_does_not_read(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "embeddings.txt"), "--out",
                     str(tmp_path / "report.json"), "--seed", "1"]) == EXIT_INPUT
        assert capsys.readouterr().err == "error: unrecognized arguments: --seed 1\n"
