"""A `train` process killed at any moment leaves the last good checkpoint.

`train` replaces the checkpoint and then the run log through temp files
after every epoch, so a SIGKILL leaves each file absent or complete: the
checkpoint of some finished epoch k, and the log of the first k epochs or,
killed between the two writes, k - 1.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tweetembed.cli import EXIT_OK, build_parser, main, train_settings
from tweetembed.dataset import read_dataset
from tweetembed.training import train

from synth import zipf_corpus

EPOCHS = 6
TRAIN_FLAGS = ["--batch-size", "32", "--emb-dim", "16", "--ctx-dim", "16", "--deterministic"]
KILLS = 10
OUTPUTS = ("model.ckpt", "run_log.tsv", "model.ckpt.manifest.json")

pytestmark = pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")


def train_argv(dataset, out_dir, epochs=EPOCHS):
    return ["train", str(dataset), "--out-checkpoint", str(out_dir / "model.ckpt"),
            "--out-log", str(out_dir / "run_log.tsv"), "--epochs", str(epochs), *TRAIN_FLAGS]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("kill")
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(zipf_corpus(600, seed=4, vocab_types=300)) + "\n",
                      encoding="utf-8")
    assert main(["ingest", str(corpus), "--out-db", str(tmp / "ngrams.tsv"),
                 "--out-dict", str(tmp / "dictionary.tsv")]) == EXIT_OK
    assert main(["dataset", str(tmp / "ngrams.tsv"), "--vocab-size", "256",
                 "--include-boundary", "--out", str(tmp / "dataset.tsv")]) == EXIT_OK
    return tmp / "dataset.tsv"


@pytest.fixture(scope="module")
def clean_runs(dataset, tmp_path_factory):
    """Checkpoint bytes of a clean `--epochs k` run for k = 1..EPOCHS, and
    the clean EPOCHS-epoch run log's lines."""
    tmp = tmp_path_factory.mktemp("clean")
    checkpoints = []
    for k in range(1, EPOCHS + 1):
        out = tmp / f"epochs{k}"
        out.mkdir()
        assert main(train_argv(dataset, out, k)) == EXIT_OK
        checkpoints.append((out / "model.ckpt").read_bytes())
    log = (tmp / f"epochs{EPOCHS}" / "run_log.tsv").read_text(encoding="utf-8")
    return checkpoints, log.splitlines(keepends=True)


def test_shorter_run_is_the_longer_run_after_its_last_epoch(dataset, clean_runs, tmp_path):
    # The per-epoch shuffle seed depends only on (seed, epoch), so an
    # `--epochs k` run's files are the longer run's files after epoch k.
    checkpoints, log_lines = clean_runs
    args = build_parser().parse_args(train_argv(dataset, tmp_path))
    split, meta = read_dataset(dataset)
    hyper, cfg = train_settings(args, meta["vocab_size"])
    ckpt, log = tmp_path / "model.ckpt", tmp_path / "run_log.tsv"
    after_epoch = []
    train(split, hyper, cfg, ckpt, log, meta["vocab_hash"],
          on_epoch=lambda _: after_epoch.append((ckpt.read_bytes(),
                                                 log.read_text(encoding="utf-8"))))
    assert [blob for blob, _ in after_epoch] == checkpoints
    assert [text for _, text in after_epoch] == [
        "".join(log_lines[:k]) for k in range(1, EPOCHS + 1)]


def test_sigkill_keeps_the_last_good_checkpoint(dataset, clean_runs, tmp_path):
    checkpoints, log_lines = clean_runs
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def start(out_dir):
        out_dir.mkdir()
        return subprocess.Popen([sys.executable, "-m", "tweetembed",
                                 *train_argv(dataset, out_dir)],
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)

    started = time.perf_counter()
    proc = start(tmp_path / "uninterrupted")
    try:
        assert proc.wait(timeout=120) == EXIT_OK
    finally:
        proc.kill()
        proc.wait()
    wall = time.perf_counter() - started
    assert (tmp_path / "uninterrupted" / "model.ckpt").read_bytes() == checkpoints[-1]

    rng = random.Random(11)
    # One seeded delay in each of KILLS equal slices of the clean run's wall time.
    delays = [wall * (i + rng.random()) / KILLS for i in range(KILLS)]
    codes = []
    for i, delay in enumerate(delays):
        out = tmp_path / f"kill{i}"
        proc = start(out)
        try:
            time.sleep(delay)
            proc.send_signal(signal.SIGKILL)
        finally:
            codes.append(proc.wait())
        names = sorted(path.name for path in out.iterdir())
        # A killed write leaves its own temp file, named with the killed
        # process's id, and nothing else.
        assert set(names) <= {*OUTPUTS, *(f"{name}.{proc.pid}.tmp" for name in OUTPUTS)}, names
        ckpt, log = out / "model.ckpt", out / "run_log.tsv"
        blob = ckpt.read_bytes() if ckpt.exists() else None
        assert blob is None or blob in checkpoints, delay
        k = 0 if blob is None else checkpoints.index(blob) + 1
        logged = log.read_text(encoding="utf-8") if log.exists() else ""
        assert logged in ("".join(log_lines[:k]), "".join(log_lines[:max(k - 1, 0)])), (
            delay, k, logged)
        manifest = out / "model.ckpt.manifest.json"
        if manifest.exists():
            assert json.loads(manifest.read_text(encoding="utf-8"))["subcommand"] == "train"
    assert -signal.SIGKILL in codes, codes
