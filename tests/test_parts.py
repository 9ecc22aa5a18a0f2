"""Training in two parts: one OpenBLAS thread, one pool thread.

While `train` runs, OpenBLAS is set to one thread and a one-thread pool
runs the second part of each step, loss evaluation and Adam update. These
tests hold the fixed partition, that the split changes no byte, that
nothing of it outlives `train` however it ends, and that every public
function runs on the calling thread.
"""

import functools
import importlib
import inspect
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import tweetembed.model
import tweetembed.training
from tweetembed.cli import EXIT_DIVERGED, EXIT_INPUT, EXIT_OK, main
from tweetembed.model import ModelHyper, _in_parts, param_count
from tweetembed.training import ADAM_BLOCK, TrainConfig, TrainingDiverged, train

from synth import zipf_corpus
from test_training import random_split

MODULES = ("corpus", "dataset", "rng", "model", "training", "embeddings", "evaluation",
           "manifest", "cli")
# What the pool's thread may call besides private helpers.
WORKER_MAY_CALL = frozenset({"model.softmax", "model.sigmoid"})


def blas_api():
    api = tweetembed.training._openblas_threads()
    if api is None:
        pytest.skip("needs an OpenBLAS whose thread count can be set")
    return api


def worker_threads():
    return [t for t in threading.enumerate() if t.name.startswith("tweetembed-worker")]


@pytest.fixture(scope="module")
def dataset_131(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("v131")
    corpus = tmp / "corpus.txt"
    corpus.write_text("\n".join(zipf_corpus(1500, seed=6, vocab_types=400)) + "\n",
                      encoding="utf-8")
    assert main(["ingest", str(corpus), "--out-db", str(tmp / "ngrams.tsv"),
                 "--out-dict", str(tmp / "dictionary.tsv")]) == EXIT_OK
    assert main(["dataset", str(tmp / "ngrams.tsv"), "--vocab-size", "131",
                 "--include-boundary", "--out", str(tmp / "dataset.tsv")]) == EXIT_OK
    return tmp / "dataset.tsv"


def train_argv(dataset, out_dir, *flags):
    return ["train", str(dataset), "--out-checkpoint", str(out_dir / "model.ckpt"),
            "--out-log", str(out_dir / "run_log.tsv"), "--epochs", "2", "--deterministic",
            *flags]


def test_deterministic_bytes_do_not_follow_the_blas_thread_count(dataset_131, tmp_path):
    # With OpenBLAS 0.3.31 one thread and two round some products at 131
    # columns differently; `train` runs on one thread whatever the setting.
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parents[1] / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        result = subprocess.run([sys.executable, "-m", "tweetembed",
                                 *train_argv(dataset_131, out)],
                                capture_output=True, text=True,
                                env={**env, "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == EXIT_OK, result.stderr
        outputs.append(((out / "model.ckpt").read_bytes(), (out / "run_log.tsv").read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("vocab_size", [128, 2048])
def test_two_parts_write_the_bytes_of_one(vocab_size, tmp_path, monkeypatch):
    # PART_MIN_VALUES = 0 splits every pass that has 2 rows (8 columns, one
    # value) a part; a threshold no pass reaches keeps every pass whole. A
    # short switch interval makes the two threads interleave finely.
    blas_api()
    hyper = ModelHyper(vocab_size)
    split = random_split(hyper, 1500, 300, seed=vocab_size)
    cfg = TrainConfig(epochs=2, seed=4, deterministic=True)
    on_worker = []

    def recorded(name):
        original = getattr(tweetembed.model, name)

        @functools.wraps(original)
        def wrapped(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                on_worker.append(name)
            return original(*args, **kwargs)
        return wrapped

    for name in ("_backward_rows", "_nll_rows"):
        monkeypatch.setattr(tweetembed.model, name, recorded(name))
    files = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for min_values in (0, 2 ** 62):
            monkeypatch.setattr(tweetembed.model, "PART_MIN_VALUES", min_values)
            out = tmp_path / str(min_values)
            out.mkdir()
            train(split, hyper, cfg, out / "model.ckpt", out / "run_log.tsv", "")
            files.append(((out / "model.ckpt").read_bytes(),
                          (out / "run_log.tsv").read_bytes()))
            assert bool(on_worker) == (min_values == 0)
            on_worker.clear()
    finally:
        sys.setswitchinterval(interval)
    assert files[0] == files[1]


class Fault(Exception):
    """Raised inside a part."""


@pytest.fixture
def pool():
    with ThreadPoolExecutor(max_workers=1) as executor:
        yield executor


PARTITIONS = [
    # (size, step, least, values per item, with a pool): the expected parts.
    # A step's rows at batch 256: whole at |V| 256, halved at |V| 512.
    (256, 1, 2, 256, True, [(0, 256)]),
    (256, 1, 2, 512, True, [(0, 128), (128, 256)]),
    # The output layer's columns at |V| 2053, batch 256: cut at a multiple of 8.
    (2053, 8, 8, 256, True, [(0, 1024), (1024, 2053)]),
    # Adam at |V| 2048, d = 64: cut at an ADAM_BLOCK boundary.
    (param_count(ModelHyper(2048)), ADAM_BLOCK, 1, 1, True,
     [(0, 4 * ADAM_BLOCK), (4 * ADAM_BLOCK, 280896)]),
    # No part of 1 row or 1 column, however many values it covers.
    (3, 1, 2, 2 ** 16, True, [(0, 3)]),
    (4, 1, 2, 2 ** 16, True, [(0, 2), (2, 4)]),
    (9, 8, 8, 2 ** 16, True, [(0, 9)]),
    (16, 8, 8, 2 ** 16, True, [(0, 8), (8, 16)]),
    # Without a pool, one part.
    (256, 1, 2, 512, False, [(0, 256)]),
]


@pytest.mark.parametrize("size,step,least,values,with_pool,expected", PARTITIONS)
def test_in_parts_partition_is_fixed_by_the_sizes(size, step, least, values, with_pool,
                                                   expected, pool):
    parts = []  # (lo, hi, on the calling thread); list.append is atomic across threads
    caller = threading.get_ident()
    _in_parts(pool if with_pool else None, size,
              lambda lo, hi: parts.append((lo, hi, threading.get_ident() == caller)),
              values, step=step, least=least)
    assert sorted(parts) == [(lo, hi, lo == 0) for lo, hi in expected]


def test_in_parts_raises_the_callers_fault_after_the_pools_part_ended(pool):
    # The two parts share a workspace, so the pool's part must not run on
    # once the call is over, even when both parts raise.
    pool_started, caller_raised, pool_ended = (threading.Event() for _ in range(3))
    faults = {0: Fault("in the caller's part"), 2: Fault("in the pool's part")}

    def part(lo, hi):
        if lo == 0:
            assert pool_started.wait(timeout=60)
            caller_raised.set()
        else:
            pool_started.set()
            assert caller_raised.wait(timeout=60)
            pool_ended.set()
        raise faults[lo]

    with pytest.raises(Fault) as caught:
        _in_parts(pool, 4, part, 2 ** 16, least=2)
    assert caught.value is faults[0]
    assert pool_ended.is_set()


@pytest.mark.parametrize("ending", ["returns", "diverges", "worker_raises"])
def test_train_leaves_no_thread_and_restores_the_blas_count(ending, tmp_path, monkeypatch):
    get, put = blas_api()
    monkeypatch.setattr(tweetembed.model, "PART_MIN_VALUES", 0)
    raised = []
    softmax = tweetembed.model.softmax

    def failing_softmax(logits, out):
        if threading.current_thread() is not threading.main_thread():
            raised.append(Fault("in the pool's part"))
            raise raised[-1]
        return softmax(logits, out=out)

    previous = get()
    put(2)
    seen = []
    try:
        hyper = ModelHyper(5, d_in=4, d_ctx=4)
        split = random_split(hyper, 200, 40, seed=1)
        if ending == "returns":
            train(split, hyper, TrainConfig(epochs=2, batch_size=16),
                  tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "",
                  on_epoch=lambda _: seen.append((get(), len(worker_threads()))))
            assert seen == [(1, 1), (1, 1)]
        elif ending == "diverges":
            with pytest.raises(TrainingDiverged):
                train(split, hyper,
                      TrainConfig(epochs=5, batch_size=16, seed=3, learning_rate=1000.0),
                      tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "")
        else:
            monkeypatch.setattr(tweetembed.model, "softmax", failing_softmax)
            with pytest.raises(Fault) as caught:
                train(split, hyper, TrainConfig(batch_size=16),
                      tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "")
            assert caught.value is raised[0]
        assert get() == 2
        assert worker_threads() == []
    finally:
        put(previous)


def test_a_run_where_no_pass_splits_starts_no_thread(tmp_path):
    # grid_matrix's shape: |V| 128 at batch 256 has no pass large enough
    # to split, so the pool never starts its thread.
    get, _ = blas_api()
    hyper = ModelHyper(128)
    split = random_split(hyper, 1200, 200, seed=2)
    seen = []
    train(split, hyper, TrainConfig(epochs=2, batch_size=256),
          tmp_path / "model.ckpt", tmp_path / "run_log.tsv", "",
          on_epoch=lambda _: seen.append((get(), len(worker_threads()))))
    assert seen == [(1, 0), (1, 0)]


@pytest.mark.parametrize("fault,code", [(ValueError, EXIT_INPUT), (MemoryError, EXIT_INPUT),
                                        (TrainingDiverged, EXIT_DIVERGED)])
def test_a_fault_in_the_worker_keeps_the_exit_code(fault, code, dataset_131, tmp_path,
                                                   monkeypatch, capsys):
    get, _ = blas_api()
    before = get()
    monkeypatch.setattr(tweetembed.model, "PART_MIN_VALUES", 0)
    softmax = tweetembed.model.softmax

    def failing_softmax(logits, out):
        if threading.current_thread() is not threading.main_thread():
            raise fault("raised in the worker's part")
        return softmax(logits, out=out)

    monkeypatch.setattr(tweetembed.model, "softmax", failing_softmax)
    assert main(train_argv(dataset_131, tmp_path)) == code
    assert "error: raised in the worker's part" in capsys.readouterr().err
    assert get() == before
    assert worker_threads() == []


def test_public_functions_run_on_the_calling_thread(dataset_131, tmp_path, monkeypatch):
    # Wrap every public package function at every module binding, as an
    # out-of-program tracer does; a span stack kept per process is only
    # right if no such call runs on the worker.
    blas_api()
    monkeypatch.setattr(tweetembed.model, "PART_MIN_VALUES", 0)
    calls = []  # (name, thread); list.append is atomic across threads

    def recorded(fn, name):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            calls.append((name, threading.get_ident()))
            return fn(*args, **kwargs)
        return wrapped

    wrappers = {}
    for layer in MODULES:
        module = importlib.import_module(f"tweetembed.{layer}")
        for attr, value in list(vars(module).items()):
            if not inspect.isfunction(value) or attr.startswith("_"):
                continue
            if not value.__module__.startswith("tweetembed."):
                continue
            name = f"{value.__module__.removeprefix('tweetembed.')}.{value.__name__}"
            wrapper = wrappers.setdefault(id(value), recorded(value, name))
            monkeypatch.setattr(module, attr, wrapper)

    out = tmp_path / "train"
    out.mkdir()
    assert main(train_argv(dataset_131, out, "--batch-size", "64")) == EXIT_OK
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(zipf_corpus(300, seed=2, vocab_types=200)) + "\n",
                      encoding="utf-8")
    assert main(["grid", str(corpus), "--out-dir", str(tmp_path / "grid"),
                 "--vocab-sizes", "16,24", "--fractions", "1.0", "--epochs", "1",
                 "--batch-size", "32", "--emb-dim", "8", "--ctx-dim", "8",
                 "--deterministic"]) == EXIT_OK
    names = {name for name, _ in calls}
    assert {"training.train", "model.backward_arrays", "model.evaluate",
            "training.adam_step"} <= names
    main_ident = threading.main_thread().ident
    elsewhere = {name for name, ident in calls if ident != main_ident}
    assert elsewhere <= WORKER_MAY_CALL, elsewhere
    assert "model.softmax" in elsewhere  # the worker did run parts
