"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

The expensive synthetic-language training run is shared by criteria 5, 6
and 7 through module-scoped fixtures. Everything is seeded, so outcomes
are reproducible.
"""

import math
import random
import time
import numpy as np
import pytest

from tweetembed import cli
from tweetembed.corpus import build_dictionary, count_ngrams
from tweetembed.dataset import filter_ngrams, select_vocabulary, split_dataset
from tweetembed.embeddings import export_embeddings
from tweetembed.evaluation import run_standard_suite
from tweetembed.model import (
    PARAM_FIELDS,
    ModelHyper,
    backward_arrays,
    evaluate,
    init_params,
)
from tweetembed.training import TrainConfig, train

from oracles import (db_records, dictionary_entries, example_grams, oracle_count,
                     oracle_dictionary, oracle_filter)
from synth import class_corpus, class_gold, zipf_corpus


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ----------------------------------------------------------------------
# shared synthetic-language run (criteria 5, 6, 7)
# ----------------------------------------------------------------------

FULL_CFG = dict(epochs=40, learning_rate=0.001, seed=42)
HYPER = dict(vocab_size=256, d_in=32, d_ctx=32)


@pytest.fixture(scope="module")
def class_tuples():
    tweets = class_corpus(3000, seed=20, subset_size=4)
    db = count_ngrams(tweets)
    dictionary = build_dictionary(db)
    vocab = select_vocabulary(dictionary, 256)
    tuples = filter_ngrams(db, dictionary.ids[:256])
    return vocab, tuples


@pytest.fixture(scope="module")
def full_run(class_tuples, tmp_path_factory):
    _, tuples = class_tuples
    split = split_dataset(tuples, validation_ratio=0.1, fraction=1.0, seed=13)
    hyper = ModelHyper(**HYPER)
    cfg = TrainConfig(batch_size=64, **FULL_CFG)
    out = tmp_path_factory.mktemp("full_run")
    started = time.perf_counter()
    params, logs = train(split, hyper, cfg, out / "model.ckpt", out / "run_log.tsv", "")
    elapsed = time.perf_counter() - started
    return split, params, logs, elapsed


def last5_slope(values):
    tail = np.asarray(values[-5:], dtype=np.float64)
    x = np.arange(tail.size, dtype=np.float64)
    return float(np.polyfit(x, tail, 1)[0])


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------


def test_criterion_1_gradient_correctness():
    hyper = ModelHyper(vocab_size=32, d_in=8, d_ctx=8)
    params = init_params(hyper, seed=5)
    rng = np.random.default_rng(1)
    rows = np.array([[*rng.integers(0, 36, 4), rng.integers(0, 32)] for _ in range(6)],
                    dtype=np.int64)
    contexts, targets = rows[:, :4], rows[:, 4]

    def mean_loss():
        return evaluate(params, contexts, targets)

    started = time.perf_counter()
    grads = backward_arrays(params, contexts, targets)
    h = 1e-4
    worst = 0.0
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        analytic = getattr(grads, name)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            lp = mean_loss()
            arr[idx] = orig - h
            lm = mean_loss()
            arr[idx] = orig
            numeric = (lp - lm) / (2 * h)
            rel = abs(analytic[idx] - numeric) / (abs(analytic[idx]) + 1e-6)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-3 and elapsed < 10.0
    verdict(1, ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-3
    assert elapsed < 10.0


def test_criterion_2_pipeline_oracle():
    rnd = random.Random(2024)
    vocab = ["olá", "bom", "dia!", "=)", "@user", "http://t.co/x", "T_HANDLE",
             "futebol", "hoje", "não", "SIM", "pq"]
    tweets = [" ".join(rnd.choices(vocab, k=rnd.randint(1, 14))) for _ in range(100)]

    started = time.perf_counter()
    db = count_ngrams(tweets)
    records, n_tweets, n_tokens = oracle_count(tweets)
    counts_ok = (db_records(db) == records and db.total_tweets == n_tweets
                 and db.total_tokens == n_tokens)

    dictionary = build_dictionary(db)
    dict_ok = dictionary_entries(dictionary) == oracle_dictionary(records)

    top = select_vocabulary(dictionary, 6)
    tuples = filter_ngrams(db, dictionary.ids[:6])
    reconstructed = set(example_grams(top, tuples))
    filter_ok = reconstructed == oracle_filter(db_records(db), top)
    elapsed = time.perf_counter() - started

    ok = counts_ok and dict_ok and filter_ok and elapsed < 5.0
    verdict(2, ok, f"counts={counts_ok} dict={dict_ok} filter={filter_ok}, {elapsed:.1f}s")
    assert counts_ok and dict_ok and filter_ok
    assert elapsed < 5.0


def test_criterion_3_window_count_identity():
    rnd = random.Random(77)
    alphabet = [f"t{i}" for i in range(50)]
    tweets = [" ".join(rnd.choices(alphabet, k=rnd.randint(1, 25))) for _ in range(1000)]
    db = count_ngrams(tweets)
    total_tokens = sum(len(tweet.split()) for tweet in tweets)
    total_windows = int(db.counts.sum())
    ok = total_windows == total_tokens == db.total_tokens
    verdict(3, ok, f"{total_windows} windows vs {total_tokens} tokens")
    assert total_windows == total_tokens == db.total_tokens


def test_criterion_4_tuple_counts_grow_with_vocabulary():
    tweets = zipf_corpus(50000, seed=99, vocab_types=6000, alpha=1.0)
    db = count_ngrams(tweets)
    dictionary = build_dictionary(db)
    counts = []
    for size in (256, 1024, 4096):
        counts.append(len(filter_ngrams(db, dictionary.ids[:size])))
    ok = counts[0] <= counts[1] <= counts[2]
    verdict(4, ok, f"tuples {counts[0]} -> {counts[1]} -> {counts[2]}")
    assert ok


def test_criterion_5_learning_sanity(full_run):
    split, params, logs, elapsed = full_run
    target = math.log(256)
    epoch1_val = logs[0].validation_loss
    initial = evaluate(init_params(ModelHyper(**HYPER), FULL_CFG["seed"]),
                       split.train[:, :4], split.train[:, 4])
    final = logs[-1].train_loss
    band_ok = abs(epoch1_val - target) / target < 0.05
    halved_ok = final < 0.5 * initial
    time_ok = elapsed < 300.0
    ok = band_ok and halved_ok and time_ok
    verdict(5, ok, f"epoch1 val {epoch1_val:.4f} vs ln256 {target:.4f}, "
                   f"final train {final:.4f} vs initial {initial:.4f}, {elapsed:.0f}s")
    assert band_ok
    assert halved_ok
    assert time_ok


def test_criterion_6_overfitting_reproduction(class_tuples, full_run, tmp_path):
    _, tuples = class_tuples
    # fraction run: batch scaled with the data so each epoch makes a
    # comparable number of optimizer steps; data volume is the only variable
    frac_split = split_dataset(tuples, validation_ratio=0.1, fraction=0.1, seed=13)
    frac_cfg = TrainConfig(batch_size=6, **FULL_CFG)
    _, frac_logs = train(frac_split, ModelHyper(**HYPER), frac_cfg, tmp_path / "model.ckpt",
                         tmp_path / "run_log.tsv", "")

    frac_vals = [e.validation_loss for e in frac_logs]
    frac_trains = [e.train_loss for e in frac_logs]
    argmin = int(np.argmin(frac_vals))
    min_before_end = argmin + 1 < len(frac_logs)
    train_still_falling = frac_trains[-1] < frac_trains[argmin]
    frac_rises = last5_slope(frac_vals) >= 0.0

    _, _, full_logs, _ = full_run
    full_vals = [e.validation_loss for e in full_logs]
    full_rises = last5_slope(full_vals) >= 0.0

    ok = min_before_end and train_still_falling and frac_rises and not full_rises
    verdict(6, ok, f"10% val min at epoch {argmin + 1}/40, "
                   f"10% slope {last5_slope(frac_vals):+.4f}, "
                   f"full slope {last5_slope(full_vals):+.4f}")
    assert min_before_end
    assert train_still_falling
    assert frac_rises
    assert not full_rises


def test_criterion_7_intrinsic_test_recovery(class_tuples, full_run):
    vocab, _ = class_tuples
    _, params, _, _ = full_run
    table = export_embeddings(params, vocab)
    gold = class_gold()

    reports = {(r.name, r.threshold): r
               for r in run_standard_suite(table, gold, _synth_pairs(vocab))}
    membership = reports[("class_membership", 0.70)]
    distinction = reports[("class_distinction", 0.80)]
    topological = reports[("topological_consistency", None)]

    mono_ok = True
    mem_hi = reports[("class_membership", 0.80)]
    mono_ok &= mem_hi.score <= membership.score
    dis_lo = reports[("class_distinction", 0.70)]
    mono_ok &= dis_lo.score <= distinction.score  # true negatives rise with threshold
    eq_lo = reports[("word_equivalence", 0.85)]
    eq_hi = reports[("word_equivalence", 0.95)]
    if eq_lo.score is not None and eq_hi.score is not None:
        mono_ok &= eq_hi.score <= eq_lo.score

    ok = (membership.score >= 0.8 and topological.score >= 0.8
          and distinction.score >= 0.8 and mono_ok)
    verdict(7, ok, f"membership@0.70 {membership.score:.3f}, "
                   f"distinction@0.80 {distinction.score:.3f}, "
                   f"topological {topological.score:.3f}, monotone={mono_ok}")
    assert membership.score >= 0.8
    assert distinction.score >= 0.8
    assert topological.score >= 0.8
    assert mono_ok


def _synth_pairs(vocab):
    from tweetembed.evaluation import EquivalencePair

    return [EquivalencePair(vocab[i], vocab[i + 1]) for i in range(0, 20, 2)]


def test_criterion_8_grid_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.txt"
    corpus_path.write_text(
        "\n".join(zipf_corpus(400, seed=3, vocab_types=300, alpha=1.2)) + "\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "grid"
    argv = ["grid", str(corpus_path), "--out-dir", str(out_dir),
            "--vocab-sizes", "48,96", "--fractions", "0.5,1.0",
            "--epochs", "2", "--batch-size", "64",
            "--emb-dim", "16", "--ctx-dim", "16", "--deterministic"]

    assert cli.main(list(argv)) == 0
    first = {p.relative_to(out_dir): p.read_bytes()
             for p in out_dir.rglob("*") if p.is_file()}
    assert cli.main(list(argv)) == 0
    second = {p.relative_to(out_dir): p.read_bytes()
              for p in out_dir.rglob("*") if p.is_file()}

    same_files = sorted(first) == sorted(second)
    diffs = [str(name) for name in first if first[name] != second.get(name)]
    ok = same_files and not diffs
    verdict(8, ok, f"{len(first)} files, diffs: {diffs if diffs else 'none'}")
    assert same_files
    assert not diffs


def test_criterion_9_throughput_scaling_shape(tmp_path):
    tweets = zipf_corpus(10000, seed=7, vocab_types=3000, alpha=1.0)
    db = count_ngrams(tweets)
    dictionary = build_dictionary(db)
    vocab_sizes = (64, 256, 1024)
    fractions = (0.25, 0.5, 1.0)
    cells = {}
    for size in vocab_sizes:
        tuples = filter_ngrams(db, dictionary.ids[:size])
        for fraction in fractions:
            split = split_dataset(tuples, validation_ratio=0.1,
                                  fraction=fraction, seed=13)
            cells[(size, fraction)] = (split, ModelHyper(vocab_size=size, d_in=32, d_ctx=32))
    # Each cell is timed by its fastest of three one-epoch runs, taken in
    # rounds over all cells: a stall on a shared host slows the epochs it
    # overlaps, and in rounds those belong to different cells.
    cfg = TrainConfig(epochs=1, batch_size=256, seed=5)
    epoch_secs = {cell: math.inf for cell in cells}
    for _ in range(3):
        for cell, (split, hyper) in cells.items():
            _, logs = train(split, hyper, cfg, tmp_path / "model.ckpt",
                            tmp_path / "run_log.tsv", "")
            epoch_secs[cell] = min(epoch_secs[cell], logs[0].wall_seconds)

    monotone_in_fraction = all(
        epoch_secs[(size, a)] < epoch_secs[(size, b)]
        for size in vocab_sizes for a, b in zip(fractions, fractions[1:])
    )
    monotone_in_vocab = all(
        epoch_secs[(a, fraction)] < epoch_secs[(b, fraction)]
        for fraction in fractions for a, b in zip(vocab_sizes, vocab_sizes[1:])
    )
    ok = monotone_in_fraction and monotone_in_vocab
    cells = ", ".join(f"V{size}/f{frac}: {epoch_secs[(size, frac)]:.3f}s"
                      for size in vocab_sizes for frac in fractions)
    verdict(9, ok, cells)
    assert monotone_in_fraction
    assert monotone_in_vocab


def test_full_run_train_loss_mostly_monotone_early(full_run):
    """First ten epochs may wobble at most twice on the class corpus."""
    _, _, logs, _ = full_run
    first10 = [e.train_loss for e in logs[:10]]
    increases = sum(1 for a, b in zip(first10, first10[1:]) if b > a)
    assert increases <= 2


def test_full_run_standard_suite_reports_are_threshold_monotone(class_tuples, full_run):
    """Sanity net for criterion 7's 'every report ever emitted' clause."""
    vocab, _ = class_tuples
    _, params, _, _ = full_run
    table = export_embeddings(params, vocab)
    reports = run_standard_suite(table, class_gold(), _synth_pairs(vocab))
    by_name = {}
    for r in reports:
        if r.threshold is not None and r.score is not None:
            by_name.setdefault(r.name, []).append((r.threshold, r.score))
    for name, scored in by_name.items():
        scored.sort()
        if name == "class_distinction":
            assert all(a[1] <= b[1] for a, b in zip(scored, scored[1:]))
        else:
            assert all(a[1] >= b[1] for a, b in zip(scored, scored[1:]))
