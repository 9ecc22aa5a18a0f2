import random

import numpy as np
import pytest

from tweetembed.corpus import Dictionary, build_dictionary, count_ngrams, read_ngram_db
from tweetembed.dataset import (
    DatasetSplit,
    Vocabulary,
    filter_ngrams,
    read_dataset,
    read_vocabulary,
    select_vocabulary,
    split_dataset,
    vocabulary_hash,
    write_dataset,
    write_vocabulary,
)
from tweetembed.rng import permutation

from oracles import db_records, example_grams, oracle_filter, oracle_permutation


def small_dictionary():
    return Dictionary([("a", 5), ("b", 3), ("c", 1)])


class TestSelectVocabulary:
    def test_prefix_selection(self):
        vocab = select_vocabulary(small_dictionary(), 2)
        assert vocab.word_to_id == {"a": 0, "b": 1}

    def test_full_dictionary(self):
        vocab = select_vocabulary(small_dictionary(), 3)
        assert vocab.words == ["a", "b", "c"]

    def test_oversized_request_names_both_numbers(self):
        with pytest.raises(ValueError, match=r"32768.*\b3\b"):
            select_vocabulary(small_dictionary(), 32768)

    def test_boundary_ids_are_reserved_block(self):
        vocab = select_vocabulary(small_dictionary(), 2)
        assert [vocab.boundary_id(t) for t in
                ("<PAD_L1>", "<PAD_L2>", "<PAD_R1>", "<PAD_R2>")] == [2, 3, 4, 5]


def random_db(seed, n_tweets=120, alphabet="abcdefgh"):
    rnd = random.Random(seed)
    tweets = [" ".join(rnd.choices(alphabet, k=rnd.randint(1, 9))) for _ in range(n_tweets)]
    return count_ngrams(tweets)


class TestFilterNGrams:
    def test_boundary_grams_rejected_by_default(self):
        db = count_ngrams(["a b"])  # every window touches a pad
        vocab = Vocabulary(["a", "b"])
        empty = filter_ngrams(db, vocab)
        assert empty.shape == (0, 5) and empty.dtype == np.int64

    def test_boundary_flag_admits_padded_windows(self):
        db = count_ngrams(["a b"])
        vocab = Vocabulary(["a", "b"])
        rows = filter_ngrams(db, vocab, include_boundary=True)
        assert len(rows) == 2
        # window centered on "a": <PAD_L1> <PAD_L2> a b <PAD_R1>
        assert [2, 3, 1, 4, 0] in rows.tolist()

    def test_distinct_gram_yields_one_tuple_regardless_of_count(self):
        db = count_ngrams(["a b c a b"] * 7)
        vocab = Vocabulary(["a", "b", "c"])
        rows = filter_ngrams(db, vocab)
        assert rows.tolist() == [[0, 1, 0, 1, 2]]

    def test_growing_vocabulary_never_shrinks_output(self):
        db = random_db(3)
        dictionary = build_dictionary(db)
        token_sets = []
        for size in (2, 4, 6, 8):
            vocab = select_vocabulary(dictionary, size)
            token_sets.append(set(example_grams(vocab, filter_ngrams(db, vocab))))
        for smaller, larger in zip(token_sets, token_sets[1:]):
            assert smaller <= larger

    @pytest.mark.parametrize("include_boundary", [False, True])
    def test_matches_brute_force_oracle(self, include_boundary):
        db = random_db(8)
        dictionary = build_dictionary(db)
        vocab = select_vocabulary(dictionary, 5)
        rows = filter_ngrams(db, vocab, include_boundary=include_boundary)
        reconstructed = set(example_grams(vocab, rows))
        assert reconstructed == oracle_filter(db_records(db), vocab.words, include_boundary)
        assert len(rows) == len(reconstructed)  # no duplicates

    def test_boundary_token_as_center_is_never_a_word(self, tmp_path):
        # A hand-written database may put a boundary token in the center.
        path = tmp_path / "ngrams.tsv"
        path.write_text("#total_tweets=1\t#total_tokens=3\n"
                        "<PAD_L1>\t<PAD_L2>\ta\tb\t<PAD_R1>\t1\n"
                        "<PAD_L2>\ta\tb\t<PAD_R1>\t<PAD_R2>\t1\n"
                        "a\tb\t<PAD_R1>\t<PAD_R2>\t<PAD_R2>\t1\n", encoding="utf-8")
        db = read_ngram_db(path)
        dictionary = build_dictionary(db)
        assert dictionary.entries == [("a", 1), ("b", 1)]
        vocab = select_vocabulary(dictionary, 2)
        assert filter_ngrams(db, vocab, include_boundary=True).tolist() == [
            [2, 3, 1, 4, 0], [3, 0, 4, 5, 1]]

    def test_tuples_round_trip_to_database_grams(self):
        db = random_db(21)
        vocab = select_vocabulary(build_dictionary(db), 6)
        records = db_records(db)
        for gram in example_grams(vocab, filter_ngrams(db, vocab, include_boundary=True)):
            assert gram in records


def make_tuples(n):
    return np.array([(i % 7, (i + 1) % 7, (i + 2) % 7, (i + 3) % 7, i % 5) for i in range(n)],
                    dtype=np.int64)


def assert_splits_equal(a, b):
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.validation, b.validation)
    assert (a.seed, a.fraction, a.validation_ratio) == (b.seed, b.fraction, b.validation_ratio)


class TestSplitDataset:
    def test_block_sizes(self):
        split = split_dataset(make_tuples(100), validation_ratio=0.1, fraction=1.0, seed=1)
        assert len(split.validation) == 10
        assert len(split.train) == 90

    def test_fraction_floors(self):
        split = split_dataset(make_tuples(100), validation_ratio=0.1, fraction=0.25, seed=1)
        assert len(split.train) == 22  # floor(0.25 * 90)

    def test_same_seed_same_split(self):
        a = split_dataset(make_tuples(60), seed=42)
        b = split_dataset(make_tuples(60), seed=42)
        assert_splits_equal(a, b)

    def test_different_seed_different_order(self):
        a = split_dataset(make_tuples(200), seed=1)
        b = split_dataset(make_tuples(200), seed=2)
        assert not np.array_equal(a.train, b.train)

    def test_partition_is_exact(self):
        tuples = make_tuples(83)
        split = split_dataset(tuples, validation_ratio=0.2, fraction=1.0, seed=9)
        assert len(split.validation) + len(split.train) == len(tuples)
        assert (sorted(np.concatenate([split.validation, split.train]).tolist())
                == sorted(tuples.tolist()))

    def test_validation_fixed_across_fractions(self):
        tuples = make_tuples(120)
        splits = [split_dataset(tuples, fraction=f, seed=5)
                  for f in (0.25, 0.5, 0.75, 1.0)]
        for s in splits[1:]:
            assert np.array_equal(s.validation, splits[0].validation)

    def test_smaller_fraction_is_prefix_of_larger(self):
        tuples = make_tuples(120)
        quarter = split_dataset(tuples, fraction=0.25, seed=5)
        full = split_dataset(tuples, fraction=1.0, seed=5)
        assert np.array_equal(full.train[: len(quarter.train)], quarter.train)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.3, 1.5])
    def test_bad_validation_ratio(self, ratio):
        with pytest.raises(ValueError):
            split_dataset(make_tuples(10), validation_ratio=ratio)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            split_dataset(np.empty((0, 5), dtype=np.int64))

    def test_nonempty_blocks_at_twenty(self):
        split = split_dataset(make_tuples(20))
        assert len(split.validation) and len(split.train)


class TestPermutation:
    @pytest.mark.parametrize("n", [0, 1, 2, 13190])
    def test_matches_scalar_splitmix_oracle(self, n):
        for seed in (0, 1, 13, 2**63 + 7, 2**64 - 5):
            assert permutation(n, seed) == oracle_permutation(n, seed)


class TestFiles:
    def test_dataset_round_trip(self, tmp_path):
        db = random_db(2)
        vocab = select_vocabulary(build_dictionary(db), 6)
        tuples = filter_ngrams(db, vocab, include_boundary=True)
        split = split_dataset(tuples, validation_ratio=0.2, fraction=0.75, seed=3)
        path = tmp_path / "dataset.tsv"
        write_dataset(split, vocab, path)
        loaded, meta = read_dataset(path)
        assert_splits_equal(loaded, split)
        assert loaded.train.dtype == np.int64
        assert meta["vocab_size"] == 6
        assert meta["vocab_hash"] == vocabulary_hash(vocab)

    def test_empty_blocks_round_trip_without_warning(self, tmp_path, recwarn):
        empty = np.empty((0, 5), dtype=np.int64)
        split = DatasetSplit(empty, empty, seed=1, fraction=1.0, validation_ratio=0.1)
        path = tmp_path / "dataset.tsv"
        write_dataset(split, Vocabulary(["a", "b"]), path)
        loaded, _ = read_dataset(path)
        assert loaded.train.shape == loaded.validation.shape == (0, 5)
        assert not recwarn.list

    def test_vocabulary_round_trip(self, tmp_path):
        vocab = Vocabulary(["um", "dois", "três"])
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, path)
        loaded = read_vocabulary(path)
        assert loaded.words == vocab.words
        assert vocabulary_hash(loaded) == vocabulary_hash(vocab)
