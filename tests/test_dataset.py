import random

import numpy as np
import pytest

from tweetembed import manifest
from tweetembed.corpus import (BOUNDARY_TOKENS, Dictionary, NGramDatabase, build_dictionary,
                               count_ngrams)
from tweetembed.dataset import (
    DatasetSplit,
    filter_ngrams,
    read_dataset,
    read_vocabulary,
    select_vocabulary,
    split_dataset,
    vocabulary_hash,
    write_dataset,
    write_vocabulary,
)
from tweetembed.rng import derive_seed, permutation

from memory import traced_peak
from oracles import (db_records, dictionary_entries, example_grams, oracle_derive_seed,
                     oracle_filter, oracle_permutation, type_ids)


def small_dictionary():
    """Frequencies a 5, b 3, c 1; the types are the four pads (ids 0-3), then a, b, c."""
    return Dictionary([*BOUNDARY_TOKENS, "a", "b", "c"], np.array([4, 5, 6], dtype=np.int32),
                      np.array([5, 3, 1], dtype=np.int64))


class TestSelectVocabulary:
    def test_prefix_selection(self):
        vocab = select_vocabulary(small_dictionary(), 2)
        assert {word: i for i, word in enumerate(vocab)} == {"a": 0, "b": 1}

    def test_full_dictionary(self):
        vocab = select_vocabulary(small_dictionary(), 3)
        assert vocab == ["a", "b", "c"]

    def test_oversized_request_names_both_numbers(self):
        with pytest.raises(ValueError, match=r"32768.*\b3\b"):
            select_vocabulary(small_dictionary(), 32768)

    def test_boundary_ids_are_reserved_block(self):
        # One window <PAD_L1> <PAD_L2> a <PAD_R1> <PAD_R2>; with |V| = 2 the
        # pads map to 2, 3, 4, 5 in that order.
        dictionary = small_dictionary()
        db = NGramDatabase(dictionary.types, np.array([[0, 1, 4, 2, 3]], dtype=np.int32),
                           np.ones(1, dtype=np.int64), 1, 1)
        rows = filter_ngrams(db, dictionary.ids[:2], include_boundary=True)
        assert rows.tolist() == [[2, 3, 4, 5, 0]]


def random_db(seed, n_tweets=120, alphabet="abcdefgh"):
    rnd = random.Random(seed)
    tweets = [" ".join(rnd.choices(alphabet, k=rnd.randint(1, 9))) for _ in range(n_tweets)]
    return count_ngrams(tweets)


class TestFilterNGrams:
    def test_boundary_grams_rejected_by_default(self):
        db = count_ngrams(["a b"])  # every window touches a pad
        empty = filter_ngrams(db, type_ids(db, ["a", "b"]), include_boundary=False)
        assert empty.shape == (0, 5) and empty.dtype == np.int64

    def test_boundary_flag_admits_padded_windows(self):
        db = count_ngrams(["a b"])
        rows = filter_ngrams(db, type_ids(db, ["a", "b"]), include_boundary=True)
        assert len(rows) == 2
        # window centered on "a": <PAD_L1> <PAD_L2> a b <PAD_R1>
        assert [2, 3, 1, 4, 0] in rows.tolist()

    def test_distinct_gram_yields_one_tuple_regardless_of_count(self):
        db = count_ngrams(["a b c a b"] * 7)
        rows = filter_ngrams(db, type_ids(db, ["a", "b", "c"]), include_boundary=False)
        assert rows.tolist() == [[0, 1, 0, 1, 2]]

    def test_growing_vocabulary_never_shrinks_output(self):
        db = random_db(3)
        dictionary = build_dictionary(db)
        token_sets = []
        for size in (2, 4, 6, 8):
            vocab = select_vocabulary(dictionary, size)
            rows = filter_ngrams(db, dictionary.ids[:size], include_boundary=False)
            token_sets.append(set(example_grams(vocab, rows)))
        for smaller, larger in zip(token_sets, token_sets[1:]):
            assert smaller <= larger

    @pytest.mark.parametrize("include_boundary", [False, True])
    def test_matches_brute_force_oracle(self, include_boundary):
        db = random_db(8)
        dictionary = build_dictionary(db)
        vocab = select_vocabulary(dictionary, 5)
        rows = filter_ngrams(db, dictionary.ids[:5], include_boundary=include_boundary)
        reconstructed = set(example_grams(vocab, rows))
        assert reconstructed == oracle_filter(db_records(db), vocab, include_boundary)
        assert len(rows) == len(reconstructed)  # no duplicates

    def test_boundary_token_as_center_is_never_a_word(self):
        # A hand-made database may put a boundary token in the center. Ids:
        # the four pads 0-3 in BOUNDARY_TOKENS order, then a 4 and b 5.
        db = NGramDatabase([*BOUNDARY_TOKENS, "a", "b"],
                           np.array([[0, 1, 4, 5, 2], [1, 4, 5, 2, 3], [4, 5, 2, 3, 3]],
                                    dtype=np.int32),
                           np.ones(3, dtype=np.int64), 1, 3)
        dictionary = build_dictionary(db)
        assert dictionary_entries(dictionary) == [("a", 1), ("b", 1)]
        assert filter_ngrams(db, dictionary.ids[:2], include_boundary=True).tolist() == [
            [2, 3, 1, 4, 0], [3, 0, 4, 5, 1]]

    def test_peak_memory_per_database_row(self):
        # 120k nearly all distinct rows over 3000 types, |V| = 1500, so most
        # rows are dropped. Mapping every row twice as a (G, 5) array held
        # 40 bytes per row; the keep mask holds 2 bytes per row and the 10k
        # kept rows 80 bytes each, their int64 result included: about 7.
        rng = np.random.default_rng(3)
        words = np.array([f"w{i}" for i in range(3000)])
        db = count_ngrams([" ".join(row) for row in
                           words[rng.integers(0, 3000, (10000, 12))].tolist()])
        vocab_ids = build_dictionary(db).ids[:1500]
        rows, peak = traced_peak(filter_ngrams, db, vocab_ids, include_boundary=True)
        assert 0 < len(rows) < len(db.records) // 4
        assert peak < 12 * len(db.records), peak / len(db.records)

    def test_peak_memory_per_kept_row(self):
        # 1M distinct rows over 2000 words, |V| = 1990, so about 97.5% are
        # kept. Gathering, reordering and mapping every kept row at once
        # held 61 bytes per kept row; the result is 40 of them, the keep
        # mask 2 per row, and a block's temporaries about 5 at this size.
        rng = np.random.default_rng(6)
        n_words = 2000
        words = [f"w{i:04d}" for i in range(n_words)]  # type id = 4 + index
        keys = np.unique(rng.integers(0, n_words ** 5, 1_000_100))[:1_000_000]
        index = np.stack([keys // n_words ** (4 - col) % n_words for col in range(5)],
                         axis=1).astype(np.int32)  # ascending rows of word indices
        del keys
        db = NGramDatabase([*BOUNDARY_TOKENS, *words], index + 4,
                           np.ones(len(index), dtype=np.int64), len(index), len(index))
        rows, peak = traced_peak(filter_ngrams, db, type_ids(db, words[:1990]),
                                 include_boundary=False)
        assert len(index) * 0.97 < len(rows) < len(index)
        # A word's vocabulary id is its index, so the rows are the kept index rows.
        assert np.array_equal(rows, index[(index < 1990).all(axis=1)][:, [0, 1, 3, 4, 2]])
        assert peak < 52 * len(rows), peak / len(rows)

    def test_tuples_round_trip_to_database_grams(self):
        db = random_db(21)
        dictionary = build_dictionary(db)
        vocab = select_vocabulary(dictionary, 6)
        records = db_records(db)
        rows = filter_ngrams(db, dictionary.ids[:6], include_boundary=True)
        for gram in example_grams(vocab, rows):
            assert gram in records


def make_tuples(n):
    return np.array([(i % 7, (i + 1) % 7, (i + 2) % 7, (i + 3) % 7, i % 5) for i in range(n)],
                    dtype=np.int64)


def assert_splits_equal(a, b):
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.validation, b.validation)


class TestSplitDataset:
    def test_block_sizes(self):
        split = split_dataset(make_tuples(100), validation_ratio=0.1, fraction=1.0, seed=1)
        assert len(split.validation) == 10
        assert len(split.train) == 90

    def test_fraction_floors(self):
        split = split_dataset(make_tuples(100), validation_ratio=0.1, fraction=0.25, seed=1)
        assert len(split.train) == 22  # floor(0.25 * 90)

    def test_same_seed_same_split(self):
        a = split_dataset(make_tuples(60), validation_ratio=0.1, fraction=1.0, seed=42)
        b = split_dataset(make_tuples(60), validation_ratio=0.1, fraction=1.0, seed=42)
        assert_splits_equal(a, b)

    def test_different_seed_different_order(self):
        a = split_dataset(make_tuples(200), validation_ratio=0.1, fraction=1.0, seed=1)
        b = split_dataset(make_tuples(200), validation_ratio=0.1, fraction=1.0, seed=2)
        assert not np.array_equal(a.train, b.train)

    def test_partition_is_exact(self):
        tuples = make_tuples(83)
        split = split_dataset(tuples, validation_ratio=0.2, fraction=1.0, seed=9)
        assert len(split.validation) + len(split.train) == len(tuples)
        assert (sorted(np.concatenate([split.validation, split.train]).tolist())
                == sorted(tuples.tolist()))

    def test_validation_fixed_across_fractions(self):
        tuples = make_tuples(120)
        splits = [split_dataset(tuples, validation_ratio=0.1, fraction=f, seed=5)
                  for f in (0.25, 0.5, 0.75, 1.0)]
        for s in splits[1:]:
            assert np.array_equal(s.validation, splits[0].validation)

    def test_smaller_fraction_is_prefix_of_larger(self):
        tuples = make_tuples(120)
        quarter = split_dataset(tuples, validation_ratio=0.1, fraction=0.25, seed=5)
        full = split_dataset(tuples, validation_ratio=0.1, fraction=1.0, seed=5)
        assert np.array_equal(full.train[: len(quarter.train)], quarter.train)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            split_dataset(np.empty((0, 5), dtype=np.int64), validation_ratio=0.1, fraction=1.0,
                          seed=13)

    def test_nonempty_blocks_at_twenty(self):
        split = split_dataset(make_tuples(20), validation_ratio=0.1, fraction=1.0, seed=13)
        assert len(split.validation) and len(split.train)

    def test_peak_memory_follows_the_rows_returned(self):
        # At fraction 0.25 a third of the rows are returned. Beyond the
        # permutation's 8 bytes per row, only those rows are gathered:
        # gathering every row first held 48 bytes per row here.
        n = 200_000
        examples = np.random.default_rng(1).integers(0, 3000, (n, 5))
        split, peak = traced_peak(split_dataset, examples, validation_ratio=0.1,
                                  fraction=0.25, seed=5)
        returned = len(split.validation) + len(split.train)
        assert returned == 20_000 + 45_000
        assert peak < 8 * n + 48 * returned, peak / n


class TestPermutation:
    @pytest.mark.parametrize("n", [0, 1, 2, 13190, 200_003])  # 200,003: four swap chunks
    def test_matches_scalar_splitmix_oracle(self, n):
        for seed in (0, 1, 13, 2**63 + 7, 2**64 - 5):
            got = permutation(n, seed)
            assert got.dtype == np.int64
            assert got.tolist() == oracle_permutation(n, seed)

    def test_peak_memory_per_item(self):
        # The result's 8 bytes per item plus one chunk of draws; a list of
        # n Python ints alone takes 40.
        n = 200_000
        _, peak = traced_peak(permutation, n, 5)
        assert peak < 24 * n, peak / n

    def test_derive_seed_matches_scalar_splitmix_oracle(self):
        for seed in (0, -1, 13, 2**63 + 7, 2**64 - 5):
            for stream in (0, 1, 40, 2**64 - 1):
                assert derive_seed(seed, stream) == oracle_derive_seed(seed, stream)


class TestFiles:
    def test_dataset_round_trip(self, tmp_path, monkeypatch):
        db = random_db(2)
        dictionary = build_dictionary(db)
        vocab = select_vocabulary(dictionary, 6)
        tuples = filter_ngrams(db, dictionary.ids[:6], include_boundary=True)
        split = split_dataset(tuples, validation_ratio=0.2, fraction=0.75, seed=3)
        path = tmp_path / "dataset.tsv"
        write_dataset(split, vocab, path)
        loaded, meta = read_dataset(path)
        assert_splits_equal(loaded, split)
        assert loaded.train.dtype == np.int64
        assert meta["vocab_size"] == 6
        assert meta["vocab_hash"] == vocabulary_hash(vocab)
        for block_rows in (1, 2, 3):  # five values a row
            monkeypatch.setattr(manifest, "TEXT_BLOCK_VALUES", 5 * block_rows)
            write_dataset(split, vocab, tmp_path / "blocks.tsv")
            assert (tmp_path / "blocks.tsv").read_bytes() == path.read_bytes()

    def test_rows_are_written_a_block_at_a_time(self, tmp_path):
        # 200k rows give np.savetxt's row bytes while holding one block of
        # cells at a time: formatting all rows' Python ints at once held
        # 236 bytes per row, and 65,536 rows of them at once 16 MB.
        rng = np.random.default_rng(4)
        rows = rng.integers(0, 3000, (200_000, 5))
        split = DatasetSplit(rows[20_000:], rows[:20_000])
        vocab = [f"w{i}" for i in range(3000)]
        path, expected = tmp_path / "dataset.tsv", tmp_path / "savetxt.tsv"
        _, peak = traced_peak(write_dataset, split, vocab, path)
        np.savetxt(expected, rows, fmt="%d", delimiter="\t")
        header, body = path.read_bytes().split(b"\n", 1)
        assert header.endswith(b"\t#validation=20000\t#train=180000")
        assert body == expected.read_bytes()
        assert peak < 3 * 2 ** 20, peak

    def test_empty_blocks_round_trip_without_warning(self, tmp_path, recwarn):
        empty = np.empty((0, 5), dtype=np.int64)
        split = DatasetSplit(empty, empty)
        path = tmp_path / "dataset.tsv"
        write_dataset(split, ["a", "b"], path)
        loaded, _ = read_dataset(path)
        assert loaded.train.shape == loaded.validation.shape == (0, 5)
        assert not recwarn.list

    def test_vocabulary_round_trip(self, tmp_path):
        vocab = ["um", "dois", "três"]
        path = tmp_path / "vocab.tsv"
        write_vocabulary(vocab, path)
        loaded = read_vocabulary(path)
        assert loaded == vocab
        assert vocabulary_hash(loaded) == vocabulary_hash(vocab)
