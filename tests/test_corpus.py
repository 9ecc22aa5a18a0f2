import collections
import random
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetembed import corpus, manifest
from tweetembed.corpus import (
    BOUNDARY_TOKENS,
    HANDLE_TOKEN,
    LINK_TOKEN,
    PAD_L1,
    PAD_L2,
    PAD_R1,
    PAD_R2,
    NGramDatabase,
    _exact_sum,
    _row_order,
    _rows_ascend,
    build_dictionary,
    count_ngrams,
    ngram_db_bin,
    read_ngram_db,
    write_dictionary,
    write_ngram_db,
)
from tweetembed.dataset import filter_ngrams, select_vocabulary
from tweetembed.manifest import file_sha256, read_container, write_container

from memory import traced_held, traced_peak
from oracles import (db_records, dictionary_entries, example_grams, oracle_count,
                     oracle_dictionary, oracle_filter, oracle_tokenize, oracle_windows,
                     oracle_write_dictionary, read_ngram_tsv)
from synth import NON_ASCII_TOKENS, non_ascii_corpus

tweet_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=60,
)


def grams(text):
    """The 5-gram counts `count_ngrams` finds in one tweet."""
    return db_records(count_ngrams([text]))


def windows(tokens):
    """The padded windows of an already tokenized tweet, as counts."""
    return dict(collections.Counter(oracle_windows(tokens)))


def ingest_and_read(db, tsv):
    """Write `db` as `ingest` does, the TSV at `tsv` and the database beside
    it, and read the database back."""
    write_ngram_db(db, tsv)
    loaded, tsv_sha256 = read_ngram_db(tsv)
    assert tsv_sha256 == file_sha256(tsv)
    return loaded


class TestTokenize:
    # A tweet's windows chain its tokens in order, so comparing windows
    # compares the token sequence count_ngrams sees.
    def test_handles_and_links_are_masked(self):
        assert grams("Olá @joao veja http://abc.pt") == windows(
            ["olá", "T_HANDLE", "veja", "LINK"])

    def test_empty_input(self):
        for text in ("", "   \t  "):
            db = count_ngrams([text])
            assert (len(db.records), db.total_tweets, db.total_tokens) == (0, 0, 0)

    def test_downcasing_keeps_punctuation_attached(self):
        assert grams("Ronaldo! RONALDO!") == windows(["ronaldo!", "ronaldo!"])

    def test_bare_at_sign_is_not_a_handle(self):
        assert grams("@ @x") == windows(["@", HANDLE_TOKEN])

    def test_link_detection_is_case_insensitive(self):
        assert grams("HTTP://ABC.PT https://x HtTpS://y") == windows([LINK_TOKEN] * 3)
        # prefix rule only; other schemes are plain tokens
        assert grams("ftp://x httpx") == windows(["ftp://x", "httpx"])

    def test_placeholders_pass_through_verbatim(self):
        assert grams("T_HANDLE LINK") == windows([HANDLE_TOKEN, LINK_TOKEN])

    @given(tweet_text)
    def test_idempotent_on_own_output(self, text):
        tokens = oracle_tokenize(text)
        assert grams(text) == windows(tokens)
        assert grams(" ".join(tokens)) == windows(tokens)

    @given(tweet_text)
    def test_tokens_have_no_whitespace(self, text):
        db = count_ngrams([text])
        for token in db.types:
            assert token
            assert not any(ch.isspace() for ch in token)


# legal TokenSequence members: whitespace-free, and never a literal boundary
# token (down-casing in the tokenizer makes those unreachable from raw text)
token_lists = st.lists(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp"),
                               blacklist_characters="\t\n\r\x0b\x0c"),
        min_size=1, max_size=8,
    ).filter(lambda t: not any(ch.isspace() for ch in t)
             and t not in BOUNDARY_TOKENS),
    min_size=0, max_size=20,
)


class TestExtract5Grams:
    """The padded windows count_ngrams extracts from one tweet."""

    def test_single_token_fully_padded(self):
        assert grams("a") == {(PAD_L1, PAD_L2, "a", PAD_R1, PAD_R2): 1}

    def test_three_tokens(self):
        found = grams("a b c")
        assert len(found) == 3
        assert found[(PAD_L2, "a", "b", "c", PAD_R1)] == 1

    def test_twelve_tokens_give_twelve_windows(self):
        db = count_ngrams([" ".join(f"t{i}" for i in range(12))])
        assert len(db.records) == db.total_tokens == 12

    def test_empty(self):
        db = count_ngrams([])
        assert (len(db.records), db.total_tweets, db.total_tokens) == (0, 0, 0)

    def test_peak_memory_per_window(self):
        # 10k tweets of 12 tokens over 3000 types, so nearly every window is
        # a distinct row and the result alone takes 28 bytes per window.
        # Copying the windows out and sorting that copy held 87 bytes per
        # window; the id sequence and the sort key hold about 38.
        rng = np.random.default_rng(3)
        words = np.array([f"w{i}" for i in range(3000)])
        tweets = [" ".join(row) for row in words[rng.integers(0, 3000, (10000, 12))].tolist()]
        db, peak = traced_peak(count_ngrams, tweets)
        assert db.total_tokens == 120000
        assert peak < 48 * db.total_tokens, peak / db.total_tokens

    @given(token_lists)
    def test_one_window_per_token_and_centers_reproduce_tweet(self, tokens):
        tokens = oracle_tokenize(" ".join(tokens))
        db = count_ngrams([" ".join(tokens)])
        assert db.total_tokens == len(tokens) == sum(db_records(db).values())
        centers = collections.Counter()
        for gram, count in db_records(db).items():
            centers[gram[2]] += count
        assert centers == collections.Counter(tokens)

    @given(token_lists)
    def test_boundary_tokens_never_centers(self, tokens):
        for gram in grams(" ".join(tokens)):
            assert gram[2] not in BOUNDARY_TOKENS


class TestCountNGrams:
    def test_duplicate_tweets_aggregate(self):
        db = count_ngrams(["oi", "oi"])
        assert db_records(db) == {(PAD_L1, PAD_L2, "oi", PAD_R1, PAD_R2): 2}
        assert db.total_tweets == 2
        assert db.total_tokens == 2

    def test_two_tweets_hand_enumerated(self):
        db = count_ngrams(["a b", "b a"])
        assert len(db.records) == 4
        assert all(count == 1 for count in db_records(db).values())

    def test_counts_sum_to_total_tokens(self):
        tweets = ["um dois três", "um", "", "dois dois"]
        db = count_ngrams(tweets)
        assert sum(db_records(db).values()) == db.total_tokens == 6
        assert db.total_tweets == 3  # the blank line is skipped

    @given(st.lists(tweet_text, max_size=15), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_order_insensitive(self, tweets, rnd):
        shuffled = list(tweets)
        rnd.shuffle(shuffled)
        a = count_ngrams(tweets)
        b = count_ngrams(shuffled)
        assert db_records(a) == db_records(b)
        assert a.total_tokens == b.total_tokens
        assert a.total_tweets == b.total_tweets

    def test_matches_quadratic_oracle(self):
        rnd = random.Random(4)
        vocab = ["olá", "T_HANDLE", "@user", "http://x.pt", "bom", "dia!", "=)"]
        tweets = [" ".join(rnd.choices(vocab, k=rnd.randint(0, 9))) for _ in range(100)]
        db = count_ngrams(tweets)
        records, tweets_n, tokens_n = oracle_count(tweets)
        assert db_records(db) == records
        assert db.total_tweets == tweets_n
        assert db.total_tokens == tokens_n

    def test_rows_ascend_with_many_types(self):
        # 33000 types need 16-bit ids, so the rows sort on two packed keys
        # and a key would overflow if it held a fourth column.
        rnd = random.Random(6)
        words = [f"t{i}" for i in range(33000)]
        rnd.shuffle(words)
        tweets = [" ".join(words[i : i + 6]) for i in range(0, len(words), 6)]
        tweets += [" ".join(rnd.choices(words, k=6)) for _ in range(2000)]
        db = count_ngrams(tweets)
        expected = collections.Counter(g for t in tweets for g in oracle_windows(t.split()))
        assert len(db.types) == 33004
        assert list(db_records(db).items()) == sorted(expected.items())


class TestBuildDictionary:
    def test_center_counting(self):
        db = count_ngrams(["a a b"])
        assert dictionary_entries(build_dictionary(db)) == [("a", 2), ("b", 1)]

    def test_single_word(self):
        db = count_ngrams(["x"])
        assert dictionary_entries(build_dictionary(db)) == [("x", 1)]

    def test_ties_break_lexicographically(self):
        db = count_ngrams(["b a", "a b"])
        assert dictionary_entries(build_dictionary(db)) == [("a", 2), ("b", 2)]

    def test_frequencies_sum_to_total_tokens(self):
        rnd = random.Random(11)
        tweets = [" ".join(rnd.choices("abcde", k=rnd.randint(1, 7))) for _ in range(60)]
        db = count_ngrams(tweets)
        dictionary = build_dictionary(db)
        assert sum(freq for _, freq in dictionary_entries(dictionary)) == db.total_tokens

    def test_matches_oracle(self):
        rnd = random.Random(5)
        tweets = [" ".join(rnd.choices(["x", "y", "zz", "=)"], k=rnd.randint(1, 8)))
                  for _ in range(80)]
        db = count_ngrams(tweets)
        assert dictionary_entries(build_dictionary(db)) == oracle_dictionary(db_records(db))

    def test_boundary_tokens_excluded(self):
        db = count_ngrams(["a b c"])
        words = [w for w, _ in dictionary_entries(build_dictionary(db))]
        assert not set(words) & set(BOUNDARY_TOKENS)

    def test_holds_12_bytes_per_type(self, monkeypatch):
        # The benchmark's corpus_bound corpus (seed 1, 25,016 types). One
        # Python (word, count) tuple per type held 65 bytes per type; the
        # int32 ids and int64 frequencies hold 12 per word, and the types
        # are the database's own list.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from gen import generate
        from run import WORKLOADS
        db = count_ngrams(generate(WORKLOADS["corpus_bound"].corpus, 1))
        dictionary, held = traced_held(build_dictionary, db)
        assert len(db.types) == 25016 and dictionary.types is db.types
        assert held <= 12 * len(db.types) + 1024, held / len(db.types)


class TestFiles:
    def test_ngram_db_round_trip(self, tmp_path):
        db = count_ngrams(["olá mundo", "olá", "=) http://a.pt"])
        path = tmp_path / "ngrams.tsv"
        loaded = ingest_and_read(db, path)
        assert db_records(loaded) == db_records(db)
        assert (loaded.total_tweets, loaded.total_tokens) == (db.total_tweets, db.total_tokens)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == f"#total_tweets={db.total_tweets}\t#total_tokens={db.total_tokens}"

    def test_ngram_db_rows_sorted(self, tmp_path):
        db = count_ngrams(["c b a", "a b c"])
        path = tmp_path / "ngrams.tsv"
        write_ngram_db(db, path)
        rows = [line.split("\t")[:5] for line in
                path.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows == sorted(rows)

    def test_dictionary_round_trip(self, tmp_path):
        db = count_ngrams(["a a b c c c"])
        dictionary = build_dictionary(db)
        path = tmp_path / "dictionary.tsv"
        write_dictionary(dictionary, path)
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        assert [(word, int(freq)) for word, freq, _ in rows] == dictionary_entries(dictionary)
        assert [int(rank) for _, _, rank in rows] == list(range(len(rows)))

    def test_dictionary_blocks_write_the_per_line_file(self, tmp_path, monkeypatch):
        # Five words (ties, a non-ASCII one) at 1, 1, 2 and 3 rows a block.
        dictionary = build_dictionary(count_ngrams(["olá b a", "c a b", "=) olá"]))
        oracle_write_dictionary(dictionary_entries(dictionary), tmp_path / "lines.tsv")
        for values in (1, 4, 6, 9):  # three values a row
            monkeypatch.setattr(manifest, "TEXT_BLOCK_VALUES", values)
            write_dictionary(dictionary, tmp_path / "blocks.tsv")
            assert (tmp_path / "blocks.tsv").read_bytes() == (tmp_path / "lines.tsv").read_bytes()

    def test_count_beyond_64_bits_rejected(self, tmp_path):
        # Counts that fill int64 sum past 2^64 without wrapping, and a sum
        # of exactly 2^63 is one past what an int64 total holds.
        db = count_ngrams(["a b c"])
        path = tmp_path / "ngrams.tsv"
        for counts in ([2 ** 63 - 1] * 3, [2 ** 62, 2 ** 62 - 1, 1]):
            total = sum(counts)
            write_ngram_db(replace(db, counts=np.array(counts, dtype=np.int64),
                                   total_tokens=total), path)
            with pytest.raises(ValueError, match=f"sum to total_tokens={total} below 2\\^63"):
                read_ngram_db(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "ngrams.tsv"
        write_ngram_db(count_ngrams(["a b c"]), path)
        ngram_db_bin(path).write_text("no header\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path.name}.bin: bad magic .*; re-run ingest"):
            read_ngram_db(path)

    @pytest.mark.parametrize("value", ["+3", " 3", "3 ", "\u0663", "1_0", "", "-3"])
    def test_count_or_total_that_is_not_plain_digits_rejected(self, tmp_path, value):
        # The counts are fixed-width integers; the header's totals are JSON
        # integers, and a string is refused, even one int() would take.
        path = tmp_path / "ngrams.tsv"
        write_ngram_db(count_ngrams(["a b c"]), path)
        header, body = read_container(ngram_db_bin(path).read_bytes(), corpus.NGRAM_DB_MAGIC)
        body = bytes(body)
        for key in ("total_tweets", "total_tokens"):
            write_container(ngram_db_bin(path), corpus.NGRAM_DB_MAGIC, {**header, key: value},
                            [body])
            with pytest.raises(ValueError, match="unsupported header"):
                read_ngram_db(path)


def _ascending_db(n: int) -> NGramDatabase:
    """n distinct rows in ascending order over 64 types, one count each."""
    types = sorted([*BOUNDARY_TOKENS, *(f"w{i:02d}" for i in range(60))])
    records = np.zeros((n, 5), dtype=np.int32)
    ids = np.arange(n)
    for col in range(4, 0, -1):
        records[:, col] = ids % 64
        ids //= 64
    return NGramDatabase(types, records, np.ones(n, dtype=np.int64), 1, n)


def _block_rows(monkeypatch, rows: int) -> None:
    """Read, count and sum `rows` rows at a time, and write 5-gram rows
    (six values each) that many at a time."""
    monkeypatch.setattr(corpus, "BLOCK_ROWS", rows)
    monkeypatch.setattr(manifest, "TEXT_BLOCK_VALUES", 6 * rows)


class TestBlocks:
    """Files, and count_ngrams' id sequences, of several blocks; every
    other test's fits in one."""

    TWEETS = ["a b c", "b c d e", "c a", "e e e a", "a b c"]  # 13 distinct 5-grams

    def test_round_trip_keeps_the_bytes(self, tmp_path, monkeypatch):
        # Both files, written from the count and again from the database
        # read back, at 1, 2 and 3 rows a block.
        db = count_ngrams(self.TWEETS)
        assert len(db.records) == 13
        entries = dictionary_entries(build_dictionary(db))
        write_ngram_db(db, tmp_path / "one.tsv")
        expected = [(tmp_path / name).read_bytes() for name in ("one.tsv", "one.tsv.bin")]
        for block_rows in (1, 2, 3):
            _block_rows(monkeypatch, block_rows)
            first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
            assert dictionary_entries(build_dictionary(count_ngrams(self.TWEETS))) == entries
            write_ngram_db(ingest_and_read(count_ngrams(self.TWEETS), first), second)
            for path in (first, second):
                assert [path.read_bytes(), path.with_suffix(".tsv.bin").read_bytes()] == expected

    @pytest.mark.parametrize("edit, message", [
        (lambda records, counts: counts.__setitem__([7, 8], [0, counts[7] + counts[8]]),
         "a count is below 1"),
        (lambda records, counts: records.__setitem__(8, records[7]),
         "rows are not strictly ascending"),
        (lambda records, counts: records.__setitem__([8, 9], records[[9, 8]]),
         "rows are not strictly ascending"),
    ], ids=["count of 0", "repeated row", "rows swapped across blocks"])
    def test_bad_row_in_the_third_block_is_rejected(self, tmp_path, monkeypatch, edit, message):
        # At 3 rows a block, rows 6-8 are the third block and row 9 opens the fourth.
        db = count_ngrams(self.TWEETS)
        records, counts = db.records.copy(), db.counts.copy()
        edit(records, counts)
        path = tmp_path / "ngrams.tsv"
        write_ngram_db(replace(db, records=records, counts=counts), path)
        _block_rows(monkeypatch, 3)
        with pytest.raises(ValueError, match=f"{path.name}.bin: {message}; re-run ingest"):
            read_ngram_db(path)

    def test_write_peak_does_not_grow_with_rows(self, tmp_path):
        # Formatting 65,536 rows at a time held 9 MB here.
        db = _ascending_db(1 << 19)
        _, peak = traced_peak(write_ngram_db, db, tmp_path / "ngrams.tsv")
        assert peak < 4 * 2 ** 20, peak


class TestSidecar:
    """The binary database reads back as the database it was written from,
    and the TSV text view beside it holds the same database."""

    @pytest.mark.parametrize("tweets, block_rows", [
        ([], None),
        (non_ascii_corpus(300, seed=21), None),
        (TestBlocks.TWEETS, 3),  # the TSV in five blocks
    ], ids=["empty", "non-ASCII", "multi-block"])
    def test_round_trip(self, tweets, block_rows, tmp_path, monkeypatch):
        if block_rows:
            _block_rows(monkeypatch, block_rows)
        db = count_ngrams(tweets)
        tsv = tmp_path / "ngrams.tsv"
        loaded = ingest_and_read(db, tsv)
        assert loaded.types == db.types
        assert loaded.records.dtype == np.int32 and loaded.counts.dtype == np.int64
        assert loaded.records.shape == db.records.shape
        assert np.array_equal(loaded.records, db.records)
        assert np.array_equal(loaded.counts, db.counts)
        assert (loaded.total_tweets, loaded.total_tokens) == (db.total_tweets, db.total_tokens)
        rows, total_tweets, total_tokens = read_ngram_tsv(tsv)
        assert (total_tweets, total_tokens) == (loaded.total_tweets, loaded.total_tokens)
        assert rows == list(db_records(loaded).items())

    def test_stale_or_missing_sidecar_is_refused(self, tmp_path):
        tsv = tmp_path / "ngrams.tsv"
        sidecar = ngram_db_bin(tsv)
        assert sidecar == tmp_path / "ngrams.tsv.bin"
        write_ngram_db(count_ngrams(TestBlocks.TWEETS), tsv)
        assert len(read_ngram_db(tsv)[0].records) == 13
        tsv.write_bytes(tsv.read_bytes() + b"\n")
        with pytest.raises(ValueError, match=f"{sidecar.name}: written for other TSV bytes"):
            read_ngram_db(tsv)
        sidecar.unlink()
        with pytest.raises(ValueError, match=f"{sidecar.name}: no such file; re-run ingest"):
            read_ngram_db(tsv)
        tsv.unlink()
        with pytest.raises(ValueError, match=f"{tsv.name}: no such file; re-run ingest"):
            read_ngram_db(tsv)

    def test_broken_sidecar_is_refused(self, tmp_path):
        tsv = tmp_path / "ngrams.tsv"
        sidecar = ngram_db_bin(tsv)
        write_ngram_db(count_ngrams(TestBlocks.TWEETS), tsv)
        sidecar.write_bytes(sidecar.read_bytes()[:-1])
        with pytest.raises(ValueError, match=f"{sidecar.name}: .* header implies .*; re-run"):
            read_ngram_db(tsv)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_checks_in_blocks_match_one_pass(self, data):
        # Rows that ascend but for one swapped or repeated pair, which may
        # straddle two blocks, and counts whose high 32 bits are in use.
        rows = sorted(set(data.draw(st.lists(st.tuples(*[st.integers(0, 2)] * 5), max_size=12),
                                    label="rows")))
        if len(rows) > 1 and data.draw(st.booleans(), label="break"):
            i = data.draw(st.integers(0, len(rows) - 2), label="pair")
            if data.draw(st.booleans(), label="repeat"):
                rows[i + 1] = rows[i]
            else:
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
        records = np.array(rows, dtype=np.int32).reshape(-1, 5)
        counts = np.array(data.draw(st.lists(st.integers(0, 2 ** 62), max_size=12),
                                    label="counts"), dtype=np.int64)
        with mock.patch.object(corpus, "BLOCK_ROWS", data.draw(st.integers(1, 4),
                                                               label="block rows")):
            assert _rows_ascend(records) == all(map(tuple.__lt__, rows, rows[1:]))
            assert _exact_sum(counts) == sum(counts.tolist())

    def test_peak_memory_per_row(self, tmp_path):
        # 2^19 ascending rows, one count each. Beyond the file's own bytes
        # the checks hold a few blocks at most, not 8 bytes per row.
        n = 1 << 19
        tsv = tmp_path / "ngrams.tsv"
        write_ngram_db(_ascending_db(n), tsv)
        (db, _), peak = traced_peak(read_ngram_db, tsv)
        assert len(db.records) == n
        extra = peak - ngram_db_bin(tsv).stat().st_size
        assert extra < 4 * n, extra / n


non_ascii_tweets = st.lists(st.lists(st.sampled_from(NON_ASCII_TOKENS), max_size=7).map(" ".join),
                            max_size=20)


@settings(max_examples=30, deadline=None)
@given(non_ascii_tweets, st.integers(1, 12))
def test_id_arrays_match_the_oracles(tweets, vocab_size):
    db = count_ngrams(tweets)
    records, n_tweets, n_tokens = oracle_count(tweets)
    assert db_records(db) == records
    assert (db.total_tweets, db.total_tokens) == (n_tweets, n_tokens)
    assert db.records.dtype == np.int32 and db.records.shape == (len(records), 5)
    grams = list(db_records(db))
    assert grams == sorted(records)  # rows ascend in token order
    dictionary = build_dictionary(db)
    assert dictionary_entries(dictionary) == oracle_dictionary(records)
    if len(dictionary.ids):
        vocab = select_vocabulary(dictionary, min(vocab_size, len(dictionary.ids)))
        for include_boundary in (False, True):
            rows = filter_ngrams(db, dictionary.ids[:len(vocab)], include_boundary=include_boundary)
            expected = sorted(oracle_filter(records, vocab, include_boundary))
            assert example_grams(vocab, rows) == expected
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.tsv", Path(tmp) / "b.tsv"
        loaded = ingest_and_read(db, first)
        write_ngram_db(loaded, second)
        for suffix in (".tsv", ".tsv.bin"):
            assert first.with_suffix(suffix).read_bytes() == second.with_suffix(suffix).read_bytes()
    assert loaded.types == sorted(set(loaded.types))
    assert np.array_equal(loaded.records, db.records) and np.array_equal(loaded.counts, db.counts)
    assert (loaded.total_tweets, loaded.total_tokens) == (db.total_tweets, db.total_tokens)


# Type counts on both sides of the thresholds where the row key holds five
# ids (4096), takes its first rank (4097) and takes a second (2^21 + 1);
# at 2^16 four ids would fill all 64 bits, sign bit included.
N_TYPES = [2, 4096, 4097, 2 ** 16, 2 ** 21, 2 ** 21 + 1]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_distinct_rows_match_a_counter(data):
    n_types = data.draw(st.sampled_from(N_TYPES), label="n_types")
    ids = data.draw(st.lists(st.sampled_from([0, 1, n_types - 2, n_types - 1])
                             | st.integers(0, n_types - 1), min_size=1, max_size=4), label="ids")
    rows = data.draw(st.lists(st.tuples(*[st.sampled_from(ids)] * 5), max_size=60), label="rows")
    array = np.array(rows, dtype=np.int32).reshape(-1, 5)
    order, first = _row_order(lambda col: array[:, col], len(array), n_types)
    distinct = array[order[first]]
    expected = sorted(collections.Counter(rows).items())
    assert distinct.tolist() == [list(row) for row, _ in expected]
    counts = np.diff(np.flatnonzero(np.append(first, True)))
    assert counts.tolist() == [count for _, count in expected]
    ordered = [tuple(row) for row in array[order].tolist()]
    assert ordered == sorted(rows)
    assert first.tolist() == [i == 0 or ordered[i] != ordered[i - 1] for i in range(len(rows))]
