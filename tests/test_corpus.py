import collections
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetembed.corpus import (
    BOUNDARY_TOKENS,
    HANDLE_TOKEN,
    LINK_TOKEN,
    PAD_L1,
    PAD_L2,
    PAD_R1,
    PAD_R2,
    build_dictionary,
    count_ngrams,
    extract_5grams,
    read_ngram_db,
    tokenize_tweet,
    write_dictionary,
    write_ngram_db,
)
from tweetembed.dataset import filter_ngrams, select_vocabulary

from oracles import db_records, example_grams, oracle_count, oracle_dictionary, oracle_filter
from synth import NON_ASCII_TOKENS

tweet_text = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)),
    max_size=60,
)


class TestTokenize:
    def test_handles_and_links_are_masked(self):
        assert tokenize_tweet("Olá @joao veja http://abc.pt") == [
            "olá", "T_HANDLE", "veja", "LINK",
        ]

    def test_empty_input(self):
        assert tokenize_tweet("") == []
        assert tokenize_tweet("   \t  ") == []

    def test_downcasing_keeps_punctuation_attached(self):
        assert tokenize_tweet("Ronaldo! RONALDO!") == ["ronaldo!", "ronaldo!"]

    def test_bare_at_sign_is_not_a_handle(self):
        assert tokenize_tweet("@ @x") == ["@", HANDLE_TOKEN]

    def test_link_detection_is_case_insensitive(self):
        assert tokenize_tweet("HTTP://ABC.PT https://x HtTpS://y") == [
            LINK_TOKEN, LINK_TOKEN, LINK_TOKEN,
        ]
        # prefix rule only; other schemes are plain tokens
        assert tokenize_tweet("ftp://x httpx") == ["ftp://x", "httpx"]

    def test_placeholders_pass_through_verbatim(self):
        assert tokenize_tweet("T_HANDLE LINK") == [HANDLE_TOKEN, LINK_TOKEN]

    @given(tweet_text)
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize_tweet(text)
        assert tokenize_tweet(" ".join(tokens)) == tokens

    @given(tweet_text)
    def test_tokens_have_no_whitespace(self, text):
        for token in tokenize_tweet(text):
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
    def test_single_token_fully_padded(self):
        assert extract_5grams(["a"]) == [(PAD_L1, PAD_L2, "a", PAD_R1, PAD_R2)]

    def test_three_tokens(self):
        grams = extract_5grams(["a", "b", "c"])
        assert len(grams) == 3
        assert grams[1] == (PAD_L2, "a", "b", "c", PAD_R1)

    def test_twelve_tokens_give_twelve_windows(self):
        tokens = [f"t{i}" for i in range(12)]
        assert len(extract_5grams(tokens)) == 12

    def test_empty(self):
        assert extract_5grams([]) == []

    @given(token_lists)
    def test_one_window_per_token_and_centers_reproduce_tweet(self, tokens):
        grams = extract_5grams(tokens)
        assert len(grams) == len(tokens)
        assert [g[2] for g in grams] == list(tokens)

    @given(token_lists)
    def test_boundary_tokens_never_centers(self, tokens):
        for gram in extract_5grams(tokens):
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
        expected = collections.Counter(g for t in tweets for g in extract_5grams(t.split()))
        assert len(db.types) == 33004
        assert list(db_records(db).items()) == sorted(expected.items())


class TestBuildDictionary:
    def test_center_counting(self):
        db = count_ngrams(["a a b"])
        assert build_dictionary(db).entries == [("a", 2), ("b", 1)]

    def test_single_word(self):
        db = count_ngrams(["x"])
        assert build_dictionary(db).entries == [("x", 1)]

    def test_ties_break_lexicographically(self):
        db = count_ngrams(["b a", "a b"])
        assert build_dictionary(db).entries == [("a", 2), ("b", 2)]

    def test_frequencies_sum_to_total_tokens(self):
        rnd = random.Random(11)
        tweets = [" ".join(rnd.choices("abcde", k=rnd.randint(1, 7))) for _ in range(60)]
        db = count_ngrams(tweets)
        dictionary = build_dictionary(db)
        assert sum(freq for _, freq in dictionary.entries) == db.total_tokens

    def test_matches_oracle(self):
        rnd = random.Random(5)
        tweets = [" ".join(rnd.choices(["x", "y", "zz", "=)"], k=rnd.randint(1, 8)))
                  for _ in range(80)]
        db = count_ngrams(tweets)
        assert build_dictionary(db).entries == oracle_dictionary(db_records(db))

    def test_boundary_tokens_excluded(self):
        db = count_ngrams(["a b c"])
        words = [w for w, _ in build_dictionary(db).entries]
        assert not set(words) & set(BOUNDARY_TOKENS)


class TestFiles:
    def test_ngram_db_round_trip(self, tmp_path):
        db = count_ngrams(["olá mundo", "olá", "=) http://a.pt"])
        path = tmp_path / "ngrams.tsv"
        write_ngram_db(db, path)
        loaded = read_ngram_db(path)
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
        assert [(word, int(freq)) for word, freq, _ in rows] == dictionary.entries
        assert [int(rank) for _, _, rank in rows] == list(range(len(rows)))

    def test_count_beyond_64_bits_rejected(self, tmp_path):
        path = tmp_path / "ngrams.tsv"
        path.write_text(f"#total_tweets=1\t#total_tokens={2 ** 64}\n"
                        f"{PAD_L1}\t{PAD_L2}\ta\t{PAD_R1}\t{PAD_R2}\t{2 ** 64}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="64 bits"):
            read_ngram_db(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("no header\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_ngram_db(path)


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
    assert dictionary.entries == oracle_dictionary(records)
    if dictionary.entries:
        vocab = select_vocabulary(dictionary, min(vocab_size, len(dictionary)))
        for include_boundary in (False, True):
            rows = filter_ngrams(db, vocab, include_boundary=include_boundary)
            expected = sorted(oracle_filter(records, vocab.words, include_boundary))
            assert example_grams(vocab, rows) == expected
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.tsv", Path(tmp) / "b.tsv"
        write_ngram_db(db, first)
        loaded = read_ngram_db(first)
        write_ngram_db(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded.types == sorted(set(loaded.types))
    assert np.array_equal(loaded.records, db.records) and np.array_equal(loaded.counts, db.counts)
    assert (loaded.total_tweets, loaded.total_tokens) == (db.total_tweets, db.total_tokens)
