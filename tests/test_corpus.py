import random

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
    read_dictionary,
    read_ngram_db,
    tokenize_tweet,
    write_dictionary,
    write_ngram_db,
)

from oracles import oracle_count, oracle_dictionary

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
        assert db.records == {(PAD_L1, PAD_L2, "oi", PAD_R1, PAD_R2): 2}
        assert db.total_tweets == 2
        assert db.total_tokens == 2

    def test_two_tweets_hand_enumerated(self):
        db = count_ngrams(["a b", "b a"])
        assert len(db.records) == 4
        assert all(count == 1 for count in db.records.values())

    def test_counts_sum_to_total_tokens(self):
        tweets = ["um dois três", "um", "", "dois dois"]
        db = count_ngrams(tweets)
        assert sum(db.records.values()) == db.total_tokens == 6
        assert db.total_tweets == 3  # the blank line is skipped

    @given(st.lists(tweet_text, max_size=15), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_order_insensitive(self, tweets, rnd):
        shuffled = list(tweets)
        rnd.shuffle(shuffled)
        a = count_ngrams(tweets)
        b = count_ngrams(shuffled)
        assert a.records == b.records
        assert a.total_tokens == b.total_tokens
        assert a.total_tweets == b.total_tweets

    def test_matches_quadratic_oracle(self):
        rnd = random.Random(4)
        vocab = ["olá", "T_HANDLE", "@user", "http://x.pt", "bom", "dia!", "=)"]
        tweets = [" ".join(rnd.choices(vocab, k=rnd.randint(0, 9))) for _ in range(100)]
        db = count_ngrams(tweets)
        records, tweets_n, tokens_n = oracle_count(tweets)
        assert db.records == records
        assert db.total_tweets == tweets_n
        assert db.total_tokens == tokens_n


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
        assert build_dictionary(db).entries == oracle_dictionary(db.records)

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
        assert loaded == db
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
        assert read_dictionary(path).entries == dictionary.entries

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("no header\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_ngram_db(path)
