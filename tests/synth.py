"""Synthetic corpora for tests: a class-structured template language and a
Zipf-distributed filler language.

The template language has `n_classes` semantic classes of `words_per_class`
words each. Every tweet picks one class, samples a small subset of its
words, and draws all tokens from that subset, so words of one class share
context distributions (and words of different classes share none). The
per-tweet subset keeps the prediction task learnable: given four context
words the plausible targets are roughly the subset members.
"""

from __future__ import annotations

import random

import numpy as np

from tweetembed.evaluation import GoldClass


def class_words(n_classes: int = 8, words_per_class: int = 32) -> list[list[str]]:
    return [
        [f"c{c:02d}w{j:02d}" for j in range(words_per_class)]
        for c in range(n_classes)
    ]


def class_corpus(n_tweets: int, seed: int, n_classes: int = 8,
                 words_per_class: int = 32, subset_size: int = 8,
                 tweet_len: int = 12) -> list[str]:
    rng = np.random.default_rng(seed)
    words = class_words(n_classes, words_per_class)
    tweets = []
    for _ in range(n_tweets):
        c = int(rng.integers(n_classes))
        subset = rng.choice(words_per_class, size=subset_size, replace=False)
        picks = rng.integers(subset_size, size=tweet_len)
        tweets.append(" ".join(words[c][subset[k]] for k in picks))
    return tweets


def class_gold(n_classes: int = 8, words_per_class: int = 32,
               members_per_class: int | None = None) -> list[GoldClass]:
    words = class_words(n_classes, words_per_class)
    take = members_per_class or words_per_class
    return [
        GoldClass(f"class{c:02d}", tuple(words[c][:take]))
        for c in range(n_classes)
    ]


def zipf_corpus(n_tweets: int, seed: int, vocab_types: int = 2000,
                alpha: float = 1.0, mean_len: int = 12) -> list[str]:
    rng = np.random.default_rng(seed)
    words = np.array([f"w{i:05d}" for i in range(vocab_types)])
    weights = 1.0 / np.arange(1, vocab_types + 1) ** alpha
    probs = weights / weights.sum()
    tweets = []
    for _ in range(n_tweets):
        length = max(1, int(rng.poisson(mean_len)))
        picks = rng.choice(vocab_types, size=length, p=probs)
        tweets.append(" ".join(words[picks]))
    return tweets


# Tokens that are not plain ASCII words: accents, an emoji, "İ" (whose
# lower() is two code points) and "ß", handles and links that become
# placeholders, the placeholders themselves and pad spellings written in a
# tweet, which must stay distinct from the real boundary tokens.
NON_ASCII_TOKENS = ("não", "NÃO", "é", "É", "😀", "İ", "ß", "@ana", "@Bia", "http://x.pt",
                    "HTTPS://Y.PT", "T_HANDLE", "LINK", "<pad_l1>", "<PAD_R2>", "bom", "dia!",
                    "=)")


def non_ascii_corpus(n_tweets: int, seed: int) -> list[str]:
    """Tweets of 0-7 tokens from NON_ASCII_TOKENS; about one in eight is
    blank and one in eight has a single token."""
    rnd = random.Random(seed)
    return [" ".join(rnd.choices(NON_ASCII_TOKENS, k=rnd.randint(0, 7)))
            for _ in range(n_tweets)]
