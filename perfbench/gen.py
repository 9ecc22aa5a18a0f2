"""Seeded synthetic microblog corpora and matching gold files.

A corpus mixes three kinds of tweets:

* Zipf filler: token ids drawn in one vectorised call from a Zipf(alpha)
  law over `n_types` word types. Stated shares of these tokens are
  rewritten as `@handles`, `http(s)://` links or upper-case spellings, so
  the tokenizer's masking and down-casing paths carry real load.
* class tweets: each picks one of `N_CLASSES` semantic classes and a
  random subset of its words, and draws every token from that subset, so
  words of one class share contexts (the template language of the test
  suite, vectorised).
* retweets: exact copies of earlier tweets, which raise 5-gram counts
  without adding distinct 5-grams.

The class words are written to a `--classes` file and pairs of class
words to a `--pairs` file. Without them the packaged gold set has no
coverage on a synthetic vocabulary and eval would score nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


MEAN_LEN = 12          # tokens per filler tweet (Poisson mean)
HANDLE_SHARE = 0.03    # of filler tokens
LINK_SHARE = 0.02      # of filler tokens
UPPER_SHARE = 0.05     # of filler tokens
RETWEET_SHARE = 0.05   # of tweets
N_CLASSES = 8
SUBSET_SIZE = 4        # class words one class tweet draws from
CLASS_TWEET_LEN = 12


@dataclass(frozen=True)
class CorpusSpec:
    n_tweets: int
    n_types: int
    alpha: float         # Zipf exponent of the filler
    class_share: float   # of tweets
    words_per_class: int


def class_word(c: int, j: int) -> str:
    return f"c{c:02d}w{j:02d}"


def _filler_tokens(spec: CorpusSpec, n_tweets: int, rng: np.random.Generator
                   ) -> tuple[list[str], np.ndarray]:
    lengths = np.maximum(1, rng.poisson(MEAN_LEN, size=n_tweets))
    weights = 1.0 / np.arange(1, spec.n_types + 1) ** spec.alpha
    ids = rng.choice(spec.n_types, size=int(lengths.sum()), p=weights / weights.sum())
    words = [f"w{i:05d}" for i in range(spec.n_types)]
    tokens = [words[i] for i in ids.tolist()]
    kind = rng.random(len(tokens))
    handle_cut = HANDLE_SHARE
    link_cut = handle_cut + LINK_SHARE
    upper_cut = link_cut + UPPER_SHARE
    suffix = rng.integers(0, 100000, size=len(tokens))
    for k in np.flatnonzero(kind < upper_cut).tolist():
        if kind[k] < handle_cut:
            tokens[k] = f"@user{suffix[k] % 5000}"
        elif kind[k] < link_cut:
            scheme = "https" if suffix[k] & 1 else "http"
            tokens[k] = f"{scheme}://t.co/{suffix[k]:x}"
        else:
            tokens[k] = tokens[k].upper()
    return tokens, lengths


def _class_tweets(spec: CorpusSpec, n_tweets: int, rng: np.random.Generator) -> list[str]:
    if n_tweets == 0:
        return []
    classes = rng.integers(N_CLASSES, size=n_tweets)
    subsets = np.argsort(rng.random((n_tweets, spec.words_per_class)), axis=1)[:, : SUBSET_SIZE]
    picks = rng.integers(SUBSET_SIZE, size=(n_tweets, CLASS_TWEET_LEN))
    members = np.take_along_axis(subsets, picks, axis=1)
    words = [[class_word(c, j) for j in range(spec.words_per_class)]
             for c in range(N_CLASSES)]
    return [" ".join(words[c][j] for j in row)
            for c, row in zip(classes.tolist(), members.tolist())]


def generate(spec: CorpusSpec, seed: int) -> list[str]:
    """The corpus for `seed`, one tweet per entry; same seed, same tweets."""
    rng = np.random.default_rng(seed)
    n_retweets = int(RETWEET_SHARE * spec.n_tweets)
    n_class = int(spec.class_share * spec.n_tweets)
    n_filler = spec.n_tweets - n_retweets - n_class
    tokens, lengths = _filler_tokens(spec, n_filler, rng)
    ends = np.cumsum(lengths).tolist()
    tweets = [" ".join(tokens[a:b]) for a, b in zip([0, *ends[:-1]], ends)]
    tweets += _class_tweets(spec, n_class, rng)
    originals = len(tweets)
    tweets += [tweets[i] for i in rng.integers(originals, size=n_retweets).tolist()]
    return [tweets[i] for i in rng.permutation(len(tweets)).tolist()]


def write_corpus(spec: CorpusSpec, seed: int, directory: Path) -> dict[str, Path]:
    """Write corpus.txt, classes.tsv and pairs.tsv; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / name for name in ("corpus.txt", "classes.tsv", "pairs.tsv")}
    paths["corpus.txt"].write_text("\n".join(generate(spec, seed)) + "\n", encoding="utf-8")
    with paths["classes.tsv"].open("w", encoding="utf-8", newline="\n") as fh:
        for c in range(N_CLASSES):
            for j in range(spec.words_per_class):
                fh.write(f"class{c:02d}\t{class_word(c, j)}\n")
    with paths["pairs.tsv"].open("w", encoding="utf-8", newline="\n") as fh:
        for c in range(N_CLASSES):
            fh.write(f"{class_word(c, 0)}\t{class_word(c, 1)}\n")
    return {"corpus": paths["corpus.txt"], "classes": paths["classes.tsv"],
            "pairs": paths["pairs.tsv"]}
