"""Corpus ingestion: tweet normalization, padded 5-gram windows, counting.

Tokenization is deliberately minimal: split on whitespace, down-case, and
mask Twitter handles / HTTP links with placeholder tokens. Punctuation is
left attached, so "ronaldo" and "ronaldo!" remain distinct tokens.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .manifest import atomic_write

HANDLE_TOKEN = "T_HANDLE"
LINK_TOKEN = "LINK"

PAD_L1 = "<PAD_L1>"
PAD_L2 = "<PAD_L2>"
PAD_R1 = "<PAD_R1>"
PAD_R2 = "<PAD_R2>"
BOUNDARY_TOKENS = (PAD_L1, PAD_L2, PAD_R1, PAD_R2)
_BOUNDARY_SET = frozenset(BOUNDARY_TOKENS)

FiveGram = tuple[str, str, str, str, str]


def normalize_token(raw: str) -> str:
    """Normalize one whitespace-delimited token.

    Handle and link masking runs before down-casing, so the placeholder
    tokens keep their upper-case spelling; existing placeholders pass
    through unchanged, which makes tokenization idempotent.
    """
    if raw == HANDLE_TOKEN or raw == LINK_TOKEN:
        return raw
    if raw.startswith("@") and len(raw) > 1:
        return HANDLE_TOKEN
    lowered = raw.lower()
    if lowered.startswith(("http://", "https://")):
        return LINK_TOKEN
    return lowered


def tokenize_tweet(text: str) -> list[str]:
    """Split a raw tweet on whitespace and normalize each token.

    A whitespace-only tweet yields an empty list. No other linguistic
    pre-processing is applied.
    """
    return [normalize_token(raw) for raw in text.split()]


def extract_5grams(tokens: Sequence[str]) -> list[FiveGram]:
    """All 5-token windows over the padded token sequence.

    The sequence is framed as <PAD_L1> <PAD_L2> ... <PAD_R1> <PAD_R2>, so
    every real token is the center of exactly one window and windows never
    cross tweet boundaries. Returns len(tokens) windows (empty input gives
    an empty list).
    """
    if not tokens:
        return []
    padded = [PAD_L1, PAD_L2, *tokens, PAD_R1, PAD_R2]
    return [tuple(padded[i : i + 5]) for i in range(len(tokens))]


@dataclass
class NGramDatabase:
    """Distinct 5-grams with occurrence counts, plus corpus totals.

    Invariant: the counts sum to total_tokens, since each token of each
    tweet is the center of exactly one window occurrence.
    """

    records: dict[FiveGram, int]
    total_tweets: int
    total_tokens: int


def count_ngrams(tweet_stream: Iterable[str]) -> NGramDatabase:
    """Aggregate 5-gram occurrence counts over a stream of raw tweets, in
    one process.

    Whitespace-only tweets contribute nothing and are not counted in
    total_tweets.
    """
    counts: collections.Counter = collections.Counter()
    tweets = 0
    tokens = 0
    for line in tweet_stream:
        toks = tokenize_tweet(line)
        if not toks:
            continue
        tweets += 1
        tokens += len(toks)
        counts.update(extract_5grams(toks))
    return NGramDatabase(dict(counts), tweets, tokens)


@dataclass
class Dictionary:
    """Words sorted by corpus frequency; rank is the list position.

    Frequencies are non-increasing; ties are broken by ascending word
    order (UTF-8 byte order, which matches code-point order). Boundary
    tokens are excluded.
    """

    entries: list[tuple[str, int]]

    def __len__(self) -> int:
        return len(self.entries)


def build_dictionary(db: NGramDatabase) -> Dictionary:
    """Word frequencies from window centers, sorted by the rank rule.

    Each corpus token is the center of exactly one window, so counting
    centers counts every occurrence exactly once.
    """
    counts: collections.Counter = collections.Counter()
    for gram, n in db.records.items():
        center = gram[2]
        if center in _BOUNDARY_SET:  # never legal as a center; guard anyway
            continue
        counts[center] += n
    entries = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return Dictionary(entries)


def write_ngram_db(db: NGramDatabase, path: Path | str) -> None:
    """TSV: header with corpus totals, then one row per distinct 5-gram.

    Rows are `w1..w5<TAB>count`, sorted lexicographically by the tokens so
    output bytes do not depend on counting order.
    """
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#total_tweets={db.total_tweets}\t#total_tokens={db.total_tokens}\n")
        for gram in sorted(db.records):
            fh.write("\t".join(gram) + f"\t{db.records[gram]}\n")


def read_ngram_db(path: Path | str) -> NGramDatabase:
    """Parse a 5-gram database; a repeated 5-gram row, a count below 1 or
    counts that do not sum to the header's #total_tokens is a ValueError."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#total_tweets="):
            raise ValueError(f"{path}: missing 5-gram database header")
        tweets_part, tokens_part = header.split("\t")
        total_tweets = int(tweets_part.removeprefix("#total_tweets="))
        total_tokens = int(tokens_part.removeprefix("#total_tokens="))
        records: dict[FiveGram, int] = {}
        n_rows = 0
        for n_rows, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 6:
                raise ValueError(f"{path}:{n_rows + 1}: expected 6 columns, got {len(fields)}")
            count = int(fields[5])
            if count < 1:
                raise ValueError(f"{path}:{n_rows + 1}: 5-gram count {count} is below 1")
            records[tuple(fields[:5])] = count
    if len(records) != n_rows:
        raise ValueError(f"{path}: {n_rows - len(records)} repeated 5-gram rows")
    counted = sum(records.values())
    if counted != total_tokens:
        raise ValueError(f"{path}: 5-gram counts sum to {counted}, "
                         f"header says #total_tokens={total_tokens}")
    return NGramDatabase(records, total_tweets, total_tokens)


def write_dictionary(dictionary: Dictionary, path: Path | str) -> None:
    """TSV `word<TAB>frequency<TAB>rank`, rank ascending from 0."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for rank, (word, freq) in enumerate(dictionary.entries):
            fh.write(f"{word}\t{freq}\t{rank}\n")


def read_dictionary(path: Path | str) -> Dictionary:
    path = Path(path)
    entries: list[tuple[str, int]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            word, freq, rank = line.rstrip("\n").split("\t")
            if int(rank) != lineno:
                raise ValueError(f"{path}: rank column out of order at line {lineno + 1}")
            entries.append((word, int(freq)))
    return Dictionary(entries)
