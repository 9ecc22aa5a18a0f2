"""Corpus ingestion: tweet normalization, padded 5-gram windows, counting.

Tokenization is deliberately minimal: split on whitespace, down-case, and
mask Twitter handles / HTTP links with placeholder tokens. Punctuation is
left attached, so "ronaldo" and "ronaldo!" remain distinct tokens.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifest import atomic_write

HANDLE_TOKEN = "T_HANDLE"
LINK_TOKEN = "LINK"

PAD_L1 = "<PAD_L1>"
PAD_L2 = "<PAD_L2>"
PAD_R1 = "<PAD_R1>"
PAD_R2 = "<PAD_R2>"
BOUNDARY_TOKENS = (PAD_L1, PAD_L2, PAD_R1, PAD_R2)
# write_ngram_db and read_ngram_db handle this many rows at a time, which
# bounds the memory of the Python strings and lists they make.
BLOCK_ROWS = 65536

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
    """Distinct 5-grams with occurrence counts, plus corpus totals, as type ids.

    `types` lists every token in string (code-point) order and always holds
    the four boundary tokens; a token's id is its position in the list.
    `records` is a (G, 5) int32 array with one distinct 5-gram per row,
    rows ascending and never repeated. Ids follow string order, so the row
    order is the order of the token tuples. `counts` is the (G,) int64
    occurrence count of each row.

    Invariant: the counts sum to total_tokens, since each token of each
    tweet is the center of exactly one window occurrence.
    """

    types: list[str]
    records: np.ndarray
    counts: np.ndarray
    total_tweets: int
    total_tokens: int

    def boundary_ids(self) -> list[int]:
        """The type ids of BOUNDARY_TOKENS, in that order."""
        return [bisect.bisect_left(self.types, pad) for pad in BOUNDARY_TOKENS]


class _FirstSeen(dict):
    """Maps each new key to the number of keys seen before it."""

    def __missing__(self, key):
        self[key] = n = len(self)
        return n


def _distinct_rows(rows: np.ndarray, n_types: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort the rows of a (N, 5) id array; returns (order, first, distinct).

    `order` sorts the rows lexicographically, `first` marks each sorted row
    that differs from the one before it, and `distinct` is the sorted rows
    without repeats. Ids are packed into as few int64 sort keys as fit
    (two for up to 2^21 types), which sorts faster than five keys.
    """
    bits = max(1, (n_types - 1).bit_length())
    per_key = max(1, 63 // bits)
    keys = []
    for lo in range(0, 5, per_key):
        key = np.zeros(len(rows), dtype=np.int64)
        for col in range(lo, min(lo + per_key, 5)):
            key <<= bits
            key |= rows[:, col]
        keys.append(key)
    order = np.lexsort(keys[::-1])
    first = np.zeros(len(rows), dtype=bool)
    first[:1] = True
    for key in keys:
        sorted_key = key[order]
        first[1:] |= sorted_key[1:] != sorted_key[:-1]
    return order, first, rows[order[first]]


def count_ngrams(tweet_stream: Iterable[str]) -> NGramDatabase:
    """Aggregate 5-gram occurrence counts over a stream of raw tweets, in
    one process.

    Each tweet's raw tokens get ids in one int32 sequence, framed per tweet
    by the boundary tokens, and each distinct raw token is normalized once.
    Every 5-wide window centred on a real token is one occurrence; a sort
    of those windows gives the distinct rows and their counts.
    Whitespace-only tweets contribute nothing and are not counted in
    total_tweets.
    """
    # Raw ids 0-3 are the boundary tokens, in BOUNDARY_TOKENS order; their
    # keys are ints, so no raw token can take them.
    raw_ids = _FirstSeen((i, i) for i in range(len(BOUNDARY_TOKENS)))
    get = raw_ids.__getitem__
    seq: list[int] = []
    tweets = 0
    for line in tweet_stream:
        words = line.split()
        if words:
            tweets += 1
            seq += (0, 1)
            seq += map(get, words)
            seq += (2, 3)
    raw_tokens = itertools.islice(raw_ids, len(BOUNDARY_TOKENS), None)
    normalized = [*BOUNDARY_TOKENS, *map(normalize_token, raw_tokens)]
    types = sorted(set(normalized))
    type_id = {token: i for i, token in enumerate(types)}
    if not seq:
        return NGramDatabase(types, np.zeros((0, 5), dtype=np.int32),
                             np.zeros(0, dtype=np.int64), 0, 0)
    raw = np.array(seq, dtype=np.int32)
    ids = np.array([type_id[token] for token in normalized], dtype=np.int32)[raw]
    windows = sliding_window_view(ids, 5)[raw[2:-2] >= len(BOUNDARY_TOKENS)]
    _, first, records = _distinct_rows(windows, len(types))
    counts = np.diff(np.flatnonzero(np.append(first, True)))
    return NGramDatabase(types, records, counts, tweets, len(windows))


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
    centers counts every occurrence exactly once. Type ids follow word
    order, so a stable sort on frequency leaves ties in word order.
    """
    freqs = np.bincount(db.records[:, 2], weights=db.counts,
                        minlength=len(db.types)).astype(np.int64)
    freqs[db.boundary_ids()] = 0  # never legal as a center; guard anyway
    words = np.flatnonzero(freqs)
    words = words[np.argsort(-freqs[words], kind="stable")]
    return Dictionary(list(zip([db.types[i] for i in words], freqs[words].tolist())))


def write_ngram_db(db: NGramDatabase, path: Path | str) -> None:
    """TSV: header with corpus totals, then one row per distinct 5-gram.

    Rows are `w1..w5<TAB>count` in the database's row order, which sorts
    them by the tokens in code-point (UTF-8 byte) order, so output bytes do
    not depend on counting order.
    """
    cells = [token + "\t" for token in db.types]
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#total_tweets={db.total_tweets}\t#total_tokens={db.total_tokens}\n")
        for lo in range(0, len(db.records), BLOCK_ROWS):
            block = db.records[lo : lo + BLOCK_ROWS]
            columns = [map(cells.__getitem__, block[:, k].tolist()) for k in range(5)]
            counts = map("{}\n".format, db.counts[lo : lo + BLOCK_ROWS].tolist())
            fh.write("".join(map("".join, zip(*columns, counts))))


def read_ngram_db(path: Path | str) -> NGramDatabase:
    """Parse a 5-gram database; a repeated 5-gram row, a count below 1 or
    counts that do not sum to the header's #total_tokens is a ValueError.

    Rows may come in any order; the database holds them sorted. The body is
    parsed in blocks of BLOCK_ROWS lines, each token mapped to a
    provisional id in first-seen order, so memory holds the id arrays and
    one block of strings.
    """
    path = Path(path)
    first_seen = _FirstSeen((pad, i) for i, pad in enumerate(BOUNDARY_TOKENS))
    blocks: list[np.ndarray] = []
    counts: list[int] = []
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#total_tweets="):
            raise ValueError(f"{path}: missing 5-gram database header")
        tweets_part, tokens_part = header.split("\t")
        total_tweets = int(tweets_part.removeprefix("#total_tweets="))
        total_tokens = int(tokens_part.removeprefix("#total_tokens="))
        while lines := list(itertools.islice(fh, BLOCK_ROWS)):
            lineno = len(counts) + 2  # of lines[0]; the header is line 1
            tabs = list(map(str.count, lines, itertools.repeat("\t")))
            if tabs.count(5) != len(tabs):
                bad = next(i for i, n in enumerate(tabs) if n != 5)
                raise ValueError(f"{path}:{lineno + bad}: expected 6 columns, got {tabs[bad] + 1}")
            fields = "".join(lines).replace("\n", "\t").split("\t")
            del fields[len(lines) * 6:]  # the empty field after the last newline
            block_counts = list(map(int, fields[5::6]))
            if min(block_counts) < 1:
                bad = next(i for i, n in enumerate(block_counts) if n < 1)
                raise ValueError(f"{path}:{lineno + bad}: 5-gram count {block_counts[bad]} "
                                 "is below 1")
            counts += block_counts
            del fields[5::6]
            blocks.append(np.array(list(map(first_seen.__getitem__, fields)), dtype=np.int32))
    types = sorted(first_seen)
    type_id = {token: i for i, token in enumerate(types)}
    renumber = np.array([type_id[token] for token in first_seen], dtype=np.int32)
    rows = renumber[np.concatenate([np.zeros(0, dtype=np.int32), *blocks])].reshape(-1, 5)
    order, first, records = _distinct_rows(rows, len(types))
    if not first.all():
        raise ValueError(f"{path}: {len(rows) - len(records)} repeated 5-gram rows")
    counted = sum(counts)
    if counted != total_tokens:
        raise ValueError(f"{path}: 5-gram counts sum to {counted}, "
                         f"header says #total_tokens={total_tokens}")
    if counted >= 2 ** 63:
        raise ValueError(f"{path}: #total_tokens={total_tokens} does not fit in 64 bits")
    return NGramDatabase(types, records, np.array(counts, dtype=np.int64)[order],
                         total_tweets, total_tokens)


def write_dictionary(dictionary: Dictionary, path: Path | str) -> None:
    """TSV `word<TAB>frequency<TAB>rank`, rank ascending from 0."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for rank, (word, freq) in enumerate(dictionary.entries):
            fh.write(f"{word}\t{freq}\t{rank}\n")
