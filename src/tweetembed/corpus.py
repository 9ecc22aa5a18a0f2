"""Corpus ingestion: tweet normalization, padded 5-gram windows, counting.

Tokenization is deliberately minimal: split on whitespace, down-case, and
mask Twitter handles / HTTP links with placeholder tokens. Punctuation is
left attached, so "ronaldo" and "ronaldo!" remain distinct tokens.

The 5-gram database is the binary file `<out-db>.bin` (`ngrams.tsv.bin`),
bound to the sha256 of the text view `ngrams.tsv` written beside it. The
text view is for reading by eye. `write_ngram_db` writes both files, and
`read_ngram_db` refuses a binary that is missing or not bound to them.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .manifest import atomic_write, file_sha256, read_container, row_blocks, write_container

HANDLE_TOKEN = "T_HANDLE"
LINK_TOKEN = "LINK"

PAD_L1 = "<PAD_L1>"
PAD_L2 = "<PAD_L2>"
PAD_R1 = "<PAD_R1>"
PAD_R2 = "<PAD_R2>"
BOUNDARY_TOKENS = (PAD_L1, PAD_L2, PAD_R1, PAD_R2)
# count_ngrams moves its ids from a list into an int32 block about this
# often; build_dictionary, read_ngram_db's checks and dataset.filter_ngrams
# take this many rows at a time. write_ngram_db formats manifest.row_blocks'
# blocks instead.
BLOCK_ROWS = 65536
NGRAM_DB_MAGIC = b"EMBNGRM1"
_NGRAM_DB_KEYS = ("body_sha256", "format", "rows", "total_tokens", "total_tweets",
                  "tsv_sha256", "types_bytes")
_TSV_HEADER = "#total_tweets={}\t#total_tokens={}\n"


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


def _dense_rank_in_place(key: np.ndarray) -> int:
    """Replace each int64 key by its rank among the distinct keys (0 for
    the smallest); returns the largest rank.

    One argsort gives the order; the key is then sorted in place, the
    ranks are a cumulative count of the changes between neighbours, in
    int32 while N < 2^31, and they are scattered back into the key's
    buffer. Beyond the key that peaks at 12 bytes per row (tracemalloc),
    where `np.unique(return_inverse=True)` takes 49.
    """
    if len(key) == 0:
        return 0
    order = np.argsort(key)
    key.sort()
    ranks = np.empty(len(key), dtype=np.int32 if len(key) < 2 ** 31 else np.int64)
    ranks[0] = 0
    np.not_equal(key[1:], key[:-1], out=ranks[1:])
    np.cumsum(ranks, dtype=ranks.dtype, out=ranks)
    key[order] = ranks
    return int(ranks[-1])


def _row_order(column: Callable[[int], np.ndarray], n_rows: int,
               n_types: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort n_rows rows of five type ids; returns (order, first).

    `column(col)` gives the ids of column `col` (0-4) of every row, and is
    called once per column, so the rows never need to exist as one
    (n_rows, 5) array. `order` sorts the rows lexicographically and
    `first` marks each sorted row that differs from the one before it, so
    the distinct rows are those at order[first]; repeated rows may come in
    any order among themselves.

    The columns are folded left to right into one int64 key that orders
    and compares like the rows, so one argsort does the work. Each
    column's ids are shifted in while the key fits in 63 bits; when the
    next column would not fit, the key so far is first replaced, in its
    own buffer, by its dense rank among its distinct values
    (`_dense_rank_in_place`), which takes at most bit_length(N) bits. Up
    to 4096 types no rank is needed; up to 2^21 types and 2^21 rows, one
    is.
    """
    bits = max(1, (n_types - 1).bit_length())
    key = np.zeros(n_rows, dtype=np.int64)
    width = 0
    for col in range(5):
        if width + bits > 63:
            width = _dense_rank_in_place(key).bit_length()
        key <<= bits
        key |= column(col)
        width += bits
    order = np.argsort(key)
    key = key[order]
    first = np.empty(n_rows, dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    return order, first


def count_ngrams(tweet_stream: Iterable[str]) -> NGramDatabase:
    """Aggregate 5-gram occurrence counts over a stream of raw tweets, in
    one process.

    Each tweet's raw tokens get ids in one int32 sequence, framed per tweet
    by the boundary tokens, and each distinct raw token is normalized once;
    the stream is read once and never held. Every 5-wide window centred on
    a real token is one occurrence. The windows are never copied out: the
    sort key is folded from five shifted views of the type-id sequence,
    masked to the window centres, and only the distinct rows are gathered.
    Beyond the result and the corpus's distinct tokens, memory peaks at
    about 30 bytes per window, in the sort. Whitespace-only tweets
    contribute nothing and are not counted in total_tweets.
    """
    # Raw ids 0-3 are the boundary tokens, in BOUNDARY_TOKENS order; their
    # keys are ints, so no raw token can take them.
    raw_ids = _FirstSeen((i, i) for i in range(len(BOUNDARY_TOKENS)))
    get = raw_ids.__getitem__
    # The ids go to an int32 block every BLOCK_ROWS or so; a Python list is
    # the fastest to append to, and it costs 8 bytes per id.
    blocks: list[np.ndarray] = []
    seq: list[int] = []
    tweets = 0
    for line in tweet_stream:
        words = line.split()
        if words:
            tweets += 1
            seq += (0, 1)
            seq += map(get, words)
            seq += (2, 3)
            if len(seq) >= BLOCK_ROWS:
                blocks.append(np.array(seq, dtype=np.int32))
                seq.clear()
    blocks.append(np.array(seq, dtype=np.int32))
    del seq, get
    raw = np.concatenate(blocks)
    del blocks
    normalized = [*BOUNDARY_TOKENS, *map(normalize_token,
                                         itertools.islice(raw_ids, len(BOUNDARY_TOKENS), None))]
    del raw_ids  # the raw tokens are freed before the types are numbered
    types = sorted(set(normalized))
    type_id = {token: i for i, token in enumerate(types)}
    ids = np.fromiter(map(type_id.__getitem__, normalized), np.int32, len(normalized))[raw]
    del normalized, type_id
    if not tweets:
        return NGramDatabase(types, np.zeros((0, 5), dtype=np.int32),
                             np.zeros(0, dtype=np.int64), 0, 0)
    # Window j spans ids[j:j + 5]; it is an occurrence when its centre is a token.
    centre = raw[2:-2] >= len(BOUNDARY_TOKENS)
    del raw
    n_windows = int(np.count_nonzero(centre))
    order, first = _row_order(lambda col: ids[col:len(ids) - 4 + col][centre], n_windows,
                              len(types))
    distinct = order[first]
    del order
    starts = np.flatnonzero(centre)[distinct]
    del centre, distinct
    records = sliding_window_view(ids, 5)[starts]
    del ids, starts
    counts = np.diff(np.flatnonzero(np.append(first, True)))
    return NGramDatabase(types, records, counts, tweets, n_windows)


@dataclass
class Dictionary:
    """Corpus words by rank: `ids` holds their int32 ids into `types` (the
    database's own list) in rank order, `freqs` their int64 frequencies.
    Frequencies are non-increasing, ties in word order (code-point, so
    type-id, order); boundary tokens are excluded."""

    types: list[str]
    ids: np.ndarray
    freqs: np.ndarray


def build_dictionary(db: NGramDatabase) -> Dictionary:
    """Word frequencies from window centers, sorted by the rank rule.

    Each corpus token is the center of exactly one window, so counting
    centers counts every occurrence exactly once. Type ids follow word
    order, so a stable sort on frequency leaves ties in word order.
    """
    # Summed BLOCK_ROWS rows at a time, so no temporary spans the rows.
    # Every partial sum is a whole number, which float64 holds exactly
    # below 2^53, as the one-pass sum did.
    freqs = np.zeros(len(db.types))
    for lo in range(0, len(db.records), BLOCK_ROWS):
        freqs += np.bincount(db.records[lo:lo + BLOCK_ROWS, 2],
                             weights=db.counts[lo:lo + BLOCK_ROWS], minlength=len(db.types))
    freqs = freqs.astype(np.int64)
    freqs[db.boundary_ids()] = 0  # never legal as a center; guard anyway
    words = np.flatnonzero(freqs).astype(np.int32)
    words = words[np.argsort(-freqs[words], kind="stable")]
    return Dictionary(db.types, words, freqs[words])


def ngram_db_bin(path: Path | str) -> Path:
    """The binary database beside the TSV text view at `path`: `<path>.bin`."""
    return Path(f"{path}.bin")


def write_ngram_db(db: NGramDatabase, path: Path | str) -> None:
    """Write the text view at `path`, which no stage reads, then the
    database `read_ngram_db` reads, `<path>.bin`, bound to its sha256.

    The text view is a header with corpus totals, then one row
    `w1..w5<TAB>count` per distinct 5-gram, in the database's row order,
    which sorts them by the tokens in code-point (UTF-8 byte) order, so
    output bytes do not depend on counting order. Each block of
    `manifest.row_blocks` rows (six cells each) is one (n, 6) object array
    joined, encoded, hashed and written at once: five `token<TAB>` cells
    gathered by type id, then a `count\n` cell gathered from one string per
    distinct count in the block, so the block's strings are shared.

    The binary has `manifest.write_container`'s layout with the magic
    "EMBNGRM1": a JSON header with format 1, tsv_sha256, total_tweets,
    total_tokens, types_bytes, rows and body_sha256; then the body: the
    types joined by "\n" in UTF-8 (no token holds whitespace), records as
    <i4 row-major and counts as <i8. Neither file holds timestamps, and the
    arrays are written from their own buffers.
    """
    data = _TSV_HEADER.format(db.total_tweets, db.total_tokens).encode("utf-8")
    tsv_digest = hashlib.sha256(data)
    cells = np.array([token + "\t" for token in db.types], dtype=object)
    with atomic_write(path, "wb") as fh:
        fh.write(data)
        for rows in row_blocks(len(db.records), 6):
            ids = db.records[rows]
            counts, count_ids = np.unique(db.counts[rows], return_inverse=True)
            count_cells = np.array([f"{count}\n" for count in counts.tolist()], dtype=object)
            block = np.empty((len(ids), 6), dtype=object)
            block[:, :5] = cells[ids]
            block[:, 5] = count_cells[count_ids]
            data = "".join(block.ravel().tolist()).encode("utf-8")
            tsv_digest.update(data)
            fh.write(data)
    body = ["\n".join(db.types).encode("utf-8"),
            np.ascontiguousarray(db.records, dtype="<i4"),
            np.ascontiguousarray(db.counts, dtype="<i8")]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    header = {
        "format": 1,
        "tsv_sha256": tsv_digest.hexdigest(),
        "total_tweets": db.total_tweets,
        "total_tokens": db.total_tokens,
        "types_bytes": len(body[0]),
        "rows": len(db.records),
        "body_sha256": digest.hexdigest(),
    }
    write_container(ngram_db_bin(path), NGRAM_DB_MAGIC, header, body)


def _rows_ascend(records: np.ndarray) -> bool:
    """Whether every row is below the next one, comparing each pair of
    consecutive rows column by column from the last; no sort. The pairs
    are compared BLOCK_ROWS at a time, each block taking one row past its
    end, the first row of the next block, so no temporary spans the rows."""
    for lo in range(0, len(records) - 1, BLOCK_ROWS):
        block = records[lo:lo + BLOCK_ROWS + 1]
        below = np.zeros(len(block) - 1, dtype=bool)
        for col in reversed(range(5)):
            upper, lower = block[:-1, col], block[1:, col]
            below = (upper < lower) | ((upper == lower) & below)
        if not below.all():
            return False
    return True


def _exact_sum(counts: np.ndarray) -> int:
    """The sum of non-negative int64 counts as a Python int, without the
    wrap-around of an int64 sum: the low and high 32 bits of each block of
    BLOCK_ROWS counts are summed apart, where neither uint64 sum can wrap,
    and added to two Python ints."""
    low = high = 0
    for lo in range(0, len(counts), BLOCK_ROWS):
        block = counts[lo:lo + BLOCK_ROWS]
        low += int((block & 0xFFFFFFFF).sum(dtype=np.uint64))
        high += int((block >> 32).sum(dtype=np.uint64))
    return (high << 32) + low


def read_ngram_db(path: Path | str) -> tuple[NGramDatabase, str]:
    """The database `write_ngram_db` wrote for the TSV at `path`, read from
    `<path>.bin`, and the TSV's sha256; of the TSV only the hash and the
    header line it vouches for are read.

    Anything else is a ValueError that names the file and says to re-run
    ingest: a missing file, a binary written for other TSV bytes or totals,
    a bad magic or header, a size the header does not imply, a body that
    does not hash to its body_sha256, or a database that breaks an
    invariant of NGramDatabase (types strictly ascending with the boundary
    tokens, ids in range, rows strictly ascending, counts at least 1
    summing to total_tokens below 2^63). The binary's bytes are read once;
    the arrays are read-only views of them.
    """
    bin_path = ngram_db_bin(path)
    try:
        tsv_sha256 = file_sha256(path)
        header, body = read_container(bin_path.read_bytes(), NGRAM_DB_MAGIC)
        if sorted(header) != sorted(_NGRAM_DB_KEYS):
            raise ValueError(f"header keys are not {', '.join(_NGRAM_DB_KEYS)}")
        sizes = [header[key] for key in ("format", "total_tweets", "total_tokens",
                                         "types_bytes", "rows")]
        # The two hashes are compared with a str, which refuses any other type.
        if not all(type(size) is int and size >= 0 for size in sizes) or header["format"] != 1:
            raise ValueError(f"unsupported header {header}")
        if header["tsv_sha256"] != tsv_sha256:
            raise ValueError("written for other TSV bytes (tsv_sha256 is not the TSV's sha256)")
        _, total_tweets, total_tokens, types_bytes, rows = sizes
        tsv_header = _TSV_HEADER.format(total_tweets, total_tokens).encode("utf-8")
        with open(path, "rb") as fh:
            if fh.read(len(tsv_header)) != tsv_header:
                raise ValueError(f"header totals {total_tweets}, {total_tokens} are not the TSV's")
        counts_start = types_bytes + 20 * rows
        if counts_start + 8 * rows != len(body):
            raise ValueError(f"{len(body)} body bytes, header implies {counts_start + 8 * rows}")
        if hashlib.sha256(body).hexdigest() != header["body_sha256"]:
            raise ValueError("body does not hash to body_sha256")
        types = str(body[:types_bytes], "utf-8").split("\n")
        db = NGramDatabase(types,
                           np.frombuffer(body, "<i4", 5 * rows, types_bytes).reshape(rows, 5),
                           np.frombuffer(body, "<i8", rows, counts_start),
                           total_tweets, total_tokens)
        if not all(map(str.__lt__, types, itertools.islice(types, 1, None))):
            raise ValueError("types are not strictly ascending")
        if any(types[i:i + 1] != [pad] for i, pad in zip(db.boundary_ids(), BOUNDARY_TOKENS)):
            raise ValueError("types lack a boundary token")
        if rows and (db.records.min() < 0 or db.records.max() >= len(types)):
            raise ValueError(f"ids outside [0, {len(types)})")
        if not _rows_ascend(db.records):
            raise ValueError("rows are not strictly ascending")
        if rows and db.counts.min() < 1:
            raise ValueError("a count is below 1")
        if _exact_sum(db.counts) != total_tokens or total_tokens >= 2 ** 63:
            raise ValueError(f"counts do not sum to total_tokens={total_tokens} below 2^63")
    except FileNotFoundError as exc:
        raise ValueError(f"{exc.filename}: no such file; re-run ingest") from None
    except ValueError as exc:
        raise ValueError(f"{bin_path}: {exc}; re-run ingest") from None
    return db, tsv_sha256


def write_dictionary(dictionary: Dictionary, path: Path | str) -> None:
    """TSV `word<TAB>frequency<TAB>rank`, rank from 0, one `manifest.row_blocks` block a write."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for rows in row_blocks(len(dictionary.ids), 3):
            block = zip(dictionary.ids[rows].tolist(), dictionary.freqs[rows].tolist())
            fh.write("".join(f"{dictionary.types[i]}\t{freq}\t{rank}\n"
                             for rank, (i, freq) in enumerate(block, rows.start)))
