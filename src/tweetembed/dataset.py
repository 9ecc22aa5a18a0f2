"""Vocabulary selection, training-example filtering, deterministic splits.

A set of training examples is one (N, 5) int64 array, one example per row,
with columns `c1 c2 c4 c5 target`: the ids of the context words at
positions i-2, i-1, i+1, i+2, then the id of the center word. The dataset
file stores the same rows.

A vocabulary is a list of distinct words; a word's id is its index and its
dictionary rank. The boundary tokens get the reserved ids |V|..|V|+3 (in
BOUNDARY_TOKENS order), valid only as context, never as prediction targets.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import BLOCK_ROWS, BOUNDARY_TOKENS, Dictionary, NGramDatabase
from .manifest import atomic_write, row_blocks
from .rng import permutation


def select_vocabulary(dictionary: Dictionary, size: int) -> list[str]:
    if size < 1:
        raise ValueError("vocabulary size must be positive")
    if size > len(dictionary.ids):
        raise ValueError(f"requested vocabulary size {size} exceeds dictionary length "
                         f"{len(dictionary.ids)}")
    return [dictionary.types[i] for i in dictionary.ids[:size].tolist()]


def vocabulary_hash(vocab: list[str]) -> str:
    """Content hash tying datasets, checkpoints and embeddings together."""
    digest = hashlib.sha256("\n".join(vocab).encode("utf-8"))
    return digest.hexdigest()


def filter_ngrams(db: NGramDatabase, vocab_ids: np.ndarray,
                  include_boundary: bool = False) -> np.ndarray:
    """One example row `c1 c2 c4 c5 target` for every distinct qualifying 5-gram.

    `vocab_ids[i]` is the type id of vocabulary id i's word (a prefix of
    `Dictionary.ids`). A 5-gram qualifies when its center word and all
    four context tokens are in the vocabulary; with include_boundary,
    context tokens may also be boundary tokens (mapped to the reserved
    ids). Counts do not replicate rows: each distinct 5-gram yields
    exactly one row. Rows are ordered by the 5-gram's tokens, so they are
    independent of counting order. Returns shape (0, 5) when nothing qualifies.

    The keep mask is built one database column at a time, through
    per-type tables of which types may stand there. The (k, 5) int64
    result is allocated once and filled BLOCK_ROWS database rows at a
    time: each block's kept rows are gathered, put in example column order
    and mapped to vocabulary ids. So the call holds 2 bytes per database
    row, the result's 40 per kept row and one block's temporaries.
    """
    lookup = np.full(len(db.types), -1, dtype=np.int64)  # type id -> vocabulary id
    lookup[vocab_ids] = np.arange(len(vocab_ids))
    keep = (lookup >= 0)[db.records[:, 2]]  # the center is a word
    if include_boundary:
        lookup[db.boundary_ids()] = len(vocab_ids) + np.arange(len(BOUNDARY_TOKENS))
    in_context = lookup >= 0
    for col in (0, 1, 3, 4):
        keep &= in_context[db.records[:, col]]
    examples = np.empty((np.count_nonzero(keep), 5), dtype=np.int64)
    done = 0
    for lo in range(0, len(keep), BLOCK_ROWS):
        kept = db.records[lo:lo + BLOCK_ROWS][keep[lo:lo + BLOCK_ROWS]]
        examples[done:done + len(kept)] = lookup[kept[:, [0, 1, 3, 4, 2]]]
        done += len(kept)
    return examples


@dataclass
class DatasetSplit:
    """Disjoint train/validation example arrays, each (N, 5) int64 of rows
    `c1 c2 c4 c5 target` (see the module docstring). The dataset manifest
    records the split settings that made them."""

    train: np.ndarray
    validation: np.ndarray


def split_sizes(n: int, validation_ratio: float, fraction: float) -> tuple[int, int]:
    """`split_dataset`'s validation and train row counts; ValueError if no train rows."""
    if not 0.0 < validation_ratio < 1.0:
        raise ValueError(f"validation_ratio must be in (0, 1), got {validation_ratio}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    n_val = math.floor(validation_ratio * n)
    n_train = math.floor(fraction * (n - n_val))
    if n_train == 0:
        raise ValueError(f"{n} examples leave no training rows at validation ratio "
                         f"{validation_ratio} and fraction {fraction}")
    return n_val, n_train


def split_dataset(examples: np.ndarray, validation_ratio: float = 0.1,
                  fraction: float = 1.0, seed: int = 13) -> DatasetSplit:
    """Deterministic validation/train split with optional train subsampling.

    The example rows are permuted by the explicit seeded shuffle (see rng
    module), the first floor(validation_ratio * n) become validation, and
    the train set is the first floor(fraction * remaining) of the rest.
    Validation is therefore identical across fractions for a fixed seed,
    and a smaller fraction's train set is a prefix of a larger one's.
    """
    n_val, n_train = split_sizes(len(examples), validation_ratio, fraction)
    # Only the rows returned are gathered, so a fraction below 1 copies
    # only its share of the examples.
    shuffled = examples[permutation(len(examples), seed)[:n_val + n_train]]
    return DatasetSplit(shuffled[n_val:], shuffled[:n_val])


def write_vocabulary(vocab: list[str], path: Path | str) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, word in enumerate(vocab):
            fh.write(f"{word}\t{i}\n")


def read_vocabulary(path: Path | str) -> list[str]:
    """Parse `word<TAB>id` lines. A line without exactly two fields, an id
    other than its line's 0-based position written as `write_vocabulary`
    writes it (ASCII digits, no sign or leading zero), or a word seen before
    is a ValueError naming `path:line`."""
    path = Path(path)
    words: list[str] = []
    seen: set[str] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields, "
                                 f"got {len(fields)}")
            word, token_id = fields
            if token_id != str(lineno - 1):
                raise ValueError(f"{path}:{lineno}: expected id {lineno - 1}, got {token_id!r}")
            if word in seen:
                raise ValueError(f"{path}:{lineno}: word {word!r} is listed twice")
            seen.add(word)
            words.append(word)
    return words


def write_dataset(split: DatasetSplit, vocab: list[str], path: Path | str) -> None:
    """TSV rows `c1 c2 c4 c5 target`, validation block first, then train.

    The header holds what `read_dataset` needs: vocabulary size and hash and
    the two block lengths (the split settings are in the dataset manifest).
    Each block of `manifest.row_blocks` rows (five cells each) is one (n, 5)
    object array written with one join, as in `corpus.write_ngram_db`: four
    `id<TAB>` cells and one `id\n` cell gathered from one string per id, so
    no Python int is made per row.
    """
    context = np.array([f"{i}\t" for i in range(len(vocab) + len(BOUNDARY_TOKENS))],
                       dtype=object)
    target = np.array([f"{i}\n" for i in range(len(vocab))], dtype=object)
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"#vocab_size={len(vocab)}\t#vocab_hash={vocabulary_hash(vocab)}"
                 f"\t#validation={len(split.validation)}\t#train={len(split.train)}\n")
        for block in (split.validation, split.train):
            for rows in row_blocks(len(block), 5):
                ids = block[rows]
                cells = np.empty((len(ids), 5), dtype=object)
                cells[:, :4] = context[ids[:, :4]]
                cells[:, 4] = target[ids[:, 4]]
                fh.write("".join(cells.ravel().tolist()))


# Five int64 ids as np.loadtxt reads them, or stricter (at most 18 digits,
# only spaces around them), so every body line it refuses fails this too.
_ROW = re.compile(r"( *[+-]?[0-9]{1,18} *\t){4} *[+-]?[0-9]{1,18} *\n?")


def _first_malformed_row(path: Path) -> str:
    """`path:line: ...` for the first body line of `path` that is not a _ROW.
    np.loadtxt's own errors number rows from the body, some from 0, some from 1."""
    with path.open("r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            if number > 1 and not _ROW.fullmatch(line):
                return f"{path}:{number}: expected 5 integer fields, got {line[:80].rstrip()!r}"
    return f"{path}: expected 5 integer fields"


def read_dataset(path: Path | str) -> tuple[DatasetSplit, dict]:
    """Parse a dataset file; returns the split and its header metadata.

    The header must hold #vocab_size, #vocab_hash, #validation and #train
    once each; other keys (such as the split settings older files repeat)
    are ignored. The body is parsed in one pass into an (N, 5) int64 array;
    the split's blocks are views of it. A row that is not 5 integers (a
    float, an empty line) is a ValueError naming its line, and so is a
    #vocab_hash other than the 64 lowercase hex digits `vocabulary_hash`
    writes: a checkpoint trained under any other hash could never be
    exported.
    The model indexes its weights with the ids unchecked, so any id out of
    range (context [0, |V| + 4), target [0, |V|)) is a ValueError here too,
    naming the first offending line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        meta: dict[str, str] = {}
        for part in fh.readline().rstrip("\n").split("\t"):
            if not part.startswith("#") or "=" not in part:
                raise ValueError(f"{path}: malformed dataset header field {part!r}")
            key, value = part[1:].split("=", 1)
            if key in meta:
                raise ValueError(f"{path}:1: dataset header repeats #{key}=")
            meta[key] = value
        missing = [f"#{key}=" for key in ("vocab_size", "vocab_hash", "validation", "train")
                   if key not in meta]
        if missing:
            raise ValueError(f"{path}: dataset header lacks {', '.join(missing)}")
        if not re.fullmatch("[0-9a-f]{64}", meta["vocab_hash"]):
            raise ValueError(f"{path}:1: #vocab_hash={meta['vocab_hash']!r} is not the 64 "
                             "lowercase hex digits of a vocabulary hash")
        try:
            n_val, n_train, vocab_size = (int(meta[key]) for key in
                                          ("validation", "train", "vocab_size"))
        except ValueError as exc:
            raise ValueError(f"{path}:1: malformed dataset header ({exc})") from None
        n_ids = vocab_size + len(BOUNDARY_TOKENS)
        # loadtxt skips empty lines, which are malformed rows too, so the lines
        # it is given stop at the first one, kept in `empty`: line 2 + rows.
        empty: list[str] = []
        lines = itertools.takewhile(lambda line: line != "\n" or empty.append(line), fh)
        with warnings.catch_warnings():
            # An empty body warns and parses as shape (0, 1); the checks below cover it.
            warnings.simplefilter("ignore", UserWarning)
            # Older numpy versions truncate a float such as "1.5" or "nan" in
            # an int column and only warn; that is a malformed row here.
            warnings.simplefilter("error", DeprecationWarning)
            try:
                rows = np.loadtxt(lines, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
            except (ValueError, DeprecationWarning):
                raise ValueError(_first_malformed_row(path)) from None
        if empty:
            raise ValueError(f"{path}:{len(rows) + 2}: expected 5 integer fields, "
                             "got an empty line")
    if rows.size == 0:
        rows = rows.reshape(0, 5)
    if rows.shape[1] != 5:
        raise ValueError(_first_malformed_row(path))
    bad = ((rows[:, :4] < 0) | (rows[:, :4] >= n_ids)).any(axis=1)
    bad |= (rows[:, 4] < 0) | (rows[:, 4] >= vocab_size)
    if bad.any():
        first = int(bad.argmax())
        raise ValueError(f"{path}:{first + 2}: id out of range (context ids in "
                         f"[0, {n_ids}), target in [0, {vocab_size})): {rows[first].tolist()}")
    if n_val < 0 or n_train < 0 or len(rows) != n_val + n_train:
        raise ValueError(f"{path}: row count does not match header block sizes")
    split = DatasetSplit(train=rows[n_val:], validation=rows[:n_val])
    return split, {"vocab_size": vocab_size, "vocab_hash": meta["vocab_hash"]}
