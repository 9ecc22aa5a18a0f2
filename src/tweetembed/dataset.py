"""Vocabulary selection, training-example filtering, deterministic splits.

A set of training examples is one (N, 5) int64 array, one example per row,
with columns `c1 c2 c4 c5 target`: the ids of the context words at
positions i-2, i-1, i+1, i+2, then the id of the center word. The dataset
file stores the same rows.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import BOUNDARY_TOKENS, Dictionary, NGramDatabase
from .manifest import atomic_write
from .rng import permutation


@dataclass
class Vocabulary:
    """Top-ranked embeddable words; id equals dictionary rank.

    The four boundary tokens get reserved ids size..size+3 (in
    BOUNDARY_TOKENS order). They are valid only in context positions,
    never as prediction targets, and are not listed in `words`.
    """

    words: list[str]
    word_to_id: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.word_to_id = {word: i for i, word in enumerate(self.words)}
        if len(self.word_to_id) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    @property
    def size(self) -> int:
        return len(self.words)

    def boundary_id(self, token: str) -> int:
        return self.size + BOUNDARY_TOKENS.index(token)


def select_vocabulary(dictionary: Dictionary, size: int) -> Vocabulary:
    if size < 1:
        raise ValueError("vocabulary size must be positive")
    if size > len(dictionary):
        raise ValueError(
            f"requested vocabulary size {size} exceeds dictionary length {len(dictionary)}"
        )
    return Vocabulary([word for word, _ in dictionary.entries[:size]])


def vocabulary_hash(vocab: Vocabulary) -> str:
    """Content hash tying datasets, checkpoints and embeddings together."""
    digest = hashlib.sha256("\n".join(vocab.words).encode("utf-8"))
    return digest.hexdigest()


def filter_ngrams(db: NGramDatabase, vocab: Vocabulary,
                  include_boundary: bool = False) -> np.ndarray:
    """One example row `c1 c2 c4 c5 target` for every distinct qualifying 5-gram.

    A 5-gram qualifies when its center word and all four context tokens
    are in the vocabulary; with include_boundary, context tokens may also
    be boundary tokens (mapped to the reserved ids). Counts do not
    replicate rows: each distinct 5-gram yields exactly one row. Rows are
    ordered by the 5-gram's tokens, so they are independent of counting
    order. Returns shape (0, 5) when nothing qualifies.
    """
    lookup = np.array([vocab.word_to_id.get(token, -1) for token in db.types], dtype=np.int32)
    if include_boundary:
        lookup[db.boundary_ids()] = [vocab.boundary_id(pad) for pad in BOUNDARY_TOKENS]
    ids = lookup[db.records[:, [0, 1, 3, 4, 2]]]
    keep = (ids >= 0).all(axis=1) & (ids[:, 4] < vocab.size)
    return ids[keep].astype(np.int64)


@dataclass
class DatasetSplit:
    """Disjoint train/validation example arrays plus the parameters that made them.

    `train` and `validation` are (N, 5) int64 arrays of rows
    `c1 c2 c4 c5 target` (see the module docstring).
    """

    train: np.ndarray
    validation: np.ndarray
    seed: int
    fraction: float
    validation_ratio: float


def split_dataset(examples: np.ndarray, validation_ratio: float = 0.1,
                  fraction: float = 1.0, seed: int = 13) -> DatasetSplit:
    """Deterministic validation/train split with optional train subsampling.

    The example rows are permuted by the explicit seeded shuffle (see rng
    module), the first floor(validation_ratio * n) become validation, and
    the train set is the first floor(fraction * remaining) of the rest.
    Validation is therefore identical across fractions for a fixed seed,
    and a smaller fraction's train set is a prefix of a larger one's.
    """
    if len(examples) == 0:
        raise ValueError("cannot split an empty example set")
    if not 0.0 < validation_ratio < 1.0:
        raise ValueError(f"validation_ratio must be in (0, 1), got {validation_ratio}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    shuffled = examples[permutation(len(examples), seed)]
    n_val = math.floor(validation_ratio * len(shuffled))
    n_train = math.floor(fraction * (len(shuffled) - n_val))
    return DatasetSplit(shuffled[n_val : n_val + n_train], shuffled[:n_val], seed, fraction,
                        validation_ratio)


def write_vocabulary(vocab: Vocabulary, path: Path | str) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, word in enumerate(vocab.words):
            fh.write(f"{word}\t{i}\n")


def read_vocabulary(path: Path | str) -> Vocabulary:
    path = Path(path)
    words: list[str] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            word, token_id = line.rstrip("\n").split("\t")
            if int(token_id) != lineno:
                raise ValueError(f"{path}: id column out of order at line {lineno + 1}")
            words.append(word)
    return Vocabulary(words)


def write_dataset(split: DatasetSplit, vocab: Vocabulary, path: Path | str) -> None:
    """TSV rows `c1 c2 c4 c5 target`, validation block first, then train.

    The header records everything needed to interpret and reproduce the
    file: vocabulary size and hash, shuffle seed, validation ratio,
    fraction, and the two block lengths.
    """
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"#vocab_size={vocab.size}"
            f"\t#vocab_hash={vocabulary_hash(vocab)}"
            f"\t#seed={split.seed}"
            f"\t#validation_ratio={split.validation_ratio}"
            f"\t#fraction={split.fraction}"
            f"\t#validation={len(split.validation)}"
            f"\t#train={len(split.train)}\n"
        )
        for block in (split.validation, split.train):
            for c1, c2, c4, c5, target in block.tolist():
                fh.write(f"{c1}\t{c2}\t{c4}\t{c5}\t{target}\n")


def read_dataset(path: Path | str) -> tuple[DatasetSplit, dict]:
    """Parse a dataset file; returns the split and its header metadata.

    The body is parsed in one pass into an (N, 5) int64 array; the split's
    blocks are views of it. A row that is not 5 integers (a float, an empty
    line) is a ValueError.
    The model indexes its weights with the ids unchecked, so any id out of
    range (context [0, |V| + 4), target [0, |V|)) is a ValueError here too,
    naming the first offending line.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        meta: dict[str, str] = {}
        for part in header.split("\t"):
            if not part.startswith("#") or "=" not in part:
                raise ValueError(f"{path}: malformed dataset header field {part!r}")
            key, value = part[1:].split("=", 1)
            meta[key] = value
        missing = [f"#{key}=" for key in ("vocab_size", "vocab_hash", "seed", "validation_ratio",
                                          "fraction", "validation", "train") if key not in meta]
        if missing:
            raise ValueError(f"{path}: dataset header lacks {', '.join(missing)}")
        n_val = int(meta["validation"])
        n_train = int(meta["train"])
        vocab_size = int(meta["vocab_size"])
        n_ids = vocab_size + len(BOUNDARY_TOKENS)
        body_start = fh.tell()
        with warnings.catch_warnings():
            # An empty body warns and parses as shape (0, 1); the checks below cover it.
            warnings.simplefilter("ignore", UserWarning)
            # Older numpy versions truncate a float such as "1.5" or "nan" in
            # an int column and only warn; that is a malformed row here.
            warnings.simplefilter("error", DeprecationWarning)
            try:
                rows = np.loadtxt(fh, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
            except (ValueError, DeprecationWarning) as exc:
                raise ValueError(f"{path}: expected 5 integer fields ({exc})") from None
        # loadtxt skips empty lines, which are malformed rows too: a body with
        # more lines than rows has one.
        fh.seek(body_start)
        n_lines, last = 0, "\n"
        for chunk in iter(lambda: fh.read(1 << 20), ""):
            n_lines += chunk.count("\n")
            last = chunk[-1]
        if n_lines + (last != "\n") != len(rows):
            fh.seek(body_start)
            lineno = next(i for i, line in enumerate(fh, start=2) if line == "\n")
            raise ValueError(f"{path}:{lineno}: expected 5 integer fields, got an empty line")
    if rows.size == 0:
        rows = rows.reshape(0, 5)
    if rows.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 integer fields, got {rows.shape[1]}")
    bad = ((rows[:, :4] < 0) | (rows[:, :4] >= n_ids)).any(axis=1)
    bad |= (rows[:, 4] < 0) | (rows[:, 4] >= vocab_size)
    if bad.any():
        first = int(bad.argmax())
        raise ValueError(f"{path}:{first + 2}: id out of range (context ids in "
                         f"[0, {n_ids}), target in [0, {vocab_size})): {rows[first].tolist()}")
    if n_val < 0 or n_train < 0 or len(rows) != n_val + n_train:
        raise ValueError(f"{path}: row count does not match header block sizes")
    split = DatasetSplit(
        train=rows[n_val:],
        validation=rows[:n_val],
        seed=int(meta["seed"]),
        fraction=float(meta["fraction"]),
        validation_ratio=float(meta["validation_ratio"]),
    )
    parsed = {
        "vocab_size": vocab_size,
        "vocab_hash": meta["vocab_hash"],
    }
    return split, parsed
