"""Vocabulary selection, training-tuple filtering, deterministic splits."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple, Sequence

from .corpus import BOUNDARY_TOKENS, Dictionary, NGramDatabase
from .rng import permutation


class TrainingTuple(NamedTuple):
    """Four context word ids (positions i-2, i-1, i+1, i+2) and the target id."""

    context: tuple[int, int, int, int]
    target: int


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

    def id_to_word(self, token_id: int) -> str:
        if token_id < self.size:
            return self.words[token_id]
        return BOUNDARY_TOKENS[token_id - self.size]


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
                  include_boundary: bool = False) -> list[TrainingTuple]:
    """Training tuples for every distinct qualifying 5-gram.

    A 5-gram qualifies when its center word and all four context tokens
    are in the vocabulary; with include_boundary, context tokens may also
    be boundary tokens (mapped to the reserved ids). Counts do not
    replicate tuples: each distinct 5-gram yields exactly one tuple.
    Output is ordered by the 5-gram's tokens, so it is independent of
    counting order.
    """
    boundary_ok = frozenset(BOUNDARY_TOKENS) if include_boundary else frozenset()
    word_to_id = vocab.word_to_id
    out: list[TrainingTuple] = []
    for gram in sorted(db.records):
        target = word_to_id.get(gram[2])
        if target is None:
            continue
        context: list[int] = []
        for tok in (gram[0], gram[1], gram[3], gram[4]):
            token_id = word_to_id.get(tok)
            if token_id is None:
                if tok in boundary_ok:
                    token_id = vocab.boundary_id(tok)
                else:
                    break
            context.append(token_id)
        if len(context) == 4:
            out.append(TrainingTuple((context[0], context[1], context[2], context[3]), target))
    return out


@dataclass
class DatasetSplit:
    """Disjoint train/validation tuple lists plus the parameters that made them."""

    train: list[TrainingTuple]
    validation: list[TrainingTuple]
    seed: int
    fraction: float
    validation_ratio: float


def split_dataset(tuples: Sequence[TrainingTuple], validation_ratio: float = 0.1,
                  fraction: float = 1.0, seed: int = 13) -> DatasetSplit:
    """Deterministic validation/train split with optional train subsampling.

    The tuples are permuted by the explicit seeded shuffle (see rng module),
    the first floor(validation_ratio * n) become validation, and the train
    set is the first floor(fraction * remaining) of the rest. Validation is
    therefore identical across fractions for a fixed seed, and a smaller
    fraction's train set is a prefix of a larger one's.
    """
    if not tuples:
        raise ValueError("cannot split an empty tuple list")
    if not 0.0 < validation_ratio < 1.0:
        raise ValueError(f"validation_ratio must be in (0, 1), got {validation_ratio}")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    order = permutation(len(tuples), seed)
    shuffled = [tuples[i] for i in order]
    n_val = math.floor(validation_ratio * len(shuffled))
    validation = shuffled[:n_val]
    pool = shuffled[n_val:]
    train = pool[: math.floor(fraction * len(pool))]
    return DatasetSplit(train, validation, seed, fraction, validation_ratio)


def write_vocabulary(vocab: Vocabulary, path: Path | str) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
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
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
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
            for item in block:
                c1, c2, c4, c5 = item.context
                fh.write(f"{c1}\t{c2}\t{c4}\t{c5}\t{item.target}\n")


def read_dataset(path: Path | str) -> tuple[DatasetSplit, dict]:
    """Parse a dataset file; returns the split and its header metadata.

    The model indexes its weights with the ids unchecked, so any id out of
    range (context [0, |V| + 4), target [0, |V|)) is a ValueError here.
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
        rows: list[TrainingTuple] = []
        for lineno, line in enumerate(fh, start=2):
            try:
                c1, c2, c4, c5, target = map(int, line.split("\t"))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: expected 5 integer fields ({exc})") from None
            if not (0 <= c1 < n_ids and 0 <= c2 < n_ids and 0 <= c4 < n_ids
                    and 0 <= c5 < n_ids and 0 <= target < vocab_size):
                raise ValueError(f"{path}:{lineno}: id out of range (context ids in "
                                 f"[0, {n_ids}), target in [0, {vocab_size})): {line.split()}")
            rows.append(TrainingTuple((c1, c2, c4, c5), target))
    if len(rows) != n_val + n_train:
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
