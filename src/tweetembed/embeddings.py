"""Embedding extraction and the text and binary embedding files."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifest import atomic_write, row_blocks, write_container
from .model import ModelParams

TABLE_MAGIC = b"EMBTBL01"


@dataclass
class EmbeddingTable:
    """Word -> vector table: one row per word, no word twice, finite entries.

    `index` maps each word to its row.
    """

    words: list[str]
    vectors: np.ndarray
    manifest_hash: str = ""
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.words) != self.vectors.shape[0]:
            raise ValueError("word list and vector matrix disagree on row count")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("embedding table contains non-finite entries")
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            repeated = next(w for i, w in enumerate(self.words) if self.index[w] != i)
            raise ValueError(f"embedding table lists the word {repeated!r} more than once")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def export_embeddings(params: ModelParams, vocab: list[str],
                      manifest_hash: str = "") -> EmbeddingTable:
    """Embedding table from trained parameters: the exported vector for
    word id j is column j of the output projection."""
    if params.hyper.vocab_size != len(vocab):
        raise ValueError(
            f"checkpoint vocab size {params.hyper.vocab_size} != vocabulary size {len(vocab)}"
        )
    return EmbeddingTable(list(vocab), params.w_output.T.copy(), manifest_hash)


def write_embeddings_text(table: EmbeddingTable, path: Path | str) -> None:
    """Plain-text interchange layout: "<n> <dim>" header, then one word
    per line followed by its vector components at six decimals. Each line
    is one `%` format over the row's Python floats, made one
    `manifest.row_blocks` block (the word and `dim` floats a row) at a
    time."""
    line = "%s" + " %.6f" * table.dim + "\n"
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.words)} {table.dim}\n")
        for rows in row_blocks(len(table.words), table.dim + 1):
            fh.writelines(line % (word, *row) for word, row in
                          zip(table.words[rows], table.vectors[rows].tolist()))


def read_embeddings_text(path: Path | str) -> EmbeddingTable:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        try:  # np.empty refuses a negative count
            n, dim = (int(x) for x in header.split())
            vectors = np.empty((n, dim), dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path}:1: expected a header of 2 counts, got {header!r}") from None
        except MemoryError as exc:
            raise ValueError(f"{path}:1: header {header!r}: {exc}") from None
        words: list[str] = []
        for i, line in enumerate(fh):
            if i == n:
                raise ValueError(f"{path}: header promised {n} rows, found more")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{i + 2}: expected {dim + 1} fields")
            words.append(parts[0])
            try:
                vectors[i] = [float(x) for x in parts[1:]]
            except ValueError as exc:
                raise ValueError(f"{path}:{i + 2}: {exc}") from None
    if len(words) != n:
        raise ValueError(f"{path}: header promised {n} rows, found {len(words)}")
    return EmbeddingTable(words, vectors)


def write_embeddings_binary(table: EmbeddingTable, path: Path | str) -> None:
    """Full-precision sidecar in `manifest.write_container`'s layout with
    the magic "EMBTBL01": a JSON header (word list, shape, manifest hash),
    then raw row-major float64, written from the table's own buffer when it
    is C-contiguous little-endian float64, as `export_embeddings` makes it."""
    header = {
        "format": 1,
        "words": table.words,
        "shape": list(table.vectors.shape),
        "dtype": "<f8",
        "manifest_hash": table.manifest_hash,
    }
    write_container(path, TABLE_MAGIC, header,
                    [np.ascontiguousarray(table.vectors, dtype="<f8")])
