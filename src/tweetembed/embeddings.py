"""Embedding extraction and the text and binary embedding files."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Vocabulary
from .manifest import atomic_write
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


def export_embeddings(params: ModelParams, vocab: Vocabulary,
                      manifest_hash: str = "", source: str = "output") -> EmbeddingTable:
    """Embedding table from trained parameters.

    The exported vector for word id j is column j of the output projection.
    source="input" instead exports the input-embedding rows (boundary-token
    rows excluded), for comparison studies only.
    """
    if params.hyper.vocab_size != vocab.size:
        raise ValueError(
            f"checkpoint vocab size {params.hyper.vocab_size} != vocabulary size {vocab.size}"
        )
    if source == "output":
        vectors = params.w_output.T.copy()
    elif source == "input":
        vectors = params.w_input[: vocab.size].copy()
    else:
        raise ValueError(f"unknown embedding source {source!r}")
    return EmbeddingTable(list(vocab.words), vectors, manifest_hash)


def write_embeddings_text(table: EmbeddingTable, path: Path | str) -> None:
    """Plain-text interchange layout: "<n> <dim>" header, then one word
    per line followed by its vector components at six decimals."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(table.words)} {table.dim}\n")
        for word, vec in zip(table.words, table.vectors):
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def read_embeddings_text(path: Path | str, manifest_hash: str = "") -> EmbeddingTable:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        n, dim = (int(x) for x in fh.readline().split())
        words: list[str] = []
        vectors = np.empty((n, dim), dtype=np.float64)
        for i, line in enumerate(fh):
            if i == n:
                raise ValueError(f"{path}: header promised {n} rows, found more")
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(f"{path}:{i + 2}: expected {dim + 1} fields")
            words.append(parts[0])
            vectors[i] = [float(x) for x in parts[1:]]
    if len(words) != n:
        raise ValueError(f"{path}: header promised {n} rows, found {len(words)}")
    return EmbeddingTable(words, vectors, manifest_hash)


def write_embeddings_binary(table: EmbeddingTable, path: Path | str) -> None:
    """Full-precision sidecar: magic "EMBTBL01", uint32 header length, JSON
    header (word list, shape, manifest hash), raw row-major float64."""
    header = {
        "format": 1,
        "words": table.words,
        "shape": list(table.vectors.shape),
        "dtype": "<f8",
        "manifest_hash": table.manifest_hash,
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with atomic_write(path, "wb") as fh:
        fh.write(TABLE_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(table.vectors, dtype="<f8").tobytes())


def read_embeddings_binary(path: Path | str) -> EmbeddingTable:
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(len(TABLE_MAGIC))
        if magic != TABLE_MAGIC:
            raise ValueError(f"{path}: not an embedding table (bad magic {magic!r})")
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        n, dim = header["shape"]
        buf = fh.read(n * dim * 8)
        if len(buf) != n * dim * 8:
            raise ValueError(f"{path}: truncated vector block")
        vectors = np.frombuffer(buf, dtype="<f8").reshape(n, dim).copy()
    return EmbeddingTable(header["words"], vectors, header["manifest_hash"])
