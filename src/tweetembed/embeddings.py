"""Embedding extraction, cosine similarity, nearest-neighbor queries, file I/O."""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import Vocabulary
from .manifest import atomic_write
from .model import ModelParams

TABLE_MAGIC = b"EMBTBL01"


class ZeroVectorError(ValueError):
    """Cosine similarity is undefined for an all-zero vector."""


class UnknownWordError(KeyError):
    """Query word absent from the table; carries close spellings as a hint."""

    def __init__(self, word: str, suggestions: list[str]):
        hint = f"; did you mean: {', '.join(suggestions)}" if suggestions else ""
        super().__init__(f"unknown word {word!r}{hint}")
        self.word = word
        self.suggestions = suggestions


@dataclass
class EmbeddingTable:
    """Immutable word -> vector lookup with precomputed unit vectors.

    One row per vocabulary word. Rows whose vector is all zeros are flagged
    and excluded from similarity queries.
    """

    words: list[str]
    vectors: np.ndarray
    manifest_hash: str = ""
    _index: dict[str, int] = field(init=False, repr=False)
    _units: np.ndarray = field(init=False, repr=False)
    _zero: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.words) != self.vectors.shape[0]:
            raise ValueError("word list and vector matrix disagree on row count")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("embedding table contains non-finite entries")
        self._index = {w: i for i, w in enumerate(self.words)}
        norms = np.linalg.norm(self.vectors, axis=1)
        self._zero = norms == 0.0
        safe = np.where(self._zero, 1.0, norms)
        self._units = self.vectors / safe[:, None]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def metadata(self) -> dict:
        return {
            "vocab_size": len(self.words),
            "dim": self.dim,
            "manifest_hash": self.manifest_hash,
        }

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def row(self, word: str) -> int:
        return self._index[word]

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self._index[word]]

    def is_zero(self, word: str) -> bool:
        return bool(self._zero[self._index[word]])

    def unit(self, word: str) -> np.ndarray:
        i = self._index[word]
        if self._zero[i]:
            raise ZeroVectorError(f"word {word!r} has an all-zero vector")
        return self._units[i]


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


def cosine(u: Sequence[float] | np.ndarray, v: Sequence[float] | np.ndarray) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"vector lengths differ: {u.shape} vs {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVectorError("cosine undefined for a zero vector")
    return float(np.dot(u, v) / (nu * nv))


def _within_edit1(a: str, b: str) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def nearest(table: EmbeddingTable, word: str, k: int) -> list[tuple[str, float]]:
    """Exact top-k neighbors by cosine, descending; ties broken by word order.

    The query word itself and any zero-vector rows are excluded. Unknown
    words raise UnknownWordError listing in-table spellings within edit
    distance one.
    """
    if word not in table:
        suggestions = sorted(w for w in table.words if _within_edit1(word, w))
        raise UnknownWordError(word, suggestions)
    if not 1 <= k < len(table.words):
        raise ValueError(f"k must be in [1, {len(table.words) - 1}], got {k}")
    query = table.unit(word)
    sims = table._units @ query
    row = table.row(word)
    candidates = [
        j for j in range(len(table.words)) if j != row and not table._zero[j]
    ]
    candidates.sort(key=lambda j: (-sims[j], table.words[j]))
    return [(table.words[j], float(sims[j])) for j in candidates[:k]]


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
