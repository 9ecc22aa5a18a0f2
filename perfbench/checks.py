"""Correctness checks on the files the pipeline writes.

The checks parse the files themselves instead of calling the package's
readers, so a reader that accepts a bad file (a negative context id, say)
cannot hide it. Each check returns a list of error strings; empty means
the file passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

N_BOUNDARY = 4
EMBEDDING_MAGIC = b"EMBTBL01"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_ngram_db(path: Path) -> list[str]:
    """The 5-gram counts sum to the header's total_tokens."""
    with path.open("rb") as fh:
        header = fh.readline().decode("utf-8").rstrip("\n").split("\t")
        total = sum(int(line.rpartition(b"\t")[2]) for line in fh)
    fields = dict(part.lstrip("#").split("=", 1) for part in header)
    expected = int(fields["total_tokens"])
    if total != expected:
        return [f"{path}: 5-gram counts sum to {total}, header says {expected} tokens"]
    return []


def read_dataset_header(path: Path) -> dict[str, str]:
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
    return dict(part.lstrip("#").split("=", 1) for part in header.split("\t"))


def check_dataset(path: Path, vocab_size: int) -> list[str]:
    """Header block sizes match the rows; context ids lie in [0, |V|+4)
    and target ids in [0, |V|)."""
    meta = read_dataset_header(path)
    with path.open("rb") as fh:
        fh.readline()
        body = fh.read()
    errors = []
    if int(meta["vocab_size"]) != vocab_size:
        errors.append(f"{path}: vocab_size {meta['vocab_size']} != {vocab_size}")
    rows = np.array(body.split(), dtype=np.int64)
    if rows.size % 5:
        return errors + [f"{path}: {rows.size} ids do not form rows of 5"]
    rows = rows.reshape(-1, 5)
    blocks = int(meta["validation"]) + int(meta["train"])
    if rows.shape[0] != blocks:
        errors.append(f"{path}: {rows.shape[0]} rows, header blocks sum to {blocks}")
    context, target = rows[:, :4], rows[:, 4]
    if rows.size and (context.min() < 0 or context.max() >= vocab_size + N_BOUNDARY):
        errors.append(f"{path}: context id outside [0, {vocab_size + N_BOUNDARY})")
    if rows.size and (target.min() < 0 or target.max() >= vocab_size):
        errors.append(f"{path}: target id outside [0, {vocab_size})")
    return errors


def read_run_log(path: Path) -> np.ndarray:
    """Rows of (epoch, train_loss, val_loss, seconds)."""
    return np.array([[float(x) for x in line.split("\t")]
                     for line in path.read_text(encoding="utf-8").splitlines()])


def check_run_log(path: Path, epochs: int, vocab_size: int) -> list[str]:
    """One finite row per epoch; the final train loss is below ln |V|."""
    rows = read_run_log(path)
    if rows.shape[0] != epochs:
        return [f"{path}: {rows.shape[0]} rows for {epochs} epochs"]
    errors = []
    if not np.all(np.isfinite(rows)):
        errors.append(f"{path}: non-finite value in run log")
    if not rows[-1, 1] < math.log(vocab_size):
        errors.append(f"{path}: final train loss {rows[-1, 1]} >= ln {vocab_size}")
    return errors


def _read_embeddings_bin(path: Path) -> tuple[dict, np.ndarray]:
    data = path.read_bytes()
    if data[: len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise ValueError(f"{path}: bad magic")
    offset = len(EMBEDDING_MAGIC)
    (length,) = struct.unpack_from("<I", data, offset)
    offset += 4
    header = json.loads(data[offset : offset + length])
    vectors = np.frombuffer(data, dtype="<f8", offset=offset + length)
    return header, vectors.reshape(header["shape"])


def check_embeddings(text_path: Path, bin_path: Path, checkpoint_path: Path,
                     vocab_size: int) -> list[str]:
    """The text table has |V| rows that agree with the .bin sidecar to six
    decimals, and the sidecar's manifest_hash is the checkpoint's sha256."""
    lines = text_path.read_text(encoding="utf-8").splitlines()
    n, dim = (int(x) for x in lines[0].split())
    rows = [line.split(" ") for line in lines[1:]]
    errors = []
    if not n == len(rows) == vocab_size:
        return [f"{text_path}: header {n}, {len(rows)} rows, |V| = {vocab_size}"]
    try:
        header, vectors = _read_embeddings_bin(bin_path)
    except (ValueError, KeyError) as exc:
        return [f"{bin_path}: unreadable sidecar ({exc})"]
    if [r[0] for r in rows] != header["words"]:
        errors.append(f"{text_path}: words differ from the .bin sidecar")
    text = np.array([r[1:] for r in rows], dtype=np.float64)
    if text.shape != (n, dim) or not np.allclose(text, vectors, rtol=0.0, atol=5.01e-7):
        errors.append(f"{text_path}: vectors disagree with the .bin sidecar at 6 decimals")
    if header["manifest_hash"] != sha256(checkpoint_path):
        errors.append(f"{bin_path}: manifest_hash is not the checkpoint's sha256")
    return errors


def report_scores(path: Path) -> tuple[float | None, float | None]:
    """(class membership score at 0.80, topological consistency score)."""
    reports = json.loads(path.read_text(encoding="utf-8"))["reports"]
    membership = next((r["score"] for r in reports
                       if r["name"] == "class_membership" and r["threshold"] == 0.8), None)
    topo = next((r["score"] for r in reports if r["name"] == "topological_consistency"), None)
    return membership, topo


def check_report(path: Path) -> list[str]:
    """The generated gold files are covered, so both guard scores exist."""
    membership, topo = report_scores(path)
    if membership is None or topo is None:
        return [f"{path}: membership@0.80 or topological score missing"]
    return []
