"""The five-layer center-word predictor and its exact gradients.

Forward pass over a batch of B examples, one row each: the four context
word ids of a row index a shared input embedding matrix; the four
embeddings are concatenated in context order (i-2, i-1, i+1, i+2, so
relative position is preserved); a sigmoid dense layer maps the
concatenation down to the context width; a dense output layer projects
onto the vocabulary; softmax normalizes each row. The rows appended to the
input matrix hold the four boundary tokens, which can appear in context
positions but are never prediction targets. Ids are not range-checked
here; `dataset.read_dataset` rejects out-of-range ids at the input
boundary.

The columns of the output projection are the word embeddings exported
downstream. By default the projection feeds the softmax directly;
`sigmoid_logits=True` squashes it through a sigmoid first, which bounds
every logit to (0, 1) and caps the confidence the model can express. The
flag exists for comparison runs only.

All arithmetic is float64. Checkpoints use a versioned binary container,
documented at `save_checkpoint`.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import TrainingTuple

logger = logging.getLogger(__name__)

N_CONTEXT = 4
N_BOUNDARY = 4
LOSS_FLOOR = 1e-12

CHECKPOINT_MAGIC = b"EMBCKPT1"
PARAM_FIELDS = ("w_input", "w_ctx", "b_ctx", "w_output", "b_out")


@dataclass(frozen=True)
class ModelHyper:
    """Architecture sizes. The context arity is fixed at four."""

    vocab_size: int
    d_in: int = 64
    d_ctx: int = 64
    sigmoid_logits: bool = False

    def __post_init__(self) -> None:
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if self.d_in < 1 or self.d_ctx < 1:
            raise ValueError("embedding widths must be positive")


@dataclass
class ModelParams:
    """Weight matrices and biases; shapes are fixed by the hyperparameters.

    w_input:  (|V| + 4, d_in), shared across the four context positions,
              last four rows are the boundary tokens.
    w_ctx:    (4 * d_in, d_ctx) with bias b_ctx (d_ctx,).
    w_output: (d_ctx, |V|) with bias b_out (|V|,); columns are the
              exported word embeddings.
    """

    hyper: ModelHyper
    w_input: np.ndarray
    w_ctx: np.ndarray
    b_ctx: np.ndarray
    w_output: np.ndarray
    b_out: np.ndarray


@dataclass
class Gradients:
    """Loss gradients, one array per parameter, same shapes as ModelParams."""

    w_input: np.ndarray
    w_ctx: np.ndarray
    b_ctx: np.ndarray
    w_output: np.ndarray
    b_out: np.ndarray


@dataclass
class ForwardTrace:
    """Every intermediate of a batched forward pass, one row per example."""

    input_embeds: np.ndarray  # (B, 4, d_in)
    merged: np.ndarray        # (B, 4 * d_in)
    ctx_pre: np.ndarray       # (B, d_ctx)
    ctx_act: np.ndarray       # (B, d_ctx)
    logits: np.ndarray        # (B, |V|), the values fed to the softmax
    probs: np.ndarray         # (B, |V|)


def init_params(hyper: ModelHyper, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Each matrix is drawn from U(-limit, limit) with
    limit = sqrt(6 / (fan_in + fan_out)) for that matrix's own shape.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    def glorot(rows: int, cols: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (rows + cols))
        return rng.uniform(-limit, limit, size=(rows, cols))

    return ModelParams(
        hyper=hyper,
        w_input=glorot(hyper.vocab_size + N_BOUNDARY, hyper.d_in),
        w_ctx=glorot(N_CONTEXT * hyper.d_in, hyper.d_ctx),
        b_ctx=np.zeros(hyper.d_ctx),
        w_output=glorot(hyper.d_ctx, hyper.vocab_size),
        b_out=np.zeros(hyper.vocab_size),
    )


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def forward(params: ModelParams, contexts: np.ndarray) -> ForwardTrace:
    """Run a batch through the network; contexts is an int array of shape (B, 4)."""
    embeds = params.w_input[contexts]                       # (B, 4, d_in)
    merged = embeds.reshape(contexts.shape[0], -1)          # (B, 4 * d_in)
    ctx_pre = merged @ params.w_ctx + params.b_ctx
    ctx_act = sigmoid(ctx_pre)
    out_pre = ctx_act @ params.w_output + params.b_out
    logits = sigmoid(out_pre) if params.hyper.sigmoid_logits else out_pre
    return ForwardTrace(input_embeds=embeds, merged=merged, ctx_pre=ctx_pre,
                        ctx_act=ctx_act, logits=logits, probs=softmax(logits))


def as_arrays(tuples: Sequence[TrainingTuple]) -> tuple[np.ndarray, np.ndarray]:
    """Pack tuples into (contexts, targets) int64 arrays."""
    contexts = np.array([t.context for t in tuples], dtype=np.int64).reshape(-1, N_CONTEXT)
    targets = np.array([t.target for t in tuples], dtype=np.int64)
    return contexts, targets


def cross_entropy(probs: np.ndarray, targets: np.ndarray) -> float:
    """Mean of -ln(probs[i, targets[i]]) over the rows, each clamped at LOSS_FLOOR."""
    picked = probs[np.arange(targets.shape[0]), targets]
    clamped = np.maximum(picked, LOSS_FLOOR)
    n_clamped = int((picked < LOSS_FLOOR).sum())
    if n_clamped:
        logger.warning("%d target probabilities clamped to %.0e before log", n_clamped, LOSS_FLOOR)
    return float(-np.log(clamped).mean())


def evaluate(params: ModelParams, contexts: np.ndarray, targets: np.ndarray,
             batch_size: int = 4096) -> float:
    """Mean cross entropy over a dataset, evaluated in chunks."""
    n = targets.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    total = 0.0
    for start in range(0, n, batch_size):
        stop = min(start + batch_size, n)
        probs = forward(params, contexts[start:stop]).probs
        total += cross_entropy(probs, targets[start:stop]) * (stop - start)
    return total / n


def backward_arrays(params: ModelParams, contexts: np.ndarray,
                    targets: np.ndarray) -> tuple[Gradients, float]:
    """Exact gradient of mean cross entropy over a packed batch.

    The shared input matrix accumulates contributions from all four
    context positions; rows for ids absent from the batch stay zero.
    """
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("backward pass needs a non-empty batch")
    trace = forward(params, contexts)
    merged, ctx_act, logits = trace.merged, trace.ctx_act, trace.logits
    mean_loss = cross_entropy(trace.probs, targets)

    d_logits = trace.probs.copy()
    d_logits[np.arange(batch), targets] -= 1.0
    d_logits /= batch
    if params.hyper.sigmoid_logits:
        # logits = sigmoid(out_pre), so chain through the logistic derivative
        d_out_pre = d_logits * logits * (1.0 - logits)
    else:
        d_out_pre = d_logits

    g_w_output = ctx_act.T @ d_out_pre
    g_b_out = d_out_pre.sum(axis=0)
    d_act = d_out_pre @ params.w_output.T
    d_ctx_pre = d_act * ctx_act * (1.0 - ctx_act)
    g_w_ctx = merged.T @ d_ctx_pre
    g_b_ctx = d_ctx_pre.sum(axis=0)
    d_merged = d_ctx_pre @ params.w_ctx.T
    g_w_input = np.zeros_like(params.w_input)
    np.add.at(g_w_input, contexts.ravel(), d_merged.reshape(-1, params.hyper.d_in))

    grads = Gradients(
        w_input=g_w_input,
        w_ctx=g_w_ctx,
        b_ctx=g_b_ctx,
        w_output=g_w_output,
        b_out=g_b_out,
    )
    return grads, mean_loss


def save_checkpoint(params: ModelParams, path: Path | str, seed: int,
                    vocab_hash: str = "") -> None:
    """Versioned binary checkpoint.

    Layout: 8-byte magic "EMBCKPT1"; little-endian uint32 header length;
    UTF-8 JSON header with the hyperparameters, seed, vocabulary hash and
    the array table (name + shape, in PARAM_FIELDS order); then the raw
    array buffers, row-major little-endian float64, concatenated in table
    order. The file contains no timestamps, so identical runs produce
    identical bytes.
    """
    header = {
        "format": 1,
        "hyper": {
            "vocab_size": params.hyper.vocab_size,
            "d_in": params.hyper.d_in,
            "d_ctx": params.hyper.d_ctx,
            "sigmoid_logits": params.hyper.sigmoid_logits,
        },
        "seed": seed,
        "vocab_hash": vocab_hash,
        "dtype": "<f8",
        "arrays": [
            {"name": name, "shape": list(getattr(params, name).shape)}
            for name in PARAM_FIELDS
        ],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in PARAM_FIELDS:
            arr = np.ascontiguousarray(getattr(params, name), dtype="<f8")
            fh.write(arr.tobytes())


def load_checkpoint(path: Path | str) -> tuple[ModelParams, dict]:
    """Read a checkpoint; returns the parameters and the header metadata."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        (header_len,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(header_len).decode("utf-8"))
        hyper = ModelHyper(**header["hyper"])
        arrays = {}
        for entry in header["arrays"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape))
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValueError(f"{path}: truncated array {entry['name']}")
            arrays[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
    params = ModelParams(hyper=hyper, **arrays)
    return params, header
