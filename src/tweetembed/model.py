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

One function, `_forward_to_logits`, runs the network up to the softmax
input; `evaluate` and `backward_arrays` both call it. The loss is the mean
cross entropy, -ln p_target per row, clamped at -ln LOSS_FLOOR. `evaluate`
computes it as logsumexp(logits) - logit_target, streaming the rows in
blocks of about 2^20 logits (8 MB of float64 at any |V|), so it never
builds the probability matrix and its memory does not grow with the
dataset. The training step (`backward_arrays`) applies `softmax` to the
logits for the gradient only and returns the gradient in the parameters'
own layout: one flat vector with a view per array (`ModelParams`). The hot
paths write into as few full-width arrays as they can, but perform the
same IEEE operations in the same order as the textbook forms kept in
`tests/oracles.py`, so training yields the same parameters to the bit.

The input-embedding gradient is a scatter: row r of the batch adds its
four context slices of d_merged into the rows of w_input their ids name.
`backward_arrays` does it with one `np.bincount` over the flattened cell
indices id * d_in + column, weighted by d_merged in row-major order. A
bincount starts every cell at +0.0 and adds its weights in index order,
which is the order the row-by-row scatter in `tests/oracles.py` adds them
in, so repeated ids and -0.0 entries give the same bits.

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
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifest import atomic_write

logger = logging.getLogger(__name__)

N_CONTEXT = 4
N_BOUNDARY = 4
LOSS_FLOOR = 1e-12
# -ln(LOSS_FLOOR): a row's loss is capped here, i.e. p_target is clamped at LOSS_FLOOR.
MAX_NLL = float(-np.log(LOSS_FLOOR))
# `evaluate` streams about this many logits per block.
EVAL_BLOCK_LOGITS = 2 ** 20

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


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weight matrices and biases, all views of one float64 vector.

    `flat` holds every parameter in PARAM_FIELDS order, each array
    row-major; it is the checkpoint body and the vector Adam updates. The
    named arrays are views of it, fixed at construction, with shapes set
    by the hyperparameters:

    w_input:  (|V| + 4, d_in), shared across the four context positions,
              last four rows are the boundary tokens.
    w_ctx:    (4 * d_in, d_ctx) with bias b_ctx (d_ctx,).
    w_output: (d_ctx, |V|) with bias b_out (|V|,); columns are the
              exported word embeddings.

    Without `flat`, every entry is zero. The same layout also holds the
    gradients and Adam's two moments. Assign into an array (`[...] =`);
    rebinding one raises, since the new array would not be part of `flat`.
    """

    hyper: ModelHyper
    flat: np.ndarray | None = None
    w_input: np.ndarray = field(init=False, repr=False)
    w_ctx: np.ndarray = field(init=False, repr=False)
    b_ctx: np.ndarray = field(init=False, repr=False)
    w_output: np.ndarray = field(init=False, repr=False)
    b_out: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        size = param_count(self.hyper)
        flat = np.zeros(size) if self.flat is None else self.flat
        if flat.shape != (size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise ValueError(f"flat parameters must be {size} contiguous float64 values, "
                             f"got shape {flat.shape} of {flat.dtype}")
        object.__setattr__(self, "flat", flat)
        start = 0
        for name, shape in _param_shapes(self.hyper).items():
            stop = start + math.prod(shape)
            object.__setattr__(self, name, flat[start:stop].reshape(shape))
            start = stop


def _param_shapes(hyper: ModelHyper) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter array, in PARAM_FIELDS order."""
    return {
        "w_input": (hyper.vocab_size + N_BOUNDARY, hyper.d_in),
        "w_ctx": (N_CONTEXT * hyper.d_in, hyper.d_ctx),
        "b_ctx": (hyper.d_ctx,),
        "w_output": (hyper.d_ctx, hyper.vocab_size),
        "b_out": (hyper.vocab_size,),
    }


def param_count(hyper: ModelHyper) -> int:
    """How many float64 values the parameters hold, all arrays together."""
    return sum(math.prod(shape) for shape in _param_shapes(hyper).values())


def init_params(hyper: ModelHyper, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    Each matrix is drawn from U(-limit, limit) with
    limit = sqrt(6 / (fan_in + fan_out)) for that matrix's own shape,
    in PARAM_FIELDS order.
    """
    rng = np.random.Generator(np.random.PCG64(seed))

    params = ModelParams(hyper)
    for name in PARAM_FIELDS:
        arr = getattr(params, name)
        if arr.ndim == 2:
            limit = math.sqrt(6.0 / (arr.shape[0] + arr.shape[1]))
            arr[...] = rng.uniform(-limit, limit, size=arr.shape)
    return params


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    With e = exp(-|x|): 1 / (1 + e) for x >= 0 and e / (1 + e) otherwise,
    so exp never overflows.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability, in one new array."""
    logits = np.asarray(logits, dtype=np.float64)
    out = logits - logits.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _forward_to_logits(params: ModelParams, contexts: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The forward pass up to the softmax input, for a (B, 4) int array of
    context ids: (merged, ctx_act, logits), shapes (B, 4 * d_in), (B, d_ctx)
    and (B, |V|)."""
    merged = params.w_input[contexts].reshape(contexts.shape[0], -1)
    ctx_pre = merged @ params.w_ctx
    ctx_pre += params.b_ctx
    ctx_act = sigmoid(ctx_pre)
    logits = ctx_act @ params.w_output
    logits += params.b_out
    if params.hyper.sigmoid_logits:
        logits = sigmoid(logits)
    return merged, ctx_act, logits


def evaluate(params: ModelParams, contexts: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross entropy over a dataset, streamed in blocks of rows.

    Each row's loss is -ln p_target = logsumexp(logits) - logit_target,
    computed in place on the block's logits; no probability matrix is
    built. A block holds max(1, 2^20 // |V|) rows, about 2^20 logits or
    8 MB, so memory is bounded independently of the dataset size. The
    LOSS_FLOOR clamp warns at most once per call, with the count over all
    blocks.
    """
    n = targets.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    rows = max(1, EVAL_BLOCK_LOGITS // params.hyper.vocab_size)
    total = 0.0
    n_clamped = 0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        logits = _forward_to_logits(params, contexts[start:stop])[-1]
        top = logits.max(axis=1)
        nll = top - logits[np.arange(stop - start), targets[start:stop]]
        logits -= top[:, None]
        np.exp(logits, out=logits)
        nll += np.log(logits.sum(axis=1))
        n_clamped += int(np.count_nonzero(nll > MAX_NLL))
        np.minimum(nll, MAX_NLL, out=nll)  # -ln max(p_target, LOSS_FLOOR)
        total += float(nll.sum())
    if n_clamped:
        logger.warning("%d target probabilities clamped to %.0e before log", n_clamped, LOSS_FLOOR)
    return total / n


def backward_arrays(params: ModelParams, contexts: np.ndarray,
                    targets: np.ndarray) -> ModelParams:
    """Exact gradient of mean cross entropy over a packed batch, in the
    parameters' layout.

    The shared input matrix accumulates contributions from all four
    context positions, in one `np.bincount` (see the module docstring);
    rows for ids absent from the batch stay zero.
    """
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("backward pass needs a non-empty batch")
    merged, ctx_act, logits = _forward_to_logits(params, contexts)
    d_out_pre = softmax(logits)  # a fresh array, so it becomes d_logits in place
    d_out_pre[np.arange(batch), targets] -= 1.0
    d_out_pre /= batch
    if params.hyper.sigmoid_logits:
        # logits = sigmoid(out_pre), so chain through the logistic derivative
        d_out_pre *= logits
        d_out_pre *= 1.0 - logits

    d_act = d_out_pre @ params.w_output.T
    d_ctx_pre = d_act * ctx_act * (1.0 - ctx_act)
    d_merged = d_ctx_pre @ params.w_ctx.T
    # w_input leads `flat`, so the scatter's output is the gradient vector:
    # entry id * d_in + column of w_input, zeros past it.
    d_in = params.hyper.d_in
    cells = (contexts * d_in)[..., None] + np.arange(d_in)
    grads = ModelParams(params.hyper, np.bincount(cells.ravel(), weights=d_merged.ravel(),
                                                  minlength=param_count(params.hyper)))
    np.matmul(ctx_act.T, d_out_pre, out=grads.w_output)
    d_out_pre.sum(axis=0, out=grads.b_out)
    np.matmul(merged.T, d_ctx_pre, out=grads.w_ctx)
    d_ctx_pre.sum(axis=0, out=grads.b_ctx)
    return grads


def save_checkpoint(params: ModelParams, path: Path | str, seed: int, vocab_hash: str) -> None:
    """Versioned binary checkpoint.

    Layout: 8-byte magic "EMBCKPT1"; little-endian uint32 header length;
    UTF-8 JSON header with the hyperparameters, seed, vocabulary hash and
    the array table (name + shape, in PARAM_FIELDS order); then `flat` as
    little-endian float64, which is the arrays row-major, concatenated in
    table order. The file contains no timestamps, so identical runs produce
    identical bytes. The file is replaced atomically, so a crash mid-write
    keeps the previous checkpoint.
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
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


_HEADER_KEYS = ("format", "hyper", "seed", "vocab_hash", "dtype", "arrays")
_HYPER_KEYS = ("vocab_size", "d_in", "d_ctx", "sigmoid_logits")


def _parse_header(blob: bytes, path: Path) -> tuple[dict, ModelHyper]:
    """Decode and validate a checkpoint header; raises ValueError naming what is wrong."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise ValueError(f"{path}: unreadable checkpoint header ({exc})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if header["format"] != 1:
        raise ValueError(f"{path}: unsupported checkpoint format {header['format']!r}")
    if header["dtype"] != "<f8":
        raise ValueError(f"{path}: unsupported checkpoint dtype {header['dtype']!r}")
    raw = header["hyper"]
    if not isinstance(raw, dict) or sorted(raw) != sorted(_HYPER_KEYS):
        raise ValueError(f"{path}: checkpoint hyper must have exactly {', '.join(_HYPER_KEYS)}")
    sizes = [raw[key] for key in _HYPER_KEYS[:3]]
    if not all(type(size) is int for size in sizes) or type(raw["sigmoid_logits"]) is not bool:
        raise ValueError(f"{path}: checkpoint hyper has a value of the wrong type: {raw}")
    hyper = ModelHyper(**raw)
    table = header["arrays"]
    names = ([entry.get("name") if isinstance(entry, dict) else None for entry in table]
             if isinstance(table, list) else None)
    if names != list(PARAM_FIELDS):
        raise ValueError(f"{path}: checkpoint array names {names} are not {list(PARAM_FIELDS)}")
    for entry, (name, shape) in zip(table, _param_shapes(hyper).items()):
        if entry.get("shape") != list(shape):
            raise ValueError(f"{path}: array {name} has shape {entry.get('shape')}, "
                             f"but hyper implies {list(shape)}")
    return header, hyper


def load_checkpoint(path: Path | str) -> tuple[ModelParams, dict]:
    """Read a checkpoint; returns the parameters and the header metadata.

    Raises ValueError unless the file is exactly what `save_checkpoint`
    writes: the magic, a header with every key, format 1, dtype "<f8",
    the arrays named in PARAM_FIELDS order with the shapes the header's
    hyperparameters imply, and no byte after the last array.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic {magic!r})")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise ValueError(f"{path}: truncated checkpoint (no header length)")
        (header_len,) = struct.unpack("<I", raw_len)
        body_start = len(CHECKPOINT_MAGIC) + 4 + header_len
        if body_start > size:
            raise ValueError(f"{path}: truncated checkpoint ({size} bytes, "
                             f"header length says {header_len})")
        header, hyper = _parse_header(fh.read(header_len), path)
        expected = body_start + 8 * param_count(hyper)
        if size < expected:
            raise ValueError(f"{path}: truncated checkpoint ({size} bytes, "
                             f"header implies {expected})")
        if size > expected:
            raise ValueError(f"{path}: {size - expected} trailing bytes after the last array")
        flat = np.frombuffer(fh.read(expected - body_start), dtype="<f8").astype(np.float64)
    return ModelParams(hyper, flat), header
