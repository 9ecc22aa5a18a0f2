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
input; `evaluate` and `backward_arrays` both call it. Both write every
intermediate array into a `Workspace`, with `out=` or in place. A
workspace is allocated once for a number of rows: `training.train`
builds one per run, and a caller that passes none gets one for its own
rows. So a training step allocates one array, its gradient vector, and
how fast it runs does not hang on the allocator's state.

A workspace may carry a one-thread `ThreadPoolExecutor`; `training.train`
gives it the one `training._second_core` yields, which exists only
while OpenBLAS is set to one thread. Then the passes run in two parts at
once, the first on the calling thread and the second on the pool, on
disjoint rows of the workspace: `backward_arrays`
splits its rows from the gather to `d_merged` at half the batch, and the
output layer's gradient by columns at the multiple of 8 nearest |V| / 2;
`evaluate` splits each chunk's rows in half. The partition is fixed by
the sizes alone. A part of rows has at least 2 rows and a part of
columns at least 8, so no product is one row or one column long, and
each part covers at least PART_MIN_VALUES values (rows x |V| logits,
batch x columns gradient entries); so at batch 256 a step splits from
|V| = 512 up. Otherwise, and without a pool, a pass is one part, and
the pool's thread starts only when a pass first splits. The pool calls
only private helpers and `softmax`/`sigmoid`; every public function runs
on the calling thread.

The loss is the mean cross entropy, -ln p_target per row, clamped at -ln
LOSS_FLOOR. `evaluate` computes it as logsumexp(logits) - logit_target
and never builds the probability matrix. It computes, clamps and sums
the losses in chunks of EVAL_CHUNK_ROWS rows, so its memory is the
workspace plus 8 bytes per row of a chunk, whatever the dataset's size.
The training step (`backward_arrays`) applies `softmax` to the logits
for the gradient only and returns the gradient in the parameters' own
layout: one flat vector with a view per array (`ModelParams`). The hot
paths perform the same IEEE operations in the same order as the textbook
forms kept in `tests/oracles.py`, so training yields the same parameters
to the bit. Row for row, both parts perform the same operations as one
part does. So the bits are the same in one part or two wherever a matrix
product rounds a row alike whatever its row count, which OpenBLAS 0.3.31
does when |V| and the layer widths are multiples of 8 (see `evaluate`).

The input-embedding gradient is a scatter: row r of the batch adds its
four context slices of d_merged into the rows of w_input their ids name.
`backward_arrays` does it with one `np.bincount` over the flattened cell
indices id * d_in + column, weighted by d_merged in row-major order. A
bincount starts every cell at +0.0 and adds its weights in index order,
which is the order the row-by-row scatter in `tests/oracles.py` adds them
in, so repeated ids and -0.0 entries give the same bits.

The columns of the output projection are the word embeddings exported
downstream. The projection is the softmax's input: the logits.

All arithmetic is float64. Checkpoints use a versioned binary container,
documented at `save_checkpoint`.
"""

from __future__ import annotations

import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .manifest import read_container, write_container

logger = logging.getLogger(__name__)

N_CONTEXT = 4
N_BOUNDARY = 4
LOSS_FLOOR = 1e-12
# -ln(LOSS_FLOOR): a row's loss is capped here, i.e. p_target is clamped at LOSS_FLOOR.
MAX_NLL = float(-np.log(LOSS_FLOOR))
# `evaluate` computes and sums the losses EVAL_CHUNK_ROWS rows at a time.
EVAL_CHUNK_ROWS = 256
# A pass runs in two parts only if each part covers this many values (see
# the module docstring): below it, handing a part to the pool cost more
# than it saved (|V| 128 and 256 at batch 256, the grid_matrix workload).
PART_MIN_VALUES = 2 ** 16

CHECKPOINT_MAGIC = b"EMBCKPT1"
PARAM_FIELDS = ("w_input", "w_ctx", "b_ctx", "w_output", "b_out")


@dataclass(frozen=True)
class ModelHyper:
    """Architecture sizes. The context arity is fixed at four."""

    vocab_size: int
    d_in: int = 64
    d_ctx: int = 64

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


def sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, into `out`.

    With e = exp(-|x|): 1 / (1 + e) for x >= 0 and e / (1 + e) otherwise,
    so exp never overflows. `x`, a float64 array of `out`'s shape, is
    overwritten as scratch.
    """
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)             # e, in [0, 1], or NaN where x is NaN
    np.greater_equal(x, 0.0, out=x)  # 1.0 where x >= 0, else 0.0
    # The numerator: 1 where x >= 0, else e, since e <= 1 and NaN propagates.
    np.maximum(x, out, out=x)
    out += 1.0
    np.divide(x, out, out=out)
    return out


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability, into `out`
    (which may be `logits` itself) or a new array."""
    logits = np.asarray(logits, dtype=np.float64)
    out = np.subtract(logits, logits.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _in_parts(pool: ThreadPoolExecutor | None, size: int, part: Callable[[int, int], None],
              values: int, step: int = 1, least: int = 1) -> None:
    """`part(0, size)`, or `part(0, cut)` here and `part(cut, size)` on
    `pool` at once, where cut is the multiple of `step` nearest size / 2.
    Two parts only with a pool and, in each part, at least `least` items
    and PART_MIN_VALUES values, at `values` values per item. Both parts
    have ended when it returns; an exception raised in either reaches the
    caller unchanged, the calling thread's first."""
    cut = step * round(size / (2 * step))
    least = max(least, -(-PART_MIN_VALUES // values))
    if pool is None or not least <= cut <= size - least:
        part(0, size)
        return
    second = pool.submit(part, cut, size)
    try:
        part(0, cut)
    finally:
        error = second.exception()  # the pool's part never outlives the call
    if error is not None:
        raise error


class Workspace:
    """The scratch arrays of the forward and backward passes over up to
    `rows` rows, allocated once and reused by every call that is given it,
    and the `pool` that runs their second parts (None: one part).

    A pass over b rows writes the first b rows of each array, a part
    over rows [lo, hi) of them rows lo to hi - 1, so every intermediate is
    a C-contiguous array of the shape a fresh one would have, and the
    passes round exactly as with fresh arrays. The two parts never write
    the same row, so they share the arrays.
    """

    merged: np.ndarray     # (rows, 4 d_in): the gathered context rows
    d_merged: np.ndarray   # (rows, 4 d_in)
    cells: np.ndarray      # (rows, 4, d_in): the scatter's flat w_input indices
    ctx_pre: np.ndarray    # (rows, d_ctx): the context pre-activation, then d_act and d_ctx_pre
    ctx_act: np.ndarray    # (rows, d_ctx)
    one_minus: np.ndarray  # (rows, d_ctx): 1 - ctx_act
    out_pre: np.ndarray    # (rows, |V|): the logits, then the softmax and d_out_pre
    top: np.ndarray        # (rows,): evaluate's row maxima, then its row sums
    row_ids: np.ndarray    # 0 .. rows - 1
    columns: np.ndarray    # 0 .. d_in - 1

    def __init__(self, hyper: ModelHyper, rows: int,
                 pool: ThreadPoolExecutor | None = None) -> None:
        if rows < 1:
            raise ValueError("a workspace needs at least one row")
        self.pool = pool
        vars(self).update({name: np.empty(shape, dtype)
                           for name, (shape, dtype) in self._layout(hyper, rows).items()})
        self.row_ids[:] = np.arange(rows)
        self.columns[:] = np.arange(hyper.d_in)

    @staticmethod
    def _layout(hyper: ModelHyper, rows: int) -> dict[str, tuple[tuple[int, ...], type]]:
        widths = {"merged": N_CONTEXT * hyper.d_in, "d_merged": N_CONTEXT * hyper.d_in,
                  "ctx_pre": hyper.d_ctx, "ctx_act": hyper.d_ctx, "one_minus": hyper.d_ctx,
                  "out_pre": hyper.vocab_size}
        layout = {name: ((rows, width), np.float64) for name, width in widths.items()}
        layout["cells"] = ((rows, N_CONTEXT, hyper.d_in), np.int64)
        layout["top"] = ((rows,), np.float64)
        layout["row_ids"] = ((rows,), np.int64)
        layout["columns"] = ((hyper.d_in,), np.int64)
        return layout

    @classmethod
    def nbytes(cls, hyper: ModelHyper, rows: int) -> int:
        """The bytes a workspace of `rows` rows allocates, counted without allocating it."""
        return sum(np.dtype(dtype).itemsize * math.prod(shape)
                   for shape, dtype in cls._layout(hyper, rows).values())


def _forward_to_logits(params: ModelParams, contexts: np.ndarray, ws: Workspace,
                       first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """The forward pass up to the softmax input, for a (B, 4) int array of
    context ids, written into rows first .. first + B - 1 of `ws`: (ctx_act,
    logits), shapes (B, d_ctx) and (B, |V|)."""
    b = contexts.shape[0]
    rows = slice(first, first + b)
    merged = ws.merged[rows]
    # mode="wrap" writes straight into `out`; "raise" would copy it first.
    # Ids are in range (see the module docstring), so no id wraps.
    np.take(params.w_input, contexts, axis=0, out=merged.reshape(b, N_CONTEXT, -1),
            mode="wrap")
    ctx_pre = np.matmul(merged, params.w_ctx, out=ws.ctx_pre[rows])
    ctx_pre += params.b_ctx
    ctx_act = sigmoid(ctx_pre, out=ws.ctx_act[rows])
    logits = np.matmul(ctx_act, params.w_output, out=ws.out_pre[rows])
    logits += params.b_out
    return ctx_act, logits


def evaluate(params: ModelParams, contexts: np.ndarray, targets: np.ndarray,
             ws: Workspace | None = None) -> float:
    """Mean cross entropy over a dataset, streamed through a workspace.

    Each row's loss is -ln p_target = logsumexp(logits) - logit_target,
    computed in place on the workspace's logits; no probability matrix is
    built. The rows run in chunks of EVAL_CHUNK_ROWS (all n when fewer),
    the last two sharing their rows when the last would be one row long;
    each chunk's losses are clamped and summed on their own, and the sums
    added in order. So the chunks, and the loss's bits, depend on neither
    |V|, the batch size nor the workspace, which needs a chunk's rows
    (`training.train` builds max(batch, EVAL_CHUNK_ROWS); without `ws`,
    min(n, EVAL_CHUNK_ROWS) are built). Memory is the workspace plus 8
    bytes per row of a chunk, whatever n is. The LOSS_FLOOR clamp warns at
    most once per call, with the count over all chunks. With a pool in
    `ws`, a chunk whose halves have 2 rows and PART_MIN_VALUES logits each
    runs as two halves at once, each writing its own rows' slots of the
    chunk's losses, so the sum adds the same values in the same order.

    A half's logits round like the whole chunk's when the BLAS computes
    each row of a product the same way whatever the row count. numpy
    multiplies a single row as matrix-vector products, which round
    otherwise, so no chunk of a longer dataset, and no half, is one row
    long. OpenBLAS 0.3.31 (Haswell kernels) rounds a few products of a row
    differently with the product's row count, and with the BLAS thread
    count, when a width (|V| or d_ctx) is 1 to 5 above a multiple of 8
    (one thread against two differed at 129-133, 300, 301, 1001 and 2053
    columns, never at 64, 96, 128, 256, 1000 or 2048); the loss was
    unchanged wherever the row count was checked, since a last-bit change
    in a logit is far below the last bit of a loss. `training.train` runs
    on one BLAS thread, so there only the row count matters.
    """
    n = targets.shape[0]
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if ws is None:
        ws = Workspace(params.hyper, min(n, EVAL_CHUNK_ROWS))
    bounds = [*range(0, n, EVAL_CHUNK_ROWS), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds[-2] -= 1  # a 1-row product is a matrix-vector one, which rounds otherwise
    losses = np.empty(min(n, EVAL_CHUNK_ROWS))
    total = 0.0
    n_clamped = 0
    for lo, hi in zip(bounds, bounds[1:]):
        nll = losses[:hi - lo]

        def rows(a: int, b: int) -> None:  # rows lo + a .. lo + b - 1 of the dataset
            _nll_rows(params, contexts[lo + a:lo + b], targets[lo + a:lo + b], ws, a, nll[a:b])

        _in_parts(ws.pool, hi - lo, rows, params.hyper.vocab_size, least=2)
        n_clamped += int(np.count_nonzero(nll > MAX_NLL))
        np.minimum(nll, MAX_NLL, out=nll)  # -ln max(p_target, LOSS_FLOOR)
        total += float(nll.sum())
    if n_clamped:
        logger.warning("%d target probabilities clamped to %.0e before log", n_clamped, LOSS_FLOOR)
    return total / n


def _nll_rows(params: ModelParams, contexts: np.ndarray, targets: np.ndarray, ws: Workspace,
              first: int, nll: np.ndarray) -> None:
    """`evaluate`'s unclamped -ln p_target of each row, into `nll`, computed
    in rows first .. first + B - 1 of `ws`."""
    logits = _forward_to_logits(params, contexts, ws, first)[-1]
    m = targets.shape[0]
    top = np.max(logits, axis=1, out=ws.top[first:first + m])
    np.subtract(top, logits[ws.row_ids[:m], targets], out=nll)
    logits -= top[:, None]
    np.exp(logits, out=logits)
    np.log(np.sum(logits, axis=1, out=top), out=top)
    nll += top


def backward_arrays(params: ModelParams, contexts: np.ndarray, targets: np.ndarray,
                    ws: Workspace | None = None) -> ModelParams:
    """Exact gradient of mean cross entropy over a packed batch, in the
    parameters' layout.

    Every intermediate is written into `ws` (one of the batch's rows when
    not given), so the gradient vector is the one array the call
    allocates. The shared input matrix accumulates contributions from all
    four context positions, in one `np.bincount` (see the module
    docstring); rows for ids absent from the batch stay zero. With a
    pool in `ws`, the row passes and the output layer's gradient run in
    two parts (see the module docstring).
    """
    batch = targets.shape[0]
    if batch == 0:
        raise ValueError("backward pass needs a non-empty batch")
    if ws is None:
        ws = Workspace(params.hyper, batch)

    def rows(lo: int, hi: int) -> None:
        _backward_rows(params, contexts[lo:hi], targets[lo:hi], ws, lo, batch)

    _in_parts(ws.pool, batch, rows, params.hyper.vocab_size, least=2)
    merged, ctx_act = ws.merged[:batch], ws.ctx_act[:batch]
    d_out_pre, d_ctx_pre = ws.out_pre[:batch], ws.ctx_pre[:batch]
    # w_input leads `flat`, so the scatter's output is the gradient vector:
    # entry id * d_in + column of w_input, zeros past it.
    grads = ModelParams(params.hyper, np.bincount(
        ws.cells[:batch].ravel(), weights=ws.d_merged[:batch].ravel(),
        minlength=param_count(params.hyper)))

    def columns(lo: int, hi: int) -> None:
        np.matmul(ctx_act.T, d_out_pre[:, lo:hi], out=grads.w_output[:, lo:hi])
        d_out_pre[:, lo:hi].sum(axis=0, out=grads.b_out[lo:hi])

    _in_parts(ws.pool, params.hyper.vocab_size, columns, batch, step=8, least=8)
    np.matmul(merged.T, d_ctx_pre, out=grads.w_ctx)
    d_ctx_pre.sum(axis=0, out=grads.b_ctx)
    return grads


def _backward_rows(params: ModelParams, contexts: np.ndarray, targets: np.ndarray,
                   ws: Workspace, first: int, batch: int) -> None:
    """The row-local part of `backward_arrays` for B rows of a batch of
    `batch`, in rows first .. first + B - 1 of `ws`: the forward pass, then
    d_out_pre in `out_pre`, d_ctx_pre in `ctx_pre`, d_merged and the
    scatter's cells."""
    m = targets.shape[0]
    rows = slice(first, first + m)
    ctx_act, logits = _forward_to_logits(params, contexts, ws, first)
    d_out_pre = softmax(logits, out=logits)
    d_out_pre[ws.row_ids[:m], targets] -= 1.0
    d_out_pre /= batch
    d_ctx_pre = np.matmul(d_out_pre, params.w_output.T, out=ws.ctx_pre[rows])  # d_act
    d_ctx_pre *= ctx_act
    d_ctx_pre *= np.subtract(1.0, ctx_act, out=ws.one_minus[rows])
    np.matmul(d_ctx_pre, params.w_ctx.T, out=ws.d_merged[rows])
    cells = np.multiply(contexts[..., None], params.hyper.d_in, out=ws.cells[rows])
    cells += ws.columns


def save_checkpoint(params: ModelParams, path: Path | str, seed: int, vocab_hash: str) -> None:
    """Versioned binary checkpoint, in `manifest.write_container`'s layout
    with the magic "EMBCKPT1".

    The JSON header holds the format (1), the hyperparameters, seed and
    vocabulary hash. Format 1 and the hyperparameters fix the body's
    layout: `flat` as little-endian float64, which is the arrays row-major,
    concatenated in PARAM_FIELDS order, written from the vector's own
    buffer (a copy only on a big-endian host). The file contains no
    timestamps, so identical runs produce identical bytes. The file is
    replaced atomically, so a crash mid-write keeps the previous checkpoint.
    """
    header = {"format": 1, "hyper": asdict(params.hyper), "seed": seed, "vocab_hash": vocab_hash}
    write_container(path, CHECKPOINT_MAGIC, header, [params.flat.astype("<f8", copy=False)])


_HEADER_KEYS = ("format", "hyper", "seed", "vocab_hash")
_HYPER_KEYS = tuple(f.name for f in fields(ModelHyper))


def _parse_header(header: dict, path: Path) -> ModelHyper:
    """Validate a decoded checkpoint header; raises ValueError naming what is wrong."""
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if header["format"] != 1:
        raise ValueError(f"{path}: unsupported checkpoint format {header['format']!r}")
    raw = header["hyper"]
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: checkpoint hyper is not an object")
    faults = [f"unexpected key {key}" for key in sorted(set(raw) - set(_HYPER_KEYS))]
    faults += [f"missing key {key}" for key in _HYPER_KEYS if key not in raw]
    if faults:
        raise ValueError(f"{path}: checkpoint hyper has {', '.join(faults)}")
    if not all(type(raw[key]) is int for key in _HYPER_KEYS):
        raise ValueError(f"{path}: checkpoint hyper has a value of the wrong type: {raw}")
    return ModelHyper(**raw)


def load_checkpoint(path: Path | str) -> tuple[ModelParams, dict]:
    """Read a checkpoint; returns the parameters and the header metadata.

    Raises ValueError unless the file is what `save_checkpoint` writes:
    the magic, a header with its four keys, format 1, integer
    hyperparameters, and a body exactly as long as they imply. Other
    header keys are ignored, so checkpoints whose header also carries a
    "dtype" and an "arrays" table, as older ones do, still load.
    """
    path = Path(path)
    try:
        header, body = read_container(path.read_bytes(), CHECKPOINT_MAGIC)
    except ValueError as exc:
        raise ValueError(f"{path}: model checkpoint: {exc}") from None
    hyper = _parse_header(header, path)
    expected = 8 * param_count(hyper)
    if len(body) < expected:
        raise ValueError(f"{path}: truncated checkpoint ({len(body)} body bytes, "
                         f"header implies {expected})")
    if len(body) > expected:
        raise ValueError(f"{path}: {len(body) - expected} trailing bytes after the last array")
    return ModelParams(hyper, np.frombuffer(body, dtype="<f8").astype(np.float64)), header
