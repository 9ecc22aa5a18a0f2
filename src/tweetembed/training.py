"""Mini-batch Adam training with per-epoch train/validation loss logging."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .dataset import DatasetSplit
from .manifest import atomic_write
from .model import (
    EVAL_CHUNK_ROWS,
    MAX_NLL,
    N_CONTEXT,
    PARAM_FIELDS,
    ModelHyper,
    ModelParams,
    Workspace,
    _in_parts,
    backward_arrays,
    evaluate,
    init_params,
    param_count,
    save_checkpoint,
)
from .rng import derive_seed, permutation

# `adam_step` works on slices of this many values: 256 KB per float64
# vector, so the six vectors it touches fit a 2 MB L2 cache together.
ADAM_BLOCK = 2 ** 15
# Adam's moment decay rates and denominator guard, fixed: no flag sets them.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 0.001
    seed: int = 13
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0 < self.learning_rate < math.inf:  # also refuses NaN
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class AdamState:
    """First/second moment accumulators, in the parameters' layout, step
    count, the `pool` that runs the second part of each update (None:
    one part), and two pairs of ADAM_BLOCK-value slice buffers that
    `adam_step` works in, one pair per part."""

    m: ModelParams
    v: ModelParams
    t: int = 0
    pool: ThreadPoolExecutor | None = field(default=None, repr=False)
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, 2, ADAM_BLOCK)),
                                repr=False)

    @classmethod
    def for_params(cls, params: ModelParams,
                   pool: ThreadPoolExecutor | None = None) -> "AdamState":
        return cls(m=ModelParams(params.hyper), v=ModelParams(params.hyper), pool=pool)


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    validation_loss: float
    wall_seconds: float

    def line(self) -> str:
        """The run-log line `epoch<TAB>train_loss<TAB>val_loss<TAB>secs`."""
        return (f"{self.epoch}\t{self.train_loss:.6f}\t{self.validation_loss:.6f}"
                f"\t{self.wall_seconds:.3f}\n")


class TrainingDiverged(RuntimeError):
    """Training loss exploded or went non-finite, or a gradient held NaN or
    infinity (the message names the matrix); the last good checkpoint is kept."""


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - b1^t).

    Adam is elementwise, so it runs over the flat vectors in slices of
    ADAM_BLOCK values: each slice makes every pass of the formula, in its
    operation order, before the next slice starts, so the six vectors'
    slices (parameters, gradients, moments and the state's two slice
    buffers) stay in cache between passes. The result is bit-identical to
    evaluating the formula per matrix with temporaries. The non-finite
    check reads all of the gradients before any slice or the step count is
    updated, so a rejected step changes nothing. The bias correction stays
    on m and v (not folded into the step size), so eps keeps its meaning.
    With a pool in `state`, the vectors are updated in two parts at once,
    split at the ADAM_BLOCK boundary nearest their middle, each part in its
    own pair of slice buffers, when each part has model.PART_MIN_VALUES
    values (at d = 64, from |V| of about 900).
    """
    t = state.t + 1
    g = grads.flat
    if not np.all(np.isfinite(g)):
        name = next(name for name in PARAM_FIELDS
                    if not np.all(np.isfinite(getattr(grads, name))))
        raise TrainingDiverged(f"non-finite gradient in {name} at step {t}")
    state.t = t
    m_scale = 1.0 - ADAM_BETA1 ** t
    v_scale = 1.0 - ADAM_BETA2 ** t

    def update(lo: int, hi: int) -> None:
        step_buf, denom_buf = state.scratch[0 if lo == 0 else 1]
        for start in range(lo, hi, ADAM_BLOCK):
            part = slice(start, min(start + ADAM_BLOCK, hi))
            g_part, m, v = g[part], state.m.flat[part], state.v.flat[part]
            step, denom = step_buf[:g_part.size], denom_buf[:g_part.size]
            np.multiply(g_part, 1.0 - ADAM_BETA1, out=step)  # (1 - b1) g
            m *= ADAM_BETA1
            m += step
            np.multiply(g_part, g_part, out=step)            # (1 - b2) g^2
            step *= 1.0 - ADAM_BETA2
            v *= ADAM_BETA2
            v += step
            np.divide(m, m_scale, out=step)                  # lr * m_hat
            step *= cfg.learning_rate
            np.divide(v, v_scale, out=denom)                 # sqrt(v_hat) + eps
            np.sqrt(denom, out=denom)
            denom += ADAM_EPSILON
            step /= denom
            params.flat[part] -= step

    _in_parts(state.pool, g.size, update, 1, step=ADAM_BLOCK)


def _check_fits_in_memory(hyper: ModelHyper, rows: int) -> None:
    """MemoryError when training this model would need more than physical memory.

    Training holds four float64 arrays per parameter (the parameters, one
    batch's gradients and Adam's two moments) and one `Workspace` of
    `rows` rows, which holds every activation of a step and is shared by
    both parts of a pass; the check counts all of them. Adam's scratch adds
    only two pairs of ADAM_BLOCK-value slices, one pair per part.
    """
    needed = 4 * 8 * param_count(hyper) + Workspace.nbytes(hyper, rows)
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > physical:
        raise MemoryError(f"a |V|={hyper.vocab_size} model needs {needed} bytes for parameters, "
                          f"gradients, Adam moments and activations; "
                          f"physical memory is {physical} bytes")


@functools.cache
def _openblas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get and set functions of the loaded OpenBLAS's thread count,
    found through its C API in the libraries this process has mapped, or
    None (another BLAS, or no /proc/self/maps)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(handle, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextlib.contextmanager
def _second_core() -> Iterator[ThreadPoolExecutor | None]:
    """Set OpenBLAS to one thread and yield a one-thread pool for the
    second part of each pass; on leaving the block, however it is left,
    join the pool, then give OpenBLAS its thread count back. Without an
    OpenBLAS whose count can be set, yield None and leave the BLAS alone:
    a pool exists only while OpenBLAS is pinned."""
    api = _openblas_threads()
    if api is None:
        yield None
        return
    get, put = api
    previous = get()
    put(1)
    try:
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="tweetembed-worker") as pool:
            yield pool
    finally:
        put(previous)


def train(split: DatasetSplit, hyper: ModelHyper, cfg: TrainConfig,
          checkpoint_path: Path | str, log_path: Path | str, vocab_hash: str,
          on_epoch: Callable[[EpochLog], None] | None = None,
          ) -> tuple[ModelParams, list[EpochLog]]:
    """Full training loop; the one writer of a run's per-epoch files.

    Per epoch: reshuffle the train examples with a seed derived from
    (cfg.seed, epoch), apply Adam over mini-batches, then evaluate mean
    cross entropy on the full train and validation sets and emit an
    EpochLog. After every good epoch it writes the checkpoint (with
    `vocab_hash`), then the run log so far, then calls `on_epoch`; on
    divergence (train loss non-finite or above the smaller of 10 ln|V|, ten
    times the loss of a uniform prediction, which a fresh model is close
    to, and MAX_NLL / 2, which the mean passes whenever most rows are
    clamped at LOSS_FLOOR) training aborts and the last good checkpoint and
    log stay on disk.
    With cfg.deterministic, wall_seconds is recorded as 0.0 so logs are
    byte-reproducible. Every step and evaluation works in one `Workspace`,
    allocated here for the run, of max(batch size, model.EVAL_CHUNK_ROWS)
    rows so that `evaluate` runs the same chunks whatever the batch. The
    trade-off: a batch below 256 still gets 256 rows, which at
    |V| = 32768 are 64 MB of logits, as many as at the default batch.

    For the run, `_second_core` sets OpenBLAS to one thread and gives
    `train` a one-thread `ThreadPoolExecutor`, which runs the second part
    of each step, loss evaluation and Adam update (see `model` and
    `adam_step`); its thread starts when a pass first splits, and on every
    exit it is joined and OpenBLAS gets its thread count back. Without an
    OpenBLAS whose count can be set, every pass is one part and the BLAS
    keeps its threads. So a run uses two cores whatever the BLAS's own
    setting, and its bytes do not depend on that setting. The trade-off: a
    host with more than two cores loses OpenBLAS's wider products while
    training, and a pass too small to split (see model.PART_MIN_VALUES)
    runs on one core.

    The rows are held once, in the split: a batch is one gather of its
    rows (contexts, then target), and `evaluate` reads column views. A
    step's gradient is referenced only for its Adam update, so it is freed
    before the next step allocates one. A model larger than physical
    memory is a MemoryError before anything is allocated.
    """
    if len(split.train) == 0:
        raise ValueError("training split is empty")
    rows = max(cfg.batch_size, EVAL_CHUNK_ROWS)
    _check_fits_in_memory(hyper, rows)
    params = init_params(hyper, cfg.seed)
    train_ctx, train_tgt = split.train[:, :N_CONTEXT], split.train[:, N_CONTEXT]
    val_ctx, val_tgt = split.validation[:, :N_CONTEXT], split.validation[:, N_CONTEXT]

    limit = min(10.0 * math.log(hyper.vocab_size), MAX_NLL / 2)
    n = train_tgt.shape[0]
    logs: list[EpochLog] = []
    with _second_core() as pool:
        state = AdamState.for_params(params, pool)
        ws = Workspace(hyper, rows, pool)
        for epoch in range(1, cfg.epochs + 1):
            started = time.perf_counter()
            order = permutation(n, derive_seed(cfg.seed, epoch))
            for start in range(0, n, cfg.batch_size):
                batch = split.train[order[start : start + cfg.batch_size]]
                adam_step(params, backward_arrays(params, batch[:, :N_CONTEXT],
                                                  batch[:, N_CONTEXT], ws), state, cfg)
            train_loss = evaluate(params, train_ctx, train_tgt, ws)
            val_loss = evaluate(params, val_ctx, val_tgt, ws) if len(val_tgt) else math.nan
            wall = 0.0 if cfg.deterministic else time.perf_counter() - started
            if not math.isfinite(train_loss) or train_loss > limit:
                raise TrainingDiverged(
                    f"train loss {train_loss:.4f} at epoch {epoch} (limit min(10 ln|V|, "
                    f"MAX_NLL / 2) = {limit:.4f}); keeping last good checkpoint"
                )
            entry = EpochLog(epoch, train_loss, val_loss, wall)
            logs.append(entry)
            save_checkpoint(params, checkpoint_path, cfg.seed, vocab_hash)
            write_run_log(logs, log_path)
            if on_epoch is not None:
                on_epoch(entry)
    return params, logs


def write_run_log(logs: Sequence[EpochLog], path: Path | str) -> None:
    """One `EpochLog.line` per epoch, written atomically, so a crash
    mid-write keeps the previous epoch's log."""
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(entry.line() for entry in logs))
