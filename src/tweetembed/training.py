"""Mini-batch Adam training with per-epoch train/validation loss logging."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .dataset import DatasetSplit
from .manifest import atomic_write
from .model import (
    N_CONTEXT,
    PARAM_FIELDS,
    Gradients,
    ModelHyper,
    ModelParams,
    backward_arrays,
    evaluate,
    init_params,
    save_checkpoint,
    _param_shapes,
)
from .rng import derive_seed, permutation


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 256
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 13
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


@dataclass
class AdamState:
    """First/second moment accumulators (keyed by parameter name) and step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(
            m={name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS},
            v={name: np.zeros_like(getattr(params, name)) for name in PARAM_FIELDS},
        )


@dataclass
class EpochLog:
    epoch: int
    train_loss: float
    validation_loss: float
    wall_seconds: float


class NonFiniteGradientError(RuntimeError):
    """A gradient array contained NaN or infinity; names the matrix."""


class TrainingDiverged(RuntimeError):
    """Training loss exploded or went non-finite; the last good checkpoint is kept."""


def adam_step(params: ModelParams, grads: Gradients, state: AdamState,
              cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    m <- b1 m + (1 - b1) g;  v <- b2 v + (1 - b2) g^2
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - b1^t).

    Each matrix's update runs in two scratch arrays, in the operation order
    of the formula above, so the result is bit-identical to evaluating it
    with temporaries. The bias correction stays on m and v (not folded into
    the step size), so eps keeps its meaning.
    """
    state.t += 1
    t = state.t
    for name in PARAM_FIELDS:
        g = getattr(grads, name)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"non-finite gradient in {name} at step {t}")
        m = state.m[name]
        v = state.v[name]
        step = np.multiply(g, 1.0 - cfg.beta1)        # (1 - b1) g
        m *= cfg.beta1
        m += step
        np.multiply(g, g, out=step)                    # (1 - b2) g^2
        step *= 1.0 - cfg.beta2
        v *= cfg.beta2
        v += step
        np.divide(m, 1.0 - cfg.beta1 ** t, out=step)   # lr * m_hat
        step *= cfg.learning_rate
        denom = np.divide(v, 1.0 - cfg.beta2 ** t)     # sqrt(v_hat) + eps
        np.sqrt(denom, out=denom)
        denom += cfg.epsilon
        step /= denom
        getattr(params, name)[...] -= step


def _check_fits_in_memory(hyper: ModelHyper) -> None:
    """MemoryError when training this model would need more than physical memory.

    Training holds four float64 arrays per parameter: the parameters, their
    gradients and Adam's two moments.
    """
    needed = 4 * 8 * sum(math.prod(shape) for shape in _param_shapes(hyper).values())
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if needed > physical:
        raise MemoryError(f"a |V|={hyper.vocab_size} model needs {needed} bytes for parameters, "
                          f"gradients and Adam moments; physical memory is {physical} bytes")


def train(split: DatasetSplit, hyper: ModelHyper, cfg: TrainConfig,
          checkpoint_path: Path | str | None = None, vocab_hash: str = "",
          on_epoch: Callable[[EpochLog], None] | None = None,
          ) -> tuple[ModelParams, list[EpochLog]]:
    """Full training loop.

    Per epoch: reshuffle the train examples with a seed derived from
    (cfg.seed, epoch), apply Adam over mini-batches, then evaluate mean
    cross entropy on the full train and validation sets and emit an
    EpochLog. A checkpoint is written after every successful epoch; on
    divergence (train loss non-finite or above 10 ln|V|, ten times the
    loss of a uniform prediction, which a fresh model is close to)
    training aborts and the last good checkpoint stays on disk. With
    cfg.deterministic, wall_seconds is recorded as 0.0 so logs are
    byte-reproducible. A model larger than physical memory is a
    MemoryError before anything is allocated.
    """
    if len(split.train) == 0:
        raise ValueError("training split is empty")
    _check_fits_in_memory(hyper)
    params = init_params(hyper, cfg.seed)
    state = AdamState.for_params(params)
    # Sliced once into contiguous arrays: every batch and evaluation reads them.
    train_ctx = np.ascontiguousarray(split.train[:, :N_CONTEXT])
    train_tgt = np.ascontiguousarray(split.train[:, N_CONTEXT])
    val_ctx = np.ascontiguousarray(split.validation[:, :N_CONTEXT])
    val_tgt = np.ascontiguousarray(split.validation[:, N_CONTEXT])

    limit = 10.0 * math.log(hyper.vocab_size)
    n = train_tgt.shape[0]
    logs: list[EpochLog] = []
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = np.asarray(permutation(n, derive_seed(cfg.seed, epoch)), dtype=np.int64)
        for start in range(0, n, cfg.batch_size):
            sel = order[start : start + cfg.batch_size]
            grads, _ = backward_arrays(params, train_ctx[sel], train_tgt[sel])
            adam_step(params, grads, state, cfg)
        train_loss = evaluate(params, train_ctx, train_tgt)
        val_loss = evaluate(params, val_ctx, val_tgt) if len(val_tgt) else math.nan
        wall = 0.0 if cfg.deterministic else time.perf_counter() - started
        if not math.isfinite(train_loss) or train_loss > limit:
            raise TrainingDiverged(
                f"train loss {train_loss:.4f} at epoch {epoch} "
                f"(limit 10 ln|V| = {limit:.4f}); keeping last good checkpoint"
            )
        entry = EpochLog(epoch, train_loss, val_loss, wall)
        logs.append(entry)
        if checkpoint_path is not None:
            save_checkpoint(params, checkpoint_path, cfg.seed, vocab_hash)
        if on_epoch is not None:
            on_epoch(entry)
    return params, logs


def write_run_log(logs: Sequence[EpochLog], path: Path | str) -> None:
    """Line-delimited records `epoch<TAB>train_loss<TAB>val_loss<TAB>secs`.

    Written atomically, so a crash mid-write keeps the previous epoch's log.
    """
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        for entry in logs:
            fh.write(
                f"{entry.epoch}\t{entry.train_loss:.6f}"
                f"\t{entry.validation_loss:.6f}\t{entry.wall_seconds:.3f}\n"
            )


def read_run_log(path: Path | str) -> list[EpochLog]:
    path = Path(path)
    logs: list[EpochLog] = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            epoch, train_loss, val_loss, secs = line.rstrip("\n").split("\t")
            logs.append(EpochLog(int(epoch), float(train_loss), float(val_loss), float(secs)))
    return logs
