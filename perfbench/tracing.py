"""Out-of-program tracing: spans around every call into the package's
public functions, and the per-layer metrics derived from them.

The package modules import each other's functions with `from .x import y`,
so a function is looked up in the namespace of its caller. `Tracer.install`
therefore replaces a public function in every package module that binds it
(its own module included, for calls such as `train` -> `adam_step`), and
`uninstall` puts the originals back. Helpers called once per token or per
tweet are left alone: a span per token would cost more than the work it
times.

Spans are kept in memory as (name, start, end, parent, counters) and
written out when the run ends. A span's self time is its duration minus
the durations of its children; calls run on one thread, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

LAYERS = ("corpus", "dataset", "rng", "model", "training", "embeddings",
          "evaluation", "manifest", "cli")

# Left untraced: per-token and per-tweet helpers and the activations inside
# every forward pass. The cli module's own functions are not wrapped either:
# the benchmark's span around each command is the cli layer's span.
UNTRACED = frozenset({
    "corpus.normalize_token", "corpus.tokenize_tweet", "corpus.extract_5grams",
    "model.sigmoid", "model.softmax",
})


def _size(path: Any) -> int:
    return os.stat(path).st_size


# Counters taken from a call's arguments and result, by span name. The
# package passes these arguments positionally.
COUNTERS: dict[str, Callable[[tuple, dict, Any], dict[str, float]]] = {
    "corpus.count_ngrams": lambda a, k, r: {"distinct": len(r.records),
                                            "tokens": r.total_tokens},
    "corpus.write_ngram_db": lambda a, k, r: {"bytes": _size(a[1])},
    "dataset.filter_ngrams": lambda a, k, r: {"kept": len(r), "distinct": len(a[0].records)},
    "dataset.write_dataset": lambda a, k, r: {"bytes": _size(a[2])},
    "rng.permutation": lambda a, k, r: {"items": a[0]},
    "model.evaluate": lambda a, k, r: {"rows": a[2].shape[0]},
    "model.save_checkpoint": lambda a, k, r: {"bytes": _size(a[1])},
    "training.train": lambda a, k, r: {"train_rows": len(a[0].train)},
    "embeddings.write_embeddings_text": lambda a, k, r: {"bytes": _size(a[1])},
    "evaluation.run_standard_suite": lambda a, k, r: {
        "coverage": next(x.coverage for x in r if x.name == "class_membership")},
    "manifest.file_sha256": lambda a, k, r: {"bytes": _size(a[0])},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `install` patches the package to emit them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _wrap(self, fn: Callable, name: str) -> Callable:
        counters = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self.end(index)
            if counters is not None:
                span.counters = counters(args, kwargs, result)
            return result

        return traced

    def install(self, only: frozenset[str] | None = None) -> None:
        """Patch every binding of each public package function (or of the
        span names in `only`) across all package modules."""
        modules = [importlib.import_module(f"tweetembed.{layer}") for layer in LAYERS]
        wrappers: dict[int, Callable] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value) or attr.startswith("_"):
                    continue
                origin = value.__module__
                if not origin.startswith("tweetembed.") or origin == "tweetembed.cli":
                    continue
                name = f"{origin.removeprefix('tweetembed.')}.{value.__name__}"
                if name in UNTRACED or (only is not None and name not in only):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, name)
                self._undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()


def self_times(spans: list[Span]) -> list[float]:
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def _total(spans: list[Span], *names: str) -> float:
    return sum(s.seconds for s in spans if s.name in names)


def _count(spans: list[Span], name: str, key: str | None = None) -> float:
    picked = [s for s in spans if s.name == name]
    return float(len(picked)) if key is None else float(sum(s.counters[key] for s in picked))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


EXPORT_CALLS = ("embeddings.export_embeddings", "embeddings.write_embeddings_text",
                "embeddings.write_embeddings_binary")
EVAL_CALLS = ("evaluation.load_gold_classes", "evaluation.load_equivalence_pairs",
              "evaluation.run_standard_suite", "evaluation.emit_report")


def stage_times(spans: list[Span]) -> dict[str, float]:
    """Wall time of each stage. The staged workloads run one command per
    stage; `grid` runs them all inside one command, so there each stage
    sums the command's direct calls, and ingest runs from its start to its
    first select_vocabulary call."""
    top = {s.name.removeprefix("cli."): (i, s) for i, s in enumerate(spans) if s.parent == -1}
    if "grid" not in top:
        return {f"{stage}_s": s.seconds for stage, (_, s) in top.items()}
    index, grid = top["grid"]
    calls = [s for s in spans if s.parent == index]
    return {
        "ingest_s": next(s.start for s in calls if s.name == "dataset.select_vocabulary")
                    - grid.start,
        "dataset_s": sum(s.seconds for s in calls if s.name.startswith("dataset.")),
        "train_s": sum(s.seconds for s in calls if s.name == "training.train"),
        "export_s": sum(s.seconds for s in calls if s.name in EXPORT_CALLS),
        "eval_s": sum(s.seconds for s in calls if s.name in EVAL_CALLS),
    }


def layer_metrics(spans: list[Span], pipeline_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run (see BENCHMARK.json).

    `<layer>.self_s` sums the self time of the layer's spans; the `cli`
    layer's spans are the stage commands themselves. Read and write of an
    artifact are summed as `*_io.s` because `grid` keeps its intermediates
    in memory and never reads them back.
    """
    own = self_times(spans)
    out = stage_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                     if s.name.split(".", 1)[0] == layer)
    # Share of the pipeline spent inside traced package calls; a binding the
    # tracer misses moves its time into cli.self_s and lowers this.
    out["trace.accounted_ratio"] = _ratio(pipeline_s - out["cli.self_s"], pipeline_s)

    for name in ("corpus.count_ngrams", "corpus.build_dictionary", "corpus.write_ngram_db",
                 "dataset.filter_ngrams", "dataset.split_dataset", "dataset.write_dataset",
                 "rng.permutation", "model.backward_arrays", "model.save_checkpoint",
                 "training.adam_step", "embeddings.export_embeddings",
                 "embeddings.write_embeddings_text", "embeddings.write_embeddings_binary",
                 "evaluation.run_standard_suite", "manifest.file_sha256"):
        out[f"{name}.s"] = _total(spans, name)
    out["corpus.ngram_db_io.s"] = _total(spans, "corpus.write_ngram_db", "corpus.read_ngram_db")
    out["dataset.dataset_io.s"] = _total(spans, "dataset.write_dataset", "dataset.read_dataset")
    out["model.checkpoint_io.s"] = _total(spans, "model.save_checkpoint", "model.load_checkpoint")
    out["embeddings.text_io.s"] = _total(spans, "embeddings.write_embeddings_text",
                                         "embeddings.read_embeddings_text")
    out["evaluation.load_gold.s"] = _total(spans, "evaluation.load_gold_classes",
                                           "evaluation.load_equivalence_pairs")

    counted = _count(spans, "corpus.count_ngrams", "distinct")
    out["corpus.distinct_gram_ratio"] = _ratio(counted, _count(spans, "corpus.count_ngrams", "tokens"))
    out["corpus.write_ngram_db.bytes"] = _count(spans, "corpus.write_ngram_db", "bytes")
    out["dataset.filter_ngrams.kept_ratio"] = _ratio(
        _count(spans, "dataset.filter_ngrams", "kept"),
        _count(spans, "dataset.filter_ngrams", "distinct"))
    out["dataset.write_dataset.bytes"] = _count(spans, "dataset.write_dataset", "bytes")
    out["rng.permutation.calls"] = _count(spans, "rng.permutation")
    out["rng.permutation.items"] = _count(spans, "rng.permutation", "items")
    out["model.backward_arrays.calls"] = _count(spans, "model.backward_arrays")
    out["model.save_checkpoint.bytes"] = _count(spans, "model.save_checkpoint", "bytes")
    out["training.adam_step.calls"] = _count(spans, "training.adam_step")
    out["embeddings.text.bytes"] = _count(spans, "embeddings.write_embeddings_text", "bytes")
    out["manifest.file_sha256.bytes"] = _count(spans, "manifest.file_sha256", "bytes")
    coverages = [s.counters["coverage"] for s in spans if s.name == "evaluation.run_standard_suite"]
    out["evaluation.coverage"] = statistics.fmean(coverages) if coverages else 0.0

    # evaluate() is told apart by its row count: the train split is always
    # larger than the validation split (fraction >= 0.25 of the 90% left).
    eval_train = eval_val = epochs = train_self = 0.0
    for i, s in enumerate(spans):
        if s.name != "training.train":
            continue
        train_self += own[i]
        children = [c for c in spans if c.parent == i]
        for c in children:
            if c.name == "model.evaluate":
                if c.counters["rows"] == s.counters["train_rows"]:
                    eval_train += c.seconds
                else:
                    eval_val += c.seconds
        first_epoch = next(c.start for c in children if c.name == "rng.permutation")
        epochs += s.end - first_epoch
    out["model.evaluate.train.s"] = eval_train
    out["model.evaluate.val.s"] = eval_val
    out["training.epoch.s"] = epochs
    out["training.train.self_s"] = train_self
    return out
