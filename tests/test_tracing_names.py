"""The benchmark's tracer measures package functions by name
("layer.function"), so a renamed or deleted function would read as zero
seconds instead of failing. This test reads `perfbench/tracing.py` and
checks that every span name it measures is a function defined in that
package module: the `COUNTERS` keys, `EXPORT_CALLS`, `EVAL_CALLS` and the
names `stage_times` and `layer_metrics` compare span names against.
Metric keys (`out["..."]`) are not span names, and `UNTRACED` lists names
the tracer skips, so neither is checked."""

import ast
import importlib
import inspect
import re
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
SPAN_NAME = re.compile(r"[a-z]+\.\w+")


def _strings(node, skip=()):
    """String constants under `node`, leaving out those under a node in `skip`."""
    skipped = {id(inner) for outer in skip for inner in ast.walk(outer)}
    return [inner.value for inner in ast.walk(node) if id(inner) not in skipped
            and isinstance(inner, ast.Constant) and isinstance(inner.value, str)]


def measured_span_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            if target.id == "COUNTERS":
                names += _strings(ast.Tuple(elts=node.value.keys))
            elif target.id in ("EXPORT_CALLS", "EVAL_CALLS"):
                names += _strings(node.value)
        elif isinstance(node, ast.FunctionDef) and node.name in ("stage_times", "layer_metrics"):
            keys = [sub.slice for sub in ast.walk(node) if isinstance(sub, ast.Subscript)]
            names += _strings(node, skip=keys)
    return sorted({name for name in names if SPAN_NAME.fullmatch(name)})


def test_every_measured_span_name_is_a_package_function():
    names = measured_span_names()
    # The parse found the tables and the comparisons it is meant to read.
    assert {"corpus.count_ngrams", "corpus.read_ngram_db", "dataset.select_vocabulary",
            "embeddings.export_embeddings", "evaluation.emit_report",
            "manifest.file_sha256"} <= set(names)
    missing = []
    for name in names:
        layer, function = name.split(".")
        value = getattr(importlib.import_module(f"tweetembed.{layer}"), function, None)
        if not (inspect.isfunction(value) and value.__module__ == f"tweetembed.{layer}"):
            missing.append(name)
    assert missing == [], f"{TRACING.name} measures spans no package function emits"
