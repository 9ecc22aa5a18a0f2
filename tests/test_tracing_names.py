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


def _assignments():
    """Each top-level assignment of tracing.py by target name, and its other statements."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    assigned, others = {}, []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            assigned[target.id] = node.value
        else:
            others.append(node)
    return assigned, others


def measured_span_names():
    assigned, others = _assignments()
    names = _strings(ast.Tuple(elts=assigned["COUNTERS"].keys))
    names += _strings(assigned["EXPORT_CALLS"]) + _strings(assigned["EVAL_CALLS"])
    for node in others:
        if isinstance(node, ast.FunctionDef) and node.name in ("stage_times", "layer_metrics"):
            keys = [sub.slice for sub in ast.walk(node) if isinstance(sub, ast.Subscript)]
            names += _strings(node, skip=keys)
    return sorted({name for name in names if SPAN_NAME.fullmatch(name)})


def counter_argument_reads():
    """(span name, i) for each `a[i]` that a `COUNTERS` lambda reads of
    the call's positional arguments, its first parameter."""
    counters = _assignments()[0]["COUNTERS"]
    reads = set()
    for key, counter in zip(counters.keys, counters.values):
        args = counter.args.args[0].arg
        reads |= {(key.value, sub.slice.value) for sub in ast.walk(counter.body)
                  if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                  and sub.value.id == args and isinstance(sub.slice, ast.Constant)}
    return sorted(reads)


def package_function(name):
    """The function a span name ("layer.function") names, or None."""
    layer, function = name.split(".")
    value = getattr(importlib.import_module(f"tweetembed.{layer}"), function, None)
    if inspect.isfunction(value) and value.__module__ == f"tweetembed.{layer}":
        return value
    return None


def test_every_measured_span_name_is_a_package_function():
    names = measured_span_names()
    # The parse found the tables and the comparisons it is meant to read.
    assert {"corpus.count_ngrams", "corpus.read_ngram_db", "dataset.select_vocabulary",
            "embeddings.export_embeddings", "evaluation.emit_report",
            "manifest.file_sha256"} <= set(names)
    missing = [name for name in names if package_function(name) is None]
    assert missing == [], f"{TRACING.name} measures spans no package function emits"


def test_every_counter_reads_a_positional_parameter():
    reads = counter_argument_reads()
    # The parse found the reads it is meant to check.
    assert {("model.evaluate", 2), ("training.train", 0),
            ("manifest.file_sha256", 0)} <= set(reads)
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    short = []
    for name, index in reads:
        parameters = inspect.signature(package_function(name)).parameters.values()
        if sum(p.kind in positional for p in parameters) <= index:
            short.append(f"{name} a[{index}]")
    assert short == [], f"{TRACING.name} counters read arguments these functions do not take"
