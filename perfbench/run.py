"""Benchmark of the tweetembed pipeline on seeded synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one fresh process. It generates the workload's corpus and
gold files from the seed (timed as `setup_s`), then runs the real stage
commands in process through `tweetembed.cli.main`, again and again until
`--seconds` have passed (at least twice), and checks every file they
write. Metrics are medians over those pipeline runs.

With `--trace 0` the pipeline runs untraced and the end-to-end metrics
are printed. With `--trace 1`, untraced and traced pipeline runs
alternate; the traced ones give the per-layer metrics (see tracing.py), and
`trace.overhead_ratio` is the traced over the untraced `pipeline_s`.
BENCHMARK.json allows no more keys on a metric, so moves.json names, for
each per-layer metric, the end-to-end metric and workload it should move.

The last line of stdout is the JSON result. A run whose stages fail or
whose outputs fail a check prints `"correct": false` and exits 1. Spans,
per-run metrics and the run environment go to `.perfbench_out/` in the
checkout; the pipeline's files go to `.perfbench_work/` and are removed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks
import tracing
from gen import CorpusSpec, write_corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Before each pipeline run the inputs are set up this many times in a row,
# and the mean of those is one `setup_s` sample; the metric is the median
# of the samples. Set-ups take a tenth of a second and single ones swing by
# 30% with the host's speed, so each sample spans a batch of them, and the
# samples spread over the whole run rather than a burst at its start.
SETUP_BATCH = 3
MIN_ITERATIONS = 2
# Raised above the CLI default so that the few epochs a benchmark can
# afford learn the class structure: the quality guards must read above zero.
LEARNING_RATE = 0.01


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    vocab_sizes: tuple[int, ...]
    fractions: tuple[float, ...]
    epochs: int
    threads: int = 1
    grid: bool = False


# Why each workload exists is recorded in BENCHMARK.json. The grid's four-word classes put every class word
# in every class tweet, which keeps membership at 0.80 well inside (0, 1)
# and steady from seed to seed.
WORKLOADS = {
    "train_bound": Workload(
        CorpusSpec(n_tweets=10000, n_types=100000, alpha=0.8, class_share=0.175,
                   words_per_class=8),
        vocab_sizes=(2048,), fractions=(1.0,), epochs=2),
    "corpus_bound": Workload(
        CorpusSpec(n_tweets=35000, n_types=30000, alpha=1.0, class_share=0.2,
                   words_per_class=8),
        vocab_sizes=(512,), fractions=(0.25,), epochs=1, threads=2),
    "grid_matrix": Workload(
        CorpusSpec(n_tweets=12000, n_types=100000, alpha=0.8, class_share=0.175,
                   words_per_class=4),
        vocab_sizes=(128, 256), fractions=(0.25, 1.0), epochs=6, grid=True),
}

# Pocket-sized variants for the smoke test.
TINY = {
    "train_bound": replace(WORKLOADS["train_bound"],
                           corpus=replace(WORKLOADS["train_bound"].corpus, n_tweets=400, n_types=300),
                           vocab_sizes=(128,)),
    "corpus_bound": replace(WORKLOADS["corpus_bound"],
                            corpus=replace(WORKLOADS["corpus_bound"].corpus, n_tweets=600, n_types=300),
                            vocab_sizes=(96,), fractions=(1.0,)),
    "grid_matrix": replace(WORKLOADS["grid_matrix"],
                           corpus=replace(WORKLOADS["grid_matrix"].corpus, n_tweets=300, n_types=200),
                           vocab_sizes=(64, 96), epochs=2),
}

STAGE_FILES = {"dataset": "dataset.tsv", "train": "model.ckpt", "export": "embeddings.txt"}


def cell_dirs(workload: Workload, it_dir: Path) -> list[tuple[Path, int]]:
    """Directories holding each |V| x fraction cell's files, with |V|."""
    if not workload.grid:
        return [(it_dir, workload.vocab_sizes[0])]
    return [(it_dir / "grid" / f"v{v}_f{int(f * 100):03d}", v)
            for v in workload.vocab_sizes for f in workload.fractions]


def commands(workload: Workload, inputs: dict[str, Path], it_dir: Path) -> list[tuple[str, list[str]]]:
    train_flags = ["--epochs", str(workload.epochs),
                   "--learning-rate", str(LEARNING_RATE)]
    gold = ["--classes", str(inputs["classes"]), "--pairs", str(inputs["pairs"])]
    if workload.grid:
        return [("grid", [
            "grid", str(inputs["corpus"]), "--out-dir", str(it_dir / "grid"),
            "--vocab-sizes", ",".join(map(str, workload.vocab_sizes)),
            "--fractions", ",".join(map(str, workload.fractions)),
            "--threads", str(workload.threads), "--deterministic", *train_flags, *gold])]
    d = it_dir
    return [
        ("ingest", ["ingest", str(inputs["corpus"]), "--out-db", str(d / "ngrams.tsv"),
                    "--out-dict", str(d / "dictionary.tsv"), "--threads", str(workload.threads)]),
        ("dataset", ["dataset", str(d / "ngrams.tsv"), "--vocab-size", str(workload.vocab_sizes[0]),
                     "--fraction", str(workload.fractions[0]), "--out", str(d / "dataset.tsv")]),
        ("train", ["train", str(d / "dataset.tsv"), "--out-checkpoint", str(d / "model.ckpt"),
                   "--out-log", str(d / "run_log.tsv"), *train_flags]),
        ("export", ["export", str(d / "model.ckpt"), "--vocab", str(d / "dataset.tsv.vocab.tsv"),
                    "--out", str(d / "embeddings.txt")]),
        ("eval", ["eval", str(d / "embeddings.txt"), *gold, "--out", str(d / "report.json")]),
    ]


def call_cli(argv: list[str]) -> int:
    from tweetembed import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error fails the stage, not the benchmark
        traceback.print_exc()
        return 1


def run_pipeline(workload: Workload, inputs: dict[str, Path], it_dir: Path,
                 full_trace: bool) -> tuple[dict[str, int], list[tracing.Span]]:
    """Run the stage commands in order until one fails; exit codes and spans."""
    tracer = tracing.Tracer()
    if full_trace:
        tracer.install()
    elif workload.grid:
        tracer.install(only=frozenset({"training.train"}))  # train_s inside the one command
    rcs: dict[str, int] = {}
    try:
        for stage, argv in commands(workload, inputs, it_dir):
            index = tracer.begin(f"cli.{stage}")
            rcs[stage] = call_cli(argv)
            tracer.end(index)
            if rcs[stage] != 0:
                break
    finally:
        tracer.uninstall()
    return rcs, tracer.spans


def failed_stages(rcs: dict[str, int], errors: dict[str, list[str]]) -> set[str]:
    """Stages that exited non-zero or whose outputs failed a check."""
    return {stage for stage, rc in rcs.items() if rc != 0 or errors.get(stage)}


def _checked(check, *args) -> list[str]:
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def check_outputs(workload: Workload, it_dir: Path) -> dict[str, list[str]]:
    """Errors per stage; under `grid` all of them belong to the one command."""
    def owner(stage: str) -> str:
        return "grid" if workload.grid else stage

    errors: dict[str, list[str]] = {}
    db = it_dir / ("grid" if workload.grid else "") / "ngrams.tsv"
    errors.setdefault(owner("ingest"), []).extend(_checked(checks.check_ngram_db, db))
    for cell, vocab_size in cell_dirs(workload, it_dir):
        emb = cell / "embeddings.txt"
        for stage, found in (
            ("dataset", _checked(checks.check_dataset, cell / "dataset.tsv", vocab_size)),
            ("train", _checked(checks.check_run_log, cell / "run_log.tsv",
                               workload.epochs, vocab_size)),
            ("export", _checked(checks.check_embeddings, emb, emb.with_suffix(".txt.bin"),
                                cell / "model.ckpt", vocab_size)),
            ("eval", _checked(checks.check_report, cell / "report.json")),
        ):
            errors.setdefault(owner(stage), []).extend(found)
    return errors


def digests(workload: Workload, it_dir: Path) -> dict[str, str]:
    """sha256 of each cell's dataset, checkpoint and text embeddings."""
    out = {}
    for cell, _ in cell_dirs(workload, it_dir):
        for stage, name in STAGE_FILES.items():
            path = cell / name
            if path.is_file():
                key = "grid" if workload.grid else stage
                out[f"{key}:{path.relative_to(it_dir)}"] = checks.sha256(path)
    return out


def pipeline_seconds(spans: list[tracing.Span]) -> float:
    stages = [s for s in spans if s.parent == -1]
    return stages[-1].end - stages[0].start


def end_to_end(workload: Workload, spans: list[tracing.Span], it_dir: Path) -> dict[str, float]:
    train_s = (sum(s.seconds for s in spans if s.name == "cli.train")
               or sum(s.seconds for s in spans if s.name == "training.train"))
    tuples = val_loss = membership = topo = 0.0
    cells = cell_dirs(workload, it_dir)
    for cell, _ in cells:
        tuples += int(checks.read_dataset_header(cell / "dataset.tsv")["train"]) * workload.epochs
        val_loss += checks.read_run_log(cell / "run_log.tsv")[-1, 2]
        m, t = checks.report_scores(cell / "report.json")
        membership += m
        topo += t
    return {
        "pipeline_s": pipeline_seconds(spans),
        "train_s": train_s,
        "train_tuples_per_s": tuples / train_s,
        "val_loss": val_loss / len(cells),
        "membership_080": membership / len(cells),
        "topo_score": topo / len(cells),
    }


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
    }


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_once(workload: Workload, inputs: dict[str, Path], it_dir: Path, full_trace: bool,
             reference: dict[str, str]) -> tuple[int, int, dict[str, float] | None, list]:
    """One checked pipeline run: (stages attempted, stages failed, metrics
    or None if a stage failed, spans). `reference` holds the artifact
    digests of the first run; every later run must reproduce them."""
    gc.collect()  # every pipeline run starts from a swept heap
    rcs, spans = run_pipeline(workload, inputs, it_dir, full_trace)
    errors = check_outputs(workload, it_dir)
    for key, digest in digests(workload, it_dir).items():
        if reference.setdefault(key, digest) != digest:
            stage, path = key.split(":", 1)
            errors.setdefault(stage, []).append(f"{path}: bytes differ from the first run")
    bad = failed_stages(rcs, errors)
    for stage in sorted(bad):
        print(f"# FAILED {stage} (exit {rcs[stage]}): " + "; ".join(errors.get(stage, [])),
              file=sys.stderr)
    if bad:
        return len(rcs), len(bad), None, spans
    pipeline_s = pipeline_seconds(spans)
    if full_trace:
        row = {**tracing.layer_metrics(spans, pipeline_s), "pipeline_s": pipeline_s}
    else:
        row = end_to_end(workload, spans, it_dir)
    return len(rcs), 0, row, spans


def run(workload_name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> int:
    workload = (TINY if tiny else WORKLOADS)[workload_name]
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    tag = f"{workload_name}-seed{seed}-trace{int(traced)}{'-tiny' if tiny else ''}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    attempted = failed = 0
    rows: dict[bool, list[dict[str, float]]] = {False: [], True: []}  # by full_trace
    span_log: list[dict] = []
    reference: dict[str, str] = {}
    setup_times = []
    try:
        write_corpus(workload.corpus, seed, work / "inputs")  # warm-up, untimed
        started = time.perf_counter()
        iteration = 0
        while iteration < MIN_ITERATIONS or time.perf_counter() - started < seconds:
            # The same seed rewrites the same bytes, which the digest check
            # across pipeline runs confirms.
            gc.collect()
            began = time.perf_counter()
            for _ in range(SETUP_BATCH):
                inputs = write_corpus(workload.corpus, seed, work / "inputs")
            setup_times.append((time.perf_counter() - began) / SETUP_BATCH)
            full_trace = traced and iteration % 2 == 1
            it_dir = work / f"it{iteration}"
            it_dir.mkdir(parents=True)
            tried, lost, row, spans = run_once(workload, inputs, it_dir, full_trace, reference)
            shutil.rmtree(it_dir)
            if iteration == 0:
                # Later runs fork the counting workers from a heap the
                # earlier runs left fragmented, so only the first counts.
                peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            attempted += tried
            failed += lost
            if row is not None:
                rows[full_trace].append(row)
                print(f"# iteration {iteration} {'traced' if full_trace else 'untraced'} "
                      f"pipeline_s={row['pipeline_s']:.4f}")
            span_log.append({"iteration": iteration, "traced": full_trace,
                             "spans": [vars(span) for span in spans]})
            iteration += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, dict] = {}
    if failed == 0:
        if traced:
            values = median_metrics(rows[True])
            values["trace.overhead_ratio"] = (values["pipeline_s"]
                                              / median_metrics(rows[False])["pipeline_s"])
        else:
            values = median_metrics(rows[False])
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = peak_kib / 1024.0
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                   for m in spec["per_layer" if traced else "end_to_end"]}

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(traced), "tiny": tiny, "env": env, "attempted": attempted,
              "failed": failed, "metrics": metrics, "setup_s": setup_times,
              "untraced": rows[False], "traced": rows[True], "spans": span_log}
    (out_dir / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")
    if attempted:
        print(f"# failed_ratio {failed / attempted}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and attempted else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "tweetembed" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {SRC / 'tweetembed'} or BENCHMARK.json not found; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tweetembed.cli  # noqa: F401  (imported before any timing starts)

    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
