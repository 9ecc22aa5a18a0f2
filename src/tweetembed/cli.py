"""Subcommand front door: ingest -> dataset -> train -> export -> eval (+ grid).

Stages communicate through files so expensive steps can be reused across
experiment cells. Every run writes a manifest next to its main output.
Exit codes: 0 success, 2 input error (including any OSError: a missing,
unreadable or unwritable path, or a directory where a file belongs),
3 training divergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .corpus import (Dictionary, NGramDatabase, build_dictionary, count_ngrams, read_ngram_db,
                     write_dictionary, write_ngram_db)
from .dataset import (
    DatasetSplit,
    Vocabulary,
    filter_ngrams,
    read_dataset,
    read_vocabulary,
    select_vocabulary,
    split_dataset,
    vocabulary_hash,
    write_dataset,
    write_vocabulary,
)
from .embeddings import (
    EmbeddingTable,
    export_embeddings,
    read_embeddings_text,
    write_embeddings_binary,
    write_embeddings_text,
)
from .evaluation import (
    DEFAULT_CLASSES_FILE,
    DEFAULT_PAIRS_FILE,
    EquivalencePair,
    GoldClass,
    TestReport,
    load_equivalence_pairs,
    load_gold_classes,
    emit_report,
    format_report_table,
    run_standard_suite,
)
from .manifest import atomic_write, build_manifest, file_sha256, write_manifest
from .model import ModelHyper, ModelParams, load_checkpoint
from .training import (
    EpochLog,
    NonFiniteGradientError,
    TrainConfig,
    TrainingDiverged,
    train,
    write_run_log,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3

PAPER_FRACTIONS = (0.25, 0.5, 0.75, 1.0)

# eval's threshold flags (dest name -> default), also the settings grid scores with
THRESHOLD_DEFAULTS = {
    "membership_thresholds": "0.70,0.80",
    "distinction_thresholds": "0.70,0.80",
    "equivalence_thresholds": "0.85,0.95",
}


class InputError(Exception):
    pass


def _read_corpus_lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


# Stage functions, shared by the stage commands and `grid`: each takes its
# in-memory inputs, the parsed flags and its output paths, writes the stage's
# files and returns its result with its manifest config.


def ingest_stage(lines: list[str], db_path: Path,
                 dict_path: Path) -> tuple[NGramDatabase, Dictionary]:
    """Count the corpus's 5-grams in one process; the stage has no settings."""
    db = count_ngrams(lines)
    dictionary = build_dictionary(db)
    write_ngram_db(db, db_path)
    write_dictionary(dictionary, dict_path)
    return db, dictionary


def qualifying_examples(db: NGramDatabase, dictionary: Dictionary, vocab_size: int,
                        args: argparse.Namespace) -> tuple[Vocabulary, np.ndarray]:
    """The |V|-dependent half of the dataset stage; `grid` runs it once per |V|."""
    vocab = select_vocabulary(dictionary, vocab_size)
    examples = filter_ngrams(db, vocab, include_boundary=args.include_boundary)
    if len(examples) == 0:
        raise InputError(f"no 5-grams qualify for vocabulary size {vocab_size}; "
                         "try a larger vocabulary or --include-boundary")
    return vocab, examples


def dataset_stage(examples: np.ndarray, vocab: Vocabulary, fraction: float,
                  args: argparse.Namespace, out_path: Path,
                  vocab_path: Path) -> tuple[DatasetSplit, dict]:
    split = split_dataset(examples, validation_ratio=args.validation_ratio,
                          fraction=fraction, seed=args.seed)
    write_dataset(split, vocab, out_path)
    write_vocabulary(vocab, vocab_path)
    return split, {
        "vocab_size": vocab.size,
        "fraction": fraction,
        "validation_ratio": args.validation_ratio,
        "seed": args.seed,
        "include_boundary": args.include_boundary,
    }


def train_stage(split: DatasetSplit, vocab_size: int, vocab_hash: str,
                args: argparse.Namespace, checkpoint_path: Path, log_path: Path,
                on_start: Callable[[dict], None] | None = None,
                on_epoch: Callable[[EpochLog], None] | None = None,
                ) -> tuple[ModelParams, list[EpochLog], dict]:
    """Train, rewriting the run log after every epoch.

    `on_start` receives the config before the first epoch, so a run that
    diverges still leaves its manifest behind.
    """
    hyper = ModelHyper(vocab_size=vocab_size, d_in=args.emb_dim, d_ctx=args.ctx_dim,
                       sigmoid_logits=args.sigmoid_logits)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                      learning_rate=args.learning_rate, seed=args.seed,
                      deterministic=args.deterministic)
    config = {
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate,
        "beta1": cfg.beta1,
        "beta2": cfg.beta2,
        "epsilon": cfg.epsilon,
        "seed": cfg.seed,
        "emb_dim": hyper.d_in,
        "ctx_dim": hyper.d_ctx,
        "sigmoid_logits": hyper.sigmoid_logits,
        "vocab_size": hyper.vocab_size,
    }
    if on_start is not None:
        on_start(config)
    logs: list[EpochLog] = []

    def record(entry: EpochLog) -> None:
        logs.append(entry)
        write_run_log(logs, log_path)
        if on_epoch is not None:
            on_epoch(entry)

    params, _ = train(split, hyper, cfg, checkpoint_path=checkpoint_path,
                      vocab_hash=vocab_hash, on_epoch=record)
    return params, logs, config


def export_stage(params: ModelParams, vocab: Vocabulary, checkpoint_path: Path,
                 args: argparse.Namespace, out_path: Path) -> tuple[EmbeddingTable, dict]:
    table = export_embeddings(params, vocab, manifest_hash=file_sha256(checkpoint_path),
                              source=args.source)
    write_embeddings_text(table, out_path)
    write_embeddings_binary(table, out_path.with_suffix(out_path.suffix + ".bin"))
    return table, {"source": args.source}


def eval_stage(table: EmbeddingTable, classes: list[GoldClass], pairs: list[EquivalencePair],
               args: argparse.Namespace) -> tuple[list[TestReport], dict]:
    """Score the standard suite. The report embeds the run's manifest, so
    the caller writes it with `emit_report` once the manifest is built."""
    config = {name: getattr(args, name) for name in THRESHOLD_DEFAULTS}
    reports = run_standard_suite(
        table, classes, pairs,
        **{name: _parse_thresholds(text) for name, text in config.items()},
    )
    return reports, config


def _parse_thresholds(text: str) -> list[float]:
    values = [float(x) for x in text.split(",") if x]
    for value in values:
        if not 0.0 < value < 1.0:
            raise InputError(f"threshold out of range (0, 1): {value}")
    return values


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus_path = Path(args.corpus)
    db_path = Path(args.out_db)
    dict_path = Path(args.out_dict)
    db, dictionary = ingest_stage(_read_corpus_lines(corpus_path), db_path, dict_path)
    if db.total_tweets == 0:
        print(f"warning: corpus {corpus_path} is empty", file=sys.stderr)
    manifest = build_manifest(
        "ingest",
        {"out_db": str(db_path), "out_dict": str(dict_path)},
        {"corpus": corpus_path},
        args.deterministic,
    )
    write_manifest(manifest, db_path.with_suffix(db_path.suffix + ".manifest.json"))
    print(f"tweets: {db.total_tweets}")
    print(f"tokens: {db.total_tokens}")
    print(f"distinct 5-grams: {len(db.records)}")
    print(f"dictionary entries: {len(dictionary)}")
    return EXIT_OK


def cmd_dataset(args: argparse.Namespace) -> int:
    db_path = Path(args.db)
    db = read_ngram_db(db_path)
    vocab, examples = qualifying_examples(db, build_dictionary(db), args.vocab_size, args)
    out_path = Path(args.out)
    split, config = dataset_stage(examples, vocab, args.fraction, args, out_path,
                                  out_path.with_suffix(out_path.suffix + ".vocab.tsv"))
    manifest = build_manifest("dataset", {**config, "out": str(out_path)}, {"db": db_path},
                              args.deterministic)
    write_manifest(manifest, out_path.with_suffix(out_path.suffix + ".manifest.json"))
    print(f"qualifying 5-grams: {len(examples)}")
    print(f"train tuples: {len(split.train)}")
    print(f"validation tuples: {len(split.validation)}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    dataset_path = Path(args.dataset)
    split, meta = read_dataset(dataset_path)
    checkpoint_path = Path(args.out_checkpoint)

    def write_config(config: dict) -> None:
        manifest = build_manifest("train", {**config, "out_checkpoint": str(checkpoint_path)},
                                  {"dataset": dataset_path}, args.deterministic)
        write_manifest(manifest,
                       checkpoint_path.with_suffix(checkpoint_path.suffix + ".manifest.json"))

    def live(entry: EpochLog) -> None:
        print(f"{entry.epoch}\t{entry.train_loss:.6f}"
              f"\t{entry.validation_loss:.6f}\t{entry.wall_seconds:.3f}")

    _, logs, _ = train_stage(split, meta["vocab_size"], meta["vocab_hash"], args,
                             checkpoint_path, Path(args.out_log),
                             on_start=write_config, on_epoch=live)
    total = sum(entry.wall_seconds for entry in logs)
    print(f"avg secs/epoch: {total / len(logs):.3f}")
    print(f"total secs: {total:.3f}")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    checkpoint_path = Path(args.checkpoint)
    vocab_path = Path(args.vocab)
    params, header = load_checkpoint(checkpoint_path)
    vocab = read_vocabulary(vocab_path)
    if header.get("vocab_hash") and header["vocab_hash"] != vocabulary_hash(vocab):
        raise InputError(
            f"vocabulary/checkpoint mismatch: {vocab_path} does not hash to "
            f"the vocabulary this checkpoint was trained on"
        )
    out_path = Path(args.out)
    table, config = export_stage(params, vocab, checkpoint_path, args, out_path)
    manifest = build_manifest(
        "export",
        {**config, "out": str(out_path)},
        {"checkpoint": checkpoint_path, "vocab": vocab_path},
        args.deterministic,
    )
    write_manifest(manifest, out_path.with_suffix(out_path.suffix + ".manifest.json"))
    print(f"exported {len(table.words)} x {table.dim} embeddings")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    emb_path = Path(args.embeddings)
    classes_path = Path(args.classes)
    pairs_path = Path(args.pairs)
    table = read_embeddings_text(emb_path)
    classes = load_gold_classes(classes_path)
    pairs = load_equivalence_pairs(pairs_path)
    reports, config = eval_stage(table, classes, pairs, args)
    manifest = build_manifest(
        "eval",
        {**config, "out": str(args.out)},
        {"embeddings": emb_path, "classes": classes_path, "pairs": pairs_path},
        args.deterministic,
    )
    out_json = Path(args.out)
    emit_report(reports, manifest, out_json, out_json.with_suffix(".txt"))
    write_manifest(manifest, out_json.with_suffix(out_json.suffix + ".manifest.json"))
    print(format_report_table(reports), end="")
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    """Ingest once, then run the other stages for every |V| x fraction cell;
    a cell's manifest config is the union of the stage configs."""
    corpus_path = Path(args.corpus)
    lines = _read_corpus_lines(corpus_path)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab_sizes = [int(x) for x in args.vocab_sizes.split(",") if x]
    fractions = [float(x) for x in args.fractions.split(",") if x]
    if not vocab_sizes or not fractions:
        raise InputError("grid needs at least one vocabulary size and one fraction")
    for fraction in fractions:
        if fraction not in PAPER_FRACTIONS:
            raise InputError(f"fraction must be one of {PAPER_FRACTIONS}, got {fraction}")
    classes = load_gold_classes(args.classes)
    pairs = load_equivalence_pairs(args.pairs)
    db, dictionary = ingest_stage(lines, out_dir / "ngrams.tsv", out_dir / "dictionary.tsv")

    summary_rows: list[tuple] = []
    for vocab_size in vocab_sizes:
        vocab, examples = qualifying_examples(db, dictionary, vocab_size, args)
        for fraction in fractions:
            cell = out_dir / f"v{vocab_size}_f{int(fraction * 100):03d}"
            cell.mkdir(exist_ok=True)
            split, dataset_config = dataset_stage(examples, vocab, fraction, args,
                                                  cell / "dataset.tsv", cell / "vocab.tsv")
            params, logs, train_config = train_stage(split, vocab.size, vocabulary_hash(vocab),
                                                     args, cell / "model.ckpt",
                                                     cell / "run_log.tsv")
            table, export_config = export_stage(params, vocab, cell / "model.ckpt", args,
                                                cell / "embeddings.txt")
            reports, eval_config = eval_stage(table, classes, pairs, args)
            config = {**dataset_config, **train_config, **export_config, **eval_config}
            cell_manifest = build_manifest("grid-cell", config, {"corpus": corpus_path},
                                           args.deterministic)
            emit_report(reports, cell_manifest, cell / "report.json", cell / "report.txt")
            write_manifest(cell_manifest, cell / "manifest.json")
            summary_rows.append((
                vocab_size, fraction, len(split.train),
                sum(entry.wall_seconds for entry in logs) / len(logs),
                logs[-1].train_loss, logs[-1].validation_loss,
            ))
    summary_path = out_dir / "summary.tsv"
    with atomic_write(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vocab_size\tfraction\ttrain_tuples\tavg_secs_epoch\ttrain_loss\tval_loss\n")
        for row in summary_rows:
            fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{row[3]:.3f}\t{row[4]:.6f}\t{row[5]:.6f}\n")
    # The cells differ only in |V| and fraction, so the last cell's config
    # with those two replaced by the grid's lists describes the whole run.
    grid_manifest = build_manifest(
        "grid",
        {
            **{key: value for key, value in config.items() if key not in ("vocab_size", "fraction")},
            "vocab_sizes": args.vocab_sizes,
            "fractions": args.fractions,
            "classes": str(args.classes),
            "pairs": str(args.pairs),
            "out_dir": str(out_dir),
        },
        {"corpus": corpus_path},
        args.deterministic,
    )
    write_manifest(grid_manifest, out_dir / "grid.manifest.json")
    print(summary_path.read_text(encoding="utf-8"), end="")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--deterministic", action="store_true",
                        help="zero timestamps/timings so outputs are byte-reproducible")
    # Ignored: counting runs in one process; kept so existing command lines parse.
    parser.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--emb-dim", type=int, default=64,
                        help="input word embedding width")
    parser.add_argument("--ctx-dim", type=int, default=64,
                        help="context layer width (= exported embedding width)")
    parser.add_argument("--sigmoid-logits", action="store_true",
                        help="squash the output projection through a sigmoid before softmax")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--batch-size", type=int, default=256)
    parser.add_argument("--learning-rate", type=float, default=0.001)


# Built once per process: building it takes about 3 ms, and in-process
# callers such as perfbench run `main` once per stage.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetembed",
        description="Train and evaluate word embeddings from a microblog corpus",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="corpus file -> 5-gram database + dictionary")
    p.add_argument("corpus")
    p.add_argument("--out-db", required=True)
    p.add_argument("--out-dict", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("dataset", help="5-gram database -> filtered train/validation tuples")
    p.add_argument("db")
    p.add_argument("--vocab-size", type=int, required=True)
    p.add_argument("--fraction", type=float, default=1.0, choices=PAPER_FRACTIONS)
    p.add_argument("--validation-ratio", type=float, default=0.1)
    p.add_argument("--include-boundary", action="store_true",
                   help="admit 5-grams whose context includes boundary tokens")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="dataset file -> checkpoint + run log")
    p.add_argument("dataset")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", required=True)
    _add_train_flags(p)
    _add_model_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="checkpoint + vocab -> text embeddings")
    p.add_argument("checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--source", choices=("output", "input"), default="output")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="embeddings + gold data -> intrinsic test report")
    p.add_argument("embeddings")
    p.add_argument("--classes", default=str(DEFAULT_CLASSES_FILE))
    p.add_argument("--pairs", default=str(DEFAULT_PAIRS_FILE))
    for name, default in THRESHOLD_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), default=default)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="run the vocab-size x fraction experiment matrix")
    p.add_argument("corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vocab-sizes", required=True, help="comma-separated sizes")
    p.add_argument("--fractions", default="0.25,0.5,0.75,1.0")
    p.add_argument("--validation-ratio", type=float, default=0.1)
    p.add_argument("--include-boundary", action="store_true")
    p.add_argument("--classes", default=str(DEFAULT_CLASSES_FILE))
    p.add_argument("--pairs", default=str(DEFAULT_PAIRS_FILE))
    _add_train_flags(p)
    _add_model_flags(p)
    _add_common(p)
    # grid exports and scores every cell like `export` and `eval` do by default
    p.set_defaults(func=cmd_grid, source="output", **THRESHOLD_DEFAULTS)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TrainingDiverged, NonFiniteGradientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def run() -> None:
    sys.exit(main())
