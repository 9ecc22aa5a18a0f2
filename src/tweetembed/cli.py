"""Subcommand front door: ingest -> dataset -> train -> export -> eval (+ grid).

Stages communicate through files so expensive steps can be reused across
experiment cells. Every run writes a manifest next to its main output.
Exit codes: 0 success, 2 input error (a flag the parser refuses, or any
OSError: a missing, unreadable or unwritable path, or a directory where a
file belongs), 3 training divergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Callable, Iterator, NoReturn

import numpy as np

from . import __version__
from .corpus import (Dictionary, NGramDatabase, build_dictionary, count_ngrams, ngram_db_bin,
                     read_ngram_db, write_dictionary, write_ngram_db)
from .dataset import (DatasetSplit, filter_ngrams, read_dataset, read_vocabulary,
                      select_vocabulary, split_dataset, split_sizes, vocabulary_hash,
                      write_dataset, write_vocabulary)
from .embeddings import (EmbeddingTable, export_embeddings, read_embeddings_text,
                         write_embeddings_binary, write_embeddings_text)
from .evaluation import (DEFAULT_CLASSES_FILE, DEFAULT_PAIRS_FILE, DISTINCTION_THRESHOLDS,
                         EQUIVALENCE_THRESHOLDS, MEMBERSHIP_THRESHOLDS, EquivalencePair,
                         GoldClass, TestReport, check_suite, emit_report, format_report_table,
                         load_equivalence_pairs, load_gold_classes, run_standard_suite)
from .manifest import atomic_write, build_manifest, file_sha256, write_manifest
from .model import ModelHyper, ModelParams, load_checkpoint
from .training import TrainConfig, TrainingDiverged, train

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DIVERGED = 3

PAPER_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
GRID_CELL_FILES = ("dataset.tsv", "vocab.tsv", "model.ckpt", "run_log.tsv", "embeddings.txt",
                   "embeddings.txt.bin", "report.json", "report.txt", "manifest.json")

# eval's threshold flags (dest name -> default), also the thresholds grid scores at
THRESHOLD_DEFAULTS = {"membership_thresholds": MEMBERSHIP_THRESHOLDS,
                      "distinction_thresholds": DISTINCTION_THRESHOLDS,
                      "equivalence_thresholds": EQUIVALENCE_THRESHOLDS}


# `_read_corpus_lines` reads the corpus this many bytes at a time, plus the
# rest of the line the read ends in.
CORPUS_CHUNK_BYTES = 1 << 18


def _read_corpus_lines(path: Path) -> Iterator[str]:
    """The lines `path.read_text(encoding="utf-8").splitlines()` gives,
    read in chunks, so the corpus is never held whole.

    Each chunk is CORPUS_CHUNK_BYTES bytes of the file opened in binary
    plus the rest of the line they end in, so it ends at a b"\n" or at the
    end of the file. No other UTF-8 character holds the byte 0x0a, and
    "\n" ends a line for str.splitlines ("\r\n" included), so a chunk
    never splits a character or a line boundary, and its own splitlines
    are the file's. A byte that is not UTF-8 raises ValueError naming the
    path and the byte's offset in the file, which holds in a pipe too,
    when its chunk is read, so a caller that writes only after it has read
    every line writes nothing.
    """
    with path.open("rb") as fh:
        offset = 0
        while chunk := fh.read(CORPUS_CHUNK_BYTES) + fh.readline():
            try:
                text = chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: can't decode byte 0x{chunk[exc.start]:02x} at byte "
                                 f"offset {offset + exc.start} as UTF-8 ({exc.reason})") from None
            offset += len(chunk)
            yield from text.splitlines()


def _check_distinct(*outputs: Path, inputs: tuple[Path, ...] = ()) -> None:
    """ValueError when two of a stage's output paths name the same file, or
    an output names one of its inputs, which the write would replace;
    callers check before writing anything."""
    seen: dict[Path, Path] = {}
    for path in outputs:
        other = seen.setdefault(path.resolve(), path)
        if other is not path:
            raise ValueError(f"output paths {other} and {path} name the same file")
    for path in inputs:
        other = seen.get(path.resolve())
        if other is not None:
            raise ValueError(f"output path {other} and input path {path} name the same file")


def _config(args: argparse.Namespace, **extra) -> dict:
    """A manifest's config: the parsed arguments, less the command and its
    handler, the ignored --threads and --deterministic (a manifest key of
    its own), plus `extra`."""
    return {**{key: value for key, value in vars(args).items()
               if key not in ("func", "command", "threads", "deterministic")}, **extra}


# Stage functions, shared by the stage commands and `grid`: each takes its
# in-memory inputs, the parsed flags and its output paths, writes the stage's
# files and returns its result. The train stage is `train` itself, with the
# settings from `train_settings`.


def qualifying_examples(db: NGramDatabase, dictionary: Dictionary, vocab_size: int,
                        args: argparse.Namespace) -> tuple[list[str], np.ndarray]:
    """The |V|-dependent half of the dataset stage; `grid` runs it once per |V|."""
    vocab = select_vocabulary(dictionary, vocab_size)
    examples = filter_ngrams(db, dictionary.ids[:vocab_size], args.include_boundary)
    if len(examples) == 0:
        raise ValueError(f"no 5-grams qualify for vocabulary size {vocab_size}; "
                         "try a larger vocabulary or --include-boundary")
    return vocab, examples


def dataset_stage(examples: np.ndarray, vocab: list[str], fraction: float,
                  args: argparse.Namespace, out_path: Path, vocab_path: Path) -> DatasetSplit:
    split = split_dataset(examples, validation_ratio=args.validation_ratio,
                          fraction=fraction, seed=args.seed)
    write_dataset(split, vocab, out_path)
    write_vocabulary(vocab, vocab_path)
    return split


def train_settings(args: argparse.Namespace, vocab_size: int) -> tuple[ModelHyper, TrainConfig]:
    """The model and training settings the flags give."""
    return (ModelHyper(vocab_size=vocab_size, d_in=args.emb_dim, d_ctx=args.ctx_dim),
            TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                        learning_rate=args.learning_rate, seed=args.seed,
                        deterministic=args.deterministic))


def export_stage(params: ModelParams, vocab: list[str], checkpoint_path: Path,
                 out_path: Path) -> EmbeddingTable:
    table = export_embeddings(params, vocab, manifest_hash=file_sha256(checkpoint_path))
    write_embeddings_text(table, out_path)
    write_embeddings_binary(table, out_path.with_suffix(out_path.suffix + ".bin"))
    return table


def eval_stage(table: EmbeddingTable, classes: list[GoldClass], pairs: list[EquivalencePair],
               args: argparse.Namespace) -> list[TestReport]:
    """Score the standard suite. The report embeds the run's manifest, so
    the caller writes it with `emit_report` once the manifest is built."""
    return run_standard_suite(table, classes, pairs,
                              **{name: getattr(args, name) for name in THRESHOLD_DEFAULTS})


def cmd_ingest(args: argparse.Namespace) -> int:
    corpus_path = Path(args.corpus)
    db_path = Path(args.out_db)
    dict_path = Path(args.out_dict)
    manifest_path = db_path.with_suffix(db_path.suffix + ".manifest.json")
    _check_distinct(db_path, ngram_db_bin(db_path), dict_path, manifest_path, inputs=(corpus_path,))
    db = count_ngrams(_read_corpus_lines(corpus_path))
    write_ngram_db(db, db_path)
    dictionary = build_dictionary(db)
    write_dictionary(dictionary, dict_path)
    if db.total_tweets == 0:
        print(f"warning: corpus {corpus_path} is empty", file=sys.stderr)
    manifest = build_manifest("ingest", _config(args), {"corpus": corpus_path}, args.deterministic)
    write_manifest(manifest, manifest_path)
    print(f"tweets: {db.total_tweets}")
    print(f"tokens: {db.total_tokens}")
    print(f"distinct 5-grams: {len(db.records)}")
    print(f"dictionary entries: {len(dictionary.ids)}")
    return EXIT_OK


def cmd_dataset(args: argparse.Namespace) -> int:
    db_path = Path(args.db)
    out_path = Path(args.out)
    vocab_path = out_path.with_suffix(out_path.suffix + ".vocab.tsv")
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    _check_distinct(out_path, vocab_path, manifest_path, inputs=(db_path, ngram_db_bin(db_path)))
    db, db_sha256 = read_ngram_db(db_path)
    vocab, examples = qualifying_examples(db, build_dictionary(db), args.vocab_size, args)
    # The examples are a copy: dropping the database here frees it, and the
    # file bytes its arrays view, before the split and the write.
    del db
    split = dataset_stage(examples, vocab, args.fraction, args, out_path, vocab_path)
    manifest = build_manifest("dataset", _config(args), {"db": db_path}, args.deterministic,
                              digests={"db": db_sha256})
    write_manifest(manifest, manifest_path)
    print(f"qualifying 5-grams: {len(examples)}")
    print(f"train tuples: {len(split.train)}")
    print(f"validation tuples: {len(split.validation)}")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    dataset_path = Path(args.dataset)
    checkpoint_path = Path(args.out_checkpoint)
    log_path = Path(args.out_log)
    manifest_path = checkpoint_path.with_suffix(checkpoint_path.suffix + ".manifest.json")
    _check_distinct(checkpoint_path, log_path, manifest_path, inputs=(dataset_path,))
    split, meta = read_dataset(dataset_path)
    hyper, cfg = train_settings(args, meta["vocab_size"])
    # Written first, so a run that diverges still leaves its manifest behind.
    manifest = build_manifest("train", _config(args), {"dataset": dataset_path},
                              args.deterministic)
    write_manifest(manifest, manifest_path)
    _, logs = train(split, hyper, cfg, checkpoint_path, log_path, meta["vocab_hash"],
                    on_epoch=lambda entry: print(entry.line(), end=""))
    total = sum(entry.wall_seconds for entry in logs)
    print(f"avg secs/epoch: {total / len(logs):.3f}")
    print(f"total secs: {total:.3f}")
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    checkpoint_path = Path(args.checkpoint)
    vocab_path = Path(args.vocab)
    out_path = Path(args.out)
    manifest_path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    _check_distinct(out_path, out_path.with_suffix(out_path.suffix + ".bin"), manifest_path,
                    inputs=(checkpoint_path, vocab_path))
    params, header = load_checkpoint(checkpoint_path)
    vocab = read_vocabulary(vocab_path)
    if header["vocab_hash"] != vocabulary_hash(vocab):
        raise ValueError(
            f"vocabulary/checkpoint mismatch: {vocab_path} does not hash to "
            f"the vocabulary this checkpoint was trained on"
        )
    table = export_stage(params, vocab, checkpoint_path, out_path)
    manifest = build_manifest("export", _config(args),
                              {"checkpoint": checkpoint_path, "vocab": vocab_path},
                              args.deterministic, digests={"checkpoint": table.manifest_hash})
    write_manifest(manifest, manifest_path)
    print(f"exported {len(table.words)} x {table.dim} embeddings")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    emb_path = Path(args.embeddings)
    classes_path = Path(args.classes)
    pairs_path = Path(args.pairs)
    out_json = Path(args.out)
    text_path = out_json.with_suffix(".txt")
    manifest_path = out_json.with_suffix(out_json.suffix + ".manifest.json")
    _check_distinct(out_json, text_path, manifest_path,
                    inputs=(emb_path, classes_path, pairs_path))
    table = read_embeddings_text(emb_path)
    classes = load_gold_classes(classes_path)
    pairs = load_equivalence_pairs(pairs_path)
    reports = eval_stage(table, classes, pairs, args)
    manifest = build_manifest("eval", _config(args), {"embeddings": emb_path,
                                                      "classes": classes_path,
                                                      "pairs": pairs_path}, args.deterministic)
    emit_report(reports, manifest, out_json, text_path)
    write_manifest(manifest, manifest_path)
    print(format_report_table(reports), end="")
    return EXIT_OK


def grid_cell(examples: np.ndarray, vocab: list[str], fraction: float,
              classes: list[GoldClass], pairs: list[EquivalencePair], corpus_sha256: str,
              cell: Path, args: argparse.Namespace) -> tuple:
    """Run the dataset, train, export and eval stages for one grid cell into
    `cell`; returns its summary row. The cell's split, parameters, tables
    and reports are freed when it returns."""
    cell.mkdir(exist_ok=True)
    split = dataset_stage(examples, vocab, fraction, args, cell / "dataset.tsv",
                          cell / "vocab.tsv")
    hyper, cfg = train_settings(args, len(vocab))
    params, logs = train(split, hyper, cfg, cell / "model.ckpt", cell / "run_log.tsv",
                         vocabulary_hash(vocab))
    text_path = cell / "embeddings.txt"
    export_stage(params, vocab, cell / "model.ckpt", text_path)
    # Scored from the six-decimal text, as `eval` scores it.
    reports = eval_stage(read_embeddings_text(text_path), classes, pairs, args)
    config = _config(args, vocab_size=len(vocab), fraction=fraction)
    cell_manifest = build_manifest("grid-cell", config, {"corpus": Path(args.corpus)},
                                   args.deterministic, digests={"corpus": corpus_sha256})
    emit_report(reports, cell_manifest, cell / "report.json", cell / "report.txt")
    write_manifest(cell_manifest, cell / "manifest.json")
    return (len(vocab), fraction, len(split.train),
            sum(entry.wall_seconds for entry in logs) / len(logs),
            logs[-1].train_loss, logs[-1].validation_loss)


def cmd_grid(args: argparse.Namespace) -> int:
    """Ingest once, then run the other stages for every |V| x fraction cell;
    a cell's manifest config is the grid's plus its |V| and fraction.

    Every input is read and checked, and each cell's examples and split
    sizes are taken, before any file is written. The dictionary is then
    written and freed before the 5-gram database's files are written, the
    database before the first cell trains, and each |V|'s examples after
    its last cell."""
    corpus_path = Path(args.corpus)
    out_dir = Path(args.out_dir)
    # Each cell's directory is named for its size and fraction; the parser
    # refuses a list that repeats one.
    cells = {(v, f): out_dir / f"v{v}_f{int(f * 100):03d}"
             for v in args.vocab_sizes for f in args.fractions}
    _check_distinct(*(out_dir / name for name in ("ngrams.tsv", "dictionary.tsv", "summary.tsv",
                                                  "grid.manifest.json")),
                    ngram_db_bin(out_dir / "ngrams.tsv"), *cells.values(),
                    *(cell / name for cell in cells.values() for name in GRID_CELL_FILES),
                    inputs=(corpus_path, Path(args.classes), Path(args.pairs)))
    classes = load_gold_classes(args.classes)
    pairs = load_equivalence_pairs(args.pairs)
    check_suite(classes, pairs)  # grid scores at the paper's thresholds, THRESHOLD_DEFAULTS
    db = count_ngrams(_read_corpus_lines(corpus_path))
    dictionary = build_dictionary(db)
    selected = {vocab_size: qualifying_examples(db, dictionary, vocab_size, args)
                for vocab_size in args.vocab_sizes}
    for vocab_size, fraction in cells:
        split_sizes(len(selected[vocab_size][1]), args.validation_ratio, fraction)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_dictionary(dictionary, out_dir / "dictionary.tsv")
    del dictionary
    write_ngram_db(db, out_dir / "ngrams.tsv")
    del db
    corpus_sha256 = file_sha256(corpus_path)

    summary_rows: list[tuple] = []
    for vocab_size in args.vocab_sizes:
        vocab, examples = selected.pop(vocab_size)
        for fraction in args.fractions:
            summary_rows.append(grid_cell(examples, vocab, fraction, classes, pairs,
                                          corpus_sha256, cells[vocab_size, fraction], args))
    summary_path = out_dir / "summary.tsv"
    with atomic_write(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("vocab_size\tfraction\ttrain_tuples\tavg_secs_epoch\ttrain_loss\tval_loss\n")
        for row in summary_rows:
            fh.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{row[3]:.3f}\t{row[4]:.6f}\t{row[5]:.6f}\n")
    grid_manifest = build_manifest("grid", _config(args), {"corpus": corpus_path},
                                   args.deterministic, digests={"corpus": corpus_sha256})
    write_manifest(grid_manifest, out_dir / "grid.manifest.json")
    print(summary_path.read_text(encoding="utf-8"), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print its usage and exit, so
    `main` reports a refused flag as it reports any input error."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def _checked(parse: Callable[[str], float], ok: Callable[[float], bool],
             rule: str) -> Callable[[str], float]:
    """An argparse type: what `parse` makes of a flag's text, refused with
    an error naming the text and `rule` unless it is `ok`."""
    def check(text: str) -> float:
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return check


_POSITIVE = _checked(int, lambda n: n >= 1, "an integer of at least 1")
_RATIO = _checked(float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_FRACTION = _checked(float, lambda x: x in PAPER_FRACTIONS,
                     f"one of the paper's fractions {', '.join(map(str, PAPER_FRACTIONS))}")


def _list_of(item: Callable[[str], float], required: bool = False) -> Callable[[str], tuple]:
    """An argparse type: the comma-separated `item`s of a flag's text as a
    tuple, empty items skipped. No list names a value twice; a `required`
    list names at least one."""
    def parse(text: str) -> tuple:
        values = tuple(item(x) for x in text.split(",") if x)
        if required and not values:
            raise argparse.ArgumentTypeError(f"{text!r} names no value")
        for i, value in enumerate(values):
            if value in values[:i]:
                raise argparse.ArgumentTypeError(f"{text!r} names {value} more than once")
        return values
    return parse


def _add_common(parser: argparse.ArgumentParser, seed: bool = False) -> None:
    if seed:  # read only by the dataset split and training
        parser.add_argument("--seed", default=TrainConfig.seed,
                            type=_checked(int, lambda n: n >= 0, "an integer of at least 0"))
    parser.add_argument("--deterministic", action="store_true",
                        help="zero timestamps/timings so outputs are byte-reproducible")
    # Ignored: counting runs in one process; kept so existing command lines parse.
    parser.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--epochs", type=_POSITIVE, default=TrainConfig.epochs)
    parser.add_argument("--batch-size", type=_POSITIVE, default=TrainConfig.batch_size)
    parser.add_argument("--learning-rate", default=TrainConfig.learning_rate,
                        type=_checked(float, lambda x: 0.0 < x < math.inf,
                                      "a finite number above 0"))
    parser.add_argument("--emb-dim", type=_POSITIVE, default=ModelHyper.d_in,
                        help="input word embedding width")
    parser.add_argument("--ctx-dim", type=_POSITIVE, default=ModelHyper.d_ctx,
                        help="context layer width (= exported embedding width)")


# Built once per process: building it takes about 3 ms, and in-process
# callers such as perfbench run `main` once per stage.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Every flag is checked here, as it is parsed, before a command reads
    or writes a file."""
    parser = _Parser(
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
    p.add_argument("--vocab-size", type=_POSITIVE, required=True)
    p.add_argument("--fraction", type=_FRACTION, default=1.0)
    p.add_argument("--validation-ratio", type=_RATIO, default=0.1)
    p.add_argument("--include-boundary", action="store_true",
                   help="admit 5-grams whose context includes boundary tokens")
    p.add_argument("--out", required=True)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("train", help="dataset file -> checkpoint + run log")
    p.add_argument("dataset")
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-log", required=True)
    _add_train_flags(p)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("export", help="checkpoint + vocab -> text embeddings")
    p.add_argument("checkpoint")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("eval", help="embeddings + gold data -> intrinsic test report")
    p.add_argument("embeddings")
    p.add_argument("--classes", default=str(DEFAULT_CLASSES_FILE))
    p.add_argument("--pairs", default=str(DEFAULT_PAIRS_FILE))
    for name, default in THRESHOLD_DEFAULTS.items():
        p.add_argument("--" + name.replace("_", "-"), type=_list_of(_RATIO), default=default,
                       help="comma-separated thresholds in (0, 1)")
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="run the vocab-size x fraction experiment matrix")
    p.add_argument("corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--vocab-sizes", type=_list_of(_POSITIVE, required=True), required=True,
                   help="comma-separated sizes")
    p.add_argument("--fractions", type=_list_of(_FRACTION, required=True),
                   default=PAPER_FRACTIONS)
    p.add_argument("--validation-ratio", type=_RATIO, default=0.1)
    p.add_argument("--include-boundary", action="store_true")
    p.add_argument("--classes", default=str(DEFAULT_CLASSES_FILE))
    p.add_argument("--pairs", default=str(DEFAULT_PAIRS_FILE))
    _add_train_flags(p)
    _add_common(p, seed=True)
    # grid scores every cell like `eval` does by default
    p.set_defaults(func=cmd_grid, **THRESHOLD_DEFAULTS)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED


def run() -> None:
    sys.exit(main())
