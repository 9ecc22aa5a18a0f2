"""Intrinsic evaluation of embedding tables against gold-standard data.

Three threshold tests plus one threshold-free test:

* class membership: within-class pairs should have cosine above the
  threshold (run at 0.70 and 0.80 by default);
* class distinction: cross-class pairs should have cosine below the
  threshold (true negatives, same default thresholds);
* word equivalence: abbreviation/acronym pairs should have cosine above
  a stricter threshold (0.85 and 0.95 by default);
* topological consistency: for every word, all its same-class words must
  be closer than every different-class word, regardless of the absolute
  cosine values.

Every test scores only the covered pairs (both words embedded); coverage
is reported separately. Pairs touching an all-zero vector cannot be
scored; they are excluded and counted in the report.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import normalize_token
from .embeddings import EmbeddingTable
from .manifest import atomic_write

logger = logging.getLogger(__name__)

DATA_DIR = Path(__file__).parent / "data"
DEFAULT_CLASSES_FILE = DATA_DIR / "twitter_classes.tsv"
DEFAULT_PAIRS_FILE = DATA_DIR / "equivalence_pairs.tsv"

MEMBERSHIP_THRESHOLDS = (0.70, 0.80)
DISTINCTION_THRESHOLDS = (0.70, 0.80)
EQUIVALENCE_THRESHOLDS = (0.85, 0.95)


@dataclass(frozen=True)
class GoldClass:
    """A named semantic class with at least two distinct member words."""

    name: str
    members: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError(f"class {self.name!r} needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ValueError(f"class {self.name!r} has duplicate members")


@dataclass(frozen=True)
class EquivalencePair:
    left: str
    right: str

    def __post_init__(self) -> None:
        if self.left == self.right:
            raise ValueError(f"equivalence pair must join distinct words: {self.left!r}")


@dataclass
class TestReport:
    """Outcome of one test at one threshold.

    score = passed / covered_pairs over the scored pairs; None (flagged)
    when nothing could be scored. For the topological test, covered_pairs
    counts evaluated words rather than pairs and threshold is None.
    """

    name: str
    threshold: float | None
    coverage: float
    covered_pairs: int
    passed: int
    score: float | None
    excluded_zero_vectors: int = 0


def load_gold_classes(path: Path | str) -> list[GoldClass]:
    """TSV `class_name<TAB>word`, one membership per line; '#' comments
    allowed. Words get the same normalization as the corpus pipeline."""
    path = Path(path)
    ordered: dict[str, list[str]] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            name, word = line.split("\t")
            token = normalize_token(word.strip())
            members = ordered.setdefault(name, [])
            if token not in members:
                members.append(token)
    return [GoldClass(name, tuple(members)) for name, members in ordered.items()]


def load_equivalence_pairs(path: Path | str) -> list[EquivalencePair]:
    """TSV `left<TAB>right`; '#' comments allowed."""
    path = Path(path)
    pairs: list[EquivalencePair] = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            left, right = line.split("\t")
            pairs.append(EquivalencePair(normalize_token(left.strip()),
                                         normalize_token(right.strip())))
    return pairs


def coverage(pairs: Sequence[tuple[str, str]], table: EmbeddingTable,
             ) -> tuple[float, list[tuple[str, str]]]:
    """Fraction of pairs with both words embedded, plus that covered subset."""
    if not pairs:
        raise ValueError("coverage needs at least one pair")
    covered = [(a, b) for a, b in pairs if a in table and b in table]
    return len(covered) / len(pairs), covered


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")


def _pair_cosine(table: EmbeddingTable, a: str, b: str) -> float | None:
    """Cosine of a covered pair, or None when a zero vector blocks scoring."""
    i, j = table.row(a), table.row(b)
    if table._zero[i] or table._zero[j]:
        return None
    return float(table._units[i] @ table._units[j])


def _score_pairs(name: str, table: EmbeddingTable, pairs: Sequence[tuple[str, str]],
                 threshold: float, passes) -> TestReport:
    cov, covered = coverage(pairs, table)
    excluded = 0
    scored = 0
    passed = 0
    for a, b in covered:
        cos = _pair_cosine(table, a, b)
        if cos is None:
            excluded += 1
            continue
        scored += 1
        if passes(cos, threshold):
            passed += 1
    score = passed / scored if scored else None
    if score is None:
        logger.warning("%s@%.2f: no scorable pairs (coverage %.3f)", name, threshold, cov)
    return TestReport(name, threshold, cov, scored, passed, score, excluded)


def membership_pairs(classes: Sequence[GoldClass]) -> list[tuple[str, str]]:
    """All unordered within-class pairs, de-duplicated across classes."""
    seen: set[tuple[str, str]] = set()
    for cls in classes:
        for a, b in combinations(cls.members, 2):
            seen.add((a, b) if a <= b else (b, a))
    return sorted(seen)


def distinction_pairs(classes: Sequence[GoldClass]) -> list[tuple[str, str]]:
    """All unordered cross-class pairs.

    Duplicates are removed, as are pairs joining a word with itself or
    with a word it shares any class with (a word may belong to several
    classes, and such pairs are not known to be distinct).
    """
    word_classes: dict[str, set[str]] = {}
    for cls in classes:
        for word in cls.members:
            word_classes.setdefault(word, set()).add(cls.name)
    seen: set[tuple[str, str]] = set()
    for ci, cj in combinations(classes, 2):
        for a in ci.members:
            for b in cj.members:
                if a == b or not word_classes[a].isdisjoint(word_classes[b]):
                    continue
                seen.add((a, b) if a <= b else (b, a))
    return sorted(seen)


def class_membership_test(table: EmbeddingTable, classes: Sequence[GoldClass],
                          threshold: float) -> TestReport:
    """Within-class pairs pass when cosine is strictly above the threshold."""
    _check_threshold(threshold)
    for cls in classes:
        present = [w for w in cls.members if w in table]
        if len(present) < 2:
            logger.info("class %s has fewer than 2 covered members", cls.name)
    pairs = membership_pairs(classes)
    return _score_pairs("class_membership", table, pairs, threshold,
                        lambda cos, thr: cos > thr)


def class_distinction_test(table: EmbeddingTable, classes: Sequence[GoldClass],
                           threshold: float) -> TestReport:
    """Cross-class pairs pass (true negative) when cosine is strictly below."""
    _check_threshold(threshold)
    if len(classes) < 2:
        raise ValueError("class distinction needs at least 2 classes")
    pairs = distinction_pairs(classes)
    return _score_pairs("class_distinction", table, pairs, threshold,
                        lambda cos, thr: cos < thr)


def word_equivalence_test(table: EmbeddingTable, pairs: Sequence[EquivalencePair],
                          threshold: float) -> TestReport:
    """Equivalence pairs pass when cosine is strictly above the threshold."""
    _check_threshold(threshold)
    raw = [(p.left, p.right) for p in pairs]
    return _score_pairs("word_equivalence", table, raw, threshold,
                        lambda cos, thr: cos > thr)


def topological_consistency_test(table: EmbeddingTable,
                                 classes: Sequence[GoldClass]) -> TestReport:
    """Threshold-free neighborhood test.

    A covered word passes when its minimum same-class cosine exceeds its
    maximum different-class cosine. Words with no covered same-class peer
    or no covered different-class word are skipped (and logged). The score
    is invariant under per-vector positive rescaling.
    """
    word_classes: dict[str, set[str]] = {}
    for cls in classes:
        for word in cls.members:
            word_classes.setdefault(word, set()).add(cls.name)
    gold_words = sorted(word_classes)

    zero_excluded = sum(1 for w in gold_words if w in table and table.is_zero(w))
    covered = [w for w in gold_words if w in table and not table.is_zero(w)]
    covered_set = set(covered)
    classes_with_two = sum(
        1 for cls in classes if sum(1 for w in cls.members if w in covered_set) >= 2
    )
    if len(classes) < 2 or classes_with_two < 2:
        raise ValueError("topological consistency needs >= 2 classes with >= 2 covered members")

    units = np.stack([table._units[table.row(w)] for w in covered])
    sims = units @ units.T
    evaluated = 0
    passed = 0
    skipped = 0
    for i, word in enumerate(covered):
        mine = word_classes[word]
        same = [j for j, other in enumerate(covered)
                if j != i and word_classes[other] & mine]
        diff = [j for j, other in enumerate(covered)
                if j != i and not word_classes[other] & mine]
        if not same or not diff:
            skipped += 1
            continue
        evaluated += 1
        if sims[i, same].min() > sims[i, diff].max():
            passed += 1
    if skipped:
        logger.info("topological consistency skipped %d words without peers", skipped)
    cov = len(covered) / len(gold_words) if gold_words else 0.0
    score = passed / evaluated if evaluated else None
    return TestReport("topological_consistency", None, cov, evaluated, passed,
                      score, zero_excluded)


def format_report_table(reports: Sequence[TestReport]) -> str:
    """Aligned text table, one row per (test, threshold) report."""
    header = ("test", "threshold", "coverage", "covered", "passed", "score", "zero_excl")
    rows = [header]
    for r in reports:
        rows.append((
            r.name,
            "n/a" if r.threshold is None else f"{r.threshold:.2f}",
            f"{r.coverage:.4f}",
            str(r.covered_pairs),
            str(r.passed),
            "undefined" if r.score is None else f"{r.score:.4f}",
            str(r.excluded_zero_vectors),
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"


def emit_report(reports: Sequence[TestReport], manifest: dict,
                json_path: Path | str, text_path: Path | str | None = None) -> None:
    """Write the machine-readable report and, optionally, the text table."""
    payload = {
        "manifest": manifest,
        "reports": [asdict(r) for r in reports],
    }
    with atomic_write(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
    if text_path is not None:
        with atomic_write(text_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(format_report_table(reports))


def parse_report(json_path: Path | str) -> tuple[dict, list[TestReport]]:
    with Path(json_path).open("r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["manifest"], [TestReport(**d) for d in payload["reports"]]


def run_standard_suite(table: EmbeddingTable, classes: Sequence[GoldClass],
                       pairs: Sequence[EquivalencePair],
                       membership_thresholds: Iterable[float] = MEMBERSHIP_THRESHOLDS,
                       distinction_thresholds: Iterable[float] = DISTINCTION_THRESHOLDS,
                       equivalence_thresholds: Iterable[float] = EQUIVALENCE_THRESHOLDS,
                       ) -> list[TestReport]:
    """All four tests at their default threshold pairs.

    The topological test is skipped (with a warning) when its coverage
    precondition cannot be met on the given table.
    """
    reports: list[TestReport] = []
    for thr in membership_thresholds:
        reports.append(class_membership_test(table, classes, thr))
    for thr in distinction_thresholds:
        reports.append(class_distinction_test(table, classes, thr))
    for thr in equivalence_thresholds:
        reports.append(word_equivalence_test(table, pairs, thr))
    try:
        reports.append(topological_consistency_test(table, classes))
    except ValueError as exc:
        logger.warning("topological consistency not run: %s", exc)
    return reports
