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

All four tests read one matrix. `run_standard_suite` gathers the gold
words (class members and equivalence-pair words), normalizes only their
rows of the table and takes all their cosines with one matrix product.
Each test is then a mask over that matrix: membership is the within-class
upper triangle, distinction the cross-class upper triangle, equivalence
one cell per listed pair (repeated pairs count again), and topological
consistency compares, row by row, the least similar same-class word with
the most similar cross-class word.

A matrix product over a different set of words may round a cosine
differently in its last bit. So a cosine exactly equal to a threshold, or
two exactly equal cosines in the topological test, may compare either
way; checks against a reference implementation use vectors whose cosines
do not tie.
"""

from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

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


def _read_tab_pairs(path: Path) -> list[tuple[str, str]]:
    """The two tab-separated fields of each line. Blank lines and lines that
    start with '# ' are comments, so a hashtag line such as '#ff' is data."""
    out: list[tuple[str, str]] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("# "):
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 tab-separated fields, "
                                 f"got {len(fields)}")
            out.append((fields[0], fields[1]))
    return out


def load_gold_classes(path: Path | str) -> list[GoldClass]:
    """TSV `class_name<TAB>word`, one membership per line; '# ' comments
    allowed. Words get the same normalization as the corpus pipeline."""
    ordered: dict[str, list[str]] = {}
    for name, word in _read_tab_pairs(Path(path)):
        token = normalize_token(word.strip())
        members = ordered.setdefault(name, [])
        if token not in members:
            members.append(token)
    return [GoldClass(name, tuple(members)) for name, members in ordered.items()]


def load_equivalence_pairs(path: Path | str) -> list[EquivalencePair]:
    """TSV `left<TAB>right`; '# ' comments allowed."""
    return [EquivalencePair(normalize_token(left.strip()), normalize_token(right.strip()))
            for left, right in _read_tab_pairs(Path(path))]


def _pair_reports(name: str, thresholds: Sequence[float], cos: np.ndarray,
                  present: np.ndarray, usable: np.ndarray, left: np.ndarray,
                  right: np.ndarray, above: bool) -> list[TestReport]:
    """One report per threshold over the gold pairs (left[k], right[k]).

    A pair passes when its cosine is strictly above the threshold (or
    strictly below it when `above` is False).
    """
    covered = int(np.count_nonzero(present[left] & present[right]))
    sims = cos[left, right][usable[left] & usable[right]]
    reports = []
    for threshold in thresholds:
        cov = covered / len(left)
        passed = int(np.count_nonzero(sims > threshold if above else sims < threshold))
        score = passed / len(sims) if len(sims) else None
        if score is None:
            logger.warning("%s@%.2f: no scorable pairs (coverage %.3f)", name, threshold, cov)
        reports.append(TestReport(name, threshold, cov, len(sims), passed, score,
                                  covered - len(sims)))
    return reports


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
                json_path: Path | str, text_path: Path | str) -> None:
    """Write the machine-readable report and the text table."""
    payload = {
        "manifest": manifest,
        "reports": [asdict(r) for r in reports],
    }
    with atomic_write(json_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, ensure_ascii=False)
        fh.write("\n")
    with atomic_write(text_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_report_table(reports))


def check_suite(classes: Sequence[GoldClass], pairs: Sequence[EquivalencePair],
                membership_thresholds: Sequence[float] = MEMBERSHIP_THRESHOLDS,
                distinction_thresholds: Sequence[float] = DISTINCTION_THRESHOLDS,
                equivalence_thresholds: Sequence[float] = EQUIVALENCE_THRESHOLDS) -> None:
    """ValueError for a suite no table can score: a threshold outside (0, 1),
    distinction thresholds with fewer than 2 classes, or a test without pairs."""
    if distinction_thresholds and len(classes) < 2:
        raise ValueError("class distinction needs at least 2 classes")
    words = {w for cls in classes for w in cls.members}
    # Distinction has a pair when some class word shares no class with another.
    cross = any(words - {x for c in classes if w in c.members for x in c.members} for w in words)
    for thresholds, has_pairs in ((membership_thresholds, classes),
                                  (distinction_thresholds, cross), (equivalence_thresholds, pairs)):
        for threshold in thresholds:
            if not 0.0 < threshold < 1.0:
                raise ValueError(f"threshold must be in (0, 1), got {threshold}")
            if not has_pairs:
                raise ValueError("coverage needs at least one pair")


def run_standard_suite(table: EmbeddingTable, classes: Sequence[GoldClass],
                       pairs: Sequence[EquivalencePair],
                       membership_thresholds: Sequence[float] = MEMBERSHIP_THRESHOLDS,
                       distinction_thresholds: Sequence[float] = DISTINCTION_THRESHOLDS,
                       equivalence_thresholds: Sequence[float] = EQUIVALENCE_THRESHOLDS,
                       ) -> list[TestReport]:
    """All four tests, each at its thresholds (the defaults are the paper's),
    once `check_suite` accepts them. The topological test is skipped (with a
    warning) when its coverage precondition cannot be met on the given table."""
    check_suite(classes, pairs, membership_thresholds, distinction_thresholds,
                equivalence_thresholds)
    words = sorted({w for cls in classes for w in cls.members}
                   | {w for pair in pairs for w in (pair.left, pair.right)})
    col = {w: i for i, w in enumerate(words)}
    member = np.zeros((len(words), len(classes)), dtype=bool)
    for j, cls in enumerate(classes):
        member[[col[w] for w in cls.members], j] = True
    rows = np.array([table.index.get(w, -1) for w in words], dtype=np.intp)
    present = rows >= 0
    # Each row scaled by a power of two so its largest |entry| is in [0.5, 1):
    # exact for normal numbers, and the norm then neither overflows nor underflows.
    vectors = table.vectors[rows[present]]
    _, exponents = np.frexp(np.abs(vectors).max(axis=1, initial=0.0))
    vectors = np.ldexp(vectors, -exponents[:, None])
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.zeros(len(words), dtype=bool)
    zero[present] = norms == 0.0
    usable = present & ~zero
    units = vectors[norms != 0.0] / norms[norms != 0.0, None]
    cos = np.zeros((len(words), len(words)))
    cos[np.ix_(usable, usable)] = units @ units.T

    for cls, covered in zip(classes, np.count_nonzero(member & present[:, None], axis=0)):
        if covered < 2:
            logger.info("class %s has fewer than 2 covered members", cls.name)
    shared = member @ member.T
    in_class = member.any(axis=1)
    reports = _pair_reports("class_membership", membership_thresholds, cos, present, usable,
                            *np.nonzero(np.triu(shared, 1)), above=True)
    cross = np.triu(~shared & in_class[:, None] & in_class[None, :], 1)
    reports += _pair_reports("class_distinction", distinction_thresholds, cos, present, usable,
                             *np.nonzero(cross), above=False)
    left = np.array([col[pair.left] for pair in pairs], dtype=np.intp)
    right = np.array([col[pair.right] for pair in pairs], dtype=np.intp)
    reports += _pair_reports("word_equivalence", equivalence_thresholds, cos, present, usable,
                             left, right, above=True)

    # Topological consistency: a covered class word passes when its least
    # similar same-class peer is closer than its most similar other word.
    scored = usable & in_class
    if len(classes) < 2 or np.count_nonzero((member & scored[:, None]).sum(axis=0) >= 2) < 2:
        logger.warning("topological consistency not run: topological consistency needs "
                       ">= 2 classes with >= 2 covered members")
        return reports
    peers = shared & scored[None, :]
    np.fill_diagonal(peers, False)
    others = ~shared & scored[None, :]
    evaluated = scored & peers.any(axis=1) & others.any(axis=1)
    passes = np.where(peers, cos, np.inf).min(axis=1) > np.where(others, cos, -np.inf).max(axis=1)
    n_scored = int(np.count_nonzero(scored))
    n_evaluated = int(np.count_nonzero(evaluated))
    n_passed = int(np.count_nonzero(evaluated & passes))
    if n_evaluated < n_scored:
        logger.info("topological consistency skipped %d words without peers",
                    n_scored - n_evaluated)
    reports.append(TestReport(
        "topological_consistency", None, n_scored / int(np.count_nonzero(in_class)),
        n_evaluated, n_passed, n_passed / n_evaluated if n_evaluated else None,
        int(np.count_nonzero(in_class & zero))))
    return reports
