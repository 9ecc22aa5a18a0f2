import json
import logging
from dataclasses import astuple

import numpy as np
import pytest

from tweetembed.embeddings import EmbeddingTable
from tweetembed.evaluation import (
    DEFAULT_CLASSES_FILE,
    DEFAULT_PAIRS_FILE,
    EquivalencePair,
    GoldClass,
    emit_report,
    format_report_table,
    load_equivalence_pairs,
    load_gold_classes,
    run_standard_suite,
)
from tweetembed.evaluation import TestReport as EvalReport

from oracles import oracle_suite, oracle_topological


def table_from(words, rows):
    return EmbeddingTable(list(words), np.array(rows, dtype=np.float64))


def suite(table, classes=(), pairs=(), membership=(), distinction=(), equivalence=()):
    """`run_standard_suite` at the given thresholds only (none by default)."""
    return run_standard_suite(table, list(classes), list(pairs), membership, distinction,
                              equivalence)


def membership_report(table, classes, threshold):
    return suite(table, classes, membership=[threshold])[0]


def distinction_report(table, classes, threshold):
    return suite(table, classes, distinction=[threshold])[0]


def equivalence_report(table, pairs, threshold):
    return suite(table, pairs=pairs, equivalence=[threshold])[0]


def topological_report(table, classes):
    (report,) = suite(table, classes)
    return report


def read_report(json_path):
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    return payload["manifest"], [EvalReport(**d) for d in payload["reports"]]


def clustered_table():
    """Two tight clusters: a* words along e1 (with tiny jitter), b* along e2."""
    words = ["a1", "a2", "a3", "b1", "b2", "b3"]
    rows = [
        [1.0, 0.01, 0.0], [0.9, 0.02, 0.0], [1.1, 0.0, 0.01],
        [0.0, 1.0, 0.01], [0.02, 0.9, 0.0], [0.01, 1.1, 0.0],
    ]
    return table_from(words, rows)


def clustered_gold():
    return [GoldClass("ca", ("a1", "a2", "a3")), GoldClass("cb", ("b1", "b2", "b3"))]


class TestGoldTypes:
    def test_class_needs_two_members(self):
        with pytest.raises(ValueError):
            GoldClass("solo", ("um",))

    def test_class_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GoldClass("dup", ("um", "um"))

    def test_pair_rejects_self(self):
        with pytest.raises(ValueError):
            EquivalencePair("x", "x")


def coverage(pairs):
    """The equivalence report over `pairs` of words on the clustered table."""
    return equivalence_report(clustered_table(), [EquivalencePair(a, b) for a, b in pairs], 0.85)


class TestCoverage:
    def test_full(self):
        report = coverage([("a1", "b1"), ("a2", "b2")])
        assert report.coverage == 1.0
        assert report.covered_pairs == 2

    def test_none(self):
        report = coverage([("zz", "qq")])
        assert report.coverage == 0.0
        assert report.covered_pairs == 0

    def test_partial(self):
        report = coverage([("a1", "zz"), ("a1", "b1")])
        assert report.coverage == 0.5
        assert report.covered_pairs == 1
        # a repeated pair counts again, in the denominator too
        assert coverage([("a1", "zz"), ("a1", "b1"), ("a1", "b1")]).coverage == 2 / 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            coverage([])

    def test_union_coverage_between_parts(self):
        part_a = [("a1", "a2"), ("a1", "zz")]          # 0.5
        part_b = [("b1", "b2"), ("b1", "b3"), ("a1", "b1")]  # 1.0
        cov_a = coverage(part_a).coverage
        cov_b = coverage(part_b).coverage
        cov_union = coverage(part_a + part_b).coverage
        assert min(cov_a, cov_b) <= cov_union <= max(cov_a, cov_b)


class TestClassMembership:
    def test_tight_clusters_score_one(self):
        report = membership_report(clustered_table(), clustered_gold(), 0.70)
        assert report.score == 1.0
        assert report.coverage == 1.0
        assert report.covered_pairs == 6  # C(3,2) per class

    def test_orthogonal_within_class_scores_zero(self):
        table = table_from(["a1", "a2"], [[1, 0], [0, 1]])
        report = membership_report(table, [GoldClass("ca", ("a1", "a2"))], 0.70)
        assert report.score == 0.0

    def test_threshold_equal_cosine_fails_strict_rule(self):
        # units (1, 0) and (0.6, 0.8): the cosine is the float 0.6 in any
        # summation order, since the second product is exactly zero
        table = table_from(["a1", "a2"], [[1.0, 0.0], [3.0, 4.0]])
        report = membership_report(table, [GoldClass("ca", ("a1", "a2"))], 0.6)
        assert report.score == 0.0  # cosine == threshold is not "higher than"

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(30)]
        table = EmbeddingTable(words, rng.normal(size=(30, 5)))
        classes = [GoldClass("c1", tuple(words[:15])), GoldClass("c2", tuple(words[15:]))]
        scores = [membership_report(table, classes, t).score
                  for t in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

    def test_uncovered_words_do_not_count(self):
        classes = [GoldClass("ca", ("a1", "a2", "missing1", "missing2"))]
        report = membership_report(clustered_table(), classes, 0.70)
        assert report.covered_pairs == 1
        assert report.coverage == pytest.approx(1 / 6)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            membership_report(clustered_table(), clustered_gold(), 1.2)


class TestClassDistinction:
    def test_orthogonal_clusters_full_true_negatives(self):
        report = distinction_report(clustered_table(), clustered_gold(), 0.70)
        assert report.score == 1.0
        assert report.covered_pairs == 9  # 3 x 3 cross pairs

    def test_identical_vectors_score_zero(self):
        table = table_from(["a1", "b1"], [[1, 1], [1, 1]])
        classes = [GoldClass("ca", ("a1", "x")), GoldClass("cb", ("b1", "y"))]
        report = distinction_report(table, classes, 0.80)
        assert report.score == 0.0

    def test_shared_word_generates_no_self_pair(self):
        table = table_from(["w", "a1", "b1"], [[1, 1], [1, 0], [0, 1]])
        classes = [GoldClass("ca", ("w", "a1")), GoldClass("cb", ("w", "b1"))]
        report = distinction_report(table, classes, 0.5)
        # pairs involving w are dropped entirely: w shares a class with both
        # others, so the only pair is (a1, b1), and it is orthogonal
        assert (report.covered_pairs, report.passed, report.coverage) == (1, 1, 1.0)

    def test_pair_count_matches_brute_force(self):
        rng = np.random.default_rng(1)
        names = [f"w{i}" for i in range(12)]
        classes = [
            GoldClass("c1", tuple(names[0:5])),
            GoldClass("c2", tuple(names[4:9])),  # overlaps c1 on w4
            GoldClass("c3", tuple(names[9:12])),
        ]
        member_of = {}
        for cls in classes:
            for w in cls.members:
                member_of.setdefault(w, set()).add(cls.name)
        brute = set()
        for a in member_of:
            for b in member_of:
                if a < b and not member_of[a] & member_of[b]:
                    brute.add((a, b))
        table = EmbeddingTable(names, rng.normal(size=(12, 3)))
        assert distinction_report(table, classes, 0.5).covered_pairs == len(brute)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            distinction_report(clustered_table(), clustered_gold()[:1], 0.7)

    def test_monotone_in_threshold_true_negatives(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(20)]
        table = EmbeddingTable(words, rng.normal(size=(20, 4)))
        classes = [GoldClass("c1", tuple(words[:10])), GoldClass("c2", tuple(words[10:]))]
        # true-negative rate rises with the threshold, so score@high >= score@low
        scores = [distinction_report(table, classes, t).score for t in (0.3, 0.5, 0.8)]
        assert all(a <= b for a, b in zip(scores, scores[1:]))


class TestWordEquivalence:
    def test_identical_vectors_pass_strictest(self):
        table = table_from(["pq", "porque"], [[1, 2], [2, 4]])
        report = equivalence_report(table, [EquivalencePair("pq", "porque")], 0.95)
        assert report.score == 1.0

    def test_antipodal_vectors_fail(self):
        table = table_from(["pq", "porque"], [[1, 0], [-1, 0]])
        for threshold in (0.85, 0.95):
            report = equivalence_report(
                table, [EquivalencePair("pq", "porque")], threshold)
            assert report.score == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(40)]
        table = EmbeddingTable(words, rng.normal(size=(40, 3)))
        pairs = [EquivalencePair(words[i], words[i + 1]) for i in range(0, 40, 2)]
        low = equivalence_report(table, pairs, 0.85)
        high = equivalence_report(table, pairs, 0.95)
        assert high.score <= low.score

    def test_no_coverage_flags_undefined_score(self):
        report = equivalence_report(
            clustered_table(), [EquivalencePair("nope", "nada")], 0.85)
        assert report.coverage == 0.0
        assert report.covered_pairs == 0
        assert report.score is None


class TestTopologicalConsistency:
    def test_separated_clusters_score_one(self):
        report = topological_report(clustered_table(), clustered_gold())
        assert report.score == 1.0
        assert report.threshold is None
        assert report.covered_pairs == 6  # six words evaluated

    def test_matches_brute_force_on_random_labels(self):
        rng = np.random.default_rng(10)
        words = [f"w{i}" for i in range(24)]
        vectors = rng.normal(size=(24, 6))
        table = EmbeddingTable(words, vectors)
        classes = [
            GoldClass("c1", tuple(words[0:8])),
            GoldClass("c2", tuple(words[8:16])),
            GoldClass("c3", tuple(words[16:24])),
        ]
        word_classes = {w: {c.name} for c in classes for w in c.members}
        evaluated, passed = oracle_topological(words, [list(v) for v in vectors],
                                               word_classes)
        report = topological_report(table, classes)
        assert report.covered_pairs == evaluated
        assert report.passed == passed

    def test_invariant_under_per_vector_scaling(self):
        rng = np.random.default_rng(11)
        words = [f"w{i}" for i in range(18)]
        vectors = rng.normal(size=(18, 5))
        classes = [GoldClass("c1", tuple(words[:9])), GoldClass("c2", tuple(words[9:]))]
        base = topological_report(EmbeddingTable(words, vectors), classes)
        scales = rng.uniform(0.01, 100.0, size=18)[:, None]
        scaled = topological_report(EmbeddingTable(words, vectors * scales),
                                              classes)
        assert scaled.score == base.score

    def test_invariant_under_rotation(self):
        rng = np.random.default_rng(12)
        words = [f"w{i}" for i in range(16)]
        vectors = rng.normal(size=(16, 6))
        classes = [GoldClass("c1", tuple(words[:8])), GoldClass("c2", tuple(words[8:]))]
        base = topological_report(EmbeddingTable(words, vectors), classes)
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        rotated = topological_report(EmbeddingTable(words, vectors @ q), classes)
        assert rotated.score == base.score

    def test_words_without_peers_are_skipped(self):
        words = ["a1", "a2", "b1", "b2", "solo"]
        vectors = [[1, 0], [1, 0.1], [0, 1], [0.1, 1], [1, 1]]
        classes = [GoldClass("ca", ("a1", "a2")), GoldClass("cb", ("b1", "b2")),
                   GoldClass("cs", ("solo", "missing"))]
        report = topological_report(table_from(words, vectors), classes)
        assert report.covered_pairs == 4  # "solo" has no covered same-class peer

    def test_precondition_two_covered_classes(self, caplog):
        table = table_from(["a1", "a2"], [[1, 0], [0, 1]])
        classes = [GoldClass("ca", ("a1", "a2")), GoldClass("cb", ("x", "y"))]
        with caplog.at_level(logging.WARNING):
            assert suite(table, classes) == []
        assert caplog.messages == [
            "topological consistency not run: topological consistency needs "
            ">= 2 classes with >= 2 covered members"]


class TestZeroVectors:
    def test_zero_vector_pairs_excluded_and_counted(self):
        table = table_from(["a1", "a2", "a3"], [[1, 0], [0, 0], [1, 0.1]])
        report = membership_report(table, [GoldClass("ca", ("a1", "a2", "a3"))], 0.7)
        assert report.excluded_zero_vectors == 2  # (a1,a2) and (a2,a3)
        assert report.covered_pairs == 1

    def test_all_zero_flags_undefined(self):
        table = table_from(["a1", "a2"], [[0, 0], [0, 0]])
        report = membership_report(table, [GoldClass("ca", ("a1", "a2"))], 0.7)
        assert report.score is None
        assert report.excluded_zero_vectors == 1


class TestReportFiles:
    def make_reports(self):
        return suite(clustered_table(), clustered_gold(), membership=[0.70],
                     distinction=[0.80])

    def test_round_trip(self, tmp_path):
        reports = self.make_reports()
        manifest = {"run": "unit-test", "seed": 1}
        json_path = tmp_path / "report.json"
        emit_report(reports, manifest, json_path, tmp_path / "report.txt")
        loaded_manifest, loaded = read_report(json_path)
        assert loaded_manifest == manifest
        assert loaded == reports

    def test_text_table_alignment(self, tmp_path):
        reports = self.make_reports()
        text = format_report_table(reports)
        lines = text.splitlines()
        assert lines[0].startswith("test")
        assert len(lines) == len(reports) + 1
        assert "n/a" in lines[3]  # topological row has no threshold

    def test_empty_reports_keep_manifest(self, tmp_path):
        json_path = tmp_path / "report.json"
        emit_report([], {"note": "nothing ran"}, json_path)
        manifest, reports = read_report(json_path)
        assert manifest == {"note": "nothing ran"}
        assert reports == []

    def test_single_report_single_row(self, tmp_path):
        report = self.make_reports()[0]
        json_path = tmp_path / "report.json"
        emit_report([report], {}, json_path)
        _, loaded = read_report(json_path)
        assert loaded == [report]

    def test_undefined_score_round_trips(self, tmp_path):
        report = EvalReport("word_equivalence", 0.85, 0.0, 0, 0, None, 0)
        json_path = tmp_path / "report.json"
        emit_report([report], {}, json_path)
        _, loaded = read_report(json_path)
        assert loaded[0].score is None


class TestBundledGold:
    def test_twitter_classes_fixture_shape(self):
        classes = load_gold_classes(DEFAULT_CLASSES_FILE)
        sizes = {c.name: len(c.members) for c in classes}
        assert sizes == {
            "smileys": 13, "months": 12, "countries": 6,
            "names": 19, "surnames": 14, "cities": 9,
        }

    def test_members_are_normalized_single_tokens(self):
        for cls in load_gold_classes(DEFAULT_CLASSES_FILE):
            for word in cls.members:
                assert word == word.lower()
                assert not any(ch.isspace() for ch in word)

    def test_equivalence_fixture_has_48_pairs(self):
        pairs = load_equivalence_pairs(DEFAULT_PAIRS_FILE)
        assert len(pairs) == 48
        assert all(p.left != p.right for p in pairs)


class TestStandardSuite:
    def test_runs_all_tests_at_default_thresholds(self):
        table = clustered_table()
        pairs = [EquivalencePair("a1", "a2"), EquivalencePair("zz", "qq")]
        reports = run_standard_suite(table, clustered_gold(), pairs)
        names = [(r.name, r.threshold) for r in reports]
        assert names == [
            ("class_membership", 0.70), ("class_membership", 0.80),
            ("class_distinction", 0.70), ("class_distinction", 0.80),
            ("word_equivalence", 0.85), ("word_equivalence", 0.95),
            ("topological_consistency", None),
        ]

    def test_threshold_monotonicity_across_suite(self):
        rng = np.random.default_rng(9)
        words = [f"w{i}" for i in range(30)]
        table = EmbeddingTable(words, rng.normal(size=(30, 4)))
        classes = [GoldClass("c1", tuple(words[:15])), GoldClass("c2", tuple(words[15:]))]
        pairs = [EquivalencePair(words[i], words[i + 1]) for i in range(0, 30, 2)]
        reports = run_standard_suite(table, classes, pairs)
        by_name = {}
        for r in reports:
            if r.threshold is not None and r.score is not None:
                by_name.setdefault(r.name, []).append((r.threshold, r.score))
        for name, scored in by_name.items():
            scored.sort()
            if name == "class_distinction":
                assert all(a[1] <= b[1] for a, b in zip(scored, scored[1:]))
            else:
                assert all(a[1] >= b[1] for a, b in zip(scored, scored[1:]))


def random_suite_case(seed):
    """A table over part of a 24-word pool (plus one word in no gold file),
    some of its rows all-zero; 2-4 overlapping classes; equivalence pairs
    with repeats and words missing from the table. Vectors are continuous
    random draws, so no two cosines tie."""
    rng = np.random.default_rng(seed)
    pool = [f"w{i:02d}" for i in range(24)]
    classes = {f"c{c}": tuple(rng.choice(pool, size=int(rng.integers(2, 8)), replace=False))
               for c in range(int(rng.integers(2, 5)))}
    pairs = [tuple(rng.choice(pool, size=2, replace=False))
             for _ in range(int(rng.integers(1, 10)))]
    pairs += pairs[:int(rng.integers(0, 3))]
    words = [w for w in pool if rng.random() < 0.8] + ["outsider"]
    vectors = rng.normal(size=(len(words), int(rng.integers(2, 7))))
    vectors[rng.random(len(words)) < 0.1] = 0.0
    thresholds = [tuple(rng.uniform(0.05, 0.95, size=2)) for _ in range(3)]
    return words, vectors, classes, pairs, thresholds


@pytest.mark.parametrize("first_seed", range(0, 400, 100))
def test_suite_matches_pair_loop_oracle(first_seed):
    for seed in range(first_seed, first_seed + 100):
        words, vectors, classes, pairs, thresholds = random_suite_case(seed)
        table = EmbeddingTable(words, vectors)
        gold = [GoldClass(name, members) for name, members in classes.items()]
        equivalence = [EquivalencePair(a, b) for a, b in pairs]
        try:
            expected = oracle_suite(words, vectors.tolist(), classes, pairs, *thresholds)
        except ZeroDivisionError:  # a test with no pairs at all
            with pytest.raises(ValueError):
                run_standard_suite(table, gold, equivalence, *thresholds)
            continue
        got = run_standard_suite(table, gold, equivalence, *thresholds)
        assert [astuple(r) for r in got] == expected, seed
