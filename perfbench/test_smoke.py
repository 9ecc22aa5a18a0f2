"""Smoke test of the benchmark itself (python3 -m pytest perfbench -q).

Runs every workload at pocket size in both modes and checks that the
result line carries exactly the metrics BENCHMARK.json names, each with
its unit; and that the output checker catches a dataset the program
itself accepts.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("traced", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, traced):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", traced, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if traced == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    if traced == "1":
        # Leaving count_ngrams untraced drops corpus_bound to about 0.7.
        assert 0.8 < values["trace.accounted_ratio"] <= 1.0
        assert values["trace.overhead_ratio"] > 0
    else:
        assert values["pipeline_s"] > 0 and values["setup_s"] > 0


def test_missing_program_fails_without_a_result(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    lone = tmp_path / "perfbench"
    lone.mkdir()
    for path in HERE.glob("*.py"):
        (lone / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(lone / "run.py"), "--workload", "train_bound",
                           "--seed", "1", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_checker_fails_a_negative_context_id(tmp_path):
    dataset = tmp_path / "dataset.tsv"
    dataset.write_text(
        "#vocab_size=3\t#vocab_hash=x\t#seed=13\t#validation_ratio=0.1\t#fraction=1.0"
        "\t#validation=1\t#train=2\n"
        "0\t1\t2\t3\t0\n"
        "-1\t1\t2\t0\t1\n"
        "0\t1\t2\t6\t2\n",
        encoding="utf-8")
    errors = checks.check_dataset(dataset, 3)
    assert any("context id" in e for e in errors)
    # train reads the file (negative ids wrap around in numpy indexing);
    # whatever it returns, the benchmark counts the dataset stage as failed.
    rc = run.call_cli(["train", str(dataset), "--out-checkpoint", str(tmp_path / "m.ckpt"),
                       "--out-log", str(tmp_path / "log.tsv"), "--epochs", "1"])
    assert run.failed_stages({"dataset": 0, "train": rc}, {"dataset": errors}) >= {"dataset"}


def test_uninstall_restores_every_binding():
    from tweetembed import cli, corpus, training

    originals = (cli.count_ngrams, training.backward_arrays, training.adam_step)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.count_ngrams is not originals[0]
    tracer.uninstall()
    assert (cli.count_ngrams, training.backward_arrays, training.adam_step) == originals
    assert cli.count_ngrams is corpus.count_ngrams


def test_every_layer_metric_names_what_it_should_move():
    moves = json.loads((HERE / "moves.json").read_text(encoding="utf-8"))
    assert list(moves) == [m["name"] for m in SPEC["per_layer"]]
    assert all(moves.values())
