"""Tests of the benchmark itself.

Each workload runs at a tiny size with its real checks, and each check is
shown to fail once the value it compares against is perturbed.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from bench_trace import NullTracer
from workloads import (Attack, CheckFailed, Hostile, Oracle, Pipeline,
                       require_near)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_GRID = ((2, 1), (2, 2), (3, 1))


@pytest.fixture(scope="module")
def api():
    return run.load_rbc()


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def tiny(api, name, seed=5):
    if name == "pipeline":
        return Pipeline(api, seed, m=3, rounds=3)
    if name == "attack":
        return Attack(api, seed, batch=20, check_batches=5)
    if name == "oracle":
        return Oracle(api, seed, grid=TINY_GRID)
    return Hostile(api, seed, bases=1)


def loop(wl, ops):
    wl.min_ops = ops
    stats = run.measure(wl, 0.0, lambda i: NullTracer())
    wl.finish()
    return stats


@pytest.mark.parametrize("name", ["pipeline", "attack", "oracle", "hostile"])
def test_tiny_workload_passes_its_checks(api, name):
    stats = loop(tiny(api, name), 3 if name != "hostile" else 300)
    assert stats["attempted"] >= 3
    if name != "hostile":
        assert stats["failed"] == 0


def test_times_are_scaled_to_reference_speed(api, monkeypatch):
    monkeypatch.setattr(run, "reference_work", lambda: 2 * run.REFERENCE_S)
    stats = loop(tiny(api, "attack"), 5)
    assert len(stats["scaled"][False]) == 5
    for raw, scaled in zip(stats["raw"][False], stats["scaled"][False]):
        assert scaled == pytest.approx(raw / 2)


def test_pipeline_pinned_transcript_hash(api):
    wl = tiny(api, "pipeline")
    assert wl.pinned_sha256 is not None
    wl.pinned_sha256 = "0" * 64
    with pytest.raises(CheckFailed, match="sha256"):
        loop(wl, 1)


def test_pipeline_committed_bit(api):
    wl = tiny(api, "pipeline")
    outcome = [step() for step in wl.steps(0, NullTracer())]
    wl.check(0, outcome)
    (ran, _), (verified, stdout) = outcome
    verdict = json.loads(stdout)
    verdict["bit"] = 1 - verdict["bit"]
    with pytest.raises(CheckFailed, match="verdict"):
        wl.check(0, [(ran, ""), (verified, json.dumps(verdict))])


def test_attack_pinned_oracle(api):
    wl = tiny(api, "attack")
    wl.oracle = Fraction(428, 2187)
    with pytest.raises(CheckFailed, match="oracle"):
        loop(wl, 1)


def test_attack_three_sigma_band(api):
    wl = tiny(api, "attack")
    loop(wl, 5)
    require_near(wl.successes, wl.checked, wl.oracle)
    with pytest.raises(CheckFailed, match="3 sigma"):
        require_near(wl.successes, wl.checked, Fraction(1, 2))


def test_oracle_pinned_values(api):
    wl = tiny(api, "oracle")
    wl.expected[1] += Fraction(1, 10 ** 9)
    with pytest.raises(CheckFailed, match="m=2 R=2"):
        loop(wl, 1)


def test_hostile_bases_must_accept(api):
    wl = tiny(api, "hostile")
    bit = wl.expected[0].split(":")[1]
    wl.expected[0] = f"accept:{1 - int(bit)}"
    with pytest.raises(CheckFailed, match="unmutated base 0"):
        loop(wl, 1)


def test_hostile_outcomes_repeat(api):
    wl = tiny(api, "hostile")
    loop(wl, len(wl.files))
    wl.outcomes[3] = "reject:bogus"
    with pytest.raises(CheckFailed, match="file 3"):
        loop(wl, len(wl.files) + 4)


def test_hostile_counts_crashes_as_failures(api):
    wl = tiny(api, "hostile")
    wl.files.append('{"format": ' + "9" * 4301 + "}")
    stats = loop(wl, len(wl.files))
    assert stats["failed"] >= 1
    assert stats["attempted"] == len(wl.files)


def test_hostile_counts_repeat_across_seeds(api):
    counts = []
    for seed in (5, 6):
        wl = tiny(api, "hostile", seed)
        stats = loop(wl, len(wl.files))
        counts.append((len(wl.files), stats["attempted"], stats["failed"]))
    assert counts[0] == counts[1]
    assert counts[0][1] == counts[0][0] and counts[0][2] > 0


def test_traced_run_reports_every_per_layer_metric(api):
    everyone = {name: tiny(api, name) for name in ("pipeline", "attack", "oracle", "hostile")}
    everyone["attack"].decompose_batches = 2
    stats, metrics = run.run_traced(everyone["hostile"], everyone, 0.0, seed=5)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]
                if not m["name"].startswith("adversary.oracle_s.")}
    declared.update({f"adversary.oracle_s.m{m}r{r}": "s" for m, r in TINY_GRID})
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert [f"m{m}r{r}" for m, r in Oracle.grid] == [
        m["name"].rsplit(".", 1)[1] for m in SPEC["per_layer"]
        if m["name"].startswith("adversary.oracle_s.")]
    assert stats["scaled"][True] and stats["scaled"][False]
    assert (Path(".perfbench") / "trace-hostile-seed5.jsonl").is_file()


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", "hostile", "--seed", "2",
                           "--seconds", "0.2", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "attack",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
