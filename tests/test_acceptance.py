"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to watch the lines
stream).  Every tolerance is pinned here; nothing is deferred to later
calibration.
"""

from __future__ import annotations

import dataclasses
import inspect
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

import pytest

from rbc.adversary import OffsetGuessAlice, optimal_flip_success, run_attack
from rbc.analysis import capacity_report
from rbc.codec import commit_round
from rbc.netsim import CausalView, HonestAlice, SimResult, simulate
from rbc.rng import Stream
from rbc.spacetime import ProtocolParams, round_window, unveil_deadline
from rbc.transcript_io import parse_transcript, serialize_transcript
from rbc.verifier import verify

from conftest import ShortAnswer, decision_view, replay_decisions, three_sigma
from mutations import (EPS, with_pair, with_revealed, with_round, with_unveil,
                       with_value)

GRID_MS = (2, 3, 4)
GRID_ROUNDS = (1, 2, 3, 4, 5)
GRID_SEEDS = 20
FUZZ_MUTATIONS = 10_000
MC_TRIALS = 10_000
SERIAL_TRANSCRIPTS = 1_000


def report(number: int, name: str, ok: bool, note: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({note})" if note else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}", file=sys.__stdout__)
    assert ok, f"criterion {number} ({name}) failed: {note}"


class HonestRun(NamedTuple):
    """An honest simulate run with the bit and rounds it was given."""

    bit: int
    rounds: int
    result: SimResult

    @property
    def transcript(self):
        return self.result.transcript


def honest_run(params, rounds, bit, alice_seed, bob_seed) -> HonestRun:
    return HonestRun(bit, rounds,
                     simulate(params, rounds, bit, alice_seed, bob_seed))


@pytest.fixture(scope="module")
def grid_results():
    """All (m, R, bit, seed) honest runs of the completeness grid."""
    started = time.perf_counter()
    results = []
    for m in GRID_MS:
        params = ProtocolParams(m, "1", "0.005", "0.01")
        for rounds in GRID_ROUNDS:
            for bit in (0, 1):
                for seed in range(GRID_SEEDS):
                    results.append(honest_run(params, rounds, bit,
                                              seed * 1013 + rounds,
                                              seed * 2027 + m))
    return results, time.perf_counter() - started


@pytest.fixture(scope="module")
def fuzz_pool():
    """Honest runs used as mutation targets for the soundness criterion."""
    pool = []
    for m in GRID_MS:
        params = ProtocolParams(m, "1", "0.005", "0.01")
        for rounds in (1, 2, 3, 4):
            for seed in (11, 12):
                pool.append(honest_run(params, rounds, 1 - rounds % 2,
                                       seed + rounds, 31 * seed + m))
    return pool


def test_criterion_1_completeness_grid(grid_results):
    results, build_seconds = grid_results
    started = time.perf_counter()
    failures = []
    for run in results:
        verdict = verify(run.transcript)
        if not (verdict.accepted and verdict.bit == run.bit):
            failures.append((run.transcript.params.m, run.rounds, run.bit,
                             verdict))
    elapsed = build_seconds + (time.perf_counter() - started)
    ok = not failures and elapsed < 60
    report(1, "completeness grid", ok,
           f"{len(results)} runs, {elapsed:.1f}s, {len(failures)} failures")


def test_criterion_2_exact_hiding():
    unequal = 0
    pairs_checked = 0
    for m in GRID_MS:
        modulus = 1 << m
        for n0, n1 in permutations(range(modulus), 2):
            pairs, keys = [(n0, n1)] * modulus, list(range(modulus))
            dist0 = Counter(commit_round([0] * modulus, pairs, keys, modulus))
            dist1 = Counter(commit_round([1] * modulus, pairs, keys, modulus))
            pairs_checked += 1
            if dist0 != dist1 or set(dist0.values()) != {1}:
                unequal += 1
    report(2, "exact hiding", unequal == 0,
           f"{pairs_checked} pairs enumerated exhaustively")


def test_criterion_3_binding_vs_oracle():
    params = ProtocolParams(2, "1", "0.005", "0.01")
    oracle = optimal_flip_success(2, 1)
    outcome = run_attack(params, 1, "offset-guess", MC_TRIALS, 2024)
    tolerance = three_sigma(oracle, MC_TRIALS)
    gap = abs(float(outcome.success_rate) - float(oracle))
    bounded = all(optimal_flip_success(m, r) <= Fraction(2, 1 << m)
                  for m in (2, 3) for r in (1, 2, 3))
    ok = oracle == Fraction(1, 3) and gap <= tolerance and bounded
    report(3, "binding vs oracle", ok,
           f"oracle 1/3, MC {float(outcome.success_rate):.4f}, "
           f"gap {gap:.4f} <= 3sigma {tolerance:.4f}, all instances <= 2/N")


def test_criterion_4_capacity_estimate():
    rounds = capacity_report(10, "0.1", "0.00001", "0.0001", "1e11").max_rounds
    report(4, "capacity estimate", 8 <= rounds <= 12,
           f"max practical rounds = {rounds}, band [8, 12]")


def _value_mutations(pool, rng, count):
    """Random single-value mutations; returns per-m (trials, accepted)."""
    stats: dict[int, list[int]] = {m: [0, 0] for m in GRID_MS}
    for i in range(count):
        res = pool[rng.below(len(pool))]
        t = res.transcript
        modulus = t.params.modulus
        if rng.bit():
            k = 1 + rng.below(len(t.rounds))
            j = rng.below(len(t.rounds[k - 1].values))
            old = t.rounds[k - 1].values[j]
            mutated = with_value(t, k, j, (old + 1 + rng.below(modulus - 1)) % modulus)
        else:
            j = rng.below(len(t.unveils[0].revealed))
            old = t.unveils[0].revealed[j]
            mutated = with_revealed(t, j, (old + 1 + rng.below(modulus - 1)) % modulus)
        stats[t.params.m][0] += 1
        if verify(mutated).accepted:
            stats[t.params.m][1] += 1
    return stats


def _timing_mutation(t, rng, variant):
    params = t.params
    last = t.rounds[-1].round
    k = 1 + rng.below(len(t.rounds))
    start, end, response_end = round_window(params, k)
    if variant == 0:
        return with_round(t, k, challenge_start=start - EPS)
    if variant == 1:
        return with_round(t, k, challenge_end=end + EPS)
    if variant == 2:
        return with_round(t, k, response_end=response_end + EPS)
    deadline = unveil_deadline(params, last)
    return with_unveil(t, completes_at=deadline if variant == 3 else deadline + EPS)


def _site_mutation(t, rng):
    if rng.bit():
        return with_unveil(t, site=3 - t.unveils[0].site)
    k = 1 + rng.below(len(t.rounds))
    return with_round(t, k, site=3 - t.rounds[k - 1].site)


def _shape_mutation(t, rng, variant):
    if variant == 0:
        k = 1 + rng.below(len(t.rounds))
        rec = t.rounds[k - 1]
        return with_round(t, k, values=rec.values[:-1]), "count_mismatch"
    if variant == 1:
        return (with_unveil(t, revealed=t.unveils[0].revealed[:-1]),
                "count_mismatch")
    if variant == 2:
        k = 1 + rng.below(len(t.rounds))
        rec = t.rounds[k - 1]
        return with_round(t, k, pairs=rec.pairs + rec.pairs[-1:]), "count_mismatch"
    k = 1 + rng.below(len(t.rounds))
    j = rng.below(len(t.rounds[k - 1].pairs))
    n0 = t.rounds[k - 1].pairs[j][0]
    return with_pair(t, k, j, (n0, n0)), "duplicate_pair_members"


def test_criterion_5_soundness_fuzzing(fuzz_pool):
    rng = Stream(777)
    value_count = 4_000
    timing_count = 3_000
    site_count = 1_500
    shape_count = FUZZ_MUTATIONS - value_count - timing_count - site_count

    value_stats = _value_mutations(fuzz_pool, rng, value_count)
    value_ok = True
    value_notes = []
    for m, (trials, accepted) in value_stats.items():
        p = 2 / (1 << m)
        bound = p + three_sigma(p, trials)
        rate = accepted / trials
        value_notes.append(f"m={m}: {rate:.3f}<={bound:.3f}")
        if rate > bound:
            value_ok = False

    hard_failures = 0
    for i in range(timing_count):
        t = fuzz_pool[rng.below(len(fuzz_pool))].transcript
        verdict = verify(_timing_mutation(t, rng, i % 5))
        if verdict.accepted or verdict.reason != "timing_violation":
            hard_failures += 1
    for i in range(site_count):
        t = fuzz_pool[rng.below(len(fuzz_pool))].transcript
        verdict = verify(_site_mutation(t, rng))
        if verdict.accepted or verdict.reason != "site_mismatch":
            hard_failures += 1
    for i in range(shape_count):
        t = fuzz_pool[rng.below(len(fuzz_pool))].transcript
        mutated, expected = _shape_mutation(t, rng, i % 4)
        verdict = verify(mutated)
        if verdict.accepted or verdict.reason != expected:
            hard_failures += 1

    ok = value_ok and hard_failures == 0
    report(5, "soundness fuzzing", ok,
           f"{FUZZ_MUTATIONS} mutations; hard rejects 100% "
           f"({timing_count + site_count + shape_count} cases), value accepts "
           + ", ".join(value_notes))


def test_criterion_6_causality_replay(grid_results, fuzz_pool):
    results, _ = grid_results
    replayed = 0
    for run in results + fuzz_pool:
        replay_decisions(run.result, HonestAlice(), run.bit, run.rounds)
        replayed += 1
    params = ProtocolParams(2, "1", "0.005", "0.01")
    for rounds in (1, 2, 3):
        strategy = OffsetGuessAlice()
        res = simulate(params, rounds, 0, 3 + rounds, 17, strategy=strategy)
        replay_decisions(res, strategy, 0, rounds)
        replayed += 1

    # API level: a strategy sees a frozen view of filtered messages and its
    # pre-shared private inputs, nothing else.
    view_fields = {f.name for f in dataclasses.fields(CausalView)}
    api_ok = view_fields == {"site", "now", "messages"}
    respond_params = list(inspect.signature(HonestAlice.respond).parameters)
    api_ok = api_ok and respond_params == ["self", "view", "k", "priv"]
    for run in results[:50]:
        for decision in run.result.decisions:
            for msg in decision_view(run.result, decision).messages:
                api_ok = api_ok and (msg.destination == decision.site
                                     and msg.earliest_arrival <= decision.time)
    report(6, "causality replay", api_ok,
           f"{replayed} transcripts replayed from causal views alone")


def test_criterion_7_serialization(grid_results):
    results, _ = grid_results
    transcripts = [res.transcript for res in results]
    extra_geometries = [
        ("0.5", "0.004", "0.008"),
        ("2", "0.01", "0.02"),
        (Fraction(1, 3), Fraction(1, 400), Fraction(1, 300)),
        ("10", "0.5", "0.9"),
    ]
    seed = 0
    while len(transcripts) < 850:
        dx, delta, dt = extra_geometries[seed % len(extra_geometries)]
        params = ProtocolParams(2 + seed % 3, dx, delta, dt)
        transcripts.append(simulate(params, 1 + seed % 3, seed % 2,
                                    seed, seed + 1).transcript)
        seed += 1
    params = ProtocolParams(2, "1", "0.005", "0.01")
    while len(transcripts) < 950:
        transcripts.append(simulate(params, 2, 1, seed, seed ^ 0xFF,
                                    dual_unveil=True).transcript)
        seed += 1
    while len(transcripts) < 975:
        transcripts.append(simulate(params, 2, 0, seed, seed + 2,
                                    strategy=ShortAnswer()).transcript)
        seed += 1
    while len(transcripts) < SERIAL_TRANSCRIPTS:
        transcripts.append(simulate(params, 2, 0, seed, seed + 3,
                                    strategy=OffsetGuessAlice()).transcript)
        seed += 1

    bad = 0
    for t in transcripts:
        text = serialize_transcript(t)
        parsed = parse_transcript(text)
        if parsed != t or serialize_transcript(parsed) != text:
            bad += 1
    report(7, "serialization round-trip", bad == 0,
           f"{len(transcripts)} transcripts byte-identical")
