from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb

import pytest

from rbc.adversary import (_ORACLE_MAX_BITS, OffsetGuessAlice,
                           OracleBudgetError, _oracle_bits,
                           optimal_flip_success, run_attack)
from rbc.codec import binary_forms
from rbc.netsim import simulate
from rbc.spacetime import ProtocolParams
from rbc.verifier import verify

from conftest import CommittedBitGuess, decision_view, replay_decisions
from mutations import with_unveil


def three_sigma(p: Fraction, n: int) -> float:
    return 3 * (float(p) * (1 - float(p)) / n) ** 0.5


# Exhaustive references for the oracle's two pieces: the per-position
# optimum over every (true key, guessed reveal), and the flip weight over
# every (key, used member, other member).

@cache
def position_flip_probability_by_enumeration(modulus: int) -> Fraction:
    best = 0
    for key in range(modulus):
        for guess in range(modulus):
            hits = 0
            for used in range(modulus):
                for other in range(modulus):
                    if other != used and (used + key - guess) % modulus == other:
                        hits += 1
            best = max(best, hits)
    return Fraction(best, modulus * (modulus - 1))


@cache
def flip_weights_by_pair_enumeration(m: int) -> dict[int, Fraction]:
    modulus = 1 << m
    counts: dict[int, int] = {}
    for key in range(modulus):
        for used in range(modulus):
            for other in range(modulus):
                if other == used:
                    continue
                forced = (key + used - other) % modulus
                weight = bin(key ^ forced).count("1")
                counts[weight] = counts.get(weight, 0) + 1
    total = modulus * modulus * (modulus - 1)
    return {w: Fraction(c, total) for w, c in counts.items()}


# Independent reference for the oracle's composition step: level-by-level
# convolution of the flip chain's Hamming-weight distributions.

def _convolve(a: dict[int, Fraction], b: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for ha, pa in a.items():
        for hb, pb in b.items():
            out[ha + hb] = out.get(ha + hb, Fraction(0)) + pa * pb
    return out


def convolution_flip_success(m: int, last_round: int) -> Fraction:
    q = position_flip_probability_by_enumeration(1 << m)
    if last_round == 1:
        return q

    weight_dist = flip_weights_by_pair_enumeration(m)
    level_dist = dict(weight_dist)
    for _ in range(3, last_round + 1):
        # Each flipped number at the previous level forces an independent
        # flip pattern at this level; convolve per weight.
        powers: dict[int, dict[int, Fraction]] = {0: {0: Fraction(1)}}
        acc: dict[int, Fraction] = {}
        running = {0: Fraction(1)}
        for h in range(1, max(level_dist) + 1):
            running = _convolve(running, weight_dist)
            powers[h] = running
        for h, p in level_dist.items():
            for total, pt in powers[h].items():
                acc[total] = acc.get(total, Fraction(0)) + p * pt
        level_dist = acc

    return sum((p * q ** h for h, p in level_dist.items()), Fraction(0))


# The enumerating oracle's fitted cost estimate and its two limits, which
# set what was computed and what run_attack attached before the size bound.
ENUMERATION_MAX_OPS = 10 ** 8
ENUMERATION_ATTACH_OPS = 5 * 10 ** 6


def enumeration_cost_estimate(m: int, last_round: int) -> int:
    if last_round == 1:
        return 0
    modulus = 1 << m
    est = 3 * modulus * (modulus - 1)
    bits = m
    for _ in range(last_round - 1):
        bits = m * bits + m
        est += m * bits * bits // (1 << 16)
    return est


class TestOracle:
    def test_single_round_is_uniform_offset_guess(self):
        # the needed offset is uniform over the N-1 nonzero residues
        assert optimal_flip_success(2, 1) == Fraction(1, 3)
        assert optimal_flip_success(3, 1) == Fraction(1, 7)
        # a closed form at any protocol m
        for m in (8, 16, 64):
            assert optimal_flip_success(m, 1) == Fraction(1, 2 ** m - 1)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_position_optimum_matches_enumeration(self, m):
        assert optimal_flip_success(m, 1) == \
            position_flip_probability_by_enumeration(1 << m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_flip_weights_match_pair_enumeration(self, m):
        # the identity the closed form rests on: the weight is binomial
        assert flip_weights_by_pair_enumeration(m) == \
            {w: Fraction(comb(m, w), (1 << m) - 1) for w in range(1, m + 1)}

    def test_two_rounds_exact_values(self):
        assert optimal_flip_success(2, 2) == Fraction(7, 27)
        assert optimal_flip_success(3, 2) == Fraction(169, 2401)

    def test_three_rounds_exact_value(self):
        assert optimal_flip_success(2, 3) == Fraction(427, 2187)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bounded_by_two_over_modulus(self, m):
        for rounds in range(1, 7):
            assert optimal_flip_success(m, rounds) <= Fraction(2, 1 << m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_monotone_non_increasing_in_rounds(self, m):
        values = [optimal_flip_success(m, r) for r in range(1, 7)]
        assert values == sorted(values, reverse=True)
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("m, rounds",
                             [(m, r) for m in (2, 3, 4) for r in range(1, 6)]
                             + [(5, r) for r in range(1, 4)])
    def test_composition_matches_convolution_reference(self, m, rounds):
        assert optimal_flip_success(m, rounds) == convolution_flip_success(m, rounds)

    def test_benchmark_grid_fits_default_budget(self):
        for m, rounds in ((6, 1), (6, 2), (5, 5), (3, 7)):
            assert _oracle_bits(m, rounds) <= _ORACLE_MAX_BITS

    def test_every_instance_attached_before_still_attaches(self):
        # run_attack now attaches exactly what the size bound computes
        for m in range(2, 65):
            for rounds in range(1, 21):
                estimate = enumeration_cost_estimate(m, rounds)
                computed = _oracle_bits(m, rounds) <= _ORACLE_MAX_BITS
                if estimate <= ENUMERATION_ATTACH_OPS:
                    assert computed, "attached before"
                if estimate <= ENUMERATION_MAX_OPS:
                    assert computed, "computed before"

    def test_size_bound_bounds_the_denominator(self):
        for m in range(2, 9):
            rounds = 1
            while _oracle_bits(m, rounds) <= 1 << 18:
                value = optimal_flip_success(m, rounds)
                assert value.denominator.bit_length() <= _oracle_bits(m, rounds)
                rounds += 1

    def test_budget_refusal_carries_estimate(self):
        # just past the bound at m = 2 and m = 4, and m past 2^20 at R = 1
        for m, rounds in ((2, 20), (4, 10), ((1 << 20) + 1, 1)):
            with pytest.raises(OracleBudgetError) as err:
                optimal_flip_success(m, rounds)
            assert err.value.estimated_bits > err.value.max_bits == _ORACLE_MAX_BITS
            assert str(err.value.estimated_bits) in str(err.value)

    def test_rejects_degenerate_instances(self):
        with pytest.raises(ValueError):
            optimal_flip_success(1, 1)
        with pytest.raises(ValueError):
            optimal_flip_success(2, 0)


class TestForcedChain:
    def test_clairvoyant_forgery_verifies(self, params_m2):
        # Independent check of the chain math: with the real round-2 pairs in
        # hand (which causality forbids), the forced reveal must always open
        # the flipped bit.  Built directly from the honest transcript.
        for seed in range(10):
            t = simulate(params_m2, 2, 1, seed, seed + 50).transcript
            m, modulus = 2, 4
            tape2 = t.unveils[0].revealed
            r1, r2 = t.rounds
            forged_m1 = (r1.values[0] - r1.pairs[0][0]) % modulus
            target_bits = binary_forms([forged_m1], m)
            reveal = tuple((r2.values[j] - r2.pairs[j][b]) % modulus
                           for j, b in enumerate(target_bits))
            verdict = verify(with_unveil(t, revealed=reveal))
            assert verdict.accepted and verdict.bit == 0

    def test_no_flip_positions_reveal_true_keys(self, params_m2):
        # targeting the committed bit itself needs no flips at all
        res = simulate(params_m2, 2, 1, 3, 4, strategy=CommittedBitGuess())
        assert res.transcript.unveils[0].revealed == \
            simulate(params_m2, 2, 1, 3, 4).transcript.unveils[0].revealed
        assert verify(res.transcript).bit == 1


class TestMonteCarlo:
    def test_rate_matches_oracle_m2_r1(self, params_m2):
        outcome = run_attack(params_m2, 1, "offset-guess", 2000, 101)
        assert outcome.oracle_rate == Fraction(1, 3)
        assert abs(float(outcome.success_rate) - 1 / 3) <= three_sigma(Fraction(1, 3), 2000)

    def test_rate_matches_oracle_m2_r2(self, params_m2):
        outcome = run_attack(params_m2, 2, "offset-guess", 2000, 102)
        assert outcome.oracle_rate == Fraction(7, 27)
        assert abs(float(outcome.success_rate) - 7 / 27) <= three_sigma(Fraction(7, 27), 2000)

    def test_rate_matches_oracle_m2_r3(self, params_m2):
        outcome = run_attack(params_m2, 3, "offset-guess", 1500, 106)
        assert outcome.oracle_rate == Fraction(427, 2187)
        assert abs(float(outcome.success_rate) - 427 / 2187) <= \
            three_sigma(Fraction(427, 2187), 1500)

    def test_rate_matches_oracle_m3_r2(self):
        p = ProtocolParams(3, "1", "0.005", "0.01")
        outcome = run_attack(p, 2, "offset-guess", 1000, 107)
        assert outcome.oracle_rate == Fraction(169, 2401)
        assert abs(float(outcome.success_rate) - 169 / 2401) <= \
            three_sigma(Fraction(169, 2401), 1000)

    def test_rate_bounded_for_wider_modulus(self):
        p = ProtocolParams(4, "1", "0.005", "0.01")
        outcome = run_attack(p, 2, "offset-guess", 2000, 105)
        bound = 2 / 16
        assert float(outcome.success_rate) <= bound + three_sigma(
            Fraction(2, 16), 2000)

    def test_oracle_attached_at_m4_r6(self):
        p = ProtocolParams(4, "1", "0.005", "0.01")
        outcome = run_attack(p, 6, "offset-guess", 1, 108)
        assert outcome.oracle_rate == optimal_flip_success(4, 6)

    @pytest.mark.parametrize("m, rounds, attached",
                             [(16, 3, True), (31, 4, True), (32, 4, False)])
    def test_oracle_attached_exactly_within_size_bound(self, m, rounds, attached):
        # (31,4) needs at most 954,304 bits, (32,4) 1,082,400
        p = ProtocolParams(m, "1", "0.005", "0.01")
        outcome = run_attack(p, rounds, "offset-guess", 1, 109)
        assert outcome.oracle_rate == (optimal_flip_success(m, rounds)
                                       if attached else None)

    def test_honest_relabel_always_succeeds(self, params_m2):
        outcome = run_attack(params_m2, 2, "honest-relabel", 100, 103)
        assert outcome.success_rate == 1
        assert outcome.oracle_rate == 1

    def test_outcome_json_shape(self, params_m2):
        obj = run_attack(params_m2, 1, "offset-guess", 50, 104).to_json_obj()
        assert obj["strategy"] == "offset-guess"
        assert obj["trials"] == 50
        assert 0 <= obj["success_rate"] <= 1
        assert obj["oracle_rate_exact"] == "1/3"

    def test_unknown_strategy_rejected(self, params_m2):
        with pytest.raises(ValueError):
            run_attack(params_m2, 1, "mind-reading", 10, 1)

    def test_no_trials_rejected(self, params_m2):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_attack(params_m2, 1, "offset-guess", 0, 1)

    @pytest.mark.parametrize("trials, seed, message", [
        (2.5, 1, "trials must be an int, got 2.5"),
        (True, 1, "trials must be an int, got True"),
        (1, 1.0, "seed must be an int, got 1.0"),
        (1, True, "seed must be an int, got True")])
    def test_non_int_trials_and_seed_refused(self, params_m2, trials, seed,
                                             message):
        with pytest.raises(ValueError, match=message):
            run_attack(params_m2, 1, "offset-guess", trials, seed)

    def test_oracle_past_its_budget_left_out(self):
        # (16, 5) is past the oracle's size bound but inside the tape bound
        with pytest.raises(OracleBudgetError):
            optimal_flip_success(16, 5)
        params = ProtocolParams(16, "1", "0.005", "0.01")
        outcome = run_attack(params, 5, "offset-guess", 1, 1)
        assert outcome.trials == 1 and outcome.oracle_rate is None
        assert outcome.to_json_obj()["oracle_rate"] is None

    def test_negative_seed_accepted(self, params_m2):
        outcome = run_attack(params_m2, 1, "offset-guess", 3, -1)
        assert outcome.trials == 3 and outcome.oracle_rate == Fraction(1, 3)

    def test_successes_pinned(self, params_m2):
        # exact count, so a clock or scheduling change that flips even one
        # trial shows; the rate tests above only bound it within 3 sigma
        assert run_attack(params_m2, 3, "offset-guess", 1500, 106).successes == 299

    def test_reproducible(self, params_m2):
        a = run_attack(params_m2, 1, "offset-guess", 300, 7)
        b = run_attack(params_m2, 1, "offset-guess", 300, 7)
        assert a == b


class TestCausalConfinement:
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4])
    def test_attack_decisions_replay_from_views(self, params_m2, rounds):
        strategy = OffsetGuessAlice()
        res = simulate(params_m2, rounds, 0, 11, 12, strategy=strategy)
        replay_decisions(res, strategy, 0, rounds)

    def test_attack_replay_with_zero_delays(self):
        p = ProtocolParams(2, "1", 0, "0.01")
        strategy = OffsetGuessAlice()
        res = simulate(p, 3, 1, 21, 22, strategy=strategy)
        replay_decisions(res, strategy, 1, 3)

    def test_unveiler_view_excludes_last_round(self, params_m2):
        res = simulate(params_m2, 3, 0, 11, 12, strategy=OffsetGuessAlice())
        (unveil,) = [d for d in res.decisions if d.kind == "unveil"]
        view = decision_view(res, unveil)
        assert view.challenge_for(3) is None
        assert view.record_for(3) is None
        # everything through round R-1 is available
        assert view.challenge_for(2) is not None
        assert view.record_for(1) is not None

    def test_attack_with_late_unveil_mutation_rejected(self, params_m2):
        from rbc.spacetime import unveil_deadline
        res = simulate(params_m2, 1, 1, 5, 6, strategy=OffsetGuessAlice())
        late = with_unveil(res.transcript,
                           completes_at=unveil_deadline(params_m2, 1))
        assert verify(late).reason == "timing_violation"


def best_response_sum_binding(m: int) -> Fraction:
    """max p0 + p1 at R = 1 over every deterministic committer, by enumeration.

    The unveiler cannot see round 1's pair, so she fixes in advance the key
    kappa_b she reveals to open bit b.  The responder sees the pair
    (n0, n1), uniform over ordered distinct pairs, and answers the v that
    opens the most bits; bit b opens iff v - kappa_b == n_b (mod N).  Shared
    randomness is a mixture of such deterministic strategies, and p0 + p1 is
    linear in the mixture, so it cannot beat the best of them.
    """
    modulus = 1 << m
    pairs = list(permutations(range(modulus), 2))
    best = 0
    for k0, k1 in product(range(modulus), repeat=2):
        total = sum(max(((v - k0) % modulus == n0) + ((v - k1) % modulus == n1)
                        for v in range(modulus))
                    for n0, n1 in pairs)
        best = max(best, total)
    return Fraction(best, len(pairs))


class TestSumBinding:
    """p0 + p1 <= 1 + eps, the binding form of Lunghi et al. and of
    Chakraborty, Chailloux and Leverrier (PRL 2015), at R = 1."""

    @pytest.mark.parametrize("m, value", [(2, Fraction(4, 3)),
                                          (3, Fraction(8, 7)),
                                          (4, Fraction(16, 15))])
    def test_best_response_is_one_plus_flip_oracle(self, m, value):
        assert best_response_sum_binding(m) == value == 1 + optimal_flip_success(m, 1)
