"""Cheating-Alice strategies and an exact security oracle.

The threat model: both Alice agents collude with arbitrary pre-shared
classical state and relay what they learn at light speed, but the unveiler
acts strictly before round R's challenge information can reach her site.
To open the flipped bit she must therefore forge round R's keys against
pairs she cannot know.

The forged chain is forced: exactly one round-1 key opens the flipped bit,
which fixes the round-2 target bits, whose keys are again unique, and so on
(she can compute all of it from rounds 1..R-1, which are in her causal
view).  Only the round-R positions whose target bit differs from the truth
are uncertain: each needs a key offset matching the hidden pair's member
difference, uniform over the N-1 nonzero residues and independent across
positions.  So the per-position optimum is q = 1/(N-1) in closed form.
One flipped number forces at the next level the weight of key XOR
(key + d mod N), with the key uniform and the offset d uniform over the
nonzero residues.  (key, key + d mod N) is then uniform over ordered
pairs of distinct residues, and for each first member the XOR maps the
second one-to-one onto the nonzero m-bit words, so the XOR is uniform over
those N-1 words and the weight is binomial, P(w) = C(m, w)/(N-1), with
generating function W(z) = ((1+z)^m - 1)/(N-1).  Flipped numbers draw
independent keys and pairs, so the round-R weight has generating function
P_R = W∘…∘W (R-1 copies), and the exact optimum E[q^weight] = P_R(q) is
evaluated in exact rationals.  W is convex with W(0) = 0 and W(1) = 1, so
W(z) <= z: the value never increases with R and stays <= 1/(N-1) <= 2/N.
The implementable strategy guesses those offsets and its Monte Carlo rate
must converge to the oracle value.

Sum-binding, p0 + p1 <= 1 + eps (Lunghi et al.; Chakraborty, Chailloux and
Leverrier, PRL 2015), is exactly 1 + optimal_flip_success at R = 1, by a
best-response enumeration in the tests.  For R >= 2 that is only a lower
bound (commit honestly, forge the other bit); the exact value is not known.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .agents import round_bits
from .codec import binary_forms
from .netsim import (AlicePrivate, CausalView, HonestAlice, RoundRecord,
                     simulate)
from .rng import Stream, derive_seed
from .spacetime import ProtocolParams
from .verifier import verify


class OracleBudgetError(RuntimeError):
    """Instance whose exact oracle value could be too large to compute."""

    def __init__(self, estimated_bits: int, max_bits: int):
        super().__init__(f"exact oracle denominator could need "
                         f"{estimated_bits} bits, limit is {max_bits}")
        self.estimated_bits = estimated_bits
        self.max_bits = max_bits


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def _known_rounds(view: CausalView, last_round: int) -> list[RoundRecord]:
    """The records of rounds 1..R-1, from the causal view only.

    Own-site rounds come from their delivered responses and twin-site
    rounds from the relays every run sends, both RoundRecords.  By the
    unveil time every own-site response and the relays of rounds up to R-2
    have arrived, so only the unveiler at round R-1's site is sure to find
    them all; a missing one raises LookupError, which simulate records as
    an abort.
    """
    known = []
    for k in range(1, last_round):
        record = view.record_for(k)
        if record is None:
            raise LookupError(f"round {k} relay missing from causal view")
        known.append(record)
    return known


def offset_guess_reveal(view: CausalView, last_round: int, target_bit: int,
                        priv: AlicePrivate) -> tuple[int, ...]:
    """Forge the unveil list for target_bit using only the causal view.

    Computes the forced key chain through round R-1 exactly, then reveals
    true keys where no flip is needed and true key + guessed nonzero offset
    where one is.  A wrong guess simply fails verification later.
    """
    params = priv.params
    m, modulus = params.m, params.modulus
    true_keys = priv.state.tape.segment(last_round, m)
    guesses = Stream(derive_seed(priv.cheat_seed, "unveil", last_round, view.site))

    if last_round == 1:
        # Round 1 happened at the other site: the needed key is the response
        # minus the hidden pair member, so the whole offset is a guess.
        target_bits = [target_bit]
    else:
        first, *later = _known_rounds(view, last_round)
        needed_keys = [(first.values[0] - first.pairs[0][target_bit]) % modulus]
        for record in later:
            needed_keys = [(record.values[j] - record.pairs[j][b]) % modulus
                           for j, b in enumerate(binary_forms(needed_keys, m))]
        target_bits = binary_forms(needed_keys, m)
    true_bits = round_bits(last_round, priv.state, m)

    revealed = []
    for j, true_key in enumerate(true_keys):
        if target_bits[j] == true_bits[j]:
            revealed.append(true_key)
        else:
            revealed.append((true_key + guesses.nonzero_residue(modulus)) % modulus)
    return tuple(revealed)


class OffsetGuessAlice(HonestAlice):
    """Respond honestly, then forge the unveil of the flipped bit from the
    relayed records in the causal view: the canonical attack."""

    def unveil(self, view: CausalView, last_round: int,
               priv: AlicePrivate) -> tuple[int, ...]:
        return offset_guess_reveal(view, last_round,
                                   1 - priv.state.committed_bit, priv)


# ---------------------------------------------------------------------------
# Exact oracle
# ---------------------------------------------------------------------------

# The oracle refuses instances whose value could need a denominator of more
# than this many bits.  It computes (2,19), (3,12), (4,9), (7,7) and (31,4),
# each within about 0.2 s.
_ORACLE_MAX_BITS = 1 << 20


def _oracle_bits(m: int, last_round: int) -> int:
    """A bound on the bit length of optimal_flip_success's denominator.

    x starts as 1/(N-1), at most m bits, and each application of W raises
    its denominator to the m-th power and multiplies it by N - 1.  The
    count stops at the first value past _ORACLE_MAX_BITS.
    """
    bits = m
    for _ in range(last_round - 1):
        if bits > _ORACLE_MAX_BITS:
            break
        bits = m * bits + m
    return bits


def optimal_flip_success(m: int, last_round: int) -> Fraction:
    """Exact optimal success of a causally constrained unveil forgery.

    Every revealed list that decodes to the flipped bit is forced except at
    the round-R positions whose target bit differs from the truth, so the
    per-view optimum is q = 1/(N-1), the per-position optimum, raised to the
    chain's Hamming weight H, and the value is E[q^H].  A flipped number
    forces the weight of key XOR (key + d mod N) at the next level, uniform
    over the N - 1 nonzero m-bit words, so P(w) = C(m, w)/(N-1) and its
    generating function is W(z) = ((1+z)^m - 1)/(N-1).  Flipped numbers
    force independent weights, so E[q^H] = W(W(...W(q)...)) with R - 1
    applications, evaluated in exact rationals.

    W is convex with W(0) = 0 and W(1) = 1, so W(z) <= z on [0, 1]: the
    value never increases with R and stays <= 1/(N-1) <= 2/N.

    Raises OracleBudgetError when _oracle_bits(m, R) exceeds 2^20.
    """
    if m < 2 or last_round < 1:
        raise ValueError("need m >= 2 and last_round >= 1")
    bits = _oracle_bits(m, last_round)
    if bits > _ORACLE_MAX_BITS:
        raise OracleBudgetError(bits, _ORACLE_MAX_BITS)
    q = x = Fraction(1, (1 << m) - 1)
    for _ in range(last_round - 1):
        x = ((1 + x) ** m - 1) * q
    return x


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

# oracle_rate_exact is written while the denominator, which bounds the
# numerator as the rate is at most 1, has at most 4,300 digits: CPython's
# default int-to-str limit.  Longer fractions, from (m, R) = (2,14), (3,9)
# or (4,7) on, give null there; the float oracle_rate is always given.
_EXACT_LIMIT = 10 ** 4300


@dataclass(frozen=True)
class AttackOutcome:
    """Result of repeated attack trials, with the exact oracle when sized."""

    strategy: str
    m: int
    rounds: int
    trials: int
    successes: int
    oracle_rate: Optional[Fraction]

    @property
    def success_rate(self) -> Fraction:
        return Fraction(self.successes, self.trials)

    def to_json_obj(self) -> dict:
        rate = self.oracle_rate
        return {
            "strategy": self.strategy,
            "m": self.m,
            "rounds": self.rounds,
            "trials": self.trials,
            "successes": self.successes,
            "success_rate": float(self.success_rate),
            "success_rate_exact": f"{self.success_rate.numerator}/"
                                  f"{self.success_rate.denominator}",
            "oracle_rate": None if rate is None else float(rate),
            "oracle_rate_exact": (None if rate is None or rate.denominator >= _EXACT_LIMIT
                                  else f"{rate.numerator}/{rate.denominator}"),
        }


ATTACKS = ("offset-guess", "honest-relabel")  # run_attack's strategy names


def run_attack(params: ProtocolParams, rounds: int, strategy_name: str,
               trials: int, seed: int) -> AttackOutcome:
    """Run independent attack trials and count verifier acceptances.

    Success means the verifier accepted the strategy's target bit: the
    flipped bit for offset-guess, the committed bit itself for
    honest-relabel.  Each trial derives its own seeds, so trials are
    independent and the whole run is reproducible from one seed.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if strategy_name not in ATTACKS:
        raise ValueError(f"unknown attack strategy {strategy_name!r}")
    relabel = strategy_name == ATTACKS[1]
    strategy = HonestAlice() if relabel else OffsetGuessAlice()
    successes = 0
    for i in range(trials):
        bit = Stream(derive_seed(seed, "trial", i, "bit")).bit()
        target = bit if relabel else 1 - bit
        result = simulate(params, rounds, bit,
                          derive_seed(seed, "trial", i, "alice"),
                          derive_seed(seed, "trial", i, "bob"),
                          strategy=strategy)
        verdict = verify(result.transcript)
        if verdict.accepted and verdict.bit == target:
            successes += 1

    # honest-relabel always wins; a flip oracle too large to compute is left out
    oracle: Optional[Fraction] = Fraction(1)
    if not relabel:
        try:
            oracle = optimal_flip_success(params.m, rounds)
        except OracleBudgetError:
            oracle = None
    return AttackOutcome(strategy=strategy_name, m=params.m, rounds=rounds,
                         trials=trials, successes=successes, oracle_rate=oracle)
