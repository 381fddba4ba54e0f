"""Honest-party state machines.

Bob's round-k challenge at site s is the pure function bob_challenge of
the stream seeded by derive_seed(bob_seed, "bob", s, k), so his randomness
never depends on anything Alice sends and any round's challenge can be
replayed in isolation.  Alice's agents share one pre-materialized random
tape and a committed bit; responses are deterministic functions of those
plus the received challenge.

Round k's payload is the committed bit for k = 1 and, for k >= 2, the
binary forms of round k-1's keys; the tape rule itself (which keys a round
uses) lives in ``codec``.  Unveiling is run by the simulator (``netsim``):
the Alice at the site opposite round R reveals round R's tape segment
(``HonestAlice.unveil``) at the instant round R is answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codec import (PairChallenge, RandomTape, binary_forms, commit_round,
                    tape_consumed)
from .rng import Stream, derive_seed
from .spacetime import ProtocolParams, as_exact


@dataclass(frozen=True)
class AliceState:
    """Shared commitment state: bit, tape and round plan; simulate checks the inputs."""

    committed_bit: int
    tape: RandomTape
    planned_rounds: int


@dataclass(frozen=True)
class UnveilMessage:
    """Disclosure of the keys used in round R, emitted from one site."""

    round: int
    revealed: tuple[int, ...]
    site: int
    completes_at: Fraction

    def __post_init__(self):
        # a time given as a float or an int is held as the exact Fraction
        # it spells, as SpacetimeEvent holds its time
        if type(self.completes_at) is not Fraction:
            object.__setattr__(self, "completes_at", as_exact(self.completes_at))


def make_tape(m: int, planned_rounds: int, alice_seed: int) -> RandomTape:
    """Materialize the shared tape for a planned run from one Alice seed.

    The keys are the stream's first tape_consumed(m, R) draws below 2**m,
    taken in one batch (Stream.belows).
    """
    stream = Stream(derive_seed(alice_seed, "alice", "tape"))
    n = tape_consumed(m, planned_rounds)
    return RandomTape(tuple(stream.belows(1 << m, n)))


def bob_challenge(k: int, params: ProtocolParams, stream: Stream) -> PairChallenge:
    """m**(k-1) pairs, each uniform over ordered pairs of distinct residues.

    The pairs are the stream's first m**(k-1) distinct_pair draws, taken in
    one batch (Stream.distinct_pairs).
    """
    count = params.m ** (k - 1)
    pairs = tuple(stream.distinct_pairs(params.modulus, count))
    return PairChallenge(round=k, pairs=pairs)


def round_bits(k: int, state: AliceState, m: int) -> list[int]:
    """Payload bits for round k: the committed bit, then for k >= 2 the
    binary forms of round k-1's keys, m**(k-1) bits in tape order."""
    if k == 1:
        return [state.committed_bit]
    return binary_forms(state.tape.segment(k - 1, m), m)


def alice_response(k: int, challenge: PairChallenge, state: AliceState,
                   params: ProtocolParams) -> tuple[int, ...]:
    """Honest response: commit round k's payload bits under segment-k keys."""
    bits = round_bits(k, state, params.m)
    keys = state.tape.segment(k, params.m)
    return tuple(commit_round(bits, challenge.pairs, keys, params.modulus))

