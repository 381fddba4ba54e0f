"""Single-field transcript mutation helpers shared by verifier and acceptance tests."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

from rbc.netsim import Transcript


def with_round(t: Transcript, k: int, **changes) -> Transcript:
    rounds = list(t.rounds)
    rounds[k - 1] = dataclasses.replace(rounds[k - 1], **changes)
    return dataclasses.replace(t, rounds=tuple(rounds))


def with_value(t: Transcript, k: int, j: int, value: int) -> Transcript:
    values = list(t.rounds[k - 1].values)
    values[j] = value
    return with_round(t, k, values=tuple(values))


def with_pair(t: Transcript, k: int, j: int, pair: tuple) -> Transcript:
    pairs = list(t.rounds[k - 1].pairs)
    pairs[j] = pair
    return with_round(t, k, pairs=tuple(pairs))


def with_unveil(t: Transcript, idx: int = 0, **changes) -> Transcript:
    unveils = list(t.unveils)
    unveils[idx] = dataclasses.replace(unveils[idx], **changes)
    return dataclasses.replace(t, unveils=tuple(unveils))


def with_revealed(t: Transcript, j: int, value: int, idx: int = 0) -> Transcript:
    revealed = list(t.unveils[idx].revealed)
    revealed[j] = value
    return with_unveil(t, idx, revealed=tuple(revealed))


EPS = Fraction(1, 10 ** 9)

# in-memory pair entries that are not an (n0, n1) tuple of two ints
MALFORMED_PAIRS = [(1,), (1, 2, 3), [1, 2], 3, (True, 2)]
MALFORMED_PAIR_IDS = ["one_member", "three_members", "list", "int", "bool_member"]
