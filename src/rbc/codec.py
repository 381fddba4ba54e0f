"""Commitment arithmetic: mod-N bit encoding and the tape segmentation rule.

A challenge pair is the plain tuple (n0, n1) of two distinct residues, so
pair[b] == n_b.  A single bit b is committed against it by returning
n_b + key mod N, where the key is a one-time uniform residue from the
pre-shared random tape.  Because the key is uniform, the response is
uniform whichever bit was chosen (exact hiding); because n0 != n1, a
revealed key decodes to at most one bit (the basis of binding).  Pairs
within one round are sampled independently, so the same pair may repeat
across positions; distinctness inside each pair is required in every round.

Round k commits the binary forms of the keys consumed in round k-1, so
the tape is consumed in segments of m**(k-1) keys.  The tape rule lives
here and nowhere else: tape_consumed and RandomTape.segment.  Tape
indices are 0-based.

The arithmetic runs unchecked on residues in [0, N), bits in {0, 1} and
pairs of exactly two members: inputs are checked once where they enter,
in the simulator and in the verifier's shape check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .spacetime import check_round

# The largest m: Stream draws each residue mod 2**m from one 64-bit word,
# and a transcript file carries m in [0, MAX_M].
MAX_M = 64
# bit values 0 and 1 to the digits b"0" and b"1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class PairChallenge:
    """One round's ordered list of challenge pairs (length m**(k-1))."""

    round: int
    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class RandomTape:
    """The pre-shared list of uniform residues held by both Alice agents."""

    values: tuple[int, ...]

    def segment(self, k: int, m: int) -> tuple[int, ...]:
        """Round k's keys: the m**(k-1) entries after those of rounds 1..k-1."""
        end = tape_consumed(m, k)
        if end > len(self.values):
            raise ValueError(f"tape too short for round {k}: "
                             f"need {end}, have {len(self.values)}")
        return self.values[end - m ** (k - 1):end]


def check_m(m: int) -> int:
    """m, refused with ValueError unless it is an int >= 2: bool and float
    are refused, so every count derived from m is an exact int."""
    if type(m) is not int or m < 2:
        raise ValueError(f"m must be an int >= 2, got {m!r}")
    return m


def tape_consumed(m: int, rounds: int) -> int:
    """Total keys used by rounds 1..R: (m**R - 1) / (m - 1), exactly.
    m and R must be ints, so the count and the slices it ends are too."""
    return (check_m(m) ** check_round(rounds) - 1) // (m - 1)


def first_non_residue(values: Sequence[int],
                      modulus: Optional[int] = None) -> Optional[int]:
    """Index of the first entry that is not an int in [0, modulus), or None;
    with no modulus, only the lower bound 0 is enforced.

    A residue's type must be exactly int, so bool and other int subclasses
    are refused.  The all-valid case is settled by C-level passes.  The one
    residue predicate: for the simulator (a strategy's values), the
    verifier (values and reveals against N) and the transcript reader
    (values, reveals and pair members, lower bound only).  The verifier's
    pair loop inlines it, because it must also find equal members and
    name the first fault in walk order.
    """
    if not values or ({*map(type, values)} == {int} and min(values) >= 0
                      and (modulus is None or max(values) < modulus)):
        return None
    for j, v in enumerate(values):
        if type(v) is not int or v < 0 or modulus is not None and v >= modulus:
            return j


def decode_one(response: int, pair: tuple[int, int], key: int,
               modulus: int) -> Optional[int]:
    """Invert commit_round at one position: the bit whose pair member
    equals response - key.

    Returns None when neither member matches (an invalid opening, not a
    fault).  At most one branch can match because n0 != n1.  Precondition:
    residues in [0, N), as the verifier's shape check establishes.
    """
    candidate = (response - key) % modulus
    if candidate == pair[0]:
        return 0
    if candidate == pair[1]:
        return 1
    return None


def binary_forms(values: Sequence[int], m: int) -> list[int]:
    """The bits of each value, least significant first and m per value,
    concatenated: a round's payload, and the expansion the forged chain
    uses.  Every value must lie in [0, 2**m)."""
    if values and not (0 <= min(values) and max(values) < 1 << m):
        raise ValueError(f"values in [{min(values)}, {max(values)}] out of "
                         f"range for {m} bits")
    return [(x >> j) & 1 for x in values for j in range(m)]


def from_binary_forms(bits: Sequence[int], m: int) -> list[int]:
    """Inverse of binary_forms: each m bits, least significant first, as
    one number; trailing bits short of a whole m are dropped.  bits are
    0/1, as decoding gives them.

    One C-level pass reverses the list into a text of digits, most
    significant first, and int(..., 2) reads each key's m-digit slice.
    """
    text = bytes(bits[::-1]).translate(_DIGITS)
    # key i's bits sit in text[len - (i + 1) * m : len - i * m]
    return [int(text[j:j + m], 2)
            for j in range(len(text) - m, len(text) % m - 1, -m)]


def commit_round(bits: Sequence[int], pairs: Sequence[tuple[int, int]],
                 keys: Sequence[int], modulus: int) -> list[int]:
    """Commit each bit: position j gives pairs[j][bits[j]] + keys[j] mod N.

    Precondition: residues in [0, N) and bits 0 or 1, as the simulator
    makes them.
    """
    if not (len(bits) == len(pairs) == len(keys)):
        raise ValueError(f"length mismatch: {len(bits)} bits, "
                         f"{len(pairs)} pairs, {len(keys)} keys")
    return [(p[b] + key) % modulus for b, p, key in zip(bits, pairs, keys)]
