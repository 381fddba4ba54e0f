"""Commitment arithmetic: mod-N bit encoding and the tape segmentation rule.

A challenge pair is the plain tuple (n0, n1) of two distinct residues, so
pair[b] == n_b.  A single bit b is committed against it by returning
n_b + key mod N, where the key is a one-time uniform residue from the
pre-shared random tape.  Because the key is uniform, the response is
uniform whichever bit was chosen (exact hiding); because n0 != n1, a
revealed key decodes to at most one bit (the basis of binding).

Round k commits the binary forms of the keys consumed in round k-1, each
key least significant bit first and m bits long (binary_forms, also the
expansion the forged chain uses), so the tape is consumed in segments of
size m**(k-1).  The verifier turns a decoded round's bits back into the
previous round's keys with from_binary_forms, the list-level inverse: one
reversed digit text for the whole round and one int(..., 2) per key,
which at m=10 takes about 8 ms per 10,000 keys against 25 ms for a sum
of shifted bits per key.  Tape indices are 0-based internally; external
documentation counts entries from 1.  Pairs within one round are sampled
independently, so the same pair may repeat across positions; distinctness
inside each pair is required in every round.

The arithmetic runs unchecked on residues in [0, N), bits in {0, 1} and
pairs of exactly two members: inputs are checked once where they enter,
in the simulator and in the verifier's shape check.  One residue
predicate, first_non_residue, serves the simulator (a strategy's
values), the verifier (values and reveals against N) and the transcript
reader (values, reveals and pair members, lower bound only).  The
verifier's pair loop inlines it: it must also find equal members and name
the first fault in walk order, and at m=10, R=6 the C-level passes over
round 6's 100,000 pairs (shape, flatten, this predicate, equality) summed
to about 38 ms against the loop's 24 ms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

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
        start, count = segment_bounds(k, m)
        if start + count > len(self.values):
            raise ValueError(f"tape too short for round {k}: "
                             f"need {start + count}, have {len(self.values)}")
        return self.values[start:start + count]


def first_non_residue(values: Sequence[int],
                      modulus: Optional[int] = None) -> Optional[int]:
    """Index of the first entry that is not an int in [0, modulus), or None;
    with no modulus, only the lower bound 0 is enforced.

    A residue's type must be exactly int, so bool and other int subclasses
    are refused.  The all-valid case is settled by C-level passes.
    """
    if not values or ({*map(type, values)} == {int} and min(values) >= 0
                      and (modulus is None or max(values) < modulus)):
        return None
    for j, v in enumerate(values):
        if type(v) is not int or v < 0 or modulus is not None and v >= modulus:
            return j
    return None


def commit_one(pair: tuple[int, int], key: int, bit: int, modulus: int) -> int:
    """Commit one bit: pair[bit] + key mod N.

    Precondition: residues in [0, N) and bit 0 or 1, as the simulator makes.
    """
    return (pair[bit] + key) % modulus


def decode_one(response: int, pair: tuple[int, int], key: int,
               modulus: int) -> Optional[int]:
    """Invert commit_one: the bit whose pair member equals response - key.

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


def binary_form(x: int, m: int) -> list[int]:
    """Bits of x, least significant first, padded to length m."""
    if not 0 <= x < (1 << m):
        raise ValueError(f"value {x} out of range for {m} bits")
    return [(x >> j) & 1 for j in range(m)]


def binary_forms(values: Sequence[int], m: int) -> list[int]:
    """The binary_form of each value, concatenated: m bits per value."""
    return [bit for x in values for bit in binary_form(x, m)]


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


def segment_bounds(k: int, m: int) -> tuple[int, int]:
    """Tape slice consumed by round k: (start, count), 0-based.

    Round k uses m**(k-1) keys beginning right after the keys of all earlier
    rounds, so start = (m**(k-1) - 1) / (m - 1), the geometric partial sum.
    """
    if k < 1:
        raise ValueError("round index starts at 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    count = m ** (k - 1)
    start = (count - 1) // (m - 1)
    return start, count


def round_payload_bits(k: int, tape: RandomTape, m: int) -> list[int]:
    """Bits committed in round k >= 2: binary forms of round (k-1)'s keys.

    Concatenated in tape order, each key least-significant-bit first, giving
    m**(k-1) bits.  Round 1's payload is the externally chosen bit, not a
    tape function, so k = 1 is rejected here.
    """
    if k < 2:
        raise ValueError("round 1 payload is the committed bit itself")
    return binary_forms(tape.segment(k - 1, m), m)


def commit_round(bits: Sequence[int], pairs: Sequence[tuple[int, int]],
                 keys: Sequence[int], modulus: int) -> list[int]:
    """Elementwise commit_one: position j uses bits[j], pairs[j], keys[j]."""
    if not (len(bits) == len(pairs) == len(keys)):
        raise ValueError(f"length mismatch: {len(bits)} bits, "
                         f"{len(pairs)} pairs, {len(keys)} keys")
    return [commit_one(p, key, b, modulus) for b, p, key in zip(bits, pairs, keys)]
