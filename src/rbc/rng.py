"""Deterministic seeded randomness for reproducible protocol runs.

Every random choice in the simulator flows from explicit 64-bit seeds
expanded by splitmix64, a small public mixing function that is trivial to
reimplement in any language, through labelled streams (derive_seed).

The lane kernel (_mix_block, under Stream.u64s) computes up to _LANES
outputs inside one Python int.  Lane i is 128 bits wide and its low 64
bits hold the i-th state after the current one; the high 64 bits stay free.
splitmix64 is exact on such a packed int because no step carries across a
lane: a 64-bit by 64-bit product is below 2**128, and masking each lane to
its low 64 bits after each xor-shift drops the bits a right shift brings
down from the next lane.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, lru_cache

GENERATOR_ID = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# Lanes per packed int: 4,096 lanes of 16 bytes make each operand 64 KB.
_LANES = 4096
_LANE_BITS = 128


def _pack(words) -> int:
    """One int whose lane i holds words[i] in its low 64 bits."""
    lanes = array("Q", [0]) * (2 * len(words))  # two 64-bit words a lane
    lanes[0::2] = array("Q", words)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes.tobytes(), "little")


@cache
def _lane_constants() -> tuple[int, int, int]:
    """(lo, ones, steps), built on the first draw rather than at import:
    lo masks every lane to its low 64 bits, ones holds 1 in every lane and
    steps holds (i+1)*gamma mod 2**64 in lane i, the state offsets of a
    block."""
    lo = _pack([_MASK64] * _LANES)
    return lo, _pack([1] * _LANES), (_GAMMA * _pack(range(1, _LANES + 1))) & lo


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _mix_block(state: int, lanes: int) -> list[int]:
    """mix64 of state + (i+1)*gamma for i in range(lanes), lanes <= _LANES."""
    lo, ones, steps = _lane_constants()
    if lanes < _LANES:
        cut = (1 << (lanes * _LANE_BITS)) - 1
        lo, ones, steps = lo & cut, ones & cut, steps & cut
    z = (state * ones + steps) & lo
    z = (((z ^ (z >> 30)) & lo) * 0xBF58476D1CE4E5B9) & lo
    z = (((z ^ (z >> 27)) & lo) * 0x94D049BB133111EB) & lo
    # The high word of each lane is dropped below, so the bits this shift
    # brings down from the next lane need no mask.
    z ^= z >> 31
    words = array("Q", z.to_bytes(lanes * _LANE_BITS // 8, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[0::2].tolist()


@lru_cache(maxsize=1024)
def _label_hash(text: str) -> int:
    """64-bit FNV-1a of the text's UTF-8 bytes, memoised (at most 1,024
    texts)."""
    h = _FNV_OFFSET
    for b in text.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, *labels: object) -> int:
    """Derive an independent child seed from a parent seed and labels.

    Labels (ints or strings) are folded in via FNV-1a over their canonical
    text, then avalanche-mixed, so distinct label tuples give unrelated
    streams: derive_seed(seed, "bob", 1, 3) seeds Bob's site-1 round-3
    pairs, independent of call order and of anything Alice sends.
    """
    state = seed & _MASK64
    for label in labels:
        state = mix64(state ^ _label_hash(str(label)))
    return mix64(state)


def _limit(n: int) -> int:
    """Rejection limit for a uniform draw below n: the largest multiple of
    n that fits in 64 bits.  Words at or past it would bias the draw."""
    if not 0 < n <= 1 << 64:
        raise ValueError(f"below() needs n in [1, 2**64], got {n}")
    return (1 << 64) - ((1 << 64) % n)


class Stream:
    """splitmix64 output stream with uniform integer helpers.

    Single draws use ``u64``, ``below``, ``bit``, ``distinct_pair`` and
    ``nonzero_residue``.  ``u64s``, ``belows`` and ``distinct_pairs`` draw
    many at once with the lane kernel; each returns exactly the list of the
    matching scalar calls and leaves the state where they would.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def u64s(self, count: int) -> list[int]:
        """The next count outputs of u64(), computed _LANES at a time."""
        out: list[int] = []
        state = self._state
        for start in range(0, count, _LANES):
            lanes = min(_LANES, count - start)
            out += _mix_block(state, lanes)
            state = (state + lanes * _GAMMA) & _MASK64
        self._state = state
        return out

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on 64-bit words."""
        limit = _limit(n)
        while True:
            r = self.u64()
            if r < limit:
                return r % n

    def belows(self, n: int, count: int) -> list[int]:
        """[self.below(n) for _ in range(count)], drawn in batches.

        Each pass draws one word per value still missing, so the words a
        rejection skips are replaced by the next ones, in order, and no
        word is drawn past the last accepted one.
        """
        limit = _limit(n)
        out: list[int] = []
        while len(out) < count:
            out += [w % n for w in self.u64s(count - len(out)) if w < limit]
        return out

    def bit(self) -> int:
        return self.u64() >> 63

    def distinct_pair(self, modulus: int) -> tuple[int, int]:
        """Uniform ordered pair of distinct residues mod ``modulus``."""
        a = self.below(modulus)
        b = self.below(modulus - 1)
        if b >= a:
            b += 1
        return a, b

    def distinct_pairs(self, modulus: int, count: int) -> list[tuple[int, int]]:
        """[self.distinct_pair(modulus) for _ in range(count)], drawn in a batch.

        Without rejections pair j takes words 2j and 2j+1.  If any word of
        the batch would be rejected, the state is restored and the scalar
        calls draw the pairs instead.  For a modulus 2**m, 2 <= m <= 64, only
        a b-word can be rejected, with chance 2**(64 % m) / 2**64: 2**-60 at
        m=10 and 2**-33 at worst (m=33).
        """
        other = modulus - 1
        limit_a, limit_b = _limit(modulus), _limit(other)
        start = self._state
        words = iter(self.u64s(2 * count))
        pairs = []
        for wa, wb in zip(words, words):  # consecutive (a, b) words
            if wa >= limit_a or wb >= limit_b:
                self._state = start
                return [self.distinct_pair(modulus) for _ in range(count)]
            a, b = wa % modulus, wb % other
            pairs.append((a, b + 1 if b >= a else b))
        return pairs

    def nonzero_residue(self, modulus: int) -> int:
        return 1 + self.below(modulus - 1)
