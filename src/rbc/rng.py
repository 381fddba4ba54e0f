"""Deterministic seeded randomness for reproducible protocol runs.

Every random choice in the simulator flows from explicit 64-bit seeds
expanded by splitmix64, a small public mixing function that is trivial to
reimplement in any language.  Transcript files record the generator id so
they are self-describing.

Derived streams are labelled: ``derive_seed(seed, "bob", 1, 3)`` gives the
stream for Bob's site-1 round-3 pairs, independent of call order and of
anything Alice sends.
"""

from __future__ import annotations

GENERATOR_ID = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """splitmix64 finalizer: bijective 64-bit avalanche mix."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, *labels: object) -> int:
    """Derive an independent child seed from a parent seed and labels.

    Labels (ints or strings) are folded in via FNV-1a over their canonical
    text, then avalanche-mixed, so distinct label tuples give unrelated
    streams.
    """
    state = seed & _MASK64
    for label in labels:
        state = mix64(state ^ _fnv1a64(str(label).encode("utf-8")))
    return mix64(state)


class Stream:
    """splitmix64 output stream with uniform integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return mix64(self._state)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection on 64-bit words."""
        if not 0 < n <= 1 << 64:
            raise ValueError(f"below() needs n in [1, 2**64], got {n}")
        # Largest multiple of n that fits in 64 bits; draws past it would bias.
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.u64()
            if r < limit:
                return r % n

    def bit(self) -> int:
        return self.u64() >> 63

    def distinct_pair(self, modulus: int) -> tuple[int, int]:
        """Uniform ordered pair of distinct residues mod ``modulus``."""
        a = self.below(modulus)
        b = self.below(modulus - 1)
        if b >= a:
            b += 1
        return a, b

    def nonzero_residue(self, modulus: int) -> int:
        return 1 + self.below(modulus - 1)
