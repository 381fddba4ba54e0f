from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbc.rng import _LANES, GENERATOR_ID, Stream, derive_seed, mix64

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def _unshift(y: int, k: int) -> int:
    """Inverse of y = x ^ (x >> k) on 64-bit words."""
    x = y
    for _ in range(64 // k + 1):
        x = y ^ (x >> k)
    return x


def unmix64(z: int) -> int:
    """Inverse of mix64, undoing its steps in reverse order."""
    z = _unshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return _unshift(z, 30)


def seed_with_top_word_at(position: int) -> int:
    """A seed whose stream's word number position (from 0) is 2**64 - 1,
    the one word every rejection limit below 2**64 refuses."""
    return (unmix64(MASK64) - (position + 1) * GAMMA) & MASK64


COUNTS = (0, 1, 2, _LANES - 1, _LANES, _LANES + 1, 2 * _LANES + 1)


class TestStream:
    def test_reference_vector_seed_zero(self):
        # widely published splitmix64 outputs; anchors cross-implementation
        # reproducibility of every transcript
        s = Stream(0)
        assert [s.u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_reference_vector_seed_1234567(self):
        s = Stream(1234567)
        assert [s.u64() for _ in range(2)] == [
            6457827717110365317, 3203168211198807973]

    def test_deterministic(self):
        assert [Stream(9).u64() for _ in range(1)] == [Stream(9).u64()]

    def test_seed_masked_to_64_bits(self):
        assert Stream(1 << 64).u64() == Stream(0).u64()

    @given(st.integers(0, 2**64 - 1), st.integers(1, 1000))
    def test_below_in_range(self, seed, n):
        s = Stream(seed)
        assert all(0 <= s.below(n) < n for _ in range(5))

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Stream(1).below(0)

    def test_below_takes_at_most_64_bits(self):
        assert 0 <= Stream(1).below(1 << 64) < 1 << 64
        # past 2**64 no 64-bit word is below the rejection limit
        with pytest.raises(ValueError):
            Stream(1).below((1 << 64) + 1)

    def test_below_covers_small_range_evenly(self):
        s = Stream(31337)
        counts = Counter(s.below(4) for _ in range(8000))
        assert set(counts) == {0, 1, 2, 3}
        assert all(abs(c - 2000) < 200 for c in counts.values())

    def test_distinct_pair_members_differ(self):
        s = Stream(5)
        seen = set()
        for _ in range(500):
            a, b = s.distinct_pair(4)
            assert a != b
            seen.add((a, b))
        assert len(seen) == 12  # every ordered pair of distinct residues

    def test_nonzero_residue_never_zero(self):
        s = Stream(11)
        assert all(1 <= s.nonzero_residue(8) < 8 for _ in range(200))


# u64s, belows and distinct_pairs against their scalar calls.  A module
# function, not a method: a parametrized @given method runs on one class
# instance per parameter, which Hypothesis refuses as differing executors.
@pytest.mark.parametrize("m", [2, 3, 10, 64])
@given(st.integers(0, MASK64))
@example(0)
@example(MASK64)
@settings(max_examples=5, deadline=None)
def test_batches_equal_scalar_calls(m, seed):
    modulus = 1 << m
    draws = [
        (Stream.u64, lambda s, c: s.u64s(c)),
        (lambda s: s.below(modulus), lambda s, c: s.belows(modulus, c)),
        (lambda s: s.below(modulus - 1),
         lambda s, c: s.belows(modulus - 1, c)),
        (lambda s: s.distinct_pair(modulus),
         lambda s, c: s.distinct_pairs(modulus, c)),
    ]
    for scalar, batch in draws:
        reference = Stream(seed)
        values, states = [], [reference._state]
        for _ in range(max(COUNTS)):
            values.append(scalar(reference))
            states.append(reference._state)
        for count in COUNTS:
            stream = Stream(seed)
            assert batch(stream, count) == values[:count]
            assert stream._state == states[count]


class TestBatches:
    """The batch draws' edge cases: rejected words and range checks."""

    def test_unmix64_inverts_mix64(self):
        for z in (0, 1, GAMMA, MASK64, 0x0123456789ABCDEF):
            assert unmix64(mix64(z)) == z and mix64(unmix64(z)) == z

    @pytest.mark.parametrize("position", [0, 5, _LANES - 1, _LANES + 7])
    def test_belows_redraws_a_rejected_word(self, position):
        seed = seed_with_top_word_at(position)
        assert Stream(seed).u64s(position + 1)[-1] == MASK64
        count = position + 10
        stream, reference = Stream(seed), Stream(seed)
        assert stream.belows(3, count) == [reference.below(3)
                                           for _ in range(count)]
        assert stream._state == reference._state
        # one word was rejected, so one more was drawn
        assert stream._state == (seed + (count + 1) * GAMMA) & MASK64

    @pytest.mark.parametrize("m", [2, 3, 10, 64])
    @pytest.mark.parametrize("pair", [0, 3, _LANES // 2 + 5])
    def test_distinct_pairs_falls_back_on_a_rejected_b_word(self, m, pair):
        # word 2*pair + 1 is the b-draw of that pair; pair _LANES//2 + 5 is
        # in the second block of the batch
        seed = seed_with_top_word_at(2 * pair + 1)
        modulus = 1 << m
        count = pair + 10
        stream, reference = Stream(seed), Stream(seed)
        assert stream.distinct_pairs(modulus, count) == [
            reference.distinct_pair(modulus) for _ in range(count)]
        assert stream._state == reference._state
        assert stream._state == (seed + (2 * count + 1) * GAMMA) & MASK64

    def test_distinct_pairs_falls_back_on_a_rejected_a_word(self):
        # mod 3 the a-draw has a rejection limit too
        seed = seed_with_top_word_at(4)
        stream, reference = Stream(seed), Stream(seed)
        assert stream.distinct_pairs(3, 6) == [reference.distinct_pair(3)
                                               for _ in range(6)]
        assert stream._state == reference._state
        assert stream._state == (seed + 13 * GAMMA) & MASK64

    def test_batches_check_their_range(self):
        with pytest.raises(ValueError):
            Stream(1).belows(0, 3)
        with pytest.raises(ValueError):
            Stream(1).distinct_pairs(1, 3)


class TestDerivation:
    def test_pinned_outputs(self):
        # values of the unmemoised FNV-1a label hash
        assert derive_seed(42, "bob", 1, 3) == 0x912DC9AA9A60B50A
        assert derive_seed(1998, "alice", "tape") == 0x1BCA859DA49A1DBD
        assert derive_seed(MASK64, "trial", 0, "bit") == 0x7010759BF0E1A665
        assert derive_seed(7, "unveil", 3, 2) == 0x81B73C364864235A
        assert derive_seed(5, "é") == 0x1FBE2175D97C6F1C
        # a label is hashed by its text, so True and 1 differ
        assert derive_seed(5, True) == 0x1E551414DDA941E9
        assert derive_seed(5, 1) == 0x58EECD9D6B163D9C

    def test_labels_change_the_stream(self):
        assert derive_seed(42, "bob", 1, 3) != derive_seed(42, "bob", 1, 4)
        assert derive_seed(42, "bob", 1, 3) != derive_seed(42, "bob", 2, 3)
        assert derive_seed(42, "a") != derive_seed(43, "a")

    def test_stable_across_calls(self):
        assert derive_seed(7, "alice", "tape") == derive_seed(7, "alice", "tape")

    def test_mix64_is_64_bit(self):
        assert 0 <= mix64(2**64 - 1) < 2**64

    def test_generator_identity_is_exported(self):
        assert GENERATOR_ID == "splitmix64-v1"
