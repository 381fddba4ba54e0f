from __future__ import annotations

from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbc.agents import AliceState, round_bits
from rbc.codec import (RandomTape, binary_forms, commit_round, decode_one,
                       first_non_residue, from_binary_forms, tape_consumed)


def all_pairs(modulus):
    return list(permutations(range(modulus), 2))


class TestCommitOne:
    """One bit committed by a one-position commit_round."""

    def test_bit_zero(self):
        assert commit_round([0], [(3, 9)], [7], 16) == [10]

    def test_bit_one_wraps(self):
        assert commit_round([1], [(3, 9)], [7], 16) == [0]

    def test_identity_key(self):
        assert commit_round([0], [(3, 9)], [0], 16) == [3]


class TestDecodeOne:
    def test_inverts_bit_zero(self):
        assert decode_one(10, (3, 9), 7, 16) == 0

    def test_inverts_bit_one(self):
        assert decode_one(0, (3, 9), 7, 16) == 1

    def test_mismatch_is_none(self):
        assert decode_one(5, (3, 9), 7, 16) is None

    @given(st.integers(2, 5), st.data())
    def test_round_trip(self, m, data):
        modulus = 1 << m
        n0 = data.draw(st.integers(0, modulus - 1))
        n1 = data.draw(st.integers(0, modulus - 1).filter(lambda x: x != n0))
        key = data.draw(st.integers(0, modulus - 1))
        bit = data.draw(st.integers(0, 1))
        pair = (n0, n1)
        [response] = commit_round([bit], [pair], [key], modulus)
        assert decode_one(response, pair, key, modulus) == bit

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_exactly_two_keys_open_any_response(self, m):
        modulus = 1 << m
        for pair in all_pairs(modulus):
            for response in range(modulus):
                opening = [k for k in range(modulus)
                           if decode_one(response, pair, k, modulus) is not None]
                assert len(opening) == 2


class TestHiding:
    @pytest.mark.parametrize("m", [2, 3])
    def test_output_distribution_identical_for_both_bits(self, m):
        # Exhaustive: over a uniform key the response is uniform either way.
        modulus = 1 << m
        keys = list(range(modulus))
        for pair in all_pairs(modulus):
            pairs = [pair] * modulus
            dist0 = Counter(commit_round([0] * modulus, pairs, keys, modulus))
            dist1 = Counter(commit_round([1] * modulus, pairs, keys, modulus))
            assert dist0 == dist1
            assert set(dist0.values()) == {1}


class TestBinaryForm:
    def test_examples(self):
        assert binary_forms([5], 3) == [1, 0, 1]
        assert binary_forms([0], 4) == [0, 0, 0, 0]
        assert binary_forms([15], 4) == [1, 1, 1, 1]
        assert binary_forms([5, 0, 6], 3) == [1, 0, 1, 0, 0, 0, 0, 1, 1]

    def test_rejects_out_of_range(self):
        for values in ([8], [-1], [1, 8, 2], [1, -1, 2], [-1, 8]):
            with pytest.raises(ValueError):
                binary_forms(values, 3)

    @given(st.integers(1, 10), st.data())
    def test_bijection(self, m, data):
        x = data.draw(st.integers(0, (1 << m) - 1))
        bits = binary_forms([x], m)
        assert len(bits) == m
        assert from_binary_forms(bits, m) == [x]

    @pytest.mark.parametrize("m", [2, 3])
    def test_bijection_exhaustive(self, m):
        images = {tuple(binary_forms([x], m)) for x in range(1 << m)}
        assert len(images) == 1 << m

    @pytest.mark.parametrize("m", [2, 3, 10, 63, 64])
    def test_forms_round_trip(self, m):
        top = (1 << m) - 1
        for values in ([], [0], [top], [0, top, 1, top - 1, 0], [top >> 1] * 7):
            assert from_binary_forms(binary_forms(values, m), m) == values

    @given(st.integers(1, 64), st.data())
    def test_forms_round_trip_drawn(self, m, data):
        values = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=20))
        assert from_binary_forms(binary_forms(values, m), m) == values

    def test_forms_drop_a_partial_key(self):
        # as the per-key grouping did: only whole m-bit groups are keys
        assert from_binary_forms([1, 0, 1, 1, 1], 3) == [5]
        assert from_binary_forms([1, 1], 3) == []


class TestSegmentBounds:
    """tape_consumed and the RandomTape.segment slices it ends."""

    def test_round_one_uses_first_entry(self):
        tape = RandomTape(tuple(range(20)))
        for m in (2, 5, 10):
            assert tape_consumed(m, 1) == 1
            assert tape.segment(1, m) == (0,)

    def test_round_two_m10(self):
        assert tape_consumed(10, 2) == 11
        assert RandomTape(tuple(range(11))).segment(2, 10) == tuple(range(1, 11))

    def test_round_three_m10(self):
        assert tape_consumed(10, 3) == 111
        tape = RandomTape(tuple(range(111)))
        assert tape.segment(3, 10) == tuple(range(11, 111))

    @pytest.mark.parametrize("m, k, message", [
        (1, 1, "m must be an int >= 2"), (2.0, 1, "m must be an int >= 2"),
        (True, 1, "m must be an int >= 2"),
        (2, 0, "round index must be an int >= 1"),
        (2, 2.0, "round index must be an int >= 1"),
        (2, True, "round index must be an int >= 1")])
    def test_refuses_a_bad_m_or_round(self, m, k, message):
        # a float round would give a float count, 3.0 for (2, 2.0), and a
        # slicing TypeError in segment
        with pytest.raises(ValueError, match=message):
            tape_consumed(m, k)
        with pytest.raises(ValueError, match=message):
            RandomTape(tuple(range(7))).segment(k, m)

    @given(st.integers(2, 10), st.integers(1, 12))
    def test_segments_tile_the_tape(self, m, k):
        assert tape_consumed(m, k + 1) == tape_consumed(m, k) + m ** k

    @given(st.integers(2, 6), st.integers(1, 8))
    def test_total_consumption_geometric(self, m, rounds):
        total = tape_consumed(m, rounds)
        assert total == sum(m ** (k - 1) for k in range(1, rounds + 1))
        tape = RandomTape(tuple(range(total)))
        segments = [tape.segment(k, m) for k in range(1, rounds + 1)]
        assert [len(s) for s in segments] == [m ** (k - 1)
                                              for k in range(1, rounds + 1)]
        assert sum(segments, ()) == tape.values


class TestRoundPayloadBits:
    """round_bits: the committed bit, then the binary forms of the keys of
    the round before."""

    @staticmethod
    def bits(k, tape, m, bit=0):
        return round_bits(k, AliceState(bit, tape, k), m)

    def test_round_two(self):
        tape = RandomTape((3,))
        assert self.bits(2, tape, 2) == [1, 1]

    def test_round_three_concatenates(self):
        tape = RandomTape((0, 1, 2, 9, 9, 9, 9))
        assert self.bits(3, tape, 2) == [1, 0, 0, 1]

    def test_round_one_is_the_committed_bit(self):
        # round 1's payload is no tape function: an empty tape serves
        for bit in (0, 1):
            assert self.bits(1, RandomTape(()), 2, bit) == [bit]

    @given(st.integers(2, 4), st.integers(2, 5))
    def test_length_is_geometric(self, m, k):
        need = tape_consumed(m, k - 1)
        tape = RandomTape(tuple(i % (1 << m) for i in range(need)))
        assert len(self.bits(k, tape, m)) == m ** (k - 1)

    def test_rejects_short_tape(self):
        with pytest.raises(ValueError):
            self.bits(3, RandomTape((1,)), 2)


class TestCommitRound:
    def test_elementwise(self):
        values = commit_round([1, 1], [(3, 9), (2, 5)], [7, 4], 16)
        assert values == [0, 9]

    def test_empty(self):
        assert commit_round([], [], [], 16) == []

    def test_singleton_matches_commit_one(self):
        bits, pairs, keys = [1, 0, 1], [(3, 9), (2, 5), (15, 0)], [7, 4, 1]
        assert commit_round(bits, pairs, keys, 16) == [
            commit_round([b], [p], [key], 16)[0]
            for b, p, key in zip(bits, pairs, keys)]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            commit_round([1], [(3, 9), (2, 5)], [7, 4], 16)


class TestFirstNonResidue:
    @pytest.mark.parametrize("values, modulus, index", [
        ([], 4, None),
        ((0, 3, 1), 4, None),
        ([0, 4], 4, 1),
        ([3, 2 ** 64], 4, 1),
        ([True], 4, 0),
        # with no modulus only the lower bound holds
        ([], None, None),
        ([0, 1, 2 ** 64], None, None),
        ([1, True], None, 1),
        ([1, -1], None, 1),
        ([1.5, 1], None, 0),
        ([0, 1, None], None, 2),
        ([2, 0, -1, 1.5, True], None, 2),
    ])
    def test_index_of_first_bad_entry(self, values, modulus, index):
        # the reader calls it with no modulus at all
        bound = () if modulus is None else (modulus,)
        assert first_non_residue(values, *bound) == index
