from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbc.agents import AliceState, alice_response, bob_challenge, make_tape
from rbc.codec import PairChallenge, RandomTape, decode_one
from rbc.netsim import simulate
from rbc.rng import Stream, derive_seed
from rbc.spacetime import round_window, unveil_deadline

from conftest import valid_params


def challenge_of(pairs, k=1):
    return PairChallenge(round=k, pairs=tuple(pairs))


class TestBobChallenge:
    def test_round_one_single_pair(self, params_m2):
        ch = bob_challenge(1, params_m2, Stream(1))
        assert len(ch.pairs) == 1

    def test_round_two_m_pairs(self):
        from rbc.spacetime import ProtocolParams
        p = ProtocolParams(10, "1", "0.005", "0.01")
        assert len(bob_challenge(2, p, Stream(1)).pairs) == 10

    def test_round_three_geometric(self, params_m2):
        assert len(bob_challenge(3, params_m2, Stream(1)).pairs) == 4

    def test_pairs_are_distinct_and_in_range(self, params_m3):
        for pair in bob_challenge(4, params_m3, Stream(9)).pairs:
            assert pair[0] != pair[1]
            assert 0 <= pair[0] < 8 and 0 <= pair[1] < 8

    def test_all_ordered_pairs_reachable(self, params_m2):
        seen = set()
        stream = Stream(3)
        for _ in range(600):
            pair = bob_challenge(1, params_m2, stream).pairs[0]
            seen.add(pair)
        assert len(seen) == 4 * 3

    def test_challenge_depends_only_on_site_and_round(self, params_m2):
        def challenge(site, k):
            return bob_challenge(k, params_m2, Stream(derive_seed(5, "bob", site, k)))
        assert challenge(1, 3) == challenge(1, 3)
        assert challenge(1, 3) != challenge(2, 3)
        # the simulator draws each round's challenge this way
        t = simulate(params_m2, 3, 0, 1, 5).transcript
        assert [rec.pairs for rec in t.rounds] == [
            challenge(site, k).pairs for k, site in ((1, 1), (2, 2), (3, 1))]


class TestAliceResponse:
    def test_round_one_example(self, params_m2):
        state = AliceState(0, RandomTape((3,)), 1)
        resp = alice_response(1, challenge_of([(1, 2)]), state, params_m2)
        assert resp == (0,)
        # oracle: the commitment must decode back to the committed bit
        assert decode_one(resp[0], (1, 2), 3, 4) == 0

    def test_round_two_example(self, params_m2):
        state = AliceState(0, RandomTape((3, 1, 2)), 2)
        resp = alice_response(2, challenge_of([(0, 1), (2, 3)], k=2), state, params_m2)
        assert resp == (2, 1)
        # oracle: payload bits are the binary form of tape[0] = 3 -> [1, 1]
        assert decode_one(resp[0], (0, 1), 1, 4) == 1
        assert decode_one(resp[1], (2, 3), 2, 4) == 1

    def test_rejects_wrong_challenge_length(self, params_m2):
        state = AliceState(0, RandomTape((3, 1, 2)), 2)
        with pytest.raises(ValueError):
            alice_response(2, challenge_of([(0, 1)], k=2), state, params_m2)

    def test_rejects_short_tape(self, params_m2):
        state = AliceState(0, RandomTape((3,)), 1)
        with pytest.raises(ValueError):
            alice_response(2, challenge_of([(0, 1), (2, 3)], k=2), state, params_m2)

    @given(valid_params(m=st.integers(2, 3)), st.integers(1, 4), st.integers(0, 1),
           st.integers(0, 2**32))
    def test_response_length_matches_challenge(self, p, k, bit, seed):
        tape = make_tape(p.m, k, seed)
        state = AliceState(bit, tape, k)
        ch = bob_challenge(k, p, Stream(derive_seed(seed, "x", k)))
        assert len(alice_response(k, ch, state, p)) == len(ch.pairs)


class TestAliceUnveil:
    """Honest unveiling as the simulator runs it."""

    def test_round_one_reveals_first_key(self, params_m2):
        unveil, = simulate(params_m2, 1, 0, 7, 8).transcript.unveils
        assert unveil.revealed == make_tape(2, 1, 7).values[:1]
        assert unveil.site == 2

    def test_round_three_reveals_segment(self, params_m2):
        unveil, = simulate(params_m2, 3, 1, 7, 8).transcript.unveils
        assert unveil.revealed == make_tape(2, 3, 7).values[3:7]
        assert len(unveil.revealed) == 4

    def test_unveiler_site_for_round_two(self, params_m2):
        assert simulate(params_m2, 2, 1, 7, 8).transcript.unveils[0].site == 1

    def test_completes_before_deadline(self, params_m2):
        t = simulate(params_m2, 2, 1, 7, 8).transcript
        unveil, = t.unveils
        assert unveil.completes_at == t.rounds[-1].response_end
        assert unveil.completes_at < unveil_deadline(params_m2, 2)

    @given(valid_params())
    def test_unveil_time_has_margin_everywhere(self, p):
        # the unveils complete at round R's answer instant
        for r in (1, 2, 3, 9):
            answer = round_window(p, r)[1] + p.intra_delay
            assert answer < unveil_deadline(p, r)

    def test_partner_unveil_mirrors_primary(self, params_m2):
        t = simulate(params_m2, 2, 1, 7, 8, dual_unveil=True).transcript
        by_site = {u.site: u for u in t.unveils}
        primary, partner = by_site[1], by_site[2]
        assert len(t.unveils) == 2
        assert partner.revealed == primary.revealed
        assert partner.completes_at == primary.completes_at


class TestTape:
    def test_deterministic(self):
        assert make_tape(3, 4, 99).values == make_tape(3, 4, 99).values

    def test_length_covers_planned_rounds(self):
        assert len(make_tape(2, 5, 1).values) == 31
        assert len(make_tape(10, 3, 1).values) == 111

    def test_values_in_range(self):
        assert all(0 <= v < 8 for v in make_tape(3, 4, 7).values)
