from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbc.codec import decode_one
from rbc.netsim import RoundRecord, Transcript, aggregate_event, simulate
from rbc.cli import verdict_to_json_obj
from rbc.spacetime import (ProtocolParams, SpacetimeEvent, exact_str,
                           round_site, round_window, unveil_deadline)
from rbc.verifier import (COUNT_MISMATCH, DECODE_MISMATCH,
                          DUPLICATE_PAIR_MEMBERS, INCOMPLETE_TRANSCRIPT,
                          RANGE_ERROR, SITE_MISMATCH, TIMING_VIOLATION,
                          backward_decode, verify)

from mutations import (EPS, MALFORMED_PAIR_IDS, MALFORMED_PAIRS, with_pair,
                       with_revealed, with_round, with_unveil, with_value)


@pytest.fixture
def honest(params_m2):
    return simulate(params_m2, 3, 1, 7, 9).transcript


# Independent reference for backward_decode's C-level kernel: one
# decode_one call a commitment and one sum of shifted bits a key.

def reference_backward_decode(rounds, revealed, m):
    modulus = 1 << m
    keys = list(revealed)
    for k in range(len(rounds), 1, -1):
        rec = rounds[k - 1]
        bits = []
        for j, (value, pair, key) in enumerate(zip(rec.values, rec.pairs, keys)):
            bit = decode_one(value, pair, key, modulus)
            if bit is None:
                return None, (k, j)
            bits.append(bit)
        keys = [sum(b << i for i, b in enumerate(bits[g * m:(g + 1) * m]))
                for g in range(len(bits) // m)]
    first = rounds[0]
    bit = decode_one(first.values[0], first.pairs[0], keys[0], modulus)
    if bit is None:
        return None, (1, 0)
    return bit, None


def single_edits(t):
    """Every transcript that differs from t in one response value or one
    revealed key, moved by +1 or -1 mod N."""
    modulus = t.params.modulus
    for rec in t.rounds:
        for j, v in enumerate(rec.values):
            for d in (1, -1):
                yield with_value(t, rec.round, j, (v + d) % modulus)
    for j, v in enumerate(t.unveils[0].revealed):
        for d in (1, -1):
            yield with_revealed(t, j, (v + d) % modulus)


def with_list_pairs(t):
    return dataclasses.replace(t, rounds=tuple(
        dataclasses.replace(rec, pairs=[list(p) for p in rec.pairs])
        for rec in t.rounds))


def assert_decodes_as_reference(t):
    m, revealed = t.params.m, t.unveils[0].revealed
    assert (backward_decode(t.rounds, revealed, m)
            == reference_backward_decode(t.rounds, revealed, m))


class TestBackwardDecode:
    def test_single_round(self):
        rounds = (RoundRecord(1, 1, Fraction(0), Fraction(1, 100),
                              ((1, 2),), Fraction(3, 200), (0,)),)
        assert backward_decode(rounds, [3], 2) == (0, None)

    def test_two_round_chain(self):
        # round 2 opens to bits [1, 1] -> key 3 -> round 1 opens to bit 0
        r1 = RoundRecord(1, 1, Fraction(0), Fraction(1, 100),
                         ((1, 2),), Fraction(3, 200), (0,))
        r2 = RoundRecord(2, 2, Fraction(1), Fraction(2),
                         ((0, 1), (2, 3)), Fraction(3), (2, 1))
        assert backward_decode((r1, r2), [1, 2], 2) == (0, None)

    def test_reports_first_invalid_position(self):
        r1 = RoundRecord(1, 1, Fraction(0), Fraction(1, 100),
                         ((1, 2),), Fraction(3, 200), (0,))
        # position 1 response moved to 3: 3 - key 2 = 1, in neither member
        r2 = RoundRecord(2, 2, Fraction(1), Fraction(2),
                         ((0, 1), (2, 3)), Fraction(3), (2, 3))
        bit, position = backward_decode((r1, r2), [1, 2], 2)
        assert bit is None and position == (2, 1)

    def test_valid_reencoding_cascades_to_earlier_round(self):
        # moving the round-2 position-1 response to 0 re-encodes bit 0 there,
        # so the failure surfaces one round earlier with the altered key
        r1 = RoundRecord(1, 1, Fraction(0), Fraction(1, 100),
                         ((1, 2),), Fraction(3, 200), (0,))
        r2 = RoundRecord(2, 2, Fraction(1), Fraction(2),
                         ((0, 1), (2, 3)), Fraction(3), (2, 0))
        bit, position = backward_decode((r1, r2), [1, 2], 2)
        assert bit is None and position == (1, 0)


class TestDecodeKernel:
    """backward_decode against the per-commitment reference: the same
    (bit, position) on honest transcripts and on every single edit."""

    @pytest.mark.parametrize("m, rounds", [(2, 4), (3, 3), (10, 3)])
    def test_every_single_edit(self, m, rounds):
        t = simulate(ProtocolParams(m, "1", "0.005", "0.01"), rounds, 1, 3,
                     4).transcript
        assert backward_decode(t.rounds, t.unveils[0].revealed, m) == (1, None)
        edits = 0
        for edited in single_edits(t):
            assert_decodes_as_reference(edited)
            edits += 1
        assert edits == 2 * ((m ** rounds - 1) // (m - 1) + m ** (rounds - 1))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 1),
           st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1), st.data())
    def test_drawn_runs_and_edits(self, m, rounds, bit, alice, bob, data):
        t = simulate(ProtocolParams(m, "1", "0.005", "0.01"), rounds, bit,
                     alice, bob).transcript
        assert_decodes_as_reference(t)
        k = data.draw(st.integers(1, rounds))
        j = data.draw(st.integers(0, m ** (k - 1) - 1))
        value = data.draw(st.integers(0, t.params.modulus - 1))
        assert_decodes_as_reference(with_value(t, k, j, value))
        j = data.draw(st.integers(0, m ** (rounds - 1) - 1))
        assert_decodes_as_reference(with_revealed(t, j, value))

    @pytest.mark.parametrize("edit", [None, (3, 5), (2, 1), (1, 0)])
    def test_list_pairs(self, params_m3, edit):
        # list pairs are outside the verifier's shape check, and decode
        # as the reference does
        t = simulate(params_m3, 3, 0, 5, 6).transcript
        if edit is not None:
            k, j = edit
            t = with_value(t, k, j, (t.rounds[k - 1].values[j] + 1) % 8)
        assert_decodes_as_reference(with_list_pairs(t))
        assert_decodes_as_reference(t)


class TestCompleteness:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4])
    @pytest.mark.parametrize("bit", [0, 1])
    def test_honest_transcripts_accept(self, m, rounds, bit):
        p = ProtocolParams(m, "1", "0.005", "0.01")
        for seed in (0, 1):
            verdict = verify(simulate(p, rounds, bit, seed, seed + 100).transcript)
            assert verdict.outcome == "accept"
            assert verdict.bit == bit

    def test_verify_is_pure(self, honest):
        assert verify(honest) == verify(honest)

    def test_verdict_timestamped_at_aggregation(self, honest):
        assert verify(honest).issued_at == aggregate_event(honest).time


class TestValueMutations:
    def test_bumped_response_value_rejected(self, honest):
        rec = honest.rounds[2]
        mutated = with_value(honest, 3, 0, (rec.values[0] + 1) % 4)
        verdict = verify(mutated)
        assert verdict.reason == DECODE_MISMATCH
        assert verdict.reject_position is not None

    def test_round_one_response_flip_changes_bit(self, honest):
        # The unique other valid encoding opens the flipped bit: a response
        # mutation can re-encode a valid commitment, never keep the old bit.
        pair = honest.rounds[0].pairs[0]
        old = honest.rounds[0].values[0]
        for value in range(4):
            if value == old:
                continue
            verdict = verify(with_value(honest, 1, 0, value))
            if verdict.accepted:
                assert verdict.bit == 0
                delta = (value - old) % 4
                assert (pair[0] - pair[1]) % 4 == delta
            else:
                assert verdict.reason == DECODE_MISMATCH

    def test_revealed_value_mutation_rejected_or_flips(self, honest):
        old = honest.unveils[0].revealed[0]
        outcomes = set()
        for value in range(4):
            if value == old:
                continue
            verdict = verify(with_revealed(honest, 0, value))
            outcomes.add(verdict.outcome)
            if not verdict.accepted:
                assert verdict.reason == DECODE_MISMATCH
        assert "reject" in outcomes


class TestPairMutations:
    def test_used_member_mutation_always_rejects(self, params_m2):
        # decode looks for response - key among the members; moving the used
        # member orphans the honest response.
        t = simulate(params_m2, 1, 1, 3, 4).transcript
        pair = t.rounds[0].pairs[0]
        assert (t.rounds[0].values[0] - t.unveils[0].revealed[0]) % 4 == pair[1]
        for candidate in range(4):
            if candidate in (pair[0], pair[1]):
                continue
            verdict = verify(with_pair(t, 1, 0, (pair[0], candidate)))
            assert verdict.reason == DECODE_MISMATCH

    def test_unused_member_mutation_keeps_bit(self, params_m2):
        t = simulate(params_m2, 1, 1, 3, 4).transcript
        pair = t.rounds[0].pairs[0]
        for candidate in range(4):
            if candidate in (pair[0], pair[1]):
                continue
            verdict = verify(with_pair(t, 1, 0, (candidate, pair[1])))
            assert verdict.accepted and verdict.bit == 1

    def test_equal_members_rejected_as_duplicate(self, honest):
        pair = honest.rounds[1].pairs[0]
        verdict = verify(with_pair(honest, 2, 0, (pair[0], pair[0])))
        assert verdict.reason == DUPLICATE_PAIR_MEMBERS

    @pytest.mark.parametrize("pair", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
    def test_malformed_entry_rejected_as_range_error(self, honest, pair):
        verdict = verify(with_pair(honest, 2, 1, pair))
        assert verdict.reason == RANGE_ERROR
        assert verdict.reject_position == (2, 1)

    @pytest.mark.parametrize("pair", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
    def test_malformed_entry_keeps_walk_order(self, honest, pair):
        # an earlier duplicate still wins; a later bad response still loses
        first = honest.rounds[1].pairs[0]
        earlier = with_pair(honest, 2, 0, (first[0], first[0]))
        verdict = verify(with_pair(earlier, 2, 1, pair))
        assert verdict.reason == DUPLICATE_PAIR_MEMBERS
        assert verdict.reject_position == (2, 0)
        later = with_value(honest, 2, 0, 4)
        verdict = verify(with_pair(later, 2, 1, pair))
        assert verdict.reason == RANGE_ERROR
        assert verdict.reject_position == (2, 1)


class TestTimingMutations:
    def test_unveil_at_deadline_rejected(self, honest):
        deadline = unveil_deadline(honest.params, 3)
        verdict = verify(with_unveil(honest, completes_at=deadline))
        assert verdict.reason == TIMING_VIOLATION

    def test_unveil_past_deadline_rejected(self, honest):
        deadline = unveil_deadline(honest.params, 3)
        verdict = verify(with_unveil(honest, completes_at=deadline + EPS))
        assert verdict.reason == TIMING_VIOLATION

    def test_unveil_just_inside_deadline_passes_timing(self, honest):
        deadline = unveil_deadline(honest.params, 3)
        verdict = verify(with_unveil(honest, completes_at=deadline - EPS))
        assert verdict.accepted

    def test_challenge_before_window_rejected(self, honest):
        verdict = verify(with_round(honest, 2,
                                    challenge_start=honest.rounds[1].challenge_start - EPS))
        assert verdict.reason == TIMING_VIOLATION

    def test_challenge_after_window_rejected(self, honest):
        late = honest.rounds[0].challenge_end + honest.params.delta_t
        verdict = verify(with_round(honest, 1, challenge_end=late))
        assert verdict.reason == TIMING_VIOLATION

    def test_response_past_window_rejected(self, honest):
        from rbc.spacetime import round_window
        bound = round_window(honest.params, 3)[2]
        verdict = verify(with_round(honest, 3, response_end=bound + EPS))
        assert verdict.reason == TIMING_VIOLATION

    def test_response_at_window_end_accepted(self, honest):
        from rbc.spacetime import round_window
        bound = round_window(honest.params, 3)[2]
        moved = with_round(honest, 3, response_end=bound)
        # the aggregation follows the last completion, so re-stamp it
        verdict = verify(dataclasses.replace(moved,
                                             aggregation=aggregate_event(moved)))
        assert verdict.accepted

    def test_recorded_aggregation_rejected(self, honest):
        # the file's aggregation must be the event the verdict is issued at
        event = aggregate_event(honest)
        for recorded in (None, SpacetimeEvent(Fraction(0), 1),
                         SpacetimeEvent(event.time, 3 - event.site),
                         SpacetimeEvent(event.time + EPS, event.site)):
            verdict = verify(dataclasses.replace(honest, aggregation=recorded))
            assert verdict.reason == TIMING_VIOLATION
            assert verdict.issued_at == event.time
            shown = ("null" if recorded is None
                     else f"at {recorded.time} at site {recorded.site}")
            assert verdict.detail == (
                f"recorded aggregation {shown} is not the aggregation event "
                f"at {event.time} at site {event.site}")

    @pytest.mark.parametrize("delta, detail", [
        (None, None), (-3, "completes before the protocol start"),
        (1, "not strictly before")])
    def test_unveil_time_given_as_a_float(self, honest, delta, detail):
        # a float is held as the exact time it spells: -1.0 is refused as
        # before the start, and a float past the deadline is named in the
        # detail as a Fraction is
        at = honest.unveils[0].completes_at + (delta or 0)
        verdict = verify(with_unveil(honest, completes_at=float(at)))
        assert verdict == verify(with_unveil(honest, completes_at=at))
        if detail is None:
            assert verdict.accepted
        else:
            assert verdict.reason == TIMING_VIOLATION
            assert detail in verdict.detail

    @pytest.mark.parametrize("field", ["challenge_start", "challenge_end",
                                       "response_end"])
    @pytest.mark.parametrize("shift", [0, -1, 1])
    def test_round_time_given_as_a_float(self, honest, field, shift):
        # a float is held as the exact time it spells, so a moved round
        # time is named in the detail as a Fraction is
        at = getattr(honest.rounds[1], field) + shift
        verdict = verify(with_round(honest, 2, **{field: float(at)}))
        assert verdict == verify(with_round(honest, 2, **{field: at}))
        assert verdict.accepted == (shift == 0)

    def test_response_before_challenge_rejected(self, honest):
        verdict = verify(with_round(honest, 2,
                                    response_end=honest.rounds[1].challenge_end - EPS))
        assert verdict.reason == TIMING_VIOLATION


class TestSiteAndShapeMutations:
    def test_wrong_unveil_site(self, honest):
        verdict = verify(with_unveil(honest, site=round_site(3)))
        assert verdict.reason == SITE_MISMATCH

    # 2.0 and True are built in memory only: the writer refuses them
    @pytest.mark.parametrize("site", [0, 3, 2.0, True])
    def test_unveil_site_not_a_site_id(self, honest, site):
        verdict = verify(with_unveil(honest, site=site))
        assert verdict.reason == SITE_MISMATCH
        assert verdict.detail == f"unveil site {site} is not a site id"

    def test_wrong_round_site(self, honest):
        verdict = verify(with_round(honest, 2, site=1))
        assert verdict.reason == SITE_MISMATCH

    def test_dropped_value(self, honest):
        verdict = verify(with_round(honest, 2, values=honest.rounds[1].values[:-1]))
        assert verdict.reason == COUNT_MISMATCH

    def test_dropped_revealed(self, honest):
        verdict = verify(with_unveil(honest, revealed=honest.unveils[0].revealed[:-1]))
        assert verdict.reason == COUNT_MISMATCH

    def test_extra_pair(self, honest):
        rec = honest.rounds[0]
        verdict = verify(with_round(honest, 1, pairs=rec.pairs + rec.pairs))
        assert verdict.reason == COUNT_MISMATCH

    # Non-int and negative residues are built in memory, as no parsed file
    # can hold them; the verifier must reject them, not decode them.
    @pytest.mark.parametrize("mutate", [
        lambda t: with_value(t, 2, 1, 4),
        lambda t: with_value(t, 2, 1, True),
        lambda t: with_pair(t, 2, 1, (float(t.rounds[1].pairs[1][0]),
                                      t.rounds[1].pairs[1][1])),
        lambda t: with_pair(t, 2, 1, (-1, t.rounds[1].pairs[1][1])),
    ], ids=["too_large", "bool_response", "float_pair_member",
            "negative_pair_member"])
    def test_out_of_range_response(self, honest, mutate):
        verdict = verify(mutate(honest))
        assert verdict.reason == RANGE_ERROR
        assert verdict.reject_position == (2, 1)

    @pytest.mark.parametrize("value", [99, True], ids=["too_large", "bool_key"])
    def test_out_of_range_revealed(self, honest, value):
        verdict = verify(with_revealed(honest, 2, value))
        assert verdict.reason == RANGE_ERROR
        assert verdict.reject_position == (3, 2)

    def test_non_consecutive_rounds(self, honest):
        verdict = verify(dataclasses.replace(honest, rounds=honest.rounds[1:]))
        assert verdict.reason == COUNT_MISMATCH

    def test_unveil_for_wrong_round(self, honest):
        verdict = verify(with_unveil(honest, round=2))
        assert verdict.reason == COUNT_MISMATCH


class TestNonIntIndices:
    """Round and site indices built in memory as floats, None or text.

    No parsed file holds them, and the writer refuses them; the verifier
    must reject them by their shape, and must not let them into the round
    window memo of the params, which an honest transcript shares."""

    @pytest.mark.parametrize("value", [3.0, None, "3"],
                             ids=["float", "none", "text"])
    def test_last_round_index(self, honest, value):
        verdict = verify(with_round(honest, 3, round=value))
        assert verdict.reason == COUNT_MISMATCH
        assert verdict.detail == (f"rounds not consecutive: position 2 "
                                  f"holds round {value}, expected 3")
        assert verify(honest).accepted

    def test_float_round_leaves_the_window_memo_exact(self, honest):
        verify(with_round(honest, 3, round=3.0))
        assert all(type(t) is Fraction
                   for t in round_window(honest.params, 3))
        assert verify(honest).accepted

    def test_float_round_rejected_with_a_warm_memo(self, honest):
        assert verify(honest).accepted
        assert verify(with_round(honest, 3, round=3.0)).reason == COUNT_MISMATCH

    @pytest.mark.parametrize("k, site", [(1, 1.0), (2, 2.0)])
    def test_record_site(self, honest, k, site):
        verdict = verify(with_round(honest, k, site=site))
        assert verdict.reason == SITE_MISMATCH
        assert verdict.detail == (f"round {k} recorded at site {site}, "
                                  f"schedule requires site {round_site(k)}")

    def test_dual_unveil_float_site(self, params_m2):
        dual = simulate(params_m2, 2, 1, 7, 9, dual_unveil=True).transcript
        idx = [u.site for u in dual.unveils].index(2)
        verdict = verify(with_unveil(dual, idx, site=2.0))
        assert verdict.reason == SITE_MISMATCH

    def test_unveil_round(self, honest):
        verdict = verify(with_unveil(honest, round=3.0))
        assert verdict.reason == COUNT_MISMATCH
        assert verdict.detail == ("unveil targets round 3.0, "
                                  "transcript ends at round 3")


class TestHostileTimestamps:
    def test_negative_unveil_time_rejected_without_crash(self, honest):
        verdict = verify(with_unveil(honest, completes_at=Fraction(-1)))
        assert verdict.reason == TIMING_VIOLATION

    def test_all_negative_times_rejected_without_crash(self, honest):
        mangled = honest
        for k in range(1, 4):
            mangled = with_round(mangled, k,
                                 challenge_start=Fraction(-3),
                                 challenge_end=Fraction(-2),
                                 response_end=Fraction(-1))
        mangled = with_unveil(mangled, completes_at=Fraction(-1))
        verdict = verify(mangled)
        assert verdict.outcome == "reject"
        assert verdict.reason == TIMING_VIOLATION

    def test_negative_dual_partner_rejected(self, params_m2):
        dual = simulate(params_m2, 2, 1, 7, 9, dual_unveil=True).transcript
        verdict = verify(with_unveil(dual, idx=1, completes_at=Fraction(-1)))
        assert verdict.reason == TIMING_VIOLATION

    def test_time_past_digit_limit_keeps_detail_printable(self, honest):
        # str() of a 5,001-digit time raises past CPython's digit limit
        verdict = verify(with_unveil(honest, completes_at=Fraction(10 ** 5000)))
        assert verdict.reason == TIMING_VIOLATION
        assert verdict.detail == ("unveil completes at about 2^16609, not "
                                  "strictly before 73/25")


class TestPrintableVerdict:
    """repr and the CLI's JSON of a verdict stay total for any issued_at."""

    def test_aggregation_time_past_digit_limit(self, params_m2):
        t = simulate(params_m2, 2, 1, 7, 9).transcript
        verdict = verify(with_unveil(t, completes_at=Fraction(10 ** 5000)))
        assert verdict.reason == TIMING_VIOLATION
        assert verdict.issued_at > 10 ** 4999
        assert repr(verdict).endswith(", issued_at=<about 2^16610>)")
        obj = verdict_to_json_obj(verdict)
        assert obj["aggregation_time"] == "about 2^16610"
        assert json.loads(json.dumps(obj)) == obj

    def test_printable_verdict_keeps_dataclass_repr(self, honest):
        verdict = verify(honest)
        issued = verdict.issued_at
        assert repr(verdict) == (
            f"Verdict(outcome='accept', bit=1, reason=None, detail=None, "
            f"reject_position=None, issued_at={issued!r})")
        assert verdict_to_json_obj(verdict)["aggregation_time"] == exact_str(issued)


class TestIncompleteTranscripts:
    def test_abort_reason_blocks_verdict(self, honest):
        verdict = verify(dataclasses.replace(honest, abort="window missed"))
        assert verdict.reason == INCOMPLETE_TRANSCRIPT

    def test_missing_unveil(self, honest):
        verdict = verify(dataclasses.replace(honest, unveils=()))
        assert verdict.reason == INCOMPLETE_TRANSCRIPT

    def test_no_rounds(self, honest):
        verdict = verify(dataclasses.replace(honest, rounds=(), unveils=()))
        assert verdict.reason == INCOMPLETE_TRANSCRIPT


class TestInvalidParams:
    def test_bad_geometry_is_range_error(self, honest):
        bad = ProtocolParams.unchecked(2, Fraction(1, 100), Fraction(1, 1000),
                                       Fraction(5, 1000), Fraction(1, 1000))
        verdict = verify(dataclasses.replace(honest, params=bad))
        assert verdict.reason == RANGE_ERROR

    def test_period_past_digit_limit_keeps_detail_printable(self, honest):
        bad = ProtocolParams.unchecked(2, Fraction(1), Fraction(0),
                                       Fraction(10 ** 5000), Fraction(0))
        verdict = verify(dataclasses.replace(honest, params=bad))
        assert verdict.reason == RANGE_ERROR
        assert "derived period T = about -2^16610 must be > 0" in verdict.detail

    def test_bad_m_is_range_error(self, honest):
        bad = ProtocolParams.unchecked(1, Fraction(1), Fraction(1, 200),
                                       Fraction(1, 100), Fraction(1, 200))
        verdict = verify(dataclasses.replace(honest, params=bad))
        assert verdict.reason == RANGE_ERROR


class TestDualUnveil:
    @pytest.fixture
    def dual(self, params_m2):
        return simulate(params_m2, 2, 1, 7, 9, dual_unveil=True).transcript

    def test_honest_dual_accepts(self, dual):
        assert len(dual.unveils) == 2
        verdict = verify(dual)
        assert verdict.accepted and verdict.bit == 1

    def test_one_late_unveil_rejected(self, dual):
        deadline = unveil_deadline(dual.params, 2)
        verdict = verify(with_unveil(dual, idx=1, completes_at=deadline))
        assert verdict.reason == TIMING_VIOLATION

    def test_differing_lists_rejected(self, dual):
        other = (dual.unveils[0].revealed[0] + 1) % 4
        verdict = verify(with_revealed(dual, 0, other, idx=1))
        assert verdict.reason == DECODE_MISMATCH

    def test_same_site_unveils_rejected(self, dual):
        verdict = verify(with_unveil(dual, idx=1, site=dual.unveils[0].site))
        assert verdict.reason == SITE_MISMATCH

    def test_non_spacelike_emissions_rejected(self, dual):
        # both inside the deadline but far enough apart for light to connect
        early = with_unveil(dual, idx=0, completes_at=Fraction(0))
        verdict = verify(with_unveil(early, idx=1, completes_at=Fraction(3, 2)))
        assert verdict.reason == TIMING_VIOLATION

    def test_three_unveils_rejected(self, dual):
        trip = dataclasses.replace(dual, unveils=dual.unveils + dual.unveils[:1])
        assert verify(trip).reason == COUNT_MISMATCH


class TestUnveilTimingDetails:
    """Every reject the unveil timing checks make, with its exact detail.

    The honest m=2 single unveil comes from site 2 with the R=3 deadline
    73/25; the dual pair at R=2 comes from sites 1 then 2 with the
    deadline 391/200.  Where two faults meet, the pinned one is reported:
    a negative time before a site, and a site before a deadline.
    """

    @pytest.fixture
    def dual(self, params_m2):
        return simulate(params_m2, 2, 1, 7, 9, dual_unveil=True).transcript

    @pytest.mark.parametrize("changes, reason, detail", [
        ({"completes_at": Fraction(-1)}, TIMING_VIOLATION,
         "unveil from site 2 completes before the protocol start"),
        ({"completes_at": Fraction(-1), "site": 1}, TIMING_VIOLATION,
         "unveil from site 1 completes before the protocol start"),
        ({"site": 1}, SITE_MISMATCH,
         "unveil from site 1, round 3 requires site 2"),
        ({"site": 1, "completes_at": Fraction(73, 25)}, SITE_MISMATCH,
         "unveil from site 1, round 3 requires site 2"),
        ({"completes_at": Fraction(73, 25)}, TIMING_VIOLATION,
         "unveil completes at 73/25, not strictly before 73/25"),
        ({"completes_at": Fraction(3)}, TIMING_VIOLATION,
         "unveil completes at 3, not strictly before 73/25"),
    ], ids=["negative", "negative_before_site", "site", "site_before_deadline",
            "at_deadline", "past_deadline"])
    def test_single(self, honest, changes, reason, detail):
        verdict = verify(with_unveil(honest, **changes))
        assert (verdict.reason, verdict.detail) == (reason, detail)

    @pytest.mark.parametrize("changes, reason, detail", [
        ([{}, {"completes_at": Fraction(-1)}], TIMING_VIOLATION,
         "unveil from site 2 completes before the protocol start"),
        ([{"completes_at": Fraction(391, 200)}, {"completes_at": Fraction(-1)}],
         TIMING_VIOLATION,
         "unveil from site 2 completes before the protocol start"),
        ([{}, {"site": 1}], SITE_MISMATCH,
         "dual unveil requires exactly one message from each site"),
        ([{"site": 2}, {"site": 1}], None, None),
        ([{"site": 2}, {"completes_at": Fraction(391, 200)}], SITE_MISMATCH,
         "dual unveil requires exactly one message from each site"),
        ([{}, {"completes_at": Fraction(391, 200)}], TIMING_VIOLATION,
         "unveil from site 2 completes at 391/200, not strictly before 391/200"),
        ([{"completes_at": Fraction(2)}, {"completes_at": Fraction(391, 200)}],
         TIMING_VIOLATION,
         "unveil from site 1 completes at 2, not strictly before 391/200"),
        ([{"completes_at": Fraction(0)}, {"completes_at": Fraction(3, 2)}],
         TIMING_VIOLATION, "dual unveil emissions are not spacelike separated"),
        ([{"completes_at": Fraction(0)}, {"completes_at": Fraction(391, 200)}],
         TIMING_VIOLATION,
         "unveil from site 2 completes at 391/200, not strictly before 391/200"),
    ], ids=["negative", "negative_before_deadline", "same_sites",
            "swapped_sites", "sites_before_deadline", "at_deadline",
            "first_late_named", "not_spacelike", "deadline_before_spacelike"])
    def test_dual(self, dual, changes, reason, detail):
        mutated = dual
        for idx, change in enumerate(changes):
            if change:
                mutated = with_unveil(mutated, idx, **change)
        verdict = verify(mutated)
        if reason is None:
            # the pair's order is free: only the two site ids are required
            assert verdict.accepted and verdict.bit == 1
        else:
            assert (verdict.reason, verdict.detail) == (reason, detail)
