from __future__ import annotations

import dataclasses
import hashlib
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbc.adversary import OffsetGuessAlice
from rbc.codec import tape_consumed
from rbc.codec import PairChallenge
from rbc.netsim import (MAX_TAPE_KEYS, CausalView, HonestAlice, RoundRecord,
                        TimedMessage, aggregate_event, causal_view, simulate)
from rbc.spacetime import (GeometryError, ProtocolParams, SpacetimeEvent,
                           round_site, round_window, unveil_deadline)
from rbc.transcript_io import serialize_transcript
from rbc.verifier import backward_decode, verify

from conftest import (CommittedBitGuess, ShortAnswer, decision_view,
                      replay_decisions, valid_params)

# Parametrize ids name the strategy classes as the attack CLI names them.
_STRATEGY_IDS = {HonestAlice: "honest", OffsetGuessAlice: "offset-guess"}


def _strategy_id(value):
    return _STRATEGY_IDS.get(value) if isinstance(value, type) else None


def _stamped(payload, time, from_site, to_site, params) -> TimedMessage:
    """A message as the simulator stamps it, built by hand for the filter."""
    delay = params.intra_delay if to_site == from_site else params.cross_delay
    return TimedMessage(payload, SpacetimeEvent(Fraction(time), from_site),
                        to_site, Fraction(time) + delay)


class TestSend:
    """The delay rule on the messages simulate logs."""

    def test_cross_site_arrival(self, params_m2):
        # every round is relayed to the twin site
        res = simulate(params_m2, 3, 0, 1, 2, strategy=OffsetGuessAlice())
        crossing = [m for m in res.messages if m.destination != m.sent.site]
        assert crossing and all(isinstance(m.payload, RoundRecord)
                                for m in crossing)
        for msg in crossing:
            assert msg.earliest_arrival == msg.sent.time + params_m2.cross_delay

    def test_same_site_arrival_uses_intra_delay(self, params_m2):
        res = simulate(params_m2, 3, 0, 1, 2)
        for msg in res.messages:
            if msg.destination == msg.sent.site:
                assert msg.earliest_arrival == msg.sent.time + params_m2.intra_delay
            else:
                # an honest run's only crossing messages are the relays
                assert isinstance(msg.payload, RoundRecord)
                assert msg.earliest_arrival == msg.sent.time + params_m2.cross_delay


class TestCausalView:
    def test_cross_site_not_visible_just_before_arrival(self, params_m2):
        msg = _stamped("x", 0, 1, 2, params_m2)
        early = params_m2.cross_delay - Fraction(1, 10**9)
        assert causal_view(2, early, [msg]).messages == ()

    def test_visible_exactly_at_arrival(self, params_m2):
        msg = _stamped("x", 0, 1, 2, params_m2)
        assert causal_view(2, params_m2.cross_delay, [msg]).messages == (msg,)

    def test_same_site_visible_after_intra_delay(self, params_m2):
        msg = _stamped("x", 0, 1, 1, params_m2)
        assert causal_view(1, params_m2.intra_delay, [msg]).messages == (msg,)

    def test_other_sites_messages_never_visible(self, params_m2):
        msg = _stamped("x", 0, 1, 2, params_m2)
        assert causal_view(1, Fraction(100), [msg]).messages == ()

    def test_view_carries_nothing_but_filtered_messages(self):
        names = {f.name for f in dataclasses.fields(CausalView)}
        assert names == {"site", "now", "messages"}


class TestRunProtocol:
    def test_single_round_accepts(self, params_m2):
        t = simulate(params_m2, 1, 0, 21, 22).transcript
        assert t.abort is None
        assert len(t.rounds) == 1
        assert len(t.unveils) == 1
        assert len(t.unveils[0].revealed) == 1
        # oracle: decode the chain directly
        assert backward_decode(t.rounds, t.unveils[0].revealed, 2) == (0, None)
        assert verify(t).bit == 0

    def test_round_sizes_are_geometric(self):
        p = ProtocolParams(3, "1", "0.005", "0.01")
        t = simulate(p, 4, 1, 5, 6).transcript
        assert [len(r.values) for r in t.rounds] == [1, 3, 9, 27]
        assert [len(r.pairs) for r in t.rounds] == [1, 3, 9, 27]

    def test_deterministic_and_byte_identical(self, params_m3):
        a = simulate(params_m3, 3, 1, 7, 9).transcript
        b = simulate(params_m3, 3, 1, 7, 9).transcript
        assert a == b
        assert serialize_transcript(a) == serialize_transcript(b)

    def test_seed_changes_transcript(self, params_m2):
        assert (simulate(params_m2, 2, 1, 7, 9).transcript
                != simulate(params_m2, 2, 1, 8, 9).transcript)

    def test_sites_alternate(self, params_m2):
        t = simulate(params_m2, 4, 0, 1, 2).transcript
        assert [r.site for r in t.rounds] == [1, 2, 1, 2]
        assert t.unveils[0].site == 3 - round_site(4) == 1

    @given(valid_params(m=st.integers(2, 3)), st.integers(1, 4),
           st.integers(0, 1), st.integers(0, 2**16), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_honest_runs_respect_all_windows(self, p, rounds, bit, sa, sb):
        t = simulate(p, rounds, bit, sa, sb).transcript
        assert t.abort is None
        for rec in t.rounds:
            start, end, response_end = round_window(p, rec.round)
            assert start <= rec.challenge_start <= rec.challenge_end <= end
            assert rec.challenge_end <= rec.response_end <= response_end
        for u in t.unveils:
            assert u.completes_at < unveil_deadline(p, t.last_round)
        assert verify(t).bit == bit

    def test_event_times_non_decreasing_per_site(self, params_m2):
        t = simulate(params_m2, 5, 1, 3, 4).transcript
        for site in (1, 2):
            times = []
            for rec in t.rounds:
                if rec.site == site:
                    times.extend([rec.challenge_start, rec.challenge_end,
                                  rec.response_end])
            times.extend(u.completes_at for u in t.unveils if u.site == site)
            assert times == sorted(times)

    def test_dual_unveil_mode(self, params_m2):
        t = simulate(params_m2, 2, 1, 7, 9, dual_unveil=True).transcript
        assert sorted(u.site for u in t.unveils) == [1, 2]
        assert t.unveils[0].revealed == t.unveils[1].revealed
        assert verify(t).bit == 1


class TestAbortPaths:
    def test_response_window_miss_recorded(self):
        # delta > delta_t lets a maximal intra delay overshoot the response
        # deadline; such params are invalid, so no run can miss it.
        with pytest.raises(GeometryError,
                           match=r"intra_delay <= delta \+ delta_t"):
            ProtocolParams(2, "1", "0.09", "0.001", intra_delay="0.18")

    def test_response_exactly_at_deadline_completes(self):
        # intra_delay = delta + delta_t: every challenge arrives exactly at
        # its inclusive response deadline
        p = ProtocolParams(2, "1", "0.01", "0.01", intra_delay="0.02")
        t = simulate(p, 3, 1, 1, 2).transcript
        assert t.abort is None
        assert [rec.response_end for rec in t.rounds] == [
            round_window(p, k)[2] for k in (1, 2, 3)]
        assert verify(t).bit == 1

    def test_malformed_strategy_output_recorded(self, params_m2):
        t = simulate(params_m2, 2, 0, 1, 2, strategy=ShortAnswer()).transcript
        assert t.abort is not None and "expected 2 values" in t.abort

    def test_out_of_range_strategy_output_recorded(self, params_m2):
        class BigAnswer(HonestAlice):
            def respond(self, view, k, priv):
                return tuple(v + priv.params.modulus
                             for v in super().respond(view, k, priv))

        t = simulate(params_m2, 1, 0, 1, 2, strategy=BigAnswer()).transcript
        assert t.abort is not None and "outside" in t.abort

    def test_respond_without_needed_relay_recorded(self, params_m2):
        # The round-1 relay reaches site 2 only after round 2 is answered,
        # so an answer that needs it aborts the run, as an unveil does.
        class EchoesLastRound(HonestAlice):
            def respond(self, view, k, priv):
                if k > 1 and view.record_for(k - 1) is None:
                    raise LookupError(f"round {k - 1} relay missing from "
                                      f"causal view")
                return super().respond(view, k, priv)

        strategy = EchoesLastRound()
        res = simulate(params_m2, 2, 0, 1, 2, strategy=strategy)
        assert res.transcript.abort == (
            "respond at site 2: round 1 relay missing from causal view")
        # site 1's unveil shares round 2's answer instant and comes first
        assert [d.kind for d in res.decisions] == ["respond", "unveil"]
        assert verify(res.transcript).reason == "incomplete_transcript"
        replay_decisions(res, strategy, 0, 2)

    def test_unveil_without_needed_relay_recorded(self, params_m2):
        # The partner unveiler at round R's own site cannot have the twin
        # site's round-1 relay by the unveil time, so its forgery aborts.
        strategy = OffsetGuessAlice()
        res = simulate(params_m2, 2, 0, 1, 3, strategy=strategy,
                       dual_unveil=True)
        assert "round 1 relay missing" in res.transcript.abort
        assert res.transcript.aggregation is None
        assert verify(res.transcript).reason == "incomplete_transcript"
        replay_decisions(res, strategy, 0, 2)


class TestModulusBound:
    def test_largest_m_runs(self):
        t = simulate(ProtocolParams(64, "1", "0.005", "0.01"), 2, 1, 3, 4).transcript
        verdict = verify(t)
        assert verdict.accepted and verdict.bit == 1

    def test_m_past_the_file_bound_refused(self):
        p = ProtocolParams(65, "1", "0.005", "0.01")
        assert p.problems() == []
        with pytest.raises(ValueError, match="m=65"):
            simulate(p, 1, 0, 3, 4)


class TestWalkOrder:
    """The fixed schedule's order at the instant round R's answer shares
    with the unveils: site 1 before site 2, and at one site the unveil
    before the answer."""

    @pytest.mark.parametrize("rounds,strategy,decisions,messages,aborted", [
        (1, HonestAlice, [("unveil", 1, 1, 1), ("respond", 1, 1, 2),
                          ("unveil", 2, 1, 4)], 5, False),
        (1, OffsetGuessAlice, [("unveil", 1, 1, 1), ("respond", 1, 1, 2),
                               ("unveil", 2, 1, 4)], 5, False),
        (2, HonestAlice, [("respond", 1, 1, 1), ("unveil", 1, 2, 4),
                          ("unveil", 2, 2, 5), ("respond", 2, 2, 6)], 8, False),
        (2, OffsetGuessAlice, [("respond", 1, 1, 1), ("unveil", 1, 2, 4)], 5,
         True),
    ], ids=_strategy_id)
    def test_decision_order_and_log_sizes(self, params_m2, rounds, strategy,
                                          decisions, messages, aborted):
        res = simulate(params_m2, rounds, 1, 7, 9, strategy=strategy(),
                       dual_unveil=True)
        assert [(d.kind, d.site, d.round, d.log_size)
                for d in res.decisions] == decisions
        assert len(res.messages) == messages
        unveil_sites = [site for kind, site, _, _ in decisions if kind == "unveil"]
        assert [u.site for u in res.transcript.unveils] == unveil_sites
        assert (res.transcript.abort is not None) == aborted

    def test_invalid_geometry_refused(self):
        p = ProtocolParams.unchecked(2, Fraction(1), Fraction(1, 10),
                                     Fraction(1, 100), Fraction(1, 10))
        with pytest.raises(ValueError, match=r"10\*delta < delta_x"):
            simulate(p, 3, 1, 1, 2)

    # a bit of 1 as another type is refused as well
    @pytest.mark.parametrize("rounds, bit, message", [
        (0, 0, "rounds must be >= 1"), (1, 2, "bit must be 0 or 1"),
        (1, 1.0, "bit must be 0 or 1"), (1, True, "bit must be 0 or 1"),
        (1, Fraction(1), "bit must be 0 or 1")])
    def test_bad_run_inputs_refused(self, params_m2, rounds, bit, message):
        with pytest.raises(ValueError, match=message):
            simulate(params_m2, rounds, bit, 1, 2)

    @pytest.mark.parametrize("seed", [1.0, True, Fraction(1)],
                             ids=["float", "bool", "fraction"])
    @pytest.mark.parametrize("name", ["alice_seed", "bob_seed"])
    def test_seeds_must_be_exact_ints(self, params_m2, name, seed):
        seeds = {"alice_seed": 1, "bob_seed": 2, name: seed}
        message = f"{name} must be an int in [0, 2**64), got {seed!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(params_m2, 2, 1, **seeds)

    def test_tape_bound_allows_the_documented_runs(self):
        assert tape_consumed(10, 7) <= MAX_TAPE_KEYS < tape_consumed(10, 8)
        assert tape_consumed(2, 22) <= MAX_TAPE_KEYS < tape_consumed(2, 23)

    @pytest.mark.parametrize("m, rounds", [(2, 23), (2, 60), (2, 10 ** 9),
                                           (10, 8), (64, 10 ** 18)])
    def test_run_past_the_tape_bound_refused(self, m, rounds):
        # refused before any key is drawn, and without building m**rounds
        p = ProtocolParams(m, "1", "0.005", "0.01")
        with pytest.raises(ValueError, match=f"rounds={rounds} at m={m} draws "
                                             f"more than {MAX_TAPE_KEYS} tape keys"):
            simulate(p, rounds, 1, 1, 2)


class TestBobIndependence:
    def test_challenges_identical_under_altered_responses(self, params_m2):
        class Scrambled(HonestAlice):
            def respond(self, view, k, priv):
                honest = super().respond(view, k, priv)
                return tuple((v + 1) % priv.params.modulus for v in honest)

        honest = simulate(params_m2, 3, 1, 7, 9).transcript
        scrambled = simulate(params_m2, 3, 1, 7, 9, strategy=Scrambled()).transcript
        assert [r.pairs for r in honest.rounds] == [r.pairs for r in scrambled.rounds]


class TestReplay:
    def test_honest_decisions_replayable(self, params_m3):
        replay_decisions(simulate(params_m3, 4, 1, 7, 9), HonestAlice(), 1, 4)

    @pytest.mark.parametrize("bit", [0, 1])
    @pytest.mark.parametrize("rounds", [1, 2, 3])
    def test_replays_the_run_strategy_object(self, params_m2, rounds, bit):
        # the registry's offset-guess flips the bit; this one keeps it
        strategy = CommittedBitGuess()
        res = simulate(params_m2, rounds, bit, 11, 22, strategy=strategy)
        replay_decisions(res, strategy, bit, rounds)

    def test_replays_a_strategy_outside_the_registry(self, params_m2):
        class Shifted(HonestAlice):
            def respond(self, view, k, priv):
                honest = super().respond(view, k, priv)
                return tuple((v + 1) % priv.params.modulus for v in honest)

        strategy = Shifted()
        replay_decisions(simulate(params_m2, 3, 1, 11, 22, strategy=strategy),
                         strategy, 1, 3)

    def test_replayable_with_zero_delays(self):
        # delta = 0 makes same-site delivery instantaneous: the rebuilt view
        # must come from the log prefix, not the full log, or an agent's own
        # just-emitted message would leak into it
        p = ProtocolParams(2, "1", 0, "0.01")
        assert p.intra_delay == 0
        replay_decisions(simulate(p, 3, 1, 1, 2), HonestAlice(), 1, 3)

    def test_divergent_replay_refused(self, params_m2):
        # the reference is not vacuous: the other bit gives other answers
        res = simulate(params_m2, 3, 1, 7, 9)
        with pytest.raises(AssertionError, match="respond at round 1 not "
                                                 "reproducible"):
            replay_decisions(res, HonestAlice(), 0, 3)

    def test_every_view_satisfies_causal_predicate(self, params_m2):
        res = simulate(params_m2, 3, 0, 5, 6)
        for decision in res.decisions:
            for msg in decision_view(res, decision).messages:
                assert msg.destination == decision.site
                assert msg.earliest_arrival <= decision.time

    def test_challenge_only_visible_after_intra_delay(self, params_m2):
        res = simulate(params_m2, 1, 0, 5, 6)
        (respond,) = [d for d in res.decisions if d.kind == "respond"]
        start, end, _ = round_window(params_m2, 1)
        assert respond.time == end + params_m2.intra_delay
        assert any(isinstance(m.payload, PairChallenge)
                   for m in decision_view(res, respond).messages)


class TestAggregateEvent:
    def test_single_round_dominated_by_cross_hop(self, params_m2):
        t = simulate(params_m2, 1, 0, 1, 2).transcript
        # manual max: the round-1 record leaves site 1 and crosses to HQ = 2
        rec = t.rounds[0]
        expected = rec.response_end + params_m2.intra_delay + params_m2.cross_delay
        assert t.aggregation == SpacetimeEvent(expected, 2)
        assert aggregate_event(t) == t.aggregation

    def test_aggregation_not_before_any_arrival(self, params_m2):
        t = simulate(params_m2, 4, 1, 3, 4).transcript
        hq = t.aggregation.site
        assert hq == 3 - round_site(4)
        for rec in t.rounds:
            local = rec.response_end + params_m2.intra_delay
            if rec.site != hq:
                local += params_m2.cross_delay
            assert t.aggregation.time >= local

    def test_requires_unveiling(self, params_m2):
        t = simulate(params_m2, 1, 0, 1, 2).transcript
        stripped = dataclasses.replace(t, unveils=(), aggregation=None)
        with pytest.raises(ValueError):
            aggregate_event(stripped)


def _sha256(t) -> str:
    return hashlib.sha256(serialize_transcript(t).encode("utf-8")).hexdigest()


class TestPinnedRuns:
    """Exact bytes of runs off the honest path: an abort, a forged dual
    unveil and a geometry whose denominators share no factor; and the
    verdict on params no run can have."""

    def test_offset_guess_dual_unveil(self, params_m2):
        t = simulate(params_m2, 1, 1, 7, 9, strategy=OffsetGuessAlice(),
                     dual_unveil=True).transcript
        assert t.abort is None and len(t.unveils) == 2
        assert _sha256(t) == (
            "34ce998ea18b48c656a94ed4e2ad46dd1f8bbcecc70649a8e48a065f5bc1395c")

    def test_offset_guess_dual_unveil_abort(self, params_m2):
        t = simulate(params_m2, 2, 1, 7, 9, strategy=OffsetGuessAlice(),
                     dual_unveil=True).transcript
        assert t.abort == "unveil at site 2: round 1 relay missing from causal view"
        assert _sha256(t) == (
            "92114c41d5ebe7972935b6bf6c67f05343e8f35136f499f7a84e8c64326ed2ec")

    def test_response_window_miss(self, params_m2):
        # Params whose challenges would arrive past the response deadline
        # are invalid, so a transcript carrying them gets range_error.
        honest = simulate(params_m2, 1, 0, 1, 2).transcript
        late = ProtocolParams.unchecked(2, Fraction(1), Fraction(9, 100),
                                        Fraction(1, 1000), Fraction(18, 100))
        verdict = verify(dataclasses.replace(honest, params=late))
        assert (verdict.reason, verdict.detail) == (
            "range_error", "invalid params: response deadline missed: "
            "need intra_delay <= delta + delta_t")

    def test_coprime_denominators(self):
        p = ProtocolParams(3, Fraction(7, 3), Fraction(1, 97), Fraction(1, 31),
                           intra_delay=Fraction(1, 101))
        assert p.clock.scale == 3 * 97 * 31 * 101
        t = simulate(p, 3, 1, 7, 9).transcript
        assert t.aggregation == SpacetimeEvent(Fraction(2077524, 303707), 2)
        assert _sha256(t) == (
            "cd48bb7f68f7e613123e88e008452bb37d261124e6d02a472281b8b452fa4a1f")


class TestTickClock:
    """The simulator's integer clock gives the Fraction geometry exactly."""

    @given(valid_params(m=st.integers(2, 3)), st.sampled_from([0, 1, 2]),
           st.integers(1, 4), st.integers(0, 1),
           st.sampled_from([HonestAlice, OffsetGuessAlice]), st.booleans(),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_times_match_fraction_geometry(self, base, intra, rounds, bit,
                                           strategy, dual, seed):
        # the top draw is the largest valid delay, min(2*delta, delta + delta_t)
        p = ProtocolParams(base.m, base.delta_x, base.delta, base.delta_t,
                           intra_delay=min(intra * base.delta,
                                           base.delta + base.delta_t))
        alice = strategy()
        res = simulate(p, rounds, bit, seed, seed + 1, strategy=alice,
                       dual_unveil=dual)
        t = res.transcript
        for rec in t.rounds:
            start, end, _ = round_window(p, rec.round)
            assert (rec.challenge_start, rec.challenge_end) == (start, end)
            assert rec.response_end == rec.challenge_end + p.intra_delay
        for msg in res.messages:
            delay = (p.intra_delay if msg.destination == msg.sent.site
                     else p.cross_delay)
            assert msg.earliest_arrival == msg.sent.time + delay
            assert type(msg.sent.time) is type(msg.earliest_arrival) is Fraction
        # single and dual unveils complete at round R's answer instant
        answer = round_window(p, rounds)[1] + p.intra_delay
        assert answer < unveil_deadline(p, rounds)
        for decision in res.decisions:
            assert type(decision.time) is Fraction
            if decision.kind == "unveil":
                assert decision.time == answer
        for u in t.unveils:
            assert u.completes_at == answer
        if len(t.rounds) == rounds:
            assert t.rounds[-1].response_end == answer
        if t.abort is None:
            assert t.aggregation == aggregate_event(t)
            assert type(t.aggregation.time) is Fraction
        else:
            assert t.aggregation is None
        replay_decisions(res, alice, bit, rounds)
