"""Deterministic message layer with light-cone enforcement.

The simulator owns all timing: agents never pick times, they only map a
causal view to data.  Every message carries its emission event and an
earliest arrival derived from worst-case geometry (a cross-site message takes
exactly delta_x - 2*delta, the physical minimum and the security worst
case; a same-site one takes the configured intra_delay, default delta).
A strategy is invoked with a CausalView containing exactly the messages
that have arrived at its site, so decisions cannot depend on spacelike
information by construction.

Every instant is fixed in advance, so simulate walks rounds 1..R: round k's
challenge is logged, then answered as it arrives, at the end of its window
plus intra_delay.  The unveils share round R's answer instant; there site 1
acts before site 2, and at one site the unveil precedes the answer.  The
aggregation is read off the same schedule: round R's answer, relayed to
the primary unveiler's site.  aggregate_event is the one rule over a
transcript's completions, and the verifier recomputes it.  The
order rests on valid geometry: delta_t + 2*delta < T puts each answer
before the next challenge, intra_delay <= delta + delta_t puts it by its
response deadline, and delta_t + 4*delta < delta_x puts the unveil before
its causal deadline.  Time is kept in exact integer ticks of the
params' clock (``ProtocolParams.clock``) and becomes a ``Fraction`` only
where it leaves the walk, so identical seeds give identical transcripts,
byte for byte.  Every strategy is treated alike: each answer is logged at
its own site and relayed to the twin site, and the answer and the unveil
are one decision step, so malformed output or a view that lacks what the
strategy needs (a LookupError) ends the run as a transcript abort for
either, not an exception.  Only protocol messages are modelled; channel
tests run before the protocol starts are outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .agents import (AliceState, UnveilMessage, alice_response,
                     bob_challenge, make_tape)
from .codec import MAX_M, PairChallenge, first_non_residue, tape_consumed
from .rng import Stream, derive_seed
from .spacetime import (ProtocolParams, SpacetimeEvent, as_exact, round_site,
                        round_window)

# simulate refuses a run that draws more tape keys than this: a run of R
# rounds draws tape_consumed(m, R) keys and makes as many commitments, so
# memory grows as m**R.  m=10 is allowed up to R=7 and m=2 up to R=22.
MAX_TAPE_KEYS = 1 << 22


@dataclass(frozen=True)
class RoundRecord:
    """One committed round as it appears in the transcript.  It is also the
    payload of the round's response at its own site and of the relay to the
    twin site that every run sends, the only way post-start information
    moves between Alice's agents."""

    round: int
    site: int
    challenge_start: Fraction
    challenge_end: Fraction
    pairs: tuple
    response_end: Fraction
    values: tuple[int, ...]

    def __post_init__(self):
        # a time given as a float or an int is held as the exact Fraction
        # it spells, as UnveilMessage holds its time
        for name in ("challenge_start", "challenge_end", "response_end"):
            object.__setattr__(self, name, as_exact(getattr(self, name)))


@dataclass(frozen=True)
class TimedMessage:
    """A payload stamped with its emission event and its earliest arrival
    at the destination site."""

    payload: object
    sent: SpacetimeEvent
    destination: int
    earliest_arrival: Fraction


@dataclass(frozen=True)
class CausalView:
    """Everything one site can have seen by `now`: arrived messages only."""

    site: int
    now: Fraction
    messages: tuple[TimedMessage, ...]

    def challenge_for(self, k: int) -> Optional[PairChallenge]:
        for msg in self.messages:
            if isinstance(msg.payload, PairChallenge) and msg.payload.round == k:
                return msg.payload
        return None

    def record_for(self, k: int) -> Optional[RoundRecord]:
        for msg in self.messages:
            if isinstance(msg.payload, RoundRecord) and msg.payload.round == k:
                return msg.payload
        return None


def causal_view(site: int, now: Fraction,
                messages: Sequence[TimedMessage]) -> CausalView:
    """Messages visible at (site, now): arrived (inclusive) and addressed here."""
    visible = tuple(m for m in messages
                    if m.destination == site and m.earliest_arrival <= now)
    return CausalView(site=site, now=now, messages=visible)


@dataclass(frozen=True)
class AlicePrivate:
    """Pre-agreed private inputs both Alice agents hold before t = 0."""

    params: ProtocolParams
    state: AliceState
    cheat_seed: int


def _alice_private(params: ProtocolParams, rounds: int, bit: int,
                   alice_seed: int) -> AlicePrivate:
    """Alice's secrets for one run, all derived from her seed."""
    state = AliceState(bit, make_tape(params.m, rounds, alice_seed), rounds)
    return AlicePrivate(params=params, state=state,
                        cheat_seed=derive_seed(alice_seed, "alice", "cheat"))


class HonestAlice:
    """Protocol-following strategy: honest responses, true keys at unveil.
    Valid geometry puts round k's challenge in the view that answers it;
    the relayed records in its views go unread."""

    def respond(self, view: CausalView, k: int, priv: AlicePrivate) -> tuple[int, ...]:
        return alice_response(k, view.challenge_for(k), priv.state, priv.params)

    def unveil(self, view: CausalView, last_round: int,
               priv: AlicePrivate) -> tuple[int, ...]:
        return priv.state.tape.segment(last_round, priv.params.m)


@dataclass(frozen=True)
class Transcript:
    """The audit artifact: everything the verifier is allowed to see."""

    params: ProtocolParams
    rounds: tuple[RoundRecord, ...]
    unveils: tuple[UnveilMessage, ...]
    aggregation: Optional[SpacetimeEvent]
    abort: Optional[str]
    alice_seed: Optional[int] = None
    bob_seed: Optional[int] = None

    @property
    def last_round(self) -> int:
        return self.rounds[-1].round if self.rounds else 0


@dataclass(frozen=True)
class Decision:
    """One strategy invocation and the data it returned.

    The view it got is its log prefix: causal_view(site, time,
    messages[:log_size]), where log_size is the number of messages that
    existed when the strategy was invoked.
    """

    kind: str  # "respond" | "unveil"
    site: int
    time: Fraction
    round: int
    output: tuple[int, ...]
    log_size: int


@dataclass(frozen=True)
class SimResult:
    transcript: Transcript
    messages: tuple[TimedMessage, ...]
    decisions: tuple[Decision, ...]
    strategy: object
    bit: int
    planned_rounds: int


class _Abort(Exception):
    """Ends a run; its message becomes the transcript's abort reason."""


def _validate_values(values, count: int, modulus: int, what: str) -> tuple[int, ...]:
    values = tuple(values)
    if len(values) != count:
        raise _Abort(f"{what}: expected {count} values, got {len(values)}")
    j = first_non_residue(values, modulus)
    if j is not None:
        raise _Abort(f"{what}: value {values[j]!r} outside [0, {modulus})")
    return values


def simulate(params: ProtocolParams, rounds: int, bit: int, alice_seed: int,
             bob_seed: int, *, strategy=None, dual_unveil: bool = False) -> SimResult:
    """Run rounds 1..R plus unveiling under an Alice strategy object.

    Honest Bob agents always follow the schedule: round k's challenge
    transmission occupies [(k-1)T, (k-1)T + delta_t] at round_site(k), and
    Alice's reply completes the instant the challenge arrives.  The unveils
    complete at round R's answer instant, and the aggregation follows it by
    intra_delay + cross_delay; strategies choose only data.
    Params with problems() are refused: the walk's order holds only for
    valid geometry.  So is a run that would draw more than MAX_TAPE_KEYS
    tape keys.  strategy=None plays HonestAlice().
    """
    problems = params.problems()
    if problems:
        raise ValueError(f"invalid geometry: {'; '.join(problems)}")
    if params.m > MAX_M:
        raise ValueError(f"m={params.m} above {MAX_M}, the largest m a "
                         f"transcript holds")
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    # tape_consumed(m, R) >= 2**R - 1 for m >= 2, so a long run is refused
    # before m**R is built
    if (rounds >= MAX_TAPE_KEYS.bit_length()
            or tape_consumed(params.m, rounds) > MAX_TAPE_KEYS):
        raise ValueError(f"rounds={rounds} at m={params.m} draws more than "
                         f"{MAX_TAPE_KEYS} tape keys, the most a run draws")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    for name, seed in (("alice_seed", alice_seed), ("bob_seed", bob_seed)):
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")
    strategy = HonestAlice() if strategy is None else strategy

    priv = _alice_private(params, rounds, bit, alice_seed)
    # The walk keeps time in integer ticks; at() gives the Fraction of each
    # time that leaves it.
    clock = params.clock
    ticks, at = clock.ticks, clock.time

    log: list[TimedMessage] = []
    records: list[RoundRecord] = []
    unveils: list[UnveilMessage] = []
    decisions: list[Decision] = []
    abort: Optional[str] = None

    def emit(payload, tick: int, from_site: int, to_site: int) -> None:
        """Log a message arriving one intra_delay later at the same site,
        cross_delay later at the other."""
        arrival = tick + (ticks.intra_delay if to_site == from_site
                          else ticks.cross_delay)
        log.append(TimedMessage(payload, SpacetimeEvent(at(tick), from_site),
                                to_site, at(arrival)))

    def send_challenge(k: int) -> tuple[PairChallenge, int]:
        """Log round k's challenge, sent as its window ends; return it and
        its answer instant, the tick it arrives."""
        site = round_site(k)
        payload = bob_challenge(k, params,
                                Stream(derive_seed(bob_seed, "bob", site, k)))
        end = round_window(ticks, k)[1]
        emit(payload, end, site, site)
        return payload, end + ticks.intra_delay

    def decide(kind: str, site: int, now: int, k: int,
               what: str) -> tuple[Fraction, tuple[int, ...]]:
        """Call the strategy's `kind` method on the view at (site, now) and
        record the decision.  Malformed output and a LookupError (the view
        lacks what the strategy needs) end the run."""
        time = at(now)
        log_size = len(log)
        try:
            output = getattr(strategy, kind)(causal_view(site, time, log), k, priv)
        except LookupError as missing:
            raise _Abort(f"{kind} at site {site}: {missing}") from None
        values = _validate_values(output, params.m ** (k - 1), params.modulus, what)
        decisions.append(Decision(kind, site, time, k, values, log_size))
        return time, values

    def respond(challenge: PairChallenge, now: int) -> None:
        """Answer a challenge at its answer instant; log the record at its
        own site and relay it to the twin site."""
        k = challenge.round
        site = round_site(k)
        start, end, _ = round_window(ticks, k)
        time, values = decide("respond", site, now, k, f"round {k} response")
        record = RoundRecord(round=k, site=site, challenge_start=at(start),
                             challenge_end=at(end), pairs=challenge.pairs,
                             response_end=time, values=values)
        records.append(record)
        emit(record, now, site, site)
        emit(record, now, site, 3 - site)

    def unveil(site: int, now: int) -> None:
        time, revealed = decide("unveil", site, now, rounds, "unveil")
        message = UnveilMessage(round=rounds, revealed=revealed, site=site,
                                completes_at=time)
        unveils.append(message)
        emit(message, now, site, site)

    try:
        for k in range(1, rounds):
            respond(*send_challenge(k))
        last, now = send_challenge(rounds)
        last_site = round_site(rounds)
        # Round R's answer and the unveils share one instant: site 1 acts
        # before site 2, and at one site the unveil precedes the answer.
        for site in (1, 2):
            if site != last_site or dual_unveil:
                unveil(site, now)
            if site == last_site:
                respond(last, now)
    except _Abort as stop:
        abort = str(stop)

    aggregation = None
    if abort is None:
        # each site's last completion is at now, and cross_delay > 0
        aggregation = SpacetimeEvent(
            at(now + ticks.intra_delay + ticks.cross_delay), 3 - last_site)
    transcript = Transcript(params=params,
                            rounds=tuple(records),
                            unveils=tuple(unveils), aggregation=aggregation,
                            abort=abort, alice_seed=alice_seed, bob_seed=bob_seed)
    return SimResult(transcript=transcript, messages=tuple(log),
                     decisions=tuple(decisions), strategy=strategy,
                     bit=bit, planned_rounds=rounds)


def replay_decisions(result: SimResult) -> None:
    """Re-derive every recorded decision from its causal view alone.

    Rebuilds each view from the message-log prefix that existed at decision
    time, checks it satisfies the causal predicate, then re-invokes the
    run's strategy method named by the decision's kind, with Alice's
    private inputs rebuilt from her seed, and requires identical output.
    Raises AssertionError on any divergence; this is the executable form of
    the no-superluminal-information claim.
    """
    t = result.transcript
    strategy = result.strategy
    priv = _alice_private(t.params, result.planned_rounds, result.bit,
                          t.alice_seed)
    for decision in result.decisions:
        view = causal_view(decision.site, decision.time,
                           result.messages[:decision.log_size])
        for msg in view.messages:
            assert msg.destination == decision.site, "view leaked another site"
            assert msg.earliest_arrival <= decision.time, "view leaked the future"
        output = tuple(getattr(strategy, decision.kind)(view, decision.round, priv))
        assert output == decision.output, (
            f"{decision.kind} at round {decision.round} not reproducible "
            f"from its causal view")


def aggregate_event(transcript: Transcript) -> SpacetimeEvent:
    """Earliest event at the aggregation site holding every record and unveil.

    Bob aggregates at the primary unveilee's site, 3 - round_site(R).  A
    record becomes available to the local Bob one intra_delay after its
    completion, then crosses in exactly delta_x - 2*delta if it was made at
    the other site.  Verdicts may only be issued at or after this event.
    It is the verifier's rule, in exact Fractions; simulate reads the same
    event off its schedule.  Adding the delays keeps the order of times, so
    only the latest completion at the aggregation site and the latest one
    elsewhere count.
    """
    if not transcript.unveils:
        raise ValueError("aggregation requires an unveiling")
    params = transcript.params
    home = 3 - round_site(transcript.last_round)
    # (time, site) of every response and unveil
    steps = [(rec.response_end, rec.site) for rec in transcript.rounds]
    steps.extend((u.completes_at, u.site) for u in transcript.unveils)
    here = away = None
    for time, site in steps:
        if site == home:
            if here is None or time > here:
                here = time
        elif away is None or time > away:
            away = time
    moments = []
    if here is not None:
        moments.append(here + params.intra_delay)
    if away is not None:
        moments.append(away + params.intra_delay + params.cross_delay)
    return SpacetimeEvent(max(moments), home)
