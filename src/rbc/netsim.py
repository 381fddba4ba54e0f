"""Deterministic message layer with light-cone enforcement.

The simulator owns all timing: agents never pick times, they only map a
causal view to data.  Every message carries its emission event and an
earliest arrival derived from worst-case geometry (a cross-site message takes
exactly delta_x - 2*delta, the physical minimum and the security worst
case; a same-site one takes the configured intra_delay, default delta).
A strategy is invoked with a CausalView containing exactly the messages
that have arrived at its site, so decisions cannot depend on spacelike
information by construction.  Identical seeds give identical transcripts,
byte for byte.  Only protocol messages are modelled; channel tests run
before the protocol starts are outside it.
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
        if not (type(self.challenge_start) is type(self.challenge_end)
                is type(self.response_end) is Fraction):
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
    """What simulate returns: the transcript, every logged message and
    every strategy call."""

    transcript: Transcript
    messages: tuple[TimedMessage, ...]
    decisions: tuple[Decision, ...]


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


def _schedule(params: ProtocolParams, rounds: int, dual_unveil: bool):
    """The walk of every run of `rounds` rounds at this geometry, built in
    exact Fractions on the first and kept on the params, so the events in
    SimResult.messages are shared immutable objects: its steps in order,
    each (kind, site, round, time, window, shown, sends), then the
    aggregation event.  window is a response's (challenge_start,
    challenge_end); shown holds the log positions of a decision's view,
    found by causal_view over a log whose payloads are the positions;
    sends holds (sent, destination, earliest_arrival) per logged message,
    which arrives one intra_delay later at its own site, cross_delay later
    at the other.
    """
    schedule = params._schedules.get((rounds, dual_unveil))
    if schedule is not None:
        return schedule
    steps: list[tuple] = []
    skeleton: list[TimedMessage] = []

    def step(kind: str, site: int, k: int, time: Fraction, window, *to_sites) -> None:
        shown = tuple(m.payload for m in causal_view(site, time, skeleton).messages)
        sent = SpacetimeEvent(time, site)
        sends = tuple((sent, to, time + (params.intra_delay if to == site
                                         else params.cross_delay))
                      for to in to_sites)
        skeleton.extend([TimedMessage(len(skeleton) + i, *send)
                         for i, send in enumerate(sends)])
        steps.append((kind, site, k, time, window, shown, sends))

    for k in range(1, rounds + 1):
        # challenge k is sent as its window ends, answered as it arrives
        site = round_site(k)
        start, end, _ = round_window(params, k)
        step("challenge", site, k, end, None, site)
        now, window = end + params.intra_delay, (start, end)
        if k < rounds:
            step("respond", site, k, now, window, site, 3 - site)
    # Round R's answer and the unveils share one instant: site 1 acts
    # before site 2, and at one site the unveil precedes the answer.
    for unveiler in (1, 2):
        if unveiler != site or dual_unveil:
            step("unveil", unveiler, rounds, now, None, unveiler)
        if unveiler == site:
            step("respond", site, rounds, now, window, site, 3 - site)
    # each site's last completion is at now, and cross_delay > 0
    aggregation = SpacetimeEvent(now + params.relay_delay, 3 - site)
    schedule = params._schedules[rounds, dual_unveil] = (tuple(steps), aggregation)
    return schedule


def simulate(params: ProtocolParams, rounds: int, bit: int, alice_seed: int,
             bob_seed: int, *, strategy=None, dual_unveil: bool = False) -> SimResult:
    """Run rounds 1..R plus unveiling under an Alice strategy object.

    Every instant is fixed by _schedule; strategies choose only data, and
    a run builds only what its seeds decide.  Every strategy is treated
    alike: each answer is logged at its own site and relayed to the twin
    site, and the answer and the unveil are one decision step, so
    malformed output or a view that lacks what the strategy needs (a
    LookupError) ends the run as a transcript abort for either, not an
    exception.

    Params with problems() are refused, as the walk's order holds only for
    valid geometry: delta_t + 2*delta < T puts each answer before the next
    challenge, intra_delay <= delta + delta_t puts it by its response
    deadline, and delta_t + 4*delta < delta_x puts the unveil before its
    causal deadline.  So is a run that would draw more than MAX_TAPE_KEYS
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
    if type(bit) is not int or bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    for name, seed in (("alice_seed", alice_seed), ("bob_seed", bob_seed)):
        if type(seed) is not int or not 0 <= seed < 1 << 64:
            raise ValueError(f"{name} must be an int in [0, 2**64), "
                             f"got {seed!r}")
    strategy = HonestAlice() if strategy is None else strategy
    # tape_consumed refused a rounds that is not an int >= 1
    steps, aggregation = _schedule(params, rounds, bool(dual_unveil))

    # Alice's secrets for the run, all derived from her seed
    state = AliceState(bit, make_tape(params.m, rounds, alice_seed), rounds)
    priv = AlicePrivate(params, state, derive_seed(alice_seed, "alice", "cheat"))

    log: list[TimedMessage] = []
    records: list[RoundRecord] = []
    unveils: list[UnveilMessage] = []
    decisions: list[Decision] = []
    abort: Optional[str] = None
    try:
        for kind, site, k, time, window, shown, sends in steps:
            if kind == "challenge":
                payload = challenge = bob_challenge(
                    k, params, Stream(derive_seed(bob_seed, "bob", site, k)))
            else:
                # malformed output or a LookupError ends the run
                view = CausalView(site, time, tuple([log[i] for i in shown]))
                try:
                    output = getattr(strategy, kind)(view, k, priv)
                except LookupError as missing:
                    raise _Abort(f"{kind} at site {site}: {missing}") from None
                values = _validate_values(
                    output, params.m ** (k - 1), params.modulus,
                    "unveil" if kind == "unveil" else f"round {k} response")
                decisions.append(Decision(kind, site, time, k, values, len(log)))
                if kind == "unveil":
                    payload = UnveilMessage(k, values, site, time)
                    unveils.append(payload)
                else:
                    payload = RoundRecord(k, site, *window, challenge.pairs,
                                          time, values)
                    records.append(payload)
            log.extend([TimedMessage(payload, *send) for send in sends])
    except _Abort as stop:
        abort = str(stop)

    transcript = Transcript(params=params, rounds=tuple(records),
                            unveils=tuple(unveils),
                            aggregation=aggregation if abort is None else None,
                            abort=abort, alice_seed=alice_seed, bob_seed=bob_seed)
    return SimResult(transcript=transcript, messages=tuple(log),
                     decisions=tuple(decisions))


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
        moments.append(away + params.relay_delay)
    return SpacetimeEvent(max(moments), home)
