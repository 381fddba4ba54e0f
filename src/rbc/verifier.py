"""Bob's acceptance logic.

Verification trusts nothing but the transcript: params are re-validated,
every count and residue is re-checked, every time is tested against its
bound (round_window, unveil_deadline), and the unveiled keys are decoded
back to the committed bit (backward_decode).  Checks run in a fixed order
(params, shape, timing, aggregation, decode), so the reported reason is
the first failure.  A verdict is timestamped at the aggregation event,
the earliest moment Bob holds all the data in one place; the file's
recorded aggregation must be that event, or the transcript is rejected
as a timing violation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from itertools import repeat
from operator import mod, sub
from typing import Optional, Sequence

from .codec import decode_one, first_non_residue, from_binary_forms
from .netsim import RoundRecord, Transcript, aggregate_event
from .spacetime import (SpacetimeEvent, printable, round_site, round_window,
                        shown_time, spacelike, unveil_deadline)

TIMING_VIOLATION = "timing_violation"
SITE_MISMATCH = "site_mismatch"
COUNT_MISMATCH = "count_mismatch"
DUPLICATE_PAIR_MEMBERS = "duplicate_pair_members"
DECODE_MISMATCH = "decode_mismatch"
RANGE_ERROR = "range_error"
INCOMPLETE_TRANSCRIPT = "incomplete_transcript"


@dataclass(frozen=True, repr=False)
class Verdict:
    """accept(bit) or reject(reason), stamped with the aggregation time.

    The repr is the dataclass repr, except that an issued_at too long to
    print (see spacetime.printable) shows as <shown_time(issued_at)>.
    """

    outcome: str  # "accept" | "reject"
    bit: Optional[int] = None
    reason: Optional[str] = None
    detail: Optional[str] = None
    reject_position: Optional[tuple[int, int]] = None
    issued_at: Optional[Fraction] = None

    @property
    def accepted(self) -> bool:
        return self.outcome == "accept"

    def __repr__(self) -> str:
        shown = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "issued_at" and value is not None and not printable(value):
                shown.append(f"issued_at=<{shown_time(value)}>")
            else:
                shown.append(f"{f.name}={value!r}")
        return f"Verdict({', '.join(shown)})"


def backward_decode(rounds: Sequence[RoundRecord], revealed: Sequence[int],
                    m: int):
    """Chain the unveiled keys back to the committed bit.

    The revealed list opens round R directly; each opened round's bits,
    grouped into m-bit numbers (LSB first, tape order), are the keys of the
    round before it.  Returns (bit, None) on success or (None, (round,
    position)) at the first invalid opening.  The inputs must already have
    passed _shape_problem (counts, residue ranges, distinct members in
    exact 2-tuples): the decoding arithmetic does not re-check them.

    Each round is decoded by C-level passes: the candidates (value - key)
    mod N, then tuple.index of each candidate in its pair, which is the bit
    because the members are distinct.  A candidate in neither member
    raises ValueError (a pair that is not a tuple raises TypeError), and
    only then is the round walked with decode_one, which names the first
    invalid position and decodes list pairs as it always has.
    """
    modulus = 1 << m
    keys = revealed
    for k in range(len(rounds), 1, -1):
        rec = rounds[k - 1]
        candidates = map(mod, map(sub, rec.values, keys), repeat(modulus))
        try:
            bits = list(map(tuple.index, rec.pairs, candidates))
        except (ValueError, TypeError):
            bits = []
            for j, (value, pair, key) in enumerate(zip(rec.values, rec.pairs, keys)):
                bit = decode_one(value, pair, key, modulus)
                if bit is None:
                    return None, (k, j)
                bits.append(bit)
        keys = from_binary_forms(bits, m)
    first = rounds[0]
    bit = decode_one(first.values[0], first.pairs[0], keys[0], modulus)
    if bit is None:
        return None, (1, 0)
    return bit, None


def _event_text(event: Optional[SpacetimeEvent]) -> str:
    if event is None:
        return "null"
    return f"at {shown_time(event.time)} at site {event.site}"


def _reject(reason: str, detail: str, issued_at=None, position=None) -> Verdict:
    return Verdict(outcome="reject", reason=reason, detail=detail,
                   reject_position=position, issued_at=issued_at)


def _shape_problem(transcript: Transcript) -> Optional[Verdict]:
    params = transcript.params
    modulus = params.modulus
    for i, rec in enumerate(transcript.rounds):
        k = i + 1
        if type(rec.round) is not int or rec.round != k:
            return _reject(COUNT_MISMATCH, f"rounds not consecutive: "
                           f"position {i} holds round {rec.round}, expected {k}")
        if type(rec.site) is not int or rec.site != round_site(k):
            return _reject(SITE_MISMATCH, f"round {k} recorded at site {rec.site}, "
                           f"schedule requires site {round_site(k)}")
        expected = params.m ** (k - 1)
        if len(rec.pairs) != expected:
            return _reject(COUNT_MISMATCH, f"round {k} carries {len(rec.pairs)} "
                           f"pairs, expected {expected}")
        for j, pair in enumerate(rec.pairs):
            if type(pair) is not tuple or len(pair) != 2:
                return _reject(RANGE_ERROR, f"round {k} pair {j} is not a "
                               f"two-member tuple", position=(k, j))
            n0, n1 = pair
            if not (type(n0) is int and type(n1) is int
                    and 0 <= n0 < modulus and 0 <= n1 < modulus):
                return _reject(RANGE_ERROR, f"round {k} pair {j} member outside "
                               f"[0, {modulus})", position=(k, j))
            if n0 == n1:
                return _reject(DUPLICATE_PAIR_MEMBERS,
                               f"round {k} pair {j} members are equal",
                               position=(k, j))
        if len(rec.values) != expected:
            return _reject(COUNT_MISMATCH, f"round {k} carries {len(rec.values)} "
                           f"response values, expected {expected}")
        j = first_non_residue(rec.values, modulus)
        if j is not None:
            return _reject(RANGE_ERROR, f"round {k} response {j} outside "
                           f"[0, {modulus})", position=(k, j))
    last = transcript.last_round
    expected = params.m ** (last - 1)
    for u in transcript.unveils:
        if type(u.site) is not int or u.site not in (1, 2):
            return _reject(SITE_MISMATCH, f"unveil site {u.site} is not a site id")
        if type(u.round) is not int or u.round != last:
            return _reject(COUNT_MISMATCH, f"unveil targets round {u.round}, "
                           f"transcript ends at round {last}")
        if len(u.revealed) != expected:
            return _reject(COUNT_MISMATCH, f"unveil reveals {len(u.revealed)} "
                           f"values, expected {expected}")
        j = first_non_residue(u.revealed, modulus)
        if j is not None:
            return _reject(RANGE_ERROR, f"revealed value {j} outside "
                           f"[0, {modulus})", position=(last, j))
    return None


def _timing_problem(transcript: Transcript) -> Optional[Verdict]:
    params = transcript.params
    for rec in transcript.rounds:
        start, end, response_end = round_window(params, rec.round)
        if not (start <= rec.challenge_start <= rec.challenge_end <= end):
            return _reject(TIMING_VIOLATION, f"round {rec.round} challenge "
                           f"[{shown_time(rec.challenge_start)}, "
                           f"{shown_time(rec.challenge_end)}] outside window "
                           f"[{shown_time(start)}, {shown_time(end)}]")
        if not (rec.challenge_end <= rec.response_end <= response_end):
            return _reject(TIMING_VIOLATION, f"round {rec.round} response at "
                           f"{shown_time(rec.response_end)} outside "
                           f"(challenge_end, {shown_time(response_end)}]")
    last = transcript.last_round
    deadline = unveil_deadline(params, last)
    primary_site = 3 - round_site(last)
    unveils = transcript.unveils
    for u in unveils:
        if u.completes_at < 0:
            return _reject(TIMING_VIOLATION, f"unveil from site {u.site} "
                           f"completes before the protocol start")
    dual = len(unveils) == 2
    if dual and sorted(u.site for u in unveils) != [1, 2]:
        return _reject(SITE_MISMATCH, "dual unveil requires exactly one "
                       "message from each site")
    if not dual and unveils[0].site != primary_site:
        return _reject(SITE_MISMATCH, f"unveil from site {unveils[0].site}, "
                       f"round {last} requires site {primary_site}")
    for u in unveils:
        if not u.completes_at < deadline:
            who = f"unveil from site {u.site}" if dual else "unveil"
            return _reject(TIMING_VIOLATION, f"{who} completes at "
                           f"{shown_time(u.completes_at)}, not strictly "
                           f"before {shown_time(deadline)}")
    if dual:
        first, second = (SpacetimeEvent(u.completes_at, u.site) for u in unveils)
        if not spacelike(first, second, params):
            return _reject(TIMING_VIOLATION, "dual unveil emissions are not "
                           "spacelike separated")
    return None


def verify(transcript: Transcript) -> Verdict:
    """Run all checks in the fixed order and return the verdict."""
    if transcript.abort is not None:
        return _reject(INCOMPLETE_TRANSCRIPT, f"protocol aborted: {transcript.abort}")
    if not transcript.rounds:
        return _reject(INCOMPLETE_TRANSCRIPT, "no rounds recorded")
    if not transcript.unveils:
        return _reject(INCOMPLETE_TRANSCRIPT, "no unveiling recorded")
    if len(transcript.unveils) > 2:
        return _reject(COUNT_MISMATCH,
                       f"{len(transcript.unveils)} unveil messages; at most two")

    problems = transcript.params.problems()
    if problems:
        return _reject(RANGE_ERROR, "invalid params: " + "; ".join(problems))

    try:
        aggregation = aggregate_event(transcript)
    except ValueError:
        # hostile timestamps can place aggregation before t=0; the timing
        # checks below reject such transcripts, just without a timestamp
        aggregation = None
    issued_at = None if aggregation is None else aggregation.time

    verdict = _shape_problem(transcript) or _timing_problem(transcript)
    if verdict is not None:
        return replace(verdict, issued_at=issued_at)
    if transcript.aggregation != aggregation:
        return _reject(TIMING_VIOLATION, f"recorded aggregation "
                       f"{_event_text(transcript.aggregation)} is not the "
                       f"aggregation event {_event_text(aggregation)}",
                       issued_at=issued_at)

    if len(transcript.unveils) == 2:
        a, b = transcript.unveils
        if a.revealed != b.revealed:
            return _reject(DECODE_MISMATCH, "dual unveils reveal different lists",
                           issued_at=issued_at)
    bit, position = backward_decode(transcript.rounds,
                                    transcript.unveils[0].revealed,
                                    transcript.params.m)
    if bit is None:
        return _reject(DECODE_MISMATCH,
                       f"invalid opening at round {position[0]} "
                       f"position {position[1]}", issued_at=issued_at,
                       position=position)
    return Verdict(outcome="accept", bit=bit, issued_at=issued_at)
