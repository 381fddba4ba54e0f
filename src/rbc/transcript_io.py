"""Versioned JSON transcript files.

The transcript is the audit artifact, so the format is bit-exact: residues
are JSON integers, every time is the canonical exact string of a rational
(see exact_str), and the writer always emits fields in one fixed order.
Serializing, parsing, and re-serializing any transcript reproduces the
file byte for byte, and the writer never emits a file that the reader
refuses for a type, a time or a header range.

The writer builds every line by hand at the fixed indent of each nesting
level, in two steps: _checked_parts makes every check, then _emit yields
the text.  The reader checks structure and types only; semantic checks
(ranges against the modulus, params invariants, timing) belong to the
verifier, so a tampered but well-formed file parses and is then rejected
with a precise reason.

Every instant of a run is a closed-form function of the params and the
round index, so the files of one geometry repeat their time texts, and
the reader keeps two bounded caches: _parse_time and _params.  Both gain
only when texts repeat within one process: a cold `rbc verify` reads each
text once either way, and a miss costs what an uncached read does.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterator, Optional

from .agents import UnveilMessage
from .codec import MAX_M, first_non_residue
from .netsim import RoundRecord, Transcript
from .rng import GENERATOR_ID
from .spacetime import ProtocolParams, SpacetimeEvent, exact_str

# The fixed header: each key and the one value a file may hold.  The
# generator names the seed expansion, so a file is self-describing.
_HEADER = (("format", "rbc-transcript"), ("version", "1"),
           ("generator", GENERATOR_ID))
# the params fields that hold a time, in file order
_TIME_KEYS = ("delta_x", "delta", "delta_t", "intra_delay")


class TranscriptFormatError(ValueError):
    """File is not a structurally valid transcript."""


# A time string is at most this long.  Sums and products of a few such
# values (windows, deadlines, the aggregation time) then stay far below
# CPython's 4,300-digit int-to-str limit, so reject details stay printable,
# and parsing one costs time bounded by the length.
_MAX_TIME_CHARS = 256
# The three spellings exact_str emits: an integer, a minimal decimal, p/q.
_TIME_SHAPE = re.compile(r"0|-?[1-9][0-9]*"
                         r"|-?(0|[1-9][0-9]*)\.[0-9]*[1-9]"
                         r"|-?[1-9][0-9]*/[1-9][0-9]*")

# a seed is a 64-bit word, in the file as in the simulator
_SEED_LIMIT = 1 << 64
_INT, _LIST, _TUPLE = frozenset({int}), frozenset({list}), frozenset({tuple})
_TWO = frozenset({2})
# indents of the nesting levels the writer builds by hand
_PAD6, _PAD8 = " " * 6, " " * 8
# entries in one piece of a long list the writer emits: about 230 KB of
# pairs or 60 KB of residues at m=10
_SLICE = 4096


@lru_cache(maxsize=1024)
def _parse_time(text: str) -> Fraction:
    """The time a text spells, accepted only as exact_str writes it, which
    gives each time one spelling: a bare integer with no leading zeros and
    no "-0", a minimal-digit decimal with no trailing zero, or a reduced
    "p/q" whose denominator has a prime factor other than 2 and 5.  No
    exponents and no whitespace.  The shape and the length cap are checked
    before any number is built, so parse cost is bounded by file size.
    Each distinct text is read once per process (an LRU cache of 1,024
    texts); a refused text raises, is never cached, and is checked again
    each time."""
    if len(text) > _MAX_TIME_CHARS or not _TIME_SHAPE.fullmatch(text):
        raise TranscriptFormatError(f"bad time string {text[:40]!r}: expected "
                                    f"an integer, decimal or p/q of at most "
                                    f"{_MAX_TIME_CHARS} characters")
    value = Fraction(text)
    # integers and decimals of that shape are canonical; p/q must also be
    # reduced, with a denominator that no decimal could write
    if "/" in text and exact_str(value) != text:
        raise TranscriptFormatError(f"time string {text!r} is not canonical; "
                                    f"write {exact_str(value)!r}")
    return value


@lru_cache(maxsize=64)
def _params(m: int, *time_texts: str) -> ProtocolParams:
    """One params object per (m, four time texts) per process (an LRU cache
    of 64), so the verifier's derived values (problems(), the period, the
    round windows) are computed once per geometry, not once per file.
    Keyed on the texts, which hash much faster than the four Fractions."""
    return ProtocolParams.unchecked(m, *map(_parse_time, time_texts))


def _require(obj: dict, key: str, kind, what: str):
    if not isinstance(obj, dict) or key not in obj:
        raise TranscriptFormatError(f"{what}: missing field {key!r}")
    value = obj[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise TranscriptFormatError(f"{what}.{key}: expected integer, "
                                        f"got {value!r}")
    elif not isinstance(value, kind):
        raise TranscriptFormatError(f"{what}.{key}: expected {kind.__name__}, "
                                    f"got {value!r}")
    return value


def _optional_seed(seeds: dict, key: str) -> Optional[int]:
    """A seed: null or an integer in [0, 2**64).  The seeds are metadata:
    verify never checks them against the rounds or the unveils, so a
    file's seeds need not reproduce it."""
    value = seeds.get(key)
    if value is not None and (type(value) is not int or not 0 <= value < _SEED_LIMIT):
        raise TranscriptFormatError(f"seeds.{key}: expected an integer in "
                                    f"[0, 2**64) or null, got {value!r}")
    return value


def _int_list(values: list, what: str) -> tuple[int, ...]:
    """A residue list, checked by codec.first_non_residue with no upper
    bound: the reader refuses a non-integer or a negative residue, and the
    verifier one of N or more."""
    j = first_non_residue(values)
    if j is not None:
        raise TranscriptFormatError(f"{what}: residues must be non-negative "
                                    f"integers, got {values[j]!r}")
    return tuple(values)


def _pairs(raw_pairs: list, what: str) -> tuple[tuple[int, int], ...]:
    """The pairs as (n0, n1) tuples; C-level passes check the whole list,
    and only when they fail is it walked to name the first bad entry."""
    if not ({*map(type, raw_pairs)} <= _LIST and {*map(len, raw_pairs)} <= _TWO
            and first_non_residue([*chain.from_iterable(raw_pairs)]) is None):
        for j, entry in enumerate(raw_pairs):
            if not isinstance(entry, list) or len(entry) != 2:
                raise TranscriptFormatError(f"{what}: pair {j} must be a "
                                            f"two-element list")
            _int_list(entry, f"{what} pair {j}")
    return tuple(map(tuple, raw_pairs))


def _time_text(value: Fraction, field: str) -> str:
    """exact_str(value), which needs no JSON escaping; ValueError names the
    field of a time longer than the parser accepts."""
    try:
        text = exact_str(value)
    except ValueError:  # more digits than CPython converts to text
        text = None
    if text is None or len(text) > _MAX_TIME_CHARS:
        raise ValueError(f"{field}: time is longer than {_MAX_TIME_CHARS} "
                         f"characters, the most a transcript file holds")
    return text


def _too_long(what: str, exc: ValueError) -> ValueError:
    """CPython's digit-limit ValueError from str() of an int, naming the
    field."""
    return ValueError(f"{what}: integer too long to write: {exc}")


def _int_text(value, what: str) -> str:
    """str(value), which is what json.dumps writes for an int and is JSON
    only for an exact int: a bool, None or float would write True, None or
    1.5, so those raise ValueError naming the field, and so does an int
    with more digits than CPython's str() converts (4,300 by default)."""
    if type(value) is not int:
        raise ValueError(f"{what}: expected an integer, got {value!r}")
    try:
        return str(value)
    except ValueError as exc:
        raise _too_long(what, exc) from None


def _seed_text(value, what: str) -> str:
    """A seed as the reader takes it: None, written null, or an integer in
    [0, 2**64); ValueError names the field otherwise."""
    if value is None:
        return "null"
    text = _int_text(value, what)
    if not 0 <= value < _SEED_LIMIT:
        raise ValueError(f"{what}: expected an integer in [0, 2**64) or null, "
                         f"got {value!r}")
    return text


def _check_ints(values, what: str) -> None:
    """_int_text's ValueError for the first entry that is not an int; one
    C-level pass types the whole list, and only when it fails is the list
    walked to name the entry.  Residues are not held to a range: a negative
    residue is written, and the reader refuses it.  A list of ints is not
    converted here, so _emit meets their digit limit."""
    if not {*map(type, values)} <= _INT:
        for j, v in enumerate(values):
            _int_text(v, f"{what}[{j}]")


def _check_pairs(pairs, what: str) -> None:
    """Each pair an (n0, n1) tuple of ints; C-level passes check the whole
    list, and only when they fail is it walked to name the first bad pair."""
    if not ({*map(type, pairs)} <= _TUPLE and {*map(len, pairs)} <= _TWO
            and {*map(type, chain.from_iterable(pairs))} <= _INT):
        for j, p in enumerate(pairs):
            field = f"{what}[{j}]"
            if type(p) is not tuple or len(p) != 2:
                raise ValueError(f"{field}: expected a pair (n0, n1), got {p!r}")
            _check_ints(p, field)


def _pair_texts(pairs) -> list[str]:
    # the pair members' indents (12 and 10 spaces) are spelled out: pairs
    # are most of a large file, and literal text formats fastest
    return [f"[\n            {n0},\n            {n1}\n          ]"
            for n0, n1 in pairs]


def _int_texts(values) -> Iterator[str]:
    return map(str, values)


def _objects(items: list[list], pad: str) -> list:
    """The parts of a JSON array of objects, each given as its own parts,
    as json.dumps(indent=2) writes it; pad is the closing bracket's indent."""
    if not items:
        return ["[]"]
    parts = [f"[\n{pad}  "]
    for j, item in enumerate(items):
        if j:
            parts.append(f",\n{pad}  ")
        parts += item
    parts.append(f"\n{pad}]")
    return parts


def _round_parts(i: int, rec: RoundRecord) -> list:
    what = f"rounds[{i}]"
    k = _int_text(rec.round, what + ".k")
    site = _int_text(rec.site, what + ".site")
    start = _time_text(rec.challenge_start, what + ".challenge.start")
    end = _time_text(rec.challenge_end, what + ".challenge.end")
    response_end = _time_text(rec.response_end, what + ".response.end")
    _check_pairs(rec.pairs, what + ".challenge.pairs")
    _check_ints(rec.values, what + ".response.values")
    return [f'{{\n      "k": {k},\n      "site": {site},\n'
            f'      "challenge": {{\n        "start": "{start}",\n'
            f'        "end": "{end}",\n        "pairs": ',
            (_pair_texts, rec.pairs, _PAD8, what + ".challenge.pairs"),
            f'\n      }},\n      "response": {{\n        "end": "{response_end}",\n'
            f'        "values": ',
            (_int_texts, rec.values, _PAD8, what + ".response.values"),
            "\n      }\n    }"]


def _unveil_parts(i: int, u: UnveilMessage) -> list:
    what = f"unveils[{i}]"
    k = _int_text(u.round, what + ".round")
    site = _int_text(u.site, what + ".site")
    completes_at = _time_text(u.completes_at, what + ".completes_at")
    _check_ints(u.revealed, what + ".revealed")
    return [f'{{\n      "round": {k},\n      "site": {site},\n'
            f'      "completes_at": "{completes_at}",\n      "revealed": ',
            (_int_texts, u.revealed, _PAD6, what + ".revealed"),
            "\n    }"]


def _checked_parts(t: Transcript) -> list:
    """The check step: every check the writer makes but the list entries'
    digit limit, in file order (the header, each round, the unveils, the
    aggregation, the abort; within a round its three times before its two
    lists), before any list is formatted.  The header's integers are held
    to the reader's bounds: a seed to [0, 2**64) and m to [0, MAX_M].  The
    file as its parts in order: the text between the long lists, and each
    pair or residue list as (format, entries, pad, field) for _emit."""
    p = t.params
    alice = _seed_text(t.alice_seed, "seeds.alice")
    bob = _seed_text(t.bob_seed, "seeds.bob")
    m = _int_text(p.m, "params.m")
    if not 0 <= p.m <= MAX_M:
        raise ValueError(f"params.m: m={p.m} outside the supported range "
                         f"[0, {MAX_M}]")
    modulus = _int_text(p.modulus, "params.modulus")
    times = "".join(f',\n    "{key}": '
                    f'"{_time_text(getattr(p, key), "params." + key)}"'
                    for key in _TIME_KEYS)
    rounds = _objects([_round_parts(i, rec) for i, rec in enumerate(t.rounds)], "  ")
    unveils = _objects([_unveil_parts(i, u) for i, u in enumerate(t.unveils)], "  ")
    aggregation = "null"
    if t.aggregation is not None:
        time = _time_text(t.aggregation.time, "aggregation.time")
        site = str(t.aggregation.site)  # SpacetimeEvent holds only 1 or 2
        aggregation = f'{{\n    "time": "{time}",\n    "site": {site}\n  }}'
    # json.dumps escapes the abort, the writer's only use of json
    if t.abort is not None and not isinstance(t.abort, str):
        raise ValueError(f"abort: expected a string or None, got {t.abort!r}")
    header = "".join(f'  "{key}": "{value}",\n' for key, value in _HEADER)
    return [f'{{\n{header}'
            f'  "seeds": {{\n    "alice": {alice},\n    "bob": {bob}\n  }},\n'
            f'  "params": {{\n    "m": {m},\n    "modulus": {modulus}{times}\n  }},\n'
            f'  "rounds": ',
            *rounds, ',\n  "unveils": ', *unveils,
            f',\n  "aggregation": {aggregation},\n  "abort": {json.dumps(t.abort)}\n}}\n']


def _emit(parts: list) -> Iterator[str]:
    """The emit step: each text part as it is, and each long list as one
    piece per slice of at most _SLICE entries, between its brackets.  It
    raises no ValueError for parts _checked_parts returned, except for a
    list entry past CPython's digit limit, which no residue below 2**64
    nears; that ValueError names its list."""
    for part in parts:
        if type(part) is str:
            yield part
            continue
        texts, entries, pad, what = part
        if not entries:
            yield "[]"
            continue
        sep = f",\n{pad}  "
        yield f"[\n{pad}  "
        for s in range(0, len(entries), _SLICE):
            if s:
                yield sep
            try:
                piece = sep.join(texts(entries[s:s + _SLICE]))
            except ValueError as exc:
                raise _too_long(what, exc) from None
            yield piece
        yield f"\n{pad}]"


def transcript_pieces(t: Transcript) -> Iterator[str]:
    """The transcript's file text as pieces that join to
    serialize_transcript(t).  Every field is checked before this returns,
    so a ValueError naming a field the reader would refuse is raised here,
    before any piece exists, and `rbc run` can write the pieces as they
    come without ever leaving a refused file."""
    return _emit(_checked_parts(t))


def serialize_transcript(t: Transcript) -> str:
    """The transcript's file text, byte for byte json.dumps(obj, indent=2)
    plus a newline, the pieces joined once; ValueError names a field the
    reader would refuse."""
    return "".join(transcript_pieces(t))


def parse_transcript(text: str) -> Transcript:
    """The transcript a file text holds; TranscriptFormatError names the
    first fault in file order."""
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integers over CPython's
        # digit limit; RecursionError covers nesting too deep to decode.
        raise TranscriptFormatError(f"not JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise TranscriptFormatError("top level must be an object")
    for key, value in _HEADER:
        if obj.get(key) != value:
            raise TranscriptFormatError(f"unrecognized {key} {obj.get(key)!r}")

    p = _require(obj, "params", dict, "transcript")
    m = _require(p, "m", int, "params")
    modulus = _require(p, "modulus", int, "params")
    if not 0 <= m <= MAX_M:
        raise TranscriptFormatError(f"m={m} outside the supported range "
                                    f"[0, {MAX_M}]")
    if modulus != 1 << m:
        raise TranscriptFormatError(f"modulus {modulus} does not match m={m}")
    # each text is read in field order before the lookup, so the first
    # fault named is the first in the file
    time_texts = []
    for key in _TIME_KEYS:
        text = _require(p, key, str, "params")
        _parse_time(text)
        time_texts.append(text)
    params = _params(m, *time_texts)

    rounds = []
    raw_rounds = _require(obj, "rounds", list, "transcript")
    for i, r in enumerate(raw_rounds):
        what = f"rounds[{i}]"
        ch = _require(r, "challenge", dict, what)
        resp = _require(r, "response", dict, what)
        pairs = _pairs(_require(ch, "pairs", list, what + ".challenge"), what)
        rounds.append(RoundRecord(
            round=_require(r, "k", int, what),
            site=_require(r, "site", int, what),
            challenge_start=_parse_time(_require(ch, "start", str, what)),
            challenge_end=_parse_time(_require(ch, "end", str, what)),
            pairs=pairs,
            response_end=_parse_time(_require(resp, "end", str, what)),
            values=_int_list(_require(resp, "values", list, what), what),
        ))

    unveils = []
    for i, u in enumerate(_require(obj, "unveils", list, "transcript")):
        what = f"unveils[{i}]"
        unveils.append(UnveilMessage(
            round=_require(u, "round", int, what),
            revealed=_int_list(_require(u, "revealed", list, what), what),
            site=_require(u, "site", int, what),
            completes_at=_parse_time(_require(u, "completes_at", str, what)),
        ))

    aggregation: Optional[SpacetimeEvent] = None
    raw_agg = obj.get("aggregation")
    if raw_agg is not None:
        time = _parse_time(_require(raw_agg, "time", str, "aggregation"))
        site = _require(raw_agg, "site", int, "aggregation")
        try:
            aggregation = SpacetimeEvent(time, site)
        except ValueError as exc:
            raise TranscriptFormatError(f"aggregation: {exc}") from None

    abort = obj.get("abort")
    if abort is not None and not isinstance(abort, str):
        raise TranscriptFormatError("abort must be null or a string")
    seeds = {} if obj.get("seeds") is None else obj["seeds"]
    if not isinstance(seeds, dict):
        raise TranscriptFormatError("seeds must be null or an object")
    alice_seed = _optional_seed(seeds, "alice")
    bob_seed = _optional_seed(seeds, "bob")

    return Transcript(params=params, rounds=tuple(rounds), unveils=tuple(unveils),
                      aggregation=aggregation, abort=abort,
                      alice_seed=alice_seed, bob_seed=bob_seed)
