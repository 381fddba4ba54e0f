from __future__ import annotations

import dataclasses
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rbc.cli import verdict_to_json_obj
from rbc.netsim import run_protocol
from rbc.rng import GENERATOR_ID
from rbc.spacetime import ProtocolParams, exact_str
from rbc.transcript_io import (TranscriptFormatError, parse_transcript,
                               serialize_transcript)
from rbc.verifier import Verdict, verify

from conftest import valid_params


class TestRoundTrip:
    def test_equality_round_trip(self, params_m3):
        t = run_protocol(params_m3, 3, 1, 7, 9)
        assert parse_transcript(serialize_transcript(t)) == t

    def test_byte_identical_reserialization(self, params_m3):
        t = run_protocol(params_m3, 3, 1, 7, 9)
        text = serialize_transcript(t)
        assert serialize_transcript(parse_transcript(text)) == text

    def test_dual_unveil_round_trip(self, params_m2):
        t = run_protocol(params_m2, 2, 0, 1, 2, dual_unveil=True)
        assert parse_transcript(serialize_transcript(t)) == t

    def test_aborted_transcript_round_trip(self):
        p = ProtocolParams(2, "1", "0.09", "0.001", intra_delay="0.18")
        t = run_protocol(p, 1, 0, 1, 2)
        assert t.abort is not None
        again = parse_transcript(serialize_transcript(t))
        assert again == t and again.abort == t.abort

    def test_unknown_seeds_serialize_as_null(self, params_m2):
        t = dataclasses.replace(run_protocol(params_m2, 1, 0, 1, 2),
                                alice_seed=None, bob_seed=None)
        obj = json.loads(serialize_transcript(t))
        assert obj["seeds"] == {"alice": None, "bob": None}
        assert parse_transcript(serialize_transcript(t)) == t

    @given(valid_params(m=st.integers(2, 3)), st.integers(1, 3),
           st.integers(0, 1), st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_over_param_space(self, p, rounds, bit, seed):
        t = run_protocol(p, rounds, bit, seed, seed ^ 0xABCD)
        text = serialize_transcript(t)
        assert parse_transcript(text) == t
        assert serialize_transcript(parse_transcript(text)) == text


class TestFileShape:
    def test_header_names_generator(self, params_m2):
        obj = json.loads(serialize_transcript(run_protocol(params_m2, 1, 0, 1, 2)))
        assert obj["format"] == "rbc-transcript"
        assert obj["version"] == "1"
        assert obj["generator"] == GENERATOR_ID
        assert obj["seeds"] == {"alice": 1, "bob": 2}

    def test_residues_are_json_integers(self, params_m2):
        obj = json.loads(serialize_transcript(run_protocol(params_m2, 2, 1, 1, 2)))
        for rec in obj["rounds"]:
            assert all(isinstance(v, int) for v in rec["response"]["values"])
            for pair in rec["challenge"]["pairs"]:
                assert isinstance(pair, list) and len(pair) == 2

    def test_times_are_exact_strings(self, params_m2):
        obj = json.loads(serialize_transcript(run_protocol(params_m2, 1, 0, 1, 2)))
        assert obj["rounds"][0]["challenge"]["start"] == "0"
        assert obj["rounds"][0]["challenge"]["end"] == "0.01"
        assert obj["rounds"][0]["response"]["end"] == "0.015"

    def test_non_decimal_rational_times_round_trip(self):
        p = ProtocolParams(2, Fraction(1, 3), Fraction(1, 300), Fraction(1, 300))
        t = run_protocol(p, 1, 0, 1, 2)
        obj = json.loads(serialize_transcript(t))
        assert "/" in obj["params"]["delta_x"]
        assert parse_transcript(serialize_transcript(t)) == t


class TestParseErrors:
    def good_obj(self, params_m2):
        return json.loads(serialize_transcript(run_protocol(params_m2, 1, 0, 1, 2)))

    def test_rejects_non_json(self):
        with pytest.raises(TranscriptFormatError):
            parse_transcript("{truncated")

    def test_rejects_wrong_format_name(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["format"] = "something-else"
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_unknown_version(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["version"] = "99"
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_inconsistent_modulus(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["params"]["modulus"] = 8
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_non_integer_residue(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["rounds"][0]["response"]["values"] = [1.5]
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_negative_residue(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["unveils"][0]["revealed"] = [-1]
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_bad_time_string(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["rounds"][0]["challenge"]["start"] = "yesterday"
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    @pytest.mark.parametrize("time", [
        "1/100", "0.010", "1e-2", "2/2", "-0", " 1 ", "01", "1e10000000",
        pytest.param("9" * 257, id="257_digits")])
    def test_rejects_non_canonical_time(self, params_m2, time):
        # one spelling per time, checked before any number is built
        obj = self.good_obj(params_m2)
        obj["params"]["delta_x"] = time
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_missing_field(self, params_m2):
        obj = self.good_obj(params_m2)
        del obj["rounds"][0]["challenge"]
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_rejects_integer_over_digit_limit(self, params_m2):
        # json.loads raises a bare ValueError past CPython's 4,300 digits
        obj = self.good_obj(params_m2)
        obj["params"]["m"] = "BIG"
        text = json.dumps(obj).replace('"BIG"', "9" * 4301)
        with pytest.raises(TranscriptFormatError):
            parse_transcript(text)

    def test_rejects_deep_nesting(self):
        # json.loads raises RecursionError on nesting this deep
        with pytest.raises(TranscriptFormatError):
            parse_transcript("[" * 100000)

    @pytest.mark.parametrize("seeds", [5, "x", [1, 2], True])
    def test_rejects_non_object_seeds(self, params_m2, seeds):
        obj = self.good_obj(params_m2)
        obj["seeds"] = seeds
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    @pytest.mark.parametrize("seed", ["hello", 1.5, True, [], {}, -1, 2 ** 64])
    def test_rejects_non_integer_seed(self, params_m2, seed):
        obj = self.good_obj(params_m2)
        obj["seeds"]["alice"] = seed
        with pytest.raises(TranscriptFormatError):
            parse_transcript(json.dumps(obj))

    def test_null_seeds_parse_as_unknown(self, params_m2):
        obj = self.good_obj(params_m2)
        obj["seeds"] = None
        parsed = parse_transcript(json.dumps(obj))
        assert parsed.alice_seed is None and parsed.bob_seed is None

    def test_semantic_problems_parse_fine(self, params_m2):
        # out-of-range residues and bad geometry are the verifier's business
        obj = self.good_obj(params_m2)
        obj["rounds"][0]["response"]["values"] = [999]
        parsed = parse_transcript(json.dumps(obj))
        from rbc.verifier import verify
        assert verify(parsed).reason == "range_error"


HONEST_TEXT = serialize_transcript(
    run_protocol(ProtocolParams(2, "1", "0.005", "0.01"), 2, 1, 7, 9))
TIME_FIELD = re.compile(r'"(?:delta_x|delta|delta_t|intra_delay|start|end|'
                        r'completes_at|time)": ("[^"]*")')
TIME_SPANS = [m.span(1) for m in TIME_FIELD.finditer(HONEST_TEXT)]

TIME_TEXT = st.one_of(
    st.from_regex(r"-?[0-9]{1,4}([./][0-9]{1,4})?(e-?[0-9]{1,8})?", fullmatch=True),
    st.from_regex(r"[1-9][0-9]{0,300}(/[1-9][0-9]{0,300})?", fullmatch=True),
    st.text(max_size=6))
SPLICE = st.one_of(
    st.text(max_size=3),
    st.integers(1, 6000).map(lambda n: "9" * n),
    st.from_regex(r"[0-9]{0,3}(\.[0-9]{1,3})?e-?[0-9]{1,8}", fullmatch=True))


def time_strings(obj: dict, t) -> list:
    """(file text, parsed value) for every time in a parsed file."""
    params = obj["params"]
    out = [(params[name], getattr(t.params, name))
           for name in ("delta_x", "delta", "delta_t", "intra_delay")]
    for raw, rec in zip(obj["rounds"], t.rounds):
        out += [(raw["challenge"]["start"], rec.challenge_start),
                (raw["challenge"]["end"], rec.challenge_end),
                (raw["response"]["end"], rec.response_end)]
    out += [(raw["completes_at"], u.completes_at)
            for raw, u in zip(obj["unveils"], t.unveils)]
    if t.aggregation is not None:
        out.append((obj["aggregation"]["time"], t.aggregation.time))
    return out


class TestFileTextFuzz:
    """Edits of honest file text: times swapped, characters inserted,
    deleted or replaced, long digit runs and exponents spliced in."""

    @given(times=st.lists(st.tuples(st.integers(0, len(TIME_SPANS) - 1), TIME_TEXT),
                          max_size=4),
           edits=st.lists(st.tuples(st.integers(0, len(HONEST_TEXT)),
                                    st.integers(0, 3), SPLICE), max_size=3))
    @example(times=[(0, "1e5000")], edits=[])
    @example(times=[(0, "9" * 5000)], edits=[])
    @example(times=[(0, "1/100")], edits=[])
    @example(times=[(4, "0.010")], edits=[])
    @example(times=[(1, "2/2")], edits=[])
    @example(times=[(4, "-0")], edits=[])
    @example(times=[(0, " 1 ")], edits=[])
    @example(times=[(0, "9" * 256), (1, "1/" + "7" * 254), (2, "1/" + "3" * 254),
                    (3, "1/" + "7" * 254)], edits=[])
    @settings(max_examples=200, deadline=None)
    def test_parse_then_verify_never_crashes(self, times, edits):
        chunks, at = [], 0
        for i, time in sorted(dict(times).items()):
            start, end = TIME_SPANS[i]
            chunks += [HONEST_TEXT[at:start], json.dumps(time)]
            at = end
        text = "".join(chunks) + HONEST_TEXT[at:]
        for pos, cut, splice in edits:
            pos = min(pos, len(text))
            text = text[:pos] + splice + text[pos + cut:]
        try:
            t = parse_transcript(text)
        except TranscriptFormatError:
            return
        verdict = verify(t)
        assert isinstance(verdict, Verdict)
        json.dumps(verdict_to_json_obj(verdict))
        for raw, value in time_strings(json.loads(text), t):
            assert raw == exact_str(value)
