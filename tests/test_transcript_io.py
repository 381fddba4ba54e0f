from __future__ import annotations

import _pyio
import dataclasses
import hashlib
import itertools
import json
import os
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rbc.cli
from rbc.agents import UnveilMessage
from rbc.cli import main, verdict_to_json_obj
from rbc.netsim import RoundRecord, Transcript, simulate
from rbc.rng import GENERATOR_ID
from rbc.spacetime import (ProtocolParams, SpacetimeEvent, exact_str,
                           round_window, unveil_deadline)
from rbc.transcript_io import (TranscriptFormatError, _parse_time,
                               parse_transcript, serialize_transcript,
                               transcript_pieces)
from rbc.verifier import Verdict, verify

from conftest import ShortAnswer, valid_params
from mutations import (EPS, MALFORMED_PAIR_IDS, MALFORMED_PAIRS, with_pair,
                       with_revealed, with_round, with_unveil, with_value)


def reference_serialize(t: Transcript) -> str:
    """The plain writer, json.dumps(indent=2) of the whole object: the exact
    reference that serialize_transcript must match byte for byte."""
    rounds = [{
        "k": rec.round,
        "site": rec.site,
        "challenge": {
            "start": exact_str(rec.challenge_start),
            "end": exact_str(rec.challenge_end),
            "pairs": [list(p) for p in rec.pairs],
        },
        "response": {
            "end": exact_str(rec.response_end),
            "values": list(rec.values),
        },
    } for rec in t.rounds]
    unveils = [{
        "round": u.round,
        "site": u.site,
        "completes_at": exact_str(u.completes_at),
        "revealed": list(u.revealed),
    } for u in t.unveils]
    aggregation = None
    if t.aggregation is not None:
        aggregation = {"time": exact_str(t.aggregation.time),
                       "site": t.aggregation.site}
    obj = {
        "format": "rbc-transcript",
        "version": "1",
        "generator": GENERATOR_ID,
        "seeds": {"alice": t.alice_seed, "bob": t.bob_seed},
        "params": {
            "m": t.params.m,
            "modulus": t.params.modulus,
            "delta_x": exact_str(t.params.delta_x),
            "delta": exact_str(t.params.delta),
            "delta_t": exact_str(t.params.delta_t),
            "intra_delay": exact_str(t.params.intra_delay),
        },
        "rounds": rounds,
        "unveils": unveils,
        "aggregation": aggregation,
        "abort": t.abort,
    }
    return json.dumps(obj, indent=2) + "\n"


class TestRoundTrip:
    def test_equality_round_trip(self, params_m3):
        t = simulate(params_m3, 3, 1, 7, 9).transcript
        assert parse_transcript(serialize_transcript(t)) == t

    def test_pairs_are_plain_tuples(self, params_m3):
        t = simulate(params_m3, 3, 1, 7, 9).transcript
        parsed = parse_transcript(serialize_transcript(t))
        assert parsed == t
        for transcript in (t, parsed):
            for rec in transcript.rounds:
                assert type(rec.pairs) is tuple
                assert all(type(p) is tuple and len(p) == 2 for p in rec.pairs)

    def test_byte_identical_reserialization(self, params_m3):
        t = simulate(params_m3, 3, 1, 7, 9).transcript
        text = serialize_transcript(t)
        assert serialize_transcript(parse_transcript(text)) == text

    def test_dual_unveil_round_trip(self, params_m2):
        t = simulate(params_m2, 2, 0, 1, 2, dual_unveil=True).transcript
        assert parse_transcript(serialize_transcript(t)) == t

    def test_aborted_transcript_round_trip(self, params_m2):
        t = simulate(params_m2, 2, 0, 1, 2, strategy=ShortAnswer()).transcript
        assert t.abort is not None
        again = parse_transcript(serialize_transcript(t))
        assert again == t and again.abort == t.abort

    def test_unknown_seeds_serialize_as_null(self, params_m2):
        t = dataclasses.replace(simulate(params_m2, 1, 0, 1, 2).transcript,
                                alice_seed=None, bob_seed=None)
        obj = json.loads(serialize_transcript(t))
        assert obj["seeds"] == {"alice": None, "bob": None}
        assert parse_transcript(serialize_transcript(t)) == t

    @given(valid_params(m=st.integers(2, 3)), st.integers(1, 3),
           st.integers(0, 1), st.integers(0, 2**20))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_over_param_space(self, p, rounds, bit, seed):
        t = simulate(p, rounds, bit, seed, seed ^ 0xABCD).transcript
        text = serialize_transcript(t)
        assert parse_transcript(text) == t
        assert serialize_transcript(parse_transcript(text)) == text


RESIDUES = st.lists(st.integers(-3, 2 ** 70), max_size=4).map(tuple)
TIMES = st.builds(Fraction, st.integers(-10 ** 80, 10 ** 80),
                  st.sampled_from([1, 2, 8, 10, 3, 7 * 5 ** 4, 9 ** 40]))
ROUND_RECORDS = st.builds(
    RoundRecord, round=st.integers(0, 9), site=st.integers(0, 3),
    challenge_start=TIMES, challenge_end=TIMES,
    pairs=st.lists(st.tuples(st.integers(-3, 2 ** 70), st.integers(-3, 2 ** 70)),
                   max_size=4).map(tuple),
    response_end=TIMES, values=RESIDUES)
UNVEILS = st.builds(UnveilMessage, round=st.integers(0, 9), revealed=RESIDUES,
                    site=st.integers(0, 3), completes_at=TIMES)
SEEDS = st.none() | st.integers(0, 2 ** 64 - 1)
ABORTS = st.none() | st.text(max_size=20)
TRANSCRIPTS = st.builds(
    Transcript,
    params=st.builds(ProtocolParams.unchecked, st.integers(0, 64),
                     TIMES, TIMES, TIMES, TIMES),
    rounds=st.lists(ROUND_RECORDS, max_size=3).map(tuple),
    unveils=st.lists(UNVEILS, max_size=2).map(tuple),
    aggregation=st.none() | st.builds(SpacetimeEvent, TIMES.map(abs),
                                      st.integers(1, 2)),
    abort=ABORTS, alice_seed=SEEDS, bob_seed=SEEDS)
# a round with no pairs or values, an unveil with no keys, no aggregation,
# null seeds, and an abort string that needs escaping and spells the
# writer's own slot; the second example below also has no rounds or unveils
EMPTY_PARTS = Transcript(
    params=ProtocolParams.unchecked(2, Fraction(1), Fraction(0), Fraction(1, 3),
                                    Fraction(-1, 8)),
    rounds=(RoundRecord(1, 1, Fraction(0), Fraction(1, 100), (), Fraction(7), ()),),
    unveils=(UnveilMessage(1, (), 2, Fraction(1, 3)),),
    aggregation=None,
    abort='quote " backslash \\ newline \n tab \t é ☃ \x00 "rounds": [],\n  "unveils": []',
    alice_seed=None, bob_seed=None)


M3R3_RUN = ["run", "--m", "3", "--rounds", "3", "--bit", "1",
            "--alice-seed", "1998", "--bob-seed", "9810068"]
M3R3_SHA256 = "4a4022569061db5f7eadcac6aa765c85e462c8b1f51811be26613dcf9262106e"


class TestByteIdentity:
    """serialize_transcript against reference_serialize, the plain writer."""

    def test_cli_run_bytes_pinned(self, tmp_path):
        out = tmp_path / "t.json"
        assert main(M3R3_RUN + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == M3R3_SHA256

    def test_cli_run_bytes_pinned_on_a_crlf_host(self, tmp_path, monkeypatch):
        # a text-mode file writes each "\n" as os.linesep unless opened with
        # newline="\n"; _pyio.open reads os.linesep when it opens the file,
        # so this plays a Windows host
        monkeypatch.setattr(os, "linesep", "\r\n")
        monkeypatch.setattr(rbc.cli, "open", _pyio.open, raising=False)
        out = tmp_path / "t.json"
        assert main(M3R3_RUN + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == M3R3_SHA256

    def test_cli_run_bytes_pinned_past_one_lane_block(self, tmp_path):
        # 111,111 tape words and 222,222 challenge words: many full blocks
        # of the rng lane kernel plus a short final one
        out = tmp_path / "t.json"
        assert main(["run", "--m", "10", "--rounds", "6", "--bit", "1",
                     "--alice-seed", "1998", "--bob-seed", "9810068",
                     "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "34e771603b3cbb2a1dfb2539ae19412e57c98548eb243a41dc08c25434ee73c3")

    @pytest.mark.parametrize("rounds", [1, 2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_honest_runs_match_reference(self, m, rounds):
        params = ProtocolParams(m, "1", "0.005", "0.01")
        for bit in (0, 1):
            for dual in (False, True):
                t = simulate(params, rounds, bit, 10 * m + rounds, bit,
                             dual_unveil=dual).transcript
                assert len(t.unveils) == (2 if dual else 1)
                assert serialize_transcript(t) == reference_serialize(t)

    @given(TRANSCRIPTS)
    @example(EMPTY_PARTS)
    @example(dataclasses.replace(EMPTY_PARTS, rounds=(), unveils=(), abort=None))
    @settings(max_examples=200, deadline=None)
    def test_in_memory_transcripts_match_reference(self, t):
        assert serialize_transcript(t) == reference_serialize(t)

    @pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
    def test_long_lists_match_reference_at_piece_boundaries(self, n):
        # the writer emits a long list one piece per 4,096 entries
        rec = RoundRecord(1, 1, Fraction(0), Fraction(1, 100),
                          tuple((j, n + j) for j in range(n)), Fraction(7),
                          tuple(range(n)))
        t = dataclasses.replace(EMPTY_PARTS, rounds=(rec, rec), unveils=(
            UnveilMessage(1, tuple(range(4097)), 2, Fraction(1, 3)),))
        assert serialize_transcript(t) == reference_serialize(t)
        assert max(piece.count("\n          ]")
                   for piece in transcript_pieces(t)) == min(n, 4096)

    def test_time_over_the_file_cap_raises(self):
        # round 2's start derives from two ~120-digit params and has over
        # 256 characters, which the parser refuses
        p = ProtocolParams(2, 1 + Fraction(1, 3 ** 120), Fraction(1, 200),
                           Fraction(1, 100) + Fraction(1, 7 ** 120))
        t = simulate(p, 2, 1, 7, 9).transcript
        with pytest.raises(ValueError, match=r"^rounds\[1\]\.challenge\.start: "):
            serialize_transcript(t)

    def test_time_past_the_digit_limit_raises(self, params_m2):
        # 10**5000 has more digits than CPython converts to text by default,
        # so exact_str raises before the 256-character cap is compared
        t = simulate(params_m2, 2, 1, 7, 9).transcript
        t = with_unveil(t, completes_at=Fraction(10 ** 5000))
        with pytest.raises(ValueError, match=r"^unveils\[0\]\.completes_at: "
                           r"time is longer than 256 characters"):
            serialize_transcript(t)


@pytest.fixture(scope="module")
def transcript_m10r6() -> Transcript:
    params = ProtocolParams(10, "1", "0.005", "0.01")
    return simulate(params, 6, 1, 1998, 9810068).transcript


class TestWriterMemory:
    def test_serialize_peak_at_most_2_2_times_the_text(self, transcript_m10r6):
        # the pieces and their join, each about the size of the text; the
        # writer holds no other copy of it
        tracemalloc.start()
        try:
            text = serialize_transcript(transcript_m10r6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == 9_376_733
        assert peak <= 2.2 * len(text)


def with_m(t: Transcript, m) -> Transcript:
    p = t.params
    return dataclasses.replace(t, params=ProtocolParams.unchecked(
        m, p.delta_x, p.delta, p.delta_t, p.intra_delay))


NON_JSON_INTEGERS = [
    (lambda t: with_value(t, 2, 0, True), r"rounds\[1\]\.response\.values\[0\]: "
     r"expected an integer, got True"),
    (lambda t: with_value(t, 1, 0, None), r"rounds\[0\]\.response\.values\[0\]: "
     r"expected an integer, got None"),
    (lambda t: with_round(t, 1, round=True), r"rounds\[0\]\.k: "),
    (lambda t: with_round(t, 2, site=None), r"rounds\[1\]\.site: "),
    (lambda t: with_pair(t, 2, 1, (0, False)),
     r"rounds\[1\]\.challenge\.pairs\[1\]\[1\]: expected an integer, got False"),
    (lambda t: with_pair(t, 1, 0, (1.0, 2)), r"rounds\[0\]\.challenge\.pairs\[0\]\[0\]: "),
    (lambda t: with_revealed(t, 1, None), r"unveils\[0\]\.revealed\[1\]: "),
    (lambda t: with_unveil(t, round=None), r"unveils\[0\]\.round: "),
    (lambda t: with_unveil(t, site=True), r"unveils\[0\]\.site: "),
    # the header's integers and its abort
    (lambda t: dataclasses.replace(t, alice_seed=True),
     r"seeds\.alice: expected an integer, got True"),
    (lambda t: dataclasses.replace(t, bob_seed=1.5),
     r"seeds\.bob: expected an integer, got 1\.5"),
    (lambda t: with_m(t, True), r"params\.m: expected an integer, got True"),
    (lambda t: dataclasses.replace(t, abort=5),
     r"abort: expected a string or None, got 5"),
]


# header integers of the right type outside the reader's bounds
HEADER_OUT_OF_RANGE = [
    (lambda t: dataclasses.replace(t, alice_seed=-1),
     r"seeds\.alice: expected an integer in \[0, 2\*\*64\) or null, got -1"),
    (lambda t: dataclasses.replace(t, alice_seed=2 ** 64),
     r"seeds\.alice: expected an integer in \[0, 2\*\*64\) or null, "
     r"got 18446744073709551616"),
    (lambda t: dataclasses.replace(t, bob_seed=2 ** 64),
     r"seeds\.bob: expected an integer in \[0, 2\*\*64\) or null, "
     r"got 18446744073709551616"),
    (lambda t: with_m(t, 65),
     r"params\.m: m=65 outside the supported range \[0, 64\]"),
]
HEADER_OUT_OF_RANGE_IDS = ["alice_-1", "alice_2**64", "bob_2**64", "m_65"]


# one refused field in each part of the file, in file order
FAULTS_IN_FILE_ORDER = [
    (lambda t: dataclasses.replace(t, alice_seed=True), r"seeds\.alice: "),
    (lambda t: with_round(t, 2, site=None), r"rounds\[1\]\.site: "),
    (lambda t: with_unveil(t, round=None), r"unveils\[0\]\.round: "),
    (lambda t: dataclasses.replace(t, aggregation=SpacetimeEvent(
        Fraction(1, 3 ** 600), 2)), r"aggregation\.time: "),
    (lambda t: dataclasses.replace(t, abort=5), r"abort: "),
]
FAULT_IDS = ["header", "round", "unveil", "aggregation", "abort"]


class TestWriterRefusesNonJson:
    """str() of a bool, None or float in an integer field is not JSON, so
    the writer raises ValueError naming the field instead of writing it;
    it refuses an abort that is not a string the same way."""

    @pytest.mark.parametrize("mutate, message", NON_JSON_INTEGERS)
    def test_field_named(self, params_m2, mutate, message):
        t = mutate(simulate(params_m2, 2, 0, 1, 2).transcript)
        with pytest.raises(ValueError, match="^" + message):
            serialize_transcript(t)
        # the plain json.dumps writer emits a file the reader refuses
        with pytest.raises(TranscriptFormatError):
            parse_transcript(reference_serialize(t))

    @pytest.mark.parametrize("earlier, later", [
        *itertools.combinations(range(len(FAULTS_IN_FILE_ORDER)), 2)],
        ids=[f"{FAULT_IDS[i]}-{FAULT_IDS[j]}" for i, j in
             itertools.combinations(range(len(FAULTS_IN_FILE_ORDER)), 2)])
    def test_first_fault_in_file_order_named(self, params_m2, earlier, later):
        t = simulate(params_m2, 2, 0, 1, 2).transcript
        for mutate, _ in (FAULTS_IN_FILE_ORDER[later], FAULTS_IN_FILE_ORDER[earlier]):
            t = mutate(t)
        with pytest.raises(ValueError, match="^" + FAULTS_IN_FILE_ORDER[earlier][1]):
            serialize_transcript(t)

    @pytest.mark.parametrize("rounds, site", [
        (3, 2.0), (2, 1.0), (2, True), (3, Fraction(2))])
    def test_aggregation_site_must_be_an_exact_int(self, params_m2, rounds, site):
        # a site equal to the aggregation's own, such as 2.0 or True, cannot
        # be built, so verify never accepts an aggregation the writer refuses
        t = simulate(params_m2, rounds, 0, 1, 2).transcript
        assert t.aggregation.site == site
        with pytest.raises(ValueError, match="^site must be 1 or 2$"):
            SpacetimeEvent(t.aggregation.time, site)

    @pytest.mark.parametrize("mutate, message", HEADER_OUT_OF_RANGE,
                             ids=HEADER_OUT_OF_RANGE_IDS)
    def test_header_out_of_range_named(self, params_m2, mutate, message):
        # the writer holds seeds and m to the reader's bounds
        t = mutate(simulate(params_m2, 2, 0, 1, 2).transcript)
        with pytest.raises(ValueError, match="^" + message + "$"):
            serialize_transcript(t)
        with pytest.raises(TranscriptFormatError):
            parse_transcript(reference_serialize(t))

    @pytest.mark.parametrize("pair", MALFORMED_PAIRS, ids=MALFORMED_PAIR_IDS)
    def test_malformed_pair_named(self, params_m2, pair):
        t = with_pair(simulate(params_m2, 2, 0, 1, 2).transcript, 2, 1, pair)
        with pytest.raises(ValueError, match=r"^rounds\[1\]\.challenge\.pairs\[1\]"):
            serialize_transcript(t)

    def test_negative_integers_still_written(self, params_m2):
        # valid JSON; the parser, not the writer, refuses negative residues
        t = with_value(simulate(params_m2, 2, 0, 1, 2).transcript, 2, 0, -1)
        assert serialize_transcript(t) == reference_serialize(t)


class TestFileShape:
    def test_header_names_generator(self, params_m2):
        t = simulate(params_m2, 1, 0, 1, 2).transcript
        obj = json.loads(serialize_transcript(t))
        assert obj["format"] == "rbc-transcript"
        assert obj["version"] == "1"
        assert obj["generator"] == GENERATOR_ID
        assert obj["seeds"] == {"alice": 1, "bob": 2}

    def test_residues_are_json_integers(self, params_m2):
        t = simulate(params_m2, 2, 1, 1, 2).transcript
        obj = json.loads(serialize_transcript(t))
        for rec in obj["rounds"]:
            assert all(isinstance(v, int) for v in rec["response"]["values"])
            for pair in rec["challenge"]["pairs"]:
                assert isinstance(pair, list) and len(pair) == 2

    def test_times_are_exact_strings(self, params_m2):
        t = simulate(params_m2, 1, 0, 1, 2).transcript
        obj = json.loads(serialize_transcript(t))
        assert obj["rounds"][0]["challenge"]["start"] == "0"
        assert obj["rounds"][0]["challenge"]["end"] == "0.01"
        assert obj["rounds"][0]["response"]["end"] == "0.015"

    def test_non_decimal_rational_times_round_trip(self):
        p = ProtocolParams(2, Fraction(1, 3), Fraction(1, 300), Fraction(1, 300))
        t = simulate(p, 1, 0, 1, 2).transcript
        obj = json.loads(serialize_transcript(t))
        assert "/" in obj["params"]["delta_x"]
        assert parse_transcript(serialize_transcript(t)) == t


class TestParseErrors:
    def good_obj(self, params_m2):
        t = simulate(params_m2, 1, 0, 1, 2).transcript
        return json.loads(serialize_transcript(t))

    def test_rejects_non_json(self):
        with pytest.raises(TranscriptFormatError):
            parse_transcript("{truncated")

    @pytest.mark.parametrize("text", ["[]", "1", '"x"', "null"])
    def test_rejects_non_object_top_level(self, text):
        with pytest.raises(TranscriptFormatError,
                           match="top level must be an object"):
            parse_transcript(text)

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


# m=3, R=3: rounds[2] carries 9 pairs and 9 values, the unveil 9 keys
PARITY_BASE = json.loads(serialize_transcript(
    simulate(ProtocolParams(3, "1", "0.005", "0.01"), 3, 1, 7, 9).transcript))
SCALAR_FAULTS = [True, -1, 1.0, "1"]
LIST_FAULT = [1]
NOT_RESIDUE = "residues must be non-negative integers, got {!r}"
NOT_PAIR = "rounds[2]: pair {} must be a two-element list"


def put(changes) -> str:
    """File text of PARITY_BASE with each (path, value) change applied."""
    obj = json.loads(json.dumps(PARITY_BASE))
    for path, value in changes:
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return json.dumps(obj)


def pair_path(k: int, j: int, *member) -> tuple:
    return ("rounds", k, "challenge", "pairs", j) + member


def fault_cases():
    """(id, changes, message), each list fault at the first, a middle and
    the last index of its list, then single bad fields elsewhere."""
    values = ("rounds", 2, "response", "values")
    revealed = ("unveils", 0, "revealed")
    for j in (0, 4, 8):
        for bad in (7, "x", None, [1], [1, 2, 3]) + tuple(SCALAR_FAULTS):
            yield (f"pair{j}-entry-{bad!r}", [(pair_path(2, j), bad)],
                   NOT_PAIR.format(j))
        yield (f"pair{j}-entry-nested", [(pair_path(2, j), [[1], 2])],
               f"rounds[2] pair {j}: " + NOT_RESIDUE.format([1]))
        for bad in SCALAR_FAULTS + [LIST_FAULT]:
            for member in (0, 1):
                yield (f"pair{j}-member{member}-{bad!r}",
                       [(pair_path(2, j, member), bad)],
                       f"rounds[2] pair {j}: " + NOT_RESIDUE.format(bad))
            yield (f"values{j}-{bad!r}", [(values + (j,), bad)],
                   "rounds[2]: " + NOT_RESIDUE.format(bad))
            yield (f"revealed{j}-{bad!r}", [(revealed + (j,), bad)],
                   "unveils[0]: " + NOT_RESIDUE.format(bad))
    # when a list holds several faults, the first entry's is reported,
    # the shape of a pair before its members, members in order, pairs
    # before values, and each round in full before the next
    yield ("short-pair-before-bad-member",
           [(pair_path(2, 2), [1]), (pair_path(2, 5, 0), -1)], NOT_PAIR.format(2))
    yield ("bad-member-before-long-pair",
           [(pair_path(2, 1, 1), True), (pair_path(2, 3), [1, 2, 3])],
           "rounds[2] pair 1: " + NOT_RESIDUE.format(True))
    yield ("members-in-order", [(pair_path(2, 6), [True, -1])],
           "rounds[2] pair 6: " + NOT_RESIDUE.format(True))
    yield ("pairs-before-values",
           [(values + (0,), -1), (pair_path(2, 8), 7)], NOT_PAIR.format(8))
    yield ("earlier-values-before-later-pairs",
           [(("rounds", 1, "response", "values", 2), "1"), (pair_path(2, 0), [])],
           "rounds[1]: " + NOT_RESIDUE.format("1"))
    yield ("first-of-two-bad-values",
           [(values + (3,), 1.0), (values + (1,), [1])],
           "rounds[2]: " + NOT_RESIDUE.format([1]))
    # one bad field outside the residue lists
    yield from [
        ("generator-foreign", [(("generator",), "mt19937")],
         "unrecognized generator 'mt19937'"),
        ("generator-null", [(("generator",), None)],
         "unrecognized generator None"),
        ("generator-int", [(("generator",), 7)], "unrecognized generator 7"),
        ("m-65", [(("params", "m"), 65)],
         "m=65 outside the supported range [0, 64]"),
        ("m-negative", [(("params", "m"), -1)],
         "m=-1 outside the supported range [0, 64]"),
        ("m-string", [(("params", "m"), "3")],
         "params.m: expected integer, got '3'"),
        ("k-bool", [(("rounds", 0, "k"), True)],
         "rounds[0].k: expected integer, got True"),
        ("rounds-object", [(("rounds",), {})],
         "transcript.rounds: expected list, got {}"),
        ("params-list", [(("params",), [])],
         "transcript.params: expected dict, got []"),
        ("time-number", [(("params", "delta_x"), 1)],
         "params.delta_x: expected str, got 1"),
        ("aggregation-negative-time", [(("aggregation", "time"), "-1")],
         "aggregation: event time must be >= 0"),
        ("aggregation-site-3", [(("aggregation", "site"), 3)],
         "aggregation: site must be 1 or 2"),
        ("abort-number", [(("abort",), 5)], "abort must be null or a string"),
    ]


FAULT_CASES = list(fault_cases())



class TestReaderErrors:
    """The first bad entry is named exactly, whichever list holds it, and
    so is a single bad field elsewhere in the file."""

    @pytest.mark.parametrize("changes, message",
                             [case[1:] for case in FAULT_CASES],
                             ids=[case[0] for case in FAULT_CASES])
    def test_first_fault_named(self, changes, message):
        with pytest.raises(TranscriptFormatError) as info:
            parse_transcript(put(changes))
        assert str(info.value) == message

    def test_base_parses(self):
        assert parse_transcript(put([])) is not None


def fresh_params(t: Transcript) -> Transcript:
    """t with a params object of its own, built as the reader built it."""
    p = t.params
    return dataclasses.replace(t, params=ProtocolParams.unchecked(
        p.m, p.delta_x, p.delta, p.delta_t, p.intra_delay))


class TestReaderCaches:
    """Each distinct time text is read once and each distinct geometry built
    once per process; a cached value never changes an outcome."""

    @pytest.mark.parametrize("time", ["1/100", "0.010", "1e5", " 1", "9" * 257])
    def test_refused_time_raises_the_same_message_each_parse(self, time):
        text = put([(("params", "delta_t"), time)])
        messages = []
        for _ in range(3):
            with pytest.raises(TranscriptFormatError) as info:
                parse_transcript(text)
            messages.append(str(info.value))
        assert messages[0].startswith(("bad time string", "time string"))
        assert messages == [messages[0]] * 3

    def test_time_cache_is_bounded(self):
        for n in range(1200):
            assert _parse_time(str(10 ** 6 + n)) == 10 ** 6 + n
        assert _parse_time.cache_info().currsize <= 1024

    def test_one_params_object_per_geometry(self):
        a, b = parse_transcript(put([])), parse_transcript(put([]))
        assert a.params is b.params
        for changes in ([(("params", "delta_t"), "0.02")],
                        [(("params", "intra_delay"), "0.004")],
                        [(("params", "m"), 2), (("params", "modulus"), 4)]):
            other = parse_transcript(put(changes))
            assert other.params is not a.params
            assert other.params is parse_transcript(put(changes)).params

    def test_bad_delta_x_named_before_missing_delta(self):
        obj = json.loads(put([(("params", "delta_x"), "1e5")]))
        del obj["params"]["delta"]
        with pytest.raises(TranscriptFormatError, match="bad time string '1e5'"):
            parse_transcript(json.dumps(obj))
        obj["params"]["delta_x"] = "1"
        with pytest.raises(TranscriptFormatError,
                           match="params: missing field 'delta'"):
            parse_transcript(json.dumps(obj))

    def test_shared_params_verdicts_match_fresh_params(self):
        # the mutation helpers' edits of residues, pairs, keys, windows,
        # unveil times and sites, and dropped rounds
        t = shared = parse_transcript(put([]))
        deadline = unveil_deadline(t.params, 3)
        mutants = [
            t, with_value(t, 3, 4, 99), with_pair(t, 2, 1, (5, 5)),
            with_revealed(t, 8, 1),
            with_round(t, 2, challenge_start=round_window(t.params, 2)[0] - EPS),
            with_round(t, 3, response_end=round_window(t.params, 3)[2] + EPS),
            with_round(t, 1, site=2), with_unveil(t, completes_at=deadline),
            with_unveil(t, completes_at=deadline - EPS),
            with_unveil(t, completes_at=Fraction(-1)), with_unveil(t, site=1),
            dataclasses.replace(t, rounds=t.rounds[:2]),
            dataclasses.replace(t, rounds=t.rounds[1:])]
        # every mutant first verified on the shared object, then each again
        # on an object of its own, then on the shared one once more
        verdicts = [verify(t) for t in mutants]
        assert len({v.reason for v in verdicts}) > 3
        assert [verify(fresh_params(t)) for t in mutants] == verdicts
        assert [verify(t) for t in mutants] == verdicts
        assert all(t.params is shared.params for t in mutants)


HONEST_TEXT = serialize_transcript(
    simulate(ProtocolParams(2, "1", "0.005", "0.01"), 2, 1, 7, 9).transcript)
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
