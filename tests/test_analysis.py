from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbc.analysis import capacity_report, round_traffic_bits
from rbc.codec import tape_consumed
from rbc.netsim import simulate
from rbc.spacetime import ProtocolParams


class TestTapeConsumed:
    def test_three_rounds_m10(self):
        assert tape_consumed(10, 3) == 111

    def test_five_rounds_m2(self):
        assert tape_consumed(2, 5) == 31

    def test_single_round_any_m(self):
        for m in (2, 7, 16):
            assert tape_consumed(m, 1) == 1

    @given(st.integers(2, 16), st.integers(1, 32))
    def test_matches_term_sum_exactly(self, m, rounds):
        assert tape_consumed(m, rounds) == sum(m ** (k - 1) for k in range(1, rounds + 1))

    def test_big_instances_do_not_overflow(self):
        value = tape_consumed(16, 32)
        assert value == (16 ** 32 - 1) // 15
        assert value > 10 ** 37


class TestRoundTraffic:
    def test_first_round_m10(self):
        assert round_traffic_bits(10, 1) == 30

    def test_third_round_m10(self):
        assert round_traffic_bits(10, 3) == 3000

    @pytest.mark.parametrize("m, k, message", [
        (1, 1, "m must be an int >= 2"), (2.0, 1, "m must be an int >= 2"),
        (2, 0, "round index must be an int >= 1"),
        (2, 2.0, "round index must be an int >= 1")])
    def test_refuses_a_bad_m_or_round(self, m, k, message):
        # a float round would give a float count, 12.0 for (2, 2.0)
        with pytest.raises(ValueError, match=message):
            round_traffic_bits(m, k)

    @given(st.integers(2, 12), st.integers(1, 10))
    def test_geometric_ratio(self, m, k):
        assert round_traffic_bits(m, k + 1) == m * round_traffic_bits(m, k)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("rounds", [1, 2, 3, 4])
    def test_matches_simulated_rounds(self, m, rounds):
        # two m-bit pair members per commitment plus one m-bit response
        t = simulate(ProtocolParams(m, "1", "0.005", "0.01"), rounds, 1, 7, 9).transcript
        assert [rec.round for rec in t.rounds] == list(range(1, rounds + 1))
        for rec in t.rounds:
            assert (2 * m * len(rec.pairs) + m * len(rec.values)
                    == round_traffic_bits(m, rec.round))


class TestMaxPracticalRounds:
    def test_reference_scenario_roughly_ten(self):
        # m=10, 0.1 light-second separation, 100 gigabaud
        rounds = capacity_report(10, "0.1", "0.00001", "0.0001", "1e11").max_rounds
        assert rounds == 9
        assert 8 <= rounds <= 12

    def test_zero_when_first_round_does_not_fit(self):
        p_period = Fraction("0.965")
        starving_baud = Fraction(3 * 2, 1) / p_period - 1
        assert capacity_report(2, "1", "0.005", "0.01", starving_baud).max_rounds == 0

    def test_monotone_in_baud(self):
        lo = capacity_report(10, "0.1", "0.00001", "0.0001", "1e9").max_rounds
        hi = capacity_report(10, "0.1", "0.00001", "0.0001", "1e12").max_rounds
        assert lo <= hi

    def test_monotone_in_m(self):
        small = capacity_report(2, "0.1", "0.00001", "0.0001", "1e9").max_rounds
        large = capacity_report(12, "0.1", "0.00001", "0.0001", "1e9").max_rounds
        assert large <= small

    def test_monotone_in_separation(self):
        near = capacity_report(10, "0.1", "0.00001", "0.0001", "1e11").max_rounds
        far = capacity_report(10, "10", "0.00001", "0.0001", "1e11").max_rounds
        assert near <= far

    def test_rejects_nonpositive_baud(self):
        with pytest.raises(ValueError):
            capacity_report(10, "0.1", "0.00001", "0.0001", 0)


class TestCapacityReport:
    def test_rows_track_budget(self):
        report = capacity_report(10, "0.1", "0.00001", "0.0001", "1e11")
        assert report.max_rounds == 9
        assert report.tape_used == tape_consumed(10, 9)
        fits = [fits for _, _, fits in report.rows]
        assert fits == [True] * 9 + [False]
        bits = [bits for _, bits, _ in report.rows]
        assert bits == [30 * 10 ** k for k in range(10)]

    def test_json_round_trips_through_stdlib(self):
        obj = capacity_report(2, "1", "0.005", "0.01", "1e6").to_json_obj()
        again = json.loads(json.dumps(obj))
        assert again == obj
        assert again["period"] == "0.965"

    def test_table_is_aligned_text(self):
        text = capacity_report(2, "1", "0.005", "0.01", "1e6").to_table()
        lines = text.splitlines()
        assert any("max practical rounds" in line for line in lines)
        assert lines[-1].strip().endswith(("yes", "no"))
