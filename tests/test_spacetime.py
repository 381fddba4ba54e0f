from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rbc.spacetime import (GeometryError, ProtocolParams, SpacetimeEvent,
                           as_exact, exact_str, round_site, round_window,
                           spacelike, unveil_deadline)

from conftest import valid_params


class TestParams:
    def test_modulus_is_power_of_two(self):
        assert ProtocolParams(5, 1, 0, "0.01").modulus == 32

    def test_rejects_small_m(self):
        for bad in (1, 0, -3, 2.0, True):
            with pytest.raises((GeometryError, TypeError)):
                ProtocolParams(bad, 1, "0.005", "0.01")

    def test_rejects_negative_period(self):
        with pytest.raises(GeometryError):
            ProtocolParams(2, "0.01", "0.001", "0.005")

    def test_rejects_negative_delta(self):
        with pytest.raises(GeometryError, match="delta must be >= 0"):
            ProtocolParams(2, "1", "-0.001", "0.01")

    def test_rejects_wide_tolerance(self):
        # 10*delta >= delta_x
        with pytest.raises(GeometryError):
            ProtocolParams(2, "1", "0.1", "0.01")

    def test_rejects_long_window(self):
        with pytest.raises(GeometryError):
            ProtocolParams(2, "1", "0.005", "0.1")

    def test_rejects_bad_intra_delay(self):
        with pytest.raises(GeometryError):
            ProtocolParams(2, "1", "0.005", "0.01", intra_delay="0.011")
        with pytest.raises(GeometryError):
            ProtocolParams(2, "1", "0.005", "0.01", intra_delay="-0.001")

    def test_intra_delay_defaults_to_delta(self):
        p = ProtocolParams(2, "1", "0.005", "0.01")
        assert p.intra_delay == Fraction("0.005")

    def test_overlapping_windows_named(self):
        # reachable only when the 10x bound on delta fails as well
        p = ProtocolParams.unchecked(2, Fraction(1), Fraction(1, 5),
                                     Fraction(1, 20), Fraction(1, 5))
        assert p.problems() == [
            "site separation must dominate placement: 10*delta < delta_x",
            "round windows overlap: need delta + 2*delta_t < T"]

    def test_float_inputs_are_exact(self):
        p = ProtocolParams(2, 0.1, 1e-5, 1e-4)
        assert p.delta_x == Fraction(1, 10)
        assert p.delta == Fraction(1, 100000)


class TestPeriod:
    def test_example_unit_separation(self):
        assert ProtocolParams(2, "1.0", "0.005", "0.01").period == Fraction("0.965")

    def test_example_tenth_second(self):
        p = ProtocolParams(2, "0.1", "0.00001", "0.0001")
        assert p.period == Fraction("0.09977")

    @given(valid_params())
    def test_positive_and_below_cross_delay(self, p):
        assert 0 < p.period < p.cross_delay

    def test_cached_geometry_keeps_equality_hash_and_repr(self):
        p = ProtocolParams(2, "1.0", "0.005", "0.01")
        fresh = ProtocolParams(2, "1.0", "0.005", "0.01")
        assert p.period is p.period and p.cross_delay is p.cross_delay
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)


class TestMinCrossDelay:
    def test_examples(self):
        assert ProtocolParams(2, "1.0", "0.005", "0.01").cross_delay == Fraction("0.99")
        assert ProtocolParams(2, "0.1", 0, "0.0001").cross_delay == Fraction("0.1")

    @given(valid_params())
    def test_below_separation_when_tolerant(self, p):
        if p.delta > 0:
            assert p.cross_delay < p.delta_x
        else:
            assert p.cross_delay == p.delta_x


class TestRoundWindow:
    def test_first_round(self, params_m2):
        dt, d = params_m2.delta_t, params_m2.delta
        assert round_window(params_m2, 1) == (0, dt, d + 2 * dt)

    def test_second_round(self, params_m2):
        t = params_m2.period
        dt, d = params_m2.delta_t, params_m2.delta
        assert round_window(params_m2, 2) == (t, t + dt, t + d + 2 * dt)

    def test_third_round_values(self, params_m2):
        assert round_window(params_m2, 3) == (
            Fraction("1.93"), Fraction("1.94"), Fraction("1.955"))

    @given(valid_params())
    def test_spacing_is_exactly_one_period(self, p):
        for k in (1, 2, 5):
            assert (round_window(p, k + 1)[0] - round_window(p, k)[0]) == p.period

    @given(valid_params())
    def test_rounds_never_overlap(self, p):
        for k in (1, 2, 7):
            assert round_window(p, k)[2] < round_window(p, k + 1)[0]


    def test_computed_once_per_params(self, params_m2):
        assert round_window(params_m2, 2) is round_window(params_m2, 2)
        with pytest.raises(ValueError):
            round_window(params_m2, 0)

    @pytest.mark.parametrize("k", [3.0, True, None, "3", Fraction(3)])
    def test_refuses_a_non_int_index(self, params_m2, k):
        # refused before the memo is read or written
        with pytest.raises(ValueError, match="round index must be an int"):
            round_window(params_m2, k)
        # the warm memo holds equal ints' entries, which a lookup by k finds
        round_window(params_m2, 1), round_window(params_m2, 3)
        with pytest.raises(ValueError, match="round index must be an int"):
            round_window(params_m2, k)
        assert round_window(params_m2, 3) == (
            Fraction("1.93"), Fraction("1.94"), Fraction("1.955"))
        assert all(type(t) is Fraction for t in round_window(params_m2, 3))


class TestRoundSite:
    def test_examples(self):
        assert round_site(1) == 1
        assert round_site(2) == 2
        assert round_site(4) == 2

    def test_alternation(self):
        assert [round_site(k) for k in range(1, 7)] == [1, 2, 1, 2, 1, 2]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            round_site(0)

    @pytest.mark.parametrize("k", [3.0, True, None, "3"])
    def test_rejects_a_non_int_index(self, k):
        with pytest.raises(ValueError, match="round index must be an int"):
            round_site(k)


class TestUnveilDeadline:
    def test_first_round(self, params_m2):
        assert unveil_deadline(params_m2, 1) == Fraction("0.99")

    def test_second_round(self, params_m2):
        assert unveil_deadline(params_m2, 2) == Fraction("1.955")

    def test_computed_once_per_params(self, params_m2):
        assert unveil_deadline(params_m2, 2) is unveil_deadline(params_m2, 2)

    @pytest.mark.parametrize("k", [0, -1, 3.0, 2.5, True, None])
    def test_refuses_a_bad_index(self, params_m2, k):
        # a float index would give a float deadline, 2.92 for 3.0
        with pytest.raises(ValueError, match="round index must be an int >= 1"):
            unveil_deadline(params_m2, k)
        # refused before the memo too, where 3.0 would find 3's entry
        unveil_deadline(params_m2, 1), unveil_deadline(params_m2, 3)
        with pytest.raises(ValueError, match="round index must be an int >= 1"):
            unveil_deadline(params_m2, k)
        assert unveil_deadline(params_m2, 3) == Fraction("2.92")

    @given(valid_params())
    def test_response_end_precedes_deadline(self, p):
        # delta + 2*delta_t < delta_x - 2*delta follows from T > 0.
        for r in (1, 2, 3, 6):
            assert round_window(p, r)[2] < unveil_deadline(p, r)


class TestSpacelike:
    def test_cross_site_inside_bound(self, params_m2):
        e1 = SpacetimeEvent(Fraction(0), 1)
        e2 = SpacetimeEvent(Fraction(1, 2), 2)
        assert spacelike(e1, e2, params_m2)

    def test_cross_site_outside_bound(self, params_m2):
        e1 = SpacetimeEvent(Fraction(0), 1)
        e2 = SpacetimeEvent(Fraction(3, 2), 2)
        assert not spacelike(e1, e2, params_m2)

    def test_same_site_never_spacelike(self, params_m2):
        e = SpacetimeEvent(Fraction(0), 1)
        assert not spacelike(e, e, params_m2)

    def test_boundary_is_strict(self, params_m2):
        e1 = SpacetimeEvent(Fraction(0), 1)
        e2 = SpacetimeEvent(params_m2.cross_delay, 2)
        assert not spacelike(e1, e2, params_m2)

    @given(valid_params())
    def test_symmetric(self, p):
        e1 = SpacetimeEvent(Fraction(1, 7), 1)
        e2 = SpacetimeEvent(Fraction(2, 3), 2)
        assert spacelike(e1, e2, p) == spacelike(e2, e1, p)


class TestSpacetimeEvent:
    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            SpacetimeEvent(Fraction(-1), 1)

    def test_rejects_bad_site(self):
        with pytest.raises(ValueError):
            SpacetimeEvent(Fraction(0), 3)


class TestExactStr:
    @pytest.mark.parametrize("value,text", [
        (Fraction(5), "5"),
        (Fraction(-3), "-3"),
        (Fraction(193, 200), "0.965"),
        (Fraction(193, 100), "1.93"),
        (Fraction(1, 2), "0.5"),
        (Fraction(3, 8), "0.375"),
        (Fraction(1, 5), "0.2"),
        (Fraction(-1, 4), "-0.25"),
        (Fraction(1, 3), "1/3"),
        (Fraction(22, 7), "22/7"),
    ])
    def test_canonical_forms(self, value, text):
        assert exact_str(value) == text

    @given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**4))
    def test_round_trip(self, num, den):
        value = Fraction(num, den)
        text = exact_str(value)
        parsed = (Fraction(int(text.split("/")[0]), int(text.split("/")[1]))
                  if "/" in text else Fraction(text))
        assert parsed == value

    def test_as_exact_float_repr(self):
        assert as_exact(0.1) == Fraction(1, 10)
        third = Fraction(1, 3)
        assert as_exact(third) is third
        assert as_exact("1e11") == Fraction(10) ** 11
