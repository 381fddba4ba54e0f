from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rbc.adversary import OffsetGuessAlice, offset_guess_reveal
from rbc.netsim import HonestAlice, causal_view
from rbc.spacetime import ProtocolParams


@pytest.fixture
def params_m2() -> ProtocolParams:
    return ProtocolParams(2, "1", "0.005", "0.01")


@pytest.fixture
def params_m3() -> ProtocolParams:
    return ProtocolParams(3, "1", "0.005", "0.01")


@st.composite
def valid_params(draw, m=st.integers(2, 5)):
    """Exact-rational params satisfying every construction invariant.

    delta and delta_t are drawn as delta_x / j with j >= 11, which already
    implies the tenth bounds and window disjointness, so no rejection is
    needed; delta = 0 is mixed in explicitly.
    """
    dx = Fraction(draw(st.integers(1, 50)), draw(st.integers(1, 20)))
    delta = Fraction(0) if draw(st.booleans()) else dx / draw(st.integers(11, 500))
    dt = dx / draw(st.integers(11, 500))
    return ProtocolParams(draw(m), dx, delta, dt)


class ShortAnswer(HonestAlice):
    """Answers round 2 on with one value too few: malformed output, which
    simulate records as an abort at round 2."""

    def respond(self, view, k, priv):
        values = super().respond(view, k, priv)
        return values[:-1] if k > 1 else values


class CommittedBitGuess(OffsetGuessAlice):
    """Forges the committed bit itself, which needs no flipped position:
    the offset-guess chain with no guess drawn."""

    def unveil(self, view, last_round, priv):
        return offset_guess_reveal(view, last_round,
                                   priv.state.committed_bit, priv)


def decision_view(result, decision):
    """The causal view a decision got, rebuilt from its log prefix."""
    return causal_view(decision.site, decision.time,
                       result.messages[:decision.log_size])
