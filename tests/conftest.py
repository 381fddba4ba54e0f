from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from rbc.adversary import OffsetGuessAlice, offset_guess_reveal
from rbc.agents import AliceState, make_tape
from rbc.cli import main
from rbc.netsim import AlicePrivate, HonestAlice, causal_view
from rbc.rng import derive_seed
from rbc.spacetime import ProtocolParams


def three_sigma(p, n: int) -> float:
    """Three binomial standard deviations of a rate over n trials whose
    chance is p: 3 * sqrt(p * (1 - p) / n)."""
    return 3 * (float(p) * (1 - float(p)) / n) ** 0.5


@pytest.fixture
def params_m2() -> ProtocolParams:
    return ProtocolParams(2, "1", "0.005", "0.01")


@pytest.fixture
def params_m3() -> ProtocolParams:
    return ProtocolParams(3, "1", "0.005", "0.01")


@pytest.fixture(scope="session")
def m10r6_file(tmp_path_factory):
    """The m=10, R=6 transcript file that `rbc run` writes (9.4 MB, 111,111
    commitments), built once for the whole session."""
    out = tmp_path_factory.mktemp("m10r6") / "t.json"
    assert main(["run", "--m", "10", "--rounds", "6", "--bit", "1",
                 "--alice-seed", "1998", "--bob-seed", "9810068",
                 "--out", str(out)]) == 0
    return out


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


def replay_decisions(result, strategy, bit: int, rounds: int) -> None:
    """Re-derive every decision of a simulate run from its causal view alone.

    The caller passes the strategy object, bit and rounds it gave
    simulate.  Alice's private inputs are rebuilt from those and her seed
    in the transcript; each view is rebuilt from the message-log prefix
    that existed at decision time and checked against the causal
    predicate; then the strategy's method named by the decision's kind must
    return the recorded output.  Raises AssertionError on any divergence:
    this is the executable form of the no-superluminal-information claim.
    """
    t = result.transcript
    params, seed = t.params, t.alice_seed
    state = AliceState(bit, make_tape(params.m, rounds, seed), rounds)
    priv = AlicePrivate(params, state, derive_seed(seed, "alice", "cheat"))
    for decision in result.decisions:
        view = decision_view(result, decision)
        for msg in view.messages:
            assert msg.destination == decision.site, "view leaked another site"
            assert msg.earliest_arrival <= decision.time, "view leaked the future"
        output = tuple(getattr(strategy, decision.kind)(view, decision.round, priv))
        assert output == decision.output, (
            f"{decision.kind} at round {decision.round} not reproducible "
            f"from its causal view")
