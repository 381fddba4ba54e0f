"""Resource accounting: tape consumption, traffic growth, practical round limits.

Iterating commitments is exponentially hungry.  Round k consumes m**(k-1)
tape keys and moves 3*m*m**(k-1) payload bits (two m-bit pair members per
commitment plus one m-bit response; framing is not counted).  A round's
traffic must fit within one period T at the channel rate, which caps the
practical number of rounds for a given separation and baud.

All counts are exact integers and all comparisons exact rationals, so
reports never suffer float rounding or overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .codec import check_m, tape_consumed
from .spacetime import ProtocolParams, Scalar, as_exact, check_round, exact_str


def round_traffic_bits(m: int, k: int) -> int:
    """Protocol payload bits exchanged in round k: 3 * m * m**(k-1)."""
    return 3 * check_m(m) * m ** (check_round(k) - 1)


@dataclass(frozen=True)
class CapacityReport:
    """Per-round traffic against the one-period budget baud * T."""

    m: int
    delta_x: Fraction
    delta: Fraction
    delta_t: Fraction
    baud: Fraction
    period: Fraction
    budget_bits: Fraction
    max_rounds: int
    rows: tuple[tuple[int, int, bool], ...]  # (round, bits, fits)
    tape_used: int

    def to_json_obj(self) -> dict:
        return {
            "m": self.m,
            "delta_x": exact_str(self.delta_x),
            "delta": exact_str(self.delta),
            "delta_t": exact_str(self.delta_t),
            "baud": exact_str(self.baud),
            "period": exact_str(self.period),
            "budget_bits_per_round": exact_str(self.budget_bits),
            "max_rounds": self.max_rounds,
            "tape_consumed": self.tape_used,
            "rounds": [{"k": k, "bits": bits, "fits": fits}
                       for k, bits, fits in self.rows],
        }

    def to_table(self) -> str:
        lines = [
            f"m={self.m}  delta_x={exact_str(self.delta_x)}  "
            f"delta={exact_str(self.delta)}  delta_t={exact_str(self.delta_t)}  "
            f"baud={exact_str(self.baud)}",
            f"period T = {exact_str(self.period)} s   "
            f"budget per round = {exact_str(self.budget_bits)} bits",
            f"max practical rounds = {self.max_rounds}   "
            f"tape consumed = {self.tape_used} keys",
            "",
        ]
        width = max(len(str(bits)) for _, bits, _ in self.rows) if self.rows else 4
        lines.append(f"{'round':>5}  {'bits':>{width}}  fits")
        for k, bits, fits in self.rows:
            lines.append(f"{k:>5}  {bits:>{width}}  {'yes' if fits else 'no'}")
        return "\n".join(lines)


def capacity_report(m: int, delta_x: Scalar, delta: Scalar, delta_t: Scalar,
                    baud: Scalar) -> CapacityReport:
    """Full accounting: max rounds plus the traffic table up to first misfit.

    Traffic grows by a factor m per round, so finding the max is a short
    exact-integer walk.
    """
    params = ProtocolParams(m, delta_x, delta, delta_t)
    rate = as_exact(baud)
    if rate <= 0:
        raise ValueError("baud must be > 0")
    budget = rate * params.period
    max_rounds = 0
    while round_traffic_bits(m, max_rounds + 1) <= budget:
        max_rounds += 1
    rows = tuple((k, round_traffic_bits(m, k), k <= max_rounds)
                 for k in range(1, max_rounds + 2))
    tape_used = tape_consumed(m, max_rounds) if max_rounds >= 1 else 0
    return CapacityReport(m=m, delta_x=params.delta_x, delta=params.delta,
                          delta_t=params.delta_t, baud=rate, period=params.period,
                          budget_bits=budget, max_rounds=max_rounds, rows=rows,
                          tape_used=tape_used)
