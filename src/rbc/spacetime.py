"""Geometry and scheduling for the two-site commitment protocol.

Both parties agree on a frame, two site coordinates separated by ``delta_x``
light-seconds (c = 1), and a placement tolerance ``delta``: each laboratory
sits somewhere within ``delta`` of its site, never disclosed more precisely.
All bounds here therefore use worst-case placement, so exact lab coordinates
never appear, only site ids 1 and 2.

Rounds repeat with period ``T = delta_x - 2*delta_t - 3*delta``, alternating
sites, sized so that each round's response completes outside the future
light cone of the other site's concurrent activity.  Every quantity is an
exact ``Fraction``, so every comparison is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Union

Scalar = Union[int, float, str, Fraction]


class GeometryError(ValueError):
    """Raised when protocol parameters violate a construction invariant."""


def as_exact(value: Scalar) -> Fraction:
    """Convert a scalar to an exact Fraction.

    Floats go through their shortest repr, so a literal like 0.1 means
    exactly 1/10 rather than its binary approximation.  A Fraction is
    returned as it is.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        return Fraction(repr(value))
    return Fraction(value)


def exact_str(value: Fraction) -> str:
    """Canonical exact text for a rational quantity.

    Integers print bare, terminating decimals print as minimal-digit
    decimals, everything else as "p/q".  One Fraction, one string, so
    serialized transcripts are byte-stable.
    """
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    d = value.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{value.numerator}/{value.denominator}"
    digits = max(twos, fives)
    scaled = abs(value.numerator) * 10 ** digits // value.denominator
    sign = "-" if value.numerator < 0 else ""
    whole, frac = divmod(scaled, 10 ** digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


# Messages print a time in full while its numerator and denominator fit in
# this many bits, well inside CPython's 4,300-digit int-to-str limit.  A
# parsed time is under 2**851 (256 characters), and the windows and
# deadlines derived from four of them stay inside the cap too.
_SHOWN_BITS = 4096


def printable(value: Fraction) -> bool:
    """Whether messages print a time in full, as str, repr and exact_str
    all succeed: its numerator and denominator both fit in _SHOWN_BITS."""
    return (value.numerator.bit_length() <= _SHOWN_BITS
            and value.denominator.bit_length() <= _SHOWN_BITS)


def shown_time(value: Fraction) -> str:
    """A time as messages print it: str(value), or only its magnitude as a
    power of two when it has too many digits to print."""
    if printable(value):
        return str(value)
    n, d = value.numerator, value.denominator
    return f"about {'-' if n < 0 else ''}2^{n.bit_length() - d.bit_length()}"


@dataclass(frozen=True)
class ProtocolParams:
    """Security parameter and validated geometry/timing of one protocol run.

    Attributes:
        m: security parameter; residues live in [0, 2**m).
        delta_x: site separation in light-seconds.
        delta: laboratory placement tolerance.
        delta_t: length of the per-round challenge window.
        intra_delay: modelled one-way delay between same-site labs, any
            exact value in [0, min(2*delta, delta + delta_t)]; default delta.
    """

    m: int
    delta_x: Fraction
    delta: Fraction
    delta_t: Fraction
    intra_delay: Fraction

    def __init__(self, m: int, delta_x: Scalar, delta: Scalar, delta_t: Scalar,
                 intra_delay: Scalar | None = None):
        delta_x, delta, delta_t = map(as_exact, (delta_x, delta, delta_t))
        self._set(m, delta_x, delta, delta_t,
                  delta if intra_delay is None else as_exact(intra_delay))
        problems = self.problems()
        if problems:
            raise GeometryError("; ".join(problems))

    @staticmethod
    def unchecked(m: object, delta_x: Fraction, delta: Fraction, delta_t: Fraction,
                  intra_delay: Fraction) -> "ProtocolParams":
        """Build without invariant checks (for parsed transcripts; the
        verifier re-runs problems() and rejects instead of raising)."""
        self = object.__new__(ProtocolParams)
        self._set(m, delta_x, delta, delta_t, intra_delay)
        return self

    def _set(self, *values) -> None:
        """Set the five fields of the frozen instance, in declaration order."""
        for f, value in zip(fields(self), values):
            object.__setattr__(self, f.name, value)

    @property
    def modulus(self) -> int:
        return 1 << self.m

    @cached_property
    def _windows(self) -> dict:
        """round_window's memo: round k -> its window."""
        return {}

    @cached_property
    def _deadlines(self) -> dict:
        """unveil_deadline's memo: round R -> its deadline."""
        return {}

    @cached_property
    def _schedules(self) -> dict:
        """netsim's memo: (rounds, dual_unveil) -> the walk of every such run."""
        return {}

    @cached_property
    def period(self) -> Fraction:
        return self.delta_x - 2 * self.delta_t - 3 * self.delta

    @cached_property
    def cross_delay(self) -> Fraction:
        """Conservative lower bound on cross-site signal delay: delta_x - 2*delta.

        Labs may each sit up to delta nearer the other site, so nothing can
        cross in less than this.
        """
        return self.delta_x - 2 * self.delta

    @cached_property
    def relay_delay(self) -> Fraction:
        """intra_delay + cross_delay: via the local Bob to the other site."""
        return self.intra_delay + self.cross_delay

    def problems(self) -> list[str]:
        """All violated construction invariants, in a fixed check order.

        Bounds quantify the protocol's "much less than" requirements:
        delta < delta_x/10, delta_t < delta_x/10, and additionally
        delta + 2*delta_t < T so consecutive round windows are disjoint.
        intra_delay <= delta + delta_t makes a challenge, sent as its window
        ends, reach the responder by its deadline start + delta + 2*delta_t.
        The params are immutable, so the checks run once per params object.
        """
        return list(self._problems)

    @cached_property
    def _problems(self) -> tuple[str, ...]:
        m = self.m
        if not isinstance(m, int) or isinstance(m, bool) or m < 2:
            return ("security parameter m must be an integer >= 2",)
        probs = []
        if self.delta_x <= 0:
            probs.append("delta_x must be > 0")
        if self.delta < 0:
            probs.append("delta must be >= 0")
        if self.delta_t <= 0:
            probs.append("delta_t must be > 0")
        if probs:
            return tuple(probs)
        if 10 * self.delta >= self.delta_x:
            probs.append("site separation must dominate placement: 10*delta < delta_x")
        if 10 * self.delta_t >= self.delta_x:
            probs.append("round window must be short: 10*delta_t < delta_x")
        if self.period <= 0:
            probs.append(f"derived period T = {shown_time(self.period)} "
                         f"must be > 0")
        elif self.delta + 2 * self.delta_t >= self.period:
            probs.append("round windows overlap: need delta + 2*delta_t < T")
        if not probs and not (0 <= self.intra_delay <= 2 * self.delta):
            probs.append("intra_delay must lie in [0, 2*delta]")
        if not probs and self.intra_delay > self.delta + self.delta_t:
            probs.append("response deadline missed: need intra_delay <= delta + delta_t")
        return tuple(probs)


@dataclass(frozen=True)
class SpacetimeEvent:
    """A timed occurrence at one of the two sites, in the agreed frame: an
    exact time >= 0 at a site that is exactly the int 1 or 2, never 2.0 or
    True, so a transcript file can hold every event."""

    time: Fraction
    site: int

    def __post_init__(self):
        object.__setattr__(self, "time", as_exact(self.time))
        # a Fraction's denominator is positive: its sign is its numerator's
        if self.time.numerator < 0:
            raise ValueError("event time must be >= 0")
        if type(self.site) is not int or self.site not in (1, 2):
            raise ValueError("site must be 1 or 2")


def check_round(k: int) -> int:
    """k, refused with ValueError unless it is an int >= 1: a float k would
    turn the exact-time formulas' results into floats."""
    if type(k) is not int or k < 1:
        raise ValueError(f"round index must be an int >= 1, got {k!r}")
    return k


def round_site(k: int) -> int:
    """Site hosting round k: odd rounds at site 1, even at site 2."""
    return 1 if check_round(k) % 2 == 1 else 2


def round_window(params: ProtocolParams, k: int) -> tuple[Fraction, Fraction, Fraction]:
    """Timing window of round k: (challenge_start, challenge_end,
    response_end) = ((k-1)T, (k-1)T + delta_t, (k-1)T + delta + 2*delta_t).

    The challenge transmission must lie within [challenge_start,
    challenge_end] and the response must complete by response_end, both
    bounds inclusive ("completed by" semantics).  Each window is computed
    once per params object, so a k that is not an int >= 1 is refused
    before the memo is read, where it would find an equal int's entry.
    """
    windows = params._windows
    window = windows.get(check_round(k))
    if window is None:
        start = (k - 1) * params.period
        window = windows[k] = (start, start + params.delta_t,
                               start + params.delta + 2 * params.delta_t)
    return window


def unveil_deadline(params: ProtocolParams, last_round: int) -> Fraction:
    """Latest moment an unveil for round R stays outside round R's future light cone.

    An unveil from site 3 - round_site(R) is causally safe iff its
    transmission completes strictly before (R-1)*T + (delta_x - 2*delta),
    the earliest instant round-R challenge information could reach that site.
    Memoised per params object like round_window, and checked before it.
    """
    deadlines = params._deadlines
    deadline = deadlines.get(check_round(last_round))
    if deadline is None:
        deadline = deadlines[last_round] = ((last_round - 1) * params.period
                                            + params.cross_delay)
    return deadline


def spacelike(e1: SpacetimeEvent, e2: SpacetimeEvent, params: ProtocolParams) -> bool:
    """True iff no signal can connect the events under worst-case placement.

    Cross-site pairs are spacelike when |t1 - t2| < delta_x - 2*delta.
    Same-site pairs are never reported spacelike: the labs' positions inside
    the delta-ball are unknown, so no separation can be guaranteed.
    """
    if e1.site == e2.site:
        return False
    return abs(e1.time - e2.time) < params.cross_delay
