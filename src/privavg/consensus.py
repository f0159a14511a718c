"""Phase-2 agreement on the masked sum, exact to the last bit.

Two interchangeable routes: flooding the effective inputs (every agent learns
the exact multiset and sums it; the event simulator in `simnet` runs it) or
randomized pairwise-mean gossip on whole numbers, run exactly so that the
conserved quantity never drifts. Either way the final step strips the modulus
and divides by the agent count exactly. Gossip keeps its numerators, and the
spread trace it returns, as integers over one shared power-of-two denominator,
the trace as runs of rounds with equal spread; `Fraction`s are built only when
a caller reads them.
"""
from __future__ import annotations

import re
import reprlib
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Mapping, Optional, Union

from .masking import ProtocolParams
from .residues import SeededRng
from .topology import Topology, _require_connected

__all__ = [
    "ConsensusAlgo",
    "ConsensusResult",
    "ConvergenceError",
    "InvariantError",
    "RoundingError",
    "finalize",
    "gossip_avg",
]

Number = Union[int, Fraction]


class ConvergenceError(ArithmeticError):
    """Gossip ran out of rounds; carries the partial values for post-mortems."""

    def __init__(self, message: str, values: dict[int, Fraction], rounds: int):
        super().__init__(message)
        self.values = values
        self.rounds = rounds


class RoundingError(ArithmeticError):
    """A consensus estimate too far from any integer to trust."""


class InvariantError(ArithmeticError):
    """An exactness invariant of a run failed: a lost sum, a missing flood
    value, agents disagreeing. Raised instead of `assert`, which `python -O`
    strips."""


@dataclass(frozen=True)
class ConsensusAlgo:
    """Route selection plus gossip knobs.

    max_rounds of None means 50 * n^2 * |E|, fixed when a run starts. For the
    final rounding step to be safe the gossip tolerance must stay below
    1/(2n^2), which `simulate` checks once n is known; the default leaves
    orders of magnitude of margin.
    """

    variant: str = "flood_sum"
    gossip_tolerance: Fraction = Fraction(1, 10**9)
    max_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.variant not in ("flood_sum", "gossip_avg"):
            raise ValueError(f"unknown consensus variant {self.variant!r}")
        tol = Fraction(self.gossip_tolerance)
        if tol <= 0:
            raise ValueError(f"gossip tolerance must be positive, got {tol}")
        object.__setattr__(self, "gossip_tolerance", tol)
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError(f"max_rounds must be positive, got {self.max_rounds}")

    def rounds_budget(self, t: Topology) -> int:
        return self.max_rounds if self.max_rounds is not None else 50 * t.n * t.n * len(t.edges)


@dataclass
class ConsensusResult:
    """Per-agent consensus values with effort accounting."""

    per_agent: dict[int, Fraction]
    rounds: int
    messages: int
    spread_trace: Sequence[Fraction] = field(default=())


class _SpreadTrace(Sequence):
    """Gossip's spread after each round, read-only, as runs of equal value.

    Run j holds the integer spread `spreads[j]` over the denominator
    `dens[j]`: in a gossip run the power of two in force in the run's first
    round, `starts[j]`; in a report read back, the spread's lowest terms. A
    run lasts until the next run starts or the trace's `rounds` end. Items are built as
    `Fraction`s on access, so the trace compares equal to a tuple or list of
    one `Fraction` per round; `spread_texts`, `floats` and `float_texts`
    convert each run once and repeat the result for each of its rounds.
    """

    __slots__ = ("_spreads", "_dens", "_starts", "_rounds")

    def __init__(self, spreads: list[int], dens: list[int], starts: list[int], rounds: int):
        self._spreads = spreads
        self._dens = dens
        self._starts = starts
        self._rounds = rounds

    def __len__(self) -> int:
        return self._rounds

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(self._rounds)[k]))
        r = range(self._rounds)[k]  # negative indices and IndexError as a tuple has them
        j = bisect_right(self._starts, r) - 1
        return Fraction(self._spreads[j], self._dens[j])

    def __iter__(self) -> Iterator[Fraction]:
        return self._per_round(Fraction)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (tuple, list, _SpreadTrace)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"_SpreadTrace({tuple(self)!r})"

    def _per_round(self, convert: Callable[[int, int], object]) -> Iterator:
        """`convert(spread, den)` once per run, yielded once per round of it."""
        ends = self._starts[1:] + [self._rounds]
        runs = zip(self._spreads, self._dens, self._starts, ends)
        return chain.from_iterable(repeat(convert(s, d), e - b) for s, d, b, e in runs)

    def floats(self) -> Iterator[float]:
        """`float(Fraction(s, d))` for every round: int true division rounds
        correctly, so `s / d` is the same float."""
        return self._per_round(int.__truediv__)

    def float_texts(self) -> Iterator[str]:
        """`repr` of `floats()`, each run's formatted once."""
        return self._per_round(lambda s, d: repr(s / d))


def _spread_text(s: int, d: int) -> str:
    """`str(Fraction(s, d))` for `s` and `d` with no common factor but 2, as a
    spread over a power-of-two denominator or a `Fraction`'s own terms have:
    stripping the common trailing zero bits reduces it."""
    if not s:
        return "0"
    k = min((s & -s).bit_length(), (d & -d).bit_length()) - 1
    return number_text(s >> k, d >> k)


def spread_texts(spread: Sequence[Fraction]) -> Iterator[str]:
    """`str` of every round of a spread trace: a gossip run's `_SpreadTrace`
    formatted once per run, a plain sequence of `Fraction`s once per item."""
    if isinstance(spread, _SpreadTrace):
        return spread._per_round(_spread_text)
    return (_spread_text(x.numerator, x.denominator) for x in spread)


def _ratio_text(num: int, den: int) -> str:
    """`num / den` to three significant digits; past the float range, where
    the float of a nonzero ratio underflows to 0, the digits come from `Decimal`."""
    text = f"{num / den:.3g}"
    return f"{Decimal(num) / Decimal(den):.3g}" if text == "0" and num else text


def number_text(num: Number, den: int = 1) -> str:
    """`str` of an int or `Fraction`, or of `Fraction(num, den)` for ints in
    lowest terms, at any size.

    `str` of an int refuses more than `sys.get_int_max_str_digits()` digits
    (4,300 by default); past that the digits come from `Decimal`, which is
    exact and has no cap. Below it `str` stays the path.
    """
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        if den == 1:
            num, den = num.numerator, num.denominator
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def parse_number(text: str) -> Number:
    """The int or `Fraction` that `number_text` wrote as `text`, at any size.

    Anything but that exact form (`+3`, `1_0`, `1e9`, `-0`, `2/1`, `1/0`, a
    non-ASCII digit) raises ValueError before a digit is converted.
    """
    m = re.fullmatch(r"(0|-?[1-9][0-9]*)(?:/([1-9][0-9]*))?", text)
    if m is None or m[2] == "1":
        raise ValueError(f"expected a number as a report writes it, got {reprlib.repr(text)}")
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:  # past the int-string digit limit; Decimal has none
        num, den = int(Decimal(m[1])), int(Decimal(m[2] or 1))
    return num if m[2] is None else Fraction(num, den)


def _check_values(t: Topology, values: Mapping[int, Number]) -> None:
    if set(values) != set(t.vertices):
        raise ValueError("values must be keyed by every vertex exactly once")


def gossip_avg(
    t: Topology,
    values: Mapping[int, Number],
    algo: ConsensusAlgo,
    rng: SeededRng,
    on_exchange: Optional[Callable[[int, int, Fraction], None]] = None,
) -> ConsensusResult:
    """Randomized pairwise-mean gossip on whole numbers, exact to the last bit.

    A value that is not a whole number (`Fraction(7, 3)`, 2.5) raises
    ValueError naming its agent, before the first draw. One uniformly random
    edge activates per round and its endpoints move to their mean. Values are
    held as integer numerators, in a list by vertex position, over one shared
    denominator, at first 1; it and every numerator double only when a pair
    sum is odd, so it is a power of two, a round is integer arithmetic and
    the global sum is checked unchanged after every one. The spread trace
    stays integer too, as runs of equal value (see `_SpreadTrace`): a round
    starts a run only if its spread over den differs from the last run's,
    compared with that spread shifted left by every doubling since, and only
    a round that moved the max or the min can; `Fraction`s are built only for
    the mean handed to `on_exchange` and for the results, and they equal
    those of pairwise `Fraction` means drawn with the same edge picks. Stops
    once max - min is within twice the tolerance; exceeding the round budget
    raises with the partial state attached.
    """
    _check_values(t, values)
    _require_connected(t, "gossip")
    vertices = t.vertices
    nums = [int(values[i]) for i in vertices]
    for i, v in zip(vertices, nums):
        if v != values[i]:
            raise ValueError(f"gossip takes whole numbers; agent {i} holds {values[i]}")
    den = 1
    total = sum(nums)
    budget = algo.rounds_budget(t)
    goal = 2 * algo.gossip_tolerance
    goal_den = goal.denominator
    limit = goal.numerator  # times den, doubling with it, so the stop test stays integer
    edges = t.edges
    at = {v: k for k, v in enumerate(vertices)}
    pairs = [(at[i], at[j]) for i, j in edges]
    draw = rng.randint_below
    m = len(edges)
    spreads: list[int] = []
    dens: list[int] = []
    starts: list[int] = []
    last = -1  # the last run's spread over den, doubling with it; -1 before the first run
    rounds = 0
    hi, lo = max(nums), min(nums)
    spread = hi - lo
    while spread * goal_den > limit:  # spread / den > goal
        if rounds >= budget:
            raise ConvergenceError(
                f"gossip spread still {_ratio_text(spread, den)} after {rounds} rounds",
                values={i: Fraction(v, den) for i, v in zip(vertices, nums)},
                rounds=rounds,
            )
        k = draw(m)
        a, b = pairs[k]
        x, y = nums[a], nums[b]
        pair = x + y
        # the mean lies between x and y, so only an extreme they held can move
        moved_hi = x == hi or y == hi
        moved_lo = x == lo or y == lo
        if pair & 1:
            nums = [v << 1 for v in nums]
            pair <<= 1
            total <<= 1
            den <<= 1
            limit <<= 1
            hi <<= 1
            lo <<= 1
            last <<= 1
        nums[a] = nums[b] = pair >> 1
        if sum(nums) != total:
            raise InvariantError(f"gossip lost the sum in round {rounds + 1}")
        if on_exchange is not None:
            i, j = edges[k]
            on_exchange(i, j, Fraction(pair >> 1, den))
        if moved_hi:
            hi = max(nums)
        if moved_lo:
            lo = min(nums)
        spread = hi - lo
        if spread != last:  # a new value; a round that moved neither extreme keeps it
            spreads.append(spread)
            dens.append(den)
            starts.append(rounds)
            last = spread
        rounds += 1
    return ConsensusResult(
        per_agent={i: Fraction(v, den) for i, v in zip(vertices, nums)},
        rounds=rounds,
        messages=2 * rounds,
        spread_trace=_SpreadTrace(spreads, dens, starts, rounds),
    )


def finalize(value: Number, params: ProtocolParams) -> Fraction:
    """Round a consensus estimate to its integer, strip the modulus, divide by n.

    The estimate must sit strictly within 1/4 of an integer; anything looser
    means the consensus phase was not run tightly enough to trust, so this
    refuses rather than guesses.
    """
    v = Fraction(value)
    nearest = (v + Fraction(1, 2)).__floor__()
    if abs(v - nearest) >= Fraction(1, 4):
        raise RoundingError(
            f"estimate {float(v):.6f} is {float(abs(v - nearest)):.3f} from the nearest "
            "integer; refusing to round"
        )
    return Fraction(nearest % params.p.value, params.n)

