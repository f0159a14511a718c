"""Phase-2 agreement on the masked sum, exact to the last bit.

Two interchangeable routes: flooding the effective inputs (every agent learns
the exact multiset and sums it) or randomized pairwise-mean gossip run on
exact rationals so that the conserved quantity never drifts. Either way the
final step strips the modulus and divides by the agent count exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from .masking import ProtocolParams
from .residues import SeededRng
from .topology import Topology, connected_components

__all__ = [
    "ConsensusAlgo",
    "ConsensusResult",
    "ConvergenceError",
    "InvariantError",
    "RoundingError",
    "finalize",
    "flood_sum",
    "gossip_avg",
    "run_protocol",
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
    1/(2n^2); the default leaves orders of magnitude of margin.
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
    spread_trace: tuple[Fraction, ...] = field(default=())


def _require_connected(t: Topology, what: str) -> None:
    comps = connected_components(t)
    if len(comps) > 1:
        pretty = " ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in comps)
        raise ValueError(f"{what} needs a connected graph; components: {pretty}")


def _check_values(t: Topology, values: Mapping[int, Number]) -> None:
    if set(values) != set(t.vertices):
        raise ValueError("values must be keyed by every vertex exactly once")


def flood_sum(t: Topology, values: Mapping[int, int]) -> ConsensusResult:
    """Flood (origin, value) pairs until everyone holds the whole multiset.

    Each agent forwards each origin at most once, so the message count is
    bounded and deterministic. Per-agent result is the plain integer sum,
    deliberately not reduced by the modulus.
    """
    _check_values(t, values)
    _require_connected(t, "flooding")
    known: dict[int, dict[int, int]] = {i: {i: int(values[i])} for i in t.vertices}
    wave = [
        (i, nbr, i, int(values[i])) for i in t.vertices for nbr in sorted(t.neighbors(i))
    ]
    messages = len(wave)
    rounds = 0
    while wave:
        rounds += 1
        next_wave = []
        for sender, receiver, origin, value in wave:
            if origin in known[receiver]:
                continue
            known[receiver][origin] = value
            for nbr in sorted(t.neighbors(receiver)):
                if nbr != sender:
                    next_wave.append((receiver, nbr, origin, value))
        messages += len(next_wave)
        wave = next_wave
    if any(len(known[i]) != t.n for i in t.vertices):
        raise InvariantError("flooding ended before every agent heard every origin")
    total = sum(values[i] for i in t.vertices)
    return ConsensusResult(
        per_agent={i: Fraction(total) for i in t.vertices}, rounds=rounds, messages=messages
    )


def gossip_avg(
    t: Topology,
    values: Mapping[int, Number],
    algo: ConsensusAlgo,
    rng: SeededRng,
    on_exchange: Optional[Callable[[int, int, Fraction], None]] = None,
) -> ConsensusResult:
    """Randomized pairwise-mean gossip on exact rationals.

    One uniformly random edge activates per round and its endpoints move to
    their mean. Values are held as integer numerators over one shared
    denominator, at first the lcm of the input denominators; the denominator
    and every numerator double only when a pair sum is odd, so a round is
    integer arithmetic and the global sum is checked unchanged after every one.
    `Fraction`s are built only for what callers see (the spread trace, the
    mean handed to `on_exchange`, the results), and they equal those of
    pairwise `Fraction` means drawn with the same edge picks. Stops once
    max - min is within twice the tolerance; exceeding the round budget
    raises with the partial state attached.
    """
    _check_values(t, values)
    _require_connected(t, "gossip")
    start = {i: Fraction(values[i]) for i in t.vertices}
    den = math.lcm(*(v.denominator for v in start.values()))
    nums = {i: v.numerator * (den // v.denominator) for i, v in start.items()}
    total = sum(nums.values())
    budget = algo.rounds_budget(t)
    goal = 2 * algo.gossip_tolerance
    edges = t.edges
    trace = []
    rounds = 0
    spread = max(nums.values()) - min(nums.values())
    while spread * goal.denominator > goal.numerator * den:  # spread / den > goal
        if rounds >= budget:
            raise ConvergenceError(
                f"gossip spread still {float(Fraction(spread, den)):.3g} after {rounds} rounds",
                values={i: Fraction(v, den) for i, v in nums.items()},
                rounds=rounds,
            )
        i, j = edges[rng.randint_below(len(edges))]
        pair = nums[i] + nums[j]
        if pair & 1:
            for k in nums:
                nums[k] <<= 1
            pair <<= 1
            total <<= 1
            den <<= 1
        nums[i] = nums[j] = pair >> 1
        if sum(nums.values()) != total:
            raise InvariantError(f"gossip lost the sum in round {rounds + 1}")
        if on_exchange is not None:
            on_exchange(i, j, Fraction(pair >> 1, den))
        rounds += 1
        spread = max(nums.values()) - min(nums.values())
        trace.append(Fraction(spread, den))
    return ConsensusResult(
        per_agent={i: Fraction(v, den) for i, v in nums.items()},
        rounds=rounds,
        messages=2 * rounds,
        spread_trace=tuple(trace),
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


def run_protocol(
    t: Topology,
    inputs,
    params: ProtocolParams,
    algo: Optional[ConsensusAlgo] = None,
    seed: int = 0,
    **simulate_kwargs,
):
    """Both phases end to end under the event simulator; returns its RunReport."""
    from . import simnet  # simnet composes this module's primitives

    return simnet.simulate(
        t,
        inputs,
        params,
        algo=algo or ConsensusAlgo(),
        seed=seed,
        **simulate_kwargs,
    )
