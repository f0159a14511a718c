"""Deterministic discrete-event network simulator with a passive eavesdropper.

Integer ticks, seeded delays, and a seeded choice among same-tick deliveries
make every run exactly reproducible from (scenario, seed). Each send's delay
is `1 + randint_below(max_delay)` on the schedule stream, the words of
`randrange(1, max_delay)`; pending deliveries wait in one list per tick, and
the earliest tick's list is drained in place, one seeded pick at a time.
Protocol randomness and schedule randomness live on separate streams of the
master seed (stream 0 drives the schedule, streams 1..n the per-agent shares,
stream n+1 the gossip edge picks), so reshuffling deliveries can never change
what anyone draws. Completion notices and, under flooding, effective inputs
travel by one flood: an agent keeps the first copy from each origin and passes
it to every neighbour but the sender. A colluding set of agents can be declared;
it is recorded, never consulted: the trajectory with and without the recorder
is identical.
"""
from __future__ import annotations

import hashlib
from heapq import heappop, heappush
from itertools import chain, count, islice
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .consensus import (
    ConsensusAlgo,
    InvariantError,
    _SpreadTrace,
    finalize,
    gossip_avg,
    number_text,
    parse_number,
    short_text,
    spread_texts,
)
from .masking import (
    AdversarySpec,
    MaskShareMsg,
    ProtocolParams,
    build_states,
    edge_differences,
    init_shares,
    receive_share,
)
from .residues import SeededRng
from .topology import Topology, _require_connected, _require_vertices

__all__ = [
    "AdversarySpec",
    "AdversaryView",
    "RunReport",
    "SimEvent",
    "delivery_schedule",
    "simulate",
]


class SimEvent(NamedTuple):
    """One pending delivery, as one flat record.

    `time` is the delivery tick and `seq` the send order; (time, seq) is
    unique and orders deliveries, and the benchmark tracer reads `.time` off
    every queued event. `kind` is "share", "done" or "value". A share carries
    its `MaskShareMsg` as `payload` (origin = sender); a completion notice
    names the agent that finished in `origin` (payload None); a flooded
    value names its origin agent and carries the effective input as `payload`.
    """

    time: int
    seq: int
    kind: str
    sender: int
    receiver: int
    origin: int
    payload: Union[MaskShareMsg, int, None]


@dataclass
class AdversaryView:
    """Everything the coalition ends up knowing: own inputs, every effective
    input, the share differences on its incident edges, and its message tape."""

    adversary_inputs: dict[int, int]
    all_effective_inputs: dict[int, int]
    incident_differences: dict[tuple[int, int], int]
    transcript: tuple[str, ...]


@dataclass
class RunReport:
    """Full account of one simulated run; serializes to stable line-oriented text."""

    seed: int
    schedule_seed: Optional[int]
    config_hash: str
    n: int
    algo_variant: str
    averages: dict[int, Fraction]
    phase1_messages: int
    phase2_messages: int
    ticks: int
    adversary: Optional[tuple[int, ...]] = None
    view: Optional[AdversaryView] = None
    events: tuple[str, ...] = ()
    gossip_spread: Sequence[Fraction] = ()

    @property
    def average(self) -> Fraction:
        values = set(self.averages.values())
        if len(values) != 1:
            raise InvariantError(f"agents disagree on the average: {sorted(values)}")
        return next(iter(values))

    def lines(self) -> Iterator[str]:
        """The lines of `runreport v1`, without their newlines; the format's one writer."""
        num = number_text
        yield "runreport v1"
        yield f"seed {num(self.seed)}"
        yield f"schedule_seed {'-' if self.schedule_seed is None else num(self.schedule_seed)}"
        yield f"config {self.config_hash}"
        yield f"agents {num(self.n)}"
        yield f"algo {self.algo_variant}"
        yield f"ticks {num(self.ticks)}"
        yield f"phase1_messages {num(self.phase1_messages)}"
        yield f"phase2_messages {num(self.phase2_messages)}"
        yield f"average {num(self.average)}"
        for i in sorted(self.averages):
            yield f"agent_average {num(i)} {num(self.averages[i])}"
        if self.adversary is not None:
            yield "adversary " + " ".join(map(num, self.adversary))
        if self.view is not None:
            v = self.view
            for i in sorted(v.adversary_inputs):
                yield f"view_input {num(i)} {num(v.adversary_inputs[i])}"
            for i in sorted(v.all_effective_inputs):
                yield f"view_effective {num(i)} {num(v.all_effective_inputs[i])}"
            for (a, b) in sorted(v.incident_differences):
                yield f"view_diff {num(a)} {num(b)} {num(v.incident_differences[(a, b)])}"
            yield from map("transcript ".__add__, v.transcript)
        for r, s in enumerate(spread_texts(self.gossip_spread), start=1):
            yield f"spread {r} {s}"
        yield from map("event ".__add__, self.events)
        yield "end"

    def to_text(self) -> str:
        return "\n".join(chain(self.lines(), ("",)))  # the empty last item ends the text in "\n"

    @classmethod
    def from_text(cls, text: str) -> "RunReport":
        """Read back what `lines` writes, and nothing else.

        Every number must have the form `lines` gives it, checked before it
        is converted. A malformed line, or the first line that the parsed
        report would not write back the same, raises ValueError naming it.
        """
        if not text.startswith("runreport v1\n") or not text.endswith("\nend\n"):
            raise ValueError("not a v1 run report")

        def whole(token: str) -> int:
            value = parse_number(token)
            if not isinstance(value, int):
                raise ValueError(f"expected an integer, got {reprlib.repr(token)}")
            return value

        def fields(rest: str, size: int) -> list[str]:
            parts = rest.split(" ")
            if len(parts) != size:
                raise ValueError(f"expected {size} fields, got {len(parts)}")
            return parts

        def number(token: str) -> Fraction:
            return Fraction(parse_number(token))

        once = {
            "seed": whole,
            "schedule_seed": lambda rest: None if rest == "-" else whole(rest),
            "config": str,
            "agents": whole,
            "algo": str,
            "ticks": whole,
            "phase1_messages": whole,
            "phase2_messages": whole,
            "average": number,
            "adversary": lambda rest: tuple(map(whole, rest.split(" "))) if rest else (),
        }
        head: dict = {}
        where: dict[str, int] = {}
        averages: dict[int, Fraction] = {}
        view_inputs: dict[int, int] = {}
        view_eff: dict[int, int] = {}
        view_diff: dict[tuple[int, int], int] = {}
        # tag: (the dict its lines fill, the number of key fields, the value's reader)
        keyed = {
            "agent_average": (averages, 1, number),
            "view_input": (view_inputs, 1, whole),
            "view_effective": (view_eff, 1, whole),
            "view_diff": (view_diff, 2, whole),
        }
        listed: dict[str, list[str]] = {"transcript": [], "event": []}
        # the spread lines as runs of equal text, one (value, first round) each
        spreads: list[int] = []
        dens: list[int] = []
        starts: list[int] = []
        rounds = 0
        spread_text = None
        lines = text.split("\n")[:-1]  # no empty string after the last newline
        for lineno, line in enumerate(islice(lines, 1, len(lines) - 1), start=2):
            tag, _, rest = line.partition(" ")
            try:
                if tag in listed:
                    listed[tag].append(rest)
                elif tag == "spread":
                    r, val = fields(rest, 2)
                    if r != str(rounds + 1):
                        raise ValueError(f"expected spread round {rounds + 1}")
                    if val != spread_text:  # a repeated value is parsed once
                        value, spread_text = parse_number(val), val
                        spreads.append(value.numerator)
                        dens.append(value.denominator)
                        starts.append(rounds)
                    rounds += 1
                elif tag in keyed:
                    into, width, read = keyed[tag]
                    *key, val = fields(rest, width + 1)
                    into[whole(key[0]) if width == 1 else tuple(map(whole, key))] = read(val)
                elif tag in once:
                    head[tag] = once[tag](rest)
                    where[tag] = lineno
                else:
                    raise ValueError(f"unknown report line {reprlib.repr(line)}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        try:
            n, average = head["agents"], head["average"]
            report = cls(
                seed=head["seed"],
                schedule_seed=head["schedule_seed"],
                config_hash=head["config"],
                n=n,
                algo_variant=head["algo"],
                averages=averages,
                phase1_messages=head["phase1_messages"],
                phase2_messages=head["phase2_messages"],
                ticks=head["ticks"],
                adversary=head.get("adversary"),
                view=AdversaryView(view_inputs, view_eff, view_diff, tuple(listed["transcript"]))
                if view_inputs or view_eff or view_diff or listed["transcript"] else None,
                events=tuple(listed["event"]),
                gossip_spread=_SpreadTrace(spreads, dens, starts, rounds) if rounds else (),
            )
        except KeyError as exc:
            raise ValueError(f"run report has no {exc.args[0]} line") from None
        if n != len(averages) or list(averages) != list(range(1, n + 1)):
            raise ValueError(
                f"line {where['agents']}: expected agents {len(averages)}, one per "
                "agent_average line, numbered from 1"
            )
        if set(averages.values()) != {average}:
            raise ValueError(f"line {where['average']}: not every agent's average")
        # both sides end in their one "end" line, so equal pairs mean equal lengths
        for lineno, got, want in zip(count(1), lines, report.lines()):
            if got != want:
                raise ValueError(
                    f"line {lineno}: {reprlib.repr(got)} is written {reprlib.repr(want)}"
                )
        return report


def delivery_schedule(rng: SeededRng, due: list[SimEvent]) -> SimEvent:
    """Remove and return the next delivery, uniformly random among `due`.

    `due` holds the events of the earliest pending tick in seq order; the
    simulator keeps one such list per tick. Candidates and draws are those of
    a scheduler that pops every earliest-tick event off one heap of all
    pending events in (time, seq) order, which the tests keep as the
    reference. A lone candidate consumes no randomness.
    """
    if not due:
        raise ValueError("no pending events")
    return due.pop(rng.randint_below(len(due)))


def _scenario_hash(
    t: Topology,
    inputs: Sequence[int],
    params: ProtocolParams,
    algo: ConsensusAlgo,
    adversary: Optional[AdversarySpec],
    max_delay: int,
    share_override: Optional[Mapping[tuple[int, int], int]],
) -> str:
    parts = [
        f"n={t.n}",
        "edges=" + ";".join(f"{i},{j}" for i, j in t.edges),
        "inputs=" + ",".join(map(str, inputs)),
        f"q={params.q}",
        f"p={params.p.value}",
        f"algo={algo.variant}",
        f"tol={number_text(algo.gossip_tolerance)}",
        f"max_rounds={algo.max_rounds}",
        f"adversary={sorted(adversary.members) if adversary else None}",
        f"max_delay={max_delay}",
        "override=" + (
            ";".join(f"{k[0]},{k[1]}={v}" for k, v in sorted(share_override.items()))
            if share_override else "-"
        ),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:12]


def simulate(
    t: Topology,
    inputs: Sequence[int],
    params: ProtocolParams,
    algo: Optional[ConsensusAlgo] = None,
    adversary: Optional[AdversarySpec] = None,
    seed: int = 0,
    max_delay: int = 4,
    schedule_seed: Optional[int] = None,
    share_override: Optional[Mapping[tuple[int, int], int]] = None,
) -> RunReport:
    """Run both phases under a randomized delivery schedule.

    Parameters
    ----------
    t, inputs, params : the scenario; `t` must be connected.
    algo : consensus route for phase 2 (flooding by default); a gossip
        tolerance must stay below 1/(2n^2).
    adversary : optional coalition whose view gets recorded, never consulted.
    seed : master seed; fixes shares, schedule, and gossip at once.
    max_delay : delivery delay is drawn uniformly from [1, max_delay].
    schedule_seed : replaces only the schedule stream, leaving shares and
        gossip pinned to `seed`; the knob behind order-independence tests.
    share_override : pins chosen shares by (sender, receiver) pair, for
        replaying worked instances exactly.
    """
    algo = algo or ConsensusAlgo()
    _require_connected(t, "simulation")
    bound = Fraction(1, 2 * t.n * t.n)
    if algo.variant == "gossip_avg" and algo.gossip_tolerance >= bound:
        tol = short_text(number_text(algo.gossip_tolerance))
        raise ValueError(f"gossip tolerance {tol} must be below 1/(2n^2) = {bound} for n = {t.n}")
    if max_delay < 1:
        raise ValueError(f"max_delay must be at least 1, got {max_delay}")
    if max_delay >= 2**64:
        raise ValueError(f"max_delay must be below 2**64, got {max_delay}")
    members: frozenset[int] = adversary.members if adversary is not None else frozenset()
    _require_vertices(t, members, "adversary member")

    states = build_states(t, inputs, params)
    share_rngs = {i: SeededRng(seed, i) for i in t.vertices}
    sched = SeededRng(seed if schedule_seed is None else schedule_seed, 0)
    nbrs = {i: sorted(t.neighbors(i)) for i in t.vertices}

    # per-tick delivery lists in seq order, plus a heap of their ticks; delays
    # are at least one tick, so nothing joins the tick being drained
    due_at: dict[int, list[SimEvent]] = {}
    due_ticks: list[int] = []
    seq = 0
    draw = sched.randint_below
    record = tuple.__new__  # SimEvent(...) without NamedTuple's Python-level __new__
    events: list[str] = []
    transcript: list[str] = []
    # per kind and agent, the first payload heard from each origin
    heard = {kind: {i: {} for i in t.vertices} for kind in ("done", "value")}
    done_heard, value_heard = heard["done"], heard["value"]

    def flood(
        kind: str, agent: int, origin: int, payload: Optional[int],
        came_from: Optional[int], now: int,
    ) -> bool:
        """Keep the first copy from `origin`, which `agent` has not heard yet,
        and send it to every neighbour but `came_from`; True once all n are heard."""
        nonlocal seq
        box = heard[kind][agent]
        box[origin] = payload
        for nbr in nbrs[agent]:
            if nbr != came_from:
                at = now + 1 + draw(max_delay)  # the words of randrange(1, max_delay)
                due = due_at.get(at)
                if due is None:
                    due = due_at[at] = []
                    heappush(due_ticks, at)
                due.append(record(SimEvent, (at, seq, kind, agent, nbr, origin, payload)))
                seq += 1
        return len(box) == t.n

    def all_done(agent: int, now: int) -> None:
        """`agent` heard every completion notice; under flooding it sends its value."""
        if algo.variant == "flood_sum":
            effective = states[agent].effective_input
            if effective is None:
                raise InvariantError(f"agent {agent} finished phase 1 without an effective input")
            flood("value", agent, agent, int(effective), None, now)

    for i in sorted(t.vertices):
        for msg in init_shares(states[i], share_rngs[i], share_override):
            at = 1 + draw(max_delay)
            due = due_at.get(at)
            if due is None:
                due = due_at[at] = []
                heappush(due_ticks, at)
            due.append(SimEvent(at, seq, "share", msg.sender, msg.receiver, msg.sender, msg))
            seq += 1
    for i in sorted(t.vertices):
        # isolated in a 1-vertex graph: done at once
        if states[i].mask is not None and flood("done", i, i, None, None, 0):
            all_done(i, 0)

    ticks = values = 0
    while due_ticks:
        ticks = heappop(due_ticks)
        due = due_at.pop(ticks)
        while due:
            at, order, kind, sender, receiver, origin, payload = delivery_schedule(sched, due)
            if kind == "done":
                line = f"{at} {order} done {sender} {receiver} {origin}"
                if origin not in done_heard[receiver] and flood(
                    "done", receiver, origin, None, sender, at
                ):
                    all_done(receiver, at)
            elif kind == "value":
                values += 1
                line = f"{at} {order} value {sender} {receiver} {origin}:{payload}"
                if origin not in value_heard[receiver]:
                    flood("value", receiver, origin, payload, sender, at)
            else:
                line = f"{at} {order} share {sender} {receiver} {payload.share.value}"
                finished = receive_share(states[receiver], payload) is not None
                if finished and flood("done", receiver, receiver, None, None, at):
                    all_done(receiver, at)
            events.append(line)
            if receiver in members:
                transcript.append(line)

    # an agent sends its own notice only once its mask is set, so hearing
    # every notice means every mask is set
    if any(len(box) != t.n for box in done_heard.values()):
        raise InvariantError("schedule deadlock: phase 1 unfinished on a connected graph")

    spread_trace: Sequence[Fraction] = ()
    if algo.variant == "flood_sum":
        if any(len(box) != t.n for box in value_heard.values()):
            raise InvariantError("flooding ended before every agent heard every origin")
        per_agent = {i: Fraction(sum(box.values())) for i, box in value_heard.items()}
        rounds_messages = values
    else:
        grng = SeededRng(seed, t.n + 1)
        scaled = {i: t.n * int(states[i].effective_input) for i in t.vertices}
        exchange_log: list[str] = []

        def record_exchange(i: int, j: int, mean: Fraction) -> None:
            if i in members or j in members:
                exchange_log.append(f"{ticks} {len(exchange_log)} gossip {i} {j} {number_text(mean)}")

        res = gossip_avg(t, scaled, algo, grng, on_exchange=record_exchange if members else None)
        per_agent = res.per_agent
        spread_trace = res.spread_trace
        rounds_messages = res.messages
        transcript.extend(exchange_log)

    averages = {i: finalize(v, params) for i, v in per_agent.items()}
    if len(set(averages.values())) != 1:
        raise InvariantError(f"agents disagree on the average: {sorted(set(averages.values()))}")

    view = None
    if adversary is not None:
        diffs = {
            d.edge: int(d.value)
            for d in edge_differences(states)
            if d.edge[0] in members or d.edge[1] in members
        }
        view = AdversaryView(
            adversary_inputs={i: int(inputs[i - 1]) for i in sorted(members)},
            all_effective_inputs={i: int(states[i].effective_input) for i in t.vertices},
            incident_differences=diffs,
            transcript=tuple(transcript),
        )

    return RunReport(
        seed=seed,
        schedule_seed=schedule_seed,
        config_hash=_scenario_hash(t, inputs, params, algo, adversary, max_delay, share_override),
        n=t.n,
        algo_variant=algo.variant,
        averages=averages,
        phase1_messages=seq - values,
        phase2_messages=rounds_messages,
        ticks=ticks,
        adversary=tuple(sorted(members)) if adversary is not None else None,
        view=view,
        events=tuple(events),
        gossip_spread=spread_trace,
    )
