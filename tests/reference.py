"""Slow reference implementations that faster code replaced, kept as test oracles.

`reference_delivery_schedule` is the pop-all-ties heap scheduler,
`reference_gossip_avg` the pairwise-mean gossip loop on `Fraction`s, and
`reference_simulate` the event loop that drives both over one heap of every
pending event, queued as the frozen `SimEvent` with a `PhaseDoneMsg` or
`ValueMsg` it carried before events became flat records.
`reference_randint_below` reads one raw word per try, as `SeededRng` did
before it buffered words. `reference_share_values` and
`reference_sample_view_keys` draw one share per `randint_below` call, as
`init_shares` and the sampled audit did before they drew in bulk.
`reference_enumerate_views` walks the edge-difference vectors as the digit
rows of an arange (`reference_b_chunks`), builds each chunk's view rows by an
incidence-matrix product (`reference_view_rows`), counts them with
`np.unique(axis=0)` and merges them one row at a time, as enumeration did
before it counted views one edge at a time, and
`reference_marginal_bins` bins sampled view keys one key at a time, as the
audits did before they worked on mixed-radix codes and columns
(`reference_view_keys` reads the audit's view columns as those keys), and
`reference_two_sample_chi_square` builds its table from dicts one outcome
at a time, as the sampled audit did before it aligned two `Histogram`s'
code arrays; `reference_histogram_csv` formats `histogram.csv` from
decoded, re-sorted outcome tuples. The fast paths in
`privavg` must reproduce them byte for byte. `histogram_from_counts` turns a
{outcome: count} dict into the `Histogram` the audits build, its codes
folded from the outcome tuples in plain Python, so the reference shares no
encoder or counter with the code it checks.
"""
from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from privavg.audit import Histogram, _digits, _row_tuples, _space_size, chi2_contingency
from privavg.consensus import ConsensusAlgo, ConsensusResult, ConvergenceError, finalize
from privavg.masking import (
    MaskShareMsg,
    ProtocolParams,
    build_states,
    edge_differences,
    init_shares,
    receive_share,
)
from privavg.residues import SeededRng
from privavg.simnet import AdversarySpec, AdversaryView, RunReport, _scenario_hash
from privavg.topology import Topology, connected_components, incidence_matrix


@dataclass(frozen=True)
class PhaseDoneMsg:
    """Completion notice flooded through the graph, deduplicated by origin."""

    origin: int
    sender: int
    receiver: int


@dataclass(frozen=True)
class ValueMsg:
    """Phase-2 flooded (origin, effective value) pair."""

    origin: int
    value: int
    sender: int
    receiver: int


Payload = Union[MaskShareMsg, PhaseDoneMsg, ValueMsg]


@dataclass(frozen=True, order=True)
class SimEvent:
    """One pending delivery; the (time, seq) pair is the processing order key."""

    time: int
    seq: int
    kind: str = field(compare=False)
    msg: Payload = field(compare=False)


def reference_delivery_schedule(rng: SeededRng, pending: list[SimEvent]) -> SimEvent:
    """Pop every event of the earliest tick off the heap, draw one, push the rest back."""
    if not pending:
        raise ValueError("no pending events")
    lowest = pending[0].time
    candidates = []
    while pending and pending[0].time == lowest:
        candidates.append(heapq.heappop(pending))
    chosen = candidates.pop(rng.randint_below(len(candidates)))
    for ev in candidates:
        heapq.heappush(pending, ev)
    return chosen


def reference_gossip_avg(
    t: Topology,
    values: Mapping[int, object],
    algo: ConsensusAlgo,
    rng: SeededRng,
    on_exchange: Optional[Callable[[int, int, Fraction], None]] = None,
) -> ConsensusResult:
    """Pairwise-mean gossip with every value an exact `Fraction`."""
    vals = {i: Fraction(values[i]) for i in t.vertices}
    budget = algo.rounds_budget(t)
    goal = 2 * algo.gossip_tolerance
    trace = []
    rounds = 0
    while max(vals.values()) - min(vals.values()) > goal:
        if rounds >= budget:
            raise ConvergenceError(
                f"gossip spread still {float(max(vals.values()) - min(vals.values())):.3g} "
                f"after {rounds} rounds",
                values=vals,
                rounds=rounds,
            )
        i, j = t.edges[rng.randint_below(len(t.edges))]
        before = vals[i] + vals[j]
        mean = before / 2
        vals[i] = vals[j] = mean
        assert vals[i] + vals[j] == before
        if on_exchange is not None:
            on_exchange(i, j, mean)
        rounds += 1
        trace.append(max(vals.values()) - min(vals.values()))
    assert sum(vals.values()) == sum(Fraction(values[i]) for i in t.vertices)
    return ConsensusResult(
        per_agent=vals, rounds=rounds, messages=2 * rounds, spread_trace=tuple(trace)
    )


def reference_simulate(
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
    """Both phases over one heap of all pending events, with the reference gossip."""
    algo = algo or ConsensusAlgo()
    assert len(connected_components(t)) == 1
    members: frozenset[int] = adversary.members if adversary is not None else frozenset()

    states = build_states(t, inputs, params)
    share_rngs = {i: SeededRng(seed, i) for i in t.vertices}
    sched = SeededRng(seed if schedule_seed is None else schedule_seed, 0)
    everyone = set(t.vertices)

    pending: list[SimEvent] = []
    seq = 0
    counts = {"share": 0, "done": 0, "value": 0}
    events: list[str] = []
    transcript: list[str] = []
    flood_values: dict[int, dict[int, int]] = {i: {} for i in t.vertices}
    completed_peers: dict[int, set[int]] = {i: set() for i in t.vertices}

    def send(now: int, kind: str, msg) -> None:
        nonlocal seq
        heapq.heappush(pending, SimEvent(now + sched.randrange(1, max_delay), seq, kind, msg))
        seq += 1
        counts[kind] += 1

    def start_phase2(i: int, now: int) -> None:
        if algo.variant != "flood_sum":
            return
        value = int(states[i].effective_input)
        flood_values[i][i] = value
        for nbr in sorted(t.neighbors(i)):
            send(now, "value", ValueMsg(origin=i, value=value, sender=i, receiver=nbr))

    def mark_done(agent: int, origin: int, came_from: Optional[int], now: int) -> None:
        st = states[agent]
        if origin in completed_peers[agent]:
            return
        completed_peers[agent].add(origin)
        for nbr in sorted(st.neighbors):
            if nbr != came_from:
                send(now, "done", PhaseDoneMsg(origin=origin, sender=agent, receiver=nbr))
        if completed_peers[agent] == everyone:
            start_phase2(agent, now)

    for i in sorted(t.vertices):
        for msg in init_shares(states[i], share_rngs[i], share_override):
            send(0, "share", msg)
    for i in sorted(t.vertices):
        if states[i].mask is not None:
            mark_done(i, i, None, 0)

    ticks = 0
    while pending:
        ev = reference_delivery_schedule(sched, pending)
        ticks = max(ticks, ev.time)
        msg = ev.msg
        if ev.kind == "share":
            assert isinstance(msg, MaskShareMsg)
            line = f"{ev.time} {ev.seq} share {msg.sender} {msg.receiver} {int(msg.share)}"
            if receive_share(states[msg.receiver], msg) is not None:
                mark_done(msg.receiver, msg.receiver, None, ev.time)
        elif ev.kind == "done":
            line = f"{ev.time} {ev.seq} done {msg.sender} {msg.receiver} {msg.origin}"
            mark_done(msg.receiver, msg.origin, msg.sender, ev.time)
        else:
            line = f"{ev.time} {ev.seq} value {msg.sender} {msg.receiver} {msg.origin}:{msg.value}"
            box = flood_values[msg.receiver]
            if msg.origin not in box:
                box[msg.origin] = msg.value
                for nbr in sorted(t.neighbors(msg.receiver)):
                    if nbr != msg.sender:
                        send(ev.time, "value", ValueMsg(msg.origin, msg.value, msg.receiver, nbr))
        events.append(line)
        if msg.receiver in members:
            transcript.append(line)

    assert all(
        states[i].mask is not None and completed_peers[i] == everyone for i in t.vertices
    )

    spread_trace: tuple[Fraction, ...] = ()
    if algo.variant == "flood_sum":
        assert all(len(flood_values[i]) == t.n for i in t.vertices)
        per_agent = {i: Fraction(sum(flood_values[i].values())) for i in t.vertices}
        rounds_messages = counts["value"]
    else:
        grng = SeededRng(seed, t.n + 1)
        scaled = {i: t.n * int(states[i].effective_input) for i in t.vertices}
        exchange_log: list[str] = []

        def record_exchange(i: int, j: int, mean: Fraction) -> None:
            if i in members or j in members:
                exchange_log.append(f"{ticks} {len(exchange_log)} gossip {i} {j} {mean}")

        res = reference_gossip_avg(t, scaled, algo, grng, on_exchange=record_exchange)
        per_agent = res.per_agent
        spread_trace = res.spread_trace
        rounds_messages = res.messages
        transcript.extend(exchange_log)

    averages = {i: finalize(v, params) for i, v in per_agent.items()}
    assert len(set(averages.values())) == 1

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
        phase1_messages=counts["share"] + counts["done"],
        phase2_messages=rounds_messages if algo.variant == "gossip_avg" else counts["value"],
        ticks=ticks,
        adversary=tuple(sorted(members)) if adversary is not None else None,
        view=view,
        events=tuple(events),
        gossip_spread=spread_trace,
    )


def reference_randint_below(bitgen: np.random.PCG64, n: int) -> int:
    """Masked rejection reading one `random_raw()` word per try, with no buffer."""
    mask = (1 << (n - 1).bit_length()) - 1
    if not mask:
        return 0
    while True:
        word = int(bitgen.random_raw()) & mask
        if word < n:
            return word


def reference_histogram_csv(hist: Histogram) -> str:
    """`histogram.csv` from the decoded outcome tuples, sorted, one lookup each."""
    rows = ["outcome,count"]
    for outcome in sorted(hist.counts):
        flat = " ".join(str(x) for x in outcome)
        rows.append(f"\"{flat}\",{hist.counts[outcome]}")
    return "\n".join(rows) + "\n"


def reference_share_values(
    agent: int,
    neighbors,
    p: int,
    rng: SeededRng,
    override: Optional[Mapping[tuple[int, int], int]] = None,
) -> list[tuple[int, int]]:
    """(neighbor, share) in ascending neighbor order, one draw per unpinned share."""
    out = []
    for j in sorted(neighbors):
        if override is not None and (agent, j) in override:
            out.append((j, override[(agent, j)]))
        else:
            out.append((j, rng.randint_below(p)))
    return out


def reference_sample_view_keys(
    t: Topology,
    p: int,
    s: tuple[int, ...],
    coalition_edge_idx: list[int],
    rngs: Mapping[int, SeededRng],
    samples: int,
) -> list[tuple[int, ...]]:
    """One view key per sample: all shares drawn one by one, then the effective
    inputs and the coalition's edge differences accumulated edge by edge."""
    order = [(i, j) for i in t.vertices for j in sorted(t.neighbors(i))]
    edges = t.edges
    keys = []
    for _ in range(samples):
        shares = {}
        for i, j in order:
            shares[(i, j)] = rngs[i].randint_below(p)
        b = [(shares[(j, i)] - shares[(i, j)]) % p for i, j in edges]
        eff = list(s)
        for k, (i, j) in enumerate(edges):
            eff[i - 1] = (eff[i - 1] + b[k]) % p
            eff[j - 1] = (eff[j - 1] - b[k]) % p
        keys.append(tuple(eff) + tuple(b[k] for k in coalition_edge_idx))
    return keys


def reference_view_rows(
    inc: np.ndarray, p: int, s: Sequence[int], cols: list[int], b: np.ndarray
) -> np.ndarray:
    """(s + b·Bᵀ) mod p by one matrix product, then the coalition's columns of b."""
    dtype = np.int64 if p * (inc.shape[1] + 1) < 2**63 else object
    b = b.astype(dtype, copy=False)
    eff = (np.array(s, dtype=dtype) + b @ inc.T.astype(dtype)) % p
    return np.concatenate([eff, b[:, cols]], axis=1) if cols else eff


def histogram_from_counts(counts: Mapping[tuple, int], p: int, width: int) -> Histogram:
    """The `Histogram` of an {outcome: count} dict of residues mod p: each
    outcome's digits folded base p, the first most significant, in Python
    ints, then sorted; outcomes counted 0 times are left out. `width` is the
    outcome length, which an empty dict cannot show."""
    coded = []
    for outcome, count in counts.items():
        code = 0
        for digit in outcome:
            code = code * p + digit
        if count:
            coded.append((code, count))
    coded.sort()
    codes = np.array([code for code, _ in coded], dtype=np.int64 if p**width < 2**63 else object)
    return Histogram(codes, np.array([count for _, count in coded], dtype=np.int64), p, width)


def reference_b_chunks(num_edges: int, p: int, total: int, chunk: int = 1 << 15) -> Iterator[np.ndarray]:
    """Every edge-difference vector, as the base-p digit rows of 0..total-1
    (edge k is digit k, least significant first), `chunk` rows at a time."""
    for start in range(0, total, chunk):
        yield _digits(np.arange(start, min(start + chunk, total), dtype=np.int64), p, num_edges)


def reference_enumerate_views(
    t: Topology, p: int, s: Sequence[int], cols: list[int], budget: int
) -> Histogram:
    """Histogram of view rows: the edge-difference vectors walked as digit rows
    of an arange (`reference_b_chunks`), each chunk's unique rows by a row
    sort, added to a dict one row at a time, which becomes a `Histogram` at
    the end; rows of Python ints skip the sort."""
    total = _space_size(t, p, budget)
    inc = incidence_matrix(t)
    counts: dict[tuple, int] = {}
    for block in reference_b_chunks(len(t.edges), p, total):
        rows = reference_view_rows(inc, p, s, cols, block)
        if rows.dtype == object:  # np.unique cannot sort rows of Python ints
            uniq, cnt = rows, np.ones(len(rows), dtype=np.int64)
        else:
            uniq, cnt = np.unique(rows, axis=0, return_counts=True)
        for row, c in zip(_row_tuples(uniq), cnt.tolist()):
            counts[row] = counts.get(row, 0) + c
    return histogram_from_counts(counts, p, t.n + len(cols))


def reference_view_keys(columns: Sequence[np.ndarray], p: int) -> list[tuple[int, ...]]:
    """View columns, unreduced, as one key tuple of residues mod p per entry."""
    return list(zip(*([x % p for x in column.tolist()] for column in columns)))


def reference_marginal_bins(
    keys: Sequence[tuple[int, ...]], p: int, honest: Sequence[int], num_cols: int
) -> list[Counter]:
    """The honest-sum marginal and each incident-difference column, one key at a time."""
    n = len(keys[0]) - num_cols
    bins = [Counter(sum(k[i - 1] for i in honest) % p for k in keys)]
    for m in range(1, num_cols + 1):
        bins.append(Counter(k[n + m - 1] for k in keys))
    return bins


def reference_two_sample_chi_square(bins_a: Mapping, bins_b: Mapping) -> tuple[float, float]:
    """The chi-square of two {outcome: count} dicts, one column per sorted outcome."""
    outcomes = sorted(set(bins_a) | set(bins_b))
    if len(outcomes) == 1:
        return 0.0, 1.0
    table = np.array(
        [[bins_a.get(o, 0) for o in outcomes], [bins_b.get(o, 0) for o in outcomes]]
    )
    statistic, pvalue, expected = chi2_contingency(table)
    if expected.min() < 5:
        raise ValueError(f"expected count {expected.min():.2f} below 5 in some bin")
    return float(statistic), float(pvalue)
