"""Fast paths against the slow reference implementations they replaced."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from privavg.consensus import ConsensusAlgo, ConvergenceError, gossip_avg
from privavg.masking import PhaseDoneMsg, ProtocolParams
from privavg.residues import SeededRng
from privavg.simnet import AdversarySpec, SimEvent, delivery_schedule, simulate
from privavg.topology import Topology

from conftest import random_connected_topology, ten_node_three_separators
from reference import reference_delivery_schedule, reference_gossip_avg, reference_simulate


def _instances():
    rnd = random.Random(4242)
    cases = []
    for k in range(6):
        n = rnd.randrange(2, 9)
        t = random_connected_topology(rnd, n)
        q = rnd.randrange(2, 8)
        inputs = [rnd.randrange(q) for _ in range(n)]
        cases.append((t, inputs, q, k))
    cases.append((ten_node_three_separators(), [3, 1, 0, 2, 3, 1, 1, 0, 2, 3], 4, 6))
    return cases


def _first_difference(fast: str, slow: str):
    """None if the texts are equal, else their first differing line.

    Keeps a failure report short: pytest's own diff of two long reports is slow.
    """
    a, b = fast.splitlines(), slow.splitlines()
    for k in range(max(len(a), len(b))):
        x = a[k] if k < len(a) else None
        y = b[k] if k < len(b) else None
        if x != y:
            return f"line {k + 1}: {x!r} != reference {y!r}"
    return None


@pytest.mark.parametrize("variant", ["flood_sum", "gossip_avg"])
@pytest.mark.parametrize("max_delay", [1, 4])
@pytest.mark.parametrize("watched", [False, True])
@pytest.mark.parametrize("schedule_seed", [None, 5])
def test_simulate_matches_heap_scheduler_byte_for_byte(variant, max_delay, watched, schedule_seed):
    for t, inputs, q, k in _instances():
        params = ProtocolParams.with_default_p(t.n, q)
        kw = dict(
            algo=ConsensusAlgo(variant),
            adversary=AdversarySpec(range(1, t.n + 1, 2)) if watched else None,
            seed=100 + k,
            max_delay=max_delay,
            schedule_seed=schedule_seed,
        )
        fast = simulate(t, inputs, params, **kw)
        slow = reference_simulate(t, inputs, params, **kw)
        assert _first_difference(fast.to_text(), slow.to_text()) is None


def test_delivery_schedule_draws_like_the_heap_scheduler():
    # same-tick lists in seq order give the heap scheduler's candidates
    for size in (1, 2, 3, 7, 40):
        fast_rng, slow_rng = SeededRng(9, 0), SeededRng(9, 0)
        due = [SimEvent(3, s, "done", PhaseDoneMsg(0, 0, 0)) for s in range(size)]
        heap = list(due)
        while due:
            assert delivery_schedule(fast_rng, due) == reference_delivery_schedule(slow_rng, heap)
        assert heap == []
        assert fast_rng.randint_below(2**32) == slow_rng.randint_below(2**32)


def _gossip_both(t, values, algo, seed):
    """Run both gossips; return (result or ConvergenceError, on_exchange calls) per side."""
    out = []
    for fn in (gossip_avg, reference_gossip_avg):
        calls = []
        try:
            res = fn(t, values, algo, SeededRng(seed, 99),
                     on_exchange=lambda i, j, mean: calls.append((i, j, mean)))
        except ConvergenceError as exc:
            res = exc
        out.append((res, calls))
    return out


def _assert_same_gossip(fast, slow):
    (res, calls), (ref, ref_calls) = fast, slow
    assert calls == ref_calls
    assert type(res) is type(ref)
    if isinstance(ref, ConvergenceError):
        assert (res.values, res.rounds, str(res)) == (ref.values, ref.rounds, str(ref))
        assert list(res.values) == list(ref.values)
    else:
        assert res.per_agent == ref.per_agent
        assert list(res.per_agent) == list(ref.per_agent)
        assert res.spread_trace == ref.spread_trace
        assert (res.rounds, res.messages) == (ref.rounds, ref.messages)


def test_gossip_matches_fraction_gossip_on_integers():
    rnd = random.Random(31337)
    algo = ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(1, 10**6))
    for trial in range(12):
        t = random_connected_topology(rnd, rnd.randrange(2, 9))
        values = {i: rnd.randrange(-50, 300) for i in t.vertices}
        _assert_same_gossip(*_gossip_both(t, values, algo, trial))


def test_gossip_matches_fraction_gossip_on_fractions():
    rnd = random.Random(2718)
    algo = ConsensusAlgo("gossip_avg")
    for trial in range(8):
        t = random_connected_topology(rnd, rnd.randrange(2, 8))
        values = {i: Fraction(rnd.randrange(-40, 40), rnd.choice((1, 3, 4, 7, 12))) for i in t.vertices}
        _assert_same_gossip(*_gossip_both(t, values, algo, trial))


def test_gossip_matches_fraction_gossip_when_out_of_rounds():
    rnd = random.Random(99)
    for budget in (1, 2, 5, 17):
        t = random_connected_topology(rnd, 6)
        values = {i: Fraction(rnd.randrange(100), 3) for i in t.vertices}
        algo = ConsensusAlgo("gossip_avg", max_rounds=budget)
        fast, slow = _gossip_both(t, values, algo, budget)
        assert isinstance(slow[0], ConvergenceError)
        _assert_same_gossip(fast, slow)


def test_flood_smoke_at_one_hundred_agents():
    rnd = random.Random(100)
    n = 100
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(edges) < 2 * n:
        a, b = sorted(rnd.sample(range(1, n + 1), 2))
        edges.add((a, b))
    inputs = [rnd.randrange(10) for _ in range(n)]
    rep = simulate(Topology(n, sorted(edges)), inputs, ProtocolParams.with_default_p(n, 10), seed=1)
    assert rep.average == Fraction(sum(inputs), n)
    assert rep.phase2_messages > 0
