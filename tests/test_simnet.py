"""Event simulator: determinism, passivity, schedules, views, replay text."""
from __future__ import annotations

import heapq
import random
from fractions import Fraction

import pytest

from privavg.consensus import ConsensusAlgo
from privavg.masking import ProtocolParams
from privavg.residues import Modulus, SeededRng
from privavg.simnet import (
    AdversarySpec,
    RunReport,
    SimEvent,
    delivery_schedule,
    simulate,
)
from privavg.topology import Topology

from conftest import path3, random_connected_topology, ten_node_three_separators, triangle

GOLDEN_SHARES = {(1, 2): 14, (2, 1): 11, (2, 3): 17, (3, 2): 5, (3, 1): 3, (1, 3): 8}
PARAMS_30 = ProtocolParams(n=3, q=10, p=Modulus(30))


def golden_run(**kw):
    return simulate(
        triangle(), [4, 7, 3], PARAMS_30, seed=42, share_override=GOLDEN_SHARES, **kw
    )


def test_golden_run_with_pinned_shares():
    rep = golden_run(adversary=AdversarySpec({3}))
    assert rep.average == Fraction(14, 3)
    view = rep.view
    assert view.all_effective_inputs == {1: 26, 2: 28, 3: 20}
    assert view.incident_differences == {(1, 3): 25, (2, 3): 18}
    assert view.adversary_inputs == {3: 3}


def test_single_agent_run_is_silent():
    params = ProtocolParams(n=1, q=10, p=Modulus(11))
    rep = simulate(Topology(1, []), [7], params, seed=5)
    assert rep.average == Fraction(7)
    assert rep.phase1_messages == 0 and rep.phase2_messages == 0
    assert rep.ticks == 0


def test_same_seed_same_report_text():
    a = golden_run(adversary=AdversarySpec({3}))
    b = golden_run(adversary=AdversarySpec({3}))
    assert a.to_text() == b.to_text()


def test_two_seeds_same_average_different_transcripts():
    t = random_connected_topology(random.Random(9), 5)
    params = ProtocolParams.with_default_p(5, 6)
    inputs = [3, 0, 5, 2, 4]
    a = simulate(t, inputs, params, seed=1)
    b = simulate(t, inputs, params, seed=2)
    assert a.average == b.average == Fraction(sum(inputs), 5)
    assert a.events != b.events


def test_adversary_recording_is_passive():
    watched = golden_run(adversary=AdversarySpec({1, 3}))
    plain = golden_run()
    assert watched.events == plain.events
    assert watched.averages == plain.averages
    assert watched.ticks == plain.ticks
    assert watched.phase1_messages == plain.phase1_messages
    assert watched.phase2_messages == plain.phase2_messages
    assert plain.view is None and watched.view is not None


def test_schedule_seed_changes_order_not_outcome():
    t = ten_node_three_separators()
    params = ProtocolParams.with_default_p(10, 4)
    inputs = [3, 1, 0, 2, 3, 1, 1, 0, 2, 3]
    base = simulate(t, inputs, params, seed=11, adversary=AdversarySpec(set()))
    seen_events = set()
    for sched in range(6):
        rep = simulate(
            t, inputs, params, seed=11, schedule_seed=sched, adversary=AdversarySpec(set())
        )
        assert rep.view.all_effective_inputs == base.view.all_effective_inputs
        assert rep.averages == base.averages
        seen_events.add(rep.events)
    assert len(seen_events) > 1


def test_empty_coalition_sees_only_effective_inputs():
    rep = golden_run(adversary=AdversarySpec(set()))
    view = rep.view
    assert view.adversary_inputs == {}
    assert view.incident_differences == {}
    assert view.transcript == ()
    assert view.all_effective_inputs == {1: 26, 2: 28, 3: 20}


def test_all_but_one_coalition_reconstructs_the_holdout():
    inputs = [4, 7, 3]
    rep = golden_run(adversary=AdversarySpec({2, 3}))
    view = rep.view
    reconstructed = rep.average * 3 - sum(view.adversary_inputs.values())
    assert reconstructed == inputs[0]


def test_path_coalition_sees_only_incident_edges():
    rep = simulate(
        path3(), [4, 7, 3], PARAMS_30, seed=3, adversary=AdversarySpec({3})
    )
    assert set(rep.view.incident_differences) == {(2, 3)}


def test_report_without_adversary_records_no_view():
    rep = golden_run()
    assert rep.adversary is None and rep.view is None


def test_delivery_schedule_uniform_over_ties():
    def fresh_heap():
        evs = [SimEvent(1, s, "done", 0, 0, 0, None) for s in range(3)]
        heapq.heapify(evs)
        return evs

    rng = SeededRng(77, 0)
    counts = [0, 0, 0]
    for _ in range(10_000):
        counts[delivery_schedule(rng, fresh_heap()).seq] += 1
    for c in counts:
        assert abs(c / 10_000 - 1 / 3) <= 0.02


def test_delivery_schedule_single_event_consumes_no_randomness():
    rng = SeededRng(123, 0)
    heap = [SimEvent(4, 0, "done", 0, 0, 0, None)]
    ev = delivery_schedule(rng, heap)
    assert ev.time == 4 and heap == []
    assert rng.randint_below(2**32) == SeededRng(123, 0).randint_below(2**32)
    with pytest.raises(ValueError):
        delivery_schedule(rng, [])


def test_unit_delay_is_fifo_per_channel():
    rep = simulate(path3(), [1, 2, 3], ProtocolParams.with_default_p(3, 4), seed=8, max_delay=1)
    # unit delays mean delivery tick = send tick + 1: nothing overtakes an
    # earlier send on the same channel (same-tick sends may tie)
    last_tick: dict[tuple[str, str], int] = {}
    for line in rep.events:
        tick, _, _, src, dst, _ = line.split(" ", 5)
        chan = (src, dst)
        assert last_tick.get(chan, -1) <= int(tick)
        last_tick[chan] = int(tick)


def test_transcript_covers_exactly_coalition_deliveries():
    t = ten_node_three_separators()
    params = ProtocolParams.with_default_p(10, 3)
    rep = simulate(
        t, [2, 0, 1, 2, 0, 1, 2, 0, 1, 2], params, seed=21, adversary=AdversarySpec({3, 5, 10})
    )
    view = rep.view
    to_coalition = [ln for ln in rep.events if int(ln.split()[4]) in {3, 5, 10}]
    assert list(view.transcript) == to_coalition
    for line in view.transcript:
        parts = line.split()
        # nothing recorded from honest-to-honest channels
        assert int(parts[4]) in {3, 5, 10}


def test_masked_sum_identity_in_adversarial_runs():
    rnd = random.Random(1312)
    for trial in range(15):
        n = rnd.randrange(2, 8)
        t = random_connected_topology(rnd, n)
        q = rnd.randrange(2, 7)
        params = ProtocolParams.with_default_p(n, q)
        inputs = [rnd.randrange(q) for _ in range(n)]
        members = set(rnd.sample(range(1, n + 1), rnd.randrange(1, n)))
        rep = simulate(t, inputs, params, seed=trial, adversary=AdversarySpec(members))
        view = rep.view
        p = params.p.value
        honest = sum(v for i, v in view.all_effective_inputs.items() if i not in members)
        coalition = sum(v for i, v in view.all_effective_inputs.items() if i in members)
        assert honest % p == (sum(inputs) - coalition) % p


def test_flood_message_counts_match_the_closed_form():
    # each origin's flood: deg(origin) sends, then deg(a) - 1 at every other
    # agent; a flood that echoed to its sender or re-forwarded repeats sends more
    rnd = random.Random(2024)
    for trial in range(30):
        n = rnd.randrange(1, 13)
        t = random_connected_topology(rnd, n)
        params = ProtocolParams.with_default_p(n, 4)
        inputs = [rnd.randrange(4) for _ in range(n)]
        per_origin = 2 * len(t.edges) - n + 1
        coalition = AdversarySpec(rnd.sample(range(1, n + 1), rnd.randrange(1, n + 1)))
        for adversary in (None, coalition):
            for max_delay in (1, 4):
                rep = simulate(
                    t, inputs, params, adversary=adversary, seed=trial, max_delay=max_delay
                )
                assert rep.phase2_messages == n * per_origin
                assert rep.phase1_messages == 2 * len(t.edges) + n * per_origin


def test_report_round_trip_is_byte_identical():
    for rep in (
        golden_run(adversary=AdversarySpec({3})),
        golden_run(),
        golden_run(algo=ConsensusAlgo("gossip_avg"), adversary=AdversarySpec({1})),
    ):
        text = rep.to_text()
        again = RunReport.from_text(text)
        assert again == rep
        assert again.to_text() == text


def test_gossip_route_through_simulator():
    rep = golden_run(algo=ConsensusAlgo("gossip_avg"))
    assert rep.average == Fraction(14, 3)
    assert rep.phase2_messages == 2 * len(rep.gossip_spread)
    assert rep.gossip_spread[-1] <= Fraction(2, 10**9)


def test_simulate_rejects_disconnected_and_bad_adversary():
    params = ProtocolParams.with_default_p(4, 3)
    with pytest.raises(ValueError, match="components"):
        simulate(Topology(4, [(1, 2), (3, 4)]), [0, 1, 2, 1], params)
    with pytest.raises(ValueError, match="outside"):
        simulate(Topology(2, [(1, 2)]), [0, 1], ProtocolParams.with_default_p(2, 3),
                 adversary=AdversarySpec({5}))
    with pytest.raises(ValueError, match="max_delay"):
        simulate(Topology(2, [(1, 2)]), [0, 1], ProtocolParams.with_default_p(2, 3), max_delay=0)
    with pytest.raises(ValueError, match=r"max_delay must be below 2\*\*64"):
        simulate(Topology(2, [(1, 2)]), [0, 1], ProtocolParams.with_default_p(2, 3),
                 max_delay=2**64)
    rep = simulate(Topology(2, [(1, 2)]), [0, 1], ProtocolParams.with_default_p(2, 3),
                   max_delay=2**64 - 1)
    assert rep.average == Fraction(1, 2)


def test_gossip_tolerance_must_stay_below_the_rounding_bound():
    # n = 3: the final rounding is safe only below 1/(2n^2) = 1/18
    with pytest.raises(ValueError, match=r"gossip tolerance 1/18 must be below 1/\(2n\^2\) = 1/18"):
        golden_run(algo=ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(1, 18)))
    rep = golden_run(algo=ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(1, 19)))
    assert rep.average == Fraction(14, 3)
    # flooding has no tolerance to check
    assert golden_run(algo=ConsensusAlgo(gossip_tolerance=Fraction(1, 2))).average == Fraction(14, 3)
