"""Consensus routes: flooding counts, gossip conservation, exact finalization.

Flooding runs inside the event simulator, so its tests drive `simulate`.
"""
from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from privavg.consensus import (
    ConsensusAlgo,
    ConvergenceError,
    RoundingError,
    finalize,
    gossip_avg,
)
from privavg.masking import ProtocolParams
from privavg.residues import Modulus, SeededRng
from privavg.simnet import AdversarySpec, simulate
from privavg.topology import Topology

from conftest import path3, random_connected_topology, triangle

PARAMS_30 = ProtocolParams(n=3, q=10, p=Modulus(30))
GOLDEN_SHARES = {(1, 2): 14, (2, 1): 11, (2, 3): 17, (3, 2): 5, (3, 1): 3, (1, 3): 8}


def test_flood_triangle_collects_everything():
    # pinned shares give effective inputs 26, 28, 20: every agent floods to 74
    rep = simulate(
        triangle(), [4, 7, 3], PARAMS_30, seed=42, share_override=GOLDEN_SHARES,
        adversary=AdversarySpec(()),
    )
    assert rep.view.all_effective_inputs == {1: 26, 2: 28, 3: 20}
    assert rep.averages == {i: finalize(74, PARAMS_30) for i in (1, 2, 3)}
    assert rep.phase2_messages == 12


def test_flood_single_agent_is_free():
    rep = simulate(Topology(1, []), [5], ProtocolParams(n=1, q=10, p=Modulus(11)))
    assert rep.averages == {1: Fraction(5)}
    assert rep.phase2_messages == 0


def test_flood_star_of_zeros():
    star = Topology(4, [(1, 2), (1, 3), (1, 4)])
    rep = simulate(star, [0] * 4, ProtocolParams.with_default_p(4, 2))
    assert set(rep.averages.values()) == {Fraction(0)}
    assert rep.phase2_messages == 12


def test_flood_rejects_disconnected_naming_components():
    with pytest.raises(ValueError, match=r"\{1,2\} \{3,4\}"):
        simulate(Topology(4, [(1, 2), (3, 4)]), [0] * 4, ProtocolParams.with_default_p(4, 2))


def test_flood_requires_every_vertex_keyed():
    with pytest.raises(ValueError, match="need 3 inputs"):
        simulate(triangle(), [1, 2], PARAMS_30)
    with pytest.raises(ValueError, match="keyed"):
        gossip_avg(triangle(), {1: 1, 2: 2}, ConsensusAlgo("gossip_avg"), SeededRng(0, 99))


def test_gossip_two_agents_single_exchange():
    t = Topology(2, [(1, 2)])
    res = gossip_avg(t, {1: 0, 2: 2}, ConsensusAlgo("gossip_avg"), SeededRng(0, 99))
    assert res.per_agent == {1: Fraction(1), 2: Fraction(1)}
    assert res.rounds == 1
    assert res.messages == 2
    assert res.spread_trace == (Fraction(0),)


def test_gossip_fixed_point_immediately():
    res = gossip_avg(triangle(), {1: 7, 2: 7, 3: 7}, ConsensusAlgo("gossip_avg"), SeededRng(1, 99))
    assert res.rounds == 0
    assert set(res.per_agent.values()) == {Fraction(7)}


def test_gossip_triangle_converges_to_mean():
    algo = ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(1, 10**6))
    res = gossip_avg(triangle(), {1: 78, 2: 84, 3: 60}, algo, SeededRng(2, 99))
    for v in res.per_agent.values():
        assert abs(v - 74) <= Fraction(1, 10**6)
    # the trace is the spread after each exchange, non-negative and ending small
    assert res.spread_trace[-1] <= 2 * algo.gossip_tolerance


def test_gossip_conserves_sum_exactly():
    rnd = random.Random(777)
    for trial in range(10):
        n = rnd.randrange(2, 7)
        t = random_connected_topology(rnd, n)
        values = {i: rnd.randrange(0, 200) for i in t.vertices}
        res = gossip_avg(t, values, ConsensusAlgo("gossip_avg"), SeededRng(trial, 99))
        assert sum(res.per_agent.values()) == sum(values.values())
        spread = max(res.per_agent.values()) - min(res.per_agent.values())
        assert spread <= Fraction(2, 10**9)


def test_gossip_round_budget_exhaustion_carries_state():
    algo = ConsensusAlgo("gossip_avg", max_rounds=1)
    with pytest.raises(ConvergenceError) as info:
        gossip_avg(path3(), {1: 0, 2: 0, 3: 1}, algo, SeededRng(3, 99))
    assert info.value.rounds == 1
    assert sum(info.value.values.values()) == 1


def test_gossip_out_of_rounds_names_a_spread_past_the_float_range():
    # at tolerance 10^-1300 the spread left after 10,000 rounds is below the
    # smallest float, so the float of it reads 0; the message must not
    t = Topology(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
    values = {i: 6 * x for i, x in zip(t.vertices, [3, 0, 7, 1, 9, 4])}
    algo = ConsensusAlgo("gossip_avg", Fraction(1, 10**1300), max_rounds=10_000)
    with pytest.raises(ConvergenceError) as info:
        gossip_avg(t, values, algo, SeededRng(0, 7))
    left = max(info.value.values.values()) - min(info.value.values.values())
    assert left > 0 and float(left) == 0.0
    want = Decimal(left.numerator) / Decimal(left.denominator)
    assert str(info.value) == f"gossip spread still {want:.3g} after 10000 rounds"
    assert Decimal(str(info.value).split()[3]) > 0


def test_algo_validation_and_budget():
    with pytest.raises(ValueError, match="variant"):
        ConsensusAlgo("median")
    with pytest.raises(ValueError, match="positive"):
        ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(0))
    with pytest.raises(ValueError, match="max_rounds"):
        ConsensusAlgo("gossip_avg", max_rounds=0)
    assert ConsensusAlgo().rounds_budget(triangle()) == 50 * 9 * 3
    assert ConsensusAlgo(max_rounds=17).rounds_budget(triangle()) == 17



def test_finalize_exact_and_near_integer():
    assert finalize(74, PARAMS_30) == Fraction(14, 3)
    assert finalize(Fraction("73.9999996"), PARAMS_30) == Fraction(14, 3)
    assert finalize(Fraction("74.2499"), PARAMS_30) == Fraction(14, 3)
    assert finalize(0, PARAMS_30) == Fraction(0)


def test_finalize_refuses_ambiguity():
    with pytest.raises(RoundingError):
        finalize(Fraction("74.3"), PARAMS_30)
    with pytest.raises(RoundingError):
        finalize(Fraction(149, 2), PARAMS_30)  # exactly halfway
    with pytest.raises(RoundingError):
        finalize(Fraction("73.75"), PARAMS_30)


def test_finalize_strips_modulus_before_dividing():
    # 26+28+20 = 74 -> 14 mod 30 -> exact average 14/3
    assert finalize(Fraction(74), PARAMS_30) == Fraction(14, 3)
    params = ProtocolParams(n=4, q=3, p=Modulus(9))
    assert finalize(8 + 9 * 3, params) == Fraction(8, 4)
