"""Mask exchange: the pinned three-agent instance, state-machine rules, algebra."""
from __future__ import annotations

import random

import numpy as np
import pytest

from privavg.masking import (
    AgentState,
    MaskShareMsg,
    ProtocolError,
    ProtocolParams,
    build_states,
    edge_differences,
    exchange_shares,
    init_shares,
    receive_share,
)
from privavg.residues import Modulus, Residue, SeededRng
from privavg.topology import Topology, incidence_matrix

from conftest import random_connected_topology, triangle

# the worked three-agent instance: shares pinned by (sender, receiver)
GOLDEN_SHARES = {(1, 2): 14, (2, 1): 11, (2, 3): 17, (3, 2): 5, (3, 1): 3, (1, 3): 8}
GOLDEN_PARAMS = ProtocolParams(n=3, q=10, p=Modulus(30))
GOLDEN_INPUTS = [4, 7, 3]


def golden_states():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    rngs = {i: SeededRng(0, i) for i in states}
    exchange_shares(triangle(), states, rngs, override=GOLDEN_SHARES)
    return states


def test_golden_masks_and_effective_inputs():
    states = golden_states()
    assert [int(states[i].mask) for i in (1, 2, 3)] == [22, 21, 17]
    assert [int(states[i].effective_input) for i in (1, 2, 3)] == [26, 28, 20]
    total = sum(int(states[i].effective_input) for i in (1, 2, 3))
    assert total % 30 == sum(GOLDEN_INPUTS)


def test_golden_edge_differences():
    diffs = edge_differences(golden_states())
    assert [(d.edge, int(d.value)) for d in diffs] == [
        ((1, 2), 27),
        ((1, 3), 25),
        ((2, 3), 18),
    ]


def test_init_shares_messages_ascending():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    msgs = init_shares(states[1], SeededRng(0, 1), override=GOLDEN_SHARES)
    assert [(m.sender, m.receiver, int(m.share)) for m in msgs] == [(1, 2, 14), (1, 3, 8)]


def test_isolated_agent_finishes_immediately():
    t = Topology(2, [])
    params = ProtocolParams(n=2, q=5, p=Modulus(11))
    states = build_states(t, [3, 4], params)
    assert init_shares(states[1], SeededRng(1, 1)) == []
    assert int(states[1].mask) == 0
    assert int(states[1].effective_input) == 3


def test_reinit_rejected():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    init_shares(states[1], SeededRng(0, 1))
    with pytest.raises(ProtocolError, match="already drew"):
        init_shares(states[1], SeededRng(0, 1))


def test_receive_share_violations():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    for i in states:
        init_shares(states[i], SeededRng(0, i))
    p = GOLDEN_PARAMS.p
    share = Residue(5, p)
    with pytest.raises(ProtocolError, match="addressed to"):
        receive_share(states[1], MaskShareMsg(sender=2, receiver=3, share=share))
    ok = MaskShareMsg(sender=2, receiver=1, share=share)
    receive_share(states[1], ok)
    with pytest.raises(ProtocolError, match="second share"):
        receive_share(states[1], ok)
    with pytest.raises(ProtocolError, match="modulus"):
        receive_share(states[3], MaskShareMsg(sender=1, receiver=3, share=Residue(5, Modulus(7))))
    lonely = AgentState(4, 0, frozenset(), ProtocolParams(n=4, q=10, p=Modulus(40)))
    init_shares(lonely, SeededRng(0, 4))
    with pytest.raises(ProtocolError, match="non-neighbor"):
        receive_share(lonely, MaskShareMsg(sender=1, receiver=4, share=Residue(0, Modulus(40))))


def test_shares_arriving_before_init_are_held():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    for i in (2, 3):
        init_shares(states[i], SeededRng(7, i), override=GOLDEN_SHARES)
    assert receive_share(states[1], MaskShareMsg(2, 1, Residue(11, GOLDEN_PARAMS.p))) is None
    assert receive_share(states[1], MaskShareMsg(3, 1, Residue(3, GOLDEN_PARAMS.p))) is None
    assert states[1].mask is None
    init_shares(states[1], SeededRng(7, 1), override=GOLDEN_SHARES)
    assert int(states[1].mask) == 22


def test_completion_returned_once_on_last_share():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    for i in states:
        init_shares(states[i], SeededRng(0, i), override=GOLDEN_SHARES)
    p = GOLDEN_PARAMS.p
    assert receive_share(states[1], MaskShareMsg(2, 1, Residue(11, p))) is None
    done = receive_share(states[1], MaskShareMsg(3, 1, Residue(3, p)))
    assert done is not None
    mask, eff = done
    assert (int(mask), int(eff)) == (22, 26)


def test_masks_sum_to_zero_and_sum_preserved():
    rnd = random.Random(404)
    for _ in range(40):
        n = rnd.randrange(1, 8)
        t = random_connected_topology(rnd, n)
        q = rnd.randrange(2, 9)
        params = ProtocolParams.with_default_p(n, q)
        inputs = [rnd.randrange(q) for _ in range(n)]
        states = build_states(t, inputs, params)
        exchange_shares(t, states, {i: SeededRng(rnd.randrange(2**32), i) for i in states})
        p = params.p.value
        assert sum(int(states[i].mask) for i in states) % p == 0
        assert sum(int(states[i].effective_input) for i in states) % p == sum(inputs)


def test_masks_equal_incidence_times_differences():
    rnd = random.Random(505)
    for _ in range(25):
        n = rnd.randrange(2, 8)
        t = random_connected_topology(rnd, n)
        params = ProtocolParams.with_default_p(n, 6)
        states = build_states(t, [rnd.randrange(6) for _ in range(n)], params)
        exchange_shares(t, states, {i: SeededRng(rnd.randrange(2**32), i) for i in states})
        diffs = edge_differences(states)
        assert tuple(d.edge for d in diffs) == t.edges
        b = np.array([int(d.value) for d in diffs], dtype=np.int64)
        a = (incidence_matrix(t).astype(np.int64) @ b) % params.p.value
        assert a.tolist() == [int(states[i].mask) for i in sorted(states)]


def test_edge_difference_zero_when_shares_match():
    t = Topology(2, [(1, 2)])
    params = ProtocolParams(n=2, q=3, p=Modulus(7))
    states = build_states(t, [1, 2], params)
    exchange_shares(t, states, {i: SeededRng(0, i) for i in states}, override={(1, 2): 4, (2, 1): 4})
    (diff,) = edge_differences(states)
    assert int(diff.value) == 0


def test_delivery_order_does_not_change_masks():
    rnd = random.Random(606)
    t = random_connected_topology(rnd, 6)
    params = ProtocolParams.with_default_p(6, 5)
    inputs = [rnd.randrange(5) for _ in range(6)]

    def run(order_seed):
        states = build_states(t, inputs, params)
        pending = []
        for i in sorted(states):
            pending.extend(init_shares(states[i], SeededRng(123, i)))
        random.Random(order_seed).shuffle(pending)
        for msg in pending:
            receive_share(states[msg.receiver], msg)
        return [(int(states[i].mask), int(states[i].effective_input)) for i in sorted(states)]

    baseline = run(0)
    for order_seed in range(1, 10):
        assert run(order_seed) == baseline


def test_edge_differences_requires_all_initialized():
    states = build_states(triangle(), GOLDEN_INPUTS, GOLDEN_PARAMS)
    init_shares(states[1], SeededRng(0, 1))
    with pytest.raises(ProtocolError, match="not drawn"):
        edge_differences(states)


def test_params_validation():
    with pytest.raises(ValueError, match="input bound"):
        ProtocolParams(n=3, q=1, p=Modulus(30))
    with pytest.raises(ValueError, match="too small"):
        ProtocolParams(n=3, q=10, p=Modulus(27))
    assert ProtocolParams.with_default_p(3, 10).p.value == 28
    assert ProtocolParams.with_default_p(1, 2).p.value == 2


def test_input_range_enforced():
    with pytest.raises(ValueError, match="outside"):
        build_states(triangle(), [4, 7, 10], GOLDEN_PARAMS)
    with pytest.raises(ValueError, match="outside"):
        build_states(triangle(), [-1, 0, 0], GOLDEN_PARAMS)


def test_build_states_shape_checks():
    with pytest.raises(ValueError, match="inputs"):
        build_states(triangle(), [1, 2], GOLDEN_PARAMS)
    with pytest.raises(ValueError, match="agents"):
        build_states(Topology(2, [(1, 2)]), [1, 2], GOLDEN_PARAMS)
