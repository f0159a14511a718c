"""Phase-1 mask exchange: pairwise random shares cancel in the global sum.

Each agent sends an independent uniform residue to every neighbor and adds
what it received minus what it sent into a mask. Masks telescope to zero over
the whole graph, so the masked (effective) inputs preserve the true sum while
each one alone is uniform noise.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .residues import Modulus, Residue, SeededRng, sum_mod
from .topology import Topology

__all__ = [
    "AgentState",
    "EdgeDifference",
    "MaskShareMsg",
    "ProtocolError",
    "ProtocolParams",
    "build_states",
    "edge_differences",
    "exchange_shares",
    "init_shares",
    "phase_complete",
    "receive_share",
]


class ProtocolError(ValueError):
    """A message or call that the protocol state machine forbids."""


@dataclass(frozen=True)
class ProtocolParams:
    """Agent count, input bound, and working modulus.

    The modulus must exceed n*(q-1) so the true sum of n inputs from
    [0, q) never wraps; exactness of the final average depends on it.
    """

    n: int
    q: int
    p: Modulus

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"agent count must be a positive int, got {self.n!r}")
        if isinstance(self.q, bool) or not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"input bound must be an int >= 2, got {self.q!r}")
        if self.p.value <= self.n * (self.q - 1):
            raise ValueError(
                f"modulus {self.p.value} too small: need p > n*(q-1) = {self.n * (self.q - 1)}"
            )

    @classmethod
    def with_default_p(cls, n: int, q: int) -> "ProtocolParams":
        """Smallest safe modulus: n*(q-1) + 1."""
        return cls(n=n, q=q, p=Modulus(n * (q - 1) + 1))


@dataclass(frozen=True)
class MaskShareMsg:
    sender: int
    receiver: int
    share: Residue


@dataclass(frozen=True)
class EdgeDifference:
    """Received-minus-sent share along one edge, oriented low-to-high endpoint."""

    edge: tuple[int, int]
    value: Residue


class AgentState:
    """One agent's view of phase 1.

    Attributes
    ----------
    agent_id : vertex id, 1-based
    input : Residue -- the private value embedded in Z_p
    neighbors : frozenset of adjacent vertex ids
    sent_shares / received_shares : per-neighbor residues, filled as the
        exchange progresses
    mask : Residue or None -- set exactly once, when every neighbor's share
        has arrived
    effective_input : Residue or None -- input + mask, set together with mask
    completed_peers : ids whose completion notices this agent has seen
        (itself included once its own mask is set)
    """

    def __init__(self, agent_id: int, input_value: int, neighbors, params: ProtocolParams):
        if not 0 <= input_value < params.q:
            raise ValueError(
                f"agent {agent_id}: input {input_value} outside [0, {params.q})"
            )
        self.agent_id = agent_id
        self.params = params
        self.input = Residue(input_value, params.p)
        self.neighbors = frozenset(neighbors)
        if agent_id in self.neighbors:
            raise ValueError(f"agent {agent_id} lists itself as a neighbor")
        self.sent_shares: dict[int, Residue] = {}
        self.received_shares: dict[int, Residue] = {}
        self.mask: Optional[Residue] = None
        self.effective_input: Optional[Residue] = None
        self.completed_peers: set[int] = set()
        self._initialized = False

    def _maybe_finish(self) -> bool:
        if self.mask is not None or not self._initialized:
            return False
        if set(self.received_shares) != self.neighbors:
            return False
        p = self.params.p
        self.mask = sum_mod(
            (self.received_shares[j] - self.sent_shares[j] for j in sorted(self.neighbors)),
            modulus=p,
        )
        self.effective_input = self.input + self.mask
        return True


def init_shares(
    state: AgentState,
    rng: SeededRng,
    override: Optional[Mapping[tuple[int, int], int]] = None,
) -> list[MaskShareMsg]:
    """Draw one uniform share per neighbor and emit the outgoing messages.

    Neighbors are served in ascending id order, all in one bulk draw; that
    order is part of the seed-to-stream contract. `override` pins individual
    shares by (sender, receiver) pair for replaying worked instances; a pinned
    share consumes no draw. Isolated agents send nothing and their mask
    settles to zero immediately.
    """
    if state._initialized:
        raise ProtocolError(f"agent {state.agent_id} already drew its shares")
    p = state.params.p
    nbrs = sorted(state.neighbors)
    values = {j: v for (i, j), v in (override or {}).items() if i == state.agent_id}
    free = [j for j in nbrs if j not in values]
    values.update(zip(free, rng.randints_below(p.value, len(free)).tolist()))
    msgs = []
    for j in nbrs:
        share = Residue(values[j], p)
        state.sent_shares[j] = share
        msgs.append(MaskShareMsg(sender=state.agent_id, receiver=j, share=share))
    state._initialized = True
    state._maybe_finish()
    return msgs


def receive_share(state: AgentState, msg: MaskShareMsg) -> Optional[tuple[Residue, Residue]]:
    """Record a neighbor's share; returns (mask, effective_input) on completion.

    Shares from non-neighbors and duplicate shares are protocol violations,
    not data to be tolerated.
    """
    if msg.receiver != state.agent_id:
        raise ProtocolError(
            f"agent {state.agent_id} handed a share addressed to {msg.receiver}"
        )
    if msg.sender not in state.neighbors:
        raise ProtocolError(
            f"agent {state.agent_id} got a share from non-neighbor {msg.sender}"
        )
    if msg.sender in state.received_shares:
        raise ProtocolError(
            f"agent {state.agent_id} got a second share from {msg.sender}"
        )
    if msg.share.modulus != state.params.p:
        raise ProtocolError(
            f"share modulus {msg.share.modulus.value} differs from protocol modulus "
            f"{state.params.p.value}"
        )
    state.received_shares[msg.sender] = msg.share
    if state._maybe_finish():
        return state.mask, state.effective_input
    return None


def build_states(t: Topology, inputs: Sequence[int], params: ProtocolParams) -> dict[int, AgentState]:
    if params.n != t.n:
        raise ValueError(f"params expect {params.n} agents, topology has {t.n}")
    if len(inputs) != t.n:
        raise ValueError(f"need {t.n} inputs, got {len(inputs)}")
    return {
        i: AgentState(i, inputs[i - 1], t.neighbors(i), params) for i in t.vertices
    }


def exchange_shares(
    t: Topology,
    states: Mapping[int, AgentState],
    rngs: Mapping[int, SeededRng],
    override: Optional[Mapping[tuple[int, int], int]] = None,
) -> None:
    """Run the whole exchange synchronously (draw everything, deliver everything).

    The event simulator is the production path; this is the reference path for
    audits and tests, valid because masks do not depend on delivery order.
    """
    pending = []
    for i in sorted(states):
        pending.extend(init_shares(states[i], rngs[i], override))
    for msg in pending:
        receive_share(states[msg.receiver], msg)


def edge_differences(states: Mapping[int, AgentState]) -> list[EdgeDifference]:
    """Received-minus-sent share per edge, low endpoint's perspective, canonical order."""
    diffs = []
    for i in sorted(states):
        st = states[i]
        if not st._initialized:
            raise ProtocolError(f"agent {i} has not drawn its shares yet")
        for j in sorted(st.neighbors):
            if i < j:
                if not states[j]._initialized:
                    raise ProtocolError(f"agent {j} has not drawn its shares yet")
                b = states[j].sent_shares[i] - st.sent_shares[j]
                diffs.append(EdgeDifference(edge=(i, j), value=b))
    diffs.sort(key=lambda d: d.edge)
    return diffs


def phase_complete(states: Mapping[int, AgentState]) -> bool:
    """True once every mask is set and every agent has heard from everyone."""
    everyone = set(states)
    return all(
        st.mask is not None and st.completed_peers == everyone for st in states.values()
    )
