"""Private distributed averaging over graphs, with exact audit tooling.

Agents holding bounded integers cooperate to learn their exact average while
pairwise random shares keep every proper, non-separating coalition from
learning anything beyond that average. The package provides the protocol
pieces (residue arithmetic, mask exchange, consensus), a deterministic event
simulator with a passive-adversary recorder, and enumeration/statistical
audits of the privacy claims.

The names below are the public API, the list in the README; everything else
is reachable through its module.
"""
from .audit import (
    AuditVerdict,
    EnumerationBudgetError,
    check_effective_input_uniformity,
    check_group_privacy,
    check_mask_uniformity,
    check_view_indistinguishability,
    enumerate_mask_distribution,
    sampled_view_test,
)
from .consensus import ConsensusAlgo, ConvergenceError, InvariantError, RoundingError
from .masking import (
    AdversarySpec,
    ProtocolError,
    ProtocolParams,
    build_states,
    edge_differences,
    exchange_shares,
)
from .residues import Modulus, ModulusMismatchError, Residue, SeededRng
from .simnet import RunReport, simulate
from .topology import (
    Topology,
    connected_components,
    incidence_rank_mod_p,
    is_vertex_cut,
    load_topology_text,
    vertex_connectivity,
)

__all__ = [
    "AdversarySpec",
    "AuditVerdict",
    "ConsensusAlgo",
    "ConvergenceError",
    "EnumerationBudgetError",
    "InvariantError",
    "Modulus",
    "ModulusMismatchError",
    "ProtocolError",
    "ProtocolParams",
    "Residue",
    "RoundingError",
    "RunReport",
    "SeededRng",
    "Topology",
    "build_states",
    "check_effective_input_uniformity",
    "check_group_privacy",
    "check_mask_uniformity",
    "check_view_indistinguishability",
    "connected_components",
    "edge_differences",
    "enumerate_mask_distribution",
    "exchange_shares",
    "incidence_rank_mod_p",
    "is_vertex_cut",
    "load_topology_text",
    "sampled_view_test",
    "simulate",
    "vertex_connectivity",
]

__version__ = "0.1.0"
