"""Private distributed averaging over graphs, with exact audit tooling.

Agents holding bounded integers cooperate to learn their exact average while
pairwise random shares keep every proper, non-separating coalition from
learning anything beyond that average. The package provides the protocol
pieces (residue arithmetic, mask exchange, consensus), a deterministic event
simulator with a passive-adversary recorder, and enumeration/statistical
audits of the privacy claims.

The names below are the public API, the list in the README; everything else
is reachable through its module. The names of `audit` and `simnet` resolve
on first access, so that importing the package loads neither numpy nor the
simulator.
"""
import importlib

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

# public names whose modules load numpy or the simulator: imported on first access
_LAZY = {
    "AuditVerdict": "audit",
    "EnumerationBudgetError": "audit",
    "check_effective_input_uniformity": "audit",
    "check_group_privacy": "audit",
    "check_mask_uniformity": "audit",
    "check_view_indistinguishability": "audit",
    "enumerate_mask_distribution": "audit",
    "sampled_view_test": "audit",
    "RunReport": "simnet",
    "simulate": "simnet",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
