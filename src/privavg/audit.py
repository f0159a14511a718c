"""Distribution audits: exact enumeration oracles with a sampled fallback.

The protocol's privacy claims are exact distribution identities, so the
preferred check is to enumerate every edge-difference assignment and compare
histograms outcome by outcome. Mask vectors are the incidence matrix applied
to the difference vector, which is why enumeration can run over Z_p^|E|
instead of the quadratically larger raw share space. When the space is too
big, a seeded two-sample chi-square over binned coalition views stands in;
negative controls (coalitions that cut the graph) must visibly leak there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .residues import Modulus, SeededRng
from .simnet import AdversarySpec, AdversaryView
from .topology import Topology, connected_components, incidence_matrix, is_vertex_cut

__all__ = [
    "AuditVerdict",
    "EnumerationBudgetError",
    "Histogram",
    "check_effective_input_uniformity",
    "check_group_privacy",
    "check_mask_uniformity",
    "check_view_indistinguishability",
    "enumerate_mask_distribution",
    "enumerate_view_distribution",
    "flatten_view_key",
    "histogram_csv",
    "sampled_view_test",
]

DEFAULT_BUDGET = 10**7
_FULL_BIN_LIMIT = 10**4


class EnumerationBudgetError(ValueError):
    """The b-vector space is too large to enumerate; use sampled_view_test."""


@dataclass
class Histogram:
    """Counts per canonically serialized outcome tuple."""

    counts: dict[tuple, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def bump(self, outcome: tuple, by: int = 1) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + by

    def merge(self, other: "Histogram") -> "Histogram":
        merged = Histogram(dict(self.counts))
        for k, v in other.counts.items():
            merged.bump(k, v)
        return merged

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Histogram) and self.counts == other.counts


@dataclass
class AuditVerdict:
    """Outcome of one audit claim, in a form the CLI can print and save."""

    claim: str
    method: str  # exact_enumeration | chi_square
    passed: bool
    statistic: Optional[float] = None
    pvalue: Optional[float] = None
    alpha: Optional[float] = None
    details: dict = field(default_factory=dict)

    def to_text(self) -> str:
        def render(v) -> str:
            return "-" if v is None else str(v)

        lines = [
            "audit v1",
            f"claim {self.claim}",
            f"method {self.method}",
            f"passed {'yes' if self.passed else 'no'}",
            f"statistic {render(self.statistic)}",
            f"pvalue {render(self.pvalue)}",
            f"alpha {render(self.alpha)}",
        ]
        for k in sorted(self.details):
            lines.append(f"detail {k} {self.details[k]}")
        lines.append("end")
        return "\n".join(lines) + "\n"


def histogram_csv(hist: Histogram) -> str:
    rows = ["outcome,count"]
    for outcome in sorted(hist.counts):
        flat = " ".join(str(x) for x in outcome)
        rows.append(f"\"{flat}\",{hist.counts[outcome]}")
    return "\n".join(rows) + "\n"


def _as_modulus_value(p) -> int:
    value = p.value if isinstance(p, Modulus) else int(p)
    Modulus(value)  # reuse its validation
    return value


def _check_inputs(t: Topology, p: int, s: Sequence[int], name: str) -> tuple[int, ...]:
    if len(s) != t.n:
        raise ValueError(f"{name} must list {t.n} residues, got {len(s)}")
    out = []
    for i, v in enumerate(s, start=1):
        if not 0 <= int(v) < p:
            raise ValueError(f"{name}[{i}] = {v} outside [0, {p})")
        out.append(int(v))
    return tuple(out)


def _space_size(t: Topology, p: int, budget: int) -> int:
    total = p ** len(t.edges)
    if total > budget:
        raise EnumerationBudgetError(
            f"enumeration needs {total} b-vectors (> budget {budget}); "
            "use sampled_view_test instead"
        )
    return total


def _b_chunks(num_edges: int, p: int, total: int, chunk: int = 1 << 15) -> Iterator[np.ndarray]:
    # mixed-radix decode of 0..total-1 into base-p digit rows
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = np.empty((len(codes), num_edges), dtype=np.int64)
        rem = codes
        for k in range(num_edges):
            digits[:, k] = rem % p
            rem = rem // p
        yield digits


def enumerate_mask_distribution(t: Topology, p, budget: int = DEFAULT_BUDGET) -> Histogram:
    """Exact histogram of mask vectors over every edge-difference assignment.

    Runs on disconnected graphs too: their support shrinks to the product of
    per-component zero-sum hyperplanes, which the rank audits rely on seeing.
    """
    pv = _as_modulus_value(p)
    total = _space_size(t, pv, budget)
    inc = incidence_matrix(t).matrix.astype(np.int64)
    hist = Histogram()
    for block in _b_chunks(len(t.edges), pv, total):
        masks = (block @ inc.T) % pv
        uniq, cnt = np.unique(masks, axis=0, return_counts=True)
        for row, c in zip(uniq, cnt):
            hist.bump(tuple(int(x) for x in row), int(c))
    return hist


def check_mask_uniformity(t: Topology, p, budget: int = DEFAULT_BUDGET) -> AuditVerdict:
    """Masks must cover the zero-sum hyperplane uniformly (connected graphs)."""
    pv = _as_modulus_value(p)
    return _mask_uniformity_verdict(t, pv, enumerate_mask_distribution(t, pv, budget))


def _mask_uniformity_verdict(t: Topology, pv: int, hist: Histogram) -> AuditVerdict:
    # the verdict of check_mask_uniformity from an already enumerated histogram
    support_ok = all(sum(a) % pv == 0 for a in hist.counts)
    expected_support = pv ** (t.n - 1)
    expected_count = pv ** (len(t.edges) - t.n + 1) if len(hist.counts) == expected_support else None
    uniform_ok = expected_count is not None and set(hist.counts.values()) == {expected_count}
    passed = support_ok and uniform_ok
    return AuditVerdict(
        claim="mask-uniformity",
        method="exact_enumeration",
        passed=passed,
        details={
            "p": pv,
            "support_size": len(hist.counts),
            "expected_support": expected_support,
            "count_values": sorted(set(hist.counts.values())),
            "components": len(connected_components(t)),
        },
    )


def check_effective_input_uniformity(
    t: Topology, p, s: Sequence[int], budget: int = DEFAULT_BUDGET
) -> AuditVerdict:
    """Masked inputs must be uniform on the coset preserving the input sum."""
    pv = _as_modulus_value(p)
    sv = _check_inputs(t, pv, s, "s")
    masks = enumerate_mask_distribution(t, pv, budget)
    hist = Histogram()
    for a, c in masks.counts.items():
        hist.bump(tuple((x + y) % pv for x, y in zip(sv, a)), c)
    target = sum(sv) % pv
    support_ok = all(sum(v) % pv == target for v in hist.counts)
    expected_support = pv ** (t.n - 1)
    uniform_ok = (
        len(hist.counts) == expected_support
        and set(hist.counts.values()) == {pv ** (len(t.edges) - t.n + 1)}
    )
    return AuditVerdict(
        claim="input-uniformity",
        method="exact_enumeration",
        passed=support_ok and uniform_ok,
        details={
            "p": pv,
            "sum_mod_p": target,
            "support_size": len(hist.counts),
            "expected_support": expected_support,
        },
    )


def _coalition_edges(t: Topology, members: frozenset[int]) -> list[int]:
    return [k for k, (i, j) in enumerate(t.edges) if i in members or j in members]


def flatten_view_key(view: AdversaryView, t: Topology) -> tuple[int, ...]:
    """The view as one flat int tuple: all effective inputs, then incident
    differences in canonical edge order. Matches the enumeration's binning."""
    eff = tuple(view.all_effective_inputs[i] for i in sorted(view.all_effective_inputs))
    diffs = tuple(
        view.incident_differences[e] for e in t.edges if e in view.incident_differences
    )
    return eff + diffs


def enumerate_view_distribution(
    t: Topology,
    p,
    adversary: AdversarySpec,
    s: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> Histogram:
    """Exact distribution of the coalition view (effective inputs + incident
    differences) induced by uniform edge differences, for a fixed input vector."""
    pv = _as_modulus_value(p)
    sv = _check_inputs(t, pv, s, "s")
    total = _space_size(t, pv, budget)
    inc = incidence_matrix(t).matrix.astype(np.int64)
    cols = _coalition_edges(t, adversary.members)
    base = np.array(sv, dtype=np.int64)
    hist = Histogram()
    for block in _b_chunks(len(t.edges), pv, total):
        eff = (base + block @ inc.T) % pv
        key_block = np.concatenate([eff, block[:, cols]], axis=1) if cols else eff
        uniq, cnt = np.unique(key_block, axis=0, return_counts=True)
        for row, c in zip(uniq, cnt):
            hist.bump(tuple(int(x) for x in row), int(c))
    return hist


def _require_pair_conditions(
    t: Topology, p: int, members: frozenset[int], s, s_prime
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sv = _check_inputs(t, p, s, "s")
    sw = _check_inputs(t, p, s_prime, "s_prime")
    for i in members:
        if not 1 <= i <= t.n:
            raise ValueError(f"coalition member {i} outside 1..{t.n}")
        if sv[i - 1] != sw[i - 1]:
            raise ValueError(
                f"input pairs must agree on coalition member {i} "
                f"({sv[i - 1]} vs {sw[i - 1]})"
            )
    honest = [i for i in t.vertices if i not in members]
    if sum(sv[i - 1] for i in honest) != sum(sw[i - 1] for i in honest):
        raise ValueError("input pairs must have equal sums over the honest agents")
    return sv, sw


def check_view_indistinguishability(
    t: Topology,
    p,
    adversary: AdversarySpec,
    s: Sequence[int],
    s_prime: Sequence[int],
    budget: int = DEFAULT_BUDGET,
) -> AuditVerdict:
    """Exact comparison of coalition view distributions for two input vectors.

    The pair must agree on the coalition and have equal honest sums; the
    protocol's guarantee is identity of the two view distributions whenever
    the coalition is not a vertex cut.
    """
    pv = _as_modulus_value(p)
    members = adversary.members
    sv, sw = _require_pair_conditions(t, pv, members, s, s_prime)
    cut = is_vertex_cut(t, members) if len(members) < t.n else True
    h_s = enumerate_view_distribution(t, pv, adversary, sv, budget)
    h_w = enumerate_view_distribution(t, pv, adversary, sw, budget)
    identical = h_s == h_w
    return AuditVerdict(
        claim="view-identity",
        method="exact_enumeration",
        passed=identical,
        details={
            "p": pv,
            "coalition": sorted(members),
            "is_vertex_cut": cut,
            "claim_applies": not cut,
            "support_size": len(h_s.counts),
        },
    )


def _cuts_group(t: Topology, members: frozenset[int], group: frozenset[int]) -> bool:
    # the coalition cuts the group if its members end up in >1 surviving component
    comps = connected_components(t, set(t.vertices) - members)
    return sum(1 for comp in comps if comp & group) > 1


def check_group_privacy(
    t: Topology,
    p,
    adversary: AdversarySpec,
    group: Iterable[int],
    s: Sequence[int],
    s_prime: Sequence[int],
    budget: int = DEFAULT_BUDGET,
    samples: Optional[int] = None,
    alpha: float = 0.01,
    seed: int = 0,
) -> AuditVerdict:
    """Privacy of one honest group: inputs varying only inside the group, with
    the group sum held fixed, must leave the coalition view distribution alone.

    Small spaces are enumerated exactly; beyond the budget a sampled
    chi-square runs when `samples` is given. A singleton group is reported as
    vacuous: its sum is its value, revealed by design.
    """
    pv = _as_modulus_value(p)
    members = adversary.members
    h_set = frozenset(group)
    if not h_set:
        raise ValueError("group must be non-empty")
    if h_set & members:
        raise ValueError(f"group overlaps the coalition: {sorted(h_set & members)}")
    for i in h_set:
        if not 1 <= i <= t.n:
            raise ValueError(f"group member {i} outside 1..{t.n}")
    sv = _check_inputs(t, pv, s, "s")
    sw = _check_inputs(t, pv, s_prime, "s_prime")
    for i in t.vertices:
        if i not in h_set and sv[i - 1] != sw[i - 1]:
            raise ValueError(f"input pairs must agree outside the group (agent {i})")
    if sum(sv[i - 1] for i in h_set) != sum(sw[i - 1] for i in h_set):
        raise ValueError("input pairs must have equal sums over the group")

    cut = _cuts_group(t, members, h_set)
    base_details = {
        "p": pv,
        "coalition": sorted(members),
        "group": sorted(h_set),
        "group_cut_by_coalition": cut,
        "claim_applies": not cut,
    }
    if len(h_set) == 1:
        (lone,) = h_set
        return AuditVerdict(
            claim="group-privacy",
            method="exact_enumeration",
            passed=False,
            details={
                **base_details,
                "vacuous": True,
                "reason": f"singleton group: agent {lone}'s value equals its group sum",
            },
        )

    try:
        h_s = enumerate_view_distribution(t, pv, adversary, sv, budget)
        h_w = enumerate_view_distribution(t, pv, adversary, sw, budget)
    except EnumerationBudgetError:
        if samples is None:
            raise
        sub = sampled_view_test(t, pv, adversary, sv, sw, samples, alpha=alpha, seed=seed)
        # group-level claim_applies must win over the sub-test's whole-graph one
        return AuditVerdict(
            claim="group-privacy",
            method="chi_square",
            passed=sub.passed,
            statistic=sub.statistic,
            pvalue=sub.pvalue,
            alpha=sub.alpha,
            details={**sub.details, **base_details},
        )
    return AuditVerdict(
        claim="group-privacy",
        method="exact_enumeration",
        passed=h_s == h_w,
        details={**base_details, "support_size": len(h_s.counts)},
    )


def _sample_view_keys(
    t: Topology,
    p: int,
    s: tuple[int, ...],
    coalition_edge_idx: list[int],
    rngs: Mapping[int, SeededRng],
    samples: int,
) -> list[tuple[int, ...]]:
    # Mirrors the production draw order (each agent serves neighbors in
    # ascending id order) without the protocol-bound validation, which audit
    # scenarios may legitimately violate.
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


def chi2_contingency(*args, **kwargs):
    """`scipy.stats.chi2_contingency`, imported on first call: scipy.stats is
    most of the package's import time and memory, and only sampled audits use it."""
    from scipy.stats import chi2_contingency as scipy_chi2_contingency

    return scipy_chi2_contingency(*args, **kwargs)


def _two_sample_chi_square(bins_a: Mapping, bins_b: Mapping) -> tuple[float, float]:
    outcomes = sorted(set(bins_a) | set(bins_b))
    if len(outcomes) == 1:
        return 0.0, 1.0
    table = np.array(
        [[bins_a.get(o, 0) for o in outcomes], [bins_b.get(o, 0) for o in outcomes]]
    )
    res = chi2_contingency(table, correction=False)
    if res.expected_freq.min() < 5:
        raise ValueError(
            f"expected count {res.expected_freq.min():.2f} below 5 in some bin; "
            "increase samples or reduce p"
        )
    return float(res.statistic), float(res.pvalue)


def sampled_view_test(
    t: Topology,
    p,
    adversary: AdversarySpec,
    s: Sequence[int],
    s_prime: Sequence[int],
    samples: int,
    alpha: float = 0.01,
    seed: int = 0,
) -> AuditVerdict:
    """Two-sample chi-square over sampled coalition views.

    Bins are whole view tuples while the outcome space stays small (at most
    10^4); past that, the honest-sum marginal and each incident difference are
    tested separately under a Bonferroni correction. Passing means failing to
    reject identity at `alpha`; coalitions that cut the graph are expected to
    be rejected loudly, and the statistic is reported either way.
    """
    pv = _as_modulus_value(p)
    members = adversary.members
    sv, sw = _require_pair_conditions(t, pv, members, s, s_prime)
    if samples < 1:
        raise ValueError("samples must be positive")
    if sv == sw:
        # equal vectors induce the same distribution by construction; an
        # actual two-sample test would still reject a fraction alpha of runs
        return AuditVerdict(
            claim="sampled-view",
            method="chi_square",
            passed=True,
            statistic=0.0,
            pvalue=1.0,
            alpha=alpha,
            details={"p": pv, "coalition": sorted(members), "identical_inputs": True},
        )
    cols = _coalition_edges(t, members)
    honest = [i for i in t.vertices if i not in members]

    keys_per_vector = []
    for idx, vec in enumerate((sv, sw)):
        rngs = {i: SeededRng(seed, (idx, i)) for i in t.vertices}
        keys_per_vector.append(_sample_view_keys(t, pv, vec, cols, rngs, samples))

    space_estimate = min(pv ** len(t.edges), pv ** (t.n - 1 + len(cols)))
    cut = is_vertex_cut(t, members) if len(members) < t.n else True
    details: dict = {
        "p": pv,
        "coalition": sorted(members),
        "samples_per_vector": samples,
        "is_vertex_cut": cut,
        "claim_applies": not cut,
    }

    if space_estimate <= _FULL_BIN_LIMIT:
        bins = []
        for keys in keys_per_vector:
            h = Histogram()
            for k in keys:
                h.bump(k)
            bins.append(h.counts)
        stat, pvalue = _two_sample_chi_square(bins[0], bins[1])
        details["binning"] = "full_view"
        adjusted = pvalue
    else:
        # marginal fallback: the honest-sum coordinate plus each incident edge
        marginal_stats = []
        marginal_ps = []
        n_eff = t.n
        for m in range(1 + len(cols)):
            bins = []
            for keys in keys_per_vector:
                h = Histogram()
                for k in keys:
                    if m == 0:
                        h.bump((sum(k[i - 1] for i in honest) % pv,))
                    else:
                        h.bump((k[n_eff + m - 1],))
                bins.append(h.counts)
            stat_m, p_m = _two_sample_chi_square(bins[0], bins[1])
            marginal_stats.append(stat_m)
            marginal_ps.append(p_m)
        worst = int(np.argmin(marginal_ps))
        stat = marginal_stats[worst]
        adjusted = min(1.0, marginal_ps[worst] * (1 + len(cols)))
        details["binning"] = "marginals"
        details["marginal_pvalues"] = [float(x) for x in marginal_ps]
    return AuditVerdict(
        claim="sampled-view",
        method="chi_square",
        passed=adjusted >= alpha,
        statistic=stat,
        pvalue=adjusted,
        alpha=alpha,
        details=details,
    )
