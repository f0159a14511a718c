"""Distribution audits: exact enumeration oracles with a sampled fallback.

The protocol's privacy claims are exact distribution identities, so the
preferred check is to enumerate every edge-difference assignment and compare
histograms outcome by outcome. Mask vectors are the incidence matrix applied
to the difference vector, which is why enumeration can run over Z_p^|E|
instead of the quadratically larger raw share space. Enumeration walks the
space in chunks of 2^15 rows; each view row becomes one mixed-radix code
(a Python int once p^width reaches 2^63, else int64), each chunk is counted
with one 1-D sort and merged into a running sorted (code, count) pair, so
memory follows the support, not p^|E|. The resulting histogram keeps the
sorted (code, count) arrays: verdicts compare and count on them, and outcome
tuples are decoded only on demand (histogram.csv, library callers). Sampled
views are binned on the same codes. The default budget (10^7 rows, e.g. a
6-vertex graph with 10 edges at p = 5) takes about 1.6 s on a 2-core x86 box.
When the space is too big, a seeded two-sample chi-square over binned
coalition views stands in; negative controls (coalitions that cut the graph)
must visibly leak there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .masking import AdversarySpec
from .residues import Modulus, SeededRng
from .topology import Topology, _require_vertices, connected_components, is_vertex_cut

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
    "histogram_csv",
    "sampled_view_test",
]

DEFAULT_BUDGET = 10**7
_FULL_BIN_LIMIT = 10**4


class EnumerationBudgetError(ValueError):
    """The b-vector space is too large to enumerate; use sampled_view_test."""


class _CodeCounts(Mapping):
    """Outcome tuple -> count, held as sorted, duplicate-free mixed-radix codes
    (base p, `width` digits, first digit most significant; see _count_rows)
    with a parallel count array. The tuples are decoded on first iteration or
    lookup; len() and equality with another such mapping read the arrays."""

    def __init__(self, codes: np.ndarray, counts: np.ndarray, p: int, width: int) -> None:
        self.codes, self.counts, self.p, self.width = codes, counts, p, width
        self._decoded: Optional[dict[tuple, int]] = None

    def rows(self) -> np.ndarray:
        # the outcomes as digit rows, most significant digit first
        return _digits(self.codes, self.p, self.width)[:, ::-1]

    def decoded(self) -> dict[tuple, int]:
        if self._decoded is None:
            self._decoded = dict(zip(_row_tuples(self.rows()), self.counts.tolist()))
        return self._decoded

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.decoded())

    def __getitem__(self, outcome: tuple) -> int:
        return self.decoded()[outcome]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _CodeCounts) and (self.p, self.width) == (other.p, other.width):
            return np.array_equal(self.codes, other.codes) and np.array_equal(self.counts, other.counts)
        return self.decoded() == other

    def __repr__(self) -> str:
        return repr(self.decoded())


@dataclass
class Histogram:
    """Counts per outcome tuple. Enumerated histograms hold them as sorted
    view codes and decode tuples only when `counts` is iterated or indexed."""

    counts: Mapping[tuple, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Histogram) and self.counts == other.counts

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        # (outcome rows, counts) as arrays in outcome order, with no tuples
        # for enumerated ones, whose codes already sort as the outcomes do
        c = self.counts
        if isinstance(c, _CodeCounts):
            return c.rows(), c.counts
        items = sorted(c.items())
        return (np.array([o for o, _ in items], dtype=object),
                np.array([k for _, k in items], dtype=object))


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
    rows, counts = hist._table()
    lines = ["outcome,count"]
    lines += [
        f"\"{' '.join(map(str, row))}\",{count}"
        for row, count in zip(rows.tolist(), counts.tolist())
    ]
    return "\n".join(lines) + "\n"


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
    if total >= 2**63:
        raise EnumerationBudgetError(
            f"enumeration needs {total} b-vectors, past the 2^63 that int64 "
            "chunk codes can index; use sampled_view_test instead"
        )
    return total


def _digits(codes: np.ndarray, p: int, width: int) -> np.ndarray:
    # mixed-radix decode of int64 or Python-int codes into base-p digit rows,
    # least significant first (np.divmod has no object loop); built column by
    # column, so the rows are a Fortran-ordered view
    digits = np.empty((width, len(codes)), dtype=codes.dtype)
    for k in range(width):
        digits[k] = codes % p
        codes = codes // p
    return digits.T


def _b_chunks(num_edges: int, p: int, total: int, chunk: int = 1 << 15) -> Iterator[np.ndarray]:
    # every edge-difference vector, as the base-p digit rows of 0..total-1
    for start in range(0, total, chunk):
        yield _digits(np.arange(start, min(start + chunk, total), dtype=np.int64), p, num_edges)


def _view_rows(t: Topology, p: int, s: Sequence[int], cols: list[int], b: np.ndarray) -> np.ndarray:
    """Coalition views, one row per row of edge differences `b`: the effective
    inputs (s + b·Bᵀ) mod p, then the coalition's columns of b.

    B·bᵀ is summed edge by edge, +b_k at the edge's first vertex and -b_k at
    its second, on one contiguous array per view column; the rows come back
    as a Fortran-ordered view of those columns. Entries stay below p·(|E|+1)
    in absolute value before the reduction, so int64 holds them exactly below
    that bound; past it (p near 2^64) the rows are Python ints."""
    dtype = np.int64 if p * (len(t.edges) + 1) < 2**63 else object
    b = np.ascontiguousarray(b.T, dtype=dtype)  # one row per edge
    columns = np.empty((t.n + len(cols), b.shape[1]), dtype=dtype)
    eff = columns[: t.n]
    eff[:] = np.array(s, dtype=dtype)[:, None]
    for k, (i, j) in enumerate(t.edges):
        eff[i - 1] += b[k]
        eff[j - 1] -= b[k]
    eff %= p
    columns[t.n :] = b[cols]
    return columns.T


def _row_tuples(rows: np.ndarray) -> Iterator[tuple[int, ...]]:
    # Rows as tuples of Python ints, zipped from one list per column. One list
    # per row (rows.tolist()) would hold up to 3·10^4 live lists at once; they
    # outlive the young GC generations and set off full collections, each a
    # walk over every object of the process. Tuples of ints get untracked.
    return zip(*rows.T.tolist())


def _count_rows(rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of residues mod p as sorted mixed-radix codes, with counts.
    The first column is the most significant digit, so codes sort as the row
    tuples do; they are int64 while p^width < 2^63, Python ints past that."""
    codes = np.zeros(len(rows), dtype=np.int64 if p ** rows.shape[1] < 2**63 else object)
    for k in range(rows.shape[1]):
        codes = codes * p + rows[:, k]
    return np.unique(codes, return_counts=True)


def _bins(rows: np.ndarray, p: int) -> dict[int, int]:
    # code -> count of each distinct row, keys sorting as the row tuples do
    codes, counts = _count_rows(rows, p)
    return dict(zip(codes.tolist(), counts.tolist()))


def _merge_counts(
    codes: np.ndarray, counts: np.ndarray, more: np.ndarray, more_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # sorted union of two sorted, duplicate-free code arrays; counts of codes in
    # both are summed into `counts` in place
    pos = np.searchsorted(codes, more)
    seen = pos < len(codes)
    seen[seen] = codes[pos[seen]] == more[seen]
    counts[pos[seen]] += more_counts[seen]
    fresh = ~seen
    return np.insert(codes, pos[fresh], more[fresh]), np.insert(counts, pos[fresh], more_counts[fresh])


def _enumerate_views(t: Topology, p: int, s: Sequence[int], cols: list[int], budget: int) -> Histogram:
    # histogram of _view_rows over every edge-difference vector
    chunks = _b_chunks(len(t.edges), p, _space_size(t, p, budget))
    codes, counts = _count_rows(_view_rows(t, p, s, cols, next(chunks)), p)
    for b in chunks:
        codes, counts = _merge_counts(codes, counts, *_count_rows(_view_rows(t, p, s, cols, b), p))
    return Histogram(_CodeCounts(codes, counts, p, t.n + len(cols)))


def enumerate_mask_distribution(t: Topology, p, budget: int = DEFAULT_BUDGET) -> Histogram:
    """Exact histogram of mask vectors over every edge-difference assignment.

    Runs on disconnected graphs too: their support shrinks to the product of
    per-component zero-sum hyperplanes, which the rank audits rely on seeing.
    """
    return _enumerate_views(t, _as_modulus_value(p), (0,) * t.n, [], budget)


def check_mask_uniformity(t: Topology, p, budget: int = DEFAULT_BUDGET) -> AuditVerdict:
    """Masks must cover the zero-sum hyperplane uniformly (connected graphs)."""
    pv = _as_modulus_value(p)
    return _mask_uniformity_verdict(t, pv, enumerate_mask_distribution(t, pv, budget))


def _mask_uniformity_verdict(t: Topology, pv: int, hist: Histogram) -> AuditVerdict:
    # the verdict of check_mask_uniformity from an already enumerated histogram
    return _coset_uniformity_verdict(
        "mask-uniformity", t, pv, hist, 0,
        count_values=np.unique(hist._table()[1]).tolist(),
        components=len(connected_components(t)),
    )


def _coset_uniformity_verdict(
    claim: str, t: Topology, pv: int, hist: Histogram, target: int, **details
) -> AuditVerdict:
    # outcomes uniform on the coset of vectors summing to `target` mod p, s + Im B
    # on a connected graph: p^(n-1) outcomes, p^(|E|-n+1) rows each; masks are s = 0
    rows, counts = hist._table()
    expected_support = pv ** (t.n - 1)
    passed = (
        len(counts) == expected_support
        and np.unique(counts).tolist() == [pv ** (len(t.edges) - t.n + 1)]
        and bool((rows.sum(axis=1) % pv == target).all())
    )
    return AuditVerdict(
        claim=claim,
        method="exact_enumeration",
        passed=passed,
        details={
            "p": pv,
            "support_size": len(counts),
            "expected_support": expected_support,
            **details,
        },
    )


def check_effective_input_uniformity(
    t: Topology, p, s: Sequence[int], budget: int = DEFAULT_BUDGET
) -> AuditVerdict:
    """Masked inputs must be uniform on the coset preserving the input sum."""
    pv = _as_modulus_value(p)
    sv = _check_inputs(t, pv, s, "s")
    hist = enumerate_view_distribution(t, pv, AdversarySpec(()), sv, budget)
    target = sum(sv) % pv
    return _coset_uniformity_verdict("input-uniformity", t, pv, hist, target, sum_mod_p=target)


def _coalition_edges(t: Topology, members: frozenset[int]) -> list[int]:
    return [k for k, (i, j) in enumerate(t.edges) if i in members or j in members]


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
    return _enumerate_views(t, pv, sv, _coalition_edges(t, adversary.members), budget)


def _require_pair_conditions(
    t: Topology, p: int, members: frozenset[int], s, s_prime
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    sv = _check_inputs(t, p, s, "s")
    sw = _check_inputs(t, p, s_prime, "s_prime")
    _require_vertices(t, members, "coalition member")
    for i in members:
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
    _require_vertices(t, members, "coalition member")
    h_set = frozenset(group)
    if not h_set:
        raise ValueError("group must be non-empty")
    if h_set & members:
        raise ValueError(f"group overlaps the coalition: {sorted(h_set & members)}")
    _require_vertices(t, h_set, "group member")
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


def _sample_view_rows(
    t: Topology,
    p: int,
    s: tuple[int, ...],
    coalition_edge_idx: list[int],
    rngs: Mapping[int, SeededRng],
    samples: int,
) -> np.ndarray:
    # Each agent's stream yields `samples` rounds of one share per neighbor in
    # ascending id order, the order init_shares draws in, without the
    # protocol-bound validation, which audit scenarios may legitimately violate.
    sent = {}
    for i in t.vertices:
        nbrs = sorted(t.neighbors(i))
        block = rngs[i].randints_below(p, samples * len(nbrs)).reshape(samples, len(nbrs))
        for c, j in enumerate(nbrs):
            sent[(i, j)] = block[:, c]
    b = np.empty((len(t.edges), samples), dtype=np.uint64)
    for k, (i, j) in enumerate(t.edges):
        got, out = sent[(j, i)], sent[(i, j)]
        b[k] = got - out  # wraps mod 2^64 where got < out; adding p unwraps
        b[k, got < out] += np.uint64(p)
    return _view_rows(t, p, s, coalition_edge_idx, b.T)


def _marginal_bins(rows: np.ndarray, p: int, honest: list[int], num_cols: int) -> list[dict[int, int]]:
    """Counts of the honest-sum marginal (sum of the honest agents' effective
    inputs mod p), then of each incident-difference column, over view rows."""
    n = rows.shape[1] - num_cols
    total = rows[:, [i - 1 for i in honest]]
    if p * len(honest) >= 2**63:  # the int64 sum could overflow
        total = total.astype(object)
    columns = [total.sum(axis=1) % p] + [rows[:, n + m] for m in range(num_cols)]
    return [_bins(column[:, None], p) for column in columns]


def chi2_contingency(table: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Pearson's chi-square test of independence on a 2×k table of counts with
    no empty column, without continuity correction: (statistic, p-value,
    expected table).

    The expected table is the outer product of the row and column sums divided
    by the total; the statistic is ((o − e)**2 / e).sum() and the p-value the
    chi-square survival function at k − 1 degrees of freedom,
    `scipy.special.chdtrc`. These are the float operations of
    `scipy.stats.chi2_contingency(table, correction=False)` in the same order,
    so all three agree with it bit for bit. scipy.special is imported on first
    call; only sampled audits need it."""
    from scipy.special import chdtrc

    observed = np.asarray(table, dtype=np.float64)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    statistic = ((observed - expected) ** 2 / expected).sum()
    return statistic, chdtrc(observed.shape[1] - 1, statistic), expected


def _two_sample_chi_square(bins_a: Mapping, bins_b: Mapping) -> tuple[float, float]:
    outcomes = sorted(set(bins_a) | set(bins_b))
    if len(outcomes) == 1:
        return 0.0, 1.0
    table = np.array(
        [[bins_a.get(o, 0) for o in outcomes], [bins_b.get(o, 0) for o in outcomes]]
    )
    statistic, pvalue, expected = chi2_contingency(table)
    if expected.min() < 5:
        raise ValueError(
            f"expected count {expected.min():.2f} below 5 in some bin; "
            "increase samples or reduce p"
        )
    return float(statistic), float(pvalue)


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
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
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

    rows_per_vector = []
    for idx, vec in enumerate((sv, sw)):
        rngs = {i: SeededRng(seed, (idx, i)) for i in t.vertices}
        rows_per_vector.append(_sample_view_rows(t, pv, vec, cols, rngs, samples))

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
        stat, pvalue = _two_sample_chi_square(*(_bins(r, pv) for r in rows_per_vector))
        details["binning"] = "full_view"
        adjusted = pvalue
    else:
        # marginal fallback: the honest-sum coordinate plus each incident edge
        marginal_stats = []
        marginal_ps = []
        bins_a, bins_b = (_marginal_bins(r, pv, honest, len(cols)) for r in rows_per_vector)
        for a, b in zip(bins_a, bins_b):
            stat_m, p_m = _two_sample_chi_square(a, b)
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
