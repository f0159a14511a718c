"""Distribution audits: exact enumeration oracles with a sampled fallback.

The protocol's privacy claims are exact distribution identities, so the
preferred check is to count the views of every edge-difference assignment
and compare histograms outcome by outcome. Mask vectors are the incidence
matrix applied to the difference vector, so a coalition's view is (s, 0)
plus Σ_k b_k·v_k over independent uniform b_k, where v_k is edge k's view
column. Enumeration (see _enumerate_views) therefore convolves the point
(s, 0) with the uniform law on each line {b·v_k}, one edge at a time,
merging equal views; its work and memory follow the support, at most |E|·p
times it, while the budget still counts the p^|E| assignments. Every audit
holds views the same way: as mixed-radix codes of the view columns reduced
mod p (int64 while p^width < 2^63, Python ints past that; see _encode).
`_count` tallies the distinct codes of sampled views in sorted order, by
one bincount while the code space is no larger than the number of codes and
by one sort past that. A `Histogram` keeps the sorted (code, count) arrays:
verdicts and histogram.csv compare, count and format on them, and digit
rows and outcome tuples are decoded once, on first use. Sampled audits
encode and count whole views, or count each marginal (the honest sum, then
each incident difference) as a one-digit code; marginals draw only the
streams of the coalition and its neighbors, since the differences on
honest-honest edges cancel in the honest sum. At the default budget (10^7
assignments, e.g. a 6-ring with 4 chords at p = 5) the masks take about
3 ms and the views of the degree-5 vertex, 1.95·10^6 outcomes, about 0.1 s
on a shared 2-core Intel Xeon box (min of 3; Python 3.11, numpy 2.4). When
the space is too big, a seeded two-sample chi-square over binned coalition
views stands in; negative controls (coalitions that cut the graph) must
visibly leak there.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .masking import AdversarySpec
from .residues import Modulus, SeededRng
from .topology import Topology, _require_vertices, connected_components

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


class Histogram(Mapping):
    """Outcome tuple -> count, read-only, held as sorted, duplicate-free
    mixed-radix codes (base p, `width` digits, first digit most significant;
    see _encode) with a parallel `tallies` array. The digit rows and the
    tuples are each decoded once, on first use; len(), `total` and equality
    with a histogram of the same p and width read the arrays."""

    def __init__(self, codes: np.ndarray, tallies: np.ndarray, p: int, width: int) -> None:
        self.codes, self.tallies, self.p, self.width = codes, tallies, p, width
        self._rows: Optional[np.ndarray] = None
        self._decoded: Optional[dict[tuple, int]] = None

    @property
    def counts(self) -> Histogram:
        # the histogram itself, for callers that read `hist.counts`
        return self

    @property
    def total(self) -> int:
        return int(self.tallies.sum())

    def rows(self) -> np.ndarray:
        # the outcomes as read-only digit rows, most significant digit first
        if self._rows is None:
            self._rows = _digits(self.codes, self.p, self.width)[:, ::-1]
            self._rows.flags.writeable = False
        return self._rows

    def _decode(self) -> dict[tuple, int]:
        if self._decoded is None:
            self._decoded = dict(zip(_row_tuples(self.rows()), self.tallies.tolist()))
        return self._decoded

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._decode())

    def __getitem__(self, outcome: tuple) -> int:
        return self._decode()[outcome]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Histogram) and (self.p, self.width) == (other.p, other.width):
            return np.array_equal(self.codes, other.codes) and np.array_equal(self.tallies, other.tallies)
        return self._decode() == other

    def __repr__(self) -> str:
        return f"Histogram({self._decode()!r})"


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
    # `"d1 d2 …",count` per outcome, in code order. Each distinct digit and
    # count is formatted once, with its separators, and the rows are joined
    # from per-column maps without a Python-level loop per digit.
    digits = hist.rows().T.tolist()
    counts = hist.tallies.tolist()
    values = set().union(*digits)
    first = {v: f'"{v}' for v in values}
    later = {v: f" {v}" for v in values}
    tail = {c: f'",{c}\n' for c in set(counts)}
    columns = [map(first.__getitem__, digits[0])] + [map(later.__getitem__, col) for col in digits[1:]]
    return "outcome,count\n" + "".join(map("".join, zip(*columns, map(tail.__getitem__, counts))))


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
    # p^|E|, refused past the budget or 2^63 (the int64 tallies sum to it);
    # as p >= 2, |E| >= the budget's bit length is past the budget, and there
    # p^|E| is never built
    m = len(t.edges)
    total = p**m if m < budget.bit_length() else None
    if total is not None and total <= budget and total < 2**63:
        return total
    from .consensus import number_text, short_text  # only a refusal writes the count

    size = f"{p}^{m}" if total is None else short_text(number_text(total))
    if total is None or total > budget:
        raise EnumerationBudgetError(
            f"enumeration needs {size} b-vectors (> budget {budget}); "
            "use sampled_view_test instead"
        )
    raise EnumerationBudgetError(
        f"enumeration needs {size} b-vectors, past the 2^63 that int64 "
        "chunk codes can index; use sampled_view_test instead"
    )


def _digits(codes: np.ndarray, p: int, width: int) -> np.ndarray:
    # mixed-radix decode of int64 or Python-int codes into base-p digit rows,
    # least significant first (np.divmod has no object loop); built column by
    # column, so the rows are a Fortran-ordered view
    digits = np.empty((width, len(codes)), dtype=codes.dtype)
    for k in range(width):
        digits[k] = codes % p
        codes = codes // p
    return digits.T


def _view_columns(t: Topology, s: Sequence, cols: list[int], b: Sequence) -> list:
    """The view columns before reduction mod p: the effective inputs s + B·b,
    one per vertex (+b_k at edge k's first vertex, -b_k at its second), then
    the coalition's entries of b. `b` holds one entry per edge, an int or an
    array, and the entries broadcast together; a vertex no edge touches keeps
    its entry of s."""
    sums = list(s)
    for (i, j), bk in zip(t.edges, b):
        sums[i - 1] = sums[i - 1] + bk
        sums[j - 1] = sums[j - 1] - bk
    return sums + [b[k] for k in cols]


def _row_tuples(rows: np.ndarray) -> Iterator[tuple[int, ...]]:
    # Rows as tuples of Python ints, zipped from one list per column. One list
    # per row (rows.tolist()) would hold up to 3·10^4 live lists at once; they
    # outlive the young GC generations and set off full collections, each a
    # walk over every object of the process. Tuples of ints get untracked.
    return zip(*rows.T.tolist())


def _encode(columns: Sequence, p: int, shape: tuple[int, ...]) -> np.ndarray:
    """Mixed-radix codes of views whose columns broadcast to `shape`: each column
    reduced mod p and folded in by Horner, the first most significant, so codes
    sort as outcome tuples do; int64 while p^width < 2^63, else Python ints."""
    codes = np.zeros(shape, dtype=np.int64 if p ** len(columns) < 2**63 else object)
    for column in columns:
        codes *= p
        codes += column % p
    return codes


def _count(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct entries of a 1-D array of codes in [0, space), with
    their tallies: by one bincount while the space, the bincount's table, is
    no larger than the array (so the codes fit int64), else by a sort."""
    if space <= len(codes):
        tallies = np.bincount(codes.astype(np.int64, copy=False), minlength=space)
        seen = np.flatnonzero(tallies)
        return seen, tallies[seen]
    return np.unique(codes, return_counts=True)


def _shift(codes: np.ndarray, p: int, wi: int, wj: int, wc: int) -> np.ndarray:
    """Every code shifted by b·v for b = 0..p-1, b-major: b added mod p to
    the digit of weight wi, subtracted mod p from the digit of weight wj and
    added to the digit of weight wc, which is 0 before (wc = 0 for none).
    Each step keeps the values inside (-p^width, p^width), so int64 codes
    never wrap."""
    b = np.arange(p, dtype=codes.dtype)[:, None]
    shifted = codes - b * wj
    np.add(shifted, p * wj, out=shifted, where=b > codes // wj % p)
    np.subtract(shifted, p * wi, out=shifted, where=b >= p - codes // wi % p)
    shifted += b * (wi + wc)
    return shifted.reshape(-1)


def _sort(codes: np.ndarray, tallies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # codes sorted, with their tallies: entry e of `codes` is a shift of the
    # point that tallies[e % len(tallies)] counts
    order = np.argsort(codes)
    codes = codes[order]
    order %= len(tallies)
    return codes, tallies[order]


def _enumerate_views(t: Topology, p: int, s: Sequence[int], cols: list[int], budget: int) -> Histogram:
    """Histogram of the view columns over every edge-difference vector, by
    convolution, one edge at a time.

    The view is (s, 0) + Σ_k b_k·v_k over independent uniform b_k, where
    edge k's view column v_k is +1 at its first vertex, -1 at its second and
    +1 at its own coalition column if it has one. So from the single point
    (s, 0), each edge shifts every point by b·v_k for b = 0..p-1 (see
    _shift), on codes (see _encode) with a tally each. The edges that miss
    the coalition come first, and after each one equal codes merge, their
    tallies summed. The coalition's edges come last, unmerged: each writes b
    into a column of its own, so its shifted rows stay distinct. One sort
    orders them at the end. The work is at most |E|·p times the support."""
    _space_size(t, p, budget)
    width = t.n + len(cols)
    weights = [p ** (width - 1 - c) for c in range(width)]
    own = dict(zip(cols, weights[t.n:]))
    start = sum(v * w for v, w in zip(s, weights))  # the code of (s, 0)
    codes = np.full(1, start, dtype=np.int64 if p**width < 2**63 else object)
    tallies = np.ones(1, dtype=np.int64)
    for k in [k for k in range(len(t.edges)) if k not in own] + cols:
        i, j = t.edges[k]
        codes = _shift(codes, p, weights[i - 1], weights[j - 1], own.get(k, 0))
        if k not in own:
            codes, tallies = _sort(codes, tallies)
            fresh = np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))
            codes, tallies = codes[fresh], np.add.reduceat(tallies, fresh)
    return Histogram(*_sort(codes, tallies), p, width)


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
        count_values=np.unique(hist.tallies).tolist(),
        components=len(connected_components(t)),
    )


def _coset_uniformity_verdict(
    claim: str, t: Topology, pv: int, hist: Histogram, target: int, **details
) -> AuditVerdict:
    # outcomes uniform on the coset of vectors summing to `target` mod p, s + Im B
    # on a connected graph: p^(n-1) outcomes, p^(|E|-n+1) rows each; masks are s = 0
    expected_support = pv ** (t.n - 1)
    passed = (
        len(hist) == expected_support
        and bool((hist.tallies == pv ** (len(t.edges) - t.n + 1)).all())
        and bool((hist.rows().sum(axis=1) % pv == target).all())
    )
    return AuditVerdict(
        claim=claim,
        method="exact_enumeration",
        passed=passed,
        details={
            "p": pv,
            "support_size": len(hist),
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


def _pair_inputs(
    t: Topology, p: int, members: frozenset[int], s, s_prime, group: Optional[frozenset[int]] = None
) -> tuple[tuple[int, ...], tuple[int, ...], frozenset[int]]:
    """The one precondition of every pair claim: s and s_prime agree outside
    the group and have equal sums over it. The group is the honest agents
    V∖C unless one is given; a given group must be non-empty, inside V and
    disjoint from the coalition. Returns (s, s_prime, group)."""
    _require_vertices(t, members, "coalition member")
    if group is None:
        group, name = frozenset(t.vertices) - members, "the honest agents"
    else:
        if not group:
            raise ValueError("group must be non-empty")
        if group & members:
            raise ValueError(f"group overlaps the coalition: {sorted(group & members)}")
        _require_vertices(t, group, "group member")
        name = "the group"
    sv = _check_inputs(t, p, s, "s")
    sw = _check_inputs(t, p, s_prime, "s_prime")
    for i in t.vertices:
        if i not in group and sv[i - 1] != sw[i - 1]:
            raise ValueError(
                f"input pairs must agree outside {name}: agent {i} has {sv[i - 1]} vs {sw[i - 1]}"
            )
    if sum(sv[i - 1] for i in group) != sum(sw[i - 1] for i in group):
        raise ValueError(f"input pairs must have equal sums over {name}")
    return sv, sw, group


def _cuts_group(t: Topology, members: frozenset[int], group: frozenset[int]) -> bool:
    # whether the group meets more than one component of G - C; for the honest
    # agents that is "C is a vertex cut". An empty group (C = V) counts as cut.
    comps = connected_components(t, set(t.vertices) - members)
    return sum(1 for comp in comps if comp & group) != 1


def _exact_pair_verdict(
    claim: str, t: Topology, pv: int, adversary: AdversarySpec, sv, sw, budget: int, details: dict
) -> AuditVerdict:
    # both view distributions enumerated and compared outcome by outcome;
    # EnumerationBudgetError past the budget
    h_s = enumerate_view_distribution(t, pv, adversary, sv, budget)
    h_w = enumerate_view_distribution(t, pv, adversary, sw, budget)
    return AuditVerdict(
        claim=claim,
        method="exact_enumeration",
        passed=h_s == h_w,
        details={**details, "support_size": len(h_s)},
    )


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
    sv, sw, honest = _pair_inputs(t, pv, members, s, s_prime)
    cut = _cuts_group(t, members, honest)
    return _exact_pair_verdict(
        "view-identity", t, pv, adversary, sv, sw, budget,
        {"p": pv, "coalition": sorted(members), "is_vertex_cut": cut, "claim_applies": not cut},
    )


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
    sv, sw, h_set = _pair_inputs(t, pv, members, s, s_prime, frozenset(group))
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
        return _exact_pair_verdict("group-privacy", t, pv, adversary, sv, sw, budget, base_details)
    except EnumerationBudgetError:
        if samples is None:
            raise
        sub = sampled_view_test(t, pv, adversary, sv, sw, samples, alpha=alpha, seed=seed)
        # group-level claim_applies must win over the sub-test's whole-graph one
        return replace(sub, claim="group-privacy", details={**sub.details, **base_details})


def _sample_differences(
    t: Topology, p: int, edges: Sequence[int], rngs: Mapping[int, SeededRng], samples: int
) -> np.ndarray:
    # The differences on the given edges (indices into t.edges), as uint64 in
    # [0, p), one row per edge and one entry per sample. Only the edges'
    # endpoints are drawn: each one's stream yields `samples` rounds of one
    # share per neighbor in ascending id order, the order init_shares draws in,
    # without the protocol-bound validation, which audit scenarios may
    # legitimately violate. The blocks sit side by side, one column per sent
    # share; each edge's received and sent columns are gathered at once and
    # differenced mod p.
    pairs = [t.edges[k] for k in edges]
    if not pairs:
        return np.empty((0, samples), dtype=np.uint64)
    blocks, column = [], {}
    for i in sorted({v for pair in pairs for v in pair}):
        nbrs = sorted(t.neighbors(i))
        column.update({(i, j): len(column) + c for c, j in enumerate(nbrs)})
        blocks.append(rngs[i].randints_below(p, samples * len(nbrs)).reshape(samples, len(nbrs)))
    sent = np.concatenate(blocks, axis=1)
    got = sent[:, [column[(j, i)] for i, j in pairs]]
    out = sent[:, [column[(i, j)] for i, j in pairs]]
    b = got - out  # wraps mod 2^64 where got < out; adding p unwraps
    b += (got < out) * np.uint64(p)
    return b.T


def _sample_view_columns(
    t: Topology,
    p: int,
    s: tuple[int, ...],
    coalition_edge_idx: list[int],
    rngs: Mapping[int, SeededRng],
    samples: int,
) -> list[np.ndarray]:
    # The unreduced view columns, one entry per sample, from every agent's
    # stream: they stay below p·(|E|+1) in absolute value, so int64 holds them
    # exactly below 2^63.
    dtype = np.int64 if p * (len(t.edges) + 1) < 2**63 else object
    b = np.ascontiguousarray(_sample_differences(t, p, range(len(t.edges)), rngs, samples), dtype=dtype)
    return _view_columns(t, [np.full(samples, v, dtype=dtype) for v in s], coalition_edge_idx, b)


def _sample_marginals(
    t: Topology,
    p: int,
    s: tuple[int, ...],
    members: frozenset[int],
    cols: list[int],
    rngs: Mapping[int, SeededRng],
    samples: int,
) -> list[Histogram]:
    """Counts of the honest-sum marginal (the honest agents' effective inputs
    summed mod p), then of each incident difference on the coalition's edges
    `cols`, each a one-digit code. Every edge adds +b_k at its first vertex
    and -b_k at its second, so the differences on honest-honest edges cancel
    in the honest sum: it is Σ_H s mod p plus ±b_k over the honest-coalition
    edges, and only the streams of the coalition and its neighbors, the
    endpoints of `cols`, are drawn."""
    dtype = np.int64 if p * (len(cols) + 1) < 2**63 else object
    b = np.ascontiguousarray(_sample_differences(t, p, cols, rngs, samples), dtype=dtype)
    total = np.full(samples, sum(v for i, v in enumerate(s, 1) if i not in members) % p, dtype=dtype)
    for k, bk in zip(cols, b):
        i, j = t.edges[k]
        if i not in members:
            total += bk
        if j not in members:
            total -= bk
    return [Histogram(*_count(c, p), p, 1) for c in [total % p, *b]]


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


def _two_sample_chi_square(a: Histogram, b: Histogram) -> tuple[float, float]:
    # one column per code seen in either sample, in sorted code order
    outcomes = np.union1d(a.codes, b.codes)
    if len(outcomes) == 1:
        return 0.0, 1.0
    table = np.zeros((2, len(outcomes)), dtype=np.int64)
    table[0, np.searchsorted(outcomes, a.codes)] = a.tallies
    table[1, np.searchsorted(outcomes, b.codes)] = b.tallies
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
    tested separately under a Bonferroni correction. Vector idx (0 for s, 1
    for s_prime) draws agent i's shares from stream (idx, i). Marginal
    binning builds only the streams of the coalition C and its neighbors
    N(C): each edge adds +b_k to one endpoint's effective input and -b_k to
    the other's, so the differences on honest-honest edges cancel in the
    honest sum, and it reads the differences on C's edges alone. Passing
    means failing to reject identity at `alpha`; coalitions that cut the
    graph are expected to be rejected loudly, and the statistic is reported
    either way.
    """
    pv = _as_modulus_value(p)
    members = adversary.members
    sv, sw, honest = _pair_inputs(t, pv, members, s, s_prime)
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
    # p^k estimates the outcome space; k >= the limit's bit length is past it
    exponent = min(len(t.edges), t.n - 1 + len(cols))
    cut = _cuts_group(t, members, honest)
    details: dict = {
        "p": pv,
        "coalition": sorted(members),
        "samples_per_vector": samples,
        "is_vertex_cut": cut,
        "claim_applies": not cut,
    }

    if exponent < _FULL_BIN_LIMIT.bit_length() and pv**exponent <= _FULL_BIN_LIMIT:
        width = t.n + len(cols)
        views = (
            _sample_view_columns(t, pv, vec, cols, {i: SeededRng(seed, (idx, i)) for i in t.vertices}, samples)
            for idx, vec in enumerate((sv, sw))
        )
        hists = (Histogram(*_count(_encode(v, pv, (samples,)), pv**width), pv, width) for v in views)
        stat, adjusted = _two_sample_chi_square(*hists)
        details["binning"] = "full_view"
    else:
        # marginal fallback: the honest-sum coordinate plus each incident edge,
        # from the streams of the coalition's edges' endpoints alone
        drawn = {v for k in cols for v in t.edges[k]}
        bins_a, bins_b = (
            _sample_marginals(t, pv, vec, members, cols, {i: SeededRng(seed, (idx, i)) for i in drawn}, samples)
            for idx, vec in enumerate((sv, sw))
        )
        marginal_stats, marginal_ps = zip(*map(_two_sample_chi_square, bins_a, bins_b))
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
