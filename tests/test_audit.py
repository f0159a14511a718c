"""Audit oracles checked against independent brute force.

The enumeration results here are cross-checked by raw share-pair loops and
closed-form counts computed in the test itself, so a bug in the numpy path
cannot hide behind the same code that produced the expected values.
"""
import itertools
import random
import re

import pytest

import privavg.audit
from privavg.audit import (
    AuditVerdict,
    EnumerationBudgetError,
    check_effective_input_uniformity,
    check_group_privacy,
    check_mask_uniformity,
    check_view_indistinguishability,
    enumerate_mask_distribution,
    enumerate_view_distribution,
    histogram_csv,
    sampled_view_test,
    _mask_uniformity_verdict,
    _sample_view_codes,
)
from privavg.consensus import short_text
from privavg.masking import ProtocolParams, build_states, edge_differences, exchange_shares
from privavg.residues import Modulus, SeededRng
from privavg.simnet import AdversarySpec, simulate
from privavg.topology import Topology, connected_components, incidence_rank_mod_p

from conftest import path3, random_connected_topology, ten_node_three_separators, triangle
from reference import histogram_from_counts, reference_view_keys


def brute_force_masks_from_raw_shares(t, p):
    """Histogram of mask vectors by looping over every raw share pair."""
    hist = {}
    edges = t.edges
    for combo in itertools.product(range(p), repeat=2 * len(edges)):
        masks = [0] * t.n
        for k, (i, j) in enumerate(edges):
            r_ij, r_ji = combo[2 * k], combo[2 * k + 1]
            masks[i - 1] = (masks[i - 1] + r_ji - r_ij) % p
            masks[j - 1] = (masks[j - 1] + r_ij - r_ji) % p
        key = tuple(masks)
        hist[key] = hist.get(key, 0) + 1
    return hist


def test_mask_histogram_triangle_matches_raw_share_brute_force():
    t = triangle()
    p = 3
    got = enumerate_mask_distribution(t, p)
    raw = brute_force_masks_from_raw_shares(t, p)
    # each difference vector collapses p^|E| raw assignments
    scale = p ** len(t.edges)
    assert raw == {k: v * scale for k, v in got.counts.items()}
    assert len(got.counts) == 9
    assert set(got.counts.values()) == {3}
    assert all(sum(a) % p == 0 for a in got.counts)


def test_mask_histogram_single_edge():
    t = Topology(2, [(1, 2)])
    got = enumerate_mask_distribution(t, 5)
    assert got.counts == {(k, (-k) % 5): 1 for k in range(5)}


def test_mask_histogram_path_two_residues():
    got = enumerate_mask_distribution(path3(), 2)
    assert got.counts == {(a, (a + c) % 2, c): 1 for a in range(2) for c in range(2)}
    assert got.total == 4


def test_mask_uniformity_verdicts():
    assert check_mask_uniformity(triangle(), 3).passed
    two_isolated_edges = Topology(4, [(1, 2), (3, 4)])
    v = check_mask_uniformity(two_isolated_edges, 3)
    assert not v.passed
    assert v.details["support_size"] < v.details["expected_support"]
    assert check_mask_uniformity(Topology(1, []), 7).passed
    # right support size and counts, but off the zero-sum plane
    masks = enumerate_mask_distribution(triangle(), 3)
    off = histogram_from_counts(
        {((a + 1) % 3, b, c): k for (a, b, c), k in masks.counts.items()}, 3, 3
    )
    assert not _mask_uniformity_verdict(triangle(), 3, off).passed


def test_mask_support_tracks_incidence_rank():
    cases = [
        (triangle(), 3),
        (path3(), 5),
        (Topology(4, [(1, 2), (3, 4)]), 3),
        (Topology(5, [(1, 2), (2, 3), (1, 3)]), 2),  # two isolated vertices
        (ten_node_three_separators(), 2),
    ]
    for t, p in cases:
        hist = enumerate_mask_distribution(t, p)
        rank = incidence_rank_mod_p(t, p)
        c = len(connected_components(t))
        assert rank == t.n - c
        assert len(hist.counts) == p**rank


def test_mask_histogram_closed_form_on_random_connected_graphs():
    rnd = random.Random(404)
    for _ in range(12):
        t = random_connected_topology(rnd, rnd.randint(2, 5))
        p = rnd.choice([2, 3])
        if p ** len(t.edges) > 10**5:
            continue
        hist = enumerate_mask_distribution(t, p)
        assert len(hist.counts) == p ** (t.n - 1)
        assert set(hist.counts.values()) == {p ** (len(t.edges) - t.n + 1)}
        assert hist.total == p ** len(t.edges)


def test_effective_input_uniformity():
    t = triangle()
    v = check_effective_input_uniformity(t, 3, (1, 0, 2))
    assert v.passed
    assert v.details["sum_mod_p"] == 0
    v = check_effective_input_uniformity(t, 3, (1, 1, 2))
    assert v.passed and v.details["sum_mod_p"] == 1

    # zero inputs leave the mask histogram untouched
    empty = AdversarySpec(members=frozenset())
    shifted = enumerate_view_distribution(t, 3, empty, (0, 0, 0))
    assert shifted == enumerate_mask_distribution(t, 3)

    # equal sums mod p give the same coset of masked inputs
    h1 = enumerate_view_distribution(t, 3, empty, (1, 0, 2))
    h2 = enumerate_view_distribution(t, 3, empty, (2, 2, 2))
    assert h1 == h2
    h3 = enumerate_view_distribution(t, 3, empty, (1, 0, 0))
    assert h1 != h3


def test_effective_input_validation():
    with pytest.raises(ValueError):
        check_effective_input_uniformity(triangle(), 3, (0, 1))
    with pytest.raises(ValueError):
        check_effective_input_uniformity(triangle(), 3, (0, 1, 3))


def test_view_identity_holds_when_listener_is_not_a_cut():
    v = check_view_indistinguishability(
        path3(), 3, AdversarySpec(members=frozenset({3})), (1, 2, 0), (2, 1, 0)
    )
    assert v.passed
    assert v.details["is_vertex_cut"] is False
    assert v.details["claim_applies"] is True


def test_view_identity_fails_for_a_cut_vertex():
    v = check_view_indistinguishability(
        path3(), 3, AdversarySpec(members=frozenset({2})), (1, 0, 2), (2, 0, 1)
    )
    assert not v.passed
    assert v.details["is_vertex_cut"] is True


def test_view_identity_empty_coalition_is_coset_equality():
    v = check_view_indistinguishability(
        triangle(), 3, AdversarySpec(members=frozenset()), (1, 0, 2), (2, 1, 0)
    )
    assert v.passed


def test_view_identity_is_symmetric():
    rnd = random.Random(11)
    t = path3()
    adv = AdversarySpec(members=frozenset({3}))
    for _ in range(10):
        s3 = rnd.randrange(3)
        a, b = rnd.randrange(3), rnd.randrange(3)
        total = a + b
        # pick another honest pair with the same integer sum
        alts = [(x, total - x) for x in range(3) if 0 <= total - x < 3]
        c, d = rnd.choice(alts)
        v1 = check_view_indistinguishability(t, 3, adv, (a, b, s3), (c, d, s3))
        v2 = check_view_indistinguishability(t, 3, adv, (c, d, s3), (a, b, s3))
        assert v1.passed == v2.passed


def test_view_identity_preconditions():
    t = path3()
    adv = AdversarySpec(members=frozenset({3}))
    with pytest.raises(ValueError, match="agree outside the honest agents: agent 3 has 0 vs 1"):
        check_view_indistinguishability(t, 3, adv, (1, 2, 0), (2, 1, 1))
    with pytest.raises(ValueError, match="equal sums"):
        check_view_indistinguishability(t, 3, adv, (1, 2, 0), (2, 2, 0))
    with pytest.raises(ValueError, match="outside"):
        check_view_indistinguishability(t, 3, adv, (1, 2, 3), (1, 2, 3))


def test_view_histogram_counts_on_path():
    # listener at one end sees every (masked inputs, incident difference)
    # combination exactly once per free difference pair
    hist = enumerate_view_distribution(
        path3(), 3, AdversarySpec(members=frozenset({3})), (1, 2, 0)
    )
    assert len(hist.counts) == 9
    assert set(hist.counts.values()) == {1}
    for key in hist.counts:
        s1, s2, s3, b23 = key
        assert (s1 + s2 + s3) % 3 == (1 + 2 + 0) % 3
        assert s3 == (0 - b23) % 3


def test_raw_share_pairs_agree_with_difference_level_views():
    # one edge, listener on vertex 2: loop all p^2 raw share pairs and check
    # the difference-level enumeration is the same distribution scaled by p
    p = 5
    t = Topology(2, [(1, 2)])
    s = (3, 1)
    raw = {}
    for r12, r21 in itertools.product(range(p), repeat=2):
        b = (r21 - r12) % p
        key = ((s[0] + b) % p, (s[1] - b) % p, b)
        raw[key] = raw.get(key, 0) + 1
    hist = enumerate_view_distribution(t, p, AdversarySpec(members=frozenset({2})), s)
    assert raw == {k: v * p for k, v in hist.counts.items()}


def _simulated_view_cases():
    # (graph, p, coalition): every connected labelled graph on 2-4 vertices
    # with p^(2|E|) raw share assignments at most 4,000 and p > n, so that
    # inputs from [0, 2) fit the modulus; every non-empty proper coalition
    for p in (3, 5):
        for n in range(2, 5):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for r in range(n - 1, len(pairs) + 1):
                if p ** (2 * r) > 4000 or p <= n:
                    continue
                for edges in itertools.combinations(pairs, r):
                    t = Topology(n, list(edges))
                    if len(connected_components(t)) > 1:
                        continue
                    for k in range(1, n):
                        for members in itertools.combinations(t.vertices, k):
                            yield t, p, frozenset(members)


def test_simulated_views_are_the_enumerated_views():
    # one simulate run per raw share assignment, every directed edge pinned:
    # each difference vector arises from p^|E| assignments
    rnd = random.Random(2018)
    cases = runs = 0
    for t, p, members in _simulated_view_cases():
        q = (p - 1) // t.n + 1  # the largest input bound p > n(q-1) allows
        params = ProtocolParams(n=t.n, q=q, p=Modulus(p))
        s = tuple(rnd.randrange(q) for _ in t.vertices)
        adversary = AdversarySpec(members)
        directed = [(i, j) for i, j in t.edges] + [(j, i) for i, j in t.edges]
        seen = {}
        for shares in itertools.product(range(p), repeat=len(directed)):
            view = simulate(t, s, params, adversary=adversary, share_override=dict(zip(directed, shares))).view
            key = tuple(view.all_effective_inputs[i] for i in t.vertices) + tuple(
                view.incident_differences[e] for e in t.edges if e[0] in members or e[1] in members
            )
            seen[key] = seen.get(key, 0) + 1
            runs += 1
        hist = enumerate_view_distribution(t, p, adversary, s)
        assert seen == {k: v * p ** len(t.edges) for k, v in hist.items()}, (t.edges, p, members)
        cases += 1
    assert (cases, runs) == (22, 11318)


def test_honest_masks_stay_uniform_given_listener_differences():
    # condition on the differences the listener sees; the remaining honest
    # mask components must be uniform on a coset sized by the honest graph
    cases = [
        (triangle(), frozenset({3}), 3),
        (path3(), frozenset({3}), 2),
        (path3(), frozenset({2}), 3),  # cut case: honest side splits in two
    ]
    for t, members, p in cases:
        edges = t.edges
        honest = [i for i in t.vertices if i not in members]
        listener_edges = [k for k, (i, j) in enumerate(edges) if i in members or j in members]
        honest_edge_count = len(edges) - len(listener_edges)
        comps = connected_components(t, set(honest))
        expected_support = p ** (len(honest) - len(comps))
        by_condition = {}
        for b in itertools.product(range(p), repeat=len(edges)):
            masks = [0] * t.n
            for k, (i, j) in enumerate(edges):
                masks[i - 1] = (masks[i - 1] + b[k]) % p
                masks[j - 1] = (masks[j - 1] - b[k]) % p
            cond = tuple(b[k] for k in listener_edges)
            key = tuple(masks[i - 1] for i in honest)
            by_condition.setdefault(cond, {}).setdefault(key, 0)
            by_condition[cond][key] += 1
        assert len(by_condition) == p ** len(listener_edges)
        for cond, hist in by_condition.items():
            assert len(hist) == expected_support
            assert len(set(hist.values())) == 1
            expected_count = p**honest_edge_count // expected_support
            assert set(hist.values()) == {expected_count}


def test_group_privacy_exact_on_ten_node_graph():
    t = ten_node_three_separators()
    adv = AdversarySpec(members=frozenset({3, 5, 10}))
    s = [0, 0, 0, 0, 0, 1, 0, 1, 0, 0]
    s_prime = [0, 0, 0, 0, 0, 0, 1, 1, 0, 0]
    v = check_group_privacy(t, 2, adv, {6, 7, 8, 9}, s, s_prime)
    assert v.passed
    assert v.method == "exact_enumeration"
    assert v.details["group_cut_by_coalition"] is False


def test_group_privacy_singleton_is_vacuous():
    t = ten_node_three_separators()
    adv = AdversarySpec(members=frozenset({3, 5, 10}))
    v = check_group_privacy(t, 2, adv, {4}, [0] * 10, [0] * 10)
    assert not v.passed
    assert v.details["vacuous"] is True
    assert v.details["group_cut_by_coalition"] is False


def test_group_privacy_full_honest_set_matches_view_identity():
    t = path3()
    adv = AdversarySpec(members=frozenset({3}))
    a = check_group_privacy(t, 3, adv, {1, 2}, (1, 2, 0), (2, 1, 0))
    b = check_view_indistinguishability(t, 3, adv, (1, 2, 0), (2, 1, 0))
    assert a.passed and b.passed


def test_group_privacy_preconditions():
    t = path3()
    adv = AdversarySpec(members=frozenset({3}))
    with pytest.raises(ValueError, match="agree outside"):
        check_group_privacy(t, 3, adv, {1}, (1, 2, 0), (1, 1, 0))
    with pytest.raises(ValueError, match="equal sums over the group"):
        check_group_privacy(t, 3, adv, {1, 2}, (1, 2, 0), (2, 2, 0))
    with pytest.raises(ValueError, match="overlaps"):
        check_group_privacy(t, 3, adv, {2, 3}, (1, 2, 0), (1, 2, 0))
    with pytest.raises(ValueError, match="non-empty"):
        check_group_privacy(t, 3, adv, set(), (1, 2, 0), (1, 2, 0))
    with pytest.raises(ValueError, match="outside"):
        check_group_privacy(t, 3, AdversarySpec(frozenset({99})), {1, 2}, (1, 2, 0), (2, 1, 0))


def test_enumeration_budget_error_names_the_fallback():
    dense = Topology(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)])
    with pytest.raises(EnumerationBudgetError, match="sampled_view_test"):
        enumerate_mask_distribution(dense, 30)


def test_oversized_enumeration_is_refused_by_its_exponent():
    # K30 has 435 edges: past the budget's bit length, so p^435 is named as a
    # power, never built (at p = 2^64-59 it has over 8,000 digits)
    def complete(n):
        return Topology(n, list(itertools.combinations(range(1, n + 1), 2)))

    p = 2**64 - 59
    for q in (p, 5):
        with pytest.raises(EnumerationBudgetError, match=re.escape(f"needs {q}^435 b-vectors (> budget")):
            enumerate_mask_distribution(complete(30), q)
    # a count that is built is cut to one short line
    with pytest.raises(EnumerationBudgetError, match="2\\^63") as refused:
        enumerate_mask_distribution(complete(30), 5, budget=10**400)
    assert f"needs {short_text(str(5**435))} b-vectors" in str(refused.value)
    # the refusal reaches group privacy's sampled fallback on K22 (p^231)
    s = tuple(range(22))
    verdict = check_group_privacy(complete(22), p, AdversarySpec({1}), {2, 3}, s, s, samples=10)
    assert verdict.method == "chi_square" and verdict.passed


def test_group_privacy_delegates_to_sampling_past_the_budget():
    t = ten_node_three_separators()
    adv = AdversarySpec(members=frozenset({3, 5, 10}))
    s = [2, 3] + [0] * 8
    s_prime = [4, 1] + [0] * 8
    v = check_group_privacy(
        t, 11, adv, {1, 2}, s, s_prime, budget=10**6, samples=4000, seed=3
    )
    assert v.method == "chi_square"
    assert v.details["group_cut_by_coalition"] is False
    assert v.details["claim_applies"] is True
    assert v.passed
    with pytest.raises(EnumerationBudgetError):
        check_group_privacy(t, 11, adv, {1, 2}, s, s_prime, budget=10**6)


def test_sampled_identical_inputs_pass_at_any_level():
    v = sampled_view_test(
        triangle(), 30, AdversarySpec(members=frozenset({3})),
        (4, 7, 3), (4, 7, 3), samples=100, alpha=0.999,
    )
    assert v.passed
    assert v.pvalue == 1.0
    assert v.details["identical_inputs"] is True


def test_sampled_view_passes_on_protected_triangle():
    v = sampled_view_test(
        triangle(), 30, AdversarySpec(members=frozenset({3})),
        (4, 7, 3), (5, 6, 3), samples=20000, alpha=0.01, seed=7,
    )
    assert v.passed
    assert v.details["binning"] == "marginals"
    assert v.details["claim_applies"] is True


def test_sampled_view_rejects_across_a_cut():
    v = sampled_view_test(
        path3(), 30, AdversarySpec(members=frozenset({2})),
        (4, 7, 3), (5, 7, 2), samples=100000, alpha=0.01, seed=7,
    )
    assert not v.passed
    assert v.pvalue < 1e-6
    assert v.details["binning"] == "full_view"
    assert v.details["is_vertex_cut"] is True


def test_sampled_audits_build_only_the_streams_their_binning_reads(monkeypatch):
    # Differences on honest-honest edges cancel in the honest sum, so marginal
    # binning builds the streams of C ∪ N(C) for each vector and no other; a
    # whole view reads every agent's differences, so full-view binning builds
    # every agent's stream. The addresses stay (vector, agent) either way.
    built, make = [], privavg.audit.SeededRng
    monkeypatch.setattr(privavg.audit, "SeededRng", lambda seed, stream: built.append(stream) or make(seed, stream))
    t = ten_node_three_separators()
    s = (4, 7, 3, 0, 2, 9, 1, 5, 6, 8)
    v = sampled_view_test(t, 30, AdversarySpec(members=frozenset({3, 6})), s, (5, 6) + s[2:], samples=2000)
    assert v.details["binning"] == "marginals"
    assert sorted(built) == [(idx, i) for idx in (0, 1) for i in (2, 3, 4, 5, 6, 7, 9)]
    built.clear()
    v = sampled_view_test(path3(), 3, AdversarySpec(members=frozenset({2})), (1, 0, 2), (2, 0, 1), samples=2000)
    assert v.details["binning"] == "full_view"
    assert sorted(built) == [(idx, i) for idx in (0, 1) for i in (1, 2, 3)]


def test_sampled_view_needs_enough_samples():
    with pytest.raises(ValueError, match="below 5"):
        sampled_view_test(
            triangle(), 30, AdversarySpec(members=frozenset({3})),
            (4, 7, 3), (5, 6, 3), samples=50, alpha=0.01,
        )
    with pytest.raises(ValueError, match="positive"):
        sampled_view_test(
            triangle(), 30, AdversarySpec(members=frozenset({3})),
            (4, 7, 3), (5, 6, 3), samples=0, alpha=0.01,
        )
    for alpha in (0, -1, 1, float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            sampled_view_test(
                triangle(), 30, AdversarySpec(members=frozenset({3})),
                (4, 7, 3), (5, 6, 3), samples=50, alpha=alpha,
            )


def test_sampler_draws_match_the_share_exchange_machinery():
    # pre-draw the exact shares the sampler will use, push them through the
    # real agent state machines, and compare the resulting view key; the
    # second modulus is past int64, where the view codes are Python ints
    for p in (30, 2**64 - 59):
        t = triangle()
        params = ProtocolParams(n=3, q=10, p=Modulus(p))
        seed, vec_idx = 99, 0
        s = (4, 7, 3)
        clones = {i: SeededRng(seed, (vec_idx, i)) for i in t.vertices}
        shares = {}
        for i in t.vertices:
            for j in sorted(t.neighbors(i)):
                shares[(i, j)] = clones[i].randint_below(p)

        states = build_states(t, s, params)
        exchange_shares(t, states, {i: SeededRng(0, i) for i in t.vertices}, override=shares)
        diffs = {d.edge: d.value for d in edge_differences(states)}
        expected = tuple(states[i].effective_input.value for i in t.vertices) + (
            diffs[(1, 3)].value,
            diffs[(2, 3)].value,
        )

        rngs = {i: SeededRng(seed, (vec_idx, i)) for i in t.vertices}
        cols = [k for k, (i, j) in enumerate(t.edges) if 3 in (i, j)]
        keys = reference_view_keys(_sample_view_codes(t, p, s, cols, rngs, samples=1), p, 3 + len(cols))
        assert keys == [expected]


def test_verdict_text_and_histogram_csv():
    v = AuditVerdict(
        claim="mask-uniformity", method="exact_enumeration", passed=True,
        details={"p": 3, "support_size": 9},
    )
    text = v.to_text()
    assert text.splitlines()[0] == "audit v1"
    assert "claim mask-uniformity" in text
    assert "passed yes" in text
    assert "statistic -" in text
    assert "detail p 3" in text
    assert text.endswith("end\n")

    hist = histogram_from_counts({(1, 2): 3, (0, 0): 1}, 3, 2)
    csv = histogram_csv(hist)
    assert csv.splitlines() == ["outcome,count", '"0 0",1', '"1 2",3']


def test_mask_uniformity_at_the_default_budget():
    # 6-vertex ring plus 4 chords at p = 5: 5^10 = 9.77M rows, just under 10^7
    ring = [(i, i + 1) for i in range(1, 6)] + [(1, 6)]
    t = Topology(6, ring + [(1, 3), (2, 5), (3, 6), (4, 6)])
    verdict = check_mask_uniformity(t, 5)
    assert verdict.passed
    assert verdict.details["support_size"] == 5**5
    assert verdict.details["count_values"] == [5**5]
