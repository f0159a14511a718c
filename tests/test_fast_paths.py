"""Fast paths against the slow reference implementations they replaced."""
from __future__ import annotations

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from collections import Counter

from privavg.audit import (
    EnumerationBudgetError,
    Histogram,
    _coalition_edges,
    _count,
    _digits,
    _encode,
    _mask_uniformity_verdict,
    _row_tuples,
    _sample_marginals,
    _sample_view_columns,
    _two_sample_chi_square,
    chi2_contingency,
    enumerate_mask_distribution,
    enumerate_view_distribution,
    histogram_csv,
)
import privavg.cli
import privavg.consensus
import reference
from privavg.cli import parse_config, run_experiment
from privavg.consensus import (
    ConsensusAlgo,
    ConvergenceError,
    _SpreadTrace,
    gossip_avg,
    number_text,
    spread_texts,
)
from privavg.masking import AgentState, ProtocolParams, init_shares
from privavg.residues import BLOCK, Modulus, SeededRng
from privavg.simnet import AdversarySpec, RunReport, SimEvent, delivery_schedule, simulate
from privavg.topology import Topology

from conftest import path3, random_connected_topology, ten_node_three_separators
from reference import (
    histogram_from_counts,
    reference_delivery_schedule,
    reference_enumerate_views,
    reference_marginal_bins,
    reference_gossip_avg,
    reference_histogram_csv,
    reference_randint_below,
    reference_sample_view_keys,
    reference_share_values,
    reference_simulate,
    reference_two_sample_chi_square,
    reference_view_keys,
)


def _instances(variant: str):
    rnd = random.Random(4242)
    cases = []
    for k in range(6):
        n = rnd.randrange(2, 9)
        t = random_connected_topology(rnd, n)
        q = rnd.randrange(2, 8)
        inputs = [rnd.randrange(q) for _ in range(n)]
        cases.append((t, inputs, q, k))
    cases.append((ten_node_three_separators(), [3, 1, 0, 2, 3, 1, 1, 0, 2, 3], 4, 6))
    if variant == "flood_sum":
        # a 30-ring with 4 chords: each pick is among 59 same-tick candidates on
        # average at max_delay 1, 24 at 4; gossip runs the same phase 1, and its
        # Fraction reference would take seconds here
        n = 30
        edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        while len(edges) < n + 4:
            edges.add(tuple(sorted(rnd.sample(range(1, n + 1), 2))))
        cases.append((Topology(n, sorted(edges)), [rnd.randrange(5) for _ in range(n)], 5, 7))
    return cases


def _first_difference(fast: str, slow: str):
    """None if the texts are equal, else their first differing line.

    Keeps a failure report short: pytest's own diff of two long reports is slow.
    """
    a, b = fast.splitlines(), slow.splitlines()
    for k in range(max(len(a), len(b))):
        x = a[k] if k < len(a) else None
        y = b[k] if k < len(b) else None
        if x != y:
            return f"line {k + 1}: {x!r} != reference {y!r}"
    return None


@pytest.mark.parametrize("variant", ["flood_sum", "gossip_avg"])
@pytest.mark.parametrize("max_delay", [1, 4])
@pytest.mark.parametrize("watched", [False, True])
@pytest.mark.parametrize("schedule_seed", [None, 5])
def test_simulate_matches_heap_scheduler_byte_for_byte(variant, max_delay, watched, schedule_seed):
    for t, inputs, q, k in _instances(variant):
        params = ProtocolParams.with_default_p(t.n, q)
        kw = dict(
            algo=ConsensusAlgo(variant),
            adversary=AdversarySpec(range(1, t.n + 1, 2)) if watched else None,
            seed=100 + k,
            max_delay=max_delay,
            schedule_seed=schedule_seed,
        )
        fast = simulate(t, inputs, params, **kw)
        slow = reference_simulate(t, inputs, params, **kw)
        assert _first_difference(fast.to_text(), slow.to_text()) is None


def test_delivery_schedule_draws_like_the_heap_scheduler():
    # same-tick lists in seq order give the heap scheduler's candidates
    for size in (1, 2, 3, 7, 40):
        fast_rng, slow_rng = SeededRng(9, 0), SeededRng(9, 0)
        due = [SimEvent(3, s, "done", 0, 0, 0, None) for s in range(size)]
        heap = list(due)
        while due:
            assert delivery_schedule(fast_rng, due) == reference_delivery_schedule(slow_rng, heap)
        assert heap == []
        assert fast_rng.randint_below(2**32) == slow_rng.randint_below(2**32)


def _gossip_both(t, values, algo, seed):
    """Run both gossips; return (result or ConvergenceError, on_exchange calls) per side."""
    out = []
    for fn in (gossip_avg, reference_gossip_avg):
        calls = []
        try:
            res = fn(t, values, algo, SeededRng(seed, 99),
                     on_exchange=lambda i, j, mean: calls.append((i, j, mean)))
        except ConvergenceError as exc:
            res = exc
        out.append((res, calls))
    return out


def _assert_same_gossip(fast, slow):
    (res, calls), (ref, ref_calls) = fast, slow
    assert calls == ref_calls
    assert type(res) is type(ref)
    if isinstance(ref, ConvergenceError):
        assert (res.values, res.rounds, str(res)) == (ref.values, ref.rounds, str(ref))
        assert list(res.values) == list(ref.values)
    else:
        assert res.per_agent == ref.per_agent
        assert list(res.per_agent) == list(ref.per_agent)
        assert res.spread_trace == ref.spread_trace
        assert list(spread_texts(res.spread_trace)) == [str(x) for x in ref.spread_trace]
        assert (res.rounds, res.messages) == (ref.rounds, ref.messages)


def test_gossip_matches_fraction_gossip_on_integers():
    rnd = random.Random(31337)
    algo = ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(1, 10**6))
    for trial in range(12):
        t = random_connected_topology(rnd, rnd.randrange(2, 9))
        values = {i: rnd.randrange(-50, 300) for i in t.vertices}
        _assert_same_gossip(*_gossip_both(t, values, algo, trial))


def test_gossip_matches_fraction_gossip_when_out_of_rounds():
    rnd = random.Random(99)
    for budget in (1, 2, 5, 17):
        t = random_connected_topology(rnd, 6)
        values = {i: rnd.randrange(100) for i in t.vertices}
        algo = ConsensusAlgo("gossip_avg", max_rounds=budget)
        fast, slow = _gossip_both(t, values, algo, budget)
        assert isinstance(slow[0], ConvergenceError)
        _assert_same_gossip(fast, slow)


def test_gossip_matches_fraction_gossip_when_agents_share_an_extreme():
    # several agents hold the max or the min, and odd pair sums double every
    # numerator while they do; the running extremes must equal a full rescan
    ring = Topology(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    path = Topology(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)])
    star = Topology(6, [(1, k) for k in range(2, 7)])
    cases = [
        (ring, [9, 9, 0, 0, 4]),
        (ring, [0, 9, 0, 9, 4]),
        (path, [3, 3, 3, 3, 3, 0]),
        (path, [0, 0, 0, 7, 0, 0]),
        (star, [5, 8, 8, 8, 8, 8]),
        (star, [-3, -3, 4, -3, -3, 4]),
    ]
    for budget in (None, 3, 40):
        algo = ConsensusAlgo("gossip_avg", Fraction(1, 10**6), max_rounds=budget)
        for k, (t, xs) in enumerate(cases):
            values = dict(zip(t.vertices, xs))
            _assert_same_gossip(*_gossip_both(t, values, algo, k))


def test_gossip_matches_fraction_gossip_across_many_strides():
    # at tolerance 10^-60 the denominator passes 192 bits, three of the
    # 64-bit strides by which gossip's shared denominator grows; budgets of
    # half the rounds and of 333 rounds cut a run part way into a stride
    rnd = random.Random(2718)
    tol = Fraction(1, 10**60)
    for trial in range(4):
        t = random_connected_topology(rnd, rnd.randrange(5, 9))
        values = {i: rnd.randrange(-50, 300) for i in t.vertices}
        values[1] += (sum(values.values()) + trial) % 2  # even and odd totals in turn
        assert sum(values.values()) % 2 == trial % 2
        fast, slow = _gossip_both(t, values, ConsensusAlgo("gossip_avg", tol), trial)
        _assert_same_gossip(fast, slow)
        assert max(v.denominator for v in fast[0].per_agent.values()).bit_length() > 192
        for budget in (fast[0].rounds // 2, 333):
            algo = ConsensusAlgo("gossip_avg", tol, max_rounds=budget)
            cut, cut_slow = _gossip_both(t, values, algo, trial)
            assert isinstance(cut_slow[0], ConvergenceError)
            _assert_same_gossip(cut, cut_slow)


def test_gossip_refuses_values_that_are_not_whole_numbers():
    t = Topology(4, [(1, 2), (2, 3), (3, 4)])
    algo = ConsensusAlgo("gossip_avg")
    for bad, text in ((Fraction(7, 3), "7/3"), (2.5, "2.5")):
        rng = SeededRng(8, 1)
        with pytest.raises(ValueError, match=f"agent 3 holds {text}$"):
            gossip_avg(t, {1: 4, 2: 0, 3: bad, 4: 9}, algo, rng)
        assert rng.randint_below(2**32) == SeededRng(8, 1).randint_below(2**32)  # nothing drawn
    runs = []
    for seven in (7, Fraction(7)):
        rng, calls = SeededRng(8, 1), []
        res = gossip_avg(t, {1: 4, 2: 0, 3: seven, 4: 9}, algo, rng,
                         on_exchange=lambda i, j, mean: calls.append((i, j, mean)))
        runs.append((res.per_agent, list(res.per_agent), res.rounds, list(spread_texts(res.spread_trace)),
                     list(res.spread_trace.float_texts()), calls, rng.randint_below(2**32)))
    assert runs[0] == runs[1]


def _run_trace(runs):
    """A `_SpreadTrace` of (spread, den, rounds) runs, and its rounds as `Fraction`s."""
    spreads, dens, starts, want = [], [], [], []
    for s, d, length in runs:
        spreads.append(s)
        dens.append(d)
        starts.append(len(want))
        want += [Fraction(s, d)] * length
    return _SpreadTrace(spreads, dens, starts, len(want)), tuple(want)


def _assert_reads_like(trace, want):
    assert list(spread_texts(trace)) == [str(x) for x in want]
    assert list(spread_texts(want)) == [str(x) for x in want]
    assert list(trace.float_texts()) == [repr(float(x)) for x in want]
    assert len(trace) == len(want) and tuple(trace) == want
    every = range(-len(want), len(want))
    assert [trace[k] for k in every] == [want[k] for k in every]
    for k in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            trace[k]
    for k in (slice(1, 3), slice(-4, None), slice(None, None, -1), slice(1, None, 2), slice(3, 1)):
        assert trace[k] == want[k]
    assert trace == want and want == trace and list(want) == trace and trace == list(want)
    assert trace != want[:-1] and want[:-1] != trace
    other = want[:-1] + (want[-1] + 1,)
    assert trace != other and other != trace


def test_spread_trace_formats_like_fractions():
    rnd = random.Random(6174)
    # one round per run
    for rounds in (1, 2, 40):
        for _ in range(4):
            runs = []
            den = 1 << rnd.randrange(3)
            for _ in range(rounds):
                den <<= rnd.choice((0, 0, 1, 5, 300))
                s = rnd.choice((0, rnd.randrange(1, 4 * den), rnd.randrange(1, 50) << rnd.randrange(8)))
                runs.append((s, den, 1))
            _assert_reads_like(*_run_trace(runs))
    # runs of 1 to 5 rounds, some holding the last run's value over a doubled
    # denominator, some zero, some past the float range
    for _ in range(30):
        runs = []
        den = 1 << rnd.randrange(3)
        for _ in range(rnd.randrange(1, 12)):
            length = rnd.randrange(1, 6)
            if runs and rnd.random() < 0.25:
                s, d, _ = runs[-1]
                k = rnd.randrange(1, 4)
                runs.append((s << k, d << k, length))
                den = d << k
                continue
            den <<= rnd.choice((0, 1, 5, 300, 1100))
            s = rnd.choice((0, rnd.randrange(1, 4 * den), rnd.randrange(1, 50) << rnd.randrange(8)))
            runs.append((s, den, length))
        _assert_reads_like(*_run_trace(runs))
    zero, want = _run_trace([(0, 2**70, 3)])
    assert list(spread_texts(zero)) == ["0"] * 3
    _assert_reads_like(zero, want)
    # past the float range the division underflows exactly as float(Fraction) does
    tiny, want = _run_trace([(3, 2**1100, 1), (1, 2**1075, 2), (2**1100, 2**1100, 4)])
    _assert_reads_like(tiny, want)


def test_gossip_builds_fractions_per_agent_not_per_round(monkeypatch):
    t = Topology(8, [(k, k + 1) for k in range(1, 8)] + [(1, 8)])
    values = {i: 7 * i % 11 for i in t.vertices}
    algo = ConsensusAlgo("gossip_avg")
    built = []

    def counting_fraction(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(privavg.consensus, "Fraction", counting_fraction)
    res = gossip_avg(t, values, algo, SeededRng(5, 1))
    assert res.rounds > 50 * t.n
    # the per-agent results on the way out
    assert len(built) <= t.n
    list(spread_texts(res.spread_trace))
    list(res.spread_trace.float_texts())
    assert len(built) <= t.n


GOSSIP_RUN_CFG = """\
[experiment]
seed = 3
algo = gossip
p = 97
q1 = 0
q2 = 9

[topology]
n = 6
edges = 1,2 2,3 3,4 4,5 5,6 1,6 2,5

[inputs]
values = 4 7 3 9 0 2

[adversary]
members = 2 5
"""


def test_gossip_report_round_trips_and_convergence_csv_matches_fraction_rows():
    status, _, files = run_experiment(parse_config(GOSSIP_RUN_CFG), "run")
    assert status == 0
    rep = simulate(
        Topology(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)]),
        (4, 7, 3, 9, 0, 2), ProtocolParams(n=6, q=10, p=Modulus(97)),
        algo=ConsensusAlgo("gossip_avg"), adversary=AdversarySpec({2, 5}), seed=3,
    )
    assert isinstance(rep.gossip_spread, _SpreadTrace) and len(rep.gossip_spread) > 1
    text = rep.to_text()
    assert text == files["report.txt"]
    parsed = RunReport.from_text(text)
    # read back as the same runs: one per value, starting in the same rounds
    assert isinstance(parsed.gossip_spread, _SpreadTrace)
    assert parsed.gossip_spread._starts == rep.gossip_spread._starts
    assert parsed == rep and rep == parsed
    assert parsed.to_text() == text
    rows = ["exchange,spread"] + [f"{i},{float(sp)!r}" for i, sp in enumerate(parsed.gossip_spread, 1)]
    assert files["convergence.csv"] == "\n".join(rows) + "\n"


RING30_EDGES = [(k, k % 30 + 1) for k in range(1, 31)] + [(k, k + 15) for k in range(1, 16, 3)]
RING30_GOSSIP_CFG = f"""\
[experiment]
seed = 3
algo = gossip
q1 = 0
q2 = 96
tolerance = 1/2000

[topology]
n = 30
edges = {" ".join(f"{i},{j}" for i, j in RING30_EDGES)}

[inputs]
values = {" ".join(str(x * 37 % 97) for x in range(30))}

[adversary]
members = 4 19
"""


def test_gossip_trace_keeps_and_formats_one_run_per_value(monkeypatch):
    reports = []

    def keep(*args, **kwargs):
        reports.append(simulate(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(privavg.cli, "simulate", keep)
    cfg = parse_config(RING30_GOSSIP_CFG)
    status, _, files = run_experiment(cfg, "run")
    assert status == 0
    rep, = reports
    trace = rep.gossip_spread
    # the same gossip with every value a Fraction, one spread per round
    scaled = {i: 30 * e for i, e in rep.view.all_effective_inputs.items()}
    ref = reference_gossip_avg(cfg.topology, scaled, cfg.algo, SeededRng(cfg.seed, 31)).spread_trace
    assert len(ref) > 2000 and trace == ref
    # one run per stretch of equal value: fewer runs than rounds, no two adjacent equal
    values = [x for r, x in enumerate(ref) if r == 0 or x != ref[r - 1]]
    assert len(values) < len(ref) // 4
    assert list(map(Fraction, trace._spreads, trace._dens)) == values
    assert trace._starts == [r for r, x in enumerate(ref) if r == 0 or x != ref[r - 1]]
    # each nonzero run is formatted once
    formatted = []

    def counting_number_text(*args):
        formatted.append(args)
        return number_text(*args)

    monkeypatch.setattr(privavg.consensus, "number_text", counting_number_text)
    assert rep.to_text() == files["report.txt"]
    assert len(formatted) == sum(1 for x in values if x)
    # the bytes are those of a spread line and a csv row per round from its Fraction
    lines = files["report.txt"].split("\n")
    first = lines.index(f"spread 1 {ref[0]}")
    assert lines[first:first + len(ref)] == [f"spread {r} {x}" for r, x in enumerate(ref, 1)]
    assert lines[first + len(ref)].startswith("event ")
    rows = ["exchange,spread"] + [f"{r},{float(x)!r}" for r, x in enumerate(ref, 1)]
    assert files["convergence.csv"] == "\n".join(rows) + "\n"


def test_flood_smoke_at_one_hundred_agents():
    rnd = random.Random(100)
    n = 100
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(edges) < 2 * n:
        a, b = sorted(rnd.sample(range(1, n + 1), 2))
        edges.add((a, b))
    inputs = [rnd.randrange(10) for _ in range(n)]
    rep = simulate(Topology(n, sorted(edges)), inputs, ProtocolParams.with_default_p(n, 10), seed=1)
    assert rep.average == Fraction(sum(inputs), n)
    assert rep.phase2_messages > 0


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 2**63 + 5, 2**64 - 1, 11, 13, 17])
def test_randints_below_matches_single_draws(n):
    # 2,000 and 3,000 words at p = 11, 13, 17 and 31 are the sampled audit's sizes
    for k in (0, 1, 7, 1000, 2000, 3000):
        bulk_rng, single_rng = SeededRng(17, (k, 3)), SeededRng(17, (k, 3))
        bulk = bulk_rng.randints_below(n, k)
        assert bulk.dtype == np.uint64 and bulk.shape == (k,)
        assert bulk.tolist() == [single_rng.randint_below(n) for _ in range(k)]
        # the bulk call left the stream exactly where k single draws leave it
        assert bulk_rng.randint_below(2**64 - 1) == single_rng.randint_below(2**64 - 1)
        # and a second bulk draw, which reads past the scalar buffer, follows on
        again = bulk_rng.randints_below(n, k + BLOCK).tolist()
        assert again == [single_rng.randint_below(n) for _ in range(k + BLOCK)]
        assert bulk_rng.randint_below(2**64 - 1) == single_rng.randint_below(2**64 - 1)


class _CountingWords:
    """A stream's bit generator that counts the raw words read from it."""

    def __init__(self, seed: int, stream: int) -> None:
        self.words = 0
        self._bitgen = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))

    def random_raw(self):
        self.words += 1
        return self._bitgen.random_raw()


def test_buffered_draws_match_one_word_per_try():
    # n = 1 reads no word, n = 2^63+5 rejects close to half of them
    ns = [1, 2, 3, 2**63 + 5, 2**64 - 1]
    rnd = random.Random(2718)
    for stream in range(3):
        rng, words = SeededRng(23, stream), _CountingWords(23, stream)
        got, want = [], []

        def both(n, k=None):
            if k is None:
                got.append(rng.randint_below(n))
                want.append(reference_randint_below(words, n))
            else:
                got.extend(rng.randints_below(n, k).tolist())
                want.extend(reference_randint_below(words, n) for _ in range(k))

        for _ in range(3000):
            n = rnd.choice(ns)
            both(n, None if rnd.random() < 0.85 else rnd.choice([0, 1, 5, 40, 300]))
        # part of a block used, then a bulk draw smaller and one larger than the rest
        both(3)
        both(2**63 + 5, 7)
        both(2)
        both(2**64 - 1, 3 * BLOCK)
        both(2**63 + 5)
        assert got == want
        assert words.words > 8 * BLOCK


def test_randints_below_reads_again_after_a_short_read():
    # at n = 2^63 + 1 half the words are rejected, so a first read sized for k
    # comes up short now and then; the words and the stream must not notice
    n, short = 2**63 + 1, 0
    for seed in range(400):
        for k in (1, 2, 3, 4):
            rng, words = SeededRng(seed, k), _CountingWords(seed, k)
            sizes = []

            def raw(size, read=rng._raw):
                sizes.append(size)
                return read(size)

            rng._raw = raw
            assert rng.randints_below(n, k).tolist() == [reference_randint_below(words, n) for _ in range(k)]
            short += len(sizes) > 1
            assert rng.randint_below(n) == reference_randint_below(words, n)
    assert short > 0


def test_init_shares_matches_single_draws_with_partial_override():
    rnd = random.Random(515)
    for trial in range(8):
        t = random_connected_topology(rnd, rnd.randrange(2, 9))
        params = ProtocolParams.with_default_p(t.n, rnd.randrange(2, 12))
        p = params.p.value
        override = {
            (i, j): rnd.randrange(p)
            for i in t.vertices for j in t.neighbors(i) if rnd.random() < 0.4
        }
        for i in t.vertices:
            state = AgentState(i, 0, t.neighbors(i), params)
            fast_rng, slow_rng = SeededRng(trial, i), SeededRng(trial, i)
            msgs = init_shares(state, fast_rng, override)
            got = [(m.receiver, int(m.share)) for m in msgs]
            assert got == reference_share_values(i, t.neighbors(i), p, slow_rng, override)
            assert fast_rng.randint_below(2**32) == slow_rng.randint_below(2**32)


def _view_key_cases():
    ring = Topology(6, [(i, i + 1) for i in range(1, 6)] + [(1, 6)])
    path = Topology(5, [(i, i + 1) for i in range(1, 5)])
    return [
        (path3(), frozenset({3})),
        (path, frozenset({3})),
        (path, frozenset()),
        (ring, frozenset({2, 5})),
        (ring, frozenset()),
        (ten_node_three_separators(), frozenset({3, 5, 10})),
        (ten_node_three_separators(), frozenset()),
    ]


@pytest.mark.parametrize("p", [2, 30, 2**64 - 59])
def test_sample_view_keys_match_the_per_sample_loop(p):
    rnd = random.Random(p % 1000)
    for t, members in _view_key_cases():
        s = tuple(rnd.randrange(p) for _ in range(t.n))
        cols = [k for k, (i, j) in enumerate(t.edges) if i in members or j in members]
        fast_rngs = {i: SeededRng(7, (0, i)) for i in t.vertices}
        slow_rngs = {i: SeededRng(7, (0, i)) for i in t.vertices}
        fast = reference_view_keys(_sample_view_columns(t, p, s, cols, fast_rngs, samples=40), p)
        slow = reference_sample_view_keys(t, p, s, cols, slow_rngs, samples=40)
        assert fast == slow
        assert all(type(x) is int for key in fast for x in key)
        for i in t.vertices:
            assert fast_rngs[i].randint_below(2**32) == slow_rngs[i].randint_below(2**32)


@pytest.mark.parametrize("p", [2, 5, 40009, 2**31 - 1, 2**64 - 59])
def test_count_rows_codes_sort_as_row_tuples(p):
    # widths on both sides of p^width = 2^63, where codes turn into Python ints
    rnd = random.Random(p % 10007)
    limit = next(w for w in itertools.count(1) if p**w >= 2**63)
    for width in sorted({1, 2, limit - 1, limit, limit + 1} - {0}):
        values = [rnd.randrange(p), p - 1, 0] if p > 3 else list(range(p))
        keys = [tuple(rnd.choice(values) for _ in range(width)) for _ in range(200)]
        rows = np.array(keys, dtype=np.int64 if p < 2**63 else object)
        codes, counts = _count(_encode(list(rows.T), p, (len(rows),)), p**width)
        assert codes.dtype == (np.int64 if p**width < 2**63 else object)
        assert codes.tolist() == sorted(codes.tolist())
        decoded = list(_row_tuples(_digits(codes, p, width)[:, ::-1]))
        assert decoded == sorted(set(keys))
        assert dict(zip(decoded, counts.tolist())) == Counter(keys)
        assert all(type(x) is int for key in decoded for x in key)


def _full_view_cases():
    # (graph, coalition, s, s', p); the last has 40 vertices at p = 3, so its
    # views need Python-int codes (3^40 >= 2^63) while their space stays small
    wide = Topology(40, [(1, 2), (2, 3), (3, 4)])
    s = (2, 0, 1, 1) + (0,) * 36
    return [
        (path3(), frozenset({3}), (1, 2, 0), (2, 1, 0), 3),
        (Topology(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), frozenset({1}), (0, 1, 2, 0), (0, 2, 1, 0), 3),
        (path3(), frozenset({2}), (1, 0, 2), (2, 0, 1), 5),
        (wide, frozenset(), s, (0, 1, 1, 2) + (0,) * 36, 3),
    ]


def test_full_view_chi_square_matches_tuple_bins():
    for k, (t, members, s, s_prime, p) in enumerate(_full_view_cases()):
        cols = _coalition_edges(t, members)
        views = [
            _sample_view_columns(t, p, vec, cols, {i: SeededRng(k, (idx, i)) for i in t.vertices}, 2000)
            for idx, vec in enumerate((s, s_prime))
        ]
        width = t.n + len(cols)
        fast = [Histogram(*_count(_encode(v, p, (2000,)), p**width), p, width) for v in views]
        slow = [Counter(reference_view_keys(v, p)) for v in views]
        assert (fast[0].codes.dtype == object) == (t.n == 40)
        assert fast == slow
        assert _two_sample_chi_square(*fast) == reference_two_sample_chi_square(*slow)


def _bincount_calls(monkeypatch) -> list[int]:
    # the sizes of the arrays np.bincount counts, in order
    calls, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda codes, **kw: calls.append(len(codes)) or bincount(codes, **kw))
    return calls


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_count_switches_to_bincount_at_one_code_per_entry(monkeypatch, dtype):
    # a space of at most one code per entry is counted by bincount, a larger
    # one sorted; int64 and Python-int codes alike
    calls = _bincount_calls(monkeypatch)
    rnd = random.Random(17)
    n = 40
    for space in (n - 1, n, n + 1):
        calls.clear()
        values = [rnd.randrange(space) for _ in range(n)]
        codes, tallies = _count(np.array(values, dtype=dtype), space)
        assert codes.tolist() == sorted(Counter(values))
        assert dict(zip(codes.tolist(), tallies.tolist())) == Counter(values)
        assert all(type(c) is int for c in codes.tolist() + tallies.tolist())
        assert calls == ([n] if space <= n else [])


def _views_both(t, p, members, s, budget=10**7):
    """(fast histogram, reference histogram) of one coalition's views."""
    fast = enumerate_view_distribution(t, p, AdversarySpec(members), s, budget)
    slow = reference_enumerate_views(t, p, s, _coalition_edges(t, frozenset(members)), budget)
    return fast, slow


def test_enumeration_matches_row_sort_on_each_side_of_the_count_switch(monkeypatch):
    # masks of K4 at p = 3: 3^4 codes for 3^6 rows, which `_count` would
    # bincount; views of a K4 vertex at p = 7: 7^7 codes for 7^6 rows, which
    # it would sort. The fold merges by its own sorts on both sides, with no
    # bincount table of the code space
    calls = _bincount_calls(monkeypatch)
    k4 = Topology(4, list(itertools.combinations(range(1, 5), 2)))
    masks = enumerate_mask_distribution(k4, 3)
    assert masks == reference_enumerate_views(k4, 3, (0, 0, 0, 0), [], 10**7)
    fast, slow = _views_both(k4, 7, (1,), (3, 0, 6, 2))
    assert fast == slow and fast.total == 7**6
    assert not calls


def test_enumeration_past_int64_on_an_edgeless_graph():
    # no edges leave one view, s itself, whose entries do not fit in int64
    p = 2**64 - 59
    t = Topology(2, [])
    assert enumerate_mask_distribution(t, p).counts == {(0, 0): 1}
    view = enumerate_view_distribution(t, p, AdversarySpec({1}), (5, p - 1))
    assert view.counts == {(5, p - 1): 1}
    for members in [(), (1,)]:
        fast, slow = _views_both(t, p, members, (5, p - 1))
        assert fast == slow


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 30])
def test_enumeration_matches_row_sort_on_every_small_graph(p):
    # every labelled graph on up to 4 vertices (5 at p = 2), composite p
    # included; no coalition, each single vertex and, on 5 vertices, {1, 2};
    # spaces past the budget must be refused
    budget = 2 * 10**4
    rnd = random.Random(p)
    for n in range(1, 6 if p == 2 else 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                t = Topology(n, list(edges))
                s = tuple(rnd.randrange(p) for _ in range(n))
                for members in [()] + [(i,) for i in t.vertices] + ([(1, 2)] if n == 5 else []):
                    if p ** len(edges) > budget:
                        with pytest.raises(EnumerationBudgetError):
                            enumerate_view_distribution(t, p, AdversarySpec(members), s, budget)
                        continue
                    fast, slow = _views_both(t, p, members, s, budget)
                    assert fast == slow
                    assert all(type(x) is int for key in fast.counts for x in key)
                    assert all(type(c) is int for c in fast.counts.values())


def test_enumeration_matches_row_sort_across_chunks():
    # K5 at p = 3: 3^10 = 59,049 edge-difference vectors, the most of any
    # enumeration in these tests
    t = Topology(5, list(itertools.combinations(range(1, 6), 2)))
    for members in [(), (1,), (2, 4)]:
        fast, slow = _views_both(t, 3, members, (0, 2, 1, 1, 0))
        assert fast == slow
        assert fast.total == 3**10
    mask = enumerate_mask_distribution(t, 3)
    assert set(mask.counts.values()) == {3**6} and len(mask.counts) == 3**4


def test_enumeration_merges_interleaved_codes_across_chunks():
    # one edge at p = 40,009: p distinct views, whose digits wrap around mod p
    # at different b, so their codes are made out of order
    p = 40009
    t = Topology(2, [(1, 2)])
    for members in [(), (1,), (2,)]:
        fast, slow = _views_both(t, p, members, (5, 20000))
        assert fast == slow
        assert len(fast.counts) == p and set(fast.counts.values()) == {1}


def test_enumeration_past_int64_codes_counts_rows_as_tuples():
    # p^width >= 2^63 but the rows themselves are int64: Python-int codes
    p = 2**31 - 1
    t = Topology(3, [])
    fast, slow = _views_both(t, p, (), (1, p - 1, 7))
    assert fast == slow and fast.counts == {(1, p - 1, 7): 1}
    # on either side of the int64 limit: p^3 just below 2^63, then just above
    for p in (2**21 - 9, 2**21 + 17):
        top = (p - 1, p - 1, p - 1)
        fast, slow = _views_both(t, p, (), top)
        assert fast == slow and fast.counts == {top: 1}
    # shifts of the most significant digit of codes past 2^62: 5^27 < 2^63
    # without the coalition, 5^29 > 2^63 with it
    t = Topology(27, [(1, 2), (1, 27)])
    for members in [(), (1,)]:
        fast, slow = _views_both(t, 5, members, (4,) * 27)
        assert fast == slow and fast.total == 25
        assert (fast.codes.dtype == object) == bool(members)
    # one edge at p = 40,009 among five vertices, width 5 or 6
    p = 40009
    t = Topology(5, [(1, 2)])
    for members in [(), (1,), (3,)]:
        fast, slow = _views_both(t, p, members, (3, 40008, 0, 5, 1))
        assert fast == slow
        assert fast.total == p and len(fast.counts) == p


def _reference_chunks(monkeypatch, chunk: int) -> list[int]:
    # the reference walks its b-vectors `chunk` rows at a time; the rows of
    # each of its chunks, in order
    rows, b_chunks = [], reference.reference_b_chunks

    def small(num_edges, p, total):
        for block in b_chunks(num_edges, p, total, chunk):
            rows.append(len(block))
            yield block

    monkeypatch.setattr(reference, "reference_b_chunks", small)
    return rows


@pytest.mark.parametrize("chunk", [4, 8, 10, 30])
def test_enumeration_matches_row_sort_with_small_chunks(monkeypatch, chunk):
    # The fold against the reference walking its rows `chunk` at a time, so
    # each outcome's count is merged over many chunks of the row sort: several
    # edges at small p, and codes past 2^63 (40 vertices); coalitions none,
    # {1} and {2}
    rows = _reference_chunks(monkeypatch, chunk)
    k4 = Topology(4, list(itertools.combinations(range(1, 5), 2)))
    ring = Topology(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    wide = Topology(40, [(1, 2), (2, 3), (3, 4)])
    cases = [
        (k4, 3, (0, 1, 2, 2)),
        (path3(), 11, (3, 0, 10)),
        (ring, 5, (4, 0, 1, 3)),
        (wide, 3, (2, 0, 1, 1) + (0,) * 36),
    ]
    for t, p, s in cases:
        total = p ** len(t.edges)
        for members in [(), (1,), (2,)]:
            rows.clear()
            fast, slow = _views_both(t, p, members, s)
            assert fast == slow and fast.total == total
            assert sum(rows) == total and len(rows) == -(-total // chunk)


def test_enumeration_memory_follows_the_support():
    # masks of K6 at p = 3: 3^15 edge-difference vectors but 3^5 masks, so
    # the enumeration's peak allocation follows the 243 outcomes
    k6 = Topology(6, list(itertools.combinations(range(1, 7), 2)))
    tracemalloc.start()
    try:
        hist = enumerate_mask_distribution(k6, 3, budget=2 * 10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(hist) == 3**5 and set(hist.tallies.tolist()) == {3**10}
    assert peak < 256 * 1024


def test_enumeration_refuses_spaces_int64_codes_cannot_index():
    with pytest.raises(EnumerationBudgetError, match="2\\^63"):
        enumerate_mask_distribution(Topology(2, [(1, 2)]), 2**64 - 59, budget=10**23)
    with pytest.raises(EnumerationBudgetError, match=str(2**63)):
        enumerate_mask_distribution(Topology(64, [(i, i + 1) for i in range(1, 64)]), 2, budget=2**64)


def _by_value(marginals):
    # one-column histograms as {value: count}, the reference's form
    return [{v: c for (v,), c in h.items()} for h in marginals]


def _neighborhood(t: Topology, members: frozenset[int]) -> set[int]:
    # C ∪ N(C), the only agents whose streams a marginal sample draws
    return set(members).union(*(t.neighbors(i) for i in members))


@pytest.mark.parametrize("p", [2, 30, 401, 2**64 - 59])
def test_marginal_bins_match_the_per_key_counters(p):
    # 300 samples: p = 2 and 30 are counted by bincount, 401 and 2^64 - 59
    # sorted. The reference bins views drawn from every agent's stream; the
    # sampler gets the streams of C ∪ N(C) alone, so touching any other is a
    # KeyError (an empty coalition gets none), and each one it gets must end
    # where the whole-view sampler leaves it.
    rnd = random.Random(p % 997)
    for t, members in _view_key_cases():
        s = tuple(rnd.randrange(p) for _ in range(t.n))
        cols = _coalition_edges(t, members)
        honest = [i for i in t.vertices if i not in members]
        every = {i: SeededRng(11, (1, i)) for i in t.vertices}
        drawn = {i: SeededRng(11, (1, i)) for i in _neighborhood(t, members)}
        views = _sample_view_columns(t, p, s, cols, every, samples=300)
        fast = _by_value(_sample_marginals(t, p, s, members, cols, drawn, samples=300))
        slow = reference_marginal_bins(reference_view_keys(views, p), p, honest, len(cols))
        assert fast == slow
        assert all(type(v) is int and type(c) is int for b in fast for v, c in b.items())
        for i, rng in drawn.items():
            assert rng.randint_below(2**32) == every[i].randint_below(2**32)


def test_marginal_chi_square_matches_the_per_key_tables():
    # each marginal of a path's views with agent 2 in the coalition, tested as
    # the sampled audit tests it
    p, members = 30, frozenset({2})
    pairs = list(enumerate(((1, 0, 2), (2, 0, 1))))
    views = [
        _sample_view_columns(path3(), p, vec, [0, 1], {i: SeededRng(4, (idx, i)) for i in (1, 2, 3)}, 3000)
        for idx, vec in pairs
    ]
    fast = [
        _sample_marginals(path3(), p, vec, members, [0, 1], {i: SeededRng(4, (idx, i)) for i in (1, 2, 3)}, 3000)
        for idx, vec in pairs
    ]
    slow = [reference_marginal_bins(reference_view_keys(v, p), p, [1, 3], 2) for v in views]
    for a, b, ref_a, ref_b in zip(*fast, *slow):
        assert _two_sample_chi_square(a, b) == reference_two_sample_chi_square(ref_a, ref_b)


def test_marginal_honest_sum_past_int64():
    # int64 columns (p·(|E|+1) < 2^63); the four isolated agents alone sum past
    # 2^63, so the honest sum of the inputs is reduced mod p before the edges'
    # differences are added to it
    p = 2**62 - 57
    t = Topology(6, [(1, 2)])
    s = tuple(p - k for k in range(1, 7))
    for members in [frozenset(), frozenset({1})]:
        cols = _coalition_edges(t, members)
        honest = [i for i in t.vertices if i not in members]
        views = _sample_view_columns(t, p, s, cols, {i: SeededRng(3, (0, i)) for i in t.vertices}, samples=50)
        assert all(column.dtype == np.int64 for column in views)
        drawn = {i: SeededRng(3, (0, i)) for i in _neighborhood(t, members)}
        fast = _by_value(_sample_marginals(t, p, s, members, cols, drawn, samples=50))
        assert fast == reference_marginal_bins(reference_view_keys(views, p), p, honest, len(cols))
        if not members:
            assert fast == [{sum(s) % p: 50}]


def test_chi2_contingency_matches_scipy_bit_for_bit():
    from scipy.stats import chi2_contingency as scipy_chi2_contingency

    rng = np.random.default_rng(2026)
    for _ in range(300):
        k = int(rng.integers(2, 401))
        table = rng.integers(0, int(rng.choice([6, 60, 5000])), size=(2, k))
        table[:, table.sum(axis=0) == 0] = 1  # no empty column
        statistic, pvalue, expected = chi2_contingency(table)
        res = scipy_chi2_contingency(table, correction=False)
        assert statistic == res.statistic
        assert pvalue == res.pvalue
        assert expected.min() == res.expected_freq.min()
        assert np.array_equal(expected, res.expected_freq)


def _column(counts):
    # a one-column histogram of values mod 5
    return histogram_from_counts({(v,): c for v, c in counts.items()}, 5, 1)


def test_two_sample_chi_square_refuses_small_expected_counts():
    with pytest.raises(ValueError, match="expected count 2.50 below 5"):
        _two_sample_chi_square(_column({0: 3, 1: 2}), _column({0: 2, 1: 3}))
    assert _two_sample_chi_square(_column({4: 9}), _column({4: 7})) == (0.0, 1.0)
    stat, pvalue = _two_sample_chi_square(_column({0: 30, 1: 20}), _column({0: 20, 1: 30}))
    assert stat == 4.0 and 0.045 < pvalue < 0.046
    # outcomes seen in one sample only get a zero in the other's row
    a, b = {0: 30, 1: 20, 3: 12}, {1: 25, 2: 40, 3: 9}
    assert _two_sample_chi_square(_column(a), _column(b)) == reference_two_sample_chi_square(a, b)


def _moved_inputs(s, p, honest):
    # one unit moved between two honest agents: equal honest sums
    moved = list(s)
    if len(honest) >= 2:
        moved[honest[0] - 1] = (moved[honest[0] - 1] + 1) % p
        moved[honest[-1] - 1] = (moved[honest[-1] - 1] - 1) % p
    return tuple(moved)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_code_histograms_compare_like_tuple_histograms(p):
    # every labelled graph on up to 4 vertices, no coalition and each single
    # vertex: equality, support size and histogram.csv from the code arrays
    # against the reference's tuple dicts
    rnd = random.Random(100 + p)
    verdicts = set()
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for r in range(len(pairs) + 1):
            for edges in itertools.combinations(pairs, r):
                t = Topology(n, list(edges))
                s = tuple(rnd.randrange(p) for _ in range(n))
                for members in [()] + [(i,) for i in t.vertices]:
                    honest = [i for i in t.vertices if i not in members]
                    fast, slow = _views_both(t, p, members, s)
                    drawn = tuple(rnd.randrange(p) for _ in range(n))
                    for other in (_moved_inputs(s, p, honest), drawn):
                        fast_other, slow_other = _views_both(t, p, members, other)
                        assert (fast == fast_other) == (dict(slow) == dict(slow_other))
                        assert (fast != fast_other) == (dict(slow) != dict(slow_other))
                        verdicts.add(fast == fast_other)
                    assert len(fast.counts) == len(slow.counts)
                    assert fast.counts._decoded is None  # no tuples so far
                    assert histogram_csv(fast) == reference_histogram_csv(slow)
    assert verdicts == {True, False}


def test_code_histograms_compare_past_int64_codes():
    # 40 vertices at p = 3: 3^40 >= 2^63, so the codes are Python ints
    t = Topology(40, [(1, 2), (2, 3), (3, 4)])
    s = (2, 0, 1, 1) + (0,) * 36
    same_sum = (0, 1, 1, 2) + (0,) * 36  # same sum on the component of 1..4
    other = (1, 0, 1, 1) + (0,) * 36
    for members, expect_same in [((), True), ((2,), False)]:
        fast, slow = _views_both(t, 3, members, s)
        assert fast.counts.codes.dtype == object
        fast_same, slow_same = _views_both(t, 3, members, same_sum)
        assert (fast == fast_same) == (dict(slow) == dict(slow_same)) == expect_same
        fast_other, slow_other = _views_both(t, 3, members, other)
        assert (fast != fast_other) and (dict(slow) != dict(slow_other))
        assert len(fast.counts) == len(slow.counts) and fast.counts._decoded is None
        assert histogram_csv(fast) == reference_histogram_csv(slow)


def test_histogram_csv_matches_the_tuple_formatter():
    triangle = Topology(3, [(1, 2), (2, 3), (1, 3)])
    masks = enumerate_mask_distribution(triangle, 5)
    enumerated = [
        masks,
        enumerate_view_distribution(path3(), 3, AdversarySpec((2,)), (1, 2, 0)),
        # 3^40 >= 2^63: object codes
        enumerate_view_distribution(
            Topology(40, [(1, 2), (2, 3), (3, 4)]), 3, AdversarySpec(()), (2, 0, 1, 1) + (0,) * 36
        ),
        # digits past 2^63 on an edgeless graph
        enumerate_view_distribution(
            Topology(2, []), 2**64 - 59, AdversarySpec((1,)), (2**64 - 60, 5)
        ),
    ]
    assert enumerated[2].counts.codes.dtype == object
    for hist in enumerated:
        csv = histogram_csv(hist)
        assert hist.counts._decoded is None  # formatted without outcome tuples
        assert csv == reference_histogram_csv(hist)
    built = [
        histogram_from_counts({}, 5, 3),
        histogram_from_counts({(2, 1): 3, (0, 4): 1, (10, 0): 2, (0, 3): 1}, 11, 2),
        histogram_from_counts(dict(reversed(list(masks.counts.items()))), 5, 3),
        histogram_from_counts({(2**64 - 60, 5): 1, (7, 2**63 + 1): 2}, 2**64 - 59, 2),
    ]
    for hist in built:
        assert histogram_csv(hist) == reference_histogram_csv(hist)
    assert histogram_csv(built[2]) == histogram_csv(masks)


def test_dict_histograms_compare_with_enumerated_ones():
    p = 5
    hist = enumerate_mask_distribution(Topology(2, [(1, 2)]), p)
    built = histogram_from_counts({(k, (-k) % p): 1 for k in range(p)}, p, 2)
    assert hist == built and built == hist
    assert hist.counts == built.counts and built.counts == hist.counts
    lone = histogram_from_counts({(0, 0): p}, p, 2)
    assert hist != lone and lone != hist
    # code arrays: equal codes with other counts, or another width, differ;
    # another p compares the tuples
    triangle = Topology(3, [(1, 2), (2, 3), (1, 3)])
    assert enumerate_mask_distribution(triangle, 3) != enumerate_mask_distribution(path3(), 3)
    zeros = [enumerate_mask_distribution(Topology(n, []), 3) for n in (2, 3)]
    assert zeros[0].counts.codes.tolist() == zeros[1].counts.codes.tolist() and zeros[0] != zeros[1]
    ones = [enumerate_view_distribution(Topology(2, []), q, AdversarySpec(()), (1, 1)) for q in (2, 3)]
    assert ones[0].counts.codes.tolist() != ones[1].counts.codes.tolist() and ones[0] == ones[1]
    # the coset verdict reads a histogram built from a dict as an enumerated one
    for t in (triangle, Topology(4, [(1, 2), (3, 4)])):
        masks = enumerate_mask_distribution(t, 3)
        rebuilt = histogram_from_counts(dict(masks.counts), 3, t.n)
        from_dict = _mask_uniformity_verdict(t, 3, rebuilt)
        assert from_dict.to_text() == _mask_uniformity_verdict(t, 3, masks).to_text()
    uneven = dict(enumerate_mask_distribution(triangle, 3).counts)
    uneven[(0, 0, 0)] += 1
    verdict = _mask_uniformity_verdict(triangle, 3, histogram_from_counts(uneven, 3, 3))
    assert not verdict.passed and verdict.details["count_values"] == [3, 4]
