"""Graph queries against hand-checked cases, plus rank/component cross-checks."""
from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from privavg.topology import (
    Topology,
    connected_components,
    format_topology_text,
    incidence_matrix,
    incidence_rank_mod_p,
    is_vertex_cut,
    load_topology_text,
    vertex_connectivity,
)

from conftest import path3, random_connected_topology, ten_node_three_separators, triangle


def test_construction_canonicalizes_edges():
    t = Topology(4, [(3, 1), (2, 4), (1, 2)])
    assert t.edges == ((1, 2), (1, 3), (2, 4))
    assert t.neighbors(1) == {2, 3}
    assert t.degree(4) == 1


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        Topology(3, [(1, 1)])
    with pytest.raises(ValueError):
        Topology(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Topology(3, [(0, 2)])
    with pytest.raises(ValueError):
        Topology(3, [(1, 4)])
    with pytest.raises(ValueError):
        Topology(0, [])


def test_neighbors_out_of_range():
    with pytest.raises(ValueError):
        triangle().neighbors(4)


def test_components_whole_graph():
    assert connected_components(triangle()) == [frozenset({1, 2, 3})]
    two = Topology(4, [(1, 2), (3, 4)])
    assert connected_components(two) == [frozenset({1, 2}), frozenset({3, 4})]
    assert connected_components(Topology(1, [])) == [frozenset({1})]
    assert connected_components(triangle(), subset=[]) == []


def test_components_after_deleting_separators():
    t = ten_node_three_separators()
    rest = set(t.vertices) - {3, 5, 10}
    comps = connected_components(t, rest)
    assert comps == [frozenset({1, 2}), frozenset({4}), frozenset({6, 7, 8, 9})]


def test_vertex_cut_basics():
    assert not is_vertex_cut(triangle(), {3})
    assert is_vertex_cut(path3(), {2})
    assert not is_vertex_cut(path3(), {1})
    assert is_vertex_cut(ten_node_three_separators(), {3, 5, 10})
    assert not is_vertex_cut(triangle(), set())
    with pytest.raises(ValueError):
        is_vertex_cut(triangle(), {1, 2, 3})
    with pytest.raises(ValueError):
        is_vertex_cut(triangle(), {9})


def test_empty_cut_on_disconnected_graph():
    # an already-disconnected graph is "cut" by deleting nothing
    assert is_vertex_cut(Topology(4, [(1, 2), (3, 4)]), set())


def test_vertex_connectivity_known_graphs():
    assert vertex_connectivity(triangle()) == 2
    assert vertex_connectivity(path3()) == 1
    assert vertex_connectivity(Topology(4, [(1, 2), (2, 3), (3, 4), (1, 4)])) == 2
    assert vertex_connectivity(Topology(2, [(1, 2)])) == 1
    complete5 = Topology(5, list(itertools.combinations(range(1, 6), 2)))
    assert vertex_connectivity(complete5) == 4
    assert vertex_connectivity(Topology(4, [(1, 2), (3, 4)])) == 0
    assert vertex_connectivity(ten_node_three_separators()) == 2
    with pytest.raises(ValueError):
        vertex_connectivity(Topology(1, []))
    with pytest.raises(ValueError):
        vertex_connectivity(Topology(21, [(1, 2)]))


def test_vertex_connectivity_matches_full_subset_scan():
    # independent route: minimum |c| over every subset flagged by is_vertex_cut
    rnd = random.Random(7)
    for _ in range(20):
        t = random_connected_topology(rnd, rnd.randrange(2, 7))
        cuts = [
            len(c)
            for k in range(0, t.n)
            for c in itertools.combinations(t.vertices, k)
            if is_vertex_cut(t, c)
        ]
        expected = min(cuts) if cuts else t.n - 1
        assert vertex_connectivity(t) == expected


def test_incidence_matrix_triangle():
    t = triangle()
    assert t.edges == ((1, 2), (1, 3), (2, 3))
    assert incidence_matrix(t).tolist() == [[1, 1, 0], [-1, 0, 1], [0, -1, -1]]


def test_incidence_matrix_single_edge_and_column_sums():
    assert incidence_matrix(Topology(2, [(1, 2)])).tolist() == [[1], [-1]]
    rnd = random.Random(31)
    for _ in range(20):
        t = random_connected_topology(rnd, rnd.randrange(2, 9))
        assert np.array_equal(
            incidence_matrix(t).sum(axis=0), np.zeros(len(t.edges), dtype=np.int8)
        )


def test_incidence_rank_known_values():
    assert incidence_rank_mod_p(triangle(), 5) == 2
    assert incidence_rank_mod_p(Topology(4, [(1, 2), (3, 4)]), 5) == 2
    assert incidence_rank_mod_p(Topology(3, []), 5) == 0
    with pytest.raises(ValueError):
        incidence_rank_mod_p(triangle(), 30)
    with pytest.raises(ValueError):
        incidence_rank_mod_p(triangle(), 1)


def test_incidence_rank_equals_n_minus_components():
    rnd = random.Random(55)
    for _ in range(30):
        n = rnd.randrange(1, 9)
        pool = list(itertools.combinations(range(1, n + 1), 2))
        edges = [e for e in pool if rnd.random() < 0.4]
        t = Topology(n, edges)
        c = len(connected_components(t))
        for p in (2, 3, 5):
            assert incidence_rank_mod_p(t, p) == n - c


def test_topology_text_round_trip():
    t = ten_node_three_separators()
    assert load_topology_text(format_topology_text(t)) == t
    parsed = load_topology_text("# demo\nn 3\n\ne 1 2  # chord\ne 2 3\n")
    assert parsed == path3()


def test_topology_text_errors_name_lines():
    with pytest.raises(ValueError, match="line 2"):
        load_topology_text("n 3\ne 1 1\n")
    with pytest.raises(ValueError, match="line 3"):
        load_topology_text("n 3\ne 1 2\ne 2 1\n")
    with pytest.raises(ValueError, match="line 1"):
        load_topology_text("e 1 2\nn 3\n")
    with pytest.raises(ValueError, match="missing n"):
        load_topology_text("# nothing\n")
    with pytest.raises(ValueError, match="line 2"):
        load_topology_text("n 3\nq 1 2\n")


def test_topology_text_names_the_line_of_every_bad_vertex_count():
    # superscript two is a digit but not a decimal, so int() refuses it
    for count, complaint in (
        ("\u00b2", "expected 'n <count>'"),
        ("-1", "expected 'n <count>'"),
        ("x", "expected 'n <count>'"),
        ("3 4", "expected 'n <count>'"),
        ("0", "vertex count must be at least 1, got 0"),
        ("00", "vertex count must be at least 1, got 0"),
        ("7" * 5000, "Exceeds the limit"),
    ):
        with pytest.raises(ValueError, match=f"^line 2: {complaint}"):
            load_topology_text(f"# graph\nn {count}\ne 1 2\n")
    assert load_topology_text("n 03\ne 1 2\n").n == 3


def test_topology_text_loads_four_thousand_edges_and_names_duplicates():
    n = 2000
    rnd = random.Random(4000)
    edges = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    while len(edges) < 4000:
        a, b = sorted(rnd.sample(range(1, n + 1), 2))
        edges.add((a, b))
    text = format_topology_text(Topology(n, edges))
    t = load_topology_text(text)
    assert t.n == n and len(t.edges) == 4000
    # a repeat is named with its line, whichever way round either copy is written
    lineno = text.count("\n") + 1
    for base in (text, text.replace("\ne 1 2\n", "\ne 2 1\n")):
        for a, b in ((1, 2), (2, 1)):
            with pytest.raises(ValueError, match=rf"^line {lineno}: duplicate edge \{{1,2\}}$"):
                load_topology_text(base + f"e {a} {b}\n")
