"""Undirected simple graphs: connectivity queries, cuts, and incidence algebra.

Vertices are 1..n. Edges are held in canonical form (endpoints ordered low,
high and the edge list sorted lexicographically) because the incidence
matrix column order is part of the external interface downstream (edge
difference vectors are reported against it).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "IncidenceMatrix",
    "Topology",
    "connected_components",
    "incidence_matrix",
    "incidence_rank_mod_p",
    "is_vertex_cut",
    "load_topology_text",
    "format_topology_text",
    "vertex_connectivity",
]

_BRUTE_FORCE_LIMIT = 20  # subset enumeration below is exponential in n


class Topology:
    """An undirected simple graph on vertices 1..n."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive int, got {n!r}")
        canon = []
        seen = set()
        for e in edges:
            i, j = e
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge {e} has an endpoint outside 1..{n}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            lo, hi = (i, j) if i < j else (j, i)
            if (lo, hi) in seen:
                raise ValueError(f"duplicate edge {{{lo},{hi}}}")
            seen.add((lo, hi))
            canon.append((lo, hi))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def neighbors(self, v: int) -> frozenset[int]:
        try:
            return self._adj[v]
        except KeyError:
            raise ValueError(f"vertex {v} outside 1..{self.n}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Topology) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, edges={list(self.edges)})"


def connected_components(t: Topology, subset: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
    """Components of the subgraph induced on `subset` (default: every vertex).

    Returned as disjoint vertex sets ordered by smallest member; a vertex with
    no surviving neighbors is its own component.
    """
    if subset is None:
        pool = set(t.vertices)
    else:
        pool = set(subset)
        for v in pool:
            if not 1 <= v <= t.n:
                raise ValueError(f"vertex {v} outside 1..{t.n}")
    comps = []
    remaining = set(pool)
    while remaining:
        start = min(remaining)
        comp = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in t.neighbors(v):
                if w in pool and w not in comp:
                    comp.add(w)
                    frontier.append(w)
        comps.append(frozenset(comp))
        remaining -= comp
    comps.sort(key=min)
    return comps


def _format_components(comps: Iterable[frozenset[int]]) -> str:
    return " ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in comps)


def _require_connected(t: Topology, what: str) -> None:
    comps = connected_components(t)
    if len(comps) > 1:
        raise ValueError(f"{what} needs a connected graph; components: {_format_components(comps)}")


def is_vertex_cut(t: Topology, cut: Iterable[int]) -> bool:
    """True iff deleting `cut` (a proper subset of V) disconnects the rest."""
    c = set(cut)
    for v in c:
        if not 1 <= v <= t.n:
            raise ValueError(f"vertex {v} outside 1..{t.n}")
    if len(c) == t.n:
        raise ValueError("cut equals the whole vertex set; only proper subsets qualify")
    rest = set(t.vertices) - c
    return len(connected_components(t, rest)) > 1


def vertex_connectivity(t: Topology) -> int:
    """Size of the smallest vertex cut, by exhaustive subset search.

    Disconnected graphs give 0 and complete graphs n-1 (no cut exists).
    Exponential in n, so refuses graphs beyond n=20; the audit scenarios
    this backs are all far smaller.
    """
    if t.n < 2:
        raise ValueError("vertex connectivity needs at least two vertices")
    if t.n > _BRUTE_FORCE_LIMIT:
        raise ValueError(f"exhaustive search capped at n={_BRUTE_FORCE_LIMIT}, got n={t.n}")
    if len(connected_components(t)) > 1:
        return 0
    for k in range(1, t.n - 1):
        for c in itertools.combinations(t.vertices, k):
            if is_vertex_cut(t, c):
                return k
    return t.n - 1


@dataclass(frozen=True)
class IncidenceMatrix:
    """Signed node-by-edge incidence: +1 at the low endpoint, -1 at the high one."""

    matrix: np.ndarray  # shape (n, |E|), dtype int8
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.matrix.shape[0], len(self.edges)):
            raise ValueError("matrix shape disagrees with edge list")


def incidence_matrix(t: Topology) -> IncidenceMatrix:
    m = np.zeros((t.n, len(t.edges)), dtype=np.int8)
    for col, (i, j) in enumerate(t.edges):
        m[i - 1, col] = 1
        m[j - 1, col] = -1
    return IncidenceMatrix(matrix=m, edges=t.edges)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def incidence_rank_mod_p(t: Topology, p: int) -> int:
    """Rank of the incidence matrix over Z_p, p prime.

    Incidence matrices are totally unimodular, so this equals the rational
    rank n - (number of connected components) for every prime p; callers use
    the equality as a cross-check, so it is recomputed honestly here by
    elimination rather than assumed.
    """
    p = int(p)
    if not _is_prime(p):
        raise ValueError(f"rank over Z_p needs a prime modulus, got {p}")
    a = incidence_matrix(t).matrix.astype(np.int64) % p
    rows, cols = a.shape
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r, col] % p), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), -1, p)) % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - int(a[r, col]) * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def load_topology_text(text: str) -> Topology:
    """Parse the on-disk graph format: one `n <count>` line, then `e <i> <j>` lines.

    Vertex ids are 1-based. Blank lines and `#` comments are allowed;
    anything malformed raises ValueError naming the line.
    """
    n: Optional[int] = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ValueError(f"line {lineno}: repeated n line")
            if len(parts) != 2 or not parts[1].isdigit():
                raise ValueError(f"line {lineno}: expected 'n <count>'")
            n = int(parts[1])
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before the n line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <i> <j>'")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"line {lineno}: endpoint outside 1..{n}")
            if i == j:
                raise ValueError(f"line {lineno}: self-loop at vertex {i}")
            edge = (min(i, j), max(i, j))
            if edge in edges:
                raise ValueError(f"line {lineno}: duplicate edge {{{edge[0]},{edge[1]}}}")
            edges.add(edge)
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ValueError("missing n line")
    return Topology(n, edges)


def format_topology_text(t: Topology) -> str:
    lines = [f"n {t.n}"]
    lines.extend(f"e {i} {j}" for i, j in t.edges)
    return "\n".join(lines) + "\n"
