"""Undirected simple graphs: connectivity queries, cuts, and incidence algebra.

Vertices are 1..n. Edges are held in canonical form (endpoints ordered low,
high and the edge list sorted lexicographically) because the incidence
matrix column order is part of the external interface downstream (edge
difference vectors are reported against it).
"""
from __future__ import annotations

import itertools
import reprlib
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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
# the largest vertex count read from text; a Topology builds one set per vertex
MAX_VERTICES = 10**5
# the most b-vectors, p^|E| of them, that an exact audit enumerates by default;
# held here, beside the other size cap, so that reading it loads no audit code
DEFAULT_BUDGET = 10**7


class Topology:
    """An undirected simple graph on vertices 1..n."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"vertex count must be a positive int, got {n!r}")
        seen: set[tuple[int, int]] = set()
        for i, j in edges:
            _add_edge(i, j, n, seen)
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
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


def _add_edge(i: int, j: int, n: int, seen: set[tuple[int, int]]) -> None:
    """Check edge {i, j} of a simple graph on 1..n and add it to `seen` as (low, high)."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge {{{reprlib.repr(i)},{reprlib.repr(j)}}} has an endpoint outside 1..{n}")
    if i == j:
        raise ValueError(f"self-loop at vertex {i}")
    edge = (i, j) if i < j else (j, i)
    if edge in seen:
        raise ValueError(f"duplicate edge {{{edge[0]},{edge[1]}}}")
    seen.add(edge)


def connected_components(t: Topology, subset: Optional[Iterable[int]] = None) -> list[frozenset[int]]:
    """Components of the subgraph induced on `subset` (default: every vertex).

    Returned as disjoint vertex sets ordered by smallest member; a vertex with
    no surviving neighbors is its own component.
    """
    if subset is None:
        pool = set(t.vertices)
    else:
        pool = set(subset)
        _require_vertices(t, pool)
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


def _require_vertices(t: Topology, vertices: Iterable[int], what: str = "vertex") -> None:
    for v in vertices:
        if not 1 <= v <= t.n:
            raise ValueError(f"{what} {v} outside 1..{t.n}")


def _format_components(comps: Iterable[frozenset[int]]) -> str:
    return " ".join("{" + ",".join(map(str, sorted(c))) + "}" for c in comps)


def _require_connected(t: Topology, what: str) -> None:
    comps = connected_components(t)
    if len(comps) > 1:
        raise ValueError(f"{what} needs a connected graph; components: {_format_components(comps)}")


def _cut_components(t: Topology, cut: Iterable[int]) -> list[frozenset[int]]:
    """Components left after deleting `cut`, a proper subset of V."""
    c = set(cut)
    _require_vertices(t, c)
    if len(c) == t.n:
        raise ValueError("cut equals the whole vertex set; only proper subsets qualify")
    return connected_components(t, set(t.vertices) - c)


def is_vertex_cut(t: Topology, cut: Iterable[int]) -> bool:
    """True iff deleting `cut` (a proper subset of V) disconnects the rest."""
    return len(_cut_components(t, cut)) > 1


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


def incidence_matrix(t: Topology) -> np.ndarray:
    """Signed node-by-edge incidence, shape (n, |E|), int8: +1 at each edge's
    low endpoint, -1 at its high one; columns follow `t.edges`."""
    import numpy as np  # only here, so that graph checks never load it

    m = np.zeros((t.n, len(t.edges)), dtype=np.int8)
    for col, (i, j) in enumerate(t.edges):
        m[i - 1, col] = 1
        m[j - 1, col] = -1
    return m


# Miller–Rabin with the prime bases up to 37 decides every n below this bound
# (Sorenson and Webster 2015), far past the 2^64 that `Modulus` accepts
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(p: int) -> bool:
    if p >= _MR_LIMIT:
        raise ValueError(f"cannot decide whether {p} is prime: past {_MR_LIMIT}")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def incidence_rank_mod_p(t: Topology, p: int) -> int:
    """Rank of the incidence matrix over Z_p, p prime.

    Incidence matrices are totally unimodular, so this equals the rational
    rank n - (number of connected components) for every prime p; callers use
    the equality as a cross-check, so it is recomputed honestly here by
    elimination rather than assumed. The elimination runs on Python ints,
    since a product of two residues overflows int64 once p passes 2^32.
    """
    p = int(p)
    if not _is_prime(p):
        raise ValueError(f"rank over Z_p needs a prime modulus, got {p}")
    rows = [[x % p for x in row] for row in incidence_matrix(t).tolist()]
    rank = 0
    for col in range(len(t.edges)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        lead = rows[rank] = [x * inv % p for x in rows[rank]]
        for r, row in enumerate(rows):
            f = row[col]
            if r != rank and f:
                rows[r] = [(x - f * y) % p for x, y in zip(row, lead)]
        rank += 1
        if rank == len(rows):
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
            if len(parts) != 2 or not parts[1].isdecimal():
                raise ValueError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError as exc:  # past the int-string digit limit
                raise ValueError(f"line {lineno}: {exc}") from None
            if n < 1:
                raise ValueError(f"line {lineno}: vertex count must be at least 1, got {n}")
            if n > MAX_VERTICES:
                raise ValueError(
                    f"line {lineno}: vertex count must be at most {MAX_VERTICES}, got {reprlib.repr(n)}"
                )
        elif parts[0] == "e":
            if n is None:
                raise ValueError(f"line {lineno}: edge before the n line")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <i> <j>'")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
            try:
                _add_edge(i, j, n, edges)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
        else:
            raise ValueError(f"line {lineno}: unknown directive {reprlib.repr(parts[0])}")
    if n is None:
        raise ValueError("missing n line")
    return Topology(n, edges)


def format_topology_text(t: Topology) -> str:
    lines = [f"n {t.n}"]
    lines.extend(f"e {i} {j}" for i, j in t.edges)
    return "\n".join(lines) + "\n"
