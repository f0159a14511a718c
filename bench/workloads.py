"""Seeded job streams for the three benchmark workloads, and their oracles.

A workload is a fixed table of job slots. The seed picks each slot's graph,
inputs, coalition and protocol seed, never its size, so one pass over the
slots costs about the same from seed to seed while the files the program
reads change. Slot sizes are interleaved so that any prefix of a pass has
roughly the mean cost of the whole pass.

Each job is one or more `privavg` CLI commands run on the same config. The
program sees only the files a job writes (`config.ini`, `graph.txt`); the
facts the oracle needs (true average, expected verdict, cut components) stay
here and are worked out with this module's own graph code, never with
`privavg`'s.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from privavg.simnet import RunReport

WORKLOADS = ("run-flood", "run-gossip", "audit")

# run-flood: (n, |E|). Ring plus random chords, two-member coalition. Eight
# slots share the middle size, so the median job sits on a plateau of
# similar jobs and does not jump between sizes from run to run.
FLOOD_SLOTS = (
    (12, 24), (15, 30), (10, 20), (12, 24), (13, 26), (11, 22),
    (12, 24), (14, 28), (12, 24), (11, 22), (12, 24), (13, 26),
    (10, 20), (12, 24), (14, 28), (12, 24), (11, 22), (12, 24),
)

# run-gossip: (n, |E|). Sparse rings with a few chords mix slowly. Middle
# plateau as for run-flood.
GOSSIP_SLOTS = (
    (10, 12), (13, 16), (8, 10), (10, 12), (11, 14), (9, 11),
    (10, 12), (12, 15), (10, 12), (7, 9), (10, 12), (11, 14),
    (8, 10), (10, 12), (12, 15), (10, 12), (9, 11), (10, 12),
)

# audit-exact: (claim, n, |E|, p, coalition size, kind). p^|E| is the
# enumeration size. kind: "connected" / "disconnected" for the uniformity
# claims; "safe" (coalition is no vertex cut), "cut-same" (a cut, but the
# inputs move inside one honest component) and "cut-leak" (a cut, inputs move
# across it) for the two view claims.
EXACT_SLOTS = (
    ("view-identity", 6, 6, 5, 1, "safe"),
    ("mask-uniformity", 5, 9, 3, 0, "connected"),
    ("group-privacy", 7, 13, 2, 2, "cut-leak"),
    ("input-uniformity", 6, 15, 2, 0, "connected"),
    ("view-identity", 5, 5, 7, 1, "cut-leak"),
    ("group-privacy", 6, 8, 3, 1, "safe"),
    ("mask-uniformity", 6, 5, 7, 0, "disconnected"),
    ("view-identity", 7, 13, 2, 2, "cut-same"),
    ("input-uniformity", 5, 6, 5, 0, "connected"),
    ("group-privacy", 5, 6, 5, 1, "cut-leak"),
    ("view-identity", 6, 8, 3, 2, "cut-leak"),
    ("mask-uniformity", 4, 5, 7, 0, "connected"),
    ("group-privacy", 6, 13, 2, 2, "safe"),
    ("view-identity", 4, 5, 7, 1, "safe"),
    ("input-uniformity", 7, 9, 3, 0, "disconnected"),
    ("group-privacy", 5, 6, 5, 1, "cut-same"),
    ("view-identity", 7, 8, 3, 3, "cut-leak"),
    ("mask-uniformity", 7, 14, 2, 0, "connected"),
)

# audit-sampled, as many slots as audit-exact: (n, |E|, p, samples, coalition
# size, separating). The
# three-vertex paths keep the view space at most 10^4 so whole views are
# binned; the rest fall back to marginal binning.
SAMPLED_SLOTS = (
    (14, 24, 13, 700, 2, True),
    (3, 2, 11, 3000, 1, False),
    (12, 20, 31, 700, 1, True),
    (16, 28, 17, 500, 3, False),
    (13, 22, 11, 600, 2, False),
    (15, 26, 31, 600, 3, True),
    (12, 18, 17, 800, 1, False),
    (3, 2, 13, 3000, 1, False),
    (14, 24, 11, 600, 2, True),
    (21, 32, 31, 500, 2, True),
    (13, 22, 17, 600, 3, True),
    (12, 20, 31, 800, 2, False),
    (15, 24, 11, 600, 1, True),
    (3, 2, 11, 3000, 1, False),
    (14, 22, 13, 600, 3, False),
    (16, 28, 31, 600, 2, True),
    (13, 20, 17, 700, 1, True),
    (12, 20, 11, 700, 2, True),
)

# the slot each workload's fresh-process `cli_wall_s` runs: one of median size
PINNED_SLOT = {"run-flood": 0, "run-gossip": 0, "audit": 0}

FULL_BIN_LIMIT = 10**4  # privavg's documented switch to marginal binning


@dataclass
class Job:
    """One job: the files it reads, the CLI commands it runs, what to expect.

    `kind` is one of run-flood, run-gossip, audit-exact and audit-sampled.
    """

    kind: str
    slot: int
    label: str
    files: dict[str, str]
    commands: tuple[tuple[str, ...], ...]
    expect: dict = field(default_factory=dict)

    def argv(self, job_dir: str) -> list[list[str]]:
        cfg = f"{job_dir}/config.ini"
        out = f"{job_dir}/out"
        return [[*cmd[:1], "--config", cfg, "--out", out, *cmd[1:]] for cmd in self.commands]


@dataclass
class CommandResult:
    status: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


def job_digest(results: list[CommandResult]) -> str:
    """SHA-256 over everything a job printed or wrote, in a fixed order."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"status {r.status}\n".encode())
        for stream in (r.stdout, r.stderr):
            data = stream.encode()
            h.update(f"{len(data)}\n".encode() + data)
        for name in sorted(r.files):
            h.update(f"file {name} {len(r.files[name])}\n".encode() + r.files[name])
    return h.hexdigest()


def run_digest(job_digests: list[str]) -> str:
    """One digest for a pass: the per-slot digests in slot order."""
    return hashlib.sha256("\n".join(job_digests).encode()).hexdigest()


# ---------------------------------------------------------------- graphs


def _canon(i: int, j: int) -> tuple[int, int]:
    return (i, j) if i < j else (j, i)


def _cycle(order: list[int]) -> set[tuple[int, int]]:
    """Edges of the cycle through `order`; one edge for two vertices."""
    if len(order) < 2:
        return set()
    return {_canon(order[k], order[(k + 1) % len(order)]) for k in range(len(order))}


def components(n: int, edges, removed=()) -> list[list[int]]:
    """Components of the graph minus `removed`, each sorted, ordered by minimum."""
    gone = set(removed)
    adj: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen: set[int] = set()
    comps = []
    for start in range(1, n + 1):
        if start in gone or start in seen:
            continue
        seen.add(start)
        queue = [start]
        for v in queue:
            for w in adj[v]:
                if w not in gone and w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(queue))
    return comps


def _fill(rnd: random.Random, edges: set, m: int, pool: list[tuple[int, int]]) -> set:
    spare = sorted(set(pool) - edges)
    need = m - len(edges)
    if need < 0 or need > len(spare):
        raise ValueError(f"cannot reach {m} edges (have {len(edges)}, {len(spare)} spare)")
    return edges | set(rnd.sample(spare, need))


def _pairs(vertices) -> list[tuple[int, int]]:
    vs = sorted(vertices)
    return [(a, b) for k, a in enumerate(vs) for b in vs[k + 1:]]


def ring_with_chords(rnd: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A Hamiltonian cycle (a path when m < n) in random vertex order plus
    random chords."""
    order = list(range(1, n + 1))
    rnd.shuffle(order)
    base = _cycle(order) if m >= n else {_canon(a, b) for a, b in zip(order, order[1:])}
    return sorted(_fill(rnd, base, m, _pairs(order)))


def separated_graph(
    rnd: random.Random, n: int, m: int, k: int
) -> tuple[list[tuple[int, int]], list[int], list[int], list[int]]:
    """A connected graph in which a k-vertex set S separates parts A and B.

    Two cycles, one through S and A and one through S and B, plus chords that
    stay on one side. Returns (edges, S, A, B).
    """
    labels = list(range(1, n + 1))
    rnd.shuffle(labels)
    s, rest = labels[:k], labels[k:]

    def room(x: int) -> int:  # edges possible with x vertices on one side
        return (k + x) * (k + x - 1) // 2

    splits = [
        x for x in range(1, len(rest))
        if len(_cycle(s + rest[:x]) | _cycle(s + rest[x:]))
        <= m <= room(x) + room(len(rest) - x) - k * (k - 1) // 2
    ]
    if not splits:
        raise ValueError(f"no {k}-vertex separator fits {m} edges on {n} vertices")
    cut = rnd.choice(splits)
    a, b = rest[:cut], rest[cut:]
    edges = _cycle(s + a) | _cycle(s + b)
    pool = _pairs(s + a) + _pairs(s + b)
    return sorted(_fill(rnd, edges, m, pool)), sorted(s), sorted(a), sorted(b)


def random_connected(rnd: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random spanning tree plus random extra edges, m in total."""
    order = list(range(1, n + 1))
    rnd.shuffle(order)
    edges = {_canon(order[i], order[rnd.randrange(i)]) for i in range(1, n)}
    return sorted(_fill(rnd, edges, m, _pairs(order)))


def two_pieces(rnd: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Two connected pieces of n//2 and n - n//2 vertices, m edges in all."""
    k = n // 2
    left_m = min(m - (n - k - 1), k * (k - 1) // 2)
    left = random_connected(rnd, k, left_m)
    right = random_connected(rnd, n - k, m - left_m)
    return sorted(left + [(i + k, j + k) for i, j in right])


def topology_text(n: int, edges) -> str:
    lines = [f"# generated graph, {n} vertices, {len(edges)} edges", f"n {n}"]
    lines += [f"e {i} {j}" for i, j in edges]
    return "\n".join(lines) + "\n"


def _config(sections: dict[str, dict[str, object]]) -> str:
    out = []
    for name, entries in sections.items():
        out.append(f"[{name}]")
        out += [f"{k} = {v}" for k, v in entries.items()]
        out.append("")
    return "\n".join(out)


def _ints(xs) -> str:
    return " ".join(str(x) for x in xs)


def _move(rnd: random.Random, s: list[int], p: int, u: int, v: int) -> tuple[list[int], list[int]]:
    """A pair (s, s') that differ only at agents u and v (1-based): s' moves
    delta > 0 from v to u. s is redrawn at u and v when it leaves no room."""
    s = list(s)
    if min(p - 1 - s[u - 1], s[v - 1]) < 1:
        s[u - 1] = rnd.randrange(0, p - 1)
        s[v - 1] = rnd.randrange(1, p)
    delta = rnd.randint(1, min(p - 1 - s[u - 1], s[v - 1]))
    t = list(s)
    t[u - 1] += delta
    t[v - 1] -= delta
    return s, t


def view_verdict(n: int, edges, coalition, s, s_prime, p: int) -> bool:
    """Theory: the two view distributions are identical iff s - s' sums to 0
    mod p on every component the coalition leaves behind."""
    for comp in components(n, edges, coalition):
        if sum(s[i - 1] - s_prime[i - 1] for i in comp) % p:
            return False
    return True


# ---------------------------------------------------------------- generators


def _rngs(workload: str, seed: int, slot: int) -> tuple[random.Random, random.Random]:
    """(shape, draw): the slot's graph and coalition come from `shape`, which
    the seed does not reach, so their cost is the same at every seed; `draw`
    gives the vertex labels, inputs and protocol seed."""
    return (
        random.Random(f"privavg-bench:{workload}:slot{slot}"),
        random.Random(f"privavg-bench:{workload}:{seed}:{slot}"),
    )


def _relabel(draw: random.Random, n: int, edges, *groups):
    """Rename the vertices by a random permutation: (edges, *groups)."""
    perm = list(range(1, n + 1))
    draw.shuffle(perm)
    new_edges = sorted(_canon(perm[i - 1], perm[j - 1]) for i, j in edges)
    return (new_edges, *[sorted(perm[v - 1] for v in g) for g in groups])


def _non_cut(rnd: random.Random, n: int, edges, k: int) -> list[int]:
    while True:
        coalition = sorted(rnd.sample(range(1, n + 1), k))
        if len(components(n, edges, coalition)) == 1:
            return coalition


def _run_job(workload: str, seed: int, slot: int, n: int, m: int) -> Job:
    shape, draw = _rngs(workload, seed, slot)
    gossip = workload == "run-gossip"
    edges = ring_with_chords(shape, n, m)
    edges, coalition = _relabel(draw, n, edges, [] if gossip else shape.sample(range(1, n + 1), 2))
    q1 = draw.choice((0, 0, -4, 3))
    raw = [q1 + draw.randint(0, 9) for _ in range(n)]
    experiment = {"seed": draw.randrange(2**32), "q1": q1, "q2": q1 + 9, "max_delay": 4}
    sections = {
        "experiment": experiment,
        "topology": {"file": "graph.txt"},
        "inputs": {"values": _ints(raw)},
    }
    if coalition:
        sections["adversary"] = {"members": _ints(coalition)}
    return Job(
        kind=workload,
        slot=slot,
        label=f"n={n} E={m}",
        files={"config.ini": _config(sections), "graph.txt": topology_text(n, edges)},
        commands=(("run", "--algo", "gossip") if gossip else ("run",),),
        expect={
            "n": n,
            "raw": raw,
            "q1": q1,
            "algo": "gossip_avg" if gossip else "flood_sum",
            "coalition": coalition or None,
        },
    )


def _exact_job(seed: int, slot: int) -> Job:
    claim, n, m, p, k, kind = EXACT_SLOTS[slot]
    shape, draw = _rngs("audit-exact", seed, slot)
    audit: dict[str, object] = {"claim": claim}
    sections = {"experiment": {"seed": draw.randrange(2**32), "p": p}, "topology": {"file": "graph.txt"}}
    expect: dict = {"claim": claim, "n": n, "m": m, "p": p}
    if claim in ("mask-uniformity", "input-uniformity"):
        edges = random_connected(shape, n, m) if kind == "connected" else two_pieces(shape, n, m)
        (edges,) = _relabel(draw, n, edges)
        comps = len(components(n, edges))
        expect.update(passed=comps == 1, components=comps)
        if claim == "input-uniformity":
            sections["inputs"] = {"values": _ints(draw.randrange(p) for _ in range(n))}
    else:
        if kind == "safe":
            edges = random_connected(shape, n, m)
            coalition = _non_cut(shape, n, edges, k)
            honest = [v for v in range(1, n + 1) if v not in coalition]
            u, v = draw.sample(honest, 2)
        else:
            edges, coalition, a, b = separated_graph(shape, n, m, k)
            side = a if len(a) >= 2 else b
            u, v = draw.sample(side, 2) if kind == "cut-same" else (draw.choice(a), draw.choice(b))
        extra = [x for x in range(1, n + 1) if x not in coalition and x not in (u, v)]
        group = [u, v] + draw.sample(extra, min(1, len(extra)))
        edges, coalition, (u, v), group = _relabel(draw, n, edges, coalition, [u, v], group)
        s, s_prime = _move(draw, [draw.randrange(p) for _ in range(n)], p, u, v)
        sections["inputs"] = {"values": _ints(s)}
        sections["adversary"] = {"members": _ints(coalition)}
        audit["s_prime"] = _ints(s_prime)
        if claim == "group-privacy":
            audit["group"] = _ints(group)
        expect.update(
            passed=view_verdict(n, edges, coalition, s, s_prime, p),
            coalition=coalition,
            cut=len(components(n, edges, coalition)) > 1,
        )
    sections["audit"] = audit
    return Job(
        kind="audit-exact",
        slot=slot,
        label=f"{claim} n={n} E={m} p={p}",
        files={"config.ini": _config(sections), "graph.txt": topology_text(n, edges)},
        commands=(("audit",),),
        expect=expect,
    )


def _sampled_job(seed: int, slot: int) -> Job:
    n, m, p, samples, k, separating = SAMPLED_SLOTS[slot]
    shape, draw = _rngs("audit-sampled", seed, slot)
    if separating:
        edges, coalition, a, b = separated_graph(shape, n, m, k)
        u, v = draw.choice(a), draw.choice(b)
    else:
        edges = ring_with_chords(shape, n, m)
        coalition = _non_cut(shape, n, edges, k)
        u, v = draw.sample([x for x in range(1, n + 1) if x not in coalition], 2)
    edges, coalition, (u, v) = _relabel(draw, n, edges, coalition, [u, v])
    s, s_prime = _move(draw, [draw.randrange(p) for _ in range(n)], p, u, v)
    cols = sum(1 for i, j in edges if i in coalition or j in coalition)
    space = min(p**m, p ** (n - 1 + cols))
    comps = components(n, edges, coalition)
    sections = {
        "experiment": {"seed": draw.randrange(2**32), "p": p},
        "topology": {"file": "graph.txt"},
        "inputs": {"values": _ints(s)},
        "adversary": {"members": _ints(coalition)},
        "audit": {"claim": "sampled-view", "s_prime": _ints(s_prime), "samples": samples},
    }
    return Job(
        kind="audit-sampled",
        slot=slot,
        label=f"sampled-view n={n} E={m} p={p} samples={samples} k={k}",
        files={"config.ini": _config(sections), "graph.txt": topology_text(n, edges)},
        commands=(("graph-check",), ("audit",)),
        expect={
            "n": n,
            "m": m,
            "p": p,
            "samples": samples,
            "coalition": coalition,
            "cut": len(comps) > 1,
            "components": comps,
            "binning": "full_view" if space <= FULL_BIN_LIMIT else "marginals",
            "leak": not view_verdict(n, edges, coalition, s, s_prime, p),
        },
    )


def generate(workload: str, seed: int) -> list[Job]:
    """The pass of jobs for `workload` at `seed`; same seed, same bytes.

    `audit` alternates the exact-audit and the sampled-audit slots.
    """
    if workload in ("run-flood", "run-gossip"):
        slots = FLOOD_SLOTS if workload == "run-flood" else GOSSIP_SLOTS
        return [_run_job(workload, seed, i, n, m) for i, (n, m) in enumerate(slots)]
    if workload == "audit":
        jobs = [job for i in range(len(EXACT_SLOTS)) for job in (_exact_job(seed, i), _sampled_job(seed, i))]
        return [replace(job, slot=pos) for pos, job in enumerate(jobs)]
    raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------- oracles


def _kv(text: str, prefix: str) -> Optional[str]:
    """The rest of the first line starting with `prefix`, or None."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def _check_run(job: Job, results: list[CommandResult]) -> list[str]:
    e = job.expect
    (r,) = results
    if r.status != 0:
        return [f"exit {r.status}: {r.stderr.strip()}"]
    problems = []
    want = Fraction(sum(e["raw"]), e["n"])
    head = r.stdout.splitlines()[0].split() if r.stdout else []
    if head[:3] != ["agents", "=", str(e["n"])] or head[-1:] != [e["algo"]]:
        problems.append(f"unexpected first line {head!r}")
    printed = (_kv(r.stdout, "average = ") or "").split(" (=")[0]
    try:
        got = Fraction(printed)
    except ValueError:
        return problems + [f"unparsable average {printed!r}"]
    if got != want:
        problems.append(f"average {got} != exact mean {want}")
    report = r.files.get("report.txt")
    if report is None:
        return problems + ["no report.txt"]
    text = report.decode()
    try:
        parsed = RunReport.from_text(text)
        again = parsed.to_text()
    except Exception as exc:  # any way the program fails to re-read its own report
        return problems + [f"report.txt does not round-trip: {exc!r}"]
    if again != text:
        problems.append("report.txt does not re-serialize byte-identically")
    if parsed.average != want - e["q1"] or parsed.n != e["n"]:
        problems.append(f"report average {parsed.average} / agents {parsed.n} disagree")
    if e["coalition"] is not None and parsed.adversary != tuple(e["coalition"]):
        problems.append(f"report coalition {parsed.adversary} != {e['coalition']}")
    csv = r.files.get("convergence.csv")
    if e["algo"] == "gossip_avg":
        rows = csv.decode().splitlines() if csv else []
        if len(rows) != len(parsed.gossip_spread) + 1 or len(rows) < 2:
            problems.append("convergence.csv rows disagree with the report's spread trace")
        elif float(rows[-1].split(",")[1]) > 2e-9:
            problems.append(f"gossip stopped at spread {rows[-1]}")
    elif csv is not None:
        problems.append("flood run wrote convergence.csv")
    return problems


def _check_exact(job: Job, results: list[CommandResult]) -> list[str]:
    e = job.expect
    (r,) = results
    want = 0 if e["passed"] else 1
    if r.status != want:
        return [f"exit {r.status}, theory says {want}: {r.stderr.strip() or r.stdout.strip()}"]
    problems = []
    if r.files.get("verdict.txt") != r.stdout.encode():
        problems.append("verdict.txt differs from stdout")
    if _kv(r.stdout, "claim ") != e["claim"] or _kv(r.stdout, "method ") != "exact_enumeration":
        problems.append("wrong claim or method line")
    if _kv(r.stdout, "passed ") != ("yes" if e["passed"] else "no"):
        problems.append(f"passed line disagrees with theory ({e['passed']})")
    if e["claim"] == "view-identity" and _kv(r.stdout, "detail is_vertex_cut ") != str(e["cut"]):
        problems.append(f"is_vertex_cut should be {e['cut']}")
    if e["claim"] == "mask-uniformity":
        p, n, m, c = e["p"], e["n"], e["m"], e["components"]
        rows = (r.files.get("histogram.csv") or b"").decode().splitlines()[1:]
        counts = {row.rsplit(",", 1)[1] for row in rows}
        if len(rows) != p ** (n - c) or counts != {str(p ** (m - n + c))}:
            problems.append(f"histogram.csv is not uniform on p^{n - c} masks")
    return problems


def _check_sampled(job: Job, results: list[CommandResult]) -> tuple[list[str], int]:
    e = job.expect
    gc, au = results
    if gc.status != 0:
        return [f"graph-check exit {gc.status}: {gc.stderr.strip()}"], 0
    problems = []
    comps = " ".join("{" + ",".join(map(str, c)) + "}" for c in e["components"])
    want_lines = [
        f"vertices = {e['n']}",
        f"edges = {e['m']}",
        "connected: yes",
        f"vertex cut: {'yes' if e['cut'] else 'no'}; components: {comps}",
    ]
    got_lines = [x for x in gc.stdout.splitlines() if not x.startswith("vertex connectivity")]
    if got_lines != want_lines:
        problems.append(f"graph-check printed {got_lines!r}, expected {want_lines!r}")
    kappa = _kv(gc.stdout, "vertex connectivity = ")
    if (kappa is None) != (e["n"] > 20):
        problems.append("vertex connectivity line present/absent unexpectedly")
    elif kappa is not None and e["cut"] and not 1 <= int(kappa) <= len(e["coalition"]):
        problems.append(f"vertex connectivity {kappa} exceeds the separator size")
    if au.status not in (0, 1) or not au.stdout:
        return problems + [f"audit exit {au.status}: {au.stderr.strip()}"], 0
    passed = _kv(au.stdout, "passed ")
    if passed != ("yes" if au.status == 0 else "no"):
        problems.append("passed line disagrees with exit status")
    expected_details = {
        "binning": e["binning"],
        "is_vertex_cut": str(e["cut"]),
        "samples_per_vector": str(e["samples"]),
    }
    for key, value in expected_details.items():
        if _kv(au.stdout, f"detail {key} ") != value:
            problems.append(f"detail {key} should be {value}")
    return problems, int(e["leak"] and passed == "yes")


def check(job: Job, results: list[CommandResult]) -> tuple[list[str], int]:
    """Compare a job's outputs with what the generator knows.

    Returns the problems found and whether a sampled audit passed a pair of
    inputs that theory says its coalition can tell apart (a missed leak; a
    finding about the audit, not a wrong output).
    """
    if len(results) != len(job.commands):
        return [f"{len(results)} results for {len(job.commands)} commands"], 0
    if job.kind == "audit-sampled":
        return _check_sampled(job, results)
    if job.kind == "audit-exact":
        return _check_exact(job, results), 0
    return _check_run(job, results), 0
