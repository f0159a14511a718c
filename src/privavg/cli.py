"""Command-line front end: sectioned config files, normalization, reports.

Configs are line-oriented `key = value` text under `[section]` headers, kept
deliberately dumb so fixtures diff cleanly and every complaint can carry a
line number. Three subcommands: `run` simulates one experiment, `audit`
evaluates one distribution claim, `graph-check` reports connectivity facts.
Exit status is 0 only when the requested run or check passed.
"""
from __future__ import annotations

import argparse
import decimal
import functools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Optional

from .audit import (
    DEFAULT_BUDGET,
    _mask_uniformity_verdict,
    check_effective_input_uniformity,
    check_group_privacy,
    check_view_indistinguishability,
    enumerate_mask_distribution,
    histogram_csv,
    sampled_view_test,
)
from .consensus import ConsensusAlgo
from .masking import ProtocolParams
from .residues import Modulus
from .simnet import AdversarySpec, simulate
from .topology import (
    MAX_VERTICES,
    Topology,
    _add_edge,
    _format_components,
    connected_components,
    is_vertex_cut,
    load_topology_text,
    vertex_connectivity,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "decimal_text",
    "main",
    "normalize_inputs",
    "parse_config",
    "run_experiment",
]

AUDIT_CLAIMS = (
    "mask-uniformity",
    "input-uniformity",
    "view-identity",
    "group-privacy",
    "sampled-view",
)

_SCHEMA = {
    "experiment": {
        "seed", "schedule_seed", "algo", "p", "q1", "q2",
        "max_delay", "tolerance", "max_rounds",
    },
    "topology": {"n", "edges", "file"},
    "inputs": {"values"},
    "adversary": {"members"},
    "audit": {"claim", "s_prime", "group", "samples", "alpha", "budget"},
}


# the largest decimal exponent, in size, of a rational read from text:
# `Fraction("1e-N")` expands 10**N before anything can compare it
MAX_EXPONENT = 10**4


class ConfigError(ValueError):
    """A config file problem, with the offending line and field named."""


@dataclass
class ExperimentConfig:
    """Everything one invocation needs, already validated and typed."""

    topology: Topology
    seed: int = 0
    inputs: Optional[tuple[int, ...]] = None
    q1: int = 0
    q2: Optional[int] = None
    p: Optional[int] = None
    algo: ConsensusAlgo = field(default_factory=ConsensusAlgo)
    adversary: Optional[frozenset[int]] = None
    schedule_seed: Optional[int] = None
    max_delay: int = 4
    audit_claim: Optional[str] = None
    audit_s_prime: Optional[tuple[int, ...]] = None
    audit_group: Optional[frozenset[int]] = None
    samples: Optional[int] = None
    alpha: float = 0.01
    budget: int = DEFAULT_BUDGET


def normalize_inputs(xs, q1: int, q2: int) -> tuple[tuple[int, ...], int, Fraction]:
    """Shift raw integers in [q1, q2] down to residue inputs in [0, q2-q1].

    Returns the shifted inputs, the input bound q = q2-q1+1, and the shift to
    add back onto the final average to land in the caller's original units.
    """
    if q2 < q1:
        raise ValueError(f"empty input range: q1={q1} > q2={q2}")
    shifted = []
    for agent, x in enumerate(xs, start=1):
        x = int(x)
        if not q1 <= x <= q2:
            raise ValueError(f"agent {agent}'s input {x} outside [{q1}, {q2}]")
        shifted.append(x - q1)
    return tuple(shifted), q2 - q1 + 1, Fraction(q1)


def decimal_text(value: Fraction, sig: int = 12) -> str:
    """Advisory decimal rendering: `sig` significant digits, marked `exactly`
    when the digits reproduce the rational, trailing `…` when they truncate."""
    with decimal.localcontext() as ctx:
        ctx.prec = sig
        approx = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    if Fraction(approx) == value:
        return f"{approx} exactly"
    return f"{approx}…"


def _strip(line: str) -> str:
    if line.lstrip().startswith("#"):
        return ""
    cut = line.find(" #")
    return (line[:cut] if cut >= 0 else line).strip()


def _parse_raw(text: str) -> dict[tuple[str, str], tuple[str, str]]:
    """Map each (section, key) to its value and to where diagnostics say it came from."""
    entries: dict[tuple[str, str], tuple[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key before any [section] header")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        if (section, key) in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        if not value:
            raise ConfigError(f"line {lineno}: [{section}] {key}: empty value")
        entries[(section, key)] = (value, f"line {lineno}: [{section}] {key}")
    return entries


class _Fields:
    def __init__(self, entries):
        self.entries = entries

    def raw(self, section, key):
        return self.entries.get((section, key))

    def _convert(self, section, key, conv, what, default, bounds=()):
        """`bounds` holds (predicate, text) pairs; the first a converted value
        fails names it with its text."""
        got = self.raw(section, key)
        if got is None:
            return default
        value, where = got
        try:
            result = conv(value)
        except ConfigError as exc:  # a cap on the text, checked before converting it
            raise ConfigError(f"{where}: {exc}") from None
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"{where}: expected {what}, got {value!r}") from None
        for ok, text in bounds:
            if not ok(result):
                raise ConfigError(f"{where}: expected {what} {text}, got {result}")
        return result

    def integer(self, section, key, default=None, minimum=None, bits=None, bounds=()):
        """An integer >= `minimum`, and below 2**`bits` when `bits` is given,
        that passes `bounds` as well."""
        if bits is not None:
            bounds = ((lambda v: minimum <= v < 2**bits, f"in [{minimum}, 2**{bits})"), *bounds)
        elif minimum is not None:
            bounds = ((lambda v: v >= minimum, f">= {minimum}"), *bounds)
        return self._convert(section, key, int, "an integer", default, bounds)

    def fraction(self, section, key, default=None, positive=False):
        """A rational as `Fraction` reads it, with a decimal exponent of at
        most `MAX_EXPONENT` in size, checked first."""
        bounds = [(lambda v: v > 0, "> 0")] if positive else ()
        return self._convert(section, key, _rational, "a rational", default, bounds)

    def real(self, section, key, default=None, bounds=()):
        return self._convert(section, key, float, "a real number", default, bounds)

    def int_list(self, section, key, default=None):
        return self._convert(
            section, key, lambda v: tuple(int(x) for x in v.split()),
            "space-separated integers", default,
        )

    def word(self, section, key, choices, default=None):
        got = self.raw(section, key)
        if got is None:
            return default
        value, where = got
        if value not in choices:
            raise ConfigError(
                f"{where}: expected one of {', '.join(sorted(choices))}, got {value!r}"
            )
        return value


def _rational(text: str) -> Fraction:
    _, e, exp = text.lower().rpartition("e")
    if e and abs(int(exp)) > MAX_EXPONENT:
        raise ConfigError(
            f"expected a decimal exponent of at most {MAX_EXPONENT} in size, got {text!r}"
        )
    return Fraction(text)


def _parse_topology(fields: _Fields, base_dir: Path) -> Topology:
    file_entry = fields.raw("topology", "file")
    inline_n = fields.raw("topology", "n")
    if file_entry and inline_n:
        raise ConfigError(f"{file_entry[1]} conflicts with inline n/edges")
    if file_entry:
        path = base_dir / file_entry[0]
        try:
            return load_topology_text(path.read_text())
        except OSError as exc:
            raise ConfigError(f"{file_entry[1]}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"[topology] file {path}: {exc}") from None
    n = fields.integer(
        "topology", "n", minimum=1,
        bounds=[(lambda v: v <= MAX_VERTICES, f"<= {MAX_VERTICES}")],
    )
    if n is None:
        raise ConfigError("[topology] needs either `file` or `n` and `edges`")
    edges_entry = fields.raw("topology", "edges")
    edges: set[tuple[int, int]] = set()
    if edges_entry is not None:
        value, where = edges_entry
        for token in value.split():
            parts = token.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{where}: expected `i,j` pairs, got {token!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ConfigError(f"{where}: non-integer endpoint in {token!r}") from None
            try:
                _add_edge(i, j, n, edges)
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
    return Topology(n, edges)


def parse_config(
    text: str, base_dir: str | Path = ".", flags: Optional[Mapping[str, str]] = None
) -> ExperimentConfig:
    """Parse and validate config text; every error names its line and field.

    `flags` maps config keys to command-line text. Each flag replaces its
    key's entry before any conversion, so it passes the same checks, and a
    complaint about it names `--key`.
    """
    entries = _parse_raw(text)
    for key, value in (flags or {}).items():
        section = next(s for s, keys in _SCHEMA.items() if key in keys)
        entries[(section, key)] = (value, f"--{key}")
    fields = _Fields(entries)
    algo_name = fields.word("experiment", "algo", {"flood", "gossip"}, "flood")
    algo_kwargs = {}
    tol = fields.fraction("experiment", "tolerance", positive=True)
    if tol is not None:
        algo_kwargs["gossip_tolerance"] = tol
    rounds = fields.integer("experiment", "max_rounds", minimum=1)
    if rounds is not None:
        algo_kwargs["max_rounds"] = rounds
    algo = ConsensusAlgo(
        variant="flood_sum" if algo_name == "flood" else "gossip_avg", **algo_kwargs
    )
    members = fields.int_list("adversary", "members")
    adversary = frozenset(members) if members is not None else None
    group = fields.int_list("audit", "group")
    # scalar conversions first so their line diagnostics beat structural complaints
    scalars = dict(
        seed=fields.integer("experiment", "seed", 0, minimum=0, bits=64),
        inputs=fields.int_list("inputs", "values"),
        q1=(q1 := fields.integer("experiment", "q1", 0)),
        q2=fields.integer("experiment", "q2", bounds=[(lambda v: v >= q1, f">= q1 = {q1}")]),
        p=fields.integer("experiment", "p", minimum=2, bits=64),
        schedule_seed=fields.integer("experiment", "schedule_seed", minimum=0, bits=64),
        max_delay=fields.integer(
            "experiment", "max_delay", ExperimentConfig.max_delay, minimum=1,
            bounds=[(lambda v: v < 2**64, "below 2**64")],
        ),
        audit_claim=fields.word("audit", "claim", set(AUDIT_CLAIMS)),
        audit_s_prime=fields.int_list("audit", "s_prime"),
        samples=fields.integer("audit", "samples", minimum=1),
        alpha=fields.real(
            "audit", "alpha", ExperimentConfig.alpha, bounds=[(lambda v: 0 < v < 1, "in (0, 1)")]
        ),
        budget=fields.integer("audit", "budget", ExperimentConfig.budget, minimum=1),
    )
    return ExperimentConfig(
        topology=_parse_topology(fields, Path(base_dir)),
        algo=algo,
        adversary=adversary,
        audit_group=frozenset(group) if group is not None else None,
        **scalars,
    )


def _require(cfg_value, what):
    if cfg_value is None:
        raise ConfigError(f"{what} is required for this mode")
    return cfg_value


def _do_run(cfg: ExperimentConfig, write: bool) -> tuple[int, str, dict[str, str]]:
    """`privavg run`; report.txt and convergence.csv are built only if `write`."""
    xs = _require(cfg.inputs, "[inputs] values")
    q2 = _require(cfg.q2, "[experiment] q2")
    s, q, shift = normalize_inputs(xs, cfg.q1, q2)
    t = cfg.topology
    params = (
        ProtocolParams(n=t.n, q=q, p=Modulus(cfg.p))
        if cfg.p is not None
        else ProtocolParams.with_default_p(t.n, q)
    )
    adversary = AdversarySpec(members=cfg.adversary) if cfg.adversary is not None else None
    report = simulate(
        t, s, params, algo=cfg.algo, adversary=adversary,
        seed=cfg.seed, max_delay=cfg.max_delay, schedule_seed=cfg.schedule_seed,
    )
    average = report.average + shift
    lines = [
        f"agents = {t.n}  modulus = {params.p.value}  algo = {cfg.algo.variant}",
        f"average = {average} (= {decimal_text(average)})",
    ]
    if not write:
        return 0, "\n".join(lines) + "\n", {}
    files = {"report.txt": report.to_text()}
    spread = report.gossip_spread  # empty on flood; gossip's integer trace from simulate
    if spread:
        rows = ["exchange,spread"]
        rows += [f"{i},{x}" for i, x in enumerate(spread.float_texts(), 1)]
        files["convergence.csv"] = "\n".join(rows) + "\n"
    return 0, "\n".join(lines) + "\n", files


def _do_audit(cfg: ExperimentConfig) -> tuple[int, str, dict[str, str]]:
    claim = _require(cfg.audit_claim, "[audit] claim")
    p = _require(cfg.p, "[experiment] p")
    t = cfg.topology
    files: dict[str, str] = {}
    if claim == "mask-uniformity":
        hist = enumerate_mask_distribution(t, p, cfg.budget)
        verdict = _mask_uniformity_verdict(t, p, hist)
        files["histogram.csv"] = histogram_csv(hist)
    elif claim == "input-uniformity":
        s = _require(cfg.inputs, "[inputs] values")
        verdict = check_effective_input_uniformity(t, p, s, cfg.budget)
    else:
        s = _require(cfg.inputs, "[inputs] values")
        s_prime = _require(cfg.audit_s_prime, "[audit] s_prime")
        adversary = AdversarySpec(members=cfg.adversary or frozenset())
        if claim == "view-identity":
            verdict = check_view_indistinguishability(t, p, adversary, s, s_prime, cfg.budget)
        elif claim == "group-privacy":
            group = _require(cfg.audit_group, "[audit] group")
            verdict = check_group_privacy(
                t, p, adversary, group, s, s_prime,
                budget=cfg.budget, samples=cfg.samples, alpha=cfg.alpha, seed=cfg.seed,
            )
        else:
            samples = _require(cfg.samples, "[audit] samples")
            verdict = sampled_view_test(
                t, p, adversary, s, s_prime, samples, alpha=cfg.alpha, seed=cfg.seed
            )
    files["verdict.txt"] = verdict.to_text()
    return (0 if verdict.passed else 1), verdict.to_text(), files


def _do_graph_check(cfg: ExperimentConfig) -> tuple[int, str, dict[str, str]]:
    t = cfg.topology
    whole = connected_components(t)
    lines = [
        f"vertices = {t.n}",
        f"edges = {len(t.edges)}",
        f"connected: {'yes' if len(whole) == 1 else 'no'}",
    ]
    try:
        lines.append(f"vertex connectivity = {vertex_connectivity(t)}")
    except ValueError:
        pass  # brute force refuses very large graphs; the fact is optional
    if cfg.adversary is not None:
        cut = is_vertex_cut(t, cfg.adversary)
        rest = set(t.vertices) - cfg.adversary
        comps = connected_components(t, rest)
        lines.append(
            f"vertex cut: {'yes' if cut else 'no'}; components: {_format_components(comps)}"
        )
    return 0, "\n".join(lines) + "\n", {}


def run_experiment(cfg: ExperimentConfig, command: str) -> tuple[int, str, dict[str, str]]:
    """Run subcommand `command` on one validated config; returns (exit status, stdout, files)."""
    return _run_command(cfg, command, write=True)


def _run_command(
    cfg: ExperimentConfig, command: str, write: bool
) -> tuple[int, str, dict[str, str]]:
    # only `run` skips building its files when nothing will write them
    if command == "run":
        return _do_run(cfg, write)
    if command == "audit":
        return _do_audit(cfg)
    return _do_graph_check(cfg)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privavg",
        description="Privately averaged consensus: simulate, audit, inspect graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "simulate one experiment and print the average"),
        ("audit", "evaluate one distribution claim"),
        ("graph-check", "report connectivity and cut facts"),
    ):
        # a flag left out is absent from the namespace, not None
        cmd = sub.add_parser(name, help=doc, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", required=True, help="path to a config file")
        cmd.add_argument("--seed", help="override [experiment] seed")
        cmd.add_argument("--out", default=None, help="directory for report files")
        if name == "run":
            cmd.add_argument("--algo", help="override [experiment] algo: flood or gossip")
        if name == "audit":
            cmd.add_argument("--samples", help="override [audit] samples")
            cmd.add_argument("--alpha", help="override [audit] alpha")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    command = args.pop("command")
    config_path = Path(args.pop("config"))
    out = args.pop("out")
    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # what is left in args are the flags given, each named after its config key
        cfg = parse_config(text, base_dir=config_path.parent, flags=args)
        status, text_out, files = _run_command(cfg, command, write=out is not None)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    sys.stdout.write(text_out)
    if out is not None:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            (out_dir / name).write_text(content)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
