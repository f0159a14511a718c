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
import reprlib
import sys
from dataclasses import dataclass, field, replace
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
from .consensus import ConsensusAlgo, number_text, short_text
from .masking import ProtocolParams
from .residues import Modulus
from .simnet import AdversarySpec, simulate
from .topology import (
    MAX_VERTICES,
    Topology,
    _add_edge,
    _cut_components,
    _format_components,
    connected_components,
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


def _rational(text: str) -> Fraction:
    _, e, exp = text.lower().rpartition("e")
    if e and abs(int(exp)) > MAX_EXPONENT:
        raise ConfigError(
            f"expected a decimal exponent of at most {MAX_EXPONENT} in size, got {reprlib.repr(text)}"
        )
    return Fraction(text)


def _choice(words: Mapping[str, str]):
    """A reader of one of `words`, mapped to its value."""
    return words.__getitem__, f"one of {', '.join(sorted(words))}"


def _at_least(low: int):
    return lambda v, _: v >= low, f">= {low}"


def _in_u64(low: int):
    return lambda v, _: low <= v < 2**64, f"in [{low}, 2**64)"


_INT = (int, "an integer")
_INTS = (lambda text: tuple(int(x) for x in text.split()), "space-separated integers")
_INT_SET = (lambda text: frozenset(_INTS[0](text)), _INTS[1])

# Every config key, each in one section: (section, ExperimentConfig field,
# reader, *bounds), in read order, so a bad scalar is named before a bad graph.
# A reader is (convert, what it expects). A bound is (test(value, cfg), text),
# text(cfg) where it shows an earlier key's value; the complaint names the
# first bound a value fails. "algo.x" sets knob x of the ConsensusAlgo; the
# [topology] keys set no field and are read last, by _parse_topology.
_KEYS = {
    "algo": ("experiment", "algo.variant", _choice({"flood": "flood_sum", "gossip": "gossip_avg"})),
    "tolerance": ("experiment", "algo.gossip_tolerance", (_rational, "a rational"),
                  (lambda v, _: v > 0, "> 0")),
    "max_rounds": ("experiment", "algo.max_rounds", _INT, _at_least(1)),
    "members": ("adversary", "adversary", _INT_SET),
    "group": ("audit", "audit_group", _INT_SET),
    "seed": ("experiment", "seed", _INT, _in_u64(0)),
    "values": ("inputs", "inputs", _INTS),
    "q1": ("experiment", "q1", _INT),
    "q2": ("experiment", "q2", _INT,
           (lambda v, cfg: v >= cfg.q1, lambda cfg: f">= q1 = {short_text(number_text(cfg.q1))}")),
    "p": ("experiment", "p", _INT, _in_u64(2)),
    "schedule_seed": ("experiment", "schedule_seed", _INT, _in_u64(0)),
    "max_delay": ("experiment", "max_delay", _INT,
                  _at_least(1), (lambda v, _: v < 2**64, "below 2**64")),
    "claim": ("audit", "audit_claim", _choice(dict(zip(AUDIT_CLAIMS, AUDIT_CLAIMS)))),
    "s_prime": ("audit", "audit_s_prime", _INTS),
    "samples": ("audit", "samples", _INT, _at_least(1)),
    "alpha": ("audit", "alpha", (float, "a real number"), (lambda v, _: 0 < v < 1, "in (0, 1)")),
    "budget": ("audit", "budget", _INT, _at_least(1)),
    "n": ("topology", None, _INT, _at_least(1), (lambda v, _: v <= MAX_VERTICES, f"<= {MAX_VERTICES}")),
    "edges": ("topology", None, None),
    "file": ("topology", None, None),
}
_SECTIONS = {section for section, *_ in _KEYS.values()}


def _parse_raw(text: str) -> dict[str, tuple[str, str]]:
    """Map each key to its value and to where diagnostics say it came from."""
    entries: dict[str, tuple[str, str]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{short_text(section)}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {reprlib.repr(line)}")
        if section is None:
            raise ConfigError(f"line {lineno}: key before any [section] header")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS or _KEYS[key][0] != section:
            raise ConfigError(f"line {lineno}: unknown key {reprlib.repr(key)} in [{section}]")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}]")
        if not value:
            raise ConfigError(f"line {lineno}: [{section}] {key}: empty value")
        entries[key] = (value, f"line {lineno}: [{section}] {key}")
    return entries


def _read(entries: Mapping[str, tuple[str, str]], key: str, cfg=None):
    """`key`'s value, converted and checked against its bounds in order; None if unset."""
    if key not in entries:
        return None
    text, where = entries[key]
    _, _, (convert, what), *bounds = _KEYS[key]
    try:
        value = convert(text)
    except ConfigError as exc:  # a cap on the text, checked before converting it
        raise ConfigError(f"{where}: {exc}") from None
    except (ValueError, ZeroDivisionError, KeyError):
        raise ConfigError(f"{where}: expected {what}, got {reprlib.repr(text)}") from None
    for ok, bound in bounds:
        if not ok(value, cfg):
            bound = bound if isinstance(bound, str) else bound(cfg)
            # number_text has no digit limit; reprlib would show a Fraction as its repr
            raise ConfigError(f"{where}: expected {what} {bound}, got {short_text(number_text(value))}")
    return value


def _parse_topology(entries: Mapping[str, tuple[str, str]], base_dir: Path) -> Topology:
    if "file" in entries:
        name, where = entries["file"]
        if "n" in entries or "edges" in entries:
            raise ConfigError(f"{where} conflicts with inline n/edges")
        path = base_dir / name
        try:
            return load_topology_text(path.read_text())
        except OSError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"[topology] file {path}: {exc}") from None
    n = _read(entries, "n")
    if n is None:
        raise ConfigError("[topology] needs either `file` or `n` and `edges`")
    edges: set[tuple[int, int]] = set()
    value, where = entries.get("edges", ("", ""))
    for token in value.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{where}: expected `i,j` pairs, got {reprlib.repr(token)}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"{where}: non-integer endpoint in {reprlib.repr(token)}") from None
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
    entries.update((key, (value, f"--{key}")) for key, value in (flags or {}).items())
    cfg = ExperimentConfig(topology=None)  # unset keys keep defaults; bounds read earlier keys
    for key, (_, target, *_) in _KEYS.items():
        value = None if target is None else _read(entries, key, cfg)
        if value is not None:
            name, _, knob = target.partition(".")
            setattr(cfg, name, replace(cfg.algo, **{knob: value}) if knob else value)
    cfg.topology = _parse_topology(entries, Path(base_dir))
    return cfg


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
        comps = _cut_components(t, cfg.adversary)
        lines.append(
            f"vertex cut: {'yes' if len(comps) > 1 else 'no'}; components: {_format_components(comps)}"
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
    for name, doc, keys in (
        ("run", "simulate one experiment and print the average", ("seed", "algo")),
        ("audit", "evaluate one distribution claim", ("seed", "samples", "alpha")),
        ("graph-check", "report connectivity and cut facts", ("seed",)),
    ):
        # a flag left out is absent from the namespace, not None
        cmd = sub.add_parser(name, help=doc, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", required=True, help="path to a config file")
        cmd.add_argument("--out", default=None, help="directory for report files")
        for key in keys:  # each flag is named after the config key it overrides
            section, _, (_, what), *_ = _KEYS[key]
            cmd.add_argument(f"--{key}", help=f"override [{section}] {key}: {what}")
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
    except UnicodeDecodeError as exc:  # names no file of its own
        print(f"config error: file {config_path}: {exc}", file=sys.stderr)
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
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, content in files.items():
                (out_dir / name).write_text(content)
        except OSError as exc:  # a file in the way, or no permission; names the path
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
