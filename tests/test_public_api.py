"""The package's public names are the README's list, the demos use no others,
every private helper has a caller in the package, and every function the
benchmark tracer wraps exists and sees a run's work."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path
from typing import Iterator

import privavg
import privavg.simnet
from privavg import AdversarySpec, ConsensusAlgo, ProtocolParams, Topology

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
PACKAGE = ROOT / "src" / "privavg"


def _tracing():
    # bench/ is not a package; load the tracer module by path
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _section(title: str) -> str:
    start = README.index(f"## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def test_readme_public_api_list_is_all():
    bullets = re.findall(r"^- .*(?:\n  .*)*", _section("Public API"), re.M)
    listed = re.findall(r"`(\w+)`", "\n".join(bullets))
    assert sorted(listed) == sorted(privavg.__all__)
    assert len(set(privavg.__all__)) == len(privavg.__all__)
    for name in privavg.__all__:
        assert hasattr(privavg, name), name


def test_demos_import_only_public_names():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "privavg":
                for alias in node.names:
                    assert alias.name in privavg.__all__, f"{path.name} imports {alias.name}"


def test_readme_library_use_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", _section("Library use"), re.S)
    exec(compile(code, "README.md", "exec"), {})


def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracing.py skips a name the package no longer has, so a rename
    # would silently drop that layer from the per-layer metrics
    tracing = _tracing()
    assert tracing.SPANNED
    for modname, attr, _ in tracing.SPANNED:
        assert modname.startswith("privavg."), modname
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"


def test_benchmark_tracer_sees_every_delivery_and_draw_of_a_flood_run():
    # the tracer counts deliveries by wrapping simnet.delivery_schedule, reads
    # .time off every queued event, and counts draws by swapping
    # SeededRng.randint_below; a run that bypassed any of them would read short
    t = Topology(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
    args = (t, [3, 0, 7, 1, 9, 4], ProtocolParams.with_default_p(6, 10))
    kw = dict(adversary=AdversarySpec({2, 4}), seed=11)
    plain = privavg.simnet.simulate(*args, **kw)
    tracer = _tracing().Tracer()
    with tracer.installed():
        traced = privavg.simnet.simulate(*args, **kw)
    metrics = tracer.layer_metrics(leaks_missed=0, out_bytes=0)
    assert traced.to_text() == plain.to_text()
    assert metrics["simnet.deliveries"] == traced.phase1_messages + traced.phase2_messages
    assert metrics["simnet.phase1_messages"] == traced.phase1_messages
    assert metrics["simnet.tie_candidates"] >= 1
    # one delay draw per send and one pick per delivery; a draw that bypassed
    # randint_below would make this read short
    assert metrics["residues.draws"] == 2 * metrics["simnet.deliveries"] > 0


def test_benchmark_tracer_sees_every_round_and_draw_of_a_gossip_run():
    # the tracer counts gossip rounds off the result of consensus.gossip_avg
    # and draws by swapping SeededRng.randint_below, which gossip binds once
    t = Topology(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (2, 5)])
    args = (t, [3, 0, 7, 1, 9, 4], ProtocolParams.with_default_p(6, 10))
    kw = dict(algo=ConsensusAlgo("gossip_avg"), adversary=AdversarySpec({2, 4}), seed=11)
    plain = privavg.simnet.simulate(*args, **kw)
    tracer = _tracing().Tracer()
    with tracer.installed():
        traced = privavg.simnet.simulate(*args, **kw)
    metrics = tracer.layer_metrics(leaks_missed=0, out_bytes=0)
    assert traced.to_text() == plain.to_text()
    assert metrics["consensus.gossip_rounds"] == len(traced.gossip_spread) > 0
    # one edge pick per round, besides the schedule's two draws per delivery
    assert metrics["residues.draws"] == (
        2 * metrics["simnet.deliveries"] + metrics["consensus.gossip_rounds"]
    )


def test_benchmark_tracer_decodes_no_histogram_of_an_audit(monkeypatch):
    # the tracer counts audit.support as len(hist.counts) of every enumerated
    # histogram; that must read the code arrays, never decode outcome tuples
    import privavg.audit as audit

    made, decodes = [], []
    enumerate_views, row_tuples = audit._enumerate_views, audit._row_tuples
    monkeypatch.setattr(audit, "_enumerate_views", lambda *a: made.append(enumerate_views(*a)) or made[-1])
    monkeypatch.setattr(audit, "_row_tuples", lambda rows: decodes.append(len(rows)) or row_tuples(rows))
    t = Topology(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    tracer = _tracing().Tracer()
    with tracer.installed():
        verdict = audit.check_view_indistinguishability(t, 5, AdversarySpec({1}), (0, 1, 2, 3), (0, 3, 2, 1))
        masks = audit.enumerate_mask_distribution(t, 5)
    metrics = tracer.layer_metrics(leaks_missed=0, out_bytes=0)
    assert verdict.passed and len(made) == 3 and made[-1] is masks
    # two view histograms of equal support, then the masks
    assert metrics["audit.support"] == 2 * verdict.details["support_size"] + len(masks) > 0
    assert not decodes and all(h._decoded is None for h in made)


def _private_definitions(tree: ast.Module) -> Iterator[tuple[str, ast.stmt]]:
    # module-level functions, classes and constants named `_x` (not dunders)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, node) for name in names if name.startswith("_") and not name.startswith("__"))


def _referenced_names(tree: ast.AST) -> Iterator[str]:
    # every name read, attribute taken or name imported inside `tree`
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_has_a_caller_in_the_package():
    # a private helper that only tests call is dead code kept alive for them;
    # each one must be used somewhere in the package outside its own definition
    modules = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE.glob("*.py")}
    assert "audit.py" in modules
    uses = [(statement, set(_referenced_names(statement))) for tree in modules.values() for statement in tree.body]
    unused = [
        f"{name}: {helper}"
        for name, tree in modules.items()
        for helper, definition in _private_definitions(tree)
        if not any(helper in names for statement, names in uses if statement is not definition)
    ]
    assert not unused
