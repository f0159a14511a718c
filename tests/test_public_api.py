"""The package's public names are the README's list, the demos use no others,
and every function the benchmark tracer wraps exists."""
from __future__ import annotations

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import privavg

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


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
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANNED
    for modname, attr, _ in tracing.SPANNED:
        assert modname.startswith("privavg."), modname
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{modname} has no {attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"{modname}.{attr}"
