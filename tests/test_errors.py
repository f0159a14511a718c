"""Typed errors on the run path, and what importing the package loads."""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import privavg
import privavg.masking
import privavg.simnet
from privavg.consensus import ConvergenceError, InvariantError
from privavg.simnet import RunReport

SRC = str(Path(__file__).resolve().parent.parent / "src")
PACKAGE = Path(SRC) / "privavg"


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def _report(**kw) -> RunReport:
    fields = dict(
        seed=1, schedule_seed=None, config_hash="0" * 12, n=2, algo_variant="flood_sum",
        averages={1: Fraction(3, 2), 2: Fraction(3, 2)},
        phase1_messages=4, phase2_messages=2, ticks=3,
    )
    fields.update(kw)
    return RunReport(**fields)


def test_disagreeing_agents_raise_typed_error():
    rep = _report(averages={1: Fraction(1), 2: Fraction(2)})
    with pytest.raises(InvariantError, match="disagree"):
        rep.average
    assert issubclass(InvariantError, ArithmeticError)
    assert issubclass(ConvergenceError, ArithmeticError)


def test_typed_error_survives_python_dash_o():
    code = (
        "from fractions import Fraction\n"
        "from privavg.consensus import InvariantError\n"
        "from privavg.simnet import RunReport\n"
        "rep = RunReport(seed=1, schedule_seed=None, config_hash='x', n=2,\n"
        "                algo_variant='flood_sum', averages={1: Fraction(1), 2: Fraction(2)},\n"
        "                phase1_messages=0, phase2_messages=0, ticks=0)\n"
        "assert False, 'asserts must be stripped under -O'\n"
        "try:\n"
        "    rep.average\n"
        "except InvariantError as exc:\n"
        "    print('typed:', exc)\n"
    )
    proc = _python("-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("typed: agents disagree on the average")


def test_package_has_no_assert_statements():
    # python -O strips asserts, so invariants must raise typed errors instead
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_report_missing_field_is_value_error():
    lines = _report().to_text().splitlines()
    for tag in ("seed", "schedule_seed", "config", "agents", "algo", "ticks",
                "phase1_messages", "phase2_messages"):
        text = "\n".join(ln for ln in lines if ln.split(" ", 1)[0] != tag) + "\n"
        with pytest.raises(ValueError, match=f"no {tag} line"):
            RunReport.from_text(text)


def test_import_does_not_load_scipy():
    proc = _python(
        "-c",
        "import sys, privavg, privavg.cli; "
        "print(sorted(k for k in sys.modules if k == 'scipy' or k.startswith('scipy.')))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_audit_does_not_import_the_simulator():
    # the package imports every module for its public names, so this stands
    # the package in without running its __init__ to see what audit pulls in
    proc = _python(
        "-c",
        "import sys, types; "
        "pkg = types.ModuleType('privavg'); "
        f"pkg.__path__ = [{str(PACKAGE)!r}]; "
        "sys.modules['privavg'] = pkg; "
        "import privavg.audit; "
        "print(sorted(k for k in sys.modules if k.startswith('privavg.')))",
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.strip()
    assert "privavg.audit" in loaded and "privavg.masking" in loaded
    assert "privavg.simnet" not in loaded and "privavg.consensus" not in loaded
    assert privavg.AdversarySpec is privavg.simnet.AdversarySpec is privavg.masking.AdversarySpec


SAMPLED_CFG = """\
[experiment]
seed = 3
p = 5

[topology]
n = 3
edges = 1,2 2,3

[inputs]
values = 1 0 2

[adversary]
members = 2

[audit]
claim = sampled-view
s_prime = 2 0 1
samples = 2000
"""


def test_sampled_audit_does_not_load_scipy_stats(tmp_path):
    # the chi-square needs scipy.special only; scipy.stats would more than
    # double the audit's peak memory
    cfg = tmp_path / "sampled.cfg"
    cfg.write_text(SAMPLED_CFG)
    proc = _python(
        "-c",
        "import sys; from privavg.cli import main; "
        f"status = main(['audit', '--config', {str(cfg)!r}]); "
        "print(status, 'scipy.special' in sys.modules, "
        "sorted(k for k in sys.modules if k == 'scipy.stats' or k.startswith('scipy.stats.')))",
    )
    assert proc.returncode == 0, proc.stderr
    # listener 2 cuts the path, so the chi-square runs and rejects
    assert proc.stdout.splitlines()[-1] == "1 True []"
    assert "method chi_square" in proc.stdout
