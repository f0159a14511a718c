"""Typed errors on the run path, and what importing the package loads."""
from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from privavg.consensus import ConvergenceError, InvariantError
from privavg.simnet import RunReport

SRC = str(Path(__file__).resolve().parent.parent / "src")


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
