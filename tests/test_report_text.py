"""Run reports as text: exact at any size, read back only as written."""
from __future__ import annotations

import random
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from privavg.cli import main
from privavg.consensus import ConsensusAlgo
from privavg.masking import ProtocolParams
from privavg.simnet import AdversarySpec, RunReport, simulate
from privavg.topology import Topology

from conftest import triangle

# a 6-ring with one chord, gossiping to within 1e-220: about 6,000 rounds with
# denominators of about 740 digits, past the lowest int-string cap of 640
CAP_RING = Topology(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 4)])
CAP_INPUTS = (0, 7, 4, 1, 8, 5)
CAP_CFG = """\
[experiment]
seed = 1
q2 = 9
tolerance = 1e-220

[topology]
n = 6
edges = 1,2 2,3 3,4 4,5 5,6 1,6 1,4

[inputs]
values = 0 7 4 1 8 5
"""


@contextmanager
def int_str_cap(digits: int):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("members", [None, (3,)])
def test_gossip_reports_past_the_int_string_cap(tmp_path, capsys, members):
    def run() -> str:
        return simulate(
            CAP_RING, CAP_INPUTS, ProtocolParams.with_default_p(6, 10),
            algo=ConsensusAlgo("gossip_avg", gossip_tolerance=Fraction(1, 10**220)),
            adversary=AdversarySpec(members) if members else None, seed=1,
        ).to_text()

    cfg = tmp_path / "cap.cfg"
    cfg.write_text(CAP_CFG + (f"\n[adversary]\nmembers = {members[0]}\n" if members else ""))
    argv = ["run", "--config", str(cfg), "--algo", "gossip", "--out"]
    want = run()
    longest = {
        tag: max((len(tok) for line in want.splitlines() if line.startswith(tag)
                  for tok in re.split("[ /]", line)), default=0)
        for tag in ("spread", "transcript")
    }
    assert longest["spread"] > 640
    assert longest["transcript"] > 640 if members else longest["transcript"] == 0
    assert main(argv + [str(tmp_path / "uncapped")]) == 0
    with int_str_cap(640):
        assert run() == want
        assert RunReport.from_text(want).to_text() == want
        assert main(argv + [str(tmp_path / "capped")]) == 0
    capsys.readouterr()
    assert (tmp_path / "capped" / "report.txt").read_text() == want
    assert (tmp_path / "uncapped" / "report.txt").read_text() == want


def _gossip_report() -> str:
    return simulate(
        triangle(), [4, 7, 3], ProtocolParams.with_default_p(3, 10),
        algo=ConsensusAlgo("gossip_avg"), adversary=AdversarySpec({1}), seed=5,
    ).to_text()


def _flood_report() -> str:
    return simulate(triangle(), [4, 7, 3], ProtocolParams.with_default_p(3, 10), seed=5).to_text()


def _edit(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new, 1)


def test_report_reads_back_only_what_it_writes():
    flood = _flood_report()
    assert "agent_average 2 14/3\n" in flood
    bad = {
        "average 5 over agents at 14/3": _edit(flood, "average 14/3\n", "average 5\n"),
        "agents 9 over three agents": _edit(flood, "agents 3\n", "agents 9\n"),
        "agent averages that disagree": _edit(flood, "agent_average 2 14/3", "agent_average 2 5"),
        "spread over zero": _gossip_report().replace("\nspread 1 ", "\nspread 1 1/0\nx ", 1),
        "agent_average with one field": _edit(flood, "agent_average 2 14/3", "agent_average x"),
        "view_diff with two fields": re.sub(r"view_diff (\d+) (\d+) \d+", r"view_diff \1 \2",
                                            _gossip_report(), count=1),
        "a number with a huge exponent": _edit(flood, "ticks ", "ticks 1e999999999"),
        "a reducible fraction": _edit(flood, "average 14/3", "average 28/6"),
        "a line the report never writes": _edit(flood, "end\n", "extra\nend\n"),
        "no trailing newline": flood[:-1],
    }
    for what, text in bad.items():
        with pytest.raises(ValueError, match=r"^line \d+: |^not a v1 run report$") as err:
            RunReport.from_text(text)
        assert len(str(err.value)) < 200, what
    for text in (flood, _gossip_report()):
        assert RunReport.from_text(text).to_text() == text


TOKENS = ("", "-", "x", "1/0", "2/4", "+3", "1e9", "1_0", "7" * 5000)


def _mutants(text: str, rnd: random.Random, count: int):
    lines = text.split("\n")[:-1]
    for _ in range(count):
        out = list(lines)
        k = rnd.randrange(len(out))
        edit = rnd.choice(("drop", "duplicate", "swap", "token", "token", "token"))
        if edit == "drop":
            del out[k]
        elif edit == "duplicate":
            out.insert(k, out[k])
        elif edit == "swap":
            j = rnd.randrange(len(out))
            out[k], out[j] = out[j], out[k]
        else:
            tokens = out[k].split(" ")
            tokens[rnd.randrange(len(tokens))] = rnd.choice(TOKENS)
            out[k] = " ".join(tokens)
        yield "\n".join(out) + "\n"


@pytest.mark.parametrize("make", [_gossip_report, _flood_report])
def test_report_mutants_raise_or_round_trip(make):
    text = make()
    rnd = random.Random(20261018)
    refused = 0
    for mutant in _mutants(text, rnd, 400):
        try:
            parsed = RunReport.from_text(mutant)
        except ValueError as exc:
            assert re.match(r"line \d+: |run report has no \w+ line$|not a v1 run report$", str(exc))
            refused += 1
            continue
        assert parsed.to_text() == mutant
    assert refused > 100, refused
