"""Seeded mutants of a config and a graph file: each parses or names its line.

The mutants are only parsed, never run: a mutated tolerance or vertex count
can make a legitimate run take minutes.
"""
from __future__ import annotations

import random
import re

import pytest

from privavg.cli import ConfigError, parse_config
from privavg.topology import load_topology_text

FULL_CFG = """\
# every key but [topology] file
[experiment]
seed = 42
schedule_seed = 7
algo = gossip
p = 31
q1 = 0
q2 = 9
max_delay = 4
tolerance = 1e-20
max_rounds = 100000

[topology]
n = 6
edges = 1,2 2,3 3,4 4,5 5,6 1,6 1,4

[inputs]
values = 0 7 4 1 8 5

[adversary]
members = 3

[audit]
claim = group-privacy
s_prime = 1 6 4 1 8 5
group = 1 2
samples = 1000
alpha = 0.01
budget = 100000
"""

GRAPH = """\
# a 6-ring with one chord
n 6
e 1 2
e 2 3
e 3 4  # mid-ring
e 4 5
e 5 6
e 1 6

e 1 4
"""

TOKENS = (
    "", "-", "x", "=", "#", "0", "-1", "00", "1/0", "2/4", "+3", "1_0", "0.5", "1e-220",
    "e", "n", "1,2", "1,1", "0,1", "[topology]", "[nowhere]", "gossip", "\u00b2",
    "18446744073709551616", "1e-10000000", "1000000000", "9" * 5000,
)

# the only complaints that concern the whole text rather than one line
WHOLE_TEXT = r"\[topology\] needs either `file` or `n` and `edges`$|missing n line$"


def _mutants(text: str, rnd: random.Random, count: int):
    lines = text.split("\n")[:-1]
    for _ in range(count):
        out = list(lines)
        for _ in range(rnd.randint(1, 2)):
            k = rnd.randrange(len(out))
            edit = rnd.choice(("drop", "duplicate", "swap", "token", "token", "token"))
            if edit == "drop" and len(out) > 1:
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


@pytest.mark.parametrize(
    "text, parse, seed",
    [(FULL_CFG, parse_config, 20261019), (GRAPH, load_topology_text, 20261020)],
    ids=["config", "graph"],
)
def test_mutants_parse_or_name_their_line(text, parse, seed):
    parse(text)
    rnd = random.Random(seed)
    refused = 0
    for mutant in _mutants(text, rnd, 3000):
        try:
            parse(mutant)
        except ValueError as exc:  # ConfigError is one
            assert re.match(rf"line \d+: |{WHOLE_TEXT}", str(exc)), (mutant, exc)
            assert parse is load_topology_text or isinstance(exc, ConfigError)
            refused += 1
    assert 600 < refused < 3000, refused
