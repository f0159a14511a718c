"""End-to-end command-line checks driven through main()."""
import re
from fractions import Fraction
from pathlib import Path

import pytest

from privavg.cli import _KEYS, ConfigError, decimal_text, main, normalize_inputs, parse_config
from privavg.consensus import _SpreadTrace
from privavg.simnet import RunReport

GOLDEN_CFG = """\
# worked three-agent scenario
[experiment]
seed = 42
algo = flood
p = 30
q1 = 0
q2 = 9

[topology]
n = 3
edges = 1,2 2,3 1,3

[inputs]
values = 4 7 3
"""

TEN_NODE_CFG = """\
[topology]
n = 10
edges = 1,2 2,3 3,4 4,5 5,6 6,7 7,8 8,9 9,10 1,10 6,9

[adversary]
members = 3 5 10
"""


def test_normalize_inputs_shifts_range():
    s, q, shift = normalize_inputs((-2, 0, 5), -2, 5)
    assert s == (0, 2, 7)
    assert q == 8
    assert shift == Fraction(-2)

    s, q, shift = normalize_inputs((4, 7, 3), 0, 9)
    assert s == (4, 7, 3)
    assert q == 10
    assert shift == 0

    with pytest.raises(ValueError, match="agent 2"):
        normalize_inputs((0, 11, 3), 0, 9)
    with pytest.raises(ValueError, match="empty input range"):
        normalize_inputs((0,), 5, 4)


def test_decimal_rendering():
    assert decimal_text(Fraction(14, 3)) == "4.66666666667…"
    assert decimal_text(Fraction(9, 2)) == "4.5 exactly"
    assert decimal_text(Fraction(0)) == "0 exactly"
    assert decimal_text(Fraction(-14, 3)) == "-4.66666666667…"
    # terminating but wider than 12 significant digits still gets the marker
    assert decimal_text(Fraction(1, 2**50)).endswith("…")


def test_golden_run_stdout(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CFG)
    status = main(["run", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert status == 0
    assert "average = 14/3 (= 4.66666666667…)" in out


def test_graph_check_reports_cut_components(tmp_path, capsys):
    cfg = tmp_path / "ten.cfg"
    cfg.write_text(TEN_NODE_CFG)
    status = main(["graph-check", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert status == 0
    assert "connected: yes" in out
    assert "vertex connectivity = 2" in out
    assert "vertex cut: yes; components: {1,2} {4} {6,7,8,9}" in out


@pytest.mark.parametrize(
    "members, line",
    [("1 2 3", "error: cut equals the whole vertex set; only proper subsets qualify"),
     ("2 9", "error: vertex 9 outside 1..3")],
    ids=["every-vertex", "outside"],
)
def test_graph_check_refuses_a_coalition_that_is_no_proper_subset(tmp_path, capsys, members, line):
    cfg = tmp_path / "path.cfg"
    cfg.write_text(f"[topology]\nn = 3\nedges = 1,2 2,3\n\n[adversary]\nmembers = {members}\n")
    assert main(["graph-check", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_audit_exit_status_tracks_verdict(tmp_path, capsys):
    passing = tmp_path / "pass.cfg"
    passing.write_text(
        "[experiment]\np = 3\n\n[topology]\nn = 3\nedges = 1,2 2,3 1,3\n\n"
        "[audit]\nclaim = mask-uniformity\n"
    )
    assert main(["audit", "--config", str(passing)]) == 0
    assert "passed yes" in capsys.readouterr().out

    failing = tmp_path / "fail.cfg"
    failing.write_text(
        "[experiment]\np = 3\n\n[topology]\nn = 4\nedges = 1,2 3,4\n\n"
        "[audit]\nclaim = mask-uniformity\n"
    )
    assert main(["audit", "--config", str(failing)]) == 1
    assert "passed no" in capsys.readouterr().out


def test_view_identity_audit_detects_leak(tmp_path, capsys):
    cfg = tmp_path / "leak.cfg"
    cfg.write_text(
        "[experiment]\np = 3\n\n[topology]\nn = 3\nedges = 1,2 2,3\n\n"
        "[inputs]\nvalues = 1 0 2\n\n[adversary]\nmembers = 2\n\n"
        "[audit]\nclaim = view-identity\ns_prime = 2 0 1\n"
    )
    assert main(["audit", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "passed no" in out
    assert "detail is_vertex_cut True" in out


def test_config_error_diagnostics():
    with pytest.raises(ConfigError, match="line 2: \\[experiment\\] seed"):
        parse_config("[experiment]\nseed = x\n")
    with pytest.raises(ConfigError, match="line 1: unknown section"):
        parse_config("[nonsense]\n")
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("[experiment]\nsped = 1\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("[experiment]\nseed = 1\nseed = 2\n")
    with pytest.raises(ConfigError, match="line 1: key before any"):
        parse_config("seed = 1\n")
    with pytest.raises(ConfigError, match="edges.*`i,j` pairs"):
        parse_config("[topology]\nn = 2\nedges = 1-2\n")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config("[experiment]\nseed =\n")
    # the subcommand picks what to do; no key does
    with pytest.raises(ConfigError, match="line 2: unknown key 'mode'"):
        parse_config("[experiment]\nmode = audit\n")


def test_config_errors_exit_two(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[experiment]\nseed = x\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_config_that_is_not_utf8_exits_two_with_one_line(tmp_path, capsys):
    # the same byte in a topology file already exits 2 naming the file
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[experiment]\nseed = \xff\n")
    assert main(["run", "--config", str(cfg)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: file {cfg}: ") and "0xff" in err


@pytest.mark.parametrize("sub", [(), ("sub",)])
def test_out_blocked_by_a_file_exits_one_naming_the_path(tmp_path, capsys, sub):
    # --out naming a regular file, or a directory below one
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CFG)
    blocker = tmp_path / "afile"
    blocker.write_text("")
    out = blocker.joinpath(*sub)
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "average = 14/3" in captured.out
    (err,) = captured.err.splitlines()
    assert err.startswith("error: ") and str(out) in err


@pytest.mark.parametrize("inline", ["edges = 1,3", "n = 3"])
def test_topology_file_conflicts_with_inline_n_or_edges(tmp_path, capsys, inline):
    (tmp_path / "ring.topo").write_text("n 3\ne 1 2\ne 2 3\ne 1 3\n")
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(
        f"[experiment]\np = 30\nq2 = 9\n\n[topology]\nfile = ring.topo\n{inline}\n\n"
        "[inputs]\nvalues = 4 7 3\n"
    )
    assert main(["run", "--config", str(cfg)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err == "config error: line 6: [topology] file conflicts with inline n/edges"


def test_missing_mode_fields_are_named(tmp_path, capsys):
    cfg = tmp_path / "noq.cfg"
    cfg.write_text("[topology]\nn = 2\nedges = 1,2\n\n[inputs]\nvalues = 1 2\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert "q2" in capsys.readouterr().err


def test_report_file_round_trips(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CFG)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    text = (out_dir / "report.txt").read_text()
    assert RunReport.from_text(text).to_text() == text


@pytest.mark.parametrize("algo", ["flood", "gossip"])
def test_run_without_out_formats_no_files(tmp_path, capsys, monkeypatch, algo):
    # report.txt and convergence.csv are built only when --out will write them
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CFG)
    argv = ["run", "--config", str(cfg), "--algo", algo]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    written = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("formatted a file that nothing writes")

    monkeypatch.setattr(RunReport, "to_text", refuse)
    monkeypatch.setattr(_SpreadTrace, "float_texts", refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out == written


def test_algo_and_seed_overrides(tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(GOLDEN_CFG)
    out_dir = tmp_path / "gossip_out"
    status = main(["run", "--config", str(cfg), "--algo", "gossip", "--out", str(out_dir)])
    out = capsys.readouterr().out
    assert status == 0
    assert "average = 14/3" in out
    csv = (out_dir / "convergence.csv").read_text().splitlines()
    assert csv[0] == "exchange,spread"
    assert len(csv) > 1

    main(["run", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg), "--seed", "2", "--out", str(tmp_path / "b")])
    capsys.readouterr()
    ra = RunReport.from_text((tmp_path / "a" / "report.txt").read_text())
    rb = RunReport.from_text((tmp_path / "b" / "report.txt").read_text())
    assert ra.average == rb.average == Fraction(14, 3)
    assert ra.events != rb.events


def test_topology_file_reference(tmp_path, capsys):
    (tmp_path / "ring.topo").write_text("n 3\ne 1 2\ne 2 3\ne 1 3\n")
    cfg = tmp_path / "ref.cfg"
    cfg.write_text(
        "[experiment]\np = 30\nq2 = 9\nseed = 42\n\n[topology]\nfile = ring.topo\n\n"
        "[inputs]\nvalues = 4 7 3\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert "average = 14/3" in capsys.readouterr().out


@pytest.mark.parametrize("count", ["\u00b2", "0", "1000000000"])
def test_topology_file_names_the_line_of_a_bad_vertex_count(tmp_path, capsys, count):
    (tmp_path / "bad.topo").write_text(f"n {count}\ne 1 2\n")
    cfg = tmp_path / "ref.cfg"
    cfg.write_text("[experiment]\nq2 = 9\n\n[topology]\nfile = bad.topo\n\n[inputs]\nvalues = 4 7\n")
    assert main(["run", "--config", str(cfg)]) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"config error: [topology] file {tmp_path / 'bad.topo'}: line 1: ")


def test_audit_histogram_csv_written(tmp_path, capsys):
    cfg = tmp_path / "pass.cfg"
    cfg.write_text(
        "[experiment]\np = 3\n\n[topology]\nn = 3\nedges = 1,2 2,3 1,3\n\n"
        "[audit]\nclaim = mask-uniformity\n"
    )
    out_dir = tmp_path / "out"
    assert main(["audit", "--config", str(cfg), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    rows = (out_dir / "histogram.csv").read_text().splitlines()
    assert rows[0] == "outcome,count"
    assert len(rows) == 10  # 9 mask vectors
    assert (out_dir / "verdict.txt").read_text().startswith("audit v1")


def test_mask_uniformity_job_decodes_its_histogram_once(tmp_path, capsys, monkeypatch):
    # the verdict's coset check and histogram.csv read the same digit rows
    import privavg.audit as audit

    calls, digits = [], audit._digits
    monkeypatch.setattr(audit, "_digits", lambda *a: calls.append(a[2]) or digits(*a))
    cfg = tmp_path / "pass.cfg"
    cfg.write_text(
        "[experiment]\np = 5\n\n[topology]\nn = 4\nedges = 1,2 2,3 3,4 1,4\n\n"
        "[audit]\nclaim = mask-uniformity\n"
    )
    assert main(["audit", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "passed yes" in capsys.readouterr().out
    assert calls == [4]
    assert len((tmp_path / "out" / "histogram.csv").read_text().splitlines()) == 1 + 5**3


def test_sampled_claim_through_cli(tmp_path, capsys):
    cfg = tmp_path / "sampled.cfg"
    cfg.write_text(
        "[experiment]\np = 30\nseed = 7\n\n[topology]\nn = 3\nedges = 1,2 2,3 1,3\n\n"
        "[inputs]\nvalues = 4 7 3\n\n[adversary]\nmembers = 3\n\n"
        "[audit]\nclaim = sampled-view\ns_prime = 5 6 3\nsamples = 20000\nalpha = 0.01\n"
    )
    assert main(["audit", "--config", str(cfg)]) == 0
    assert "passed yes" in capsys.readouterr().out


def test_gossip_out_of_rounds_exits_one_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text(GOLDEN_CFG.replace("algo = flood", "algo = gossip\nmax_rounds = 3"))
    assert main(["run", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: gossip spread still ")
    assert err[0].endswith(" after 3 rounds")


@pytest.mark.parametrize("max_delay", ["0", "-3"])
def test_max_delay_below_one_exits_two_naming_line(tmp_path, capsys, max_delay):
    cfg = tmp_path / "delay.cfg"
    cfg.write_text(GOLDEN_CFG.replace("algo = flood", f"algo = flood\nmax_delay = {max_delay}"))
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: line 5: [experiment] max_delay: expected an integer >= 1, got {max_delay}"
    ]


@pytest.mark.parametrize(
    "old, new, flags, complaint",
    [
        ("seed = 42", "seed = -1", [],
         "line 3: [experiment] seed: expected an integer in [0, 2**64), got -1"),
        ("seed = 42", f"seed = {2**64}", [],
         f"line 3: [experiment] seed: expected an integer in [0, 2**64), got {2**64}"),
        ("seed = 42", "seed = 42\nschedule_seed = -2", [],
         "line 4: [experiment] schedule_seed: expected an integer in [0, 2**64), got -2"),
        ("p = 30", "p = 1", [],
         "line 5: [experiment] p: expected an integer in [2, 2**64), got 1"),
        ("p = 30", f"p = {2**64}", [],
         f"line 5: [experiment] p: expected an integer in [2, 2**64), got {2**64}"),
        ("p = 30", "p = 30\nmax_rounds = 0", [],
         "line 6: [experiment] max_rounds: expected an integer >= 1, got 0"),
        ("p = 30", "p = 30\ntolerance = 0", [],
         "line 6: [experiment] tolerance: expected a rational > 0, got 0"),
        ("p = 30", "p = 30\ntolerance = -1", [],
         "line 6: [experiment] tolerance: expected a rational > 0, got -1"),
        ("n = 3", "n = 0", [],
         "line 10: [topology] n: expected an integer >= 1, got 0"),
        ("1,2 2,3 1,3", "1,2 2,3 1,2", [],
         "line 11: [topology] edges: duplicate edge {1,2}"),
        ("1,2 2,3 1,3", "1,2 2,4", [],
         "line 11: [topology] edges: edge {2,4} has an endpoint outside 1..3"),
        ("1,2 2,3 1,3", "1,2 2,2", [],
         "line 11: [topology] edges: self-loop at vertex 2"),
        ("", "", ["--seed", "-1"], "--seed: expected an integer in [0, 2**64), got -1"),
        ("", "", ["--seed", "x"], "--seed: expected an integer, got 'x'"),
        ("", "", ["--algo", "push"], "--algo: expected one of flood, gossip, got 'push'"),
        ("q1 = 0", "q1 = 10", [],
         "line 7: [experiment] q2: expected an integer >= q1 = 10, got 9"),
        ("n = 3", "n = 1000000000", [],
         "line 10: [topology] n: expected an integer <= 100000, got 1000000000"),
        ("p = 30", "p = 30\ntolerance = 1e-10000000", [],
         "line 6: [experiment] tolerance: expected a decimal exponent of at most 10000 in size, "
         "got '1e-10000000'"),
    ],
)
def test_bad_values_exit_two_naming_the_line_or_flag(tmp_path, capsys, old, new, flags, complaint):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(GOLDEN_CFG.replace(old, new, 1) if old else GOLDEN_CFG)
    assert main(["run", "--config", str(cfg), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {complaint}"]


def test_max_delay_past_64_bits_exits_two_naming_the_line(tmp_path, capsys):
    cfg = tmp_path / "delay.cfg"
    cfg.write_text(GOLDEN_CFG.replace("algo = flood", f"algo = flood\nmax_delay = {2**64}"))
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: line 5: [experiment] max_delay: expected an integer below 2**64, "
        "got 18446744073709551616"
    ]


LOOSE_GOSSIP_CFG = """\
[experiment]
algo = gossip
p = 61
q1 = 0
q2 = 9
tolerance = 1/4

[topology]
n = 6
edges = 1,2 2,3 3,4 4,5 5,6 1,6

[inputs]
values = 3 9 0 5 7 2
"""


@pytest.mark.parametrize("seed", range(1, 7))
def test_gossip_tolerance_past_the_rounding_bound_exits_one(tmp_path, capsys, seed):
    # 1/4 is far above 1/(2n^2) = 1/72: some seeds would round wrong, so all refuse
    cfg = tmp_path / "loose.cfg"
    cfg.write_text(LOOSE_GOSSIP_CFG)
    assert main(["run", "--config", str(cfg), "--seed", str(seed)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: gossip tolerance 1/4 must be below 1/(2n^2) = 1/72 for n = 6"
    ]


BUDGET_CFG = """\
[experiment]
p = {p}

[topology]
n = 3
edges = {edges}

[audit]
claim = mask-uniformity
budget = {budget}
"""


@pytest.mark.parametrize("budget", ["-5", "0"])
def test_budget_below_one_exits_two_naming_line(tmp_path, capsys, budget):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(BUDGET_CFG.format(p=3, edges="1,2 2,3 1,3", budget=budget))
    assert main(["audit", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: line 10: [audit] budget: expected an integer >= 1, got {budget}"
    ]


def test_budget_past_int64_codes_exits_one_naming_size(tmp_path, capsys):
    # a budget of 10^23 admits p = 2^64-59 on one edge, whose p tallied views
    # would sum past what int64 tallies hold
    p = 2**64 - 59
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(BUDGET_CFG.format(p=p, edges="1,2", budget=10**23))
    assert main(["audit", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: enumeration needs {p} b-vectors")
    assert "2^63" in err[0]


def test_oversized_enumeration_exits_one_naming_its_size_as_a_power(tmp_path, capsys):
    # K30 at p = 2^64-59: p^435 has over 8,000 digits and is never built
    p = 2**64 - 59
    edges = " ".join(f"{i},{j}" for i in range(1, 31) for j in range(i + 1, 31))
    cfg = tmp_path / "k30.cfg"
    cfg.write_text(
        f"[experiment]\np = {p}\n\n[topology]\nn = 30\nedges = {edges}\n\n[audit]\nclaim = mask-uniformity\n"
    )
    assert main(["audit", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: enumeration needs {p}^435 b-vectors (> budget 10000000); use sampled_view_test instead"
    ]


GROUP_CFG = """\
[experiment]
p = 5

[topology]
n = 4
edges = 1,2 2,3 3,4 1,4

[inputs]
values = 1 2 3 4

[adversary]
members = 99

[audit]
claim = group-privacy
s_prime = 2 1 3 4
group = 1 2
"""


def test_group_privacy_coalition_outside_the_graph_exits_one(tmp_path, capsys):
    cfg = tmp_path / "group.cfg"
    cfg.write_text(GROUP_CFG)
    assert main(["audit", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: coalition member 99 outside 1..4"]


LEAK_CFG = """\
[experiment]
p = 11

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
samples = {samples}
{alpha}
"""


@pytest.mark.parametrize(
    "alpha_line, flags, complaint",
    [
        ("alpha = 0", [], "line 18: [audit] alpha: expected a real number in (0, 1), got 0.0"),
        ("alpha = -1", [], "line 18: [audit] alpha: expected a real number in (0, 1), got -1.0"),
        ("alpha = 1", [], "line 18: [audit] alpha: expected a real number in (0, 1), got 1.0"),
        ("", ["--alpha", "0"], "--alpha: expected a real number in (0, 1), got 0.0"),
        ("", ["--alpha", "-1"], "--alpha: expected a real number in (0, 1), got -1.0"),
    ],
    ids=["config-0", "config-minus-1", "config-1", "flag-0", "flag-minus-1"],
)
def test_alpha_outside_the_unit_interval_exits_two_naming_line(
    tmp_path, capsys, alpha_line, flags, complaint
):
    # listener 2 cuts the path: the pair leaks (p-value 0), which alpha <= 0 would pass
    cfg = tmp_path / "leak.cfg"
    cfg.write_text(LEAK_CFG.format(samples=2000, alpha=alpha_line))
    assert main(["audit", "--config", str(cfg), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {complaint}"]


def test_samples_below_one_exits_two_naming_line(tmp_path, capsys):
    cfg = tmp_path / "leak.cfg"
    cfg.write_text(LEAK_CFG.format(samples=0, alpha=""))
    assert main(["audit", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: line 17: [audit] samples: expected an integer >= 1, got 0"
    ]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_flag_below_one_exits_two_naming_the_flag(tmp_path, capsys, samples):
    # the same check as the [audit] samples key, before any audit runs
    cfg = tmp_path / "leak.cfg"
    cfg.write_text(LEAK_CFG.format(samples=2000, alpha=""))
    assert main(["audit", "--config", str(cfg), "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: --samples: expected an integer >= 1, got {samples}"
    ]


def test_tolerance_exponents_up_to_the_cap_parse():
    for text, want in (
        ("1e-220", Fraction(1, 10**220)),
        ("1E-10000", Fraction(1, 10**10000)),
        ("25e-1_0000", Fraction(25, 10**10000)),
        ("0.5e+3", Fraction(500)),
        ("3/4", Fraction(3, 4)),
    ):
        cfg = parse_config(GOLDEN_CFG.replace("p = 30", f"p = 30\ntolerance = {text}"))
        assert cfg.algo.gossip_tolerance == want
    for text in ("1e-10001", "1E+10001", "2e" + "9" * 5000):
        with pytest.raises(ConfigError, match=r"^line 6: \[experiment\] tolerance: expected a "):
            parse_config(GOLDEN_CFG.replace("p = 30", f"p = 30\ntolerance = {text}"))


NINES = "9" * 5000


@pytest.mark.parametrize(
    "old, new",
    [
        ("n = 3", f"n = {NINES}"),
        ("p = 30", f"p = 30\ntolerance = {NINES}"),
        ("n = 3", f"n = {NINES[:4000]}"),  # converts, then fails its bound
        ("p = 30", f"p = {NINES[:4000]}"),
        ("algo = flood", f"algo = {NINES}"),
        ("1,2 2,3", f"1,{NINES[:4000]} 2,3"),
        ("1,2 2,3", f"1,x{NINES} 2,3"),
        ("1,2 2,3", f"1,2,{NINES} 2,3"),
        ("seed = 42", f"seed{NINES}"),
        ("seed = 42", f"seed{NINES} = 1"),
        ("p = 30", "p = 30\ntolerance = -1e-5000"),  # fails its bound past str's digit limit
        ("[inputs]", f"[{NINES}]"),
    ],
    ids=[
        "n", "tolerance", "n-bound", "p-bound", "algo", "endpoint", "token", "pair", "no-equals", "key",
        "tolerance-bound", "section",
    ],
)
def test_long_config_values_give_one_short_line(tmp_path, capsys, old, new):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(GOLDEN_CFG.replace(old, new, 1))
    assert main(["run", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("config error: ") and len(line) < 200, line[:300]
    assert captured.out == ""


@pytest.mark.parametrize(
    "error, line",
    [
        (MemoryError("Unable to allocate 14.6 TiB for an array with shape (10**12, 3)"),
         "error: Unable to allocate 14.6 TiB for an array with shape (10**12, 3)"),
        (MemoryError(), "error: out of memory"),
    ],
    ids=["numpy-message", "bare"],
)
def test_out_of_memory_exits_one_with_one_line(tmp_path, capsys, monkeypatch, error, line):
    def run_out(*args, **kwargs):
        raise error

    # a real allocation of that size may or may not fail at once, by the host's overcommit policy
    monkeypatch.setattr("privavg.audit.sampled_view_test", run_out)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(LEAK_CFG.format(samples=10**12, alpha=""))
    assert main(["audit", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_flood_run_with_a_tolerance_past_the_digit_limit_writes_its_report(tmp_path, capsys):
    # flooding ignores the tolerance, but the scenario hash still formats it
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(GOLDEN_CFG.replace("p = 30", "p = 30\ntolerance = 1e-5000"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert "average = 14/3 " in capsys.readouterr().out
    text = (out_dir / "report.txt").read_text()
    assert RunReport.from_text(text).to_text() == text


def test_gossip_tolerance_past_the_digit_limit_exits_one_with_one_short_line(tmp_path, capsys):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(GOLDEN_CFG.replace("p = 30", "p = 30\ntolerance = 1e5000"))
    assert main(["run", "--config", str(cfg), "--algo", "gossip"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: gossip tolerance 1000") and len(line) < 200, line[:300]
    assert line.endswith(" must be below 1/(2n^2) = 1/18 for n = 3")


def test_readme_config_example_lists_every_key():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    for key in _KEYS:
        assert re.search(rf"\b{key} =", block), key


def test_readme_config_example_runs_and_audits(tmp_path, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    parsed = parse_config(block)
    assert parsed.audit_group == {1, 2} and not parsed.audit_group & parsed.adversary
    assert main(["run", "--config", str(cfg)]) == 0
    assert "average = 14/3 " in capsys.readouterr().out
    for claim in ("view-identity", "group-privacy"):
        cfg.write_text(block.replace("claim = view-identity", f"claim = {claim}", 1))
        assert main(["audit", "--config", str(cfg)]) == 0, claim
        assert "passed yes" in capsys.readouterr().out
