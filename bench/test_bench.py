"""Tests of the benchmark itself: generator, oracles, tracing, contract.

Run from the repository root with `python3 -m pytest bench`.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import privavg.cli as cli  # noqa: E402
import privavg.simnet as simnet  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture
def runner_for(tmp_path):
    def make(workload: str, seed: int = 3, slots=None) -> run.Runner:
        jobs = wl.generate(workload, seed)
        if slots is not None:
            jobs = [replace(jobs[i], slot=k) for k, i in enumerate(slots)]
        return run.Runner(jobs, tmp_path / workload, cli, wl)

    return make


def _results(r: run.Runner, idx: int) -> list:
    """Run job `idx` of `r` and return its raw results, unrecorded."""
    job, d = r.jobs[idx], r.dirs[idx]
    out = []
    for argv in job.argv(str(d)):
        status, stdout, stderr = r._call(argv)
        out.append(wl.CommandResult(status, stdout, stderr, r._collect(d / "out")))
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(workload):
    a, b = wl.generate(workload, 11), wl.generate(workload, 11)
    assert [(j.files, j.commands, j.expect) for j in a] == [(j.files, j.commands, j.expect) for j in b]
    other = wl.generate(workload, 12)
    assert [j.files for j in a] != [j.files for j in other]
    # the seed changes the bytes, never the slot sizes
    assert [j.label for j in a] == [j.label for j in other]


def _audit(kind: str, seed: int) -> list:
    return [j for j in wl.generate("audit", seed) if j.kind == kind]


def _position(kind: str, seed: int, pick) -> int:
    """Position in the audit pass of the first job of `kind` that `pick` accepts."""
    return next(j.slot for j in wl.generate("audit", seed) if j.kind == kind and pick(j))


def test_exact_slots_cover_both_verdicts_and_separating_coalitions():
    jobs = _audit("audit-exact", 5)
    verdicts = {j.expect["passed"] for j in jobs}
    assert verdicts == {True, False}
    assert any(j.expect.get("cut") and not j.expect["passed"] for j in jobs)
    assert any(j.expect.get("cut") and j.expect["passed"] for j in jobs)


def test_sampled_slots_run_both_binning_modes():
    jobs = _audit("audit-sampled", 5)
    assert {j.expect["binning"] for j in jobs} == {"full_view", "marginals"}
    assert any(j.expect["cut"] for j in jobs) and any(not j.expect["cut"] for j in jobs)


def test_oracle_accepts_real_outputs_and_catches_a_planted_wrong_average(runner_for):
    r = runner_for("run-flood", slots=[2])
    results = _results(r, 0)
    assert wl.check(r.jobs[0], results) == ([], 0)

    (res,) = results
    want = next(line for line in res.stdout.splitlines() if line.startswith("average = "))
    wrong = res.stdout.replace(want, "average = 1/7 (= 0.142857142857…)")
    problems, _ = wl.check(r.jobs[0], [replace(res, stdout=wrong)])
    assert any("exact mean" in p for p in problems)

    report = res.files["report.txt"].decode()
    line = next(x for x in report.splitlines() if x.startswith("agent_average "))
    bad = report.replace(line, line.rsplit(" ", 1)[0] + " 1/7")
    problems, _ = wl.check(r.jobs[0], [replace(res, files={"report.txt": bad.encode()})])
    assert problems


def test_oracle_catches_a_planted_flipped_verdict(runner_for):
    idx = _position("audit-exact", 3, lambda j: j.expect.get("cut") and not j.expect["passed"])
    r = runner_for("audit", slots=[idx])
    (res,) = _results(r, 0)
    assert res.status == 1
    assert wl.check(r.jobs[0], [res]) == ([], 0)
    flipped = replace(res, status=0, stdout=res.stdout.replace("passed no", "passed yes"))
    flipped.files["verdict.txt"] = flipped.stdout.encode()
    problems, _ = wl.check(r.jobs[0], [flipped])
    assert any("theory" in p for p in problems)


def test_oracle_checks_the_cut_line_of_graph_check(runner_for):
    idx = _position("audit-sampled", 3, lambda j: not j.expect["cut"])
    r = runner_for("audit", slots=[idx])
    gc, au = _results(r, 0)
    assert wl.check(r.jobs[0], [gc, au])[0] == []
    lying = gc.stdout.replace("vertex cut: no", "vertex cut: yes")
    assert lying != gc.stdout
    assert wl.check(r.jobs[0], [replace(gc, stdout=lying), au])[0]


def test_repeats_must_reproduce_the_first_digest(runner_for):
    r = runner_for("audit", slots=[22])
    r.run_job(0)
    r.run_job(0)
    assert (r.attempted, r.failed) == (2, 0)
    (res,) = _results(r, 0)
    r.record(0, [replace(res, stdout=res.stdout + "\n")])
    assert r.failed == 1 and "differ" in r.problems[-1]


@pytest.mark.parametrize("workload,slots", [
    ("run-flood", [2]), ("run-gossip", [9]), ("audit", [16, 22, 3, 15]),
])
def test_tracing_leaves_outputs_unchanged(runner_for, workload, slots):
    r = runner_for(workload, slots=slots)
    plain = [wl.job_digest(_results(r, i)) for i in range(len(slots))]
    tracer = tracing.Tracer()
    original = simnet.delivery_schedule
    with tracer.installed():
        assert simnet.delivery_schedule is not original
        traced = [wl.job_digest(_results(r, i)) for i in range(len(slots))]
    assert simnet.delivery_schedule is original
    assert traced == plain
    names = {s[0] for s in tracer.spans}
    assert "cli.main" in names and "topology.load_topology_text" in names
    metrics = tracer.layer_metrics(leaks_missed=0, out_bytes=0)
    assert metrics["cli.self_s"] > 0 and metrics["topology.edges_loaded"] > 0
    assert all(v >= 0 for v in metrics.values())


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("cli.main", 0.0, 10.0, -1, 0),
        ("cli.parse_config", 1.0, 4.0, 0, 0),
        ("topology.load_topology_text", 2.0, 3.0, 1, 0),
        ("simnet.simulate", 5.0, 9.0, 0, 0),
        ("simnet.delivery_schedule", 6.0, 8.0, 3, 0),
    ]
    m = tracer.layer_metrics(leaks_missed=0, out_bytes=0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["cli.parse_s"] == pytest.approx(2.0)
    assert m["topology.load_s"] == pytest.approx(1.0)
    assert m["simnet.simulate_s"] == pytest.approx(4.0)
    assert m["simnet.self_s"] == pytest.approx(2.0)
    assert m["simnet.schedule_s"] == pytest.approx(2.0)


def test_benchmark_json_names_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    layer = tracing.Tracer().layer_metrics(leaks_missed=0, out_bytes=0)
    names = list(layer) + ["trace.job_s", "trace.overhead_frac"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert set(json.loads((ROOT / "bench" / "frozen.json").read_text())["digests"]) == set(wl.WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run-flood", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
