"""End-to-end and per-layer benchmark for the privavg CLI.

Usage, from the repository root:

    python3 bench/run.py --workload run-flood --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

One client in one thread drives a closed loop: it calls `privavg.cli.main` in
process on the next generated job only when the previous one has finished,
and checks every output against the generator's own oracle. Each job's
stdout and `--out` files go into a SHA-256 digest; repeats of a job must
reproduce it, and at the default seed the pass digest must equal the one
frozen in `bench/frozen.json`.

`--trace 0` measures the end-to-end metrics: the warm closed loop, with fresh
interpreters for `setup_s` and `cli_wall_s` between its segments. `--trace 1` alternates
untraced and traced passes over the jobs and reports the per-layer metrics
of `bench/tracing.py`, checking that every counter repeats exactly.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Other files go to `.bench_out/`.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from tracing import COUNTERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# one BLAS/OpenMP thread, set before numpy loads, for this process and its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

MIN_JOBS = 100  # job_s_p90 needs ten jobs beyond it
WARMUP_JOBS = 4
SPAWNS = 5
SPAWN_TIMEOUT_S = 60

# What `python -m privavg.cli ARGS` does, with the moment `import privavg.cli`
# returns written to stderr first. The module is dropped before runpy runs it
# as __main__, as `-m` would find it, so runpy has nothing to warn about.
SPAWN_CODE = """\
import sys, time
import privavg.cli
sys.stderr.write(repr(time.monotonic()) + "\\n")
import runpy
del sys.modules["privavg.cli"]
runpy.run_module("privavg.cli", run_name="__main__", alter_sys=True)
"""

END_TO_END = (
    ("jobs_per_s", "jobs/s"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("setup_s", "s"),
    ("cli_wall_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Runs jobs in process, times them, and checks every output."""

    def __init__(self, jobs, work: Path, cli, wl):
        self.jobs = jobs
        self.cli = cli
        self.wl = wl
        self.dirs = []
        for job in jobs:
            d = work / f"slot{job.slot:02d}"
            (d / "out").mkdir(parents=True)
            for name, text in job.files.items():
                (d / name).write_text(text)
            self.dirs.append(d)
        self.reference: dict[int, str] = {}
        self.bad: set[int] = set()
        self.out_bytes: dict[int, int] = {}
        self.leaks_missed: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _collect(self, out_dir: Path) -> dict[str, bytes]:
        files = {}
        for f in sorted(out_dir.iterdir()):
            files[f.name] = f.read_bytes()
            f.unlink()
        return files

    def _call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status = self.cli.main(argv)
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed job, not a dead benchmark
                err.write(traceback.format_exc())
                status = -1
        return status, out.getvalue(), err.getvalue()

    def run_job(self, idx: int) -> float:
        """Run one job, check it, and return its wall time in seconds."""
        job, d = self.jobs[idx], self.dirs[idx]
        results = []
        elapsed = 0.0
        for argv in job.argv(str(d)):
            start = time.perf_counter()
            status, out, err = self._call(argv)
            elapsed += time.perf_counter() - start
            results.append(self.wl.CommandResult(status, out, err, self._collect(d / "out")))
        self.record(idx, results)
        return elapsed

    def record(self, idx: int, results) -> None:
        self.attempted += 1
        digest = self.wl.job_digest(results)
        if idx not in self.reference:
            problems, leak = self.wl.check(self.jobs[idx], results)
            if any(r.status == -1 for r in results):
                problems.append("raised: " + " | ".join(r.stderr for r in results if r.status == -1))
            self.reference[idx] = digest
            self.leaks_missed[idx] = leak
            self.out_bytes[idx] = sum(
                len(r.stdout.encode()) + sum(map(len, r.files.values())) for r in results
            )
            if problems:
                self.bad.add(idx)
                self.note(idx, "; ".join(problems))
        elif digest != self.reference[idx]:
            self.bad.add(idx)
            self.note(idx, "outputs differ from the slot's first run")
        if idx in self.bad:
            self.failed += 1

    def note(self, idx: int, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"slot {idx} ({self.jobs[idx].label}): {problem}")

    def run_pass(self) -> float:
        return sum(self.run_job(i) for i in range(len(self.jobs)))

    def pass_digest(self) -> str:
        return self.wl.run_digest([self.reference[i] for i in range(len(self.jobs))])

    def spawn_job(self, idx: int) -> tuple[list[float], float]:
        """The job as an interactive user runs it, in fresh processes.

        Returns the set-up time of each process (spawn until `import
        privavg.cli` returns) and the wall time of the whole job.
        """
        job, d = self.jobs[idx], self.dirs[idx]
        results, setups = [], []
        wall = 0.0
        for argv in job.argv(str(d)):
            start = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-c", SPAWN_CODE, *argv], cwd=ROOT, env=child_env(),
                capture_output=True, text=True, timeout=SPAWN_TIMEOUT_S,
            )
            wall += time.monotonic() - start
            imported, _, stderr = proc.stderr.partition("\n")
            try:
                setups.append(float(imported) - start)
            except ValueError:
                raise RuntimeError(f"import privavg.cli failed: {proc.stderr.strip()}") from None
            results.append(
                self.wl.CommandResult(proc.returncode, proc.stdout, stderr, self._collect(d / "out"))
            )
        self.record(idx, results)
        return setups, wall


def measure(runner: Runner, seconds: float, pinned: int) -> tuple[dict[str, float], int]:
    """The warm closed loop, cut into segments with one fresh-process run of
    the pinned job after each, so that both kinds of timing sample the whole
    length of the run and not one stretch of the machine's ups and downs."""
    for i in range(min(WARMUP_JOBS, len(runner.jobs))):
        runner.run_job(i)
    k = len(runner.jobs)
    times: list[float] = []
    setup: list[float] = []
    wall: list[float] = []
    for _ in range(SPAWNS):
        end = time.perf_counter() + seconds / SPAWNS
        while time.perf_counter() < end:
            times.append(runner.run_job(len(times) % k))
        s, w = runner.spawn_job(pinned)
        setup += s
        wall.append(w)
    while len(times) < max(MIN_JOBS, k):
        times.append(runner.run_job(len(times) % k))
    # throughput over whole passes only, so that every run weighs every slot alike
    whole = len(times) - len(times) % k
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "jobs_per_s": whole / sum(times[:whole]),
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[-1],
        "setup_s": statistics.median(setup),
        "cli_wall_s": statistics.median(wall),
        "peak_rss_mb": rss_mb,
    }, len(times)


def trace(runner: Runner, seconds: float, spans_path: Path, problems: list[str]):
    """Alternate untraced and traced passes; per-layer metrics are pass totals."""
    for i in range(min(WARMUP_JOBS, len(runner.jobs))):
        runner.run_job(i)
    tracer = Tracer()
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while not layers or time.perf_counter() - start < seconds:
        plain.append(runner.run_pass())
        tracer.reset()
        with tracer.installed():
            t = 0.0
            for i in range(len(runner.jobs)):
                tracer.job = i
                t += runner.run_job(i)
        traced.append(t)
        layers.append(tracer.layer_metrics(
            leaks_missed=sum(runner.leaks_missed.values()),
            out_bytes=sum(runner.out_bytes.values()),
        ))
        spans.append(tracer.spans)
    tracer.write_spans(spans_path, spans)
    for name in COUNTERS:
        values = {m[name] for m in layers}
        if len(values) > 1:
            problems.append(f"counter {name} differs between passes: {sorted(values)}")
    result = {
        name: (layers[0][name] if name in COUNTERS else statistics.median(m[name] for m in layers))
        for name in layers[0]
    }
    result["trace.job_s"] = statistics.median(traced)
    result["trace.overhead_frac"] = 1 - statistics.median(plain) / statistics.median(traced)
    return result, len(layers)


def run_all(args) -> int:
    """Every workload in its own process, one after another; a table at the end."""
    from workloads import WORKLOADS

    ok = True
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            ok = False
            continue
        print("\n".join(lines[:-1]))
        ok = ok and proc.returncode == 0 and result["correct"] and result["failed"] == 0
        rows.append((name, result))
    print()
    names = list(rows[0][1]["metrics"]) if rows else []
    print(f"{'metric':<28}" + "".join(f"{n:>16}" for n, _ in rows))
    for metric in names + ["failed_frac"]:
        cells = []
        unit = "ratio"
        for _, r in rows:
            if metric == "failed_frac":
                cells.append(r["failed"] / r["attempted"])
            else:
                cells.append(r["metrics"][metric]["value"])
                unit = r["metrics"][metric]["unit"]
        print(f"{metric + ' [' + unit + ']':<28}" + "".join(f"{v:>16.6g}" for v in cells))
    print("all outputs correct" if ok else "SOME OUTPUT CHECKS FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or `all`")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "privavg" / "cli.py").is_file():
        print(f"error: no privavg sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)

    import privavg.cli as cli
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(wl.WORKLOADS)} or all")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    problems: list[str] = []  # whole-run checks; failed jobs are counted by the runner
    try:
        runner = Runner(wl.generate(args.workload, args.seed), work, cli, wl)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, passes = trace(runner, args.seconds, spans, problems)
            done = f"{passes} untraced + {passes} traced passes of {len(runner.jobs)} jobs; spans in {spans.relative_to(ROOT)}"
        else:
            values, jobs = measure(runner, args.seconds, wl.PINNED_SLOT[args.workload])
            done = f"{jobs} jobs in the timed loop"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest = runner.pass_digest()
    frozen = json.loads((Path(__file__).parent / "frozen.json").read_text())
    if args.seed == frozen["seed"]:
        want = frozen["digests"][args.workload]
        if want != digest:
            problems.append(f"pass digest {digest} != frozen {want}")
    problems += runner.problems
    correct = runner.failed == 0 and not problems
    metrics = {
        name: {"value": value, "unit": dict(END_TO_END).get(name) or _layer_unit(name)}
        for name, value in values.items()
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: {done}")
    print(f"digest {digest}")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':<28} {runner.failed / runner.attempted:>14.6g} ratio")
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "digest": digest, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics,
        }) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed, "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "simnet.tie_candidates":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
