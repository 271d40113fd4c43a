"""Benchmark of quivermoduli: one closed-loop client runs CLI jobs in-process.

Run from the repository root:

    python3 perfbench/run.py --workload degen-q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

Each job is one ``quivermoduli.cli.main`` call on one generated document
(read from stdin), with ``--json``. One client runs one job at a time; no
extra threads or processes are started. Start-up (import plus document
generation) is timed on its own as ``setup_s``.

``--trace 0`` runs whole rounds of jobs until ``--seconds`` have passed,
cycling through a batch of distinct rounds, and reports the end-to-end
metrics. ``--trace 1`` runs a fixed batch once untraced and twice traced,
and reports per-layer calls, self times and work counters. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
``--workload all`` runs every workload untraced and prints a table first.

Times are CPU seconds of this process (``time.process_time``): the jobs
are single-threaded and do no I/O, so CPU time is their latency. End-to-end
times are also scaled to a fixed machine speed. On the shared 2-core
virtual machine the benchmark was built on, the speed of a core switched
between two levels about 1.7x apart for seconds at a time, so the same
round of sweep-fq jobs took from 2.7 to 4.8 CPU seconds. A fixed pure-Python probe
loop (``probe``), which runs no program code, is timed before and after
every job; each job's CPU time is multiplied by PROBE_S over the mean of
the two probes. Per-layer times (``--trace 1``) are plain CPU seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

from tracing import TRACED, Tracer
from workloads import WORKLOADS, Job, make_rounds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# distinct rounds per seed; untraced runs cycle through them
BATCH_ROUNDS = {"degen-q": 4, "sweep-fq": 4, "lattice-fq": 6}
TRACE_ROUNDS = {"degen-q": 1, "sweep-fq": 1, "lattice-fq": 2}
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 30.0
# An untraced run goes on past --seconds until it has MIN_JOBS jobs, so that
# at least ten latencies lie beyond p90, but never past MAX_WALL_S.
MIN_JOBS = 100
MAX_WALL_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "ok_ratio": "ratio",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Counters that must repeat exactly for the same seed.
DERIVED_COUNTS = (
    "grass.sweep.tuples",
    "grass.sweep.points",
    "reps.submodule_spans.found",
    "reps.decompose_local.unknown",
    "degeneration.verdicts.true",
    "degeneration.verdicts.false",
    "degeneration.verdicts.unknown",
)
DERIVED_RATIOS = (
    "grass.sweep.useful_ratio",
    "degeneration.survivor_ratio",
    "trace.overhead_ratio",
    "trace.layer_share",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    units.update(dict.fromkeys(DERIVED_COUNTS, "count"))
    units.update(dict.fromkeys(DERIVED_RATIOS, "ratio"))
    return units


# -- machine speed ---------------------------------------------------------------

clock = time.process_time
PROBE_S = 0.005  # the probe's nominal CPU seconds: the speed end-to-end times are scaled to


def probe() -> float:
    """CPU seconds of a fixed loop over dicts, ints and strings."""
    t0 = clock()
    d: dict[int, int] = {}
    for i in range(20000):
        d[i % 97] = d.get(i % 97, 0) + len(str(i))
    return clock() - t0


class Speed:
    """Scales CPU seconds to the machine speed at which a probe takes
    PROBE_S, probing at each call and averaging with the previous probe."""

    def __init__(self) -> None:
        self.last = probe()

    def scale(self, seconds: float) -> float:
        now = probe()
        seconds *= 2 * PROBE_S / (self.last + now)
        self.last = now
        return seconds


# -- set-up --------------------------------------------------------------------


def load_program():
    """Import quivermoduli.cli afresh and return it."""
    for name in [n for n in sys.modules if n == "quivermoduli" or n.startswith("quivermoduli.")]:
        del sys.modules[name]
    return importlib.import_module("quivermoduli.cli")


def setup(workload: str, seed: int):
    """(cli module, rounds, median scaled set-up seconds, speed). The first
    sample counts from process start; the others re-import the package
    from source."""
    cli = load_program()
    rounds = make_rounds(workload, seed, BATCH_ROUNDS[workload])
    first = clock()
    speed = Speed()
    samples = [first * PROBE_S / speed.last]
    for _ in range(SETUP_REPEATS - 1):
        t0 = clock()
        cli = load_program()
        rounds = make_rounds(workload, seed, BATCH_ROUNDS[workload])
        samples.append(speed.scale(clock() - t0))
    return cli, rounds, statistics.median(samples), speed


# -- one job -------------------------------------------------------------------


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def run_job(cli, job: Job) -> tuple[int | None, str, str, float]:
    """(exit code or None on exception/timeout, stdout, error text, seconds).
    Garbage from earlier jobs is collected first, outside the timing, so
    that neither a job's time nor the peak memory depends on its position."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(job.doc)
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([job.command, "-", "--json"])
    except Exception as exc:  # a failed job is counted, the run goes on
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        seconds = clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), seconds


VERDICT_FIELDS = {"maxdeg-test": "point", "moduli-report": "kind", "stability": "verdict"}


def verdict_of(job: Job, result: dict):
    """The verdict a report carries, or None; "unknown" when undecided."""
    field = VERDICT_FIELDS.get(job.command)
    if field is None or field not in result:
        return None
    value = result[field]
    if field == "point":
        value = value["holds"]
    return "unknown" if str(value).lower() == "unknown" else value


def check_report(job: Job, code, text: str) -> tuple[list[str], object]:
    """(problems, verdict) for one job's exit code and JSON report."""
    if code != 0:
        return [f"exit code {code}, expected 0"], None
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], None
    if report.get("command") != job.command:
        return [f"report names command {report.get('command')!r}"], None
    result = report.get("result", {})
    problems = []
    for name, want in job.checks:
        try:
            got = _CHECKS[name](result)
        except (KeyError, TypeError) as exc:
            got = f"missing field {exc}"
        if want is None:
            ok = got in _ALLOWED[name]
        else:
            ok = got == want
        if not ok:
            problems.append(f"{name}: got {got!r}, expected {want!r}")
    return problems, verdict_of(job, result)


def _moduli_kind(result):
    """The verdict kind, provided a witness comes exactly with NoCoarse."""
    if (result["kind"] == "NoCoarse") != bool(result["witness_rows"]):
        return "witness mismatch"
    return result["kind"]


def _factor_dims(result):
    dims = sorted(f["d"] for f in result["factors"])
    return dims if len(dims) == result["count"] else None


_CHECKS = {
    "limit_idempotent": lambda r: r["idempotent"],
    "holds": lambda r: r["point"]["holds"],
    "exhaustive": lambda r: r["exhaustive_sweep"],
    "moduli_kind": _moduli_kind,
    "verdict": lambda r: r["verdict"],
    "factor_dims": _factor_dims,
}
_ALLOWED = {
    "moduli_kind": {"Fine", "GradedFine", "NoCoarse", "Unknown"},
    "verdict": {"Stable", "SemistableNotStable", "Unstable"},
}


# -- untraced run ----------------------------------------------------------------


class Tally:
    """Latencies, failures and verdict counts of the jobs run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.verdicts = 0
        self.unknown = 0
        self.problems: list[str] = []

    def add(self, label: str, job: Job, outcome) -> None:
        code, text, err, seconds = outcome
        problems, verdict = check_report(job, code, text)
        if problems:
            self.failed += 1
            seconds = max(seconds, JOB_TIMEOUT_S)  # a failure misses any latency limit
            detail = "; ".join(problems) + (f" ({err.strip()[:200]})" if err.strip() else "")
            self.problems.append(f"{label} {job.command} [{job.family}]: {detail}")
        if verdict is not None:
            self.verdicts += 1
            self.unknown += verdict == "unknown"
        self.latencies.append(seconds)


def run_untraced(cli, rounds, seconds: float, speed: Speed) -> Tally:
    """Whole rounds until ``seconds`` pass and MIN_JOBS jobs ran; repeated
    jobs must reproduce their first report byte for byte. Latencies are
    scaled by ``speed``."""
    tally = Tally()
    first: dict[tuple[int, int], str] = {}
    wall0 = time.perf_counter()
    k = 0
    while True:
        r = k % len(rounds)
        for j, job in enumerate(rounds[r]):
            code, text, err, cpu = run_job(cli, job)
            outcome = code, text, err, speed.scale(cpu)
            tally.add(f"round {k} job {j}", job, outcome)
            if first.setdefault((r, j), text) != text:
                tally.problems.append(f"round {k} job {j}: report differs from round {r}")
        k += 1
        wall = time.perf_counter() - wall0
        if wall >= MAX_WALL_S or (wall >= seconds and len(tally.latencies) >= MIN_JOBS):
            return tally


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    lat = tally.latencies
    n = len(lat)
    return {
        "setup_s": setup_s,
        "jobs_per_s": n / sum(lat),
        "job_s_p50": statistics.median(lat),
        "job_s_p90": statistics.quantiles(lat, n=10)[8] if n > 1 else lat[0],
        "ok_ratio": (n - tally.failed) / n,
        "decided_ratio": (tally.verdicts - tally.unknown) / tally.verdicts if tally.verdicts else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# -- traced run ------------------------------------------------------------------


def run_traced(cli, jobs: list[Job], speed: Speed, tally: Tally):
    """One pass over ``jobs`` with every traced function wrapped.
    Returns (tracer, reports, scaled seconds of the jobs)."""
    tracer = Tracer()
    tracer.install()
    reports = []
    total = 0.0
    try:
        for jid, job in enumerate(jobs):
            with tracer.job_span(jid):
                outcome = run_job(cli, job)
            tally.add(f"traced job {jid}", job, outcome)
            reports.append(outcome[1])
            total += speed.scale(outcome[3])
    finally:
        tracer.restore()
    return tracer, reports, total


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict[str, float]:
    self_s, calls = tracer.self_times()
    out: dict[str, float] = {}
    for module, names in TRACED.items():
        for name in names:
            out[f"{module}.{name}.calls"] = calls[f"{module}.{name}"]
            out[f"{module}.{name}.self_s"] = self_s[f"{module}.{name}"]
    c = tracer.counts
    for key in DERIVED_COUNTS:
        out[key] = c.get(key, 0)
    tuples = c.get("grass.sweep.tuples", 0)
    tested = c.get("degeneration.points_tested", 0)
    out["grass.sweep.useful_ratio"] = c.get("grass.sweep.points", 0) / tuples if tuples else 0.0
    out["degeneration.survivor_ratio"] = c.get("degeneration.survivors", 0) / tested if tested else 0.0
    out["trace.overhead_ratio"] = traced_s / untraced_s
    job_s = tracer.job_seconds()
    out["trace.layer_share"] = (job_s - self_s["job"]) / job_s
    return out


def deterministic_counts(tracer: Tracer) -> dict[str, int]:
    _, calls = tracer.self_times()
    counts = {f"{k}.calls": v for k, v in calls.items()}
    counts.update(tracer.counts)
    return counts


def trace_run(cli, jobs: list[Job], speed: Speed, spans_path: str, tally: Tally) -> dict[str, float]:
    """Runs ``jobs`` once untraced and twice traced; checks that reports
    and counters repeat and that self times add up; writes the first traced
    pass's spans to ``spans_path``."""
    plain = []
    untraced_s = 0.0
    for j, job in enumerate(jobs):
        outcome = run_job(cli, job)
        tally.add(f"job {j}", job, outcome)
        plain.append(outcome[1])
        untraced_s += speed.scale(outcome[3])
    first, reports, traced_s = run_traced(cli, jobs, speed, tally)
    second, again, _ = run_traced(cli, jobs, speed, tally)
    for j, (a, b, c) in enumerate(zip(plain, reports, again)):
        if not a == b == c:
            tally.problems.append(f"job {j}: traced report differs from the untraced one")
    one, two = deterministic_counts(first), deterministic_counts(second)
    for key in sorted(set(one) | set(two)):
        if one.get(key) != two.get(key):
            tally.problems.append(f"counter {key} differs: {one.get(key)} then {two.get(key)}")
    self_s, _ = first.self_times()
    job_s = first.job_seconds()
    if abs(sum(self_s.values()) - job_s) > 1e-6 * max(job_s, 1.0):
        tally.problems.append("self times do not add up to the traced job time")
    first.write(spans_path)
    return layer_metrics(first, untraced_s, traced_s)


# -- entry point -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, trace: bool):
    """(tally, metrics) for one workload."""
    cli, rounds, setup_s, speed = setup(workload, seed)
    tally = Tally()
    if trace:
        jobs = [job for rnd in rounds[: TRACE_ROUNDS[workload]] for job in rnd]
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.tsv.gz")
        metrics = trace_run(cli, jobs, speed, spans_path, tally)
        units = per_layer_units()
    else:
        tally = run_untraced(cli, rounds, seconds, speed)
        metrics = end_to_end(tally, setup_s)
        units = END_TO_END
    return tally, {k: {"value": metrics[k], "unit": u} for k, u in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "quivermoduli")):
        print(f"error: no quivermoduli sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every set-up compiles from source
    sys.path.insert(0, SRC)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    problems: list[str] = []
    metrics: dict[str, dict] = {}
    for workload in workloads:
        tally, found = measure(workload, args.seed, args.seconds, bool(args.trace))
        attempted += len(tally.latencies)
        failed += tally.failed
        problems += [f"{workload}: {p}" for p in tally.problems]
        if args.workload == "all":
            for name, m in found.items():
                print(f"{workload:12s} {name:40s} {m['value']:>14.6g} {m['unit']}")
            found = {f"{workload}.{k}": v for k, v in found.items()}
        metrics.update(found)
    for p in problems:
        print(p, file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
