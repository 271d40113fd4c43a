"""Self-tests of the benchmark: generators, tracing, metric names, and one
command that runs every workload. Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, make_rounds

from conftest import BENCH, ROOT


def _docs(workload, seed, count=2):
    return [(job.command, job.doc) for rnd in make_rounds(workload, seed, count) for job in rnd]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_documents_and_other_seed_other_documents(workload):
    assert _docs(workload, 7) == _docs(workload, 7)
    assert _docs(workload, 7) != _docs(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_documents_parse(workload):
    cli = run.load_program()
    dsl = sys.modules["quivermoduli.dsl"]
    for rnd in make_rounds(workload, 3, 1):
        for job in rnd:
            dsl.parse_input(job.doc)
            assert job.command in cli.COMMANDS


def _bindings():
    """Every (namespace, name) in quivermoduli whose value is a traced object."""
    originals = {}
    for span in tracing.SPAN_NAMES[1:]:
        module, qualname = span.split(".", 1)
        owner, attr = tracing._resolve(module, qualname)
        originals[id(getattr(owner, attr))] = span
    found = {}
    for name, ns in list(sys.modules.items()):
        if name == "quivermoduli" or name.startswith("quivermoduli."):
            for key, val in vars(ns).items():
                if id(val) in originals:
                    found[(name, key)] = val
    poly = sys.modules["quivermoduli.polys"].Poly
    found[("quivermoduli.polys.Poly", "eval")] = poly.eval
    return found


def _lookup(where, key):
    if where == "quivermoduli.polys.Poly":
        return sys.modules["quivermoduli.polys"].Poly.eval
    return getattr(sys.modules[where], key)


def test_wrappers_patch_and_restore_every_binding():
    run.load_program()
    before = _bindings()
    # the re-exports that matter: a function bound in more than one namespace
    assert ("quivermoduli.degeneration", "decompose_local") in before
    assert ("quivermoduli.cli", "no_proper_topstable_deg") in before
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (where, key), original in before.items():
            wrapped = _lookup(where, key)
            assert wrapped is not original, (where, key)
            assert wrapped.__wrapped__ is original, (where, key)
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    for (where, key), original in before.items():
        assert _lookup(where, key) is original, (where, key)


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json():
    bench = _bench()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_traced_run_reports_every_layer_metric_and_repeats_its_counters(tmp_path):
    cli = run.load_program()
    jobs = [job for rnd in make_rounds("sweep-fq", 1, 1) for job in rnd if "loop_bridge" in job.family]
    jobs += [job for rnd in make_rounds("lattice-fq", 1, 1) for job in rnd if job.family == "star3/F3"]
    tally = run.Tally()
    metrics = run.trace_run(cli, jobs, run.Speed(), str(tmp_path / "spans.tsv.gz"), tally)
    assert tally.problems == []
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["reps.submodule_spans.found"] > 0
    assert metrics["grass.sweep.points"] > 0
    assert 0 < metrics["trace.layer_share"] <= 1
    assert (tmp_path / "spans.tsv.gz").stat().st_size > 0
    # the package is left untraced
    assert not hasattr(sys.modules["quivermoduli.reps"].submodule_spans, "__wrapped__")


def test_failed_check_is_counted():
    cli = run.load_program()
    job = make_rounds("lattice-fq", 1, 1)[0][0]
    wrong = run.Job(job.command, job.doc, job.family, (("verdict", "Unstable"),))
    tally = run.Tally()
    tally.add("job 0", wrong, run.run_job(cli, wrong))
    assert tally.failed == 1 and len(tally.problems) == 1


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_one_command_prints_every_end_to_end_metric_per_workload():
    proc = _run("--workload", "all", "--seed", "2", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    *table, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    for workload in WORKLOADS:
        for name, unit in run.END_TO_END.items():
            m = result["metrics"][f"{workload}.{name}"]
            assert m["unit"] == unit and m["value"] > 0
            assert any(line.split()[:2] == [workload, name] and line.split()[-1] == unit for line in table)


def test_without_sources_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py", "workloads.py"):
        (bench / name).write_text(open(os.path.join(BENCH, name)).read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "degen-q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
