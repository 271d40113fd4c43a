"""Frozen command-line output: every command on every sample document.

Each case runs ``quivermoduli.cli.main`` in-process and compares stdout,
stderr and the exit code byte for byte with the files under
``tests/golden/``. A change that alters any report on purpose rewrites the
files with

    PYTHONPATH=src python tests/test_golden_cli.py

and the diff of ``tests/golden/`` then shows exactly what changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from quivermoduli.cli import COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "scripts" / "inputs"
GOLDEN = Path(__file__).resolve().parent / "golden"
DOCUMENTS = ("fork_merge.qm", "kronecker_stability.qm", "loop_bridge.qm", "mixed_tops.qm")


def _cases() -> dict[str, list[str]]:
    """Golden file stem -> argv, with paths relative to the repository root."""
    cases = {}
    for doc in DOCUMENTS:
        for command in COMMANDS:
            argv = [command, f"scripts/inputs/{doc}"]
            stem = f"{doc[:-3]}.{command}"
            cases[stem] = argv
            cases[f"{stem}.json"] = argv + ["--json"]
    candidates = ["--candidates", "scripts/inputs/mixed_tops_candidates.qm"]
    argv = ["maxdeg-test", "scripts/inputs/mixed_tops.qm"] + candidates
    cases["mixed_tops.maxdeg-test.candidates"] = argv
    cases["mixed_tops.maxdeg-test.candidates.json"] = argv + ["--json"]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> str:
    """exit code, stdout and stderr of one in-process run, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


@pytest.mark.parametrize("stem", sorted(CASES))
def test_cli_output_matches_golden(stem, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{stem}.txt").read_text(encoding="utf-8")
    assert _run(CASES[stem]) == expected


def test_golden_set_is_complete():
    on_disk = {p.name[: -len(".txt")] for p in GOLDEN.glob("*.txt")}
    assert on_disk == set(CASES)


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in sorted(CASES.items()):
        (GOLDEN / f"{stem}.txt").write_text(_run(argv), encoding="utf-8")
    json.dump(sorted(CASES), sys.stdout)
    print()
