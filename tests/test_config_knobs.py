"""Every SearchLimits field is read somewhere in the package: a knob whose
last reader is deleted goes with it."""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

from quivermoduli.config import SearchLimits

SRC = Path(__file__).resolve().parent.parent / "src" / "quivermoduli"


def _attributes_read(paths) -> set[str]:
    """Every name read as an attribute, x.name, in the given modules."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
    }


def test_the_scan_finds_attribute_reads(tmp_path):
    (tmp_path / "m.py").write_text("def f(limits):\n    return limits.chart_sweep + g(limits).seed\n")
    assert _attributes_read([tmp_path / "m.py"]) >= {"chart_sweep", "seed"}


def test_every_search_limit_has_a_reader_outside_config():
    readers = _attributes_read(p for p in SRC.glob("*.py") if p.name != "config.py")
    unread = [f.name for f in dataclasses.fields(SearchLimits) if f.name not in readers]
    assert unread == []
