"""Span tracing of quivermoduli's public functions, from outside the package.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``quivermoduli.*`` namespace (``degeneration.decompose_local`` and
``reps.decompose_local`` alike) with a wrapper that records a span; the
original objects come back with ``Tracer.restore``. Spans are kept in flat
arrays in memory and written out once, at the end of a run.

A span is (name, start, end, parent, job), timed in CPU seconds of the
process, like every time the benchmark reports. A layer's self time is its
span's duration minus the time covered by its direct children; each job
gets a root span named ``job``, so the self times of one job sum to its
traced duration.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from contextlib import contextmanager

# module -> public functions (``Class.method`` for methods) to trace.
TRACED = {
    "cli": ("run_command",),
    "dsl": ("parse_input", "doc_point"),
    "algebra": ("build_algebra",),
    "linalg": (
        "rref", "span_rref", "reduce_mod", "kernel_basis",
        "sparse_kernel_basis", "mat_mul", "mat_pow", "solve",
    ),
    "reps": (
        "hom_basis", "hom_dim", "sub_rep", "quotient_rep",
        "submodule_spans", "decompose_local", "is_isomorphic",
    ),
    "grass": (
        "skeleta_with_dims", "chart_equations", "coords_to_point",
        "coker_rep", "endo_space", "endo_invariant", "moduli_report",
    ),
    "degeneration": (
        "no_proper_topstable_deg", "one_param_limit", "hom_order_leq",
        "maximal_topdeg_candidates",
    ),
    "stability": ("classify_stability", "stable_factors"),
    "polys": ("Poly.eval", "poly_det"),
}

SPAN_NAMES = ("job",) + tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
PACKAGE = "quivermoduli"


def _resolve(module: str, qualname: str):
    """(owner object, attribute name) holding the original definition."""
    owner = sys.modules[f"{PACKAGE}.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and work counters while installed."""

    def __init__(self) -> None:
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._job = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.process_time())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.process_time()
        self._stack.pop()

    @contextmanager
    def job_span(self, job_id: int):
        """The root span of one job."""
        self._job = job_id
        i = self._open(0)
        try:
            yield
        finally:
            self._close(i)
            self._job = -1

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    # -- patching -----------------------------------------------------------

    def _wrap(self, name_id: int, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if observe is not None:
                observe(self, args, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced function in the loaded
        quivermoduli modules; a second install without ``restore`` is refused."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for name_id, span in enumerate(SPAN_NAMES[1:], start=1):
            module, qualname = span.split(".", 1)
            owner, attr = _resolve(module, qualname)
            original = getattr(owner, attr)
            wrapper = self._wrap(name_id, original, OBSERVERS.get(span))
            targets = [(owner, attr)]
            if "." not in qualname:
                targets = [
                    (ns, key) for ns in namespaces
                    for key, val in vars(ns).items() if val is original
                ]
            for target, key in targets:
                self._saved.append((target, key, original))
                setattr(target, key, wrapper)

    def restore(self) -> None:
        for target, key, original in reversed(self._saved):
            setattr(target, key, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (s) and number of spans."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for i in range(n):
            key = SPAN_NAMES[self.name[i]]
            self_s[key] += self.end[i] - self.start[i] - child[i]
            calls[key] += 1
        return self_s, calls

    def job_seconds(self) -> float:
        """Summed duration of the root ``job`` spans."""
        return sum(
            self.end[i] - self.start[i] for i in range(len(self.name)) if self.name[i] == 0
        )

    def write(self, path: str) -> None:
        """Spans as tab-separated text: name, start, end, parent, job."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.name)):
                out.write(
                    f"{SPAN_NAMES[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job[i]}\n"
                )


# -- work counters read from return values -------------------------------------


def _chart(tr: Tracer, args, pres) -> None:
    field = pres.cover.alg.field
    if field.is_finite:
        tr.count("grass.sweep.tuples", field.order ** len(pres.variables))


def _point(tr: Tracer, args, pt) -> None:
    if args[0].cover.alg.field.is_finite:
        tr.count("grass.sweep.points")


def _spans(tr: Tracer, args, spans) -> None:
    tr.count("reps.submodule_spans.found", len(spans))


def _decompose(tr: Tracer, args, pieces) -> None:
    from quivermoduli.errors import Unknown

    if pieces is Unknown:
        tr.count("reps.decompose_local.unknown")


def _verdict(tr: Tracer, args, verdict) -> None:
    from quivermoduli.errors import Unknown

    key = "unknown" if verdict.holds is Unknown else str(bool(verdict.holds)).lower()
    tr.count(f"degeneration.verdicts.{key}")
    if tr._stack and SPAN_NAMES[tr.name[tr._stack[-1]]] == (
        "degeneration.maximal_topdeg_candidates"
    ):
        tr.count("degeneration.points_tested")


def _survivors(tr: Tracer, args, found) -> None:
    tr.count("degeneration.survivors", len(found))


OBSERVERS = {
    "grass.chart_equations": _chart,
    "grass.coords_to_point": _point,
    "reps.submodule_spans": _spans,
    "reps.decompose_local": _decompose,
    "degeneration.no_proper_topstable_deg": _verdict,
    "degeneration.maximal_topdeg_candidates": _survivors,
}
