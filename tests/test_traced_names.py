"""The benchmark's tracer wraps package functions by name
(``perfbench/tracing.py::TRACED``). A rename, a removal or a changed
signature breaks the benchmark, so this test resolves every traced name in
the loaded package and compares its signature with the snapshot below.
Change the snapshot only together with the benchmark."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import quivermoduli.cli  # noqa: F401  (loads every traced module)
from quivermoduli.config import DEFAULT_LIMITS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SIGNATURES = {
    "cli.run_command": "(doc: 'InputDocument', command: 'str', flags: 'CliFlags') -> 'Report'",
    "dsl.parse_input": "(text: 'str') -> 'InputDocument'",
    "dsl.doc_point": "(P: 'ProjectiveCover', block: 'PointBlock') -> 'SubmodulePoint'",
    "algebra.build_algebra": (
        "(quiver: 'Quiver', relations: 'list[Element]', field: 'Field', "
        "max_len: 'int') -> 'Algebra'"
    ),
    "linalg.rref": "(field: 'Field', a: 'Matrix') -> 'tuple[Matrix, list[int]]'",
    "linalg.span_rref": "(field: 'Field', vectors: 'list[Vector]') -> 'list[Vector]'",
    "linalg.reduce_mod": (
        "(field: 'Field', rref_rows: 'list[Vector]', v: 'Vector') -> 'Vector'"
    ),
    "linalg.kernel_basis": (
        "(field: 'Field', a: 'Matrix', ncols: 'int | None' = None) -> 'list[Vector]'"
    ),
    "linalg.sparse_kernel_basis": (
        "(field: 'Field', rows: 'list[SparseRow]', ncols: 'int') -> 'list[Vector]'"
    ),
    "linalg.mat_mul": "(field: 'Field', a: 'Matrix', b: 'Matrix') -> 'Matrix'",
    "linalg.mat_pow": "(field: 'Field', a: 'Matrix', k: 'int') -> 'Matrix'",
    "linalg.solve": "(field: 'Field', a: 'Matrix', b: 'Vector') -> 'Vector | None'",
    "reps.hom_basis": "(M: 'Rep', N: 'Rep') -> 'list[dict[int, Matrix]]'",
    "reps.hom_dim": "(M: 'Rep', N: 'Rep') -> 'int'",
    "reps.sub_rep": "(M: 'Rep', space: 'list[Vector]') -> 'Rep'",
    "reps.quotient_rep": "(M: 'Rep', space: 'list[Vector]') -> 'Rep'",
    "reps.submodule_spans": (
        "(M: 'Rep', limits: 'SearchLimits' = DEFAULT_LIMITS) -> 'list[list[Vector]]'"
    ),
    "reps.decompose_local": (
        "(alg: 'Algebra', M: 'Rep', limits: 'SearchLimits' = DEFAULT_LIMITS, "
        "seed: 'int | None' = None)"
    ),
    "reps.is_isomorphic": (
        "(M: 'Rep', N: 'Rep', limits: 'SearchLimits' = DEFAULT_LIMITS, "
        "seed: 'int | None' = None)"
    ),
    "grass.skeleta_with_dims": (
        "(P: 'ProjectiveCover', d: 'tuple[int, ...]') -> 'list[Skeleton]'"
    ),
    "grass.chart_equations": (
        "(P: 'ProjectiveCover', sigma: 'Skeleton') -> 'ChartPresentation'"
    ),
    "grass.coords_to_point": "(pres: 'ChartPresentation', values) -> 'SubmodulePoint'",
    "grass.coker_rep": "(P: 'ProjectiveCover', C: 'SubmodulePoint') -> 'Rep'",
    "grass.endo_space": "(P: 'ProjectiveCover') -> 'EndoSpace'",
    "grass.endo_invariant": (
        "(P: 'ProjectiveCover', C: 'SubmodulePoint', endo: 'EndoSpace | None' = None)"
        " -> 'tuple[bool, tuple[int, int, PathWord] | None]'"
    ),
    "grass.moduli_report": (
        "(alg: 'Algebra', top: 'TopSpec | tuple[int, ...]', "
        "d: 'tuple[int, ...] | int', limits: 'SearchLimits' = DEFAULT_LIMITS)"
        " -> 'ModuliVerdict'"
    ),
    "degeneration.no_proper_topstable_deg": (
        "(alg: 'Algebra', P: 'ProjectiveCover', C: 'SubmodulePoint', "
        "limits: 'SearchLimits' = DEFAULT_LIMITS, seed: 'int | None' = None)"
        " -> 'DegenerationVerdict'"
    ),
    "degeneration.one_param_limit": (
        "(P: 'ProjectiveCover', C: 'SubmodulePoint', coeffs: 'list[Scalar]', "
        "endo: 'EndoSpace | None' = None) -> 'SubmodulePoint'"
    ),
    "degeneration.hom_order_leq": (
        "(M: 'Rep', N: 'Rep', tests: 'list[Rep] | None' = None) -> 'bool'"
    ),
    "degeneration.maximal_topdeg_candidates": (
        "(alg: 'Algebra', P: 'ProjectiveCover', d: 'tuple[int, ...]', "
        "M: 'Rep | None' = None, candidates: 'list[SubmodulePoint] | None' = None, "
        "base: 'SubmodulePoint | None' = None, "
        "limits: 'SearchLimits' = DEFAULT_LIMITS) -> 'list[MaxDegCandidate]'"
    ),
    "stability.classify_stability": (
        "(M: 'Rep', theta: 'Weight', limits: 'SearchLimits' = DEFAULT_LIMITS)"
        " -> 'StabilityClass'"
    ),
    "stability.stable_factors": (
        "(M: 'Rep', theta: 'Weight', limits: 'SearchLimits' = DEFAULT_LIMITS)"
        " -> 'list[Rep]'"
    ),
    "polys.Poly.eval": "(self, point: 'list[Scalar]') -> 'Scalar'",
    "polys.poly_det": "(a: 'list[list[Poly]]') -> 'Poly'",
}


def _traced() -> dict[str, tuple[str, ...]]:
    """TRACED as the benchmark defines it, read from its own file."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _resolve(module: str, qualname: str):
    obj = importlib.import_module(f"quivermoduli.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_resolves_with_its_snapshot_signature():
    names = [(m, q) for m, qs in _traced().items() for q in qs]
    assert sorted(f"{m}.{q}" for m, q in names) == sorted(SIGNATURES)
    for module, qualname in names:
        fn = _resolve(module, qualname)
        assert callable(fn), f"{module}.{qualname}"
        found = str(inspect.signature(fn)).replace(repr(DEFAULT_LIMITS), "DEFAULT_LIMITS")
        assert found == SIGNATURES[f"{module}.{qualname}"], f"{module}.{qualname}"
