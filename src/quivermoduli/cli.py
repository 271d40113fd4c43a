"""Command line front end: parse one input document, run one command, and
emit a deterministic report.

Reports exist in two renderings of the same numbers: a human text form
(default) and a JSON document (--json) whose matrices are row-major lists
of exact scalars formatted as "p/q". Exit codes: 0 on success, 1 on domain
errors (the mathematics refused), 2 on input errors (the document did not
parse or did not type-check).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace

from . import __version__
from .config import DEFAULT_LIMITS
from .degeneration import (
    maximal_topdeg_candidates,
    no_proper_topstable_deg,
    one_param_limit,
)
from .dsl import (
    InputDocument,
    doc_algebra,
    doc_direction,
    doc_module,
    doc_point,
    doc_skeleton,
    need,
    parse_input,
    parse_points,
)
from .errors import DocumentError, DomainError, IdealNotGraded, TypeMismatch
from .fields import Field, parse_field_name
from .grass import (
    ProjectiveCover,
    chart_equations,
    coker_rep,
    describe_endo,
    endo_invariant,
    enumerate_skeleta,
    is_homogeneous_point,
    moduli_report,
    orbit_dims,
    projective_cover,
    skeleta_of_point,
    skeleta_with_dims,
)
from .reps import radical_layering
from .stability import Weight, classify_stability, stable_factors, theta_of

@dataclass(frozen=True)
class CliFlags:
    field: str | None = None
    seed: int | None = None
    max_sweep: int | None = None
    candidates_text: str | None = None


@dataclass(frozen=True)
class Report:
    command: str
    seed: int
    result: dict
    certificates: dict
    human: str

    def to_dict(self) -> dict:
        return {
            "tool": "quivermoduli",
            "version": __version__,
            "command": self.command,
            "seed": self.seed,
            "result": self.result,
            "certificates": self.certificates,
        }


# -- shared renderers ----------------------------------------------------------


def _fmt_rows(f: Field, rows) -> list[list[str]]:
    return [[f.format(x) for x in row] for row in rows]


def _fmt_layering(layering) -> list[list[int]]:
    return [list(row) for row in layering]


def _tup(t) -> str:
    return "(" + ", ".join(str(x) for x in t) + ")"


def _skel_names(P: ProjectiveCover, sk) -> list[str]:
    return [P.describe(b) for b in sk.elems]


def _skel_str(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


def _yesno(b: bool) -> str:
    return "yes" if b else "no"


def _n(count: int, noun: str) -> str:
    return f"{count} {noun}" if count == 1 else f"{count} {noun}s"


# -- document access -----------------------------------------------------------


def _cover(doc: InputDocument, alg) -> ProjectiveCover:
    return projective_cover(alg, tuple(need(doc.top, "top")))


def _base_point(doc: InputDocument, P: ProjectiveCover):
    return doc_point(P, need(doc.points or None, "point")[0])


def _weight(doc: InputDocument) -> Weight:
    return Weight(need(doc.weight, "weight"))


# -- commands -------------------------------------------------------------------


def _cmd_algebra_info(doc, alg, flags, limits):
    projectives = []
    for v in alg.quiver.vertices:
        layers = alg.projective_layer_dims(v)
        projectives.append(
            {
                "vertex": v,
                "dims": [sum(col) for col in zip(*layers)],
                "layering": _fmt_layering(layers),
            }
        )
    result = {
        "field": str(alg.field),
        "dim": alg.dim,
        "loewy_length": alg.loewy,
        "nakayama": alg.is_nakayama(),
        "graded_ideal": alg.is_homogeneous_ideal(),
        "vertices": list(alg.quiver.vertices),
        "arrows": [
            {"label": a.label, "start": a.start, "end": a.end}
            for a in alg.quiver.arrows
        ],
        "projectives": projectives,
    }
    lines = [
        f"algebra over {result['field']}: dim {result['dim']}, "
        f"Loewy length {result['loewy_length']}",
        f"nakayama: {_yesno(result['nakayama'])}, "
        f"graded ideal: {_yesno(result['graded_ideal'])}",
    ]
    for p in projectives:
        rows = " | ".join(_tup(r) for r in p["layering"])
        lines.append(f"Lambda*e{p['vertex']}: dims {_tup(p['dims'])}, layering {rows}")
    return result, {}, lines


def _cmd_skeleta(doc, alg, flags, limits):
    P = _cover(doc, alg)
    if doc.layering is not None:
        sks = enumerate_skeleta(P, doc.layering)
        constraint = "layering " + " | ".join(_tup(r) for r in doc.layering)
    elif doc.d is not None:
        sks = skeleta_with_dims(P, doc.d)
        constraint = f"d = {_tup(doc.d)}"
    else:
        raise TypeMismatch("the skeleta command needs a dimvec or layering block")
    entries = [
        {
            "elems": _skel_names(P, sk),
            "dims": list(sk.dims),
            "layering": _fmt_layering(sk.layering),
        }
        for sk in sks
    ]
    result = {"top": list(doc.top), "count": len(sks), "skeleta": entries}
    word = "skeleton" if len(sks) == 1 else "skeleta"
    lines = [f"{len(sks)} {word} for top {_tup(doc.top)}, {constraint}"]
    for e in entries:
        lines.append(f"  {_skel_str(e['elems'])}  dims {_tup(e['dims'])}")
    return result, {}, lines


def _cmd_chart(doc, alg, flags, limits):
    P = _cover(doc, alg)
    sigma = doc_skeleton(P, doc)
    pres = chart_equations(P, sigma)
    variables = [
        {
            "name": pres.ring.names[k],
            "arrow": lbl,
            "from": P.describe(b),
            "to": P.describe(b2),
        }
        for k, (lbl, b, b2) in enumerate(pres.variables)
    ]
    equations = [p.format() for p in pres.equations]
    result = {
        "skeleton": _skel_names(P, sigma),
        "dims": list(pres.dims),
        "variables": variables,
        "equations": equations,
    }
    lines = [
        f"chart of {_skel_str(result['skeleton'])}: dims {_tup(result['dims'])}, "
        f"{_n(len(variables), 'variable')}, {_n(len(equations), 'equation')}"
    ]
    for v in variables:
        lines.append(
            f"  {v['name']}: coefficient of {v['to']} in {v['arrow']}*{v['from']}"
        )
    for eq in equations:
        lines.append(f"  0 = {eq}")
    return result, {}, lines


def _cmd_point(doc, alg, flags, limits):
    P = _cover(doc, alg)
    pt = _base_point(doc, P)
    M = coker_rep(P, pt)
    try:
        homog = is_homogeneous_point(P, pt)
    except IdealNotGraded:
        homog = None
    S = radical_layering(alg, M)
    charts = [_skel_names(P, sk) for sk in skeleta_of_point(P, pt, S)]
    f = alg.field
    result = {
        "dim": pt.dim,
        "quotient_dims": list(pt.dims),
        "rows": _fmt_rows(f, pt.rows),
        "quotient_layering": _fmt_layering(S),
        "homogeneous": homog,
        "charts": charts,
    }
    lines = [f"point of dim {pt.dim}, quotient dims {_tup(pt.dims)}"]
    for row in result["rows"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append(
        "quotient layering: "
        + " | ".join(_tup(r) for r in result["quotient_layering"])
    )
    if homog is not None:
        lines.append(f"homogeneous: {_yesno(homog)}")
    lines.append(
        "charts: " + (", ".join(_skel_str(c) for c in charts) if charts else "none")
    )
    return result, {}, lines


def _cmd_orbit(doc, alg, flags, limits):
    P = _cover(doc, alg)
    pt = _base_point(doc, P)
    od = orbit_dims(P, pt)
    invariant, witness = endo_invariant(P, pt)
    moved_by = None if witness is None else describe_endo(witness)
    result = {
        "aut": od.aut,
        "unipotent": od.unipotent,
        "graded": od.graded,
        "invariant": invariant,
        "moved_by": moved_by,
    }
    lines = [
        f"orbit dimensions: aut {od.aut}, unipotent {od.unipotent}, "
        f"graded {od.graded}"
    ]
    if invariant:
        lines.append("invariant under End(P): yes")
    else:
        lines.append(f"invariant under End(P): no (moved by {moved_by})")
    return result, {"moved_by": moved_by} if moved_by else {}, lines


def _cmd_stability(doc, alg, flags, limits):
    M = doc_module(doc, alg)
    theta = _weight(doc)
    t = theta_of(theta, M.d)
    verdict = classify_stability(M, theta, limits)
    result = {
        "d": list(M.d),
        "theta": list(theta.theta),
        "theta_of_d": t,
        "verdict": str(verdict),
    }
    lines = [
        f"theta = {theta}, d = {_tup(M.d)}, theta(d) = {t}",
        f"verdict: {verdict}",
    ]
    return result, {}, lines


def _cmd_stable_factors(doc, alg, flags, limits):
    M = doc_module(doc, alg)
    theta = _weight(doc)
    factors = stable_factors(M, theta, limits)
    f = alg.field
    entries = [
        {
            "d": list(g.d),
            "matrices": {lbl: _fmt_rows(f, m) for lbl, m in g.mats.items()},
        }
        for g in factors
    ]
    result = {"count": len(factors), "factors": entries}
    lines = [f"{_n(len(factors), 'stable factor')} for theta = {theta}"]
    for k, e in enumerate(entries):
        lines.append(f"  factor {k + 1}: d = {_tup(e['d'])}")
    return result, {}, lines


def _verdict_dict(verdict) -> dict:
    return {
        "holds": verdict.holds,
        "reason": verdict.reason,
        "hom_dims": list(verdict.hom_dims) if verdict.hom_dims else None,
        "kernel_dims": [
            {"vertex": v, "kernel_dims": list(ks)} for v, ks in verdict.kernel_dims
        ],
    }


def _cmd_maxdeg_test(doc, alg, flags, limits):
    P = _cover(doc, alg)
    f = alg.field
    base = doc_point(P, doc.points[0]) if doc.points else None
    result: dict = {}
    certificates: dict = {}
    lines: list[str] = []

    if base is not None:
        verdict = no_proper_topstable_deg(alg, P, base, limits)
        result["point"] = _verdict_dict(verdict)
        lines.append(f"point verdict: no proper top-stable degeneration = "
                     f"{_yesno(verdict.holds)}")
        lines.append(f"reason: {verdict.reason}")
        if verdict.hom_dims is not None:
            hp, hm = verdict.hom_dims
            lines.append(f"hom dims into the radical: cover {hp}, module {hm}")

    candidates = None
    if flags.candidates_text is not None or len(doc.points) > 1:
        blocks = list(doc.points[1:])
        if flags.candidates_text is not None:
            blocks.extend(parse_points(flags.candidates_text, doc))
        candidates = [doc_point(P, b) for b in blocks]

    if candidates is not None or doc.d is not None:
        d = tuple(doc.d) if doc.d is not None else (base.dims if base else P.dims)
        M = coker_rep(P, base) if base is not None else None
        found = maximal_topdeg_candidates(
            alg, P, d, M=M, candidates=candidates, base=base, limits=limits
        )
        survivors = [
            {
                "rows": _fmt_rows(f, c.point.rows),
                "quotient_dims": list(c.point.dims),
                "reason": c.verdict.reason,
                "witness": c.witness,
            }
            for c in found
        ]
        result["survivors"] = survivors
        result["exhaustive_sweep"] = candidates is None
        certificates["survivors"] = [
            {"rows": s["rows"], "witness": s["witness"]} for s in survivors
        ]
        scope = "exhaustive sweep" if candidates is None else (
            f"{len(candidates)} supplied candidates"
        )
        lines.append(f"{_n(len(survivors), 'maximal point')} ({scope})")
        for s in survivors:
            lines.append("  point with rows:")
            for row in s["rows"]:
                lines.append("    [" + ", ".join(row) + "]")
            if s["witness"]:
                lines.append(f"    witness: {s['witness']}")

    if base is None and candidates is None and doc.d is None:
        raise TypeMismatch(
            "the maxdeg-test command needs a point block, a dimvec block, "
            "or a candidate list"
        )
    return result, certificates, lines


def _cmd_limit(doc, alg, flags, limits):
    P = _cover(doc, alg)
    base = _base_point(doc, P)
    endo = P.endo
    coeffs = doc_direction(P, endo, doc)
    f = alg.field
    direction = [
        f"{f.format(c)} * ({endo.describe(j)})"
        for j, c in enumerate(coeffs)
        if not f.is_zero(c)
    ]
    lim = one_param_limit(P, base, coeffs, endo)
    again = one_param_limit(P, lim, coeffs, endo)
    result = {
        "direction": direction,
        "start_rows": _fmt_rows(f, base.rows),
        "limit_rows": _fmt_rows(f, lim.rows),
        "quotient_dims": list(lim.dims),
        "moved": lim.rows != base.rows,
        "idempotent": again.rows == lim.rows,
    }
    lines = ["direction: " + (" + ".join(direction) if direction else "0")]
    lines.append("limit rows:")
    for row in result["limit_rows"]:
        lines.append("  [" + ", ".join(row) + "]")
    lines.append(f"quotient dims: {_tup(lim.dims)}")
    lines.append(
        f"moved: {_yesno(result['moved'])}, idempotent: "
        f"{_yesno(result['idempotent'])}"
    )
    return result, {}, lines


def _cmd_moduli_report(doc, alg, flags, limits):
    top, d = tuple(need(doc.top, "top")), tuple(need(doc.d, "dimvec"))
    rep = moduli_report(alg, top, d, limits)
    f = alg.field
    witness_rows = None if rep.witness is None else _fmt_rows(f, rep.witness.rows)
    witness_endo = None if rep.witness_endo is None else describe_endo(rep.witness_endo)
    result = {
        "top": list(doc.top),
        "d": list(doc.d),
        "kind": rep.kind,
        "reason": rep.reason,
        "exhaustive": rep.exhaustive,
        "witness_rows": witness_rows,
        "witness_endo": witness_endo,
    }
    certificates = {}
    if witness_rows is not None:
        certificates["witness_rows"] = witness_rows
        certificates["witness_endo"] = witness_endo
    lines = [
        f"verdict: {rep.kind} (exhaustive: {_yesno(rep.exhaustive)})",
        f"reason: {rep.reason}",
    ]
    if witness_rows is not None:
        lines.append("witness rows:")
        for row in witness_rows:
            lines.append("  [" + ", ".join(row) + "]")
        lines.append(f"witness endo: {witness_endo}")
    return result, certificates, lines


# name -> (handler, help), in the order the subcommands are listed
_TABLE = {
    "algebra-info": (_cmd_algebra_info, "dimensions and structure of the algebra"),
    "skeleta": (_cmd_skeleta, "enumerate skeleta for a top and dimension or layering"),
    "chart": (_cmd_chart, "variables and equations of one skeleton's chart"),
    "point": (_cmd_point, "normalize a submodule point and describe its quotient"),
    "orbit": (_cmd_orbit, "orbit dimensions and invariance of a point"),
    "stability": (_cmd_stability, "classify a module against a weight"),
    "stable-factors": (_cmd_stable_factors, "split a semistable module into stable factors"),
    "maxdeg-test": (_cmd_maxdeg_test, "test points for proper top-stable degenerations"),
    "limit": (_cmd_limit, "one-parameter limit of a point along a direction"),
    "moduli-report": (_cmd_moduli_report, "fine-moduli verdict for a top and dimension vector"),
}
COMMANDS = tuple(_TABLE)


def run_command(doc: InputDocument, command: str, flags: CliFlags) -> Report:
    if command not in _TABLE:
        raise ValueError(f"unknown command {command!r}")
    given = {"seed": flags.seed, "sweep": flags.max_sweep}
    limits = replace(DEFAULT_LIMITS, **{k: v for k, v in given.items() if v is not None})
    alg = doc_algebra(doc, parse_field_name(flags.field) if flags.field else None)
    result, certificates, lines = _TABLE[command][0](doc, alg, flags, limits)
    return Report(
        command=command,
        seed=limits.seed,
        result=result,
        certificates=certificates,
        human="\n".join(lines),
    )


# -- entry point -----------------------------------------------------------------


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input document path, or - for stdin")
    common.add_argument("--field", help="override the document's base field (Q, F2, ...)")
    common.add_argument("--seed", type=int, help="seed for randomized searches")
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    common.add_argument(
        "--max-sweep", type=int, help="budget for finite-field chart sweeps"
    )
    parser = argparse.ArgumentParser(
        prog="quivermoduli",
        description="exact computations with modules over bound path algebras",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _TABLE.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if name == "maxdeg-test":
            p.add_argument(
                "--candidates", help="file of extra point blocks to test"
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = _read_text(args.input)
        candidates_text = None
        if getattr(args, "candidates", None):
            candidates_text = _read_text(args.candidates)
        flags = CliFlags(
            field=args.field,
            seed=args.seed,
            max_sweep=args.max_sweep,
            candidates_text=candidates_text,
        )
        doc = parse_input(text)
        report = run_command(doc, args.command, flags)
    except (SyntaxError, DocumentError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DomainError, ValueError, ZeroDivisionError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.human)
    return 0


if __name__ == "__main__":
    sys.exit(main())
