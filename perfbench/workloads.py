"""Seeded job generators for the three benchmark workloads.

A job is one CLI command on one generated ``.qm`` document, plus the
properties its JSON report must have by construction. Jobs come in rounds:
one round visits every input family of the workload once, so any whole
number of rounds has the same mix of job kinds whatever the seed. The seed
draws coefficients, base changes, label names and order; it never draws
the size of the work.

- ``degen-q``: top-stable degenerations over Q. Per point, the session
  ``point``, ``orbit``, ``limit``, then ``maxdeg-test`` on the point.
- ``sweep-fq``: exhaustive stratum sweeps over F2/F3 (``maxdeg-test`` with
  a dimvec block, ``moduli-report``).
- ``lattice-fq``: theta-stability and stable factors over F2/F3, computed
  from submodule lattices.

Known defect, kept out of sweep-fq on purpose: an over-budget stratum is
refused with ``SearchTooLarge`` only after the earlier charts have been
swept (the mixed_tops algebra with top (2,0) and d (4,2) over F2 ran 135 s
before refusing). sweep-fq measures normal use, so its strata fit the
sweep budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("degen-q", "sweep-fq", "lattice-fq")


@dataclass(frozen=True)
class Job:
    """One CLI command on one document.

    ``checks`` are (name, value) pairs the report must satisfy; run.py
    interprets them. ``family`` names the input family, for reporting."""

    command: str
    doc: str
    family: str
    checks: tuple[tuple[str, object], ...] = ()


# -- document text -------------------------------------------------------------


@dataclass(frozen=True)
class Algebra:
    """Quiver and algebra blocks of a document, with renameable arrow labels.

    ``arrows`` holds (label, start, end) in declaration order; relations
    use the canonical labels and are renamed with the arrows when
    ``header`` gets ``names``."""

    name: str
    vertices: int
    arrows: tuple[tuple[str, int, int], ...]
    max_len: int
    relations: tuple[str, ...] = ()

    def header(self, field: str, names: dict[str, str] | None = None) -> str:
        names = names or {}
        arrows = ", ".join(f"{names.get(l, l)}: {s} -> {e}" for l, s, e in self.arrows)
        out = [
            "quiver {",
            "  vertices: " + " ".join(str(v) for v in range(1, self.vertices + 1)) + ";",
            f"  arrows: {arrows};",
            "}",
            "algebra {",
            f"  field: {field};",
            f"  max_len: {self.max_len};",
        ]
        if self.relations:
            rels = ", ".join("1*" + rename(r, names) for r in self.relations)
            out.append(f"  relations: [{rels}];")
        out.append("}")
        return "\n".join(out) + "\n"


def rename(path: str, names: dict[str, str]) -> str:
    return "*".join(names.get(l, l) for l in path.split("*"))


def lincomb(terms: list[tuple[int, str]]) -> str:
    """Render [(coeff, path), ...] as DSL text; zero coefficients dropped."""
    parts = []
    for c, p in terms:
        if c == 0:
            continue
        if not parts:
            parts.append(f"{c}*{p}")
        else:
            parts.append(f" - {-c}*{p}" if c < 0 else f" + {c}*{p}")
    return "".join(parts)


def point_block(gens: list[tuple[list[tuple[int, str]], int]]) -> str:
    """point block from [(lincomb terms, copy), ...], one part per generator."""
    body = ", ".join(f"({lincomb(t)}).z{r}" for t, r in gens)
    return f"point {{ generators: [{body}]; }}\n"


def tup(t) -> str:
    return "(" + ", ".join(str(x) for x in t) + ")"


def matrix(rows) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in r) + "]" for r in rows) + "]"


KRONECKER = Algebra("kronecker", 2, (("a1", 1, 2), ("a2", 1, 2)), 2)
KRONECKER3 = Algebra("kronecker3", 2, (("a1", 1, 2), ("a2", 1, 2), ("a3", 1, 2)), 2)
STAR3 = Algebra("star3", 3, (("a1", 1, 2), ("a2", 1, 2), ("b", 1, 3)), 2)
LOOP_BRIDGE = Algebra("loop_bridge", 2, (("a", 1, 1), ("b", 1, 2)), 3, ("a*a",))
TWO_LOOP = Algebra(
    "two_loop_two_arrow",
    2,
    (("w1", 1, 1), ("w2", 1, 1), ("a", 1, 2), ("b", 1, 2)),
    3,
    ("w1*w1", "w2*w2", "w1*w2", "w2*w1", "b*w1", "a*w2"),
)
MIXED_TOPS = Algebra(
    "mixed_tops",
    2,
    tuple((f"w{i}", 1, 1) for i in range(1, 5)) + (("a", 1, 2), ("b", 1, 2)),
    3,
    tuple(f"w{i}*w{j}" for i in range(1, 5) for j in range(1, 5))
    + ("a*w3", "a*w4", "b*w1", "b*w2"),
)


def nonzero(rng: random.Random, span: int = 3) -> int:
    c = rng.randint(1, span)
    return c if rng.random() < 0.5 else -c


# -- degen-q -------------------------------------------------------------------


def _degen_session(alg: Algebra, top, gens, direction, family, checks_point=()):
    """The four jobs of one point: point, orbit, limit, maxdeg-test."""
    head = alg.header("Q") + f"top {{ mult: {tup(top)}; }}\n"
    pt = point_block(gens)
    dirn = "direction { " + "; ".join(
        f"z{r}: ({lincomb(t)}).z{s}" for r, t, s in direction
    ) + "; }\n"
    return [
        Job("point", head + pt, family),
        Job("orbit", head + pt, family),
        Job("limit", head + pt + dirn, family, (("limit_idempotent", True),)),
        Job("maxdeg-test", head + pt, family, tuple(checks_point)),
    ]


def _mixed_tops_session(rng: random.Random, mixing: bool) -> list[Job]:
    """A point of one of the two displayed families on the cover P1 + P1.

    Mixing points (p*a + q*b) z2 degenerate (verdict False); the limit
    family (c1*a*w1 + c2*b*w4) z2 has closed orbits (verdict True)."""
    al, be = nonzero(rng), nonzero(rng)
    fixed = [([(1, "a*w1"), (al, "a*w2")], 2), ([(1, "b*w3"), (be, "b*w4")], 2)]
    if mixing:
        gens = [([(nonzero(rng), "a"), (nonzero(rng), "b")], 2)] + fixed
        family, holds = "mixed_tops/mixing", False
    else:
        gens = fixed + [([(nonzero(rng), "a*w1"), (nonzero(rng), "b*w4")], 2)]
        family, holds = "mixed_tops/limit-family", True
    loops = rng.sample(["w1", "w2", "w3", "w4"], 2)
    direction = [(2, [(nonzero(rng), w) for w in sorted(loops)], 2)]
    return _degen_session(
        MIXED_TOPS, (2, 0), gens, direction, family, (("holds", holds),)
    )


def _loop_bridge_session(rng: random.Random) -> list[Job]:
    """A radical point of the cyclic cover P1: span(x*b + y*b*a) or
    span(a); the direction is a multiple of z1 -> a*z1."""
    shape = rng.randrange(3)
    if shape == 0:
        gens = [([(nonzero(rng), "b"), (rng.randint(-3, 3), "b*a")], 1)]
    elif shape == 1:
        gens = [([(nonzero(rng), "b*a")], 1)]
    else:
        gens = [([(nonzero(rng), "a")], 1)]
    direction = [(1, [(nonzero(rng), "a")], 1)]
    return _degen_session(LOOP_BRIDGE, (1, 0), gens, direction, "loop_bridge")


def _two_loop_session(rng: random.Random) -> list[Job]:
    """A point of the cover P1 + P1 of the two_loop_two_arrow algebra,
    generated by random radical combinations on both copies."""
    gens = [
        ([(nonzero(rng), "a"), (nonzero(rng), "b")], 1),
        ([(nonzero(rng), "a*w1"), (nonzero(rng), "b*w2")], 2),
        ([(nonzero(rng), "w1"), (rng.randint(-3, 3), "w2")], 2),
    ]
    loops = rng.sample(["w1", "w2"], rng.randint(1, 2))
    direction = [(rng.randint(1, 2), [(nonzero(rng), w) for w in sorted(loops)], rng.randint(1, 2))]
    return _degen_session(TWO_LOOP, (2, 0), gens, direction, "two_loop_two_arrow")


def degen_round(rng: random.Random) -> list[Job]:
    """Two sessions per mixed_tops family, one two_loop_two_arrow session
    and one loop_bridge session: 24 jobs. With this mix the median job falls
    inside the orbit/point band and p90 inside the mixed_tops maxdeg-test
    band (4 jobs of 24), not at a gap between bands."""
    jobs = [job for m in (True, True, False, False) for job in _mixed_tops_session(rng, m)]
    return jobs + _two_loop_session(rng) + _loop_bridge_session(rng)


# -- sweep-fq ------------------------------------------------------------------

# (algebra, top, d, field, commands): every chart of each stratum fits the
# default sweep budget. 25 jobs per round, costs spread from 4 ms to 3 s, so
# the median and p90 jobs fall inside a stratum's band, not at a gap.
SWEEP_STRATA = (
    (MIXED_TOPS, (1, 0), (3, 2), "F2", ("maxdeg-test", "moduli-report")),
    (MIXED_TOPS, (1, 1), (2, 2), "F2", ("maxdeg-test", "moduli-report")),
    (MIXED_TOPS, (1, 0), (2, 2), "F2", ("maxdeg-test", "moduli-report")),
    (KRONECKER, (2, 0), (2, 2), "F3", ("maxdeg-test", "moduli-report")),
    (KRONECKER, (2, 0), (2, 3), "F2", ("maxdeg-test", "moduli-report")),
    (KRONECKER3, (1, 1), (1, 2), "F2", ("maxdeg-test",)),
    (TWO_LOOP, (1, 1), (3, 3), "F2", ("maxdeg-test", "moduli-report")),
    (TWO_LOOP, (1, 1), (2, 2), "F2", ("maxdeg-test", "moduli-report")),
    (TWO_LOOP, (1, 0), (3, 2), "F2", ("maxdeg-test", "moduli-report")),
    (TWO_LOOP, (1, 0), (2, 2), "F3", ("maxdeg-test", "moduli-report")),
    (LOOP_BRIDGE, (2, 0), (3, 2), "F2", ("maxdeg-test", "moduli-report")),
    (LOOP_BRIDGE, (1, 0), (2, 1), "F3", ("maxdeg-test", "moduli-report")),
    (STAR3, (1, 0, 0), (1, 1, 1), "F3", ("maxdeg-test", "moduli-report")),
)


def _label_names(alg: Algebra, rng: random.Random) -> dict[str, str]:
    """Seeded fresh arrow names; declaration order, hence the computation,
    is unchanged."""
    return {l: f"{l}{chr(ord('a') + rng.randrange(26))}" for l, _, _ in alg.arrows}


def sweep_round(rng: random.Random) -> list[Job]:
    """Every stratum once, under seeded arrow names, in seeded order."""
    checks = {"maxdeg-test": (("exhaustive", True),), "moduli-report": (("moduli_kind", None),)}
    jobs = []
    for alg, top, d, field, commands in SWEEP_STRATA:
        doc = (
            alg.header(field, _label_names(alg, rng))
            + f"top {{ mult: {tup(top)}; }}\n"
            + f"dimvec {{ d: {tup(d)}; }}\n"
        )
        family = f"{alg.name}{tup(top)}{tup(d)}/{field}"
        jobs += [Job(c, doc, family, checks[c]) for c in commands]
    rng.shuffle(jobs)
    return jobs


# -- lattice-fq ----------------------------------------------------------------


def _det_mod(m: list[list[int]], p: int) -> int:
    m = [row[:] for row in m]
    n = len(m)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            k = m[r][c] * inv % p
            m[r] = [(x - k * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def _invertible(n: int, p: int, rng: random.Random) -> list[list[int]]:
    while True:
        g = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if _det_mod(g, p):
            return g


def _mul_mod(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]


def _diag(vals):
    return [[vals[i] if i == j else 0 for j in range(len(vals))] for i in range(len(vals))]


# quiver, weight, fields. Every module is a random base change of a module
# of known type, so its submodule lattice, hence its cost, is fixed by the
# family and its verdict is known.
LATTICE_QUIVERS = (
    (KRONECKER, (-1, 1), ("F2", "F3")),
    (KRONECKER3, (-1, 1), ("F2", "F3")),
    (STAR3, (-2, 1, 1), ("F3",)),
)


def _distinct_points(alg: Algebra, n: int, p: int, rng: random.Random) -> list[dict[str, int]]:
    """Arrow scalars of n pairwise non-isomorphic theta-stable point modules
    (all vertex dimensions 1). The arrows into vertex 2 are not all zero,
    the arrow into vertex 3 (star3) is 1; the iso class is the projective
    point of the arrows into vertex 2."""
    into2 = [l for l, _, e in alg.arrows if e == 2]
    seen, out = set(), []
    while len(out) < n:
        vals = {l: rng.randrange(p) if e == 2 else 1 for l, _, e in alg.arrows}
        vec = [vals[l] for l in into2]
        lead = next((x for x in vec if x), 0)
        if not lead:
            continue
        key = tuple(x * pow(lead, p - 2, p) % p for x in vec)
        if key not in seen:
            seen.add(key)
            out.append(vals)
    return out


def _jordan_module(alg: Algebra, n: int, p: int, rng: random.Random) -> dict[str, list[list[int]]]:
    """a1 = identity, a2 = one Jordan block J_n(lambda), other arrows scalar:
    every submodule has U1 inside U2 (and U3), the J-stable flags give
    weight zero, so the module is semistable and not stable for n >= 2."""
    lam = rng.randrange(p)
    jordan = [[lam if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    mats = {}
    for l, _, e in alg.arrows:
        if l == "a2":
            mats[l] = jordan
        else:
            mats[l] = _diag([rng.randrange(1, p) if l == "a3" else 1] * n)
    return mats


def _base_change(alg: Algebra, mats, n: int, p: int, rng: random.Random):
    """g_end * M_a * g_start for random invertible g at every vertex."""
    g = {v: _invertible(n, p, rng) for v in range(1, alg.vertices + 1)}
    return {l: _mul_mod(_mul_mod(g[e], mats[l], p), g[s], p) for l, s, e in alg.arrows}


def _module_doc(alg: Algebra, theta, field: str, d, mats) -> str:
    body = "; ".join(f"{l}: {matrix(mats[l])}" for l, _, _ in alg.arrows)
    return (
        alg.header(field)
        + f"module {{ d: {tup(d)}; {body}; }}\n"
        + f"weight {{ theta: {tup(theta)}; }}\n"
    )


def lattice_round(rng: random.Random) -> list[Job]:
    """Per quiver and field: stability and stable-factors of a sum of n
    distinct point modules, and stability of a Jordan-block module. star3
    runs over F3 only, which makes 15 jobs a round: the median and p90 jobs
    then fall inside one family's band, not at a gap."""
    jobs = []
    for alg, theta, fields in LATTICE_QUIVERS:
        n = 3 if alg.vertices == 2 else 2
        d = (n,) * alg.vertices
        for field in fields:
            p = int(field[1:])
            family = f"{alg.name}/{field}"
            pts = _distinct_points(alg, n, p, rng)
            summed = {l: _diag([pt[l] for pt in pts]) for l, _, _ in alg.arrows}
            doc = _module_doc(alg, theta, field, d, _base_change(alg, summed, n, p, rng))
            jordan = _base_change(alg, _jordan_module(alg, n, p, rng), n, p, rng)
            semistable = (("verdict", "SemistableNotStable"),)
            jobs += [
                Job("stability", doc, family, semistable),
                Job("stable-factors", doc, family, (("factor_dims", [[1] * alg.vertices] * n),)),
                Job("stability", _module_doc(alg, theta, field, d, jordan), family + "/jordan", semistable),
            ]
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {"degen-q": degen_round, "sweep-fq": sweep_round, "lattice-fq": lattice_round}


def make_rounds(workload: str, seed: int, count: int) -> list[list[Job]]:
    """``count`` rounds of jobs for ``workload``; a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    return [make(rng) for _ in range(count)]
