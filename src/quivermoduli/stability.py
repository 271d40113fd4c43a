"""Weight stability for modules over a path algebra.

A weight assigns an integer to every vertex and extends additively to
dimension vectors. A module M is semistable when its own weight vanishes
and no submodule has negative weight, stable when every proper nonzero
submodule is strictly positive. Verdicts are decided from the exact set
of submodule dimension vectors, so they are only offered over finite
fields; the rationals would force sampling and a missed submodule could
silently flip a verdict.

Semistable modules factor through chains of stable ones. stable_factors
extracts such a chain greedily (smallest zero-weight submodule first).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .config import DEFAULT_LIMITS, SearchLimits
from .errors import DimensionMismatch, NotSemistable
from .linalg import Vector
from .reps import Rep, _vertex_dims, quotient_rep, sub_rep, submodule_spans


@dataclass(frozen=True)
class Weight:
    """Integers theta(1)..theta(n), one per vertex."""

    theta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(int(t) for t in self.theta))

    def __len__(self) -> int:
        return len(self.theta)

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.theta) + ")"


def theta_of(theta: Weight, d: tuple[int, ...]) -> int:
    """The additive extension: sum of theta(i) * d_i."""
    if len(theta.theta) != len(d):
        raise DimensionMismatch(f"weight has {len(theta.theta)} entries, dimension vector {len(d)}")
    return sum(t * x for t, x in zip(theta.theta, d))


class StabilityClass(Enum):
    STABLE = "Stable"
    SEMISTABLE_NOT_STABLE = "SemistableNotStable"
    UNSTABLE = "Unstable"

    def __str__(self) -> str:
        return self.value


def classify_stability(M: Rep, theta: Weight, limits: SearchLimits = DEFAULT_LIMITS) -> StabilityClass:
    """Stability type of M from its exact submodule dimension-vector set."""
    return _classify(M, theta, limits)[0]


def _classify(M: Rep, theta: Weight, limits: SearchLimits):
    """Stability type of M and its submodule spans; no spans when the
    weight of M alone makes it unstable."""
    if M.total == 0:
        raise ValueError("the zero module has no stability type")
    if theta_of(theta, M.d) != 0:
        return StabilityClass.UNSTABLE, []
    spans = submodule_spans(M, limits)
    dims = {_vertex_dims(M, sp) for sp in spans}
    values = {theta_of(theta, e) for e in dims if any(e) and e != M.d}
    if any(v < 0 for v in values):
        return StabilityClass.UNSTABLE, spans
    if 0 in values:
        return StabilityClass.SEMISTABLE_NOT_STABLE, spans
    return StabilityClass.STABLE, spans


def stable_factors(M: Rep, theta: Weight, limits: SearchLimits = DEFAULT_LIMITS) -> list[Rep]:
    """A stable composition chain of a semistable module.

    Repeatedly splits off the smallest zero-weight proper submodule (ties
    broken lexicographically on dimension vectors, then on row spans) and
    recurses on the quotient. The multiset of factors is independent of
    the extraction order; the fixed order just makes output deterministic.
    M's lattice is enumerated once, for both the semistability verdict and
    the first pick; each quotient gets its own.
    """
    verdict, spans = _classify(M, theta, limits)
    if verdict is StabilityClass.UNSTABLE:
        raise NotSemistable(f"module with dimension vector {M.d} is unstable for {theta}")
    factors: list[Rep] = []
    current = M
    while True:
        pick = _minimal_zero_weight_submodule(current, theta, spans)
        if pick is None:
            factors.append(current)
            return factors
        factors.append(sub_rep(current, pick))
        current = quotient_rep(current, pick)
        spans = submodule_spans(current, limits)


def _minimal_zero_weight_submodule(M: Rep, theta: Weight, spans: list[list[Vector]]):
    best = None
    best_key = None
    for sp in spans:
        if not sp or len(sp) == M.total:
            continue
        dims = _vertex_dims(M, sp)
        if theta_of(theta, dims) != 0:
            continue
        key = (len(sp), dims, tuple(tuple(r) for r in sp))
        if best_key is None or key < best_key:
            best, best_key = sp, key
    return best
