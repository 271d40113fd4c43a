"""Budgets and knobs for enumerations and randomized searches."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SearchLimits:
    """Caps on the exhaustive and randomized searches.

    Local decompositions need none: they are exact over every field.

    submodule_vectors: max q^|d| for a submodule enumeration. The sweep
        closes only the vertex-homogeneous vectors, one per line, but the
        cap is on q^|d|, the size of the whole module.
    submodule_spaces: max number of distinct submodules tracked.
    iso_enum: max size q^k of a hom space enumerated exhaustively.
    iso_tries: randomized witness attempts before giving up.
    sym_vars / sym_dim: symbolic-determinant fallback bounds (variables, block size).
    chart_sweep: max number of chart coordinate tuples enumerated (q^N).
    seed: default RNG seed for all randomized subroutines.
    """

    submodule_vectors: int = 1 << 17
    submodule_spaces: int = 1 << 15
    iso_enum: int = 4096
    iso_tries: int = 64
    sym_vars: int = 10
    sym_dim: int = 8
    chart_sweep: int = 1 << 17
    seed: int = 0

    def with_seed(self, seed: int) -> "SearchLimits":
        return replace(self, seed=seed)

    def with_sweep(self, budget: int) -> "SearchLimits":
        return replace(self, chart_sweep=budget, submodule_vectors=budget)


DEFAULT_LIMITS = SearchLimits()
