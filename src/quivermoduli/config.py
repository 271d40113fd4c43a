"""Budgets and knobs for enumerations and randomized searches."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class SearchLimits:
    """Caps on the exhaustive and randomized searches.

    Local decompositions need none: they are exact over every field.

    sweep: max q^N of a finite-field enumeration, one budget for both:
        the q^N coordinate tuples of a chart (N its variables), and the
        q^|d| vectors of a module whose submodules are enumerated (the
        enumeration closes only the vertex-homogeneous vectors, one per
        line, but the cap is on the size of the whole module).
    submodule_spaces: max number of distinct submodules tracked.
    iso_enum: max number of points of the grid of top maps is_isomorphic walks.
    iso_tries: random tries in is_isomorphic before that grid, and extra
        random samples of a chart too large to sweep (_chart_points).
    seed: default RNG seed for all randomized subroutines.
    """

    sweep: int = 1 << 17
    submodule_spaces: int = 1 << 15
    iso_enum: int = 4096
    iso_tries: int = 64
    seed: int = 0

    def with_seed(self, seed: int) -> "SearchLimits":
        return replace(self, seed=seed)

    def with_sweep(self, budget: int) -> "SearchLimits":
        return replace(self, sweep=budget)


DEFAULT_LIMITS = SearchLimits()
