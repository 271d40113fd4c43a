"""The budgets a caller sets: the sweep budget and the seed."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchLimits:
    """The settings the command line sets (--max-sweep, --seed).

    Local decompositions need no budget: they are exact over every field.
    The budgets no caller sets are constants next to their one reader:
    reps.SUBMODULE_SPACES, reps.ISO_ENUM, reps.ISO_TRIES and
    grass.CHART_SAMPLES.

    sweep: max q^N of a finite-field enumeration, one budget for both:
        the q^N coordinate tuples of a chart (N its variables), and the
        q^|d| vectors of a module whose submodules are enumerated (the
        enumeration closes only the vertex-homogeneous vectors, one per
        line, but the cap is on the size of the whole module).
    seed: default RNG seed for all randomized subroutines.
    """

    sweep: int = 1 << 17
    seed: int = 0


DEFAULT_LIMITS = SearchLimits()
