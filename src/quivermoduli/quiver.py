"""Quivers, paths, and formal linear combinations of parallel paths.

Composition is right-to-left: the product q*p means "first p, then q" and
requires end(p) = start(q). Internally a path stores its arrows in
application order (earliest first), so q*p concatenates p.arrows + q.arrows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable

from .errors import BadRelation
from .fields import Field, Scalar


@dataclass(frozen=True)
class Arrow:
    label: str
    start: int
    end: int


@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple[Arrow, ...]
    # label -> declaration index, the order deglex_key compares arrows in
    _index: dict = dc_field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("quiver needs at least one vertex")
        index: dict[str, int] = {}
        for a in self.arrows:
            if not (1 <= a.start <= self.n and 1 <= a.end <= self.n):
                raise ValueError(f"arrow {a.label}: endpoints outside 1..{self.n}")
            if a.label in index:
                raise ValueError(f"duplicate arrow label {a.label!r}")
            index[a.label] = len(index)
        object.__setattr__(self, "_index", index)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def arrows_out(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.start == v]

    def arrows_in(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a.end == v]


def make_quiver(n: int, arrows: Iterable[tuple[str, int, int]]) -> Quiver:
    return Quiver(n, tuple(Arrow(lbl, s, e) for lbl, s, e in arrows))


@dataclass(frozen=True)
class PathWord:
    """A path of the quiver; length 0 paths are the vertex idempotents e_v."""

    start: int
    arrows: tuple[str, ...]  # application order: arrows[0] is applied first
    end: int

    @property
    def length(self) -> int:
        return len(self.arrows)

    def last_arrow(self) -> str:
        if not self.arrows:
            raise ValueError("idempotent has no arrows")
        return self.arrows[-1]

    def __str__(self) -> str:
        if not self.arrows:
            return f"e{self.start}"
        return "*".join(reversed(self.arrows))


def idempotent(v: int) -> PathWord:
    return PathWord(v, (), v)


def extend(path: PathWord, arrow: Arrow) -> PathWord | None:
    """Apply one more arrow after the path; None when they do not compose."""
    if path.end != arrow.start:
        return None
    return PathWord(path.start, path.arrows + (arrow.label,), arrow.end)


def deglex_key(quiver: Quiver, p: PathWord) -> tuple:
    """Total order on parallel-or-not paths: degree first, then lex on the
    application-order arrow sequence (declaration order), then start vertex."""
    idx = quiver._index
    return (p.length, tuple(idx[l] for l in p.arrows), p.start)


class Element:
    """A formal K-linear combination of paths (not necessarily parallel;
    relation generators must be parallel and are validated separately)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[PathWord, Scalar] | None = None):
        self.terms: dict[PathWord, Scalar] = dict(terms or {})

    def is_zero(self) -> bool:
        return not self.terms

    def ends(self) -> set[tuple[int, int]]:
        return {(p.start, p.end) for p in self.terms}

    def lengths(self) -> set[int]:
        return {p.length for p in self.terms}

    def format(self, field: Field) -> str:
        if not self.terms:
            return "0"
        parts = []
        for p, c in sorted(self.terms.items(), key=lambda t: (t[0].length, str(t[0]))):
            cs = field.format(c)
            parts.append(f"{cs}*{p}" if cs not in ("1",) else str(p))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Element({ {str(p): c for p, c in self.terms.items()} })"


def validate_relation(rel: Element, field: Field) -> None:
    """Relations must be nonzero combinations of parallel paths of length >= 2."""
    if rel.is_zero():
        raise BadRelation("zero relation")
    if len(rel.ends()) != 1:
        raise BadRelation(f"relation mixes non-parallel paths: {rel.format(field)}")
    if min(rel.lengths()) < 2:
        raise BadRelation(f"relation has a component of length < 2: {rel.format(field)}")
