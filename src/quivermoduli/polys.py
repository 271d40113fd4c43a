"""Sparse multivariate polynomials over an exact field.

Just enough ring arithmetic for chart equations and small symbolic
determinants: monomials are exponent tuples of a fixed length, terms live in
a dict, and evaluation plugs in field scalars. No division, no factoring.
"""

from __future__ import annotations

from .fields import Field, Scalar

Monomial = tuple[int, ...]


class PolyRing:
    def __init__(self, field: Field, names: list[str]):
        self.field = field
        self.names = list(names)
        self.nvars = len(self.names)

    def zero(self) -> "Poly":
        return Poly(self, {})

    def const(self, c: Scalar) -> "Poly":
        if self.field.is_zero(c):
            return self.zero()
        return Poly(self, {(0,) * self.nvars: c})

    def one(self) -> "Poly":
        return self.const(self.field.one())

    def var(self, i: int) -> "Poly":
        exp = [0] * self.nvars
        exp[i] = 1
        return Poly(self, {tuple(exp): self.field.one()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolyRing) and self.field == other.field and self.names == other.names

    def __repr__(self) -> str:
        return f"PolyRing({self.field}, {self.names})"


class Poly:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Scalar]):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Poly") -> "Poly":
        f = self.ring.field
        out = dict(self.terms)
        f.axpy(out, f.one(), other.terms)
        return Poly(self.ring, out)

    def __neg__(self) -> "Poly":
        f = self.ring.field
        return Poly(self.ring, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.ring.field
        out: dict[Monomial, Scalar] = {}
        for m1, c1 in self.terms.items():
            f.axpy(out, c1, {tuple(a + b for a, b in zip(m1, m2)): c2 for m2, c2 in other.terms.items()})
        return Poly(self.ring, out)

    def scale(self, c: Scalar) -> "Poly":
        f = self.ring.field
        if f.is_zero(c):
            return self.ring.zero()
        return Poly(self.ring, {m: f.mul(c, v) for m, v in self.terms.items()})

    def eval(self, point: list[Scalar]) -> Scalar:
        f = self.ring.field
        total = f.zero()
        for m, c in self.terms.items():
            v = c
            for e, x in zip(m, point):
                for _ in range(e):
                    v = f.mul(v, x)
            total = f.add(total, v)
        return total

    def monic_key(self) -> tuple:
        """Canonical hashable form up to a scalar unit, for deduplication."""
        if not self.terms:
            return ()
        f = self.ring.field
        lead = min(self.terms)  # any deterministic choice works
        inv = f.inv(self.terms[lead])
        return tuple(sorted((m, f.mul(inv, c)) for m, c in self.terms.items()))

    def format(self) -> str:
        if not self.terms:
            return "0"
        f = self.ring.field
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0])):
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = f.format(c)
            if not factors:
                parts.append(cs)
            elif cs == "1":
                parts.append("*".join(factors))
            elif cs == "-1":
                parts.append("-" + "*".join(factors))
            else:
                parts.append(cs + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self.format()})"


def poly_det(a: list[list[Poly]]) -> Poly:
    """Determinant by minor expansion with memoization; fine for n <= 8."""
    n = len(a)
    if n == 0:
        raise ValueError("determinant of empty matrix")
    ring = a[0][0].ring
    full = (1 << n) - 1
    memo: dict[tuple[int, int], Poly] = {}

    def minor(row: int, colmask: int) -> Poly:
        if row == n:
            return ring.one()
        key = (row, colmask)
        got = memo.get(key)
        if got is not None:
            return got
        acc = ring.zero()
        sign = 1
        for j in range(n):
            if not (colmask >> j) & 1:
                continue
            entry = a[row][j]
            if not entry.is_zero():
                sub = minor(row + 1, colmask & ~(1 << j))
                term = entry * sub
                acc = acc + (term if sign > 0 else -term)
            sign = -sign
        memo[key] = acc
        return acc

    return minor(0, full)
