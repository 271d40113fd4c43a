"""Exact coefficient fields: the rationals and prime fields F_p.

Elements are plain values (fractions.Fraction for Q, ints in [0, p) for F_p);
the Field object carries the arithmetic, and everything downstream threads a
Field explicitly.

Sparse rows are dicts from any key to a nonzero scalar, and every sparse sum
in the package goes through one rule, Field.axpy: out += c * row in place,
with an entry that cancels popped, so no sparse row ever stores a zero. Maps
between modules are sparse too (linalg.Map); dense lists of scalars remain
only at the edges that the linalg docstring names.

Field.axpy is one scalar kernel per field, picked once when the Field is
built: plain sums over Q, and plain ints reduced mod p with p held in a
closure over F_p. No kernel branches on the field or calls a method per
entry.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Union

Scalar = Union[Fraction, int]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


# -- sparse row kernels: out += c * row in place --------------------------------
#
# Each pops an entry that cancels and skips a zero entry of row, so out never
# stores a zero. Over F_p, c may be any integer representative.

Axpy = Callable[[dict, Scalar, dict], None]


def _axpy_q(out: dict, c: Scalar, row: dict) -> None:
    # a new key costs one product and no Fraction addition
    for k, v in row.items():
        x = c * v
        if k in out:
            x += out[k]
            if x:
                out[k] = x
            else:
                del out[k]
        elif x:
            out[k] = x


def _axpy_mod(p: int) -> Axpy:
    """The kernel of F_p, with p held in the closure."""

    def axpy(out: dict, c: Scalar, row: dict) -> None:
        for k, v in row.items():
            x = (out.get(k, 0) + c * v) % p
            if x:
                out[k] = x
            else:
                out.pop(k, None)

    return axpy


@dataclass(frozen=True)
class Field:
    """The rationals (p is None) or the prime field F_p."""

    p: int | None = None
    # out += c * row in place, for sparse rows keyed by anything: the
    # field's kernel, bound once by __post_init__
    axpy: Axpy = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"field order must be prime, got {self.p}")
        object.__setattr__(self, "axpy", _axpy_q if self.p is None else _axpy_mod(self.p))

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def order(self) -> int:
        if self.p is None:
            raise ValueError("the rationals are not finite")
        return self.p

    # -- construction -------------------------------------------------

    def zero(self) -> Scalar:
        return 0 if self.p is not None else Fraction(0)

    def one(self) -> Scalar:
        return 1 if self.p is not None else Fraction(1)

    def of_int(self, n: int) -> Scalar:
        return n % self.p if self.p is not None else Fraction(n)

    def of_fraction(self, q: Fraction) -> Scalar:
        if self.p is None:
            return q
        den = q.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator {q.denominator} vanishes in F_{self.p}")
        return q.numerator * pow(den, -1, self.p) % self.p

    # -- arithmetic ---------------------------------------------------

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p is not None:
            return pow(a, -1, self.p)
        return Fraction(1) / a

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- enumeration and formatting ------------------------------------

    def elements(self) -> list[Scalar]:
        if self.p is None:
            raise ValueError("cannot enumerate the rationals")
        return list(range(self.p))

    def random(self, rng: Random, span: int = 10) -> Scalar:
        """A random scalar; over Q an integer in [-span, span]."""
        if self.p is not None:
            return rng.randrange(self.p)
        return Fraction(rng.randint(-span, span))

    def format(self, a: Scalar) -> str:
        if self.p is not None:
            return str(a % self.p)
        return str(a)  # Fraction renders as "p/q" or "p"

    def __str__(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"


QQ = Field(None)


def parse_field_name(name: str) -> Field:
    """"Q" -> rationals, "F<p>" -> prime field."""
    name = name.strip()
    if name in ("Q", "QQ"):
        return QQ
    if name.startswith("F") and name[1:].isdigit():
        return Field(int(name[1:]))
    raise ValueError(f"unknown field {name!r} (expected Q or F<p>)")
