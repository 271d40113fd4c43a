"""Exact-arithmetic toolkit for modules over finite-dimensional path algebras."""

__version__ = "0.1.0"

from .errors import (
    BadRelation,
    DimensionMismatch,
    DocumentError,
    DomainError,
    EquationsViolated,
    FieldNotFinite,
    IdealNotGraded,
    NotAdmissible,
    NotNilpotentDirection,
    NotSubmodule,
    NotSumOfLocals,
    SearchTooLarge,
    TopMismatch,
    TypeMismatch,
    Unknown,
    UnknownLabel,
    UnsupportedAlgebra,
)
from .fields import QQ, Field, parse_field_name
from .quiver import Arrow, Element, PathWord, Quiver, idempotent, make_quiver
from .algebra import Algebra, build_algebra

__all__ = [
    "Algebra",
    "Arrow",
    "BadRelation",
    "DimensionMismatch",
    "DocumentError",
    "DomainError",
    "Element",
    "EquationsViolated",
    "Field",
    "FieldNotFinite",
    "IdealNotGraded",
    "NotAdmissible",
    "NotNilpotentDirection",
    "NotSubmodule",
    "NotSumOfLocals",
    "PathWord",
    "QQ",
    "Quiver",
    "SearchTooLarge",
    "TopMismatch",
    "TypeMismatch",
    "Unknown",
    "UnknownLabel",
    "UnsupportedAlgebra",
    "build_algebra",
    "idempotent",
    "make_quiver",
    "parse_field_name",
]
