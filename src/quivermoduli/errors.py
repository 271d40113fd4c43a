"""Exception hierarchy and three-valued sentinels shared across the package."""

from __future__ import annotations


class DomainError(Exception):
    """Base for all mathematical/domain failures (CLI exit code 1)."""


class NotAdmissible(DomainError):
    """No length <= max_len at which all paths vanish: the ideal is not
    certified admissible within the supplied bound."""


class BadRelation(DomainError):
    """A relation has a component of length < 2 or mixes non-parallel paths."""


class NotSubmodule(DomainError):
    """A claimed submodule span is not stable under the arrow action."""


class FieldNotFinite(DomainError):
    """Operation requires exhaustive enumeration and hence a finite field."""


class SearchTooLarge(DomainError):
    """An enumeration would exceed the configured budget."""


class EquationsViolated(DomainError):
    """Coordinate values do not satisfy the chart equations."""


class IdealNotGraded(DomainError):
    """Homogeneity query on an algebra whose ideal is not length-graded."""


class TopMismatch(DomainError):
    """Point has a component outside JP, so P/C does not have top T."""


class NotNilpotentDirection(DomainError):
    """The supplied direction is not a homomorphism P -> JP."""


class DimensionMismatch(DomainError):
    """Dimension vectors disagree where equality is required."""


class UnsupportedAlgebra(DomainError):
    """The reduction rewrites longer paths to shorter ones, so basis-path
    lengths do not induce the radical filtration; chart machinery refuses."""


class DocumentError(Exception):
    """Base for input-document failures beyond plain syntax (CLI exit code 2)."""


class UnknownLabel(DocumentError):
    """An input document references an undeclared arrow label or vertex."""


class TypeMismatch(DocumentError):
    """An input document value has the wrong shape for its context."""


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:
        return self._name

    def __bool__(self) -> bool:
        raise TypeError(f"{self._name} has no truth value; compare identity instead")


#: Returned when a decision procedure is inconclusive within its budget.
Unknown = _Sentinel("Unknown")

#: Returned by decompose_local when M is not a direct sum of local modules:
#: some indecomposable summand has a non-simple top.
NotSumOfLocals = _Sentinel("NotSumOfLocals")


class NotSemistable(DomainError):
    """stable_factors called on a module that is not theta-semistable."""
