"""Exceptions shared across the library."""

from __future__ import annotations

from ._rational import fmt_covector


class WeylgpdError(Exception):
    """Base class for all library errors."""


class SingularBasis(WeylgpdError):
    """A claimed basis is linearly dependent."""


class ZeroCovector(WeylgpdError):
    """The zero covector was passed where a nonzero one is required."""


class NonSquare(WeylgpdError):
    """A square matrix was expected."""


class InvalidCartanMatrix(WeylgpdError):
    """Integer matrix violating the generalized-Cartan-matrix axioms."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class InvalidTable(WeylgpdError):
    """A table, or an argument it refuses: a table violating its structural
    invariants, or a point, covector, wall index or object a query cannot take."""


class NonReducedTable(WeylgpdError):
    """Chamber geometry requires a reduced table (one +/- pair per line)."""


class OnHyperplane(WeylgpdError):
    """A point lies on a root hyperplane where a generic point is required."""

    def __init__(self, root, point):
        self.root = root
        self.point = point
        super().__init__(f"point {fmt_covector(point)} lies on the hyperplane of {fmt_covector(root)}")


class OutsideCone(WeylgpdError):
    """A point lies outside the open cone carrying the arrangement."""


class NotSimplicial(WeylgpdError):
    """A chamber is not an open simplicial cone."""


class WallOnBoundary(WeylgpdError):
    """The requested wall's facet does not meet the open cone, so it cannot be crossed."""


class NotCrystallographicAt(WeylgpdError):
    """Integrality of transition coefficients fails at a chamber."""

    def __init__(self, chamber_id, witness):
        self.chamber_id = chamber_id
        self.witness = witness
        super().__init__(f"at chamber {fmt_covector(chamber_id)}: {witness}")


class NotSimplyConnected(WeylgpdError):
    """Two distinct words produced conflicting data for one object."""


class BudgetExceeded(WeylgpdError):
    """An exploration budget ran out; partial data may be attached."""

    def __init__(self, message="budget exceeded", partial=None):
        self.partial = partial
        super().__init__(message)


class Unreachable(WeylgpdError):
    """No gallery between the two chambers exists within the available data."""


class Unsupported(WeylgpdError):
    """The operation is undefined for the given cone or rank."""


class NotReducible(WeylgpdError):
    """A line of the table has no common-divisor element."""

    def __init__(self, line_key, elements):
        self.line_key = line_key
        self.elements = tuple(elements)
        super().__init__(
            f"line {fmt_covector(line_key)} has no common divisor among {fmt_covector(self.elements)}"
        )


class RootNotInSystem(WeylgpdError):
    """The requested root does not belong to the table."""


class AxiomViolation(WeylgpdError):
    """Input data violates a root-system axiom it was required to satisfy."""


class ParseError(WeylgpdError):
    """Malformed input file or builtin name."""
