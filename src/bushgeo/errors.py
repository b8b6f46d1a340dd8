"""Exception hierarchy shared by all bushgeo modules.

Exit-code mapping used by the CLI: InputError (and an OSError writing an
output file) -> 2, BudgetError -> 3, validation failures are reported
(exit 1), everything else is a bug.  The one size budget and its check
live here too.
"""


class BushgeoError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BushgeoError):
    """Malformed or inconsistent input data."""


class DimensionMismatch(InputError):
    """Vector/functional length does not match the space dimension."""

    def __init__(self, expected, got, what="vector"):
        super().__init__(f"{what} has length {got}, expected {expected}")
        self.expected = expected
        self.got = got


class StructuralError(InputError):
    """A bush fails a structural precondition (e.g. partition overlap/gap)."""


class PastingError(InputError):
    """Pieces cannot be pasted into a geodesic at the given breakpoints."""


class BudgetError(BushgeoError):
    """A construction would exceed the size budget, or a label or depth the
    bush is too shallow for; ``required`` is the size or depth it needs."""

    def __init__(self, message, required=None):
        super().__init__(message)
        self.required = required


BUDGET = 2**25  # cells: dense coordinates, line terms or oracle work entries


def check_budget(what: str, required: int) -> None:
    """Refuse, before any work, to build ``what`` of ``required`` cells
    when that exceeds `BUDGET`."""
    if required > BUDGET:
        raise BudgetError(
            f"{what} needs {required} cells, over the size budget of {BUDGET}",
            required=required,
        )


class NumericalError(BushgeoError):
    """The exact simplex failed: its LP is infeasible (``LPInfeasible``) or
    unbounded (``LPUnbounded``), or it passed its pivot guard."""
