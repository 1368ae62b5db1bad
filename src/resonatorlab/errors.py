"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: data/schema problems exit with 2,
failed optimizations with 3 and physical-domain violations with 4.
"""


class ResonatorLabError(Exception):
    """Base class for the errors the CLI maps onto exit codes."""


class DataError(ResonatorLabError):
    """Input data violates a structural requirement (ordering, grids, ...)."""


class SchemaError(DataError):
    """A file does not match the expected column schema."""


class InsufficientDataError(DataError):
    """Not enough samples to perform the requested operation."""


class DegenerateGeometryError(DataError):
    """Fit input is geometrically degenerate (e.g. a trace with no off-resonant background)."""


class ConvergenceError(ResonatorLabError):
    """An iterative fit failed to converge.

    ``last_params`` carries the final iterate so callers can inspect where
    the optimizer stalled.
    """

    def __init__(self, message, last_params=None):
        super().__init__(message)
        self.last_params = last_params


class DomainError(ResonatorLabError):
    """Arguments are outside the physical domain of validity of a formula."""


class ReportSchemaError(Exception):
    """A report does not match its JSON schema; the message names the JSON path.

    The reports are built by this package, so a mismatch is a bug in the
    program rather than bad input. It is deliberately not a
    :class:`ResonatorLabError`: the CLI does not map it onto an exit code,
    and it ends the run with a traceback (exit 1).
    """
