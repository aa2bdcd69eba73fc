"""Exception hierarchy shared across the package.

The fitting loop distinguishes recoverable conditions (a diverged trial
iterate that only needs step damping, a trial dispersion rejected by the
outer search) from hard failures (bad input data, curvature loss at an
accepted iterate), so the classes below are more fine-grained than a
single catch-all.
"""


class MPRFrailtyError(Exception):
    """Base class for all package errors."""


class DomainError(MPRFrailtyError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DataError(MPRFrailtyError, ValueError):
    """Invalid dataset contents or malformed input file.

    ``row`` is the 1-based data row (excluding the header) when the error
    originates from file parsing, else None.
    """

    def __init__(self, message, row=None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class DivergedIterateError(MPRFrailtyError, ArithmeticError):
    """A linear predictor left the representable range during a trial step.

    Signals the caller to damp the step; never raised at an accepted
    iterate of a converged fit.
    """


class EvaluationError(MPRFrailtyError, ArithmeticError):
    """A likelihood/score/weight evaluation produced a non-finite value.

    ``index`` carries the offending record index when known.
    """

    def __init__(self, message, index=None):
        if index is not None:
            message = f"{message} (record {index})"
        super().__init__(message)
        self.index = index


class CurvatureError(MPRFrailtyError, ArithmeticError):
    """The observed information matrix is singular or not positive definite."""


class NonConvergenceError(MPRFrailtyError, RuntimeError):
    """An iterative solver hit its iteration cap."""


class StructureError(MPRFrailtyError, ValueError):
    """A requested quantity is structurally absent under the frailty structure."""


class BootstrapError(MPRFrailtyError, RuntimeError):
    """Parametric bootstrap could not be carried out (e.g. non-PD covariance)."""


class CalibrationError(MPRFrailtyError, RuntimeError):
    """Censoring calibration could not reach the target rate within bounds."""


class ScenarioError(MPRFrailtyError, RuntimeError):
    """A simulation scenario failed (e.g. too many non-converged replicates)."""
