"""Exception types shared across the pipeline stages."""


class EchoauditError(Exception):
    """Base class for all fatal pipeline errors."""


class InputError(EchoauditError):
    """An input file is missing, unreadable, or structurally unusable."""


class OutputError(EchoauditError):
    """An output file or directory cannot be created."""


class EmptySelectionError(EchoauditError):
    """A selection step produced an empty result that later stages require."""


class DegenerateMatrixError(EchoauditError):
    """The interaction matrix cannot support a correspondence analysis."""


class ConvergenceError(EchoauditError):
    """The iterative solver did not reach the requested tolerance."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class WorkerError(EchoauditError):
    """A worker process ended without handing back its result."""
