"""Exception types raised by netspectra."""


class NetspectraError(Exception):
    """Base class for all netspectra errors."""


class ModelValidationError(NetspectraError, ValueError):
    """A degree model or degree sequence violates its invariants."""


class PoleError(NetspectraError, ValueError):
    """Evaluation requested at (or too near) a pole of an integrand."""


class ConvergenceError(NetspectraError, RuntimeError):
    """An iterative solve failed to reach its residual tolerance."""

    def __init__(self, message: str, residual: float = float("nan"),
                 method: str = "unknown"):
        super().__init__(message)
        self.residual = residual
        self.method = method


class NoDetachedEigenvalueError(NetspectraError, RuntimeError):
    """No real solution exists outside the spectral band."""


class DenseCapError(NetspectraError, ValueError):
    """Matrix order exceeds the configured dense-solver cap."""


class MeanOverflowError(NetspectraError, ValueError):
    """A pairwise edge-count mean is pathologically large for the size."""


class StagnationError(NetspectraError, RuntimeError):
    """Iterative eigensolver missed its residual bound (e.g. a tolerance finer
    than the dominant pair can be resolved in floating point)."""


class InternalConsistencyError(NetspectraError, RuntimeError):
    """A computed quantity violated a structural identity."""
