"""Exception types raised by netspectra."""


class NetspectraError(Exception):
    """Base class for all netspectra errors."""


class ModelValidationError(NetspectraError, ValueError):
    """A degree model or degree sequence violates its invariants."""


class PoleError(NetspectraError, ValueError):
    """Evaluation requested at (or too near) a pole of an integrand."""


class ConvergenceError(NetspectraError, RuntimeError):
    """An iterative solve missed its residual bound: the self-consistency
    solve for h(z), or the top eigenpair (e.g. at a tolerance finer than the
    pair can be resolved in floating point)."""


class NoDetachedEigenvalueError(NetspectraError, RuntimeError):
    """No real solution exists outside the spectral band."""


class DenseCapError(NetspectraError, ValueError):
    """Matrix order exceeds the configured dense-solver cap."""


class MeanOverflowError(NetspectraError, ValueError):
    """A pairwise edge-count mean is pathologically large for the size."""


class InternalConsistencyError(NetspectraError, RuntimeError):
    """A computed quantity violated a structural identity."""
