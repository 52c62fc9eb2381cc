"""Exception types raised by netspectra, one per failure exit code.

Bad input raises the builtin ValueError (exit 1 at the command line).
"""


class NumericError(RuntimeError):
    """A computed quantity missed its bound or broke an identity: the solve
    for h(z) or the top eigenpair missed its residual bound (e.g. at a
    tolerance finer than the pair can be resolved in floating point), or a
    result failed the identity it must satisfy."""


class NoDetachedEigenvalueError(RuntimeError):
    """No real solution exists outside the spectral band."""
