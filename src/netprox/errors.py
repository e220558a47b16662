"""Shared error types for the distributed rounds."""


class ProtocolError(RuntimeError):
    """A delivery broke the synchronous message protocol: not one row per node."""


class DivergenceError(RuntimeError):
    """A run produced a non-finite iterate."""


class InnerSolveError(RuntimeError):
    """An inner subproblem solver hit its iteration cap before its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual
