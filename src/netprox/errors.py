"""Shared error types, and the one rule for numeric parameters (check_positive)."""

import numpy as np


class ProtocolError(RuntimeError):
    """A delivery broke the synchronous message protocol: not one row per node."""


class DivergenceError(RuntimeError):
    """A run produced a non-finite iterate."""


class InnerSolveError(RuntimeError):
    """An inner subproblem solver hit its iteration cap before its tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


# the parameters for which 0 means none of it: noise, a weight, a smooth part, a 1/sqrt(t) term
MAY_BE_ZERO = frozenset({"sigma", "beta1", "beta2", "lipschitz", "coef_sqrt"})


def finite_positive(value, zero: bool = False) -> bool:
    """Whether value, a number or an array, is finite and above 0 in every entry
    (at or above 0 with zero): NaN and +-inf fail either way."""
    if isinstance(value, (int, float)):  # a plain number, without numpy's overhead
        return (0 <= value if zero else 0 < value) and value < np.inf
    a = np.asarray(value, dtype=float)
    return bool((((a >= 0) if zero else (a > 0)) & (a < np.inf)).all())


def check_positive(**values) -> None:
    """Raise one ValueError naming the first of the values, each a number or a
    per-node array, that finite_positive refuses (with zero for MAY_BE_ZERO)."""
    for name, value in values.items():
        zero = name in MAY_BE_ZERO
        if not finite_positive(value, zero):
            got, sign = np.asarray(value, dtype=float).tolist(), "nonnegative" if zero else "positive"
            raise ValueError(f"{name} must be finite and {sign}, got {got!r}")
