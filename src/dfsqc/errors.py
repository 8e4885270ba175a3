"""Exception hierarchy for dfsqc, and the check of a record's number fields."""

import math


class DfsqcError(Exception):
    """Base class for all dfsqc errors."""


class DimensionError(DfsqcError, ValueError):
    """Operands or inputs have incompatible or invalid dimensions."""


class ValidationError(DfsqcError, ValueError):
    """A matrix or vector violates a numerical contract (non-Hermitian
    input, non-normalized state, negative probabilities, ...)."""


class LayoutError(DfsqcError, ValueError):
    """A gate targets ions or logical qubits that the register layout
    does not support (for example a phase gate on non-adjacent pairs)."""


class EmptySubspaceError(DfsqcError, ValueError):
    """The state, or a channel's chi on average over inputs, has
    (numerically) no weight inside the protected subspace, so the
    renormalized logical state, or every figure of chi, is undefined.

    The measured subspace weight is still available as ``permanence``.
    """

    def __init__(self, message: str, permanence: float = 0.0):
        super().__init__(message)
        self.permanence = permanence


class ConfigError(DfsqcError, ValueError):
    """An experiment configuration, or a command-line option, cannot be
    run; the message names the field at fault."""


def finite(name: str, value):
    """``value`` if it is a finite real number, else a
    :class:`ValidationError` naming the field ``name``: a string, ``None``,
    NaN or an infinity is refused, and nothing is converted."""
    try:
        if math.isfinite(value):
            return value
    except TypeError:
        pass
    raise ValidationError(f"{name} must be a finite number, got {value!r}")
