"""Dense complex linear algebra and quantum-state primitives.

States are plain 1-D complex ``numpy`` arrays, operators are 2-D complex
arrays.  Subsystem ordering follows the ion-string convention used
throughout the package: the first subsystem is the most significant
tensor factor, so ``tensor(ket1, ket0)`` is the basis state ``|10>``
(index 2 of a 4-dimensional space).

All functions are pure; nothing here keeps mutable state.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, ValidationError

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of states or operators, first factor most significant."""
    if not factors:
        raise DimensionError("tensor() needs at least one factor")
    if any(f.shape[0] <= 0 for f in factors):
        raise DimensionError("tensor factors must have positive dimension")
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def pauli_string(letters: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``pauli_string("XZ")``."""
    try:
        mats = [PAULIS[c] for c in letters]
    except KeyError as exc:
        raise ValidationError(f"unknown Pauli letter {exc}") from exc
    return tensor(*mats)


def z_eigenvalues(n_ions: int, weights: dict) -> np.ndarray:
    """Diagonal ``s = sum_i w_i z_i`` of ``sum_i w_i sigma_z_i``, with
    ``weights`` mapping ion ``i`` to ``w_i`` and ``z_i = +1`` (``-1``) on
    the basis states whose ion ``i`` is in ``|0>`` (``|1>``)."""
    index = np.arange(2 ** n_ions)
    s = np.zeros(2 ** n_ions)
    for ion, w in weights.items():
        s += w * (1 - 2 * ((index >> (n_ions - 1 - ion)) & 1))
    return s


def fidelity(rho: np.ndarray, psi: np.ndarray) -> float:
    """Pure-state fidelity ``<psi| rho |psi>`` of a density matrix.

    The result is clamped to be real; an imaginary part above 1e-12
    (relative) indicates a non-Hermitian ``rho`` and raises.
    """
    rho = np.asarray(rho, dtype=complex)
    psi = np.asarray(psi, dtype=complex)
    if rho.shape != (psi.shape[0], psi.shape[0]):
        raise DimensionError(
            f"dimension mismatch: rho {rho.shape}, psi {psi.shape}")
    val = np.vdot(psi, rho @ psi)
    if abs(val.imag) > 1e-12 * max(1.0, abs(val)):
        raise ValidationError(f"fidelity has imaginary part {val.imag:.3e}")
    return float(val.real)


def n_qubits(shape: tuple, *bases: int) -> int:
    """The ``n >= 1`` of a shape that must be ``(b^n for b in bases)``, the
    last base a power of two: ``(3, 2)`` for frequencies."""
    n = ((shape[-1].bit_length() - 1) // (bases[-1].bit_length() - 1)
         if len(shape) == len(bases) else 0)
    if n < 1 or shape != tuple(b ** n for b in bases):
        raise DimensionError(f"shape {shape} is not {bases}^n for an n >= 1")
    return n


def matrix_to_json(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)]
