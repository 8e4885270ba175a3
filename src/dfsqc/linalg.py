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

#: Cap on the dimension produced by :func:`tensor`, and so on a register's.
MAX_TENSOR_DIM = 2 ** 12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS = {"I": ID2, "X": SIGMA_X, "Y": SIGMA_Y, "Z": SIGMA_Z}

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of states or operators, first factor most significant.

    Raises :class:`DimensionError` if the resulting dimension would exceed
    ``MAX_TENSOR_DIM``.
    """
    if not factors:
        raise DimensionError("tensor() needs at least one factor")
    dim = 1
    for f in factors:
        if f.shape[0] <= 0:
            raise DimensionError("tensor factors must have positive dimension")
        dim *= f.shape[0]
    if dim > MAX_TENSOR_DIM:
        raise DimensionError(
            f"tensor product dimension {dim} exceeds cap {MAX_TENSOR_DIM}")
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


def basis_state(index: int, dim: int) -> np.ndarray:
    """Computational basis vector ``|index>`` in a ``dim``-dimensional space."""
    if not 0 <= index < dim:
        raise DimensionError(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def z_eigenvalues(n_ions: int, weights: dict) -> np.ndarray:
    """Diagonal ``s = sum_i w_i z_i`` of ``sum_i w_i sigma_z_i``, with
    ``weights`` mapping ion ``i`` to ``w_i`` and ``z_i = +1`` (``-1``) on
    the basis states whose ion ``i`` is in ``|0>`` (``|1>``)."""
    index = np.arange(2 ** n_ions)
    s = np.zeros(2 ** n_ions)
    for ion, w in weights.items():
        s += w * (1 - 2 * ((index >> (n_ions - 1 - ion)) & 1))
    return s


def is_hermitian(m: np.ndarray, atol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(m - dag(m))) <= atol)


def expm_hermitian(h: np.ndarray, t: float = 1.0, atol: float = 1e-10) -> np.ndarray:
    """Unitary ``exp(-i t H)`` of a Hermitian ``H`` via eigendecomposition.

    Raises :class:`ValidationError` if ``H`` is not Hermitian within ``atol``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError("expm_hermitian expects a square matrix")
    if not is_hermitian(h, atol):
        raise ValidationError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)) @ dag(evecs)


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


def canonicalize_phase(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Fix the global phase so the first entry of magnitude above ``tol``
    (row-major scan) is real and positive."""
    flat = np.asarray(m, dtype=complex).ravel()
    for x in flat:
        if abs(x) > tol:
            return m * (abs(x) / x)
    return np.array(m, copy=True)


def phase_aligned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return ``b`` multiplied by the phase that best aligns it with ``a``
    (least-squares optimal, phase of ``tr(b+ a)``)."""
    tr = np.trace(dag(b) @ a) if a.ndim == 2 else np.vdot(b, a)
    if abs(tr) < 1e-14:
        return np.array(b, copy=True)
    return b * (tr / abs(tr))


def unitary_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half trace-norm distance ``0.5 ||a - b||_1`` after optimal global
    phase alignment, a gate-level analogue of the state trace distance."""
    diff = a - phase_aligned(a, b)
    return float(0.5 * np.sum(np.linalg.svd(diff, compute_uv=False)))
