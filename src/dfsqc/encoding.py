"""Logical-qubit encoding and the collective-dephasing channel it defeats.

A logical qubit is stored in a pair of physical ions as

    |0>_L = |1>_P (x) |0>_P = |10>_P        |1>_L = |0>_P (x) |1>_P = |01>_P

so both logical basis states carry exactly one excitation per pair.  An
energy shift common to all ions, ``U(phi) = exp(-i phi/2 sum_k sigma_z_k)``,
acts trivially on that subspace, which therefore forms a
decoherence-free subspace (DFS) for collective dephasing.
:func:`gaussian_phase_average` is the package's one exact Gaussian phase
average, of ``U(phi)`` in :func:`collective_dephasing` and of the z-pulse
jitter in :mod:`dfsqc.noise`.

Ion ``i`` of an ``n``-ion string is bit ``n - 1 - i`` of a physical basis
index, so ion 0 is the most significant tensor factor.  For several
logical qubits, pair ``j`` of the register occupies ions ``(2j, 2j+1)``
by default and logical bit strings are ordered with qubit 0 first;
:func:`logical_basis_indices` alone turns them into physical indices.
"""

from __future__ import annotations

import collections
import operator

import numpy as np

from . import linalg
from .errors import DimensionError, EmptySubspaceError, ValidationError

#: Logical-part weight below which the renormalized state is refused.
MIN_PERMANENCE = 1e-9


class LogicalRegister(collections.namedtuple("LogicalRegister", "n_logical pairs")):
    """Layout of logical qubits on an ion string; a tuple checked when
    built (``_replace`` and ``_make`` check nothing).

    ``pairs[j]`` gives the two physical ions of logical qubit ``j``, by
    default ``(2j, 2j + 1)``; the first ion of a pair holds ``|1>_P`` in the
    logical ``|0>_L`` state.
    """

    __slots__ = ()

    def __new__(cls, n_logical: int, pairs=None):
        try:
            n_logical = operator.index(n_logical)
        except TypeError:
            raise ValidationError("n_logical must be an integer, "
                                  f"got {n_logical!r}") from None
        if n_logical < 1:
            raise ValidationError("register needs at least one logical qubit")
        if pairs is None:
            pairs = tuple((2 * j, 2 * j + 1) for j in range(n_logical))
        try:
            pairs = tuple((operator.index(a), operator.index(b)) for a, b in pairs)
        except (TypeError, ValueError):
            raise ValidationError("pairs must be [ion, ion] integer pairs") from None
        if len(pairs) != n_logical:
            raise ValidationError("one ion pair required per logical qubit")
        flat = [i for p in pairs for i in p]
        if len(set(flat)) != len(flat) or min(flat) < 0:
            raise ValidationError("ion pairs must be disjoint and non-negative")
        return super().__new__(cls, n_logical, pairs)

    @property
    def n_ions(self) -> int:
        return max(i for p in self.pairs for i in p) + 1

    @property
    def dim(self) -> int:
        """Dimension of the physical Hilbert space."""
        return 2 ** self.n_ions

    def to_json(self) -> dict:
        return {"n_logical": self.n_logical,
                "pairs": [list(p) for p in self.pairs]}

    @classmethod
    def from_json(cls, obj: dict) -> "LogicalRegister":
        missing = [name for name in cls._fields if name not in obj]
        if missing:
            raise ValidationError(f"{', '.join(missing)}: required")
        return cls(obj["n_logical"], obj["pairs"])


def logical_basis_indices(register: LogicalRegister) -> list:
    """Physical indices of all ``2^n`` logical basis states, in logical
    order: bit ``b`` of logical qubit ``q`` excites ion ``pairs[q][b]``, and
    ion ``i`` is bit ``n_ions - 1 - i`` of the index."""
    n, top = register.n_logical, register.n_ions - 1
    return [sum(1 << (top - pair[(k >> (n - 1 - q)) & 1])
                for q, pair in enumerate(register.pairs))
            for k in range(2 ** n)]


def encode(register: LogicalRegister, logical_bits: str) -> np.ndarray:
    """Physical product state encoding a logical computational basis state.

    ``encode(reg, "0")`` is ``|10>_P``, ``encode(reg, "00")`` is ``|1010>_P``.
    """
    if len(logical_bits) != register.n_logical:
        raise DimensionError(
            f"expected {register.n_logical} logical bits, got {len(logical_bits)!r}")
    for bit in logical_bits:
        if bit not in ("0", "1"):
            raise ValidationError(f"invalid logical bit {bit!r}")
    psi = np.zeros(register.dim, dtype=complex)
    psi[logical_basis_indices(register)[int(logical_bits, 2)]] = 1.0
    return psi


def restrict_to_dfs(op: np.ndarray, register: LogicalRegister) -> np.ndarray:
    """Compress a physical operator to its block on the logical basis."""
    if op.shape != (register.dim, register.dim):
        raise DimensionError("operator dimension does not match register")
    idx = logical_basis_indices(register)
    return op[np.ix_(idx, idx)]


def embed_in_dfs(op_logical: np.ndarray, register: LogicalRegister) -> np.ndarray:
    """Physical operator whose block on the logical basis is ``op_logical``
    and which is zero elsewhere; the inverse of :func:`restrict_to_dfs`.

    Accepts one logical operator or a stack, shape ``(..., 2^n, 2^n)``.
    """
    op_logical = np.asarray(op_logical, dtype=complex)
    d_l = 2 ** register.n_logical
    if op_logical.shape[-2:] != (d_l, d_l):
        raise DimensionError(
            f"logical operator shape {op_logical.shape} does not end in ({d_l}, {d_l})")
    idx = np.array(logical_basis_indices(register))
    out = np.zeros(op_logical.shape[:-2] + (register.dim, register.dim),
                   dtype=complex)
    out[..., idx[:, None], idx] = op_logical
    return out


def dfs_report(rho_physical: np.ndarray, ideal_logical: np.ndarray,
               register: LogicalRegister) -> tuple:
    """Permanence, fidelity within the subspace, their product, and the
    logical state.

    The permanence is the weight of ``rho_physical`` on the DFS, and the
    logical state its block there, renormalized; the in-subspace fidelity
    is that state's against ``ideal_logical``.  The overall figure
    ``permanence * fidelity`` equals the plain physical-space fidelity
    against the encoded ideal state.  Below a permanence of 1e-9 the
    logical state is undefined and :class:`EmptySubspaceError` is raised;
    the error object still carries the measured ``permanence``.
    """
    block = restrict_to_dfs(rho_physical, register)
    perm = float(np.real(np.trace(block)))
    if perm < MIN_PERMANENCE:
        raise EmptySubspaceError(
            f"state weight {perm:.3e} inside the DFS is below {MIN_PERMANENCE}",
            permanence=max(perm, 0.0))
    rho_logical = block / perm
    fid = linalg.fidelity(rho_logical, ideal_logical)
    return perm, fid, perm * fid, rho_logical


def gaussian_phase_average(rho: np.ndarray, s: np.ndarray,
                           std: float) -> np.ndarray:
    """Exact average of ``U rho U+``, ``U = diag(exp(-i phi/2 s))``, over a
    Gaussian ``phi`` of mean 0 and standard deviation ``std``, for ``rho``
    of shape ``(..., len(s), len(s))``: entry ``jk`` is multiplied by
    ``exp(-std^2 (s_j - s_k)^2 / 8)``, exactly 1.0 where ``std`` is 0."""
    # std times the difference first, so that a huge std masks the
    # coherences to 0.0 through an overflow to inf, never NaN
    with np.errstate(over="ignore"):
        return rho * np.exp(-(std * (s[:, None] - s[None, :])) ** 2 / 8)


def collective_dephasing(rho: np.ndarray, phi_std: float) -> np.ndarray:
    """Exact average of ``U(phi) rho U(phi)+`` over a Gaussian collective
    phase ``phi`` of mean 0 and standard deviation ``phi_std``.

    ``rho`` is a density matrix or a stack, shape ``(..., 2^n, 2^n)``.
    ``U(phi)`` is diagonal with eigenvalues ``exp(-i phi/2 lam)``, ``lam``
    those of ``sum_k sigma_z_k``, so this is :func:`gaussian_phase_average`
    over ``lam``.  States supported on the DFS, where ``lam`` is constant,
    are left untouched.
    """
    if not 0 <= phi_std < np.inf:
        raise ValidationError("phi_std must be finite and non-negative")
    rho = np.asarray(rho, dtype=complex)
    n_ions = linalg.n_qubits(rho.shape[-2:], 2, 2)
    lam = linalg.z_eigenvalues(n_ions, dict.fromkeys(range(n_ions), 1.0))
    return gaussian_phase_average(rho, lam, phi_std)
