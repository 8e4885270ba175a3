"""Logical-qubit encoding and the collective-dephasing channel it defeats.

A logical qubit is stored in a pair of physical ions as

    |0>_L = |1>_P (x) |0>_P = |10>_P        |1>_L = |0>_P (x) |1>_P = |01>_P

so both logical basis states carry exactly one excitation per pair.  An
energy shift common to all ions, ``U(phi) = exp(-i phi/2 sum_k sigma_z_k)``,
acts trivially on that subspace, which therefore forms a
decoherence-free subspace (DFS) for collective dephasing.
:func:`collective_dephasing` is the exact average of ``U(phi)`` over a
Gaussian ``phi``, the one place the package averages it.

Ion 0 of a pair is the most significant tensor factor.  For several
logical qubits, pair ``j`` of the register occupies ions ``(2j, 2j+1)``
by default and logical bit strings are ordered with qubit 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionError, EmptySubspaceError, ValidationError

#: Logical-part weight below which the renormalized state is refused.
MIN_PERMANENCE = 1e-9


@dataclass(frozen=True)
class LogicalRegister:
    """Layout of logical qubits on an ion string.

    ``pairs[j]`` gives the two physical ions of logical qubit ``j``; the
    first ion of a pair holds ``|1>_P`` in the logical ``|0>_L`` state.
    """

    n_logical: int
    pairs: tuple = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.n_logical < 1:
            raise ValidationError("register needs at least one logical qubit")
        pairs = self.pairs
        if pairs is None:
            pairs = tuple((2 * j, 2 * j + 1) for j in range(self.n_logical))
        pairs = tuple((int(a), int(b)) for a, b in pairs)
        if len(pairs) != self.n_logical:
            raise ValidationError("one ion pair required per logical qubit")
        flat = [i for p in pairs for i in p]
        if len(set(flat)) != len(flat) or min(flat) < 0:
            raise ValidationError("ion pairs must be disjoint and non-negative")
        object.__setattr__(self, "pairs", pairs)

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
        return cls(n_logical=int(obj["n_logical"]),
                   pairs=tuple(tuple(p) for p in obj["pairs"]))


def logical_basis_index(register: LogicalRegister, logical_bits: str) -> int:
    """Physical basis index of the encoded logical computational state."""
    if len(logical_bits) != register.n_logical:
        raise DimensionError(
            f"expected {register.n_logical} logical bits, got {len(logical_bits)!r}")
    phys = [0] * register.n_ions
    for bit, (a, b) in zip(logical_bits, register.pairs):
        if bit == "0":
            phys[a], phys[b] = 1, 0
        elif bit == "1":
            phys[a], phys[b] = 0, 1
        else:
            raise ValidationError(f"invalid logical bit {bit!r}")
    return int("".join(map(str, phys)), 2)


def logical_basis_indices(register: LogicalRegister) -> list:
    """Physical indices of all ``2^n`` logical basis states, in logical order."""
    n = register.n_logical
    return [logical_basis_index(register, format(k, f"0{n}b"))
            for k in range(2 ** n)]


def encode(register: LogicalRegister, logical_bits: str) -> np.ndarray:
    """Physical product state encoding a logical computational basis state.

    ``encode(reg, "0")`` is ``|10>_P``, ``encode(reg, "00")`` is ``|1010>_P``.
    """
    return linalg.basis_state(logical_basis_index(register, logical_bits),
                              register.dim)


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


def decode_in_dfs(rho_physical: np.ndarray, register: LogicalRegister):
    """Project onto the DFS and renormalize.

    Returns ``(rho_logical, permanence)``.  If the subspace weight is
    below 1e-9 the logical part is undefined and
    :class:`EmptySubspaceError` is raised; the error object still
    carries the measured ``permanence``.
    """
    if rho_physical.shape != (register.dim, register.dim):
        raise DimensionError("density matrix dimension does not match register")
    block = restrict_to_dfs(rho_physical, register)
    p = float(np.real(np.trace(block)))
    if p < MIN_PERMANENCE:
        raise EmptySubspaceError(
            f"state weight {p:.3e} inside the DFS is below {MIN_PERMANENCE}",
            permanence=max(p, 0.0))
    return block / p, p


def dfs_report(rho_physical: np.ndarray, ideal_logical: np.ndarray,
               register: LogicalRegister) -> tuple:
    """Permanence, fidelity within the subspace, and their product.

    The in-subspace fidelity is evaluated against ``ideal_logical`` after
    projection and renormalization; the overall figure ``permanence *
    fidelity`` equals the plain physical-space fidelity against the
    encoded ideal state.
    """
    rho_l, perm = decode_in_dfs(rho_physical, register)
    fid = linalg.fidelity(rho_l, ideal_logical)
    return perm, fid, perm * fid


def collective_dephasing(rho: np.ndarray, phi_std: float) -> np.ndarray:
    """Exact average of ``U(phi) rho U(phi)+`` over a Gaussian collective
    phase ``phi`` of mean 0 and standard deviation ``phi_std``.

    ``rho`` is a density matrix or a stack, shape ``(..., 2^n, 2^n)``.
    ``U(phi)`` is diagonal with eigenvalues ``exp(-i phi/2 lam)``, so the
    average multiplies entry ``jk`` by the Gaussian characteristic
    function ``exp(-phi_std^2 (lam_j - lam_k)^2 / 8)``.  States supported
    on the DFS, where ``lam`` is constant, are left untouched.
    """
    if not 0 <= phi_std < np.inf:
        raise ValidationError("phi_std must be finite and non-negative")
    rho = np.asarray(rho, dtype=complex)
    n_ions = rho.shape[-1].bit_length() - 1 if rho.ndim >= 2 else -1
    if n_ions < 0 or rho.shape[-2:] != (2 ** n_ions,) * 2:
        raise DimensionError("collective dephasing needs 2^n dimensional states")
    half = linalg.z_eigenvalues(n_ions, dict.fromkeys(range(n_ions), 0.5))
    # (lam_j - lam_k)/2 is an integer m, and the factor is the power m^2 of
    # the unit-step factor, which underflows to 0.0 where phi_std^2 overflows
    step = np.exp(-float(phi_std) * float(phi_std) / 2)
    return rho * step ** ((half[:, None] - half[None, :]) ** 2)
