"""Logical-qubit encoding and the collective-dephasing channel it defeats.

A logical qubit is stored in a pair of physical ions as

    |0>_L = |1>_P (x) |0>_P = |10>_P        |1>_L = |0>_P (x) |1>_P = |01>_P

so both logical basis states carry exactly one excitation per pair.  An
energy shift common to all ions, ``U(phi) = exp(-i phi/2 sum_k sigma_z_k)``,
acts trivially on that subspace, which therefore forms a
decoherence-free subspace (DFS) for collective dephasing.

Ion 0 of a pair is the most significant tensor factor.  For several
logical qubits, pair ``j`` of the register occupies ions ``(2j, 2j+1)``
by default and logical bit strings are ordered with qubit 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


def collective_dephasing(rho: np.ndarray, phi_samples: Sequence[float]) -> np.ndarray:
    """Average of ``U(phi) rho U(phi)+`` over the given phase samples.

    The caller supplies the phase ensemble (for example Gaussian draws of
    a chosen width); a single sample ``[0.0]`` is the identity channel.
    States supported on the DFS are left untouched for any phase list.
    """
    n_ions = rho.shape[0].bit_length() - 1
    if 2 ** n_ions != rho.shape[0]:
        raise DimensionError("collective dephasing needs a 2^n dimensional state")
    phis = np.asarray(phi_samples, dtype=float)
    if phis.size == 0:
        raise ValidationError("need at least one phase sample")
    lam = linalg.z_eigenvalues(n_ions, dict.fromkeys(range(n_ions), 1.0))
    # U(phi) is diagonal, so the channel only multiplies each entry of rho
    # by the average phase factor exp(-i phi (lam_j - lam_k) / 2).
    delta = lam[:, None] - lam[None, :]
    factors = np.ones_like(rho, dtype=complex)
    for d in np.unique(delta):
        if d == 0:
            continue
        factors[delta == d] = np.mean(np.exp(-1j * phis * (d / 2.0)))
    return rho * factors


def coherence_ratio(phi_std: float, n_samples: int, seed: int,
                    max_ratio: float = 1e6) -> float:
    """Ratio of logical to physical coherence surviving sampled dephasing.

    Prepares an equal superposition once as a logical qubit (two ions)
    and once as a bare physical qubit, sends both through the collective
    dephasing channel with ``n_samples`` Gaussian phases of standard
    deviation ``phi_std``, and compares the surviving off-diagonal
    magnitudes.  The logical coherence is exactly 1; the physical one
    decays like ``exp(-phi_std^2 / 2)``, so the ratio grows without
    bound and is capped at ``max_ratio``.
    """
    if n_samples < 1000:
        raise ValidationError("coherence_ratio needs at least 1000 samples")
    if not phi_std >= 0:
        raise ValidationError("phi_std must be non-negative")
    rng = np.random.default_rng(seed)
    phis = rng.normal(0.0, phi_std, size=n_samples)

    reg = LogicalRegister(1)
    psi_l = (encode(reg, "0") + encode(reg, "1")) / np.sqrt(2)
    rho_l = collective_dephasing(np.outer(psi_l, psi_l.conj()), phis)
    i0, i1 = logical_basis_indices(reg)
    coh_logical = 2.0 * abs(rho_l[i0, i1])

    psi_p = (linalg.KET0 + linalg.KET1) / np.sqrt(2)
    rho_p = collective_dephasing(np.outer(psi_p, psi_p.conj()), phis)
    coh_physical = 2.0 * abs(rho_p[0, 1])

    if coh_physical <= coh_logical / max_ratio:
        return max_ratio
    return min(coh_logical / coh_physical, max_ratio)
