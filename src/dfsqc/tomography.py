"""Measurement simulation, state and process tomography, and the exact
Haar-averaged figures of merit.

The characterization pipeline mirrors the experimental procedure: prepare
each of 16 informationally complete logical inputs, run the channel, which
takes logical inputs and returns the physical outputs of the register,
measure every ion in all ``3^n`` Pauli bases (``n = 4`` ions, 81
settings, a fixed number of shots each), reconstruct the physical density
matrix by linear inversion, keep its block on the encoded subspace as it
is (its trace is the input's permanence), and finally fit the process
matrix ``chi`` defined by

    E(rho) = sum_mn chi_mn A_m rho A_n+

over the fixed logical Pauli basis ``A = {I,X,Y,Z} (x) {I,X,Y,Z}``.
Every step is linear in the outcome frequencies, so ``chi`` estimates the
trace-decreasing map ``rho_L -> P E(rho_L) P`` onto the encoded block, and
``tr chi`` is the mean permanence (Nielsen, quant-ph/0205035).

The data of one state is a float array of outcome frequencies ``f[s, b]``,
shape ``(3^n, 2^n)``: one row per setting, the per-ion basis letters
``XYZ`` in lexicographic order, one column per outcome bitstring.  Measurements are products over ions,
so state tomography is a per-ion contraction with the single-ion effects
``E[s, b] = R_s+ |b><b| R_s``.  Linear inversion is ``3^-n sum_sb f[s, b]
(x)_k (3 E[s_k, b_k] - 1)``: the all-settings classical-shadow estimator
(Huang, Kueng & Preskill, arXiv:2002.08953).  Shots are drawn by
inverse-CDF sampling, so rounding of the state moves a count only at a
bin edge, and all settings of one state share one random stream, each
taking its own fixed run of ``shots`` uniforms.

The Haar figures average the permanence ``tr E(psi)`` and the overall
fidelity ``<U psi| E(psi) |U psi>`` over pure logical inputs.  Both means
are linear in ``chi`` and read off it in closed form, with no sampling;
the mean gate fidelity is their ratio, the fidelity within the subspace.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .encoding import MIN_PERMANENCE, LogicalRegister, restrict_to_dfs
from .errors import (ConditioningError, DimensionError, EmptySubspaceError,
                     ValidationError)

BASIS_LETTERS = "XYZ"

_HAD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
_SDG = np.diag([1.0, -1.0j]).astype(complex)

#: Single-ion rotation bringing the named Pauli eigenbasis onto the
#: measured z basis: U sigma U+ = sigma_z, outcome bit 0 <-> eigenvalue +1.
MEASUREMENT_ROTATIONS = {
    "X": _HAD,
    "Y": _HAD @ _SDG,
    "Z": linalg.ID2,
}

_ROT = np.stack([MEASUREMENT_ROTATIONS[c] for c in BASIS_LETTERS])
#: Single-ion effects ``E[s, b, i, j] = (R_s+ |b><b| R_s)[i, j]``.
_EFFECTS = _ROT.conj()[:, :, :, None] * _ROT[:, :, None, :]
# Tables of _contract_ions: the Born rule (i, j) -> (s, b) through
# E[s, b, j, i] = conj(E[s, b, i, j]), and the dual 3E - 1.
_BORN = _EFFECTS.conj()
_DUAL = (3.0 * _EFFECTS - linalg.ID2).transpose(2, 3, 0, 1)


def _contract_ions(t: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """``out[a.., b..] = sum t[c.., d..] prod_k tables[k][a_k, b_k, c_k, d_k]``
    for matrices whose row and column indices each run over all ions."""
    n = len(tables)
    t = t.reshape([tb.shape[2] for tb in tables] + [tb.shape[3] for tb in tables])
    for k, table in enumerate(tables):  # ion k's (c, d) are axes 0, n - k
        t = np.tensordot(t, table, axes=([0, n - k], [2, 3]))
    t = t.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))
    return t.reshape(-1, np.prod(t.shape[n:], dtype=int))


def _draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Counts of each row of ``probs`` by inverse-CDF sampling from one
    ``default_rng(seed)`` stream: row ``i`` bins uniforms ``i*shots`` to
    ``(i+1)*shots - 1``, so a change to one row's probabilities moves no
    other row's counts, and a rounding-level change moves a count only if
    a draw falls within rounding of a bin edge.  Draws past the last edge
    (the sum may fall short of one) go to the last outcome of nonzero
    probability."""
    if shots < 1:
        raise ValidationError("shots must be at least 1")
    rng = np.random.default_rng(seed)
    edges = np.cumsum(probs, axis=1)
    top = probs.shape[1] - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    counts = np.empty(probs.shape, dtype=np.int64)
    for row, e, last in zip(counts, edges, top):
        idx = np.searchsorted(e, rng.random(shots), side="right")
        row[:] = np.bincount(np.minimum(idx, last), minlength=len(e))
    return counts


def acquire_dataset(rho: np.ndarray, shots: Optional[int],
                    seed=None) -> np.ndarray:
    """Outcome frequencies of a state in every setting, shape ``(3^n, 2^n)``,
    with rows in lexicographic setting order (ion 0's letter most significant).

    ``shots=None`` gives the exact outcome distributions.  Otherwise every
    setting draws its shots from the one stream ``default_rng(seed)``,
    setting ``i`` taking uniforms ``i*shots`` to ``(i+1)*shots - 1``, and
    its row is ``counts / shots``, so sampling needs a seed.
    """
    if shots is not None and seed is None:
        raise ValidationError("a seed is required for reproducible sampling")
    n = rho.shape[0].bit_length() - 1
    if rho.shape != (2 ** n, 2 ** n):
        raise DimensionError(f"state dim {rho.shape} does not match {n} ions")
    probs = np.real(_contract_ions(rho, [_BORN] * n))
    if probs.min() < -1e-9:
        raise ValidationError(
            f"negative outcome probability {probs.min():.3e} below -1e-9")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    if shots is None:
        return probs
    return _draw_counts(probs, shots, seed) / shots


def _n_ions(freq: np.ndarray) -> int:
    """Ion count of a frequency array, which must have shape ``(3^n, 2^n)``."""
    n = freq.shape[-1].bit_length() - 1 if freq.ndim == 2 else 0
    if n < 1 or freq.shape != (3 ** n, 2 ** n):
        raise DimensionError(
            f"frequencies of shape {freq.shape} are not one row of 2^n "
            f"outcomes for each of the 3^n settings")
    return n


def linear_inversion(freq: np.ndarray) -> np.ndarray:
    """Raw density matrix ``3^-n sum_sb f[s, b] (x)_k (3 E[s_k, b_k] - 1)``.

    This averages every Pauli-string expectation over all settings whose
    basis letters match on the string's support; with exact frequencies
    the result equals the true state.
    """
    n = _n_ions(freq)
    return _contract_ions(freq, [_DUAL] * n) / 3 ** n


# ---------------------------------------------------------------------------
# Process matrix

def chi_basis_labels(n_logical: int = 2) -> list:
    return ["".join(c) for c in itertools.product("IXYZ", repeat=n_logical)]


def chi_basis(n_logical: int = 2) -> np.ndarray:
    """Operator basis of the chi representation, shape (4^n, 2^n, 2^n)."""
    return np.stack([linalg.pauli_string(lbl)
                     for lbl in chi_basis_labels(n_logical)])


@dataclass
class ChiMatrix:
    """Process matrix over the ordered logical Pauli basis."""

    entries: np.ndarray
    basis_labels: list = field(default_factory=chi_basis_labels)

    def __post_init__(self):
        d2 = len(self.basis_labels)
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (d2, d2):
            raise DimensionError(
                f"chi must be {d2}x{d2} for basis of size {d2}")

    @property
    def n_logical(self) -> int:
        return len(self.basis_labels[0])

    def to_json(self) -> dict:
        return {"basis": list(self.basis_labels),
                "entries": linalg.matrix_to_json(self.entries)}


def chi_from_unitary(u: np.ndarray) -> ChiMatrix:
    """Rank-one chi matrix of a unitary channel (outer product of its
    Pauli expansion coefficients)."""
    n = u.shape[0].bit_length() - 1
    ops = chi_basis(n)
    d = u.shape[0]
    coeff = np.array([np.trace(linalg.dag(op) @ u) / d for op in ops])
    return ChiMatrix(np.outer(coeff, coeff.conj()), chi_basis_labels(n))


def project_chi_cp(chi: ChiMatrix) -> tuple:
    """Nearest completely positive chi of trace one: Hermitian part,
    eigenvalue clip, trace renormalized.  Returns it and the negative
    eigenvalue mass the clip dropped, over ``tr chi``."""
    evals, evecs = np.linalg.eigh((chi.entries + linalg.dag(chi.entries)) / 2)
    kept = np.clip(evals, 0.0, None)
    if kept.sum() <= 0:
        raise ConditioningError("chi projection collapsed to zero")
    entries = (evecs * (kept / kept.sum())) @ linalg.dag(evecs)
    return (ChiMatrix(entries, chi.basis_labels),
            float((kept - evals).sum() / evals.sum()))


def process_fidelity(chi: ChiMatrix, chi_ideal: ChiMatrix) -> float:
    """Process fidelity ``tr(chi_ideal chi) / tr chi`` against a unitary's
    trace-one ``chi_ideal``: the overlap within the encoded block, whatever
    weight leaks out of it."""
    return float(np.real(np.trace(chi_ideal.entries @ chi.entries)
                         / np.trace(chi.entries)))


def preparation_states(n_logical: int = 2) -> list:
    """The informationally complete input set, per qubit
    ``|0>, |1>, |+>, |+i>``, as (label, state vector) pairs."""
    single = [
        ("0", np.array([1.0, 0.0], dtype=complex)),
        ("1", np.array([0.0, 1.0], dtype=complex)),
        ("+", np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)),
        ("+i", np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)),
    ]
    return [(",".join(c[0] for c in combo), linalg.tensor(*[v for _, v in combo]))
            for combo in itertools.product(single, repeat=n_logical)]


def chi_linear_solve(inputs: Sequence[np.ndarray],
                     outputs: Sequence[np.ndarray],
                     n_logical: int = 2) -> np.ndarray:
    """Least-squares chi from (input, output) density-matrix pairs: the
    superoperator ``vec(out) = S vec(in)`` fitted on the inputs' ``d^2``
    columns, then ``chi_mn = sum conj(A_m[i, j]) S[(i, k), (j, l)] A_n[k, l]
    / d^2``, a change of basis that is ``d`` times unitary and so keeps the
    least squares of ``sum_mn chi_mn A_m rho A_n+`` for any input count."""
    ops = chi_basis(n_logical)
    d = ops.shape[1]
    ins = np.asarray(inputs, dtype=complex).reshape(-1, d * d)
    outs = np.asarray(outputs, dtype=complex).reshape(-1, d * d)
    s_t, _, rank, _ = np.linalg.lstsq(ins, outs, rcond=None)
    if rank < d * d:
        raise ConditioningError(
            f"chi reconstruction system is rank deficient ({rank}/{d * d})")
    return np.einsum("mij,jlik,nkl->mn", ops.conj(), s_t.reshape(d, d, d, d),
                     ops, optimize=True) / d ** 2  # s_t[(j, l), (i, k)] is S^T


@dataclass
class ProcessCharacterization:
    """Everything the tomography pipeline measures about one channel: the
    linear chi estimate of the encoded block, not renormalized, and the
    permanence of each input."""

    chi: ChiMatrix
    permanences: np.ndarray


def process_tomography(channel: Callable[[np.ndarray], np.ndarray],
                       register: LogicalRegister, shots: Optional[int] = None,
                       seed=None) -> ProcessCharacterization:
    """Reconstruct the chi matrix of a black-box channel on the logical space.

    ``channel`` is called once, with the stack of all logical input density
    matrices, shape ``(k, 2^n, 2^n)``, and returns the stack of physical
    outputs of ``register``, shape ``(k, 4^n, 4^n)``.  With ``shots`` each
    output goes through measurement simulation at ``shots`` per setting
    (sampling needs a ``seed``) and linear inversion; with ``None`` it is
    used exactly.  Each output's block on the encoded subspace, neither
    projected nor renormalized, is the data of the chi fit, and its trace
    the input's permanence.  The fit is linear in the frequencies, so chi
    may carry small negative eigenvalues, and ``tr chi`` is the mean
    permanence.
    """
    if shots is not None and seed is None:
        raise ValidationError("a seed is required for reproducible sampling")
    n_logical = register.n_logical
    vecs = np.stack([v for _, v in preparation_states(n_logical)])
    inputs = vecs[:, :, None] * vecs[:, None, :].conj()
    outputs = np.asarray(channel(inputs))
    if outputs.shape != (len(inputs), register.dim, register.dim):
        raise DimensionError(
            f"channel returned shape {outputs.shape}; expected {len(inputs)} "
            f"physical {register.dim}x{register.dim} matrices")
    blocks = []
    for k, out in enumerate(outputs):
        if shots is not None:
            out = linear_inversion(acquire_dataset(out, shots, seed=(seed, k)))
        blocks.append(restrict_to_dfs(out, register))
    blocks = np.stack(blocks)
    chi = chi_linear_solve(inputs, blocks, n_logical)
    weight = float(np.real(np.trace(chi)))  # the mean permanence
    if weight < MIN_PERMANENCE:  # every figure divides by it
        raise EmptySubspaceError(
            f"mean permanence {weight:.3e} is below {MIN_PERMANENCE}",
            permanence=max(weight, 0.0))
    return ProcessCharacterization(
        chi=ChiMatrix(chi, chi_basis_labels(n_logical)),
        permanences=np.real(np.trace(blocks, axis1=1, axis2=2)))


# ---------------------------------------------------------------------------
# Haar-averaged figures of merit

def haar_report(chi: ChiMatrix, chi_ideal: ChiMatrix) -> dict:
    """Mean permanence, mean gate fidelity and mean overall fidelity over
    Haar-random pure logical inputs, exactly (Nielsen, quant-ph/0205035).

    With ``d = 2^n`` and ``F`` the :func:`process_fidelity` against the
    unitary's ``chi_ideal``, the mean permanence ``tr E(psi)`` is ``tr chi``,
    the mean gate fidelity within the subspace is ``(d F + 1) / (d + 1)``,
    and the mean overall fidelity ``<U psi| E(psi) |U psi>`` is their
    product, ``(d tr(chi_ideal chi) + tr chi) / (d + 1)``.  A mean
    permanence at or below ``MIN_PERMANENCE``, which a shot-noisy ``chi``
    can give, raises :class:`EmptySubspaceError`.
    """
    mean_perm = float(np.real(np.trace(chi.entries)))
    if mean_perm <= MIN_PERMANENCE:  # the gate fidelity divides by it
        raise EmptySubspaceError(
            f"Haar mean permanence {mean_perm:.3e} is not above {MIN_PERMANENCE}",
            permanence=max(mean_perm, 0.0))
    d = 2 ** chi.n_logical
    fid = (d * process_fidelity(chi, chi_ideal) + 1) / (d + 1)
    return {"mean_gate_fidelity": fid, "mean_permanence": mean_perm,
            "mean_overall": mean_perm * fid}
