"""Continuous-time dynamics of the bichromatic two-ion gates.

The gate mechanism is an off-resonantly driven harmonic oscillator with a
spin-dependent force,

    H(t) = g (a e^{i delta t} + a+ e^{-i delta t}) S,

where ``S`` is the collective spin ``sigma_z^(1) + sigma_z^(2)`` (phase
gate) or ``sigma_x^(1) + sigma_x^(2)`` (x-type gate) and ``g`` is a
single composite coupling.  The motional phase-space trajectory is a
circle that closes after ``tau = 2 pi / delta``; the Magnus expansion
terminates at second order, so at closure

    U(tau) = exp(-i theta S^2)   with   theta = 2 pi (g / delta)^2,

a gate purely on the internal states.  ``propagate`` evaluates the
time-ordered propagator exactly on a truncated number basis: within a
sector of ``S`` eigenvalue ``s``, ``H(t) = R(t) H0 R(t)+`` with
``R(t) = exp(-i delta t a+a)`` and ``H0 = g s (a + a+)``, so

    U_s(t) = R(t) exp(-i t (H0 - delta a+a)),

which holds for the truncated ``a`` as well and costs one eigen-
decomposition per sector.  The closed form at closure above is what the
timing scans and :func:`effective_gate` compare against.

Hilbert-space ordering is spin (x) oscillator with the two-ion spin
space (4-dimensional) most significant.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import ClosureError, TruncationError, ValidationError

SPIN_Z = "sz"
SPIN_X = "sx"

#: Runtime bound on the combined population of the top two number states.
TRUNCATION_LIMIT = 1e-8

#: Residual spin-motion entanglement above which no spin gate is read off.
CLOSURE_LIMIT = 1e-6

#: Evenly spaced times at which the truncation bound is checked.
_CHECKPOINTS = 128


@dataclass(frozen=True)
class DrivenOscillatorModel:
    """Two spins coupled to one driven oscillator mode.

    ``coupling`` is the composite drive strength ``g`` in rad/s,
    ``delta`` the detuning from the sideband in rad/s.  The oscillator
    basis is truncated at ``n_fock`` levels and the drive starts from
    ``initial_fock``.
    """

    coupling: float
    delta: float
    spin_op_kind: str = SPIN_Z
    n_fock: int = 24
    initial_fock: int = 0

    def __post_init__(self):
        if self.n_fock < 8:
            raise ValidationError("n_fock must be at least 8")
        if self.delta <= 0:
            raise ValidationError("delta must be positive")
        if self.spin_op_kind not in (SPIN_Z, SPIN_X):
            raise ValidationError(f"unknown spin operator kind {self.spin_op_kind!r}")
        if not 0 <= self.initial_fock < self.n_fock:
            raise ValidationError("initial_fock outside the truncated basis")

    @property
    def tau(self) -> float:
        """Loop closure time ``2 pi / delta``."""
        return 2 * np.pi / self.delta

    @property
    def spin_phase(self) -> float:
        """Coefficient ``theta`` of ``S^2`` in the closed-form gate at ``tau``."""
        return 2 * np.pi * (self.coupling / self.delta) ** 2

    def spin_operator(self) -> np.ndarray:
        """Collective spin ``S`` on the two-ion space."""
        s = linalg.SIGMA_Z if self.spin_op_kind == SPIN_Z else linalg.SIGMA_X
        return linalg.tensor(s, linalg.ID2) + linalg.tensor(linalg.ID2, s)

    def ideal_gate(self) -> np.ndarray:
        """Closed-form spin gate ``exp(-i theta S^2)`` at loop closure."""
        s = self.spin_operator()
        return linalg.expm_hermitian(s @ s, self.spin_phase)


def _sector_propagator(s: float, model: DrivenOscillatorModel, x: float):
    """Exact propagator within one spin sector (S eigenvalue ``s``).

    In units of the detuning, ``x = delta t``, the sector Hamiltonian is
    ``R(x) H0 R(x)+`` with ``R(x) = exp(-i x a+a)`` and
    ``H0 = s (g / delta) (a + a+)``, so that
    ``U(x) = R(x) exp(-i x K)`` with ``K = H0 - a+a``: one ``eigh`` of
    the tridiagonal ``K``.  Returns the block and the largest population
    of the top two number states that the state from ``initial_fock``
    reaches at the checkpoints ``x j / 128``, ``j = 1 .. 128``.
    """
    nf = model.n_fock
    if s == 0.0 or model.coupling == 0.0:
        return np.eye(nf, dtype=complex), 0.0
    nvec = np.arange(nf)
    # complex although K is real: a real eigh runs a second LAPACK
    # routine, whose code pages add about 0.4 MB to a scan's peak RSS
    q = np.diag(np.sqrt(np.arange(1, nf, dtype=float)), 1).astype(complex)
    lam, v = np.linalg.eigh(s * (model.coupling / model.delta) * (q + q.T)
                            - np.diag(nvec.astype(float)))
    u = ((np.exp(-1j * x * nvec)[:, None] * v * np.exp(-1j * x * lam))
         @ v.conj().T)
    # R(x_j) is diagonal and leaves populations alone, so only the top two
    # rows of V exp(-i x_j Lambda) V+ |n0> are needed
    x_j = x * np.arange(1, _CHECKPOINTS + 1) / _CHECKPOINTS
    top_rows = ((np.exp(-1j * np.outer(x_j, lam))
                 * v[model.initial_fock].conj()) @ v[-2:].T)
    return u, float(np.max(np.sum(np.abs(top_rows) ** 2, axis=1)))


def propagate(model: DrivenOscillatorModel, t: float) -> np.ndarray:
    """Time-ordered propagator ``U(t)`` on the spin (x) oscillator space.

    Exact on the truncated number basis (see :func:`_sector_propagator`).
    Raises :class:`TruncationError` if the oscillator state from
    ``initial_fock`` puts more than 1e-8 of its population in the top two
    number states at any of 128 evenly spaced checkpoints in ``(0, t]``.
    """
    if t <= 0:
        raise ValidationError("propagation time must be positive")
    x = model.delta * t

    s_op = model.spin_operator()
    if model.spin_op_kind == SPIN_Z:
        eigs = np.real(np.diag(s_op)).copy()
        v = np.eye(4, dtype=complex)
    else:
        eigs, v = np.linalg.eigh(s_op)

    nf = model.n_fock
    blocks = {}
    worst_top = 0.0
    for s in sorted(set(np.round(eigs, 12))):
        blocks[s], top = _sector_propagator(float(s), model, x)
        worst_top = max(worst_top, top)
    if worst_top > TRUNCATION_LIMIT:
        raise TruncationError(
            f"top-two number-state population {worst_top:.3e} exceeds "
            f"{TRUNCATION_LIMIT}; increase n_fock or reduce coupling/delta")

    u = np.zeros((4 * nf, 4 * nf), dtype=complex)
    for k, s in enumerate(np.round(eigs, 12)):
        u[k * nf:(k + 1) * nf, k * nf:(k + 1) * nf] = blocks[s]
    vf = np.kron(v, np.eye(nf, dtype=complex))
    return vf @ u @ vf.conj().T


def motional_transfer_block(u_full: np.ndarray, n_fock: int,
                            initial_fock: int = 0) -> np.ndarray:
    """Spin-space block ``<n0| U |n0>`` of a spin (x) oscillator unitary."""
    dim_spin = u_full.shape[0] // n_fock
    resh = u_full.reshape(dim_spin, n_fock, dim_spin, n_fock)
    return resh[:, initial_fock, :, initial_fock]


def effective_gate(model: DrivenOscillatorModel,
                   t: Optional[float] = None) -> np.ndarray:
    """Spin-only gate at loop closure.

    Propagates to ``t`` (default ``tau``), verifies that the oscillator
    returns to its initial state for every spin input (residual
    spin-motion entanglement below 1e-6, else :class:`ClosureError`),
    and returns the unitarized spin block.
    """
    t = model.tau if t is None else t
    u = propagate(model, t)
    m = motional_transfer_block(u, model.n_fock, model.initial_fock)
    svals = np.linalg.svd(m, compute_uv=False)
    residual = float(1.0 - np.min(svals) ** 2)
    if residual > CLOSURE_LIMIT:
        raise ClosureError(
            f"residual spin-motion entanglement {residual:.3e} exceeds "
            f"{CLOSURE_LIMIT}; gate only closes at tau = 2 pi / delta")
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def gate_infidelity_with_leakage(u_full: np.ndarray, ideal_spin: np.ndarray,
                                 n_fock: int, initial_fock: int = 0) -> float:
    """Average gate infidelity of the spin channel embedded in ``u_full``.

    The channel sends ``rho`` to ``sum_n M_n rho M_n+`` with
    ``M_n = <n| U |n0>``; leakage into the oscillator counts as error.
    Uses the exact average-fidelity formula for a Kraus channel,
    ``F = (sum_n |tr(V+ M_n)|^2 + d) / (d^2 + d)``.
    """
    d = ideal_spin.shape[0]
    resh = u_full.reshape(d, n_fock, d, n_fock)
    traces = np.einsum("ij,inj->n", ideal_spin.conj(), resh[:, :, :, initial_fock])
    f_avg = (float(np.sum(np.abs(traces) ** 2)) + d) / (d * d + d)
    return max(1.0 - f_avg, 0.0)


def off_resonant_error_scan(model: DrivenOscillatorModel,
                            timing_errors: Sequence[float]):
    """Gate infidelity when the pulse misses closure by a fraction of ``tau``.

    For each fraction ``f`` the pulse lasts ``(1 + f) tau``; the ideal
    reference stays the closed-loop gate.  Returns ``(fraction,
    infidelity)`` rows, infidelity from
    :func:`gate_infidelity_with_leakage`.
    """
    rows = []
    ideal = model.ideal_gate()
    for f in timing_errors:
        if not -0.5 < f < 0.5:
            raise ValidationError(f"timing fraction {f} outside (-0.5, 0.5)")
        u = propagate(model, (1.0 + f) * model.tau)
        rows.append((float(f), gate_infidelity_with_leakage(
            u, ideal, model.n_fock, model.initial_fock)))
    return rows


def scan_csv_text(rows) -> str:
    """``(fraction, infidelity)`` rows as two-column CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["fraction", "infidelity"])
    for f, infid in rows:
        writer.writerow([repr(float(f)), repr(float(infid))])
    return buf.getvalue()


def scan_to_csv(rows, path) -> None:
    """Write ``(fraction, infidelity)`` rows as a two-column CSV file."""
    with open(path, "w", newline="") as fh:
        fh.write(scan_csv_text(rows))


def coupling_for_phase(theta: float, delta: float) -> float:
    """Drive strength giving the spin phase ``theta`` at closure."""
    if theta < 0:
        raise ValidationError("spin phase must be non-negative")
    return delta * math.sqrt(theta / (2 * np.pi))
