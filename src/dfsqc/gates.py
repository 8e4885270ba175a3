"""Logical gate set and the pulse compiler for the encoded CNOT.

Three primitives act on the encoded qubits:

* ``ACStarkZ``: a far-detuned beam on a single ion shifts its levels, a
  ``sigma_z`` rotation.  Because ``1 (x) sigma_z`` equals the logical
  ``sigma_z`` on the pair, addressing the second ion of a pair rotates
  the logical qubit about z by the same angle.
* ``MSRotation``: a bichromatic beam on both ions of a pair drives the
  collective spin ``sigma_phi^(1) + sigma_phi^(2)`` through a closed
  motional loop, leaving ``exp(-i theta/2 sigma_phi (x) sigma_phi)``.
  Restricted to the encoded subspace this is a logical x rotation for
  every axis phase ``phi`` (the ``sigma_y (x) sigma_y`` piece acts as
  ``sigma_x_L`` there, and the cross terms cancel), which is why the
  y-axis Ramsey pulse below has to be composed from z-x-z rotations.
* ``CPGate``: the same mechanism with ``sigma_z`` coupling on the two
  center ions of adjacent pairs gives ``exp(-i theta/2 sigma_z (x)
  sigma_z)``, a logical ZZ interaction (with reversed sign, absorbed by
  the compiler's angle bookkeeping).

``compile_cnot`` emits a fixed nine-pulse sequence: a Ramsey x pulse on
the target, the phase gate split into two halves around a spin echo on
both pairs, a closing echo on the control so its frame returns, and a
composite z-x-z Ramsey pulse on the target.  The angle table was solved
so the composition reproduces ``CNOT_LOGICAL`` exactly (up to a global
phase) and is regression-tested against that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .encoding import LogicalRegister
from .errors import LayoutError, ValidationError

AC_STARK_Z = "ACStarkZ"
MS_ROTATION = "MSRotation"
CP_GATE = "CPGate"

_KINDS = (AC_STARK_Z, MS_ROTATION, CP_GATE)

#: Ideal logical unitary of the compiled CNOT on the ordered basis
#: |00>, |01>, |10>, |11> (qubit 0 is the control).  The target flips,
#: with phases, when the control is |0>_L.
CNOT_LOGICAL = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0j, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0j],
], dtype=complex)

#: Exchange of the two logical qubits on the same ordered basis.
SWAP_LOGICAL = np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True)
class GateParams:
    """Detunings of the two bichromatic gates.

    All values are angular frequencies in rad/s.  Gate times follow as
    ``2 pi / detuning`` (one closed motional loop) and are never stored
    separately.
    """

    delta_ms: float = 2 * np.pi * 7_000.0
    delta_cp: float = 2 * np.pi / 470e-6

    def __post_init__(self):
        if not (self.delta_ms > 0 and self.delta_cp > 0):
            raise ValidationError("gate parameters must be positive")

    @property
    def tau_ms(self) -> float:
        """Duration of one MS pulse (one motional loop), seconds."""
        return 2 * np.pi / self.delta_ms

    @property
    def tau_cp(self) -> float:
        """Duration of one CP pulse (one motional loop), seconds."""
        return 2 * np.pi / self.delta_cp

    @classmethod
    def from_json(cls, obj: dict) -> "GateParams":
        return cls(**{k: float(v) for k, v in obj.items()})


@dataclass(frozen=True)
class PulseOp:
    """One physical pulse: kind, addressed ions, angle and axis phase.

    ``duration`` is timing metadata (sequence reports, duration-scaled
    noise models); the unitary of the op does not depend on it.
    """

    kind: str
    targets: tuple
    angle: float
    phase: float = 0.0
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown pulse kind {self.kind!r}")
        targets = tuple(int(t) for t in self.targets)
        object.__setattr__(self, "targets", targets)
        if self.kind == AC_STARK_Z:
            if len(targets) != 1:
                raise ValidationError(f"{self.kind} addresses exactly one ion")
        else:
            if len(targets) != 2 or abs(targets[0] - targets[1]) != 1:
                raise ValidationError(
                    f"{self.kind} addresses exactly two adjacent ions")

    def to_json(self) -> dict:
        return {"kind": self.kind, "targets": list(self.targets),
                "angle": self.angle, "phase": self.phase,
                "duration": self.duration}


@dataclass
class PulseSequence:
    """Ordered pulses on a register; ``ops[0]`` is applied first."""

    ops: list
    register: LogicalRegister

    def __post_init__(self):
        n = self.register.n_ions
        for op in self.ops:
            if any(t < 0 or t >= n for t in op.targets):
                raise LayoutError(
                    f"op targets {op.targets} outside the {n}-ion register")

    @property
    def total_duration(self) -> float:
        return float(sum(op.duration for op in self.ops))

    def to_json(self) -> dict:
        return {"register": self.register.to_json(),
                "ops": [op.to_json() for op in self.ops]}


def pulse_unitary(op: PulseOp, n_ions: int,
                  weights: Optional[dict] = None) -> np.ndarray:
    """Unitary of one pulse whose Pauli ``P`` acts on each ion with a weight.

    ``weights`` maps ion index to weight and defaults to 1 on the addressed
    ions; ``P`` is ``sigma_z`` for z-type pulses (``ACStarkZ``, ``CPGate``)
    and ``sigma_phi`` for x-type ones.  With ``S = sum_i w_i P_i`` and
    ``a`` the pulse angle, single-ion pulses give ``exp(-i a/2 S)`` and
    two-ion pulses ``exp(-i a/4 (S^2 - sum_i w_i^2))``; the subtracted
    identity part is a global phase that makes unit weights reproduce
    ``exp(-i a/2 P (x) P)`` exactly.

    ``S`` is diagonal, with eigenvalues :func:`~dfsqc.linalg.z_eigenvalues`,
    once every weighted ion is rotated by ``V = Rz(phi) H``
    (``V sigma_z V+ = sigma_phi``), so no eigendecomposition is needed.
    """
    if weights is None:
        weights = {t: 1.0 for t in op.targets}
    s = linalg.z_eigenvalues(n_ions, weights)
    if op.kind in (MS_ROTATION, CP_GATE):
        self_weight = sum(w * w for w in weights.values())
        phases = np.exp(-0.25j * op.angle * (s * s - self_weight))
    else:
        phases = np.exp(-0.5j * op.angle * s)
    if op.kind in (AC_STARK_Z, CP_GATE):
        return np.diag(phases)
    e = np.exp(1j * op.phase)
    frame = np.array([[1.0, 1.0], [e, -e]]) / np.sqrt(2)
    v = linalg.tensor(*[frame if i in weights else linalg.ID2
                        for i in range(n_ions)])
    return (v * phases) @ linalg.dag(v)


def sequence_unitary(seq: PulseSequence) -> np.ndarray:
    """Product of the op unitaries, first op rightmost."""
    u = np.eye(seq.register.dim, dtype=complex)
    for op in seq.ops:
        u = pulse_unitary(op, seq.register.n_ions) @ u
    return u


def z_rotation_logical(theta: float, logical_qubit: int,
                       register: LogicalRegister) -> np.ndarray:
    """Logical ``Z(theta) = exp(-i theta/2 sigma_z_L)`` as a physical unitary.

    Realized as an AC-Stark pulse on the second ion of the pair, where
    ``1 (x) sigma_z`` coincides with the logical ``sigma_z``.
    """
    op = z_pulse(theta, logical_qubit, register)
    return pulse_unitary(op, register.n_ions)


def x_rotation_logical(theta: float, logical_qubit: int,
                       register: LogicalRegister,
                       axis_phase: float = 0.0) -> np.ndarray:
    """Collective-spin rotation ``exp(-i theta/2 sigma_phi (x) sigma_phi)``.

    On the encoded subspace this equals the logical ``X(theta)`` for any
    ``axis_phase``; the phase only changes the action outside the DFS.
    """
    op = ms_pulse(theta, logical_qubit, register, axis_phase)
    return pulse_unitary(op, register.n_ions)


def z_pulse(theta: float, logical_qubit: int,
            register: LogicalRegister) -> PulseOp:
    _check_lq(logical_qubit, register)
    ion = register.pairs[logical_qubit][1]
    return PulseOp(AC_STARK_Z, (ion,), theta, 0.0, 0.0)


def ms_pulse(theta: float, logical_qubit: int, register: LogicalRegister,
             axis_phase: float = 0.0,
             params: Optional[GateParams] = None) -> PulseOp:
    _check_lq(logical_qubit, register)
    params = params or GateParams()
    pair = register.pairs[logical_qubit]
    if abs(pair[0] - pair[1]) != 1:
        raise LayoutError("MS pulse needs an adjacent ion pair")
    return PulseOp(MS_ROTATION, pair, theta, axis_phase, params.tau_ms)


def cp_pulse(theta: float, pair, register: LogicalRegister,
             params: Optional[GateParams] = None) -> PulseOp:
    lq1, lq2 = sorted(int(q) for q in pair)
    _check_lq(lq1, register)
    _check_lq(lq2, register)
    if lq2 - lq1 != 1:
        raise LayoutError("phase gate requires adjacent logical qubits")
    center = (register.pairs[lq1][1], register.pairs[lq2][0])
    if abs(center[0] - center[1]) != 1:
        raise LayoutError(
            f"center ions {center} of logical pair ({lq1}, {lq2}) are not adjacent")
    params = params or GateParams()
    return PulseOp(CP_GATE, center, theta, 0.0, params.tau_cp)


def _check_lq(q: int, register: LogicalRegister):
    if not 0 <= q < register.n_logical:
        raise LayoutError(f"logical qubit {q} outside register")


#: Solved angle table for the CNOT sequence, in pulse order:
#: (Ramsey MS on target, CP half, echo MS on control, echo MS on target,
#:  CP half, closing echo MS on control, Z on target, MS on target,
#:  Z on target).  Frozen after solving the composition against
#: ``CNOT_LOGICAL``; changing any entry breaks the regression test.
CNOT_ANGLES = {
    "ramsey_x": -np.pi / 2,
    "cp_half": np.pi / 4,
    "echo": np.pi,
    "composite_z1": -np.pi / 2,
    "composite_x": np.pi / 2,
    "composite_z2": -np.pi / 2,
}


def compile_cnot(control: int, target: int, register: Optional[LogicalRegister] = None,
                 params: Optional[GateParams] = None) -> PulseSequence:
    """Pulse sequence realizing ``CNOT_LOGICAL`` on (control, target).

    The phase gate is split into two halves around a spin-echo x pulse on
    both logical qubits; a second echo pulse on the control closes its
    frame (a single pi rotation would leave the control flipped, which
    the target's enclosing Ramsey pulses absorb but nothing on the
    control side would).  The final y-axis Ramsey rotation is composed
    as z-x-z because the collective-spin axis phase has no effect inside
    the encoded subspace.
    """
    register = register or LogicalRegister(2)
    params = params or GateParams()
    if control == target:
        raise LayoutError("control and target must differ")
    _check_lq(control, register)
    _check_lq(target, register)
    a = CNOT_ANGLES
    ops = [
        ms_pulse(a["ramsey_x"], target, register, 0.0, params),
        cp_pulse(a["cp_half"], (control, target), register, params),
        ms_pulse(a["echo"], control, register, 0.0, params),
        ms_pulse(a["echo"], target, register, 0.0, params),
        cp_pulse(a["cp_half"], (control, target), register, params),
        ms_pulse(a["echo"], control, register, 0.0, params),
        z_pulse(a["composite_z1"], target, register),
        ms_pulse(a["composite_x"], target, register, 0.0, params),
        z_pulse(a["composite_z2"], target, register),
    ]
    return PulseSequence(ops=ops, register=register)


def cnot_logical_matrix(control: int, target: int) -> np.ndarray:
    """Ideal logical CNOT for the given role assignment on a two-qubit register.

    ``control=0, target=1`` returns ``CNOT_LOGICAL`` itself; the swapped
    assignment returns the matrix conjugated by the qubit swap.
    """
    if {control, target} != {0, 1}:
        raise LayoutError("logical matrix defined for a two-qubit register")
    if control == 0:
        return CNOT_LOGICAL.copy()
    return SWAP_LOGICAL @ CNOT_LOGICAL @ SWAP_LOGICAL


def bell_state_logical(input_bits: str) -> np.ndarray:
    """Logical Bell state produced from a computational input by
    ``X(pi/2)`` on the control followed by the compiled CNOT.

    The four inputs map onto the four Bell states (phases included):
    ``00 -> i(|01> - |10>)/sqrt2``, ``01 -> (|11> - |00>)/sqrt2``,
    ``10 -> (|01> + |10>)/sqrt2``, ``11 -> i(|00> + |11>)/sqrt2``.
    """
    if len(input_bits) != 2 or any(b not in "01" for b in input_bits):
        raise ValidationError("input must be two logical bits")
    k = int(input_bits, 2)
    e = np.zeros(4, dtype=complex)
    e[k] = 1.0
    xc = linalg.tensor(linalg.expm_hermitian(linalg.SIGMA_X, np.pi / 4), linalg.ID2)
    return CNOT_LOGICAL @ (xc @ e)
