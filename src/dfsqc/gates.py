"""Logical gate set and the pulse compiler for circuits of x and CNOT gates.

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

A compiled circuit is a plain list of :class:`PulseOp`, ``ops[0]`` first;
:func:`pulse_unitary` builds a pulse on ``n_ions`` ions, refusing any other.
``compile_cnot`` emits a fixed nine-pulse list: a Ramsey x pulse on
the target, the phase gate split into two halves around a spin echo on
both pairs, a closing echo on the control so its frame returns, and a
composite z-x-z Ramsey pulse on the target.  The angle table was solved
so the composition reproduces ``CNOT_LOGICAL`` exactly (up to a global
phase) and is regression-tested against that matrix.  ``circuit_unitary``
gives a circuit's ideal; with the roles swapped, the CNOT is that matrix
with the rows and columns of ``|01>`` and ``|10>`` exchanged.
"""

from __future__ import annotations

import collections
import operator
from typing import Optional

import numpy as np

from . import linalg
from .encoding import LogicalRegister
from .errors import LayoutError, ValidationError, finite

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


#: Durations of the MS and CP pulses, seconds: one closed motional loop,
#: ``2 pi / delta``, at the detunings ``delta = 2 pi * 7 kHz`` and
#: ``2 pi / 470 us``.  A pulse's unitary depends only on its angle, so
#: these times are sequence metadata.
TAU_MS = 2 * np.pi / (2 * np.pi * 7_000.0)
TAU_CP = 2 * np.pi / (2 * np.pi / 470e-6)


class PulseOp(collections.namedtuple("PulseOp", "kind targets angle phase duration")):
    """One physical pulse: kind, addressed ions, angle and axis phase; a
    tuple checked when built (``_replace`` and ``_make`` check nothing).

    ``duration`` is timing metadata for sequence reports; the unitary of
    the op does not depend on it.
    """

    __slots__ = ()

    def __new__(cls, kind: str, targets, angle: float, phase: float = 0.0,
                duration: float = 0.0):
        if kind not in _KINDS:
            raise ValidationError(f"unknown pulse kind {kind!r}")
        try:
            targets = tuple(map(operator.index, targets))
        except TypeError:
            raise ValidationError("targets must be integer ion indices, "
                                  f"got {targets!r}") from None
        finite("angle", angle)
        finite("phase", phase)
        finite("duration", duration)
        if kind == AC_STARK_Z:
            if len(targets) != 1:
                raise ValidationError(f"{kind} addresses exactly one ion")
        else:
            if len(targets) != 2 or abs(targets[0] - targets[1]) != 1:
                raise ValidationError(f"{kind} addresses exactly two adjacent ions")
        return super().__new__(cls, kind, targets, angle, phase, duration)

    def to_json(self) -> dict:
        return {"kind": self.kind, "targets": list(self.targets),
                "angle": self.angle, "phase": self.phase,
                "duration": self.duration}


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
    Any weighted ion outside ``range(n_ions)`` is a :class:`LayoutError`.
    """
    if weights is None:
        weights = {t: 1.0 for t in op.targets}
    if any(not 0 <= i < n_ions for i in weights):
        raise LayoutError(
            f"op targets {op.targets} outside the {n_ions}-ion register")
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


def sequence_unitary(ops: list, n_ions: int) -> np.ndarray:
    """Product of the pulse unitaries on ``n_ions`` ions, ``ops[0]`` rightmost."""
    u = np.eye(2 ** n_ions, dtype=complex)
    for op in ops:
        u = pulse_unitary(op, n_ions) @ u
    return u


def z_pulse(theta: float, logical_qubit: int,
            register: LogicalRegister) -> PulseOp:
    _check_lq(logical_qubit, register)
    ion = register.pairs[logical_qubit][1]
    return PulseOp(AC_STARK_Z, (ion,), theta, 0.0, 0.0)


def ms_pulse(theta: float, logical_qubit: int, register: LogicalRegister,
             axis_phase: float = 0.0) -> PulseOp:
    _check_lq(logical_qubit, register)
    pair = register.pairs[logical_qubit]
    if abs(pair[0] - pair[1]) != 1:
        raise LayoutError("MS pulse needs an adjacent ion pair")
    return PulseOp(MS_ROTATION, pair, theta, axis_phase, TAU_MS)


def cp_pulse(theta: float, pair, register: LogicalRegister) -> PulseOp:
    lq1, lq2 = sorted(int(q) for q in pair)
    _check_lq(lq1, register)
    _check_lq(lq2, register)
    if lq2 - lq1 != 1:
        raise LayoutError("phase gate requires adjacent logical qubits")
    center = (register.pairs[lq1][1], register.pairs[lq2][0])
    if abs(center[0] - center[1]) != 1:
        raise LayoutError(
            f"center ions {center} of logical pair ({lq1}, {lq2}) are not adjacent")
    return PulseOp(CP_GATE, center, theta, 0.0, TAU_CP)


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


def compile_cnot(control: int, target: int,
                 register: LogicalRegister) -> list:
    """The nine pulses realizing ``CNOT_LOGICAL`` on (control, target).

    The phase gate is split into two halves around a spin-echo x pulse on
    both logical qubits; a second echo pulse on the control closes its
    frame (a single pi rotation would leave the control flipped, which
    the target's enclosing Ramsey pulses absorb but nothing on the
    control side would).  The final y-axis Ramsey rotation is composed
    as z-x-z because the collective-spin axis phase has no effect inside
    the encoded subspace.
    """
    if control == target:
        raise LayoutError("control and target must differ")
    a = CNOT_ANGLES
    return [
        ms_pulse(a["ramsey_x"], target, register),
        cp_pulse(a["cp_half"], (control, target), register),
        ms_pulse(a["echo"], control, register),
        ms_pulse(a["echo"], target, register),
        cp_pulse(a["cp_half"], (control, target), register),
        ms_pulse(a["echo"], control, register),
        z_pulse(a["composite_z1"], target, register),
        ms_pulse(a["composite_x"], target, register),
        z_pulse(a["composite_z2"], target, register),
    ]


def circuit_unitary(circuit) -> np.ndarray:
    """Ideal logical unitary of a circuit on qubits 0 and 1, gates first to
    last: ``("x", q, angle)`` is ``exp(-i angle/2 sigma_x)`` on qubit ``q``,
    as :func:`ms_pulse` on its pair, and ``("cnot", 0, 1)`` is
    ``CNOT_LOGICAL``, with ``("cnot", 1, 0)`` its rows and columns of
    ``|01>`` and ``|10>`` exchanged, the qubit swap's conjugation; any other
    gate is a :class:`LayoutError`."""
    u = np.eye(4, dtype=complex)
    for gate in circuit:
        kind, q, arg = gate  # arg: the x angle or the CNOT target
        if kind == "x" and q in (0, 1):
            sx = linalg.pauli_string("IX" if q else "XI")
            u = (np.cos(arg / 2) * np.eye(4) - 1j * np.sin(arg / 2) * sx) @ u
        elif kind == "cnot" and (q, arg) in ((0, 1), (1, 0)):
            order = [0, 2, 1, 3] if q else [0, 1, 2, 3]
            u = CNOT_LOGICAL[np.ix_(order, order)] @ u
        else:
            raise LayoutError(f"no gate {gate!r} on logical qubits 0 and 1")
    return u


def compile_circuit(circuit, register: LogicalRegister) -> list:
    """Pulse list of a circuit on ``register``: :func:`ms_pulse` for each x
    gate, :func:`compile_cnot`'s for each CNOT, else a :class:`LayoutError`."""
    ops = []
    for kind, q, arg in circuit:
        if kind not in ("x", "cnot"):
            raise LayoutError(f"unknown gate {kind!r}")
        ops += ([ms_pulse(arg, q, register)] if kind == "x"
                else compile_cnot(q, arg, register))
    return ops
