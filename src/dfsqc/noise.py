"""Coherent and stochastic error models for pulse sequences.

Four error mechanisms are modeled, all as unitaries or mixtures of
unitaries (so every channel is automatically completely positive and
trace preserving):

* addressing crosstalk: residual light on the string neighbors of the
  addressed ions extends the pulse generator to those ions with the
  Rabi-frequency ratio as weight.  For x-type collective pulses this
  drives population out of the protected subspace; for z-type pulses it
  is diagonal and only dephases within it.
* intensity imbalance: the two addressed ions see different Rabi
  frequencies.  The gate is taken as calibrated on the second ion, so
  the first carries weight ``1 + epsilon``; the collective rotation
  angle then scales by ``1 + epsilon`` and the gate error grows
  quadratically in ``epsilon``.
* AC-Stark phase jitter: intensity fluctuations of the far-detuned beam
  make each z-pulse angle jitter, Gaussian per pulse and per shot.
* collective phase noise: a quasi-static random phase common to all
  ions, Gaussian per sequence shot.  States inside the encoded subspace
  are immune by construction.

:func:`sample_noisy_channel` is the one shot average: it applies the
averaged channel to a density matrix or a stack of them, so a set of
inputs shares one pass over the shots.  It is reproducible: shot ``i``
draws from a generator seeded with ``(seed, i)``, so the same seed gives
the same result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .encoding import collective_phase_unitary
from .errors import DimensionError, ValidationError
from .gates import (AC_STARK_Z, CP_GATE, MS_ROTATION, PulseOp,
                    PulseSequence, pulse_unitary, sequence_unitary)


@dataclass(frozen=True)
class NoiseModel:
    """Error-channel parameters attachable to any pulse sequence."""

    addressing_ratio: float = 0.05
    intensity_imbalance: float = 0.0
    ac_stark_phase_jitter_std: float = 0.0
    collective_phase_std: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.addressing_ratio < 1.0:
            raise ValidationError("addressing_ratio must lie in [0, 1)")
        if not self.intensity_imbalance > -1.0:
            raise ValidationError("intensity_imbalance must exceed -1")
        if self.ac_stark_phase_jitter_std < 0 or self.collective_phase_std < 0:
            raise ValidationError("jitter standard deviations must be >= 0")

    @property
    def is_stochastic(self) -> bool:
        return (self.ac_stark_phase_jitter_std > 0
                or self.collective_phase_std > 0)

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        seed = obj.get("seed")
        return cls(
            addressing_ratio=float(obj.get("addressing_ratio", 0.05)),
            intensity_imbalance=float(obj.get("intensity_imbalance", 0.0)),
            ac_stark_phase_jitter_std=float(obj.get("ac_stark_phase_jitter_std", 0.0)),
            collective_phase_std=float(obj.get("collective_phase_std", 0.0)),
            seed=None if seed is None else int(seed),
        )

#: Parameter set used by the noisy demos: crosstalk at the measured 5%
#: Rabi ratio plus jitter magnitudes tuned so the encoded Bell states
#: come out in the high-80s to low-90s fidelity range.  The jitter values
#: are calibration choices of this simulator, not measured quantities.
CALIBRATED_NOISE = NoiseModel(
    addressing_ratio=0.05,
    intensity_imbalance=0.08,
    ac_stark_phase_jitter_std=0.3,
    collective_phase_std=0.3,
    seed=20090,
)


def string_neighbors(targets, n_ions: int) -> tuple:
    """Ions adjacent to the addressed block, clipped to the string."""
    lo, hi = min(targets), max(targets)
    out = []
    if lo - 1 >= 0:
        out.append(lo - 1)
    if hi + 1 < n_ions:
        out.append(hi + 1)
    return tuple(out)


def noisy_op_unitary(op: PulseOp, n_ions: int, ratio: float = 0.0,
                     epsilon: float = 0.0, angle_offset: float = 0.0) -> np.ndarray:
    """Unitary of one pulse under coherent crosstalk and imbalance.

    The pulse's Pauli carries weight ``1 + epsilon`` on the first
    addressed ion of a two-ion pulse, 1 on the other addressed ions and
    ``ratio`` on the string neighbors; :func:`~dfsqc.gates.pulse_unitary`
    builds the unitary from these weights.  ``angle_offset`` adds
    AC-Stark phase jitter to z pulses.
    """
    weights = {t: 1.0 for t in op.targets}
    if op.kind in (MS_ROTATION, CP_GATE):
        weights[op.targets[0]] += epsilon
    for n in string_neighbors(op.targets, n_ions):
        weights[n] = ratio
    offset = angle_offset if op.kind == AC_STARK_Z else 0.0
    return pulse_unitary(op, n_ions, weights, offset)


def _sample_unitary(seq: PulseSequence, model: NoiseModel,
                    static_ops: list, rng: np.random.Generator) -> np.ndarray:
    """One jitter realization of the full sequence unitary."""
    n_ions = seq.register.n_ions
    u = np.eye(seq.register.dim, dtype=complex)
    for op, static in zip(seq.ops, static_ops):
        if static is None:
            offset = rng.normal(0.0, model.ac_stark_phase_jitter_std)
            u = noisy_op_unitary(op, n_ions, model.addressing_ratio,
                                 model.intensity_imbalance, offset) @ u
        else:
            u = static @ u
    if model.collective_phase_std > 0:
        phi = rng.normal(0.0, model.collective_phase_std)
        u = collective_phase_unitary(n_ions, phi) @ u
    return u


def _static_ops(seq: PulseSequence, model: NoiseModel) -> list:
    """Precomputed unitaries for ops that carry no per-shot randomness."""
    jitter_z = model.ac_stark_phase_jitter_std > 0
    out = []
    for op in seq.ops:
        if jitter_z and op.kind == AC_STARK_Z:
            out.append(None)
        else:
            out.append(noisy_op_unitary(op, seq.register.n_ions,
                                        model.addressing_ratio,
                                        model.intensity_imbalance))
    return out


def _shot_unitaries(seq: PulseSequence, model: NoiseModel, n_samples: int,
                    seed: Optional[int]):
    """Yield the sequence unitary of each Monte-Carlo shot in order.

    Shot ``i`` draws from ``default_rng((seed, i))``; with no stochastic
    terms in the model there is a single shot.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    seed = model.seed if seed is None else seed
    if seed is None:
        raise ValidationError("a seed is required for reproducible sampling")
    if not model.is_stochastic:
        n_samples = 1
    static = _static_ops(seq, model)
    for i in range(n_samples):
        yield _sample_unitary(seq, model, static, np.random.default_rng((seed, i)))


def sample_noisy_channel(seq: PulseSequence, rho: np.ndarray,
                         model: Optional[NoiseModel], n_samples: int,
                         seed: Optional[int] = None) -> np.ndarray:
    """Shot-averaged output of the sequence for one or a stack of inputs.

    ``rho`` holds density matrices, shape ``(..., dim, dim)``; each output
    is the mean of ``U rho U+`` over the Monte-Carlo shot unitaries ``U``,
    deterministic for a given ``(seed, parameters)``.  ``model=None`` is
    the ideal sequence: one shot, ``U = sequence_unitary(seq)``, no seed.
    """
    d = seq.register.dim
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (d, d):
        raise DimensionError(
            f"input shape {rho.shape} does not end in the register's ({d}, {d})")
    if model is None:
        shots = [sequence_unitary(seq)]
    else:
        shots = _shot_unitaries(seq, model, n_samples, seed)
    acc = np.zeros_like(rho)
    for n, u in enumerate(shots, 1):
        acc += u @ rho @ u.conj().T
    return acc / n
