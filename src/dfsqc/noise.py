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

Both stochastic terms are random phases on diagonal generators, so a
shot is the products of the static noisy pulses between jittered z
pulses, built once per call, with a phase vector applied to the rows
after each jittered pulse and one for the collective phase at the end.
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

from . import linalg
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
        if not (self.ac_stark_phase_jitter_std >= 0
                and self.collective_phase_std >= 0):
            raise ValidationError("jitter standard deviations must be >= 0")

    @property
    def is_stochastic(self) -> bool:
        return (self.ac_stark_phase_jitter_std > 0
                or self.collective_phase_std > 0)

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        seed = obj.get("seed")
        return cls(**{k: float(v) for k, v in obj.items() if k != "seed"},
                   seed=None if seed is None else int(seed))

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
    return tuple(i for i in (lo - 1, hi + 1) if 0 <= i < n_ions)


def _weights(op: PulseOp, n_ions: int, ratio: float, epsilon: float) -> dict:
    """Weight of the pulse's Pauli on each ion: ``1 + epsilon`` on the first
    addressed ion of a two-ion pulse, 1 on the other addressed ions and
    ``ratio`` on the string neighbors."""
    weights = {t: 1.0 for t in op.targets}
    if op.kind in (MS_ROTATION, CP_GATE):
        weights[op.targets[0]] += epsilon
    for n in string_neighbors(op.targets, n_ions):
        weights[n] = ratio
    return weights


def noisy_op_unitary(op: PulseOp, n_ions: int, ratio: float = 0.0,
                     epsilon: float = 0.0) -> np.ndarray:
    """Unitary of one pulse under coherent crosstalk and imbalance, built by
    :func:`~dfsqc.gates.pulse_unitary` from the pulse's noisy weights."""
    return pulse_unitary(op, n_ions, _weights(op, n_ions, ratio, epsilon))


def _shot_plan(seq: PulseSequence, model: NoiseModel) -> list:
    """The static part of every shot, as ``(product, s)`` pairs applied in
    order: ``product`` is the noisy pulses up to and including a jittered
    ``ACStarkZ`` pulse and ``s`` that pulse's z eigenvalues; a last pair
    with ``s=None`` holds the pulses after the last jittered one."""
    n_ions = seq.register.n_ions
    ratio, epsilon = model.addressing_ratio, model.intensity_imbalance
    plan, u = [], None
    for op in seq.ops:
        static = noisy_op_unitary(op, n_ions, ratio, epsilon)
        u = static if u is None else static @ u
        if model.ac_stark_phase_jitter_std > 0 and op.kind == AC_STARK_Z:
            weights = _weights(op, n_ions, ratio, epsilon)
            plan.append((u, linalg.z_eigenvalues(n_ions, weights)))
            u = None
    if u is not None or not plan:
        plan.append((np.eye(seq.register.dim) if u is None else u, None))
    return plan


def _shot_unitaries(seq: PulseSequence, model: NoiseModel, n_samples: int,
                    seed: Optional[int]):
    """Yield the sequence unitary of each Monte-Carlo shot in order.

    A shot chains the products of :func:`_shot_plan`, scaling the rows by
    ``exp(-i delta/2 s)`` after each jittered pulse and at the end by
    ``exp(-i phi/2 lam)``, ``lam`` the eigenvalues of ``sum_k sigma_z_k``.
    Shot ``i`` draws the angle errors ``delta`` in pulse order, then the
    collective phase ``phi``, from ``default_rng((seed, i))``; with no
    stochastic terms in the model there is a single shot.
    """
    if n_samples < 1:
        raise ValidationError("need at least one sample")
    seed = model.seed if seed is None else seed
    if seed is None:
        raise ValidationError("a seed is required for reproducible sampling")
    if not model.is_stochastic:
        n_samples = 1
    plan = _shot_plan(seq, model)
    n_ions = seq.register.n_ions
    lam = linalg.z_eigenvalues(n_ions, dict.fromkeys(range(n_ions), 1.0))
    for i in range(n_samples):
        rng = np.random.default_rng((seed, i))
        u = None
        for product, s in plan:
            u = product if u is None else product @ u
            if s is not None:
                delta = rng.normal(0.0, model.ac_stark_phase_jitter_std)
                u = np.exp(-0.5j * delta * s)[:, None] * u
        if model.collective_phase_std > 0:
            phi = rng.normal(0.0, model.collective_phase_std)
            u = np.exp(-0.5j * phi * lam)[:, None] * u
        yield u


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
