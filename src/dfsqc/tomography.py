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

over the fixed logical Pauli basis ``A = {I,X,Y,Z} (x) {I,X,Y,Z}``, by a
fixed per-qubit contraction of the 16 output blocks: each qubit's inputs
``|0>, |1>, |+>, |+i>`` span its operators, with a known inverse frame.
Every step is linear in the outcome frequencies, so ``chi`` estimates the
trace-decreasing map ``rho_L -> P E(rho_L) P`` onto the encoded block, and
``tr chi`` is the mean permanence (Nielsen, quant-ph/0205035).  A ``chi``
is a plain ``(4^n, 4^n)`` complex array; qubit counts come from shapes.

The data of one state is a float array of outcome frequencies ``f[s, b]``,
shape ``(3^n, 2^n)``: one row per setting, the per-ion basis letters
``XYZ`` in lexicographic order, one column per outcome bitstring.  Measurements are products over ions,
so state tomography is a per-ion contraction with the single-ion effects
``E[s, b] = R_s+ |b><b| R_s``.  Linear inversion is ``3^-n sum_sb f[s, b]
(x)_k (3 E[s_k, b_k] - 1)``: the all-settings classical-shadow estimator
(Huang, Kueng & Preskill, arXiv:2002.08953).  Shots are drawn by
inverse-CDF sampling, so rounding of the state moves a count only at a
bin edge, and all settings of one state share one random stream, each
taking its own fixed run of ``shots`` uniforms; they are drawn and
binned a block of settings at a time, at most ``2^13`` draws but at
least one setting, by one sort and one binary search of the block's bin
edges.  The stream is counter-based SplitMix64 (Steele, Lea & Flood,
OOPSLA 2014) in numpy: uniform ``i`` is a fixed mix of ``key + (i + 1) *
gamma``, with the 64-bit ``key`` hashed by ``random`` from the seed's
text, so drawing needs neither ``numpy.random`` nor OpenSSL.

The Haar figures average the permanence ``tr E(psi)`` and the overall
fidelity ``<U psi| E(psi) |U psi>`` over pure logical inputs.  Both means
are linear in ``chi`` and read off it in closed form, with no sampling;
the mean gate fidelity is their ratio, the fidelity within the subspace.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Optional, Sequence

import numpy as np

from . import linalg
from .encoding import MIN_PERMANENCE, LogicalRegister, restrict_to_dfs
from .errors import DimensionError, EmptySubspaceError, ValidationError

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

_PAULI = np.stack([linalg.PAULIS[c] for c in "IXYZ"])
#: Per-qubit frame of the preparation states ``rho_q`` (``|0>, |1>, |+>,
#: |+i>``): ``|j><l| = sum_q F[j, l, q] rho_q``.
_FRAME = np.array([[(1, 0, 0, 0), (-(1 + 1j) / 2, -(1 + 1j) / 2, 1, 1j)],
                   [(-(1 - 1j) / 2, -(1 - 1j) / 2, 1, -1j), (0, 1, 0, 0)]])
# Tables of _contract_ions: the chi fit, axes (m, n, (q, i), k), summing
# conj(A_m[i, j]) F[j, l, q] A_n[k, l] / 4 over (j, l), and the Pauli
# coefficients conj(A_m[i, j]) / 2 of a unitary, axes (m, 0, i, j).
_CHI = (_PAULI.conj()[:, None, None, :, None, :, None]
        * _FRAME.transpose(2, 0, 1)[:, None, None, :, :]
        * _PAULI[:, None, None, :, None, :]).sum(axis=(5, 6)).reshape(
            4, 4, 8, 2) / 4
_COEFF = _PAULI.conj()[:, None] / 2


def _contract_ions(t: np.ndarray, tables: Sequence[np.ndarray]) -> np.ndarray:
    """``out[a.., b..] = sum t[c.., d..] prod_k tables[k][a_k, b_k, c_k, d_k]``
    for matrices whose row and column indices each run over all ions."""
    n = len(tables)
    t = t.reshape([tb.shape[2] for tb in tables] + [tb.shape[3] for tb in tables])
    for k, table in enumerate(tables):  # ion k's (c, d) are axes 0, n - k
        t = np.tensordot(t, table, axes=([0, n - k], [2, 3]))
    t = t.transpose(*range(0, 2 * n, 2), *range(1, 2 * n, 2))
    return t.reshape(-1, np.prod(t.shape[n:], dtype=int))


#: Draws :func:`_draw_counts` bins at once, 64 kB, but at least one row's.
_DRAW_CHUNK = 2 ** 13
#: SplitMix64's increment, the odd integer nearest ``2^64`` over the golden
#: ratio, and the two multipliers of its finaliser.
_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _stream_key(seed) -> int:
    """64-bit key of the stream of ``seed``, an int or a tuple of ints:
    ``random.Random(text).getrandbits(64)`` of the seed's text, its ints
    joined by ``/``, so ``(7, 3)`` keys as ``"7/3"``.  ``random`` hashes a
    text seed with the interpreter's own SHA-512, with no OpenSSL."""
    parts = seed if type(seed) is tuple else (seed,)
    if not parts or not all(isinstance(p, (int, np.integer))
                            and not isinstance(p, bool) for p in parts):
        raise ValidationError(
            f"seed must be an int or a tuple of ints, got {seed!r}")
    return random.Random("/".join(str(int(p)) for p in parts)).getrandbits(64)


def _stream_uniforms(key: int, start: int, size: int) -> np.ndarray:
    """Draws ``start`` to ``start + size - 1``, a flat uint64 array, of the
    counter-based SplitMix64 stream of ``key`` (Steele, Lea & Flood, OOPSLA
    2014): draw ``i`` is the 53-bit integer ``k = mix(key + (i + 1) * gamma)
    >> 11``, the uniform ``k * 2^-53`` in ``[0, 1)``, with ``mix`` the
    generator's finaliser and all arithmetic modulo ``2^64``.  Each draw
    depends on its index alone, so any window of the stream is computed on
    its own.  Every uint64 operation is on arrays, which wrap without the
    warning a numpy scalar gives on overflow."""
    z = np.arange(1, size + 1, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64((key + start * _GAMMA) % 2 ** 64)
    t = np.empty_like(z)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, shift, out=t)
        z ^= t
        z *= np.uint64(mult)
    np.right_shift(z, 31, out=t)
    z ^= t
    z >>= 11
    return z


def _draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Counts of each row of ``probs`` by inverse-CDF sampling from the one
    SplitMix64 stream of ``seed`` (:func:`_stream_key`,
    :func:`_stream_uniforms`): row ``i`` bins uniforms ``i*shots`` to
    ``(i+1)*shots - 1``, so a change to one row's probabilities moves no
    other row's counts, and a rounding-level change moves a count only if
    a draw falls within rounding of a bin edge.  Draws past the last edge
    (the sum may fall short of one) go to the last outcome of nonzero
    probability.

    A uniform ``k 2^-53`` is at or above a cumulative sum ``e`` exactly when
    ``k >= ceil(e 2^53)``.  Up to 1024 rows at a time, each row's ``k`` are
    sorted and lifted by ``r 2^54`` (row ``r`` of the block), so one
    ``searchsorted`` of the lifted edges, clipped to ``[0, 2^53]``, counts
    the draws below every edge.  With ``past[j]`` the draws at or above the
    edge ending at outcome ``j - 1``, outcome ``j`` counts ``past[j] -
    past[j + 1]``; a zero-probability outcome repeats the edge before it and
    so counts nothing.  The block size moves no count."""
    if shots < 1:
        raise ValidationError("shots must be at least 1")
    key = _stream_key(seed)
    rows, n = probs.shape
    edges = np.clip(np.ceil(np.cumsum(probs, axis=1) * 2.0 ** 53), 0, 2.0 ** 53)
    edges = edges.astype(np.uint64)
    past = np.empty((rows, n + 1), dtype=np.int64)
    past[:, 0] = shots
    step = min(2 ** 10, max(1, _DRAW_CHUNK // shots))
    lift = np.arange(step, dtype=np.uint64)[:, None] << np.uint64(54)
    for lo in range(0, rows, step):
        m = min(step, rows - lo)
        block = _stream_uniforms(key, lo * shots, m * shots).reshape(m, shots)
        block.sort(axis=1)
        block += lift[:m]
        below = np.searchsorted(block.reshape(-1), edges[lo:lo + m] + lift[:m])
        past[lo:lo + m, 1:] = np.arange(shots, (m + 1) * shots, shots)[:, None] - below
    counts = past[:, :-1] - past[:, 1:]
    top = n - 1 - np.argmax(probs[:, ::-1] > 0, axis=1)
    counts[np.arange(rows), top] = past[np.arange(rows), top]
    return counts


def acquire_dataset(rho: np.ndarray, shots: Optional[int],
                    seed=None) -> np.ndarray:
    """Outcome frequencies of a state in every setting, shape ``(3^n, 2^n)``,
    with rows in lexicographic setting order (ion 0's letter most significant).

    ``shots=None`` gives the exact outcome distributions.  Otherwise every
    setting draws its shots from the one SplitMix64 stream of ``seed``, an
    int or a tuple of ints (:func:`_draw_counts`), setting ``i`` taking
    uniforms ``i*shots`` to ``(i+1)*shots - 1``, and its row is ``counts /
    shots``, so sampling needs a seed.
    """
    n = linalg.n_qubits(rho.shape, 2, 2)
    probs = np.real(_contract_ions(rho, [_BORN] * n))
    if probs.min() < -1e-9:
        raise ValidationError(
            f"negative outcome probability {probs.min():.3e} below -1e-9")
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum(axis=1, keepdims=True)
    if shots is None:
        return probs
    return _draw_counts(probs, shots, seed) / shots


def linear_inversion(freq: np.ndarray) -> np.ndarray:
    """Raw density matrix ``3^-n sum_sb f[s, b] (x)_k (3 E[s_k, b_k] - 1)``.

    This averages every Pauli-string expectation over all settings whose
    basis letters match on the string's support; with exact frequencies
    the result equals the true state.
    """
    n = linalg.n_qubits(freq.shape, 3, 2)
    return _contract_ions(freq, [_DUAL] * n) / 3 ** n


# ---------------------------------------------------------------------------
# Process matrix

def chi_basis_labels(n_logical: int = 2) -> list:
    return ["".join(c) for c in itertools.product("IXYZ", repeat=n_logical)]


def chi_from_unitary(u: np.ndarray) -> np.ndarray:
    """Rank-one chi matrix of a unitary channel: the outer product of its
    Pauli coefficients ``tr(A_m+ u) / d``, one :data:`_COEFF` per qubit."""
    n = linalg.n_qubits(u.shape, 2, 2)
    coeff = _contract_ions(u, [_COEFF] * n)[:, 0]
    return np.outer(coeff, coeff.conj())


def _mean_permanence(chi: np.ndarray) -> float:
    """``Re tr chi``, the mean permanence, which every figure of ``chi``
    divides by; at or below ``MIN_PERMANENCE``, :class:`EmptySubspaceError`."""
    w = float(np.real(np.trace(chi)))
    if w <= MIN_PERMANENCE:
        raise EmptySubspaceError(
            f"mean permanence {w:.3e} is not above {MIN_PERMANENCE}",
            permanence=max(w, 0.0))
    return w


def chi_negative_mass(chi: np.ndarray) -> float:
    """Negative eigenvalue mass of the Hermitian part of ``chi`` over its
    trace, ``0.0`` for a completely positive ``chi``; shape and mean
    permanence are refused as by :func:`process_fidelity`."""
    linalg.n_qubits(chi.shape, 4, 4)
    _mean_permanence(chi)
    evals = np.linalg.eigh((chi + linalg.dag(chi)) / 2)[0]
    return float((np.clip(evals, 0.0, None) - evals).sum() / evals.sum())


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Process fidelity ``tr(chi_ideal chi) / tr chi`` against a unitary's
    trace-one ``chi_ideal``: the overlap within the encoded block, whatever
    weight leaks out of it.  Two chi not both ``(4^n, 4^n)`` raise
    :class:`DimensionError`, a mean permanence ``tr chi`` at or below
    ``MIN_PERMANENCE`` :class:`EmptySubspaceError`."""
    linalg.n_qubits(chi.shape + chi_ideal.shape, 4, 4, 4, 4)  # one n for both
    _mean_permanence(chi)
    return float(np.real(np.trace(chi_ideal @ chi) / np.trace(chi)))


def preparation_states(n_logical: int = 2) -> np.ndarray:
    """The informationally complete input set, per qubit ``|0>, |1>, |+>,
    |+i>``, qubit 0 most significant: the rows of a ``(4^n, 2^n)`` array."""
    single = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0j]])
    single[2:] /= np.sqrt(2)
    return np.stack([linalg.tensor(*combo) for combo
                     in itertools.product(single, repeat=n_logical)])


def chi_linear_solve(outputs: np.ndarray) -> np.ndarray:
    """The one chi whose ``sum_mn chi_mn A_m rho_q A_n+`` is ``outputs[q]``
    for each input ``rho_q`` of :func:`preparation_states`, the stack
    ``outputs`` of shape ``(4^n, 2^n, 2^n)``: per qubit ``|j><l| = sum_q
    F[j, l, q] rho_q`` (:data:`_FRAME`), so ``E(|j><l|)`` is that sum of
    outputs, and ``chi_mn = sum conj(A_m[i, j]) E(|j><l|)[i, k] A_n[k, l] /
    d^2`` is one per-qubit contraction (:data:`_CHI`)."""
    n = linalg.n_qubits(outputs.shape, 4, 2, 2)
    t = outputs.reshape((4,) * n + (2,) * (2 * n)).transpose(
        *[a for k in range(n) for a in (k, n + k)], *range(2 * n, 3 * n))
    return _contract_ions(t, [_CHI] * n)


def process_tomography(channel: Callable[[np.ndarray], np.ndarray],
                       register: LogicalRegister, shots: Optional[int] = None,
                       seed=None) -> tuple:
    """Reconstruct the chi matrix of a black-box channel on the logical space.

    ``channel`` is called once, with the stack of all logical input density
    matrices, shape ``(k, 2^n, 2^n)``, and returns the stack of physical
    outputs of ``register``, shape ``(k, 4^n, 4^n)``.  With ``shots`` each
    output goes through measurement simulation at ``shots`` per setting
    (sampling needs a ``seed``) and linear inversion; with ``None`` it is
    used exactly.  Each output's block on the encoded subspace, neither
    projected nor renormalized, is the data of the chi fit, and its trace
    the input's permanence.  Returns ``(chi, permanences)``: the linear
    chi estimate, a ``(4^n, 4^n)`` Pauli-basis array, and the
    permanence of each input in :func:`preparation_states` order.  The
    fit is linear in the frequencies, so chi may carry small negative
    eigenvalues, and ``tr chi`` is the mean permanence.
    """
    if shots is not None and seed is None:
        raise ValidationError("a seed is required for reproducible sampling")
    vecs = preparation_states(register.n_logical)
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
    chi = chi_linear_solve(blocks)
    _mean_permanence(chi)
    return chi, np.real(np.trace(blocks, axis1=1, axis2=2))


# ---------------------------------------------------------------------------
# Haar-averaged figures of merit

def haar_report(chi: np.ndarray, chi_ideal: np.ndarray) -> dict:
    """Mean permanence, mean gate fidelity and mean overall fidelity over
    Haar-random pure logical inputs, exactly (Nielsen, quant-ph/0205035).

    With ``d = 2^n`` and ``F`` the :func:`process_fidelity` against the
    unitary's ``chi_ideal``, the mean permanence ``tr E(psi)`` is ``tr chi``,
    the mean gate fidelity within the subspace is ``(d F + 1) / (d + 1)``,
    and the mean overall fidelity ``<U psi| E(psi) |U psi>`` is their
    product, ``(d tr(chi_ideal chi) + tr chi) / (d + 1)``.  A mean
    permanence at or below ``MIN_PERMANENCE``, which a shot-noisy ``chi``
    can give, raises :class:`EmptySubspaceError`, and a wrong shape
    :class:`DimensionError`, as in :func:`process_fidelity`.
    """
    d = 2 ** linalg.n_qubits(chi.shape + chi_ideal.shape, 4, 4, 4, 4)  # one n
    mean_perm = _mean_permanence(chi)
    fid = (d * process_fidelity(chi, chi_ideal) + 1) / (d + 1)
    return {"mean_gate_fidelity": fid, "mean_permanence": mean_perm,
            "mean_overall": mean_perm * fid}
