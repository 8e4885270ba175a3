"""Loop implementations of the tomography estimators, kept as test oracles.

These are the direct, slow forms: one dense rotation per setting, one
Pauli string at a time for linear inversion, double loops over the chi
basis, and the shot stream in Python integers, one uniform at a time.  The Haar figures are here twice: sampled, with every state's
``E(psi)`` built at once through the chi superoperator, and in closed
form.  ``tests/test_tomography_oracle.py`` checks the vectorized code in
:mod:`dfsqc.tomography` against them.
"""

import itertools
import random

import numpy as np

from dfsqc import linalg
from dfsqc.tomography import (BASIS_LETTERS, MEASUREMENT_ROTATIONS,
                              chi_basis_labels)


def all_settings(n_ions):
    """The ``3^n`` per-ion basis labels, in the row order of the data."""
    return ["".join(c) for c in itertools.product(BASIS_LETTERS, repeat=n_ions)]


def setting_rotation(setting):
    return linalg.tensor(*[MEASUREMENT_ROTATIONS[c] for c in setting])


def measurement_probabilities(rho, setting):
    u = setting_rotation(setting)
    probs = np.real(np.einsum("ij,jk,ik->i", u, rho, u.conj()))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def parity_signs(n, support_mask):
    b = np.arange(2 ** n)
    masked = b & support_mask
    parity = np.zeros(2 ** n, dtype=int)
    m = masked
    while np.any(m):
        parity ^= m & 1
        m >>= 1
    return 1.0 - 2.0 * parity


MASK64 = 2 ** 64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state):
    """SplitMix64's finaliser of a 64-bit state (Steele, Lea & Flood,
    OOPSLA 2014); ``splitmix64(k * GAMMA)`` is the ``k``-th output of the
    generator seeded with 0."""
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def stream_key(seed):
    """The 64-bit key of a seed, an int or a tuple of ints, from its text."""
    parts = seed if isinstance(seed, tuple) else (seed,)
    return random.Random("/".join(str(p) for p in parts)).getrandbits(64)


def stream_integers(seed, start, n):
    """Draws ``start`` to ``start + n - 1`` of the shot stream of ``seed``:
    draw ``i`` is the 53-bit integer ``mix(key + (i + 1) * gamma) >> 11``."""
    key = stream_key(seed)
    return np.array([splitmix64((key + (i + 1) * GAMMA) & MASK64) >> 11
                     for i in range(start, start + n)], dtype=np.uint64)


def stream_uniforms(seed, start, n):
    """Uniforms ``start`` to ``start + n - 1`` of the shot stream of
    ``seed``: uniform ``i`` is draw ``i`` times ``2^-53``."""
    return stream_integers(seed, start, n) * 2.0 ** -53


def inverse_cdf_counts(probs, uniforms):
    """Counts of one setting from its own uniforms: each is binned by the
    cumulative sums, and one past the last edge goes to the last outcome
    of nonzero probability."""
    counts = np.zeros(len(probs), dtype=int)
    edges = np.cumsum(probs)
    last = int(np.flatnonzero(probs)[-1])
    for u in uniforms:
        counts[min(int(np.searchsorted(edges, u, side="right")), last)] += 1
    return counts


def linear_inversion(freq):
    """Every Pauli-string expectation averaged over the matching settings;
    ``freq`` has one row per setting, in ``all_settings`` order."""
    dim = freq.shape[1]
    n = dim.bit_length() - 1
    settings = all_settings(n)
    assert freq.shape == (len(settings), dim)
    rho = np.zeros((dim, dim), dtype=complex)
    for letters in itertools.product("IXYZ", repeat=n):
        support = [(i, c) for i, c in enumerate(letters) if c != "I"]
        if not support:
            rho += np.eye(dim, dtype=complex)
            continue
        mask = 0
        for i, _ in support:
            mask |= 1 << (n - 1 - i)
        signs = parity_signs(n, mask)
        matching = [r for r, s in enumerate(settings)
                    if all(s[i] == c for i, c in support)]
        expval = float(np.mean(freq[matching] @ signs))
        rho += expval * linalg.pauli_string("".join(letters))
    return rho / dim


def chi_basis(n_logical):
    """Operator basis of the chi representation, shape (4^n, 2^n, 2^n)."""
    return np.stack([linalg.pauli_string(lbl)
                     for lbl in chi_basis_labels(n_logical)])


def superoperator(entries, n_logical):
    ops = chi_basis(n_logical)
    d = ops.shape[1]
    s = np.zeros((d * d, d * d), dtype=complex)
    for m in range(len(ops)):
        for n in range(len(ops)):
            s += entries[m, n] * np.kron(ops[m], ops[n].conj())
    return s


def chi_superoperator(chi):
    """Row-major superoperator of a ``(4^n, 4^n)`` chi over ``chi_basis(n)``:
    ``E(rho) = (S @ rho.ravel()).reshape(d, d)``."""
    ops = chi_basis((len(chi).bit_length() - 1) // 2)
    d = ops.shape[1]
    s = np.einsum("mn,mij,nkl->ikjl", chi, ops, ops.conj(), optimize=True)
    return s.reshape(d * d, d * d)


def haar_states(dim, n, rng):
    """Batch of Haar-random pure states, shape (n, dim): normalized complex
    Gaussians, each drawn as interleaved real and imaginary parts."""
    z = rng.standard_normal((n, 2 * dim)).view(complex)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def batched_figures(sop, ideal, psi):
    """Permanence ``tr E(psi)`` and overall fidelity
    ``<U psi| E(psi) |U psi>`` of a batch of pure states."""
    n, d = psi.shape
    out = ((psi[:, :, None] * psi.conj()[:, None, :]).reshape(n, -1)
           @ sop.T).reshape(n, d, d)
    phi = psi @ ideal.T
    return (np.real(np.einsum("nii->n", out)),
            np.real(np.einsum("ni,nij,nj->n", phi.conj(), out, phi)))


def haar_report(chi, ideal, n_samples, seed):
    """Haar figures of ``dfsqc.tomography.haar_report`` estimated from
    ``n_samples`` states, with their sampling errors as ``*_stderr``."""
    rng = np.random.default_rng(seed)
    perm, overall = batched_figures(chi_superoperator(chi), ideal,
                                    haar_states(ideal.shape[0], n_samples, rng))
    rt = np.sqrt(float(n_samples))
    mean_perm = float(np.mean(perm))
    fid = float(np.mean(overall)) / mean_perm
    return {
        "mean_gate_fidelity": fid,
        "mean_gate_fidelity_stderr": float(
            np.std(overall - fid * perm, ddof=1) / (rt * mean_perm)),
        "mean_permanence": mean_perm,
        "mean_permanence_stderr": float(np.std(perm, ddof=1) / rt),
        "mean_overall": float(np.mean(overall)),
        "mean_overall_stderr": float(np.std(overall, ddof=1) / rt),
    }


def trace_map(entries, n_logical):
    """``W = sum_mn chi_mn A_n+ A_m``, so that ``tr E(rho) = tr(W rho)``."""
    ops = chi_basis(n_logical)
    d = ops.shape[1]
    acc = np.zeros((d, d), dtype=complex)
    for m in range(len(ops)):
        for n in range(len(ops)):
            acc += entries[m, n] * linalg.dag(ops[n]) @ ops[m]
    return acc


def trace_preservation_residual(entries, n_logical):
    d = 2 ** n_logical
    return float(np.max(np.abs(trace_map(entries, n_logical) - np.eye(d))))


def haar_mean_permanence(entries):
    """Haar mean of ``tr E(psi)``: ``tr W / d``, which is ``tr chi``."""
    return float(np.trace(entries).real)


def haar_mean_overall(entries, ideal_entries):
    """Haar mean of ``<U psi| E(psi) |U psi>`` for a chi over the Pauli
    basis of dimension ``d``: ``(d tr(chi_ideal chi) + tr chi) / (d + 1)``
    (Nielsen, quant-ph/0205035), trace-decreasing or not."""
    d = int(round(np.sqrt(entries.shape[0])))
    overlap = np.trace(ideal_entries @ entries).real
    return float((d * overlap + np.trace(entries).real) / (d + 1))


def chi_linear_solve(inputs, outputs, n_logical):
    ops = chi_basis(n_logical)
    n_ops = len(ops)
    d = ops.shape[1]
    rows = []
    for rho in inputs:
        cols = np.empty((n_ops * n_ops, d * d), dtype=complex)
        for m in range(n_ops):
            left = ops[m] @ rho
            for n in range(n_ops):
                cols[m * n_ops + n] = (left @ linalg.dag(ops[n])).reshape(-1)
        rows.append(cols.T)
    mat = np.vstack(rows)
    b = np.concatenate([np.asarray(o, dtype=complex).reshape(-1) for o in outputs])
    sol = np.linalg.lstsq(mat, b, rcond=None)[0]
    return sol.reshape(n_ops, n_ops)
