"""Direct, slow forms of the motional dynamics and of the noise shots,
kept as test oracles, and small helpers the tests share.

:func:`oracle_propagator` is the dense propagator of the driven
oscillator on the truncated spin (x) oscillator space, from one
:func:`expm_hermitian` in the interaction frame, and
:func:`kraus_infidelity` the average infidelity of the spin channel it
embeds; :func:`oracle_scan` is the timing scan they give, which the tests
check ``dfsqc.motional.off_resonant_error_scan`` against.
:func:`midpoint_propagator` multiplies out dense matrix exponentials of
the time-dependent Hamiltonian, one per step, with no use of the
interaction frame; the tests check that it converges to the oracle at
second order in the step.  :func:`dense_collective_phase` is the dense
collective phase and :func:`quadrature_dephasing` its Gaussian average
by quadrature.  :func:`quadrature_channel` is the noisy channel with
every Gaussian average done by quadrature: each jittered z pulse is
rebuilt at the node angles, one pulse at a time, and the collective
phase is averaged last; the tests check
``dfsqc.noise.sample_noisy_channel`` and
``dfsqc.encoding.collective_dephasing`` against them.
:func:`shot_unitaries` multiplies out every noisy pulse of every
Monte-Carlo shot, rebuilding each jittered z pulse at its drawn angle,
and :func:`noisy_channel` averages the shots; the tests check that this
sampled mean converges to the exact channel.
:func:`max_phase_diff` and :func:`unitary_trace_distance` compare two
matrices or states up to a global phase, and :func:`sequence_from_json`
reads back a ``dump-sequence`` document.  :func:`logical_basis_index`
spells out one encoded basis index ion by ion; the tests check
``dfsqc.encoding.logical_basis_indices`` and ``encode`` against it.
:func:`expm_hermitian` is the dense matrix exponential the oracles build
on; the package itself writes every unitary in closed form.
"""

from collections import namedtuple

import numpy as np

from dfsqc import linalg
from dfsqc.encoding import LogicalRegister
from dfsqc.errors import DimensionError, ValidationError
from dfsqc.gates import AC_STARK_Z, PulseOp, pulse_unitary
from dfsqc.noise import pulse_weights


def is_hermitian(m, atol=1e-10):
    return bool(np.max(np.abs(m - linalg.dag(m))) <= atol)


def expm_hermitian(h, t=1.0, atol=1e-10):
    """Unitary ``exp(-i t H)`` of a Hermitian ``H`` via eigendecomposition.

    Raises :class:`ValidationError` if ``H`` is not Hermitian within ``atol``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError("expm_hermitian expects a square matrix")
    if not is_hermitian(h, atol):
        raise ValidationError("matrix is not Hermitian within tolerance")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * t * evals)) @ linalg.dag(evecs)


#: Collective spins ``S`` of the two gates: the phase gate and the x-type gate.
SPIN_Z, SPIN_X = (linalg.tensor(p, linalg.ID2) + linalg.tensor(linalg.ID2, p)
                  for p in (linalg.SIGMA_Z, linalg.SIGMA_X))

#: ``H(t) = coupling (a e^{i delta t} + a+ e^{-i delta t}) spin`` on the
#: two-ion spin (x) oscillator space, spin most significant; its loop
#: closes at ``tau = 2 pi / delta``.
Drive = namedtuple("Drive", "spin coupling delta")


def drive(spin, theta, delta):
    """The drive of ``spin`` at ``delta`` whose closed loop is the gate
    ``exp(-i theta S^2)``: ``theta = 2 pi (g / delta)^2``."""
    return Drive(spin, delta * np.sqrt(theta / (2 * np.pi)), delta)


def closed_gate(d):
    """``exp(-i theta S^2)``, the spin gate of the closed loop."""
    theta = 2 * np.pi * (d.coupling / d.delta) ** 2
    return expm_hermitian(d.spin @ d.spin, theta)


def _ladder(n_fock):
    a = np.diag(np.sqrt(np.arange(1, n_fock, dtype=float)), 1).astype(complex)
    return a, np.diag(np.arange(n_fock, dtype=float)).astype(complex)


def hamiltonian(d, t, n_fock):
    """Instantaneous ``H(t)`` on the spin (x) oscillator space."""
    a, _ = _ladder(n_fock)
    return np.kron(d.spin, d.coupling * (a * np.exp(1j * d.delta * t)
                                         + a.conj().T * np.exp(-1j * d.delta * t)))


def oracle_propagator(d, t, n_fock):
    """Time-ordered ``U(t)`` of :func:`hamiltonian`, dense: with
    ``R(t) = exp(-i delta t a+a)``, ``H(t) = R H0 R+`` for
    ``H0 = g S (x) (a + a+)``, so ``U(t) = R(t) exp(-i t (H0 - delta a+a))``."""
    a, n = _ladder(n_fock)
    k = d.coupling * np.kron(d.spin, a + a.conj().T) - d.delta * np.kron(np.eye(4), n)
    r = np.kron(np.eye(4), np.diag(np.exp(-1j * d.delta * t * np.arange(n_fock))))
    return r @ expm_hermitian(k, t)


def midpoint_propagator(d, t, n_steps, n_fock):
    """Product of ``n_steps`` exponentials of ``H`` at the step midpoints."""
    dt = t / n_steps
    u = np.eye(4 * n_fock, dtype=complex)
    for k in range(n_steps):
        u = expm_hermitian(hamiltonian(d, (k + 0.5) * dt, n_fock), dt) @ u
    return u


def midpoint_errors(d, t, steps, n_fock):
    """Largest entry error of the midpoint product against
    :func:`oracle_propagator`, for each step count in ``steps``."""
    exact = oracle_propagator(d, t, n_fock)
    return [float(np.max(np.abs(midpoint_propagator(d, t, n, n_fock) - exact)))
            for n in steps]


def vacuum_block(u, n_fock):
    """Spin block ``<0| U |0>`` of a spin (x) oscillator operator."""
    return u.reshape(4, n_fock, 4, n_fock)[:, 0, :, 0]


def kraus_infidelity(u, ideal, n_fock):
    """Average gate infidelity of the spin channel ``sum_n M_n rho M_n+``,
    ``M_n = <n| U |0>``, against ``ideal``, from
    ``F = (sum_n |tr(V+ M_n)|^2 + d) / (d^2 + d)``; leakage into the
    oscillator counts as error."""
    d = ideal.shape[0]
    m = u.reshape(d, n_fock, d, n_fock)[:, :, :, 0]
    traces = np.einsum("ij,inj->n", ideal.conj(), m)
    return 1.0 - (float(np.sum(np.abs(traces) ** 2)) + d) / (d * d + d)


def oracle_scan(d, fractions, n_fock):
    """``(fraction, infidelity)`` rows of pulses ``(1 + f) tau`` long
    against the closed-loop gate."""
    tau = 2 * np.pi / d.delta
    return [(f, kraus_infidelity(oracle_propagator(d, (1 + f) * tau, n_fock),
                                 closed_gate(d), n_fock))
            for f in fractions]


def phase_aligned(a, b):
    """``b`` times the phase that best aligns it with ``a``, the phase of
    ``tr(b+ a)``."""
    tr = np.trace(b.conj().T @ a) if a.ndim == 2 else np.vdot(b, a)
    if abs(tr) < 1e-14:
        return np.array(b, copy=True)
    return b * (tr / abs(tr))


def unitary_trace_distance(a, b):
    """Half trace-norm distance ``0.5 ||a - b||_1`` after global phase alignment."""
    diff = a - phase_aligned(a, b)
    return float(0.5 * np.sum(np.linalg.svd(diff, compute_uv=False)))


def max_phase_diff(a, b):
    """Largest entrywise deviation of ``b`` from ``a`` up to a global phase."""
    return float(np.max(np.abs(a - phase_aligned(a, b))))


def sequence_from_json(doc):
    """``(ops, register)``: the pulse list and register a ``dump-sequence``
    document describes."""
    return ([PulseOp(**op) for op in doc["ops"]],
            LogicalRegister.from_json(doc["register"]))


def logical_basis_index(register, logical_bits):
    """Physical basis index of the encoded logical state ``logical_bits``,
    spelled out ion by ion: logical ``0`` puts the pair in ``|10>``, ``1``
    in ``|01>``, and the ion digits are read as one binary number."""
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


def collective_z(n_ions):
    """The dense Kronecker sum ``sum_k sigma_z_k``."""
    return sum(linalg.tensor(*[linalg.SIGMA_Z if i == k else linalg.ID2
                               for i in range(n_ions)])
               for k in range(n_ions))


def dense_collective_phase(n_ions, phi):
    """``exp(-i phi/2 sum_k sigma_z_k)`` from the dense Kronecker sum."""
    return expm_hermitian(collective_z(n_ions), phi / 2)


def shot_unitaries(ops, n_ions, model, n_samples, seed):
    """Unitary of the pulse list ``ops`` on ``n_ions`` ions for each
    Monte-Carlo jitter shot, one noisy pulse at a time: shot ``i`` draws
    from ``default_rng((seed, i))`` an angle error per ``ACStarkZ`` pulse in
    order and rebuilds that pulse at its drawn angle; a model without jitter
    is one shot."""
    jitter = model.ac_stark_phase_jitter_std

    def unitary(op):
        return pulse_unitary(op, n_ions, pulse_weights(op, n_ions, model))

    static = [unitary(op) for op in ops]
    shots = []
    for i in range(n_samples if jitter > 0 else 1):
        rng = np.random.default_rng((seed, i))
        u = np.eye(2 ** n_ions, dtype=complex)
        for op, fixed in zip(ops, static):
            if jitter > 0 and op.kind == AC_STARK_Z:
                fixed = unitary(PulseOp(op.kind, op.targets,
                                        op.angle + rng.normal(0.0, jitter),
                                        op.phase, op.duration))
            u = fixed @ u
        shots.append(u)
    return shots


def quadrature_dephasing(rho, std, n_nodes=100):
    """Mean of ``U(phi) rho U(phi)+``, ``U(phi) = exp(-i phi/2 Z)`` from one
    eigendecomposition of the dense Kronecker sum ``Z`` of
    :func:`collective_z`, over a Gaussian ``phi`` of standard deviation
    ``std``, by ``n_nodes``-point Gauss-Hermite quadrature.  100 nodes
    integrate its phase factors to 1e-15 for ``std * |lam_j - lam_k| / 2``
    up to 12."""
    lam, v = np.linalg.eigh(collective_z(rho.shape[-1].bit_length() - 1))
    out = np.zeros_like(rho)
    for x, w in zip(*np.polynomial.hermite.hermgauss(n_nodes)):
        u = (v * np.exp(-0.5j * np.sqrt(2) * std * x * lam)) @ v.conj().T
        out += w / np.sqrt(np.pi) * (u @ rho @ u.conj().T)
    return out


def quadrature_channel(ops, rho, model, n_nodes=30):
    """The noisy channel of ``model`` and the pulse list ``ops`` on a density
    matrix or a stack, its ion count read from the shape, every
    Gaussian average by Gauss-Hermite quadrature: the stack is conjugated by
    each noisy pulse in turn, and a jittered ``ACStarkZ`` pulse is the
    weighted sum over ``n_nodes`` rebuilds at the angles ``angle + sqrt(2)
    std x``, whose diagonal scales the rows and columns.  The jitters are
    independent, so these nested sums equal the product quadrature over
    all jittered pulses.  The collective phase is averaged last by
    :func:`quadrature_dephasing`.  30 nodes integrate the jitter phases to
    1e-15 for ``std * |s_j - s_k| / 2`` up to 4."""
    n_ions = rho.shape[-1].bit_length() - 1
    jitter = model.ac_stark_phase_jitter_std
    x, w = np.polynomial.hermite.hermgauss(n_nodes)

    def unitary(op, angle):
        op = PulseOp(op.kind, op.targets, angle, op.phase, op.duration)
        return pulse_unitary(op, n_ions, pulse_weights(op, n_ions, model))

    for op in ops:
        if jitter > 0 and op.kind == AC_STARK_Z:
            out = np.zeros_like(rho)
            for angle, weight in zip(op.angle + np.sqrt(2) * jitter * x,
                                     w / np.sqrt(np.pi)):
                phases = np.diagonal(unitary(op, angle))  # a z pulse is diagonal
                out += weight * (phases[:, None] * rho * phases.conj())
            rho = out
        else:
            u = unitary(op, op.angle)
            rho = u @ rho @ u.conj().T
    return quadrature_dephasing(rho, model.collective_phase_std)


def noisy_channel(ops, rho, model, n_samples, seed):
    """Mean of ``U rho U+`` over :func:`shot_unitaries` on the ions of
    ``rho``, then averaged over the collective phase by
    :func:`quadrature_dephasing`."""
    n_ions = rho.shape[-1].bit_length() - 1
    shots = shot_unitaries(ops, n_ions, model, n_samples, seed)
    avg = sum(u @ rho @ u.conj().T for u in shots) / len(shots)
    return quadrature_dephasing(avg, model.collective_phase_std)
