"""Timing errors of the bichromatic two-ion gates, in closed form.

The gate mechanism is an off-resonantly driven harmonic oscillator with a
spin-dependent force,

    H(t) = g (a e^{i delta t} + a+ e^{-i delta t}) S,

where ``S`` is the collective spin ``sigma_z^(1) + sigma_z^(2)`` (phase
gate) or ``sigma_x^(1) + sigma_x^(2)`` (x-type gate) and ``g`` is a
single composite coupling.  The motional phase-space loop closes after
``tau = 2 pi / delta``, leaving the spin gate ``exp(-i theta S^2)`` with
``theta = 2 pi (g / delta)^2`` (Sorensen & Molmer, PRA 62, 022311).

A pulse of length ``(1 + f) tau`` misses closure.  ``H`` commutes with
``S``, so each eigenvalue ``s`` of ``S`` is a sector of its own, and the
second-order Magnus expansion is exact for a force linear in ``a``.
With ``x = delta t`` the sector's propagator sends the vacuum to

    U_s(t) |0> = exp(-i (g s / delta)^2 (x - sin x)) |alpha_s>,
    |alpha_s|^2 = (g s / delta)^2 |e^{-i x} - 1|^2,

a coherent state with a geometric phase.  Both spin kinds have the
spectrum ``{2, 0, 0, -2}``: the two ``s = 0`` sectors stay in the vacuum
with no phase, and the ``s = +-2`` sectors carry ``alpha_{-2} =
-alpha_2`` with

    A = |alpha|^2 = (8 theta / pi) sin^2(pi f),
    phase = 4 theta + Phi,   Phi = (2 theta / pi)(2 pi f - sin 2 pi f),

where ``4 theta`` is the closed gate's phase on those sectors.  The spin
channel keeps the Kraus operators ``M_n = <n| U |0>``; in the eigenbasis
of ``S`` each is diagonal, and against the closed gate ``V``

    tr(V+ M_n) = 2 [n = 0] + e^{-i Phi} e^{-A/2} (alpha^n + (-alpha)^n) / sqrt(n!).

Summed over ``n``, ``sum_n |tr(V+ M_n)|^2 = 6 + 2 e^{-2A} + 8 e^{-A/2}
cos Phi``, and the average gate fidelity ``(sum_n |tr(V+ M_n)|^2 + d) /
(d^2 + d)`` at ``d = 4`` gives the infidelity

    (10 - 2 e^{-2A} - 8 e^{-A/2} cos Phi) / 20.

It depends on the spin phase and the fraction alone: not on the spin
kind, and not on the detuning.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import ValidationError


def off_resonant_error_scan(spin_phase: float, fractions: Sequence[float]):
    """Gate infidelity when the pulse misses closure by a fraction of ``tau``.

    For each fraction ``f`` in ``(-0.5, 0.5)`` the pulse lasts
    ``(1 + f) tau`` against the closed-loop gate ``exp(-i theta S^2)``,
    ``theta = spin_phase``, with motional leakage counted as error.
    Returns ``(fraction, infidelity)`` rows of the closed form above.
    """
    theta = spin_phase
    if not 0 <= theta < math.inf:
        raise ValidationError(f"spin phase must be finite and >= 0, got {theta}")
    rows = []
    for f in fractions:
        if not -0.5 < f < 0.5:
            raise ValidationError(f"timing fraction {f} outside (-0.5, 0.5)")
        # theta first: at f = 0 a huge theta times the zero sine stays 0
        a = theta * math.sin(math.pi * f) ** 2 * (8 / math.pi)
        overlap = math.exp(-a / 2)
        cross = 0.0
        if overlap:  # an overflowing Phi only comes with an A past e^-745
            phi = theta * (2 * math.pi * f - math.sin(2 * math.pi * f)) * (2 / math.pi)
            cross = 8 * overlap * math.cos(phi)
        rows.append((float(f), (10 - 2 * math.exp(-2 * a) - cross) / 20))
    return rows


def scan_csv_text(rows) -> str:
    """``(fraction, infidelity)`` rows as two-column CSV text: a header,
    then each row's ``repr`` floats, every line ended by ``\\r\\n``.  No
    field needs quoting, so these are the bytes ``csv.writer`` writes."""
    lines = ["fraction,infidelity"]
    lines += [f"{float(f)!r},{float(infid)!r}" for f, infid in rows]
    return "".join(line + "\r\n" for line in lines)
