"""Canonical converter networks and their closed-form response.

The reduced converter couples an optical resonator mode a and a microwave
resonator mode b through one collective intermediate mode c:

    A = [[0,   s_o, 0  ],
         [s_o, d_mu, s_mu],
         [0,   s_mu, 0  ]],     K = diag(kappa_o, 0, kappa_mu),

in mode order (a, c, b).  In the symmetric resonant case (s_o = s_mu = g,
kappa_o = kappa_mu = kappa, d_mu = 0) the dynamics split into a dark mode
(a - b)/sqrt(2), which never sees c and reflects like a bare resonator,

    r_minus(omega) = (kappa + 2i omega) / (kappa - 2i omega),

and a bright mode (a + b)/sqrt(2) coupled to c with strength g sqrt(2),

    r_plus(omega) = ((kappa + 2i omega) omega - 4i g^2)
                  / ((kappa - 2i omega) omega + 4i g^2).

Interference of the two reflections converts between the ports with efficiency

    eta(omega) = |r_minus - r_plus|^2 / 4,

which reaches 1 exactly at omega = 0 for every kappa, g > 0 (both coefficients
are unimodular there with opposite phase: r_plus(0) = -1, r_minus(0) = +1).
These closed forms are the independent check on the generic scattering engine.

Also provided: the two-mode contrast network (a and b coupled directly with
strength s, both damped) and the residual direct coupling strength left when
both intermediate transitions of an atomic ensemble are far detuned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateParametersError, EmptyEnsembleError, ZeroDetuningError
from .network import CoupledModeNetwork, new_network

if TYPE_CHECKING:  # the ensemble module builds on this one; keep the cycle static-only
    from .ensemble import AtomEnsemble


@dataclass(frozen=True)
class ResonantParams:
    """Symmetric-detuning converter: collective couplings and port dampings."""

    s_o: float
    s_mu: float
    kappa_o: float
    kappa_mu: float


@dataclass(frozen=True)
class DetunedParams(ResonantParams):
    """Converter with the intermediate mode detuned by ``delta_mu``."""

    delta_mu: float = 0.0


def resonant_network(p: ResonantParams) -> CoupledModeNetwork:
    """Three-mode converter network with the intermediate mode on resonance.

    This is :func:`detuned_network` with ``delta_mu = 0``.
    """
    return detuned_network(DetunedParams(p.s_o, p.s_mu, p.kappa_o, p.kappa_mu))


def detuned_network(p: DetunedParams) -> CoupledModeNetwork:
    """Three-mode converter network with intermediate-mode detuning ``delta_mu``."""
    coupling = np.array(
        [
            [0.0, p.s_o, 0.0],
            [p.s_o, p.delta_mu, p.s_mu],
            [0.0, p.s_mu, 0.0],
        ],
        dtype=complex,
    )
    return new_network(("a", "c", "b"), coupling, (p.kappa_o, 0.0, p.kappa_mu))


def two_mode_network(s: float, kappa_o: float, kappa_mu: float) -> CoupledModeNetwork:
    """Two damped modes coupled directly with strength ``s`` (no intermediate mode)."""
    coupling = np.array([[0.0, s], [s, 0.0]], dtype=complex)
    return new_network(("a", "b"), coupling, (kappa_o, kappa_mu))


def reflection_coefficients(omega, g: float, kappa: float):
    """Dark- and bright-mode reflection coefficients (r_minus, r_plus).

    Valid for the symmetric resonant converter (s_o = s_mu = g, both dampings
    kappa).  ``omega`` may be a scalar or an array.  Requires kappa > 0; the
    combination g = 0 with omega = 0 leaves r_plus as 0/0 and raises
    :class:`DegenerateParametersError`.
    """
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    omega = np.asarray(omega, dtype=float)
    if g == 0.0 and np.any(omega == 0.0):
        raise DegenerateParametersError(
            "r_plus is undefined at omega = 0 when the converter coupling g is 0"
        )
    r_minus = (kappa + 2j * omega) / (kappa - 2j * omega)
    r_plus = ((kappa + 2j * omega) * omega - 4j * g**2) / (
        (kappa - 2j * omega) * omega + 4j * g**2
    )
    if omega.ndim == 0:
        return complex(r_minus), complex(r_plus)
    return r_minus, r_plus


def efficiency_closed_form(omega, g: float, kappa: float):
    """Conversion efficiency |r_minus - r_plus|^2 / 4 of the symmetric resonant converter.

    Requires g > 0 and kappa > 0.  ``omega`` may be a scalar or an array.
    """
    if g <= 0.0:
        raise ValueError(f"g must be positive, got {g}")
    r_minus, r_plus = reflection_coefficients(omega, g, kappa)
    eta = np.abs(np.asarray(r_minus) - np.asarray(r_plus)) ** 2 / 4.0
    return float(eta) if eta.ndim == 0 else eta


def direct_coupling_strength(ens: AtomEnsemble) -> complex:
    """Residual a-b coupling when both transitions of every atom are far detuned.

    Eliminating both internal levels of each atom dispersively leaves the
    second-order exchange sum(Omega_k g_mu_k conj(g_o_k) / (delta_mu_k delta_o_k)).
    Raises :class:`ZeroDetuningError` for any atom with a zero detuning on
    either transition and :class:`EmptyEnsembleError` for an empty ensemble.
    """
    if not ens.atoms:
        raise EmptyEnsembleError("cannot reduce an ensemble with no atoms")
    total = 0.0 + 0.0j
    for k, atom in enumerate(ens.atoms):
        if atom.delta_o == 0.0 or atom.delta_mu == 0.0:
            raise ZeroDetuningError(k)
        total += atom.omega_rabi * atom.g_mu * np.conj(atom.g_o) / (atom.delta_mu * atom.delta_o)
    return complex(total)
