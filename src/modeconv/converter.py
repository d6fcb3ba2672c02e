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
strength s, both damped).

Each model's coupling and damping formula is written once, as stacks that
broadcast over kappa: a scalar constructor builds its stack of one through
:func:`modeconv.network.new_network`, and a converter family builds many
kappas at once through :func:`modeconv.network.new_networks`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParametersError
from .network import CoupledModeNetwork, new_network


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


def _chain(s_o, s_mu, kappa_o, kappa_mu, delta_mu):
    """Labels, coupling stack and damping stack of the three-mode chain, one member per kappa.

    The parameters broadcast against each other into one dimension, so a
    scalar builder gets a stack of one and a family one member per kappa
    from the same formula.
    """
    params = np.broadcast_arrays(*np.atleast_1d(s_o, s_mu, kappa_o, kappa_mu, delta_mu))
    s_o, s_mu, kappa_o, kappa_mu, delta_mu = params
    coupling = np.zeros(s_o.shape + (3, 3), dtype=complex)
    coupling[:, 0, 1] = coupling[:, 1, 0] = s_o
    coupling[:, 1, 1] = delta_mu
    coupling[:, 1, 2] = coupling[:, 2, 1] = s_mu
    damping = np.zeros(s_o.shape + (3,))
    damping[:, 0], damping[:, 2] = kappa_o, kappa_mu
    return ("a", "c", "b"), coupling, damping


def _two_mode(s, kappa_o, kappa_mu):
    """Labels, coupling stack and damping stack of the two-mode network, as :func:`_chain` gives them."""
    s, kappa_o, kappa_mu = np.broadcast_arrays(*np.atleast_1d(s, kappa_o, kappa_mu))
    coupling = np.zeros(s.shape + (2, 2), dtype=complex)
    coupling[:, 0, 1] = coupling[:, 1, 0] = s
    return ("a", "b"), coupling, np.stack([kappa_o, kappa_mu], axis=1)


def resonant_network(p: ResonantParams) -> CoupledModeNetwork:
    """Three-mode converter network with the intermediate mode on resonance.

    This is :func:`detuned_network` with ``delta_mu = 0``.
    """
    return detuned_network(DetunedParams(p.s_o, p.s_mu, p.kappa_o, p.kappa_mu))


def detuned_network(p: DetunedParams) -> CoupledModeNetwork:
    """Three-mode converter network with intermediate-mode detuning ``delta_mu``."""
    labels, coupling, damping = _chain(p.s_o, p.s_mu, p.kappa_o, p.kappa_mu, p.delta_mu)
    return new_network(labels, coupling[0], damping[0])


def two_mode_network(s: float, kappa_o: float, kappa_mu: float) -> CoupledModeNetwork:
    """Two damped modes coupled directly with strength ``s`` (no intermediate mode)."""
    labels, coupling, damping = _two_mode(s, kappa_o, kappa_mu)
    return new_network(labels, coupling[0], damping[0])


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
