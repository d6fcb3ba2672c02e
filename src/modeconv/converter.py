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

Each model's formula is written once, as one coupling matrix and a damping
stack broadcast over kappa, since kappa sets only the damping of a and b: a
scalar constructor builds its one damping row through
:func:`modeconv.network.new_network`, and :class:`ConverterFamily`, the one
map from a kind to its formula, has ``validated_stack`` check its coupling
once and hands it over for all its members beside their damping stack.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateParametersError
from .network import CoupledModeNetwork, new_network, validated_stack

# The kinds of ConverterFamily, each one model's formula.
FAMILY_KINDS = ("resonant", "detuned", "two_mode")


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
    """Labels, coupling matrix and damping stack of the three-mode chain, one damping row per kappa.

    The couplings are numbers and make one (3, 3) matrix; ``kappa_o`` and
    ``kappa_mu`` broadcast against each other into one dimension, so a scalar
    builder gets one damping row and a family one row per kappa from the
    same formula.
    """
    coupling = np.zeros((3, 3), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = s_o
    coupling[1, 1] = delta_mu
    coupling[1, 2] = coupling[2, 1] = s_mu
    damping = np.zeros(np.broadcast(*np.atleast_1d(kappa_o, kappa_mu)).shape + (3,))
    damping[:, 0], damping[:, 2] = kappa_o, kappa_mu
    return ("a", "c", "b"), coupling, damping


def _two_mode(s, kappa_o, kappa_mu):
    """Labels, coupling matrix and damping stack of the two-mode network, as :func:`_chain` gives them."""
    coupling = np.zeros((2, 2), dtype=complex)
    coupling[0, 1] = coupling[1, 0] = s
    damping = np.zeros(np.broadcast(*np.atleast_1d(kappa_o, kappa_mu)).shape + (2,))
    damping[:, 0], damping[:, 1] = kappa_o, kappa_mu
    return ("a", "b"), coupling, damping


def resonant_network(p: ResonantParams) -> CoupledModeNetwork:
    """Three-mode converter network with the intermediate mode on resonance.

    This is :func:`detuned_network` with ``delta_mu = 0``.
    """
    return detuned_network(DetunedParams(p.s_o, p.s_mu, p.kappa_o, p.kappa_mu))


def detuned_network(p: DetunedParams) -> CoupledModeNetwork:
    """Three-mode converter network with intermediate-mode detuning ``delta_mu``."""
    labels, coupling, damping = _chain(p.s_o, p.s_mu, p.kappa_o, p.kappa_mu, p.delta_mu)
    return new_network(labels, coupling, damping[0])


def two_mode_network(s: float, kappa_o: float, kappa_mu: float) -> CoupledModeNetwork:
    """Two damped modes coupled directly with strength ``s`` (no intermediate mode)."""
    labels, coupling, damping = _two_mode(s, kappa_o, kappa_mu)
    return new_network(labels, coupling, damping[0])


@dataclass(frozen=True)
class ConverterFamily:
    """One-parameter converter family: kappa_o = kappa_mu = kappa, rest fixed.

    kind "resonant" builds the symmetric three-mode chain with coupling ``g``;
    "detuned" adds intermediate-mode detuning ``delta_mu``; "two_mode" couples
    the resonators directly with strength ``g``.  Any other kind, a ``g`` or
    ``delta_mu`` that is not a finite real number, or a nonzero ``delta_mu``
    on a kind that has no intermediate detuning, is a ``ValueError`` naming
    the field.  Calling the family builds its member at kappa, so it is a
    family kappa -> network for ``efficiency_map`` and ``optimize_kappa``;
    :meth:`members` builds many kappas as one validated stack, and
    :meth:`stack` hands over that stack as arrays.
    """

    kind: str
    g: float = 1.0
    delta_mu: float = 0.0

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            *head, last = map(repr, FAMILY_KINDS)
            raise ValueError(f"kind must be {', '.join(head)} or {last}, got {self.kind!r}")
        for name, value in (("g", self.g), ("delta_mu", self.delta_mu)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise ValueError(f"family parameter {name} must be a finite real number, got {value!r}")
        if self.kind != "detuned" and self.delta_mu != 0.0:
            raise ValueError(f"delta_mu applies only to kind 'detuned', got {self.delta_mu!r} for {self.kind!r}")

    def build(self, kappa: float) -> CoupledModeNetwork:
        return self.members([kappa])[0]

    __call__ = build

    def members(self, kappas) -> list[CoupledModeNetwork]:
        """The member at each kappa of the 1-D ``kappas``, from one validated coupling and damping stack.

        Each is byte for byte the scalar constructor's network, written by the
        same formula: ``resonant_network(ResonantParams(g, g, k, k))``,
        ``detuned_network(DetunedParams(g, g, k, k, delta_mu))`` or
        ``two_mode_network(g, k, k)``.  Their couplings are read-only views
        of one matrix, their dampings rows of one stack.
        """
        labels, coupling, damping = self.stack(kappas)
        return [CoupledModeNetwork(labels=labels, coupling=c, damping=d) for c, d in zip(coupling, damping)]

    def stack(self, kappas) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """The labels and the (m, n, n) coupling and (m, n) damping stacks of :meth:`members`, with no network built.

        The arrays are :func:`modeconv.network.validated_stack`'s, read-only,
        with every check and message: the family's one coupling is checked
        once and comes back as an ``np.broadcast_to`` view with stride 0 on
        the member axis, since kappa moves only the damping.  ``kappas`` of
        more than one dimension is a ``ValueError`` naming its shape.
        """
        kappas = np.asarray(kappas, dtype=float)
        if kappas.ndim > 1:
            raise ValueError(f"kappas must be a 1-D array, got shape {kappas.shape}")
        if self.kind == "two_mode":
            labels, coupling, damping = validated_stack(*_two_mode(self.g, kappas, kappas))
        else:
            # +0.0 for a resonant member, as resonant_network writes it, even for delta_mu = -0.0
            delta_mu = self.delta_mu if self.kind == "detuned" else 0.0
            labels, coupling, damping = validated_stack(*_chain(self.g, self.g, kappas, kappas, delta_mu))
        return labels, np.broadcast_to(coupling, damping.shape[:1] + coupling.shape), damping


def reflection_coefficients(omega, g: float, kappa: float):
    """Dark- and bright-mode reflection coefficients (r_minus, r_plus).

    Valid for the symmetric resonant converter (s_o = s_mu = g, both dampings
    kappa).  ``omega`` may be a scalar or an array.  Requires a finite g, a
    finite kappa > 0 and finite omega; the combination g = 0 with omega = 0
    leaves r_plus as 0/0 and raises :class:`DegenerateParametersError`.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    if not math.isfinite(g):
        raise ValueError(f"g must be finite, got {g}")
    omega = np.asarray(omega, dtype=float)
    if not np.isfinite(omega).all():
        raise ValueError(f"omega must be finite, got {omega[~np.isfinite(omega)][0]}")
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

    Requires finite g > 0, kappa > 0 and omega.  ``omega`` may be a scalar or an array.
    """
    if not 0.0 < g < math.inf:
        raise ValueError(f"g must be positive and finite, got {g}")
    r_minus, r_plus = reflection_coefficients(omega, g, kappa)
    eta = np.abs(np.asarray(r_minus) - np.asarray(r_plus)) ** 2 / 4.0
    return float(eta) if eta.ndim == 0 else eta
