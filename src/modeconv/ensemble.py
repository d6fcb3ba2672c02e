"""Microscopic atom-ensemble model and its reduction to the three-mode converter.

Each three-level atom k couples the optical resonator a to its |1>-|3> transition
(strength g_o_k, detuning delta_o_k), the microwave resonator b to |1>-|2>
(strength g_mu_k, detuning delta_mu_k), and bridges the two transitions with a
classical drive of Rabi frequency omega_rabi_k.  In the linearized (few-excitation)
regime every transition operator behaves as a bosonic amplitude, so the full
system is a (2N+2)-mode network in mode order

    (a, b, s13_1 .. s13_N, s12_1 .. s12_N),

with only a and b damped.  Eliminating the far-detuned s13 amplitudes
(s13_k = -(g_o_k/delta_o_k) a - (omega_rabi_k/delta_o_k) s12_k) funnels both
resonators onto the collective mode defined by the microwave coupling pattern,
leaving the three-mode chain a - c - b with collective strengths

    s_mu = sqrt(sum_k |g_mu_k|^2),      s_o = |<v_o, v_mu>| / s_mu,

where v_o_k = g_o_k omega_rabi_k / delta_o_k and v_mu_k = g_mu_k.  The
elimination also produces Stark shifts -sum_k |g_o_k|^2/delta_o_k on a and
-omega_rabi_k^2/delta_o_k on each s12_k; ``compensate_stark`` cancels them by
pre-tuning the bare frequencies up by the same amounts, which recenters the
conversion peak at omega = 0.

``direct_coupling_strength`` is the residual a - b coupling left when both
transitions of every atom are far detuned.  This is the only module that reads
an atom's fields; each builder or reduction reads them once, as arrays.

``mode_mismatch`` measures how far the optical coupling pattern points away from
the microwave one; the single-intermediate-mode reduction is only trustworthy
when it is small.  ``elimination_error`` quantifies the whole reduction by
comparing conversion efficiencies of the microscopic and effective networks on a
frequency grid.

A caution about perfectly uniform compensated ensembles: compensation makes each
atom's internal 2x2 block exactly singular, so the N-1 dark atomic combinations
sit at exactly omega = 0 and the dynamical matrix is exactly singular there
(removable at the ports).  Evaluation grids should straddle rather than contain
omega = 0.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .converter import ResonantParams, resonant_network
from .errors import EmptyEnsembleError, HighMismatchWarning, ZeroDetuningError
from .network import CoupledModeNetwork, new_network
from .scattering import transmission_grid

# Above this mode mismatch the three-mode reduction is flagged as unreliable.
MISMATCH_WARN_LEVEL = 0.01


@dataclass(frozen=True)
class AtomParams:
    """Couplings and detunings of one atom (all rates in units of the collective g)."""

    g_o: complex
    g_mu: complex
    omega_rabi: float
    delta_o: float
    delta_mu: float

    def __post_init__(self):
        for name in ("g_o", "g_mu", "omega_rabi", "delta_o", "delta_mu"):
            value = getattr(self, name)
            kind, what = (numbers.Complex, "a number") if name.startswith("g_") else (numbers.Real, "real")
            if not isinstance(value, kind):
                raise ValueError(f"atom parameter {name} must be {what}, got {value!r}")
            if not (math.isfinite(abs(complex(value)))):
                raise ValueError(f"atom parameter {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class AtomEnsemble:
    """Ordered collection of atoms; anything but an :class:`AtomParams` is a ``ValueError`` naming its index."""

    atoms: tuple[AtomParams, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for k, atom in enumerate(self.atoms):
            if not isinstance(atom, AtomParams):
                raise ValueError(f"atom {k} must be an AtomParams, got {atom!r}")


@dataclass(frozen=True)
class CollectiveCouplings:
    """Collective-mode summary of an ensemble."""

    s_o: float
    s_mu: float
    mode_mismatch: float
    stark_a: float
    stark_c: float


def uniform_ensemble(
    n: int,
    g_o: complex,
    g_mu: complex,
    omega_rabi: float,
    delta_o: float,
    delta_mu: float = 0.0,
) -> AtomEnsemble:
    """N identical atoms."""
    atom = AtomParams(g_o=g_o, g_mu=g_mu, omega_rabi=omega_rabi, delta_o=delta_o, delta_mu=delta_mu)
    return AtomEnsemble(atoms=(atom,) * n)


def default_validation_ensemble() -> AtomEnsemble:
    """The reference ensemble used to validate the adiabatic elimination.

    16 uniform atoms with g_o = 2.5, g_mu = 0.25, omega_rabi = 5, delta_o = 50:
    collective couplings come out s_o = s_mu = 1 while the expansion parameters
    sqrt(N) g_o / delta_o = 0.2 and omega_rabi / delta_o = 0.1 stay perturbative.
    """
    return uniform_ensemble(16, g_o=2.5, g_mu=0.25, omega_rabi=5.0, delta_o=50.0)


def _columns(ens: AtomEnsemble):
    """The atoms as arrays: g_o and g_mu complex; omega_rabi, delta_o and delta_mu real."""
    if not ens.atoms:
        raise EmptyEnsembleError("the ensemble has no atoms")
    rows = [(atom.g_o, atom.g_mu, atom.omega_rabi, atom.delta_o, atom.delta_mu) for atom in ens.atoms]
    # One contiguous array per field: BLAS sums a strided vector in another order.
    g_o, g_mu, omega_rabi, delta_o, delta_mu = np.array(rows, dtype=complex).T.copy()
    return g_o, g_mu, omega_rabi.real, delta_o.real, delta_mu.real


def _require_nonzero(**detunings) -> None:
    """Raise :class:`ZeroDetuningError` at the first atom with any of these detunings zero."""
    zero = np.flatnonzero((np.array(list(detunings.values())) == 0.0).any(axis=0))
    if zero.size:
        raise ZeroDetuningError(int(zero[0]), f"atom {zero[0]}: elimination divides by {' or '.join(detunings)} = 0")


def _over(numerator, detuning):
    """Complex numerator over a real detuning, each part divided by it (complex division rounds through 1/d)."""
    return numerator.real / detuning + 1j * (numerator.imag / detuning)


def microscopic_network(
    ens: AtomEnsemble,
    kappa_o: float,
    kappa_mu: float,
    compensate_stark: bool = True,
) -> CoupledModeNetwork:
    """Full (2N+2)-mode network of resonators plus atomic transition amplitudes.

    Mode order (a, b, s13_1..s13_N, s12_1..s12_N); only a and b are damped.
    With ``compensate_stark`` the bare a and s12_k frequencies are raised by
    sum_k |g_o_k|^2/delta_o_k and omega_rabi_k^2/delta_o_k respectively,
    cancelling the (negative, for positive delta_o) shifts the coupling to the
    far-detuned s13 amplitudes induces; this requires delta_o_k != 0.
    """
    g_o, g_mu, omega_rabi, delta_o, delta_mu = _columns(ens)
    n_at = g_o.size
    s13 = 2 + np.arange(n_at)
    s12 = s13 + n_at
    a = np.zeros((2 * n_at + 2, 2 * n_at + 2), dtype=complex)
    a[0, s13] = g_o
    a[1, s12] = g_mu
    a[s13, s12] = omega_rabi
    # Mirror onto the zero lower triangle: 0 + (-0) leaves a real coupling's conjugate at +0j.
    a += a.conj().T
    a[s13, s13] = delta_o
    a[s12, s12] = delta_mu
    if compensate_stark:
        _require_nonzero(delta_o=delta_o)
        a[0, 0] += np.cumsum(np.abs(g_o) ** 2 / delta_o)[-1]  # in atom order, as np.sum would not
        a[s12, s12] += omega_rabi**2 / delta_o
    labels = ("a", "b", *(f"s13_{k + 1}" for k in range(n_at)), *(f"s12_{k + 1}" for k in range(n_at)))
    damping = np.zeros(a.shape[0])
    damping[:2] = kappa_o, kappa_mu
    return new_network(labels, a, damping)


def collective_couplings(ens: AtomEnsemble) -> CollectiveCouplings:
    """Collective couplings, mode mismatch, and Stark sums of an ensemble.

    Requires delta_o != 0 for every atom (:class:`ZeroDetuningError` otherwise).
    When either coupling pattern vanishes identically, s_o and mode_mismatch are
    reported as 0 (there is no optical excitation to mismatch).
    """
    g_o, v_mu, omega_rabi, delta_o, _ = _columns(ens)
    _require_nonzero(delta_o=delta_o)
    v_o = _over(g_o * omega_rabi, delta_o)
    s_mu = float(np.linalg.norm(v_mu))
    norm_o = float(np.linalg.norm(v_o))
    overlap = complex(np.vdot(v_o, v_mu))
    if s_mu == 0.0 or norm_o == 0.0:
        s_o = mismatch = 0.0
    else:
        s_o = abs(overlap) / s_mu
        mismatch = min(max(1.0 - abs(overlap) ** 2 / (norm_o**2 * s_mu**2), 0.0), 1.0)
    stark_a = float(np.cumsum(np.abs(g_o) ** 2 / delta_o)[-1])
    stark_c = float(np.cumsum(omega_rabi**2 / delta_o)[-1])
    return CollectiveCouplings(s_o=s_o, s_mu=s_mu, mode_mismatch=mismatch, stark_a=stark_a, stark_c=stark_c)


def direct_coupling_strength(ens: AtomEnsemble) -> complex:
    """Residual a-b coupling when both transitions of every atom are far detuned.

    Eliminating both internal levels of each atom dispersively leaves the
    second-order exchange sum(Omega_k g_mu_k conj(g_o_k) / (delta_mu_k delta_o_k)).
    Raises :class:`ZeroDetuningError` for any atom with a zero detuning on
    either transition and :class:`EmptyEnsembleError` for an empty ensemble.
    """
    g_o, g_mu, omega_rabi, delta_o, delta_mu = _columns(ens)
    _require_nonzero(delta_o=delta_o, delta_mu=delta_mu)
    return complex(np.cumsum(_over(omega_rabi * g_mu * np.conj(g_o), delta_mu * delta_o))[-1])


def effective_network(ens: AtomEnsemble, kappa_o: float, kappa_mu: float) -> CoupledModeNetwork:
    """Three-mode converter network with this ensemble's collective couplings.

    Emits :class:`HighMismatchWarning` when mode_mismatch exceeds
    ``MISMATCH_WARN_LEVEL`` — the reduction discards the part of the optical
    pattern orthogonal to the collective mode, so the model degrades.
    """
    cc = collective_couplings(ens)
    if cc.mode_mismatch > MISMATCH_WARN_LEVEL:
        warnings.warn(
            HighMismatchWarning(
                f"mode mismatch {cc.mode_mismatch:.4f} > {MISMATCH_WARN_LEVEL}; "
                "the three-mode reduction is unreliable for this ensemble"
            ),
            stacklevel=2,
        )
    return resonant_network(ResonantParams(s_o=cc.s_o, s_mu=cc.s_mu, kappa_o=kappa_o, kappa_mu=kappa_mu))


def elimination_error(ens: AtomEnsemble, kappa_o: float, kappa_mu: float, omega_grid) -> float:
    """Max |eta_microscopic - eta_effective| over the grid.

    Both efficiencies are conversion probabilities |S_ba|^2 computed through the
    scattering engine, the microscopic one with Stark compensation enabled.
    Singular grid frequencies propagate as errors (perfectly uniform compensated
    ensembles are singular at exactly omega = 0 — see the module docstring).
    """
    omega_grid = np.asarray(omega_grid, dtype=float)
    if omega_grid.size == 0:
        raise ValueError("omega_grid must hold at least one frequency")
    micro = microscopic_network(ens, kappa_o, kappa_mu, compensate_stark=True)
    effective = effective_network(ens, kappa_o, kappa_mu)
    eta_micro = np.abs(transmission_grid(micro, omega_grid, "a", "b")) ** 2
    eta_eff = np.abs(transmission_grid(effective, omega_grid, "a", "b")) ** 2
    return float(np.max(np.abs(eta_micro - eta_eff)))


def ensemble_to_dict(ens: AtomEnsemble) -> dict:
    """JSON-ready document: each coupling as an [re, im] pair."""
    return {
        "atoms": [
            {
                "g_o": [complex(atom.g_o).real, complex(atom.g_o).imag],
                "g_mu": [complex(atom.g_mu).real, complex(atom.g_mu).imag],
                "omega_rabi": atom.omega_rabi,
                "delta_o": atom.delta_o,
                "delta_mu": atom.delta_mu,
            }
            for atom in ens.atoms
        ]
    }


def ensemble_from_dict(doc: dict) -> AtomEnsemble:
    """Inverse of :func:`ensemble_to_dict`; validates shape and finiteness."""
    try:
        raw_atoms = doc["atoms"]
    except (TypeError, KeyError):
        raise ValueError("ensemble document must be an object with an 'atoms' list") from None
    if not isinstance(raw_atoms, list):
        raise ValueError("'atoms' must be a list")
    atoms = []
    for k, raw in enumerate(raw_atoms):
        try:
            g_o_re, g_o_im = raw["g_o"]
            g_mu_re, g_mu_im = raw["g_mu"]
            atoms.append(
                AtomParams(
                    g_o=complex(float(g_o_re), float(g_o_im)),
                    g_mu=complex(float(g_mu_re), float(g_mu_im)),
                    omega_rabi=float(raw["omega_rabi"]),
                    delta_o=float(raw["delta_o"]),
                    delta_mu=float(raw["delta_mu"]),
                )
            )
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"atom {k} is malformed: {exc}") from None
    return AtomEnsemble(atoms=tuple(atoms))
