"""Coupled-mode networks: labeled modes, Hermitian coupling, per-mode damping.

A network is the static description of a set of harmonic modes a_j evolving as

    da/dt = -i A a - (K/2) a - sqrt(K) a_in,

with A the Hermitian coupling matrix (diagonal entries are detunings, off-diagonal
entries coherent couplings) and K the diagonal matrix of non-negative damping
rates.  Every damped mode is an input-output port; undamped modes are internal.
Instances are immutable and validated on construction via :func:`new_network`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateLabelError, NegativeDampingError
from .linalg import check_hermitian


@dataclass(frozen=True, eq=False)
class CoupledModeNetwork:
    """Immutable mode network; build through :func:`new_network`."""

    labels: tuple[str, ...]
    coupling: np.ndarray
    damping: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.labels)

    def ports(self) -> list[int]:
        """Indices of all damped modes (the scattering ports), in label order."""
        return [i for i, rate in enumerate(self.damping) if rate > 0.0]

    def port_labels(self) -> list[str]:
        return [self.labels[i] for i in self.ports()]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"no mode labeled {label!r} in network") from None


def new_network(labels, coupling, damping) -> CoupledModeNetwork:
    """Validate and build a network.

    The coupling matrix must pass :func:`modeconv.linalg.check_hermitian`
    (:class:`NotHermitianError` otherwise) and is symmetrized to (A + A^dagger)/2
    so that downstream algebra sees an exactly Hermitian matrix.  Damping rates
    must be non-negative (:class:`NegativeDampingError`) and labels unique
    (:class:`DuplicateLabelError`).
    """
    labels = tuple(str(lbl) for lbl in labels)
    if len(set(labels)) != len(labels):
        seen: set[str] = set()
        dup = next(lbl for lbl in labels if lbl in seen or seen.add(lbl))
        raise DuplicateLabelError(f"duplicate mode label {dup!r}")
    a = np.array(coupling, dtype=complex)
    if a.ndim != 2 or a.shape != (len(labels), len(labels)):
        raise ValueError(f"coupling shape {a.shape} does not match {len(labels)} labels")
    check_hermitian(a, "coupling")
    a = (a + a.conj().T) / 2.0
    k = np.array(damping, dtype=float)
    if k.shape != (len(labels),):
        raise ValueError(f"damping shape {k.shape} does not match {len(labels)} labels")
    if np.any(k < 0.0):
        bad = int(np.argmin(k))
        raise NegativeDampingError(f"mode {labels[bad]!r} has damping {k[bad]} < 0")
    a.setflags(write=False)
    k.setflags(write=False)
    return CoupledModeNetwork(labels=labels, coupling=a, damping=k)


def network_to_json(net: CoupledModeNetwork) -> str:
    """Serialize to JSON with separate real/imaginary coupling blocks."""
    doc = {
        "labels": list(net.labels),
        "coupling_re": net.coupling.real.tolist(),
        "coupling_im": net.coupling.imag.tolist(),
        "damping": net.damping.tolist(),
    }
    return json.dumps(doc, indent=2)


def network_from_json(text: str) -> CoupledModeNetwork:
    """Inverse of :func:`network_to_json`; runs full validation."""
    doc = json.loads(text)
    return network_from_dict(doc)


def network_from_dict(doc: dict) -> CoupledModeNetwork:
    coupling = np.asarray(doc["coupling_re"], dtype=float) + 1j * np.asarray(
        doc["coupling_im"], dtype=float
    )
    return new_network(doc["labels"], coupling, doc["damping"])
