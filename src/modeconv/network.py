"""Coupled-mode networks: labeled modes, Hermitian coupling, per-mode damping.

A network is the static description of a set of harmonic modes a_j evolving as

    da/dt = -i H a - sqrt(K) a_in,      H = A - iK/2,

with A the Hermitian coupling matrix (diagonal entries are detunings, off-diagonal
entries coherent couplings) and K the diagonal matrix of non-negative damping
rates.  Every damped mode is an input-output port; undamped modes are internal.
:func:`effective_hamiltonian` is the one place H is written: the scattering
engine solves with 2iH, the level set reads H and the time domain steps -iH.
Instances are immutable and validated on construction via :func:`new_network`,
which is :func:`validated_stack` with one damping row.  That check takes the
labels and coupling that members share and their stack of damping rows, and
gives them back as arrays, for callers that compute on the stack and need no
network objects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateLabelError, NegativeDampingError, NoPortsError
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
        return [i for i, rate in enumerate(self.damping.tolist()) if rate > 0.0]

    def port_labels(self) -> list[str]:
        return [self.labels[i] for i in self.ports()]

    def port_pair(self, in_port=None, out_port=None) -> tuple[str, str]:
        """The (in, out) port labels a conversion runs between.

        A missing ``in_port`` is the first port and a missing ``out_port`` the
        last.  Raises :class:`NoPortsError` when the network has no damped mode
        and a ``ValueError`` naming a given label that is not one.
        """
        return _port_pair(self.labels, self.damping, in_port, out_port)


def effective_hamiltonian(coupling, damping) -> np.ndarray:
    """H = A - iK/2 of a (..., n, n) coupling and a (..., n) damping stack, broadcast against each other."""
    return coupling - 0.5j * (damping[..., None, :] * np.eye(damping.shape[-1]))


def _port_pair(labels, damping, in_port, out_port) -> tuple[str, str]:
    """:meth:`CoupledModeNetwork.port_pair` of the network with ``labels`` and the (n,) ``damping``."""
    ports = [label for label, rate in zip(labels, damping.tolist()) if rate > 0.0]
    if not ports:
        raise NoPortsError("network has no damped modes, so no scattering ports")
    pair = (ports[0] if in_port is None else in_port, ports[-1] if out_port is None else out_port)
    for name, label in zip(("in_port", "out_port"), pair):
        if label not in ports:
            raise ValueError(f"{name} {label!r} is not a damped mode; ports are {ports}")
    return pair


def new_network(labels, coupling, damping) -> CoupledModeNetwork:
    """Validate and build a network: :func:`validated_stack` with one damping row.

    The coupling matrix must pass :func:`modeconv.linalg.check_hermitian`
    (:class:`NotHermitianError` otherwise) and is symmetrized to (A + A^dagger)/2
    so that downstream algebra sees an exactly Hermitian matrix.  Damping rates
    must be non-negative (:class:`NegativeDampingError`) and labels unique
    (:class:`DuplicateLabelError`).  Every coupling and damping entry must be
    finite (``ValueError`` naming the field): a NaN would pass the Hermiticity
    test and an infinite rate would silently become a port.
    """
    labels, coupling, dampings = validated_stack(labels, coupling, [damping])
    return CoupledModeNetwork(labels=labels, coupling=coupling, damping=dampings[0])


def validated_stack(labels, coupling, dampings) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """The labels, (n, n) coupling and (m, n) damping stack of m networks that share one coupling, checked.

    Each member gets :func:`new_network`'s checks and messages, the shared
    coupling checked and symmetrized once; any other coupling shape, a stack
    of couplings included, is a ``ValueError`` naming it.  In a damping stack
    of more than one row, an error names the first member that fails, as
    ``member i: ...``.  Both arrays come back read-only.
    """
    labels = tuple(str(lbl) for lbl in labels)
    if len(set(labels)) != len(labels):
        seen: set[str] = set()
        dup = next(lbl for lbl in labels if lbl in seen or seen.add(lbl))
        raise DuplicateLabelError(f"duplicate mode label {dup!r}")
    n = len(labels)
    a = np.array(coupling, dtype=complex)
    if a.shape != (n, n):
        raise ValueError(f"coupling shape {a.shape} does not match {n} labels")
    if not np.isfinite(a).all():
        raise ValueError("coupling must be finite")
    check_hermitian(a, "coupling")
    a = (a + a.conj().T) / 2.0
    k = np.array(dampings, dtype=float)
    stacked = k.ndim > 0 and len(k) > 1

    def member(i) -> str:
        return f"member {i}: " if stacked else ""

    if k.shape[1:] != (n,):
        raise ValueError(f"{member(0)}damping shape {k.shape[1:]} does not match {n} labels")
    finite = np.isfinite(k).all(axis=1)
    if not finite.all():
        raise ValueError(f"{member(int(np.argmin(finite)))}damping must be finite")
    negative = (k < 0.0).any(axis=1)
    if negative.any():
        i = int(np.argmax(negative))
        bad = int(np.argmin(k[i]))
        raise NegativeDampingError(f"{member(i)}mode {labels[bad]!r} has damping {k[i, bad]} < 0")
    a.setflags(write=False)
    k.setflags(write=False)
    return labels, a, k


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
    """The network of a JSON document; ``labels`` must be a list of strings and the rest numbers."""
    labels = doc["labels"]
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError(f"labels must be a list of strings, got {labels!r}")
    real, imag = _numbers("coupling_re", doc["coupling_re"]), _numbers("coupling_im", doc["coupling_im"])
    if real.shape != imag.shape:
        raise ValueError(f"coupling_re shape {real.shape} does not match coupling_im shape {imag.shape}")
    return new_network(labels, real + 1j * imag, _numbers("damping", doc["damping"]))


def _number(name: str, value) -> float:
    """A number of a JSON document as a float; a string, a bool or anything else is a ``ValueError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(name: str, value) -> np.ndarray:
    """Rectangular nested lists of numbers of a JSON document as a float array, entries checked by :func:`_number`."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, list):
            items.extend(reversed(item))
        else:
            _number(f"{name} entry", item)
    try:
        return np.asarray(value, dtype=float)
    except ValueError:
        raise ValueError(f"{name} must be a rectangular list of numbers, got {value!r}") from None
