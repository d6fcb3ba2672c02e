"""Networks with extra undamped modes, shared by the analysis, reduction and scattering tests."""

import numpy as np

from modeconv.network import new_network


def with_extra_modes(net, extra):
    """``net`` plus one undamped mode per (detuning, coupling to mode 1) pair in ``extra``."""
    n, m = net.n_modes, net.n_modes + len(extra)
    coupling = np.zeros((m, m), dtype=complex)
    coupling[:n, :n] = net.coupling
    for k, (omega, g) in enumerate(extra, start=n):
        coupling[k, k], coupling[1, k], coupling[k, 1] = omega, g, g
    labels = net.labels + tuple(f"d{k}" for k in range(len(extra)))
    return new_network(labels, coupling, np.concatenate([net.damping, np.zeros(len(extra))]))


def with_dark_modes(net, omegas):
    """``net`` plus one decoupled undamped mode at each frequency in ``omegas``.

    The extra modes leave the a -> b efficiency unchanged everywhere except at
    their own frequencies, where the whole network is singular.
    """
    return with_extra_modes(net, [(omega, 0.0) for omega in omegas])
