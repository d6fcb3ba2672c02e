"""Seeded input generator: the only source of workload inputs.

Every input a workload feeds the program is drawn here from ``--seed`` with a
private ``random.Random``, so the same seed gives the same inputs on every
machine and commit.  The program sees only the generated values.

Tune and develop against ``DEV_SEED``; confirm a performance claim on
``CLAIM_SEED`` as well, a seed that was not used while the change was written.
"""

from __future__ import annotations

import random

DEV_SEED = 1
CLAIM_SEED = 7919

THRESHOLDS = (0.9, 0.99, 0.999)
KAPPA_RANGE = (0.1, 8.0)

# Reference ensemble of criterion 7: 16 atoms, g_o = 2.5, g_mu = 0.25,
# omega_rabi = 5, delta_o = 50.  Scaling both couplings by sqrt(16 / N) keeps
# the collective couplings near 1 for any N.
ENSEMBLE_REF = {"g_o": 2.5, "g_mu": 0.25, "omega_rabi": 5.0, "delta_o": 50.0}
ENSEMBLE_SPREAD = 0.10
ENSEMBLE_N16_COUNT = 10
ENSEMBLE_LARGE_N = 64
ENSEMBLE_KAPPA = 2.6
# Even point count, so the grid straddles omega = 0 where uniform compensated
# ensembles are exactly singular.
ENSEMBLE_GRID = (-1.5, 1.5, 300)

SWEEP_POINTS = 20001


def _stratum(rng: random.Random, lo: float, hi: float, index: int, count: int) -> float:
    """Uniform draw from the index-th of ``count`` equal parts of [lo, hi]."""
    width = (hi - lo) / count
    return lo + width * (index + rng.random())


def optimize_families(seed: int) -> list[dict]:
    """Six optimize_kappa calls: each threshold once for each family kind.

    g in [0.5, 2] and, for the detuned kind, delta_mu in [0.5, 10] are drawn by
    stratified sampling: each kind draws one g from each third of its range,
    and one delta_mu from each third of its range, and the seed shuffles which
    threshold gets which third.  Call times depend on these parameters, so
    with only six calls per run a plain uniform draw would let the seed, not
    the code, move the pass time; the shuffle still lets different seeds reach
    every (threshold, g, delta_mu) region.
    """
    rng = random.Random(f"optimize_families/{seed}")
    calls = []
    for kind in ("resonant", "detuned"):
        g_parts = rng.sample(range(3), 3)
        dmu_parts = rng.sample(range(3), 3)
        for theta, g_part, dmu_part in zip(THRESHOLDS, g_parts, dmu_parts):
            g = _stratum(rng, 0.5, 2.0, g_part, 3)
            delta_mu = _stratum(rng, 0.5, 10.0, dmu_part, 3) if kind == "detuned" else 0.0
            calls.append({"kind": kind, "g": g, "delta_mu": delta_mu, "theta": theta})
    return calls


def _atoms(rng: random.Random, n: int, spread: float) -> list[dict]:
    scale = (16.0 / n) ** 0.5
    atoms = []
    for _ in range(n):
        def jitter(value):
            return value * (1.0 + rng.uniform(-spread, spread))

        atoms.append(
            {
                "g_o": jitter(ENSEMBLE_REF["g_o"] * scale),
                "g_mu": jitter(ENSEMBLE_REF["g_mu"] * scale),
                "omega_rabi": jitter(ENSEMBLE_REF["omega_rabi"]),
                "delta_o": jitter(ENSEMBLE_REF["delta_o"]),
                "delta_mu": 0.0,
            }
        )
    return atoms


def ensemble_members(seed: int) -> list[dict]:
    """The default 34-mode ensemble, ten inhomogeneous N = 16, one N = 64.

    ``atoms`` is None for the built-in ``default_validation_ensemble``.
    """
    rng = random.Random(f"ensemble_scaling/{seed}")
    members = [{"name": "default", "atoms": None}]
    for i in range(ENSEMBLE_N16_COUNT):
        members.append({"name": f"n16_{i}", "atoms": _atoms(rng, 16, ENSEMBLE_SPREAD)})
    members.append(
        {"name": f"n{ENSEMBLE_LARGE_N}", "atoms": _atoms(rng, ENSEMBLE_LARGE_N, ENSEMBLE_SPREAD)}
    )
    return members


def cli_commands(seed: int) -> list[dict]:
    """Six CLI invocations; ``config`` is written to a file and passed as its path."""
    rng = random.Random(f"cli_bundles/{seed}")
    sweep_g = rng.uniform(0.5, 2.0)
    sweep_kappa = rng.uniform(0.5, 5.0)
    band_g = rng.uniform(0.5, 2.0)
    band_kappa = band_g * rng.uniform(1.0, 3.0)
    band_theta = rng.choice(THRESHOLDS)
    td_kappa = rng.uniform(1.0, 4.0)
    td_omega = rng.uniform(-1.0, 1.0)
    return [
        {"name": "fig2", "args": ["reproduce", "--preset", "fig2"], "config": None},
        {"name": "fig3", "args": ["reproduce", "--preset", "fig3"], "config": None},
        {
            "name": "sweep",
            "args": ["sweep"],
            "config": {
                "setup": "resonant",
                "g": sweep_g,
                "kappa": sweep_kappa,
                "window": {"min": -4.0, "max": 4.0, "points": SWEEP_POINTS},
            },
        },
        {
            "name": "bandwidth",
            "args": ["bandwidth"],
            "config": {
                "setup": "resonant",
                "g": band_g,
                "kappa": band_kappa,
                "threshold": band_theta,
                "window": {"min": -4.0 * band_g, "max": 4.0 * band_g},
            },
        },
        {"name": "eliminate", "args": ["eliminate"], "config": None},
        {
            "name": "timedomain",
            "args": ["timedomain"],
            "config": {"setup": "resonant", "kappa": td_kappa, "omega": td_omega},
        },
    ]
