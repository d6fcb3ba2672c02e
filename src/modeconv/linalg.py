"""Dense complex linear algebra with explicit failure semantics.

The solver is partial-pivot Gaussian elimination written out by hand rather than a
LAPACK call: the contract of this package is that a system whose best available
pivot falls below ``PIVOT_RTOL`` times the largest entry magnitude of the *initial*
matrix fails loudly with :class:`SingularMatrixError` instead of returning noise,
and library solvers do not expose the pivots needed to enforce that.  The pivot
ratio (largest over smallest pivot magnitude) doubles as a cheap conditioning
estimate for downstream diagnostics.

There is one elimination kernel, vectorized over a stack of systems: the
single-system solvers run it on a stack of one and raise, :func:`solve_batched`
flags singular members instead, and both get the same arithmetic and verdict.

Hermitian eigenvalues are delegated to ``numpy.linalg.eigvalsh`` after the
package's one Hermiticity check (:func:`check_hermitian`); the returned spectrum
is real and ascending.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, SingularMatrixError

# A pivot below this fraction of the largest entry magnitude of the initial
# matrix marks the system as numerically singular.
PIVOT_RTOL = 1e-13

# Relative tolerance on ||A - A^dagger|| for a matrix to count as Hermitian.
HERMITICITY_RTOL = 1e-12


def _as_square_complex(m) -> np.ndarray:
    m = np.array(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _eliminate_stack(mats, rhs):
    """Partial-pivot elimination of an (m, n, n) stack against a shared (n, k) or (m, n, k) rhs.

    Returns the solutions, the (m, n) pivot magnitudes, each system's pivot
    threshold, and the mask of systems below it or with a non-finite solution.
    """
    a = np.array(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    m, n, _ = a.shape
    b = np.asarray(rhs, dtype=complex)
    if b.ndim == 2:
        b = np.broadcast_to(b, (m,) + b.shape)
    if b.shape[:2] != (m, n):
        raise ValueError(f"right-hand side shape {np.shape(rhs)} does not match stack {a.shape}")
    b = np.array(b)
    # The singularity threshold is frozen against the matrix as supplied, not
    # against whatever the row operations later shrink it to.
    threshold = PIVOT_RTOL * np.abs(a).max(axis=(1, 2), initial=0.0)
    pivots = np.empty((m, n))
    idx = np.arange(m)
    for col in range(n):
        rows = col + np.abs(a[:, col:, col]).argmax(axis=1)
        taken_a = a[idx, rows].copy()
        a[idx, rows] = a[:, col]
        a[:, col] = taken_a
        taken_b = b[idx, rows].copy()
        b[idx, rows] = b[:, col]
        b[:, col] = taken_b
        piv = a[:, col, col]
        pivots[:, col] = np.abs(piv)
        safe = np.where(pivots[:, col] > 0.0, piv, 1.0)
        factors = a[:, col + 1 :, col] / safe[:, None]
        a[:, col + 1 :, col:] -= factors[:, :, None] * a[:, None, col, col:]
        b[:, col + 1 :, :] -= factors[:, :, None] * b[:, None, col, :]
    x = np.zeros_like(b)
    for col in range(n - 1, -1, -1):
        diag = a[:, col, col]
        safe = np.where(np.abs(diag) > 0.0, diag, 1.0)
        partial = np.einsum("mj,mjk->mk", a[:, col, col + 1 :], x[:, col + 1 :, :])
        x[:, col, :] = (b[:, col, :] - partial) / safe[:, None]
    min_piv = pivots.min(axis=1, initial=np.inf)
    singular = (min_piv < threshold) | (min_piv == 0.0)
    singular |= ~np.isfinite(x).all(axis=(1, 2))
    return x, pivots, threshold, singular


def solve_linear(m, rhs) -> np.ndarray:
    """Solve ``m @ x = rhs`` for complex square ``m``.

    ``rhs`` may be a vector of length n or an (n, k) block of columns; the
    result has the same shape.  Raises :class:`SingularMatrixError` when any
    elimination step finds no usable pivot (see module docstring).  For systems
    that pass the pivot test, the residual satisfies
    ``max|m @ x - rhs| <= 1e-12 * (norm(m) * norm(x) + norm(rhs))`` in the
    max-row-sum norm.
    """
    x, _ = solve_with_condition(m, rhs)
    return x


def solve_with_condition(m, rhs) -> tuple[np.ndarray, float]:
    """Like :func:`solve_linear`, also returning max|pivot| / min|pivot|.

    The pivot ratio is a lower bound on the condition number — cheap, and large
    exactly when the solve is close to the singularity threshold.
    """
    a = _as_square_complex(m)
    b = np.asarray(rhs)
    squeeze = b.ndim == 1
    x, pivots, threshold, singular = _eliminate_stack(a[None], b[:, None] if squeeze else b)
    if singular[0]:
        raise SingularMatrixError(
            f"system flagged singular: smallest pivot {pivots.min():.3e}, "
            f"threshold {threshold[0]:.3e}"
        )
    ratio = float(pivots.max() / pivots.min()) if pivots.size else 1.0
    return (x[0, :, 0] if squeeze else x[0]), ratio


def solve_batched(mats, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems ``mats[i] @ x[i] = rhs[i]`` in one pass.

    ``mats`` has shape (m, n, n); ``rhs`` is either a shared (n, k) block or a
    per-system (m, n, k) stack.  This is the elimination :func:`solve_linear`
    runs on a stack of one, with the same per-matrix pivot test, but instead of
    raising it returns ``(x, singular)`` where ``singular`` is a boolean mask
    over the stack.  Entries of ``x`` for flagged systems are meaningless.
    """
    x, _, _, singular = _eliminate_stack(mats, rhs)
    return x, singular


def check_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    """Raise :class:`NotHermitianError`, naming ``what``, unless ``m`` is Hermitian to ``HERMITICITY_RTOL``."""
    norm = np.abs(m).sum(axis=1).max() if m.size else 0.0
    deviation = np.abs(m - m.conj().T).sum(axis=1).max() if m.size else 0.0
    if deviation > HERMITICITY_RTOL * max(norm, 1e-300):
        raise NotHermitianError(
            f"{what} deviates from Hermitian by {deviation:.3e} (norm {norm:.3e})"
        )


def eigenvalues_hermitian(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and in ascending order.

    Raises :class:`NotHermitianError` when ``m`` differs from its conjugate
    transpose by more than ``HERMITICITY_RTOL`` relative to its norm.  The sum
    of the returned eigenvalues matches the trace to ~1e-10 relative.
    """
    m = _as_square_complex(m)
    check_hermitian(m)
    return np.linalg.eigvalsh(m)
