"""Dense complex linear algebra with explicit failure semantics.

The solver is partial-pivot Gaussian elimination written out by hand rather than a
LAPACK call: the contract of this package is that a system whose best available
pivot falls below ``PIVOT_RTOL`` times the Frobenius norm of the matrix *as
supplied* fails loudly with :class:`SingularMatrixError` instead of returning
noise, and library solvers do not expose the pivots needed to enforce that.
:mod:`modeconv.scattering` hands it M(omega) itself, or for a network with many
undamped modes a small bordered port-space system, which is exactly singular
at the same frequencies; the threshold follows the norm of whichever it is
handed.  The pivot ratio (largest over smallest pivot magnitude)
doubles as a cheap conditioning estimate for downstream diagnostics.  A system
with a NaN pivot or a non-finite solution is singular too: a NaN fails every
comparison, so the test asks that the pivot pass, not that it fail.

There is one elimination kernel, vectorized over a stack of systems: the
single-system solvers run it on a stack of one and raise, :func:`solve_batched`
flags singular members instead, and both get the same arithmetic and verdict.
The kernel finds the stack's lower bandwidth p once and pivots and eliminates
only within it, since partial pivoting never fills below the band: an upper
Hessenberg system (p = 1) costs O(n^2), a general one O(n^3).  It works
batch-last: the stack and its right-hand sides are copied once, side by side,
into an (n, n + k, m) array, so every row operation runs over contiguous
length-m vectors, and the solutions come back as an (m, n, k) view of
batch-last memory.  That copy is the only one, and the contract needs it:
callers' arrays are never overwritten.  A stack already laid out batch-last is
copied straight, and either layout gives the same bytes.

Hermitian eigenvalues are delegated to ``numpy.linalg.eigvalsh`` after the
package's one Hermiticity check (:func:`check_hermitian`); the returned spectrum
is real and ascending.  The check takes one matrix: a network's coupling, which
a family of networks shares, is checked once.
"""

from __future__ import annotations

import numpy as np

from .errors import NotHermitianError, SingularMatrixError

# A pivot below this fraction of the Frobenius norm of the matrix as supplied
# marks the system as numerically singular.
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

    The stack and its rhs are copied once, side by side, into one batch-last
    work array: entry (i, j) of the augmented systems [A | B] is a contiguous
    length-m vector, so each row operation runs over the whole stack at unit
    stride, and one swap and one update per column move A and B together.  A
    stack that is already laid out batch-last (as
    :func:`modeconv.scattering._shifted` builds it) is copied straight, a
    C-ordered one is transposed as it is copied; the copy is the one the
    contract needs, since the caller's arrays are never overwritten.

    The stack's lower bandwidth p (the farthest nonzero below the diagonal in
    any member) is found once; partial pivoting never fills below it, so each
    column pivots among and eliminates only the p rows under the diagonal.  A
    Hessenberg stack (p = 1) costs O(n^2) per system, a general one O(n^3).
    Returns the (m, n, k) solutions (a view of batch-last memory), the (m, n)
    pivot magnitudes, each system's pivot threshold, and the mask of systems
    below it or with a non-finite solution.
    """
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    m, n, _ = a.shape
    b = np.asarray(rhs, dtype=complex)
    if b.ndim == 2:
        b = np.broadcast_to(b, (m,) + b.shape)
    if b.ndim != 3 or b.shape[:2] != (m, n):
        raise ValueError(f"right-hand side shape {np.shape(rhs)} does not match stack {a.shape}")
    w = np.empty((n, n + b.shape[2], m), dtype=complex)
    w[:, :n] = a.transpose(1, 2, 0)
    w[:, n:] = b.transpose(1, 2, 0)
    # The singularity threshold is frozen against the matrix as supplied, not
    # against whatever the row operations later shrink it to.
    parts = w.view(float)[:, :n]
    squares = np.einsum("ijr,ijr->r", parts, parts)
    threshold = PIVOT_RTOL * np.sqrt(squares[0::2] + squares[1::2])
    # Row i is searched only left of the band found so far, so a Hessenberg
    # stack reads just the entries that must be zero, one row at a time.
    band = 0
    for i in range(1, n):
        nonzero = (parts[i, : i - band] != 0.0).any(axis=1)
        if nonzero.any():
            band = i - int(nonzero.argmax())
    pivots = np.empty((n, m))
    safes = []
    for col in range(n):
        end = min(col + band + 1, n)
        rest = w[:, col:]
        # cand[0] ends as each member's pivot magnitude.
        cand = np.abs(w[col:end, col])
        # Between two candidate rows a masked swap is cheaper than gathers.
        if end - col == 2:
            swap = cand[1] > cand[0]
            if swap.any():
                top, below = rest[col], rest[col + 1]
                rest[col], rest[col + 1] = np.where(swap, below, top), np.where(swap, top, below)
                cand[0] = np.where(swap, cand[1], cand[0])
        elif end - col > 2:
            piv_rows = col + cand.argmax(axis=0)[None, None]
            taken = np.take_along_axis(rest, piv_rows, axis=0)
            np.put_along_axis(rest, piv_rows, rest[col : col + 1], axis=0)
            rest[col] = taken[0]
            cand[0] = cand.max(axis=0)
        pivots[col] = cand[0]
        safe = np.where(pivots[col] > 0.0, w[col, col], 1.0)
        safes.append(safe)
        factors = w[col + 1 : end, col] / safe
        # Operands of equal rank: numpy rounds a complex product of size-1
        # arrays broadcast across ranks without FMA, so a stack of one would
        # round unlike a grid.
        rest[col + 1 : end] -= factors[:, None] * rest[col : col + 1]
    x = np.zeros((n, w.shape[1] - n, m), dtype=complex)
    for col in range(n - 1, -1, -1):
        partial = np.einsum("jm,jkm->km", w[col, col + 1 : n], x[col + 1 :])
        x[col] = (w[col, n:] - partial) / safes[col]
    min_piv = pivots.min(axis=0, initial=np.inf)
    singular = ~(min_piv >= threshold) | (min_piv == 0.0)
    singular |= ~np.isfinite(x).all(axis=(0, 1))
    return x.transpose(2, 0, 1), pivots.T, threshold, singular


def solve_linear(m, rhs) -> np.ndarray:
    """Solve ``m @ x = rhs`` for complex square ``m``.

    ``rhs`` may be a vector of length n or an (n, k) block of columns; the
    result has the same shape.  Raises :class:`SingularMatrixError` when any
    pivot falls below ``PIVOT_RTOL`` times the Frobenius norm of ``m`` (see
    module docstring).  The cost is O(p n^2) for lower bandwidth p: O(n^2) for
    an upper Hessenberg ``m``, O(n^3) for a general one.  For systems
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
        raise NotHermitianError(f"{what} deviates from Hermitian by {deviation:.3e} (norm {norm:.3e})")


def eigenvalues_hermitian(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and in ascending order.

    Raises :class:`NotHermitianError` when ``m`` differs from its conjugate
    transpose by more than ``HERMITICITY_RTOL`` relative to its norm.  The sum
    of the returned eigenvalues matches the trace to ~1e-10 relative.
    """
    m = _as_square_complex(m)
    check_hermitian(m)
    return np.linalg.eigvalsh(m)
