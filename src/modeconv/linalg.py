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

The one elimination records what it does: each column's pivot exchange (a
two-row swap mask or each member's pivot row), its multipliers and its
divisors, beside the eliminated upper triangle.  A one-shot right-hand side
rides along in [A | B], as above, and its record keeps no multipliers; a
stack eliminated with no right-hand side keeps them, and a later one
replays the record, exchange by exchange and update by update in the same
broadcast shapes, then back-substitutes, so it gets the bytes and the
verdict of a fresh elimination without one.  :func:`solve_batched` replays
when handed the record instead of a stack; :mod:`modeconv.scattering` hands
it one for the two passes of a port-space grid, whose stack it gives up to be
eliminated in place.

Hermitian eigenvalues are delegated to ``numpy.linalg.eigvalsh`` after the
package's one Hermiticity check (:func:`check_hermitian`), and a non-finite
matrix is a ``ValueError``; the returned spectrum is real and ascending.  The
check takes one matrix: a network's coupling, which a family of networks
shares, is checked once.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(eq=False)
class _Elimination:
    """What :func:`_eliminate_stack` did to an (m, n, n) stack, kept for later right-hand sides.

    ``w`` is the batch-last (n, n + k, m) work array: the eliminated upper
    triangle and the k right-hand side columns that rode along.  Column
    col's ``steps[col]`` is its pivot exchange (None, the mask of members
    whose two candidate rows swapped, or each member's pivot row) and its
    (p, m) multipliers, kept only when no rhs rode along: a one-shot solve
    never replays, and holding them would only raise its peak memory.
    ``divisors[col]`` is the pivot each member divides by (1 where the pivot
    is 0).  ``pivots`` holds the (n, m) pivot magnitudes,
    ``singular`` the pivot verdict alone, and ``shape`` the stack's (m, n, n).
    """

    w: np.ndarray
    steps: list
    divisors: list
    pivots: np.ndarray
    threshold: np.ndarray
    singular: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        n, _, m = self.w.shape
        return m, n, n


def _exchange(rows, col, exchange) -> None:
    """Apply one column's pivot exchange, in place, to the batch-last (n, c, m) ``rows``."""
    if exchange.dtype == bool:
        # Between two candidate rows a masked swap is cheaper than gathers.
        top, below = rows[col], rows[col + 1]
        rows[col], rows[col + 1] = np.where(exchange, below, top), np.where(exchange, top, below)
    else:
        members = np.arange(rows.shape[2])
        taken = rows[exchange, :, members]
        rows[exchange, :, members] = rows[col].T
        rows[col] = taken.T


def _eliminate_stack(mats, rhs=None) -> _Elimination:
    """Partial-pivot elimination of an (m, n, n) stack against a shared (n, k) or (m, n, k) rhs.

    The stack and its rhs are copied once, side by side, into one batch-last
    work array: entry (i, j) of the augmented systems [A | B] is a contiguous
    length-m vector, so each row operation runs over the whole stack at unit
    stride, and one swap and one update per column move A and B together.  A
    stack that is already laid out batch-last (as
    :func:`modeconv.scattering._shifted` builds it) is copied straight, a
    C-ordered one is transposed as it is copied; the copy is the one the
    contract needs, since the caller's arrays are never overwritten.  Without
    an rhs (k = 0) the stack is only eliminated, for right-hand sides to come,
    and a batch-last stack is eliminated in place: its memory becomes the
    record's, so a caller passes only a stack it means to give up.

    The stack's lower bandwidth p (the farthest nonzero below the diagonal in
    any member) is found once; partial pivoting never fills below it, so each
    column pivots among and eliminates only the p rows under the diagonal.  A
    Hessenberg stack (p = 1) costs O(n^2) per system, a general one O(n^3).
    Returns the :class:`_Elimination`, which :func:`_back_substitute` solves
    for the rhs that rode along and :func:`_replay` for any later one.
    """
    a = np.asarray(mats, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    m, n, _ = a.shape
    if rhs is None:
        w = np.ascontiguousarray(a.transpose(1, 2, 0))
    else:
        b = _rhs_stack(rhs, a.shape)
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
    steps, divisors = [], []
    one_shot = w.shape[1] > n
    for col in range(n):
        end = min(col + band + 1, n)
        rest = w[:, col:]
        # cand[0] ends as each member's pivot magnitude.
        cand = np.abs(w[col:end, col])
        exchange = None
        if end - col == 2:
            swap = cand[1] > cand[0]
            if swap.any():
                exchange = swap
                cand[0] = np.where(swap, cand[1], cand[0])
        elif end - col > 2:
            exchange = col + cand.argmax(axis=0)
            cand[0] = cand.max(axis=0)
        if exchange is not None:
            _exchange(rest, col, exchange)
        pivots[col] = cand[0]
        divisors.append(np.where(pivots[col] > 0.0, w[col, col], 1.0))
        factors = w[col + 1 : end, col] / divisors[col]
        steps.append((exchange, None if one_shot else factors))
        # Operands of equal rank: numpy rounds a complex product of size-1
        # arrays broadcast across ranks without FMA, so a stack of one would
        # round unlike a grid.
        rest[col + 1 : end] -= factors[:, None] * rest[col : col + 1]
    min_piv = pivots.min(axis=0, initial=np.inf)
    singular = ~(min_piv >= threshold) | (min_piv == 0.0)
    return _Elimination(w, steps, divisors, pivots, threshold, singular)


def _rhs_stack(rhs, shape) -> np.ndarray:
    """``rhs`` as an (m, n, k) stack for an (m, n, n) ``shape``: a shared (n, k) block is broadcast."""
    m, n, _ = shape
    b = np.asarray(rhs, dtype=complex)
    if b.ndim == 2:
        b = np.broadcast_to(b, (m,) + b.shape)
    if b.ndim != 3 or b.shape[:2] != (m, n):
        raise ValueError(f"right-hand side shape {np.shape(rhs)} does not match stack {shape}")
    return b


def _back_substitute(e: _Elimination, b=None) -> tuple[np.ndarray, np.ndarray]:
    """Solve the upper triangle of ``e`` for the eliminated batch-last (n, k, m) ``b``.

    ``b`` is by default the rhs that rode along.  Returns the (m, n, k) solutions (a view of batch-last memory) and the
    singular mask: the pivot verdict, or a non-finite solution.
    """
    n = len(e.w)
    b = e.w[:, n:] if b is None else b
    x = np.zeros(b.shape, dtype=complex)
    for col in range(n - 1, -1, -1):
        partial = np.einsum("jm,jkm->km", e.w[col, col + 1 : n], x[col + 1 :])
        x[col] = (b[col] - partial) / e.divisors[col]
    return x.transpose(2, 0, 1), e.singular | ~np.isfinite(x).all(axis=(0, 1))


def _replay(e: _Elimination, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve an eliminated stack for a new shared (n, k) or (m, n, k) ``rhs``.

    Each column's recorded exchange and multipliers act on the rhs as they
    acted on the columns that rode along, in the same broadcast shapes, so a
    replay gives the bytes of a fresh elimination; ``e`` is left unchanged.
    """
    b = np.array(_rhs_stack(rhs, e.shape).transpose(1, 2, 0), order="C")
    for col, (exchange, factors) in enumerate(e.steps):
        if exchange is not None:
            _exchange(b, col, exchange)
        b[col + 1 : col + 1 + len(factors)] -= factors[:, None] * b[col : col + 1]
    return _back_substitute(e, b)


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
    e = _eliminate_stack(a[None], b[:, None] if squeeze else b)
    x, singular = _back_substitute(e)
    if singular[0]:
        raise SingularMatrixError(
            f"system flagged singular: smallest pivot {e.pivots.min():.3e}, "
            f"threshold {e.threshold[0]:.3e}"
        )
    ratio = float(e.pivots.max() / e.pivots.min()) if e.pivots.size else 1.0
    return (x[0, :, 0] if squeeze else x[0]), ratio


def solve_batched(mats, rhs) -> tuple[np.ndarray, np.ndarray]:
    """Solve a stack of systems ``mats[i] @ x[i] = rhs[i]`` in one pass.

    ``mats`` has shape (m, n, n); ``rhs`` is either a shared (n, k) block or a
    per-system (m, n, k) stack.  This is the elimination :func:`solve_linear`
    runs on a stack of one, with the same per-matrix pivot test, but instead of
    raising it returns ``(x, singular)`` where ``singular`` is a boolean mask
    over the stack.  Entries of ``x`` for flagged systems are meaningless.
    ``mats`` may also be a stack already eliminated by the kernel, whose
    record this replays on ``rhs``.
    """
    if isinstance(mats, _Elimination):
        return _replay(mats, rhs)
    return _back_substitute(_eliminate_stack(mats, rhs))


def check_hermitian(m: np.ndarray, what: str = "matrix") -> None:
    """Raise :class:`NotHermitianError`, naming ``what``, unless ``m`` is Hermitian to ``HERMITICITY_RTOL``.

    A NaN fails every comparison, so the deviation must pass the test, as a pivot must.
    """
    norm = np.abs(m).sum(axis=1).max() if m.size else 0.0
    deviation = np.abs(m - m.conj().T).sum(axis=1).max() if m.size else 0.0
    if not deviation <= HERMITICITY_RTOL * max(norm, 1e-300):
        raise NotHermitianError(f"{what} deviates from Hermitian by {deviation:.3e} (norm {norm:.3e})")


def eigenvalues_hermitian(m) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, real and in ascending order.

    Raises ``ValueError``, naming the value, for a non-finite entry, and
    :class:`NotHermitianError` when ``m`` differs from its conjugate
    transpose by more than ``HERMITICITY_RTOL`` relative to its norm.  The sum
    of the returned eigenvalues matches the trace to ~1e-10 relative.
    """
    m = _as_square_complex(m)
    if not np.isfinite(m).all():
        raise ValueError(f"matrix must be finite, got {m[~np.isfinite(m)][0]}")
    check_hermitian(m)
    return np.linalg.eigvalsh(m)
