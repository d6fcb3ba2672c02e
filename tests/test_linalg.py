"""Tests for the pivot-checked complex solver and Hermitian eigenvalues."""

import numpy as np
import pytest

from modeconv.errors import NotHermitianError, SingularAtFrequencyError, SingularMatrixError
from modeconv.linalg import (
    PIVOT_RTOL,
    _eliminate_stack,
    check_hermitian,
    eigenvalues_hermitian,
    solve_batched,
    solve_linear,
    solve_with_condition,
)
from modeconv.network import new_network
from modeconv.scattering import dynamical_matrix, transmission, transmission_grid


def test_solve_matches_numpy_on_random_systems():
    rng = np.random.default_rng(12345)
    for _ in range(200):
        n = rng.integers(1, 9)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rhs = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = solve_linear(m, rhs)
        err = np.abs(m @ x - rhs).max()
        assert err < 1e-10


def test_block_rhs_shape_follows_input():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    block = rng.normal(size=(4, 3)) + 0j
    x = solve_linear(m, block)
    assert x.shape == (4, 3)
    assert np.abs(m @ x - block).max() < 1e-10
    xv = solve_linear(m, block[:, 0])
    assert xv.shape == (4,)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.zeros((3, 3)), np.ones(3))
    # rank-deficient: third row is the sum of the first two
    m = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [5.0, 7.0, 9.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve_linear(m, np.ones(3))


def test_threshold_is_relative_to_matrix_scale():
    # A tiny but well-conditioned matrix must solve: the pivot test is scaled
    # to the largest entry of the matrix as supplied.
    m = 1e-20 * np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    x = solve_linear(m, np.array([1.0, 0.0], dtype=complex))
    assert np.abs(m @ x - [1.0, 0.0]).max() < 1e-10
    # ... and a matrix whose pivots sit below PIVOT_RTOL of its own scale fails.
    bad = np.array([[1.0, 1.0], [1.0, 1.0 + 0.1 * PIVOT_RTOL]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve_linear(bad, np.ones(2))


def test_condition_estimate_grows_near_singularity():
    well = np.eye(3, dtype=complex)
    _, ratio = solve_with_condition(well, np.ones(3))
    assert ratio == 1.0
    skewed = np.diag([1.0, 1.0, 1e-8]).astype(complex)
    _, ratio = solve_with_condition(skewed, np.ones(3))
    assert ratio > 1e7


def test_rhs_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_linear(np.eye(2), np.ones(3))
    with pytest.raises(ValueError):
        solve_linear(np.ones((2, 3)), np.ones(2))


class TestSolveBatched:
    def test_agrees_with_strict_solver(self):
        rng = np.random.default_rng(99)
        for n in (1, 2, 5):
            mats = rng.normal(size=(40, n, n)) + 1j * rng.normal(size=(40, n, n))
            rhs = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            x, singular = solve_batched(mats, rhs)
            assert not singular.any()
            for i in range(40):
                xi = solve_linear(mats[i], rhs)
                assert np.abs(x[i] - xi).max() < 1e-12

    def test_flags_singular_member_without_corrupting_others(self):
        rng = np.random.default_rng(11)
        mats = rng.normal(size=(5, 3, 3)) + 1j * rng.normal(size=(5, 3, 3))
        mats[2] = 0.0
        rhs = rng.normal(size=(3, 1)) + 0j
        x, singular = solve_batched(mats, rhs)
        assert list(singular) == [False, False, True, False, False]
        for i in (0, 1, 3, 4):
            assert np.abs(mats[i] @ x[i] - rhs).max() < 1e-10

    def test_per_system_rhs(self):
        rng = np.random.default_rng(12)
        mats = rng.normal(size=(7, 4, 4)) + 1j * rng.normal(size=(7, 4, 4))
        rhs = rng.normal(size=(7, 4, 1)) + 1j * rng.normal(size=(7, 4, 1))
        x, singular = solve_batched(mats, rhs)
        assert not singular.any()
        assert np.abs(mats @ x - rhs).max() < 1e-10

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_batched(np.ones((2, 3, 4)), np.ones((4, 1)))
        with pytest.raises(ValueError):
            solve_batched(np.ones((2, 3, 3)), np.ones((4, 1)))


def test_eigenvalues_sorted_and_real():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = rng.integers(1, 7)
        raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = raw + raw.conj().T
        vals = eigenvalues_hermitian(h)
        assert vals.dtype.kind == "f"
        assert np.all(np.diff(vals) >= 0)
        assert abs(vals.sum() - np.trace(h).real) < 1e-10 * max(1.0, abs(np.trace(h).real))


def test_eigenvalues_example():
    # 2x2 with eigenvalues (10 +/- sqrt(108)) / 2
    h = np.array([[0.0, np.sqrt(2.0)], [np.sqrt(2.0), 10.0]], dtype=complex)
    vals = eigenvalues_hermitian(h)
    lo = (10.0 - np.sqrt(108.0)) / 2.0
    hi = (10.0 + np.sqrt(108.0)) / 2.0
    assert abs(vals[0] - lo) < 1e-12
    assert abs(vals[1] - hi) < 1e-12


def test_non_hermitian_rejected():
    with pytest.raises(NotHermitianError):
        eigenvalues_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))


@pytest.mark.parametrize("m", [[[0.0, 1.0], [2.0, np.nan]], [[np.nan]], [[np.inf]]])
def test_non_finite_matrix_has_no_eigenvalues(m):
    # A NaN fails every comparison, so a deviation of NaN must fail the
    # Hermiticity test rather than slip past it.
    with pytest.raises(ValueError, match="must be finite, got"):
        eigenvalues_hermitian(m)
    with pytest.raises(NotHermitianError):
        with np.errstate(invalid="ignore"):
            check_hermitian(np.array(m, dtype=complex))


def test_kernel_matches_numpy_oracle_on_random_stacks():
    # numpy's LAPACK solve is an independent reference for the one elimination
    # kernel, reached both as a stack and as a stack of one.
    rng = np.random.default_rng(2024)
    for n in (1, 3, 8, 34):
        mats = rng.normal(size=(25, n, n)) + 1j * rng.normal(size=(25, n, n))
        rhs = rng.normal(size=(25, n, 2)) + 1j * rng.normal(size=(25, n, 2))
        expected = np.linalg.solve(mats, rhs)
        x, singular = solve_batched(mats, rhs)
        assert not singular.any()
        scale = np.abs(expected).max(axis=(1, 2))
        assert np.all(np.abs(x - expected).max(axis=(1, 2)) <= 1e-10 * scale)
        for i in range(len(mats)):
            xi = solve_linear(mats[i], rhs[i])
            assert np.abs(xi - expected[i]).max() <= 1e-10 * scale[i]
            xv = solve_linear(mats[i], rhs[i, :, 0])
            assert np.abs(xv - expected[i, :, 0]).max() <= 1e-10 * scale[i]


@pytest.mark.parametrize("factor, singular", [(0.9, True), (1.1, False)])
def test_pivot_threshold_verdict_is_shared_by_every_route(factor, singular):
    # An undamped mode detuned by delta leaves a pivot of 2|delta| at omega = 0
    # against a matrix scale of 1 (the port's damping), so delta sets the
    # pivot just below or just above PIVOT_RTOL of the scale.
    delta = 0.5 * factor * PIVOT_RTOL
    net = new_network(("a", "c"), np.diag([0.0, delta]), (1.0, 0.0))
    m = dynamical_matrix(net, 0.0)
    rhs = np.ones(2, dtype=complex)
    _, flagged = solve_batched(m[None], rhs[:, None])
    assert bool(flagged[0]) is singular
    if singular:
        with pytest.raises(SingularMatrixError):
            solve_linear(m, rhs)
        with pytest.raises(SingularAtFrequencyError):
            transmission(net, 0.0, "a", "a")
        with pytest.raises(SingularAtFrequencyError):
            transmission_grid(net, [0.0], "a", "a")
        assert np.isnan(transmission_grid(net, [0.0], "a", "a", on_singular="nan")[0])
    else:
        assert np.abs(m @ solve_linear(m, rhs) - rhs).max() < 1e-12
        point = transmission(net, 0.0, "a", "a")
        assert transmission_grid(net, [0.0], "a", "a")[0] == point
        assert abs(point - 1.0) < 1e-12


def test_singular_error_names_pivot_and_threshold():
    with pytest.raises(SingularMatrixError, match=r"pivot 0\.000e\+00.*threshold 1\.000e-13"):
        solve_linear(np.diag([1.0, 0.0]), np.ones(2))


def test_empty_stack_and_empty_grid():
    x, singular = solve_batched(np.zeros((0, 3, 3)), np.ones((3, 1)))
    assert x.shape == (0, 3, 1) and singular.shape == (0,)
    net = new_network(("a", "b"), np.zeros((2, 2)), (1.0, 1.0))
    assert transmission_grid(net, [], "a", "b").shape == (0,)


@pytest.mark.parametrize(
    "m",
    [
        [[np.nan, 1.0], [1.0, 2.0]],  # NaN pivot on the diagonal
        [[1.0, 2.0], [np.nan, 1.0]],  # NaN below it, reaching the second pivot
    ],
)
def test_nan_pivot_is_flagged_not_answered(m):
    # A NaN pivot compares False against any threshold; it must still fail the test.
    with pytest.raises(SingularMatrixError):
        solve_linear(m, [1.0, 1.0])
    stack = np.array([np.eye(2), m, [[2.0, 1.0], [1.0, 2.0]]], dtype=complex)
    x, singular = solve_batched(stack, np.ones((2, 1)))
    assert singular.tolist() == [False, True, False]
    assert np.allclose(x[0, :, 0], 1.0) and np.allclose(x[2, :, 0], 1.0 / 3.0)


def _batch_last(stack):
    """The same values as ``stack``, laid out with the batch axis last in memory."""
    return np.ascontiguousarray(stack.transpose(1, 2, 0)).transpose(2, 0, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 34, 130])
@pytest.mark.parametrize("form", ["hessenberg", "general"])
@pytest.mark.parametrize("shared", [True, False])
def test_one_kernel_either_layout(n, form, shared):
    # The kernel copies every stack into its own batch-last work array, so a
    # C-ordered stack and the same values laid out batch-last solve to the
    # same bytes; a stack of one rounds like its member of the grid.
    rng = np.random.default_rng(n)
    m = 5
    stack = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    if form == "hessenberg":
        stack = np.triu(stack, -1)
    stack[2] = 0.0
    rhs_shape = (n, 2) if shared else (m, n, 2)
    rhs = rng.normal(size=rhs_shape) + 1j * rng.normal(size=rhs_shape)
    blocked = _batch_last(stack)
    saved = stack.copy(), blocked.copy(), rhs.copy()
    x, singular = solve_batched(stack, rhs)
    x_last, singular_last = solve_batched(blocked, rhs)
    assert x.tobytes() == x_last.tobytes()
    assert singular.tolist() == singular_last.tolist() == [False, False, True, False, False]
    for i in (0, 4):
        one, _ = solve_batched(stack[i : i + 1], rhs if shared else rhs[i : i + 1])
        assert one.tobytes() == x[i : i + 1].tobytes()
        column, _ = solve_batched(stack[i : i + 1], (rhs if shared else rhs[i])[:, :1])
        assert column[0, :, 0].tobytes() == x[i, :, 0].tobytes()
    for before, after in zip(saved, (stack, blocked, rhs)):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize("swaps", ["none", "all"])
def test_band_one_swaps_either_layout(swaps):
    # Upper Hessenberg stacks whose subdiagonal is tiny (no member swaps) or
    # dominant (every member swaps at every column).
    rng = np.random.default_rng(5)
    m, n = 7, 6
    stack = np.triu(rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n)), -1)
    scale = 1e-3 if swaps == "none" else 1e3
    stack[:, range(1, n), range(n - 1)] *= scale
    rhs = rng.normal(size=(m, n, 1)) + 1j * rng.normal(size=(m, n, 1))
    x, singular = solve_batched(stack, rhs)
    x_last, singular_last = solve_batched(_batch_last(stack), rhs)
    assert not singular.any() and not singular_last.any()
    assert x.tobytes() == x_last.tobytes()
    assert np.abs(stack @ x - rhs).max() < 1e-10 * np.abs(stack).max() * np.abs(x).max()
    expected = np.linalg.solve(stack, rhs)
    assert np.abs(x - expected).max() < 1e-10 * np.abs(expected).max()


def _record_bytes(e):
    """Every array an elimination record holds, as bytes."""
    arrays = [e.w, e.pivots, e.threshold, e.singular, *e.divisors]
    for exchange, factors in e.steps:
        arrays += [factors] if exchange is None else [exchange, factors]
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("n", [2, 3, 6, 8])
@pytest.mark.parametrize("form", ["hessenberg", "general"])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("k", [1, 2])
def test_replay_is_a_re_elimination_bit_for_bit(n, form, shared, k):
    # Two right-hand sides replayed on one elimination, in either order, give
    # the bytes and singular masks of two solves that eliminate the stack
    # anew, and replaying leaves the record as it was.
    rng = np.random.default_rng(100 * n + k)
    m = 6
    stack = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    if form == "hessenberg":
        stack = np.triu(stack, -1)
    stack[2] = 0.0
    # Member 4's pivot candidates in the first column tie in magnitude.
    stack[4, :, 0] = np.exp(2j * np.pi * np.arange(n) / n) * (np.arange(n) < (2 if form == "hessenberg" else n))
    shape = (n, k) if shared else (m, n, k)
    rhs = [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2)]
    saved = stack.tobytes()
    e = _eliminate_stack(stack)
    assert e.shape == stack.shape and stack.tobytes() == saved
    before = _record_bytes(e)
    fresh = [solve_batched(stack, b) for b in rhs]
    for order in ((0, 1), (1, 0)):
        for i in order:
            x, singular = solve_batched(e, rhs[i])
            assert x.tobytes() == fresh[i][0].tobytes()
            assert singular.tolist() == fresh[i][1].tolist() == [False, False, True, False, False, False]
    assert _record_bytes(e) == before
