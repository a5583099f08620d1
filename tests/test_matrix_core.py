"""Pivot-tested SPD factor of a matrix or a stack, logdet and block assembly."""
import math

import numpy as np
import pytest

from lossymem.errors import DimensionMismatch, NotPositiveDefinite
from lossymem.matrix_core import block_diag, spd_factor, spd_logdet, symmetrize


def random_spd(rng, dim):
    g = rng.standard_normal((dim, dim))
    return symmetrize(g.T @ g + np.eye(dim))


def cofactor_det(a):
    # brute-force expansion along the first row, independent of any factorization
    d = a.shape[0]
    if d == 1:
        return a[0, 0]
    total = 0.0
    for j in range(d):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def test_logdet_identity_is_zero():
    assert spd_logdet(np.eye(4)) == pytest.approx(0.0, abs=1e-14)


def test_logdet_scaled_identity():
    assert spd_logdet(2.0 * np.eye(2)) == pytest.approx(2.0 * math.log(2.0), abs=1e-14)


def test_logdet_diagonal():
    assert spd_logdet(np.diag([2.0, 4.0])) == pytest.approx(math.log(8.0), abs=1e-14)


def test_logdet_matches_cofactor_determinant():
    rng = np.random.default_rng(6)
    for dim in range(1, 7):
        m = random_spd(rng, dim)
        direct = cofactor_det(m)
        assert math.exp(spd_logdet(m)) == pytest.approx(direct, rel=1e-10)


def test_factor_reconstructs_matrix_and_logdet():
    rng = np.random.default_rng(7)
    m = random_spd(rng, 5)
    lower = spd_factor(m)
    np.testing.assert_allclose(lower @ lower.T, m, rtol=0.0, atol=1e-12)
    assert 2.0 * np.log(np.diag(lower)).sum() == pytest.approx(spd_logdet(m), abs=1e-12)


def test_not_positive_definite_raises():
    with pytest.raises(NotPositiveDefinite):
        spd_logdet(np.diag([1.0, -1.0]))
    # indefinite but with positive diagonal
    with pytest.raises(NotPositiveDefinite):
        spd_logdet(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        spd_logdet(np.zeros((3, 3)))
    # np.linalg.cholesky accepts this one; the second pivot fails dim * eps * max(diag)
    with pytest.raises(NotPositiveDefinite):
        spd_logdet(np.diag([1.0, 1e-17]))
    # NaN makes both comparisons of the pivot test False; it must still fail
    for bad in (np.diag([1.0, np.nan]), np.array([[1.0, np.nan], [np.nan, 1.0]]),
                np.full((2, 2), np.nan)):
        with pytest.raises(NotPositiveDefinite):
            spd_logdet(bad)
        with pytest.raises(NotPositiveDefinite):
            spd_factor(bad)
    # one bad matrix fails the whole stack, whichever test it fails
    for bad in (np.diag([1.0, -1.0]), np.array([[1.0, 2.0], [2.0, 1.0]]),
                np.diag([1.0, 1e-17]), np.diag([1.0, np.nan])):
        stack = np.stack([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            spd_factor(stack)
        with pytest.raises(NotPositiveDefinite):
            spd_logdet(stack)


def test_asymmetric_input_fails_the_pivot_test():
    # the factor reads only the lower triangle; an upper triangle that
    # disagrees with it, or a NaN in either, fails the symmetry test
    for bad in (np.array([[1.0, 5.0], [0.0, 1.0]]), np.array([[1.0, np.nan], [0.0, 1.0]]),
                np.array([[1.0, 0.0], [np.nan, 1.0]]), np.array([[1.0, 1e-12], [0.0, 1.0]])):
        with pytest.raises(NotPositiveDefinite):
            spd_logdet(bad)
        with pytest.raises(NotPositiveDefinite):
            spd_factor(bad)
        stack = np.stack([np.eye(2), bad, 2.0 * np.eye(2)])
        with pytest.raises(NotPositiveDefinite):
            spd_logdet(stack)
        with pytest.raises(NotPositiveDefinite):
            spd_factor(stack)


def test_one_asymmetric_entry_fails_a_stack():
    # every off-diagonal position of one matrix in a stack, above and below
    # the diagonal, set off by more than the round-off bound or set to NaN;
    # at d = 1 only the diagonal can hold a NaN
    rng = np.random.default_rng(11)
    for dim in (1, 2, 8):
        stack = np.stack([random_spd(rng, dim) for _ in range(5)])
        np.testing.assert_array_equal(spd_factor(stack)[2], spd_factor(stack[2]))
        assert spd_factor(stack[:0]).shape == (0, dim, dim)
        for i in range(dim):
            for j in range(dim):
                for value in ((stack[2, i, j] + 1e-6, np.nan) if i != j else (np.nan,)):
                    bad = stack.copy()
                    bad[2, i, j] = value
                    with pytest.raises(NotPositiveDefinite):
                        spd_factor(bad)
                    with pytest.raises(NotPositiveDefinite):
                        spd_logdet(bad)


def test_round_off_asymmetry_passes_the_pivot_test():
    rng = np.random.default_rng(9)
    for dim in (2, 5, 9, 16):
        m = random_spd(rng, dim)
        inv = np.linalg.inv(m)
        assert spd_logdet(inv) == pytest.approx(-spd_logdet(m), abs=1e-10)
        spd_factor(inv)
        stack = np.stack([inv, inv.T, m])
        np.testing.assert_array_equal(spd_factor(stack)[0], spd_factor(inv))
        spd_logdet(stack)


def test_non_square_input_raises_dimension_mismatch():
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(DimensionMismatch):
            spd_factor(bad)
        with pytest.raises(DimensionMismatch):
            spd_logdet(bad)


def test_block_diag_of_identities():
    out = block_diag(np.eye(2), np.eye(2))
    np.testing.assert_array_equal(out, np.eye(4))


def test_block_diag_scaled():
    out = block_diag(2.0 * np.eye(2), 3.0 * np.eye(2))
    np.testing.assert_array_equal(out, np.diag([2.0, 2.0, 3.0, 3.0]))


def test_block_diag_logdet_additivity():
    rng = np.random.default_rng(8)
    a = random_spd(rng, 3)
    b = random_spd(rng, 4)
    combined = spd_logdet(block_diag(a, b))
    assert combined == pytest.approx(spd_logdet(a) + spd_logdet(b), abs=1e-12)


def test_block_diag_of_stacks_matches_per_matrix_calls():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3, 3, 3))
    b = rng.standard_normal((2, 3, 2, 2))
    out = block_diag(a, b)
    assert out.shape == (2, 3, 5, 5)
    for index in np.ndindex(2, 3):
        np.testing.assert_array_equal(out[index], block_diag(a[index], b[index]))


def test_top_left_of_block_diag_recovers_block():
    rng = np.random.default_rng(10)
    a = random_spd(rng, 3)
    b = random_spd(rng, 2)
    recovered = block_diag(a, b)[:3, :3]
    # exact round trip, no arithmetic allowed to perturb the entries
    np.testing.assert_array_equal(recovered, a)
