"""Kernel builders and the assembled matrix chain."""
import math

import numpy as np
import pytest

from lossymem.channel_model import (
    ChannelParams,
    assemble_model,
    build_beam_splitter,
    build_heterodyne_kernel,
    build_input_kernel,
    build_memory_kernel,
    photon_budget,
    r_limit,
)
from lossymem.errors import InvalidSpec, NotPositiveDefinite, PhotonBudgetExceeded
from lossymem.matrix_core import block_diag, spd_factor, spd_logdet, symmetrize


def model_at(n, eta, s, r, n_mod):
    params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_mod + math.sinh(r) ** 2)
    return assemble_model(params, r)


def dense_g(n, eta, r, s):
    """(G, A_tot) of the literal chain: G = B^T A_tot B, A_tot = A_in(r) (+) A_mem(s)."""
    a_tot = block_diag(build_input_kernel(n, r), build_memory_kernel(n, s))
    b = build_beam_splitter(n, eta)
    return symmetrize(b.T @ (a_tot @ b)), a_tot


# ---------------------------------------------------------------- kernels

def test_input_kernel_vacuum_is_twice_identity():
    for n in (1, 2, 5):
        np.testing.assert_array_equal(build_input_kernel(n, 0.0),
                                      2.0 * np.eye(2 * n))


def test_input_kernel_single_use_is_squeezed_diagonal():
    for r in (-1.3, 0.25, 2.0):
        expected = np.diag([2.0 * math.exp(-2 * r), 2.0 * math.exp(2 * r)])
        np.testing.assert_allclose(build_input_kernel(1, r), expected,
                                   atol=1e-13)


def test_input_kernel_two_use_entries():
    r = 0.5
    got = build_input_kernel(2, r)
    diag = math.exp(-2 * r) + math.exp(2 * r)
    off = math.exp(-2 * r) - math.exp(2 * r)
    upper = np.array([[diag, off], [off, diag]])
    np.testing.assert_allclose(got[:2, :2], upper, atol=1e-13)
    # lower block mirrors with r -> -r, which swaps the exponentials
    np.testing.assert_allclose(got[2:, 2:], np.array([[diag, -off], [-off, diag]]),
                               atol=1e-13)
    np.testing.assert_array_equal(got[:2, 2:], np.zeros((2, 2)))


def test_memory_kernel_matches_input_family():
    np.testing.assert_array_equal(build_memory_kernel(3, 0.0), 2.0 * np.eye(6))
    np.testing.assert_allclose(build_memory_kernel(1, 1.0),
                               np.diag([2.0 * math.exp(-2), 2.0 * math.exp(2)]),
                               atol=1e-13)
    for n, v in ((2, 0.7), (4, -1.1)):
        np.testing.assert_array_equal(build_memory_kernel(n, v),
                                      build_input_kernel(n, v))


def test_input_kernel_logdet_is_constant():
    # spectrum 2e^{-2r} once and 2e^{2r} (n-1) times per block, det = 2^{2n}
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        for r in rng.uniform(-3.0, 3.0, size=4):
            ld = spd_logdet(build_input_kernel(n, float(r)))
            assert abs(ld - 2 * n * math.log(2.0)) <= 1e-10


def test_input_kernel_row_sums():
    for n in (1, 2, 4, 7):
        for r in (-2.0, -0.4, 0.0, 1.0, 2.0):
            sums = build_input_kernel(n, r).sum(axis=1)
            np.testing.assert_allclose(sums[:n], 2.0 * math.exp(-2 * r), atol=1e-12)
            np.testing.assert_allclose(sums[n:], 2.0 * math.exp(2 * r), atol=1e-12)


def test_beam_splitter_limits():
    np.testing.assert_array_equal(build_beam_splitter(2, 1.0), np.eye(8))
    eye = np.eye(4)
    zero = np.zeros((4, 4))
    np.testing.assert_array_equal(build_beam_splitter(2, 0.0),
                                  np.block([[zero, eye], [-eye, zero]]))


def test_beam_splitter_orthogonal_on_eta_grid():
    for k in range(11):
        b = build_beam_splitter(2, k / 10)
        assert np.abs(b @ b.T - np.eye(8)).max() <= 1e-12
        assert np.abs(b.T @ b - np.eye(8)).max() <= 1e-12


def test_heterodyne_kernel_shape():
    np.testing.assert_array_equal(build_heterodyne_kernel(1),
                                  np.diag([2.0, 2.0, 0.0, 0.0]))
    for n in (1, 3):
        k = build_heterodyne_kernel(n)
        assert k.trace() == 4 * n
        assert np.count_nonzero(k.diagonal()) == 2 * n


# ---------------------------------------------------------------- validation

def test_params_validation():
    with pytest.raises(InvalidSpec):
        ChannelParams(n=0, eta=0.5, s=0.0, n_eff=2.0)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=True, eta=0.5, s=0.0, n_eff=2.0)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=2, eta=-0.1, s=0.0, n_eff=2.0)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=2, eta=1.5, s=0.0, n_eff=2.0)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=2, eta=0.5, s=math.inf, n_eff=2.0)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=2, eta=0.5, s=0.0, n_eff=0.0)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=2, eta=0.5, s=0.0, n_eff=math.nan)


def test_assemble_rejects_r_outside_the_budget():
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    for r in (math.nan, r_limit(2.0) + 1e-3, -1.01 * r_limit(2.0)):
        with pytest.raises(PhotonBudgetExceeded):
            assemble_model(params, r)


def test_model_records_its_budget_and_block_length():
    for n in (1, 3):
        model = assemble_model(ChannelParams(n=n, eta=0.8, s=1.0, n_eff=2.0), 0.3)
        assert model.n == n
        assert model.n_mod == photon_budget(2.0, 0.3)


# ---------------------------------------------------------------- assembly

def test_vacuum_model_reduces_to_scaled_identities():
    n = 2
    model = model_at(n, 0.37, 0.0, 0.0, 2.0)
    expected = 2 * n * math.log(4.0) + 2 * n * math.log(2.0)
    assert model.logdet_gl == pytest.approx(expected, abs=1e-12)
    # conditioned signal block is diagonal and uniform across uses
    np.testing.assert_allclose(model.r_p, 0.37 * np.eye(2 * n), atol=1e-12)


def test_single_use_chain_memoryless_point():
    # hand-derived 4x4 chain at n=1, r=s=0, eta=4/5, N=2:
    # R' = eta I, S' = 2 sqrt(eta) I, T' = I, U' = (1 - eta/(eta + 1/2)) I,
    # V = [[(eta+1/2) I, -sqrt(eta) I], [-sqrt(eta) I, I]], det(G+L) = 64
    eta = 0.8
    model = model_at(1, eta, 0.0, 0.0, 2.0)
    rt = math.sqrt(eta)
    np.testing.assert_allclose(model.r_p, eta * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(model.s_p, 2 * rt * np.eye(2), atol=1e-12)
    np.testing.assert_allclose(model.t_p, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(model.u_p,
                               (1.0 - eta / (eta + 0.5)) * np.eye(2), atol=1e-12)
    expected_v = np.block([[(eta + 0.5) * np.eye(2), -rt * np.eye(2)],
                           [-rt * np.eye(2), np.eye(2)]])
    np.testing.assert_allclose(model.v_n, expected_v, atol=1e-12)
    assert model.logdet_gl == pytest.approx(math.log(64.0), abs=1e-12)


def test_single_use_chain_memory_point():
    # 60-digit scalar-by-scalar evaluation of the same chain at
    # n=1, eta=7/10, r=3/10, s=1, N = 2 - sinh^2(3/10)
    n_mod = 1.907267390878866148124043
    model = model_at(1, 0.7, 1.0, 0.3, n_mod)
    np.testing.assert_allclose(
        model.r_p, np.diag([0.3116513074064602, 0.9826156135300038]), atol=1e-12)
    np.testing.assert_allclose(
        model.s_p, np.diag([0.7449891174973381, 2.3489005865394569]), atol=1e-12)
    np.testing.assert_allclose(
        model.t_p, np.diag([0.4452161534378003, 1.4037365907571483]), atol=1e-12)
    np.testing.assert_allclose(
        model.u_p,
        np.diag([0.2792370107796712, 0.4884072775040943]), atol=1e-12)
    expected_v = np.array([
        [0.8359616399703706, 0.0, -0.3724945587486690, 0.0],
        [0.0, 1.5069259460939142, 0.0, -1.1744502932697285],
        [-0.3724945587486690, 0.0, 0.4452161534378003, 0.0],
        [0.0, -1.1744502932697285, 0.0, 1.4037365907571483]])
    np.testing.assert_allclose(model.v_n, expected_v, atol=1e-12)
    assert model.logdet_gl == pytest.approx(4.6289407854644554, abs=1e-12)


def test_chain_matches_literal_route_at_moderate_memory():
    # rebuild the full 4n x 4n chain from public primitives and truncate;
    # both routes must agree where the literal one is well conditioned
    n, eta, s, r, n_mod = 2, 0.8, 1.2, -0.35, 1.4
    model = model_at(n, eta, s, r, n_mod)
    a = block_diag(build_input_kernel(n, r), build_memory_kernel(n, s))
    b = build_beam_splitter(n, eta)
    l = build_heterodyne_kernel(n)
    f = a @ b
    g = symmetrize(b.T @ f)
    gl = spd_factor(g + l)
    x = gl.solve(f.T)
    r_full = a - f @ x
    s_full = 2.0 * l @ x
    t_full = l - l @ gl.solve(l)
    r_p = symmetrize(r_full)[:2 * n, :2 * n]
    s_p = s_full[:2 * n, :2 * n]
    t_p = symmetrize(t_full)[:2 * n, :2 * n]
    shift = r_p + np.eye(2 * n) / n_mod
    u_p = t_p - 0.25 * s_p @ spd_factor(shift).solve(s_p.T)

    assert np.abs(model.r_p - r_p).max() <= 1e-9
    assert np.abs(model.s_p - s_p).max() <= 1e-9
    assert np.abs(model.t_p - t_p).max() <= 1e-9
    assert np.abs(model.u_p - u_p).max() <= 1e-9
    assert abs(model.logdet_gl - gl.logdet()) <= 1e-9


def test_conjugation_preserves_logdet():
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        for r, s in ((0.0, 0.0), (0.5, 1.0), (-1.0, 2.0), (0.8, -1.5)):
            g, a_tot = dense_g(2, eta, r, s)
            assert abs(spd_logdet(g) - spd_logdet(a_tot)) <= 1e-10


def test_positive_definite_across_parameter_grid():
    r_s_values = (-2.0, -1.0, 0.0, 1.0, 2.0)
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        for r in r_s_values:
            for s in r_s_values:
                for n_mod in (0.01, 50.0):
                    model = model_at(2, eta, s, r, n_mod)
                    spd_factor(dense_g(2, eta, r, s)[0])
                    spd_factor(model.u_p)
                    spd_factor(model.v_n)


def test_permutation_of_uses_leaves_model_invariant():
    n = 3
    perm = (1, 2, 0)
    p = np.zeros((2 * n, 2 * n))
    for i, j in enumerate(perm):
        p[i, j] = 1.0
        p[n + i, n + j] = 1.0
    kernel = build_input_kernel(n, 0.7)
    np.testing.assert_allclose(p @ kernel @ p.T, kernel, atol=1e-12)

    model = model_at(n, 0.6, 1.5, 0.4, 1.2)
    for block in (model.r_p, model.s_p, model.t_p, model.u_p):
        np.testing.assert_allclose(p @ block @ p.T, block, atol=1e-12)


def test_extreme_memory_stays_positive_definite():
    # the solve-derived kernels keep tiny eigenvalues clean even at s=5
    model = model_at(2, 0.8, 5.0, -1.0, 1.0)
    spd_factor(model.u_p)
    spd_factor(model.v_n)
    assert math.isfinite(model.logdet_gl)
