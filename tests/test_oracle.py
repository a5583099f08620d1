"""Moment-formula, Monte Carlo, and quadrature verification paths."""
import math

import numpy as np
import pytest

from lossymem.channel_model import ChannelParams, assemble_model
from lossymem.errors import (
    DimensionMismatch,
    GridTooCoarse,
    InvalidSpec,
    NotPositiveDefinite,
    PhotonBudgetExceeded,
)
from lossymem.information import (
    input_entropy,
    joint_entropy,
    mutual_information,
    output_entropy,
    r_limit,
)
from lossymem.matrix_core import spd_logdet
from lossymem.oracle import (
    McConfig,
    MiEstimate,
    _entropy_on_grid,
    _mi_from_covariance,
    gaussian_mi_from_moments,
    monte_carlo_mi,
    pipeline_covariance,
    quadrature_entropy_n1,
    sample_joint,
)

LN2 = math.log(2.0)


def det_norm(kernel):
    """exp(-w kernel w^T) integrates to pi^{d/2} / sqrt(det kernel)."""
    d = kernel.shape[0]
    return math.exp(0.5 * spd_logdet(kernel) - 0.5 * d * math.log(math.pi))


# ---------------------------------------------------------------- config

def test_config_validation():
    McConfig(samples=40, seed=0)
    with pytest.raises(InvalidSpec):
        McConfig(samples=39, seed=1)
    with pytest.raises(InvalidSpec):
        McConfig(samples=40.0, seed=1)
    with pytest.raises(InvalidSpec):
        McConfig(samples=1000, seed=-1)
    with pytest.raises(InvalidSpec):
        McConfig(samples=1000, seed=2 ** 64)


# ---------------------------------------------------------------- moments

def test_moment_formula_anchor():
    params = ChannelParams(n=1, eta=0.8, s=0.0, n_eff=2.0)
    assert abs(gaussian_mi_from_moments(params, 0.0) - math.log2(2.6)) <= 1e-9


def test_moment_formula_blocked_channel():
    params = ChannelParams(n=2, eta=0.0, s=1.5, n_eff=2.0)
    assert abs(gaussian_mi_from_moments(params, 0.2)) <= 1e-9


def test_moment_formula_matches_closed_form():
    for eta in (0.2, 0.5, 0.8):
        for s in (0.0, 1.0, 5.0):
            for r in (-0.6, 0.0, 0.7):
                params = ChannelParams(n=2, eta=eta, s=s, n_eff=2.0)
                total = gaussian_mi_from_moments(params, r)
                assert abs(total - mutual_information(params, r).i_r) <= 1e-9


def test_moment_formula_rejects_bad_inputs():
    params = ChannelParams(n=2, eta=0.7, s=1.0, n_eff=2.0)
    past = 1.01 * r_limit(2.0)
    for r in (past, -past, np.array([0.0, past])):
        with pytest.raises(PhotonBudgetExceeded):
            gaussian_mi_from_moments(params, r)


def test_moment_formula_on_an_array_matches_points():
    for n in (1, 3):
        params = ChannelParams(n=n, eta=0.6, s=2.0, n_eff=5.0)
        r = np.linspace(-0.9, 0.9, 7) * r_limit(5.0)
        batched = gaussian_mi_from_moments(params, r)
        assert batched.shape == r.shape
        np.testing.assert_array_equal(
            batched, [gaussian_mi_from_moments(params, float(x)) for x in r])
        grid = r.reshape(7, 1)
        assert pipeline_covariance(params, grid).shape == (7, 1, 4 * n, 4 * n)
        assert gaussian_mi_from_moments(params, grid).shape == (7, 1)


def test_stacked_logdet_keeps_the_pivot_test():
    stack = np.stack([np.eye(2), np.diag([1.0, 1e-17])])
    with pytest.raises(NotPositiveDefinite):
        spd_logdet(stack)
    covs = np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, 1e-17])])
    with pytest.raises(NotPositiveDefinite):
        _mi_from_covariance(covs, 1)
    np.testing.assert_allclose(spd_logdet(np.stack([np.eye(2), 2.0 * np.eye(2)])),
                               [0.0, 2.0 * math.log(2.0)], rtol=0, atol=1e-15)


# ---------------------------------------------------------------- sampling

def test_sampled_covariance_matches_model():
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    model = assemble_model(params, 0.3)
    m = 50000
    data = sample_joint(params, 0.3, McConfig(samples=m, seed=11))
    assert data.shape == (m, 8)
    target = np.linalg.inv(model.v_n) / 2.0
    assert np.abs(np.cov(data, rowvar=False) - target).max() <= 5.0 / math.sqrt(m)


def test_sampled_covariance_scales_with_entry_size():
    # at strong memory the big entries need the Wishart error scale
    params = ChannelParams(n=2, eta=0.8, s=2.0, n_eff=2.0)
    model = assemble_model(params, 0.4)
    m = 50000
    data = sample_joint(params, 0.4, McConfig(samples=m, seed=17))
    target = np.linalg.inv(model.v_n) / 2.0
    diag = np.diag(target)
    scale = np.sqrt((np.outer(diag, diag) + target ** 2) / m)
    assert np.abs((np.cov(data, rowvar=False) - target) / scale).max() <= 5.0


def test_sampling_is_reproducible():
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    cfg = McConfig(samples=2000, seed=123)
    np.testing.assert_array_equal(sample_joint(params, 0.3, cfg),
                                  sample_joint(params, 0.3, cfg))
    a = monte_carlo_mi(params, 0.3, cfg)
    b = monte_carlo_mi(params, 0.3, cfg)
    assert a == b
    assert isinstance(a, MiEstimate)


# ---------------------------------------------------------------- Monte Carlo

def test_monte_carlo_anchor():
    params = ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0)
    est = monte_carlo_mi(params, 0.0, McConfig(samples=100000, seed=12345))
    assert abs(est.value - math.log2(2.6)) <= 3.0 * est.std_error
    assert est.std_error < 0.02


def test_monte_carlo_blocked_channel():
    params = ChannelParams(n=2, eta=0.0, s=2.0, n_eff=2.0)
    est = monte_carlo_mi(params, 0.1, McConfig(samples=40000, seed=7))
    assert abs(est.value) <= 3.0 * est.std_error


def test_monte_carlo_memory_point():
    params = ChannelParams(n=2, eta=0.8, s=2.0, n_eff=2.0)
    closed = mutual_information(params, 0.4).rate
    est = monte_carlo_mi(params, 0.4, McConfig(samples=60000, seed=42))
    assert abs(est.value - closed) <= 3.0 * est.std_error


def _reference_mi(data, n):
    cov = np.cov(data, rowvar=False)
    return (spd_logdet(cov[:2 * n, :2 * n]) + spd_logdet(cov[2 * n:, 2 * n:])
            - spd_logdet(cov)) / (2.0 * LN2)


def _reference_jackknife(params, r, cfg, blocks=20):
    """The leave-one-block-out loop over np.delete copies of the samples."""
    n = params.n
    data = sample_joint(params, r, cfg)
    bounds = np.linspace(0, cfg.samples, blocks + 1).astype(int)
    leave_outs = np.array([_reference_mi(np.delete(data, slice(lo, hi), axis=0), n)
                           for lo, hi in zip(bounds[:-1], bounds[1:])])
    dev = leave_outs - leave_outs.mean()
    return _reference_mi(data, n) / n, math.sqrt((blocks - 1) / blocks * float(dev @ dev)) / n


def test_block_sum_jackknife_matches_leave_out_loop():
    for n, eta, s, n_eff, r, m, seed in ((2, 0.8, 0.0, 2.0, 0.0, 20000, 1),
                                         (2, 0.8, 2.0, 2.0, 0.4, 5003, 42),
                                         (1, 0.5, 5.0, 20.0, -0.7, 5003, 12345),
                                         (3, 0.3, 1.0, 5.0, 0.6, 4019, 7)):
        params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)
        cfg = McConfig(samples=m, seed=seed)
        value, std_error = _reference_jackknife(params, r, cfg)
        est = monte_carlo_mi(params, r, cfg)
        assert abs(est.value - value) <= 1e-12
        assert abs(est.std_error - std_error) <= 1e-10 * std_error


def test_error_bar_shrinks_with_samples():
    params = ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0)
    small = monte_carlo_mi(params, 0.0, McConfig(samples=20000, seed=3))
    large = monte_carlo_mi(params, 0.0, McConfig(samples=80000, seed=3))
    ratio = small.std_error / large.std_error
    assert 1.4 <= ratio <= 3.0


def test_error_bar_is_calibrated():
    # against the exact per-use moment value, 3 sigma should cover nearly
    # always across random channels
    rng = np.random.default_rng(314)
    hits = 0
    for _ in range(100):
        eta = float(rng.uniform(0.05, 0.95))
        s = float(rng.uniform(0.0, 5.0))
        n_eff = float(rng.uniform(0.5, 30.0))
        r = float(rng.uniform(-0.9, 0.9)) * min(r_limit(n_eff), 1.5)
        params = ChannelParams(n=2, eta=eta, s=s, n_eff=n_eff)
        exact = gaussian_mi_from_moments(params, r) / 2.0
        est = monte_carlo_mi(params, r, McConfig(samples=5000,
                                                 seed=int(rng.integers(2 ** 63))))
        hits += abs(est.value - exact) <= 3.0 * est.std_error
    assert hits >= 95


# ---------------------------------------------------------------- quadrature

def test_quadrature_circular_density():
    value = quadrature_entropy_n1(np.eye(2), 1.0 / math.pi)
    assert abs(value - (1 + math.log(math.pi)) / LN2) <= 1e-4


def test_quadrature_input_density():
    value = quadrature_entropy_n1(np.eye(2) / 2.0, 1.0 / (2.0 * math.pi))
    assert abs(value - input_entropy(1, 2.0)) <= 1e-4


def test_quadrature_output_density():
    for eta, s, r in ((0.8, 0.0, 0.0), (0.7, 1.5, 0.4)):
        model = assemble_model(ChannelParams(n=1, eta=eta, s=s, n_eff=2.0), r)
        value = quadrature_entropy_n1(model.u_p, det_norm(model.u_p))
        closed, _ = output_entropy(model)
        assert abs(value - closed) <= 1e-4


def test_quadrature_joint_density():
    model = assemble_model(ChannelParams(n=1, eta=0.8, s=1.0, n_eff=2.0), 0.3)
    value = quadrature_entropy_n1(model.v_n, det_norm(model.v_n), points=65)
    closed, _ = joint_entropy(model)
    assert abs(value - closed) <= 1e-4


def _reference_entropy_on_grid(kernel, norm_const, sigmas, half_width, points):
    """The outer-point loop over 2-D inner grids, with p ln p from np.log."""
    d = len(sigmas)
    axes, weights = [], []
    for s_i in sigmas:
        ax = np.linspace(-half_width * s_i, half_width * s_i, points)
        h = ax[1] - ax[0]
        w = np.full(points, h)
        w[0] = w[-1] = h / 2.0
        axes.append(ax)
        weights.append(w)
    x_grid, y_grid = np.meshgrid(axes[-2], axes[-1], indexing="ij")
    w_xy = np.outer(weights[-2], weights[-1])
    k = np.asarray(kernel, dtype=float)
    q_xy = (k[-2, -2] * x_grid * x_grid
            + 2.0 * k[-2, -1] * x_grid * y_grid
            + k[-1, -1] * y_grid * y_grid)
    mass = 0.0
    ent_nats = 0.0
    for idx in np.ndindex(*(points,) * (d - 2)):
        pre = np.array([axes[i][idx[i]] for i in range(d - 2)])
        pre_w = float(np.prod([weights[i][idx[i]] for i in range(d - 2)]))
        q = q_xy.copy()
        if d > 2:
            q += float(pre @ k[:-2, :-2] @ pre)
            q += 2.0 * float(pre @ k[:-2, -2]) * x_grid
            q += 2.0 * float(pre @ k[:-2, -1]) * y_grid
        p = norm_const * np.exp(-q)
        log_p = np.log(p, out=np.zeros_like(p), where=p > 0)
        mass += pre_w * float((w_xy * p).sum())
        ent_nats -= pre_w * float((w_xy * p * log_p).sum())
    return mass, ent_nats / LN2


def test_slab_quadrature_matches_outer_point_loop():
    u_p = assemble_model(ChannelParams(n=1, eta=0.7, s=1.5, n_eff=2.0), 0.4).u_p
    v_n = assemble_model(ChannelParams(n=1, eta=0.8, s=1.0, n_eff=2.0), 0.3).v_n
    kernels = (u_p, v_n,
               np.array([[1.0, 0.3, -0.2, 0.1], [0.3, 2.0, 0.4, -0.5],
                         [-0.2, 0.4, 1.5, 0.2], [0.1, -0.5, 0.2, 0.9]]))
    for kernel in kernels:
        sigmas = np.sqrt(np.diag(np.linalg.inv(kernel) / 2.0))
        for half_width in (8.0, 2.0):
            args = (kernel, det_norm(kernel), sigmas, half_width, 17)
            mass, ent = _entropy_on_grid(*args)
            ref_mass, ref_ent = _reference_entropy_on_grid(*args)
            assert abs(mass - ref_mass) <= 1e-12
            assert abs(ent - ref_ent) <= 1e-12


def test_quadrature_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        quadrature_entropy_n1(np.eye(3), 1.0)
    with pytest.raises(DimensionMismatch):
        quadrature_entropy_n1(np.ones(2), 1.0)


def test_quadrature_rejects_unnormalized_density():
    for norm_const in (1.02 / math.pi, 0.0, -1.0 / math.pi):
        with pytest.raises(GridTooCoarse):
            quadrature_entropy_n1(np.eye(2), norm_const)


def test_quadrature_rejects_coarse_grids():
    with pytest.raises(GridTooCoarse):
        quadrature_entropy_n1(np.eye(2), 1.0 / math.pi, points=7)
    with pytest.raises(GridTooCoarse):
        quadrature_entropy_n1(np.eye(2), 1.0 / math.pi, points=9)
