"""Verification paths for the closed-form pipeline.

Two routes share no algebra with the information module: a physical Monte
Carlo simulation of encode -> loss -> heterodyne, built from the kernels and
the beam splitter alone, and direct numerical quadrature of the single-use
entropy integrals of a given kernel. The third, the moment formula for
jointly Gaussian vectors, is not independent: it inverts model.v_n, which
the pair-chain algebra of channel_model builds for the information module
as well.
"""
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import ChannelParams, build_beam_splitter, build_input_kernel, build_memory_kernel
from .errors import DimensionMismatch, GridTooCoarse, InvalidSpec
from .information import LN2, photon_budget
from .matrix_core import spd_factor, spd_logdet, symmetrize

_JACKKNIFE_BLOCKS = 20


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run setup: sample count and RNG seed."""

    samples: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.samples, int) or self.samples < 2 * _JACKKNIFE_BLOCKS:
            raise InvalidSpec(
                f"samples must be an integer >= {2 * _JACKKNIFE_BLOCKS}, got {self.samples!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise InvalidSpec(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class MiEstimate:
    """Sampled mutual information with a jackknife standard error (bits)."""

    value: float
    std_error: float


def gaussian_mi_from_moments(model, n, n_mod):
    """Mutual information of the joint Gaussian from its moment matrix.

    The joint (mu, zeta) density has kernel v_n, hence covariance v_n^{-1}/2;
    the standard block-determinant identity gives the MI in bits.
    """
    if n_mod < 0:
        raise InvalidSpec(f"n_mod must be nonnegative, got {n_mod!r}")
    if model.v_n.shape[0] != 4 * n:
        raise DimensionMismatch(f"model holds dim {model.v_n.shape[0]}, expected {4 * n}")
    sigma = symmetrize(spd_factor(model.v_n).solve(np.eye(4 * n)) / 2.0)
    ld_mu = spd_logdet(sigma[:2 * n, :2 * n])
    ld_zeta = spd_logdet(sigma[2 * n:, 2 * n:])
    ld_all = spd_logdet(sigma)
    return (ld_mu + ld_zeta - ld_all) / (2.0 * LN2)


def _kernel_sampler(kernel, rng_normal):
    """Draw rows with covariance kernel^{-1}/2 from standard-normal rows."""
    lower = spd_factor(kernel).lower
    # row x solves x L = z, so cov(x) = L^-T L^-1 = kernel^-1; scale by 1/sqrt(2)
    return np.linalg.solve(lower.T, rng_normal.T).T / math.sqrt(2.0)


def _empirical_mi(data, n):
    cov = np.cov(data, rowvar=False)
    ld_mu = spd_logdet(cov[:2 * n, :2 * n])
    ld_zeta = spd_logdet(cov[2 * n:, 2 * n:])
    ld_all = spd_logdet(cov)
    return (ld_mu + ld_zeta - ld_all) / (2.0 * LN2)


def sample_joint(params, r, cfg):
    """Simulate the physical pipeline, returning (samples, 4n) rows of (mu, zeta).

    Per sample: draw the modulation mu, add input-ensemble noise to get the
    signal quadratures, draw environment quadratures, mix at the beam
    splitter, then heterodyne the signal output (adds variance 1/4 per
    quadrature).
    """
    n = params.n
    n_mod = photon_budget(params.n_eff, r)
    m = cfg.samples
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    mu = rng.standard_normal((m, 2 * n)) * math.sqrt(n_mod / 2.0)
    sig = mu + _kernel_sampler(build_input_kernel(n, r), rng.standard_normal((m, 2 * n)))
    env = _kernel_sampler(build_memory_kernel(n, params.s), rng.standard_normal((m, 2 * n)))
    mixed = np.hstack([sig, env]) @ build_beam_splitter(n, params.eta)
    zeta = mixed[:, :2 * n] + rng.standard_normal((m, 2 * n)) * 0.5
    return np.hstack([mu, zeta])


def monte_carlo_mi(params, r, cfg):
    """Estimate the mutual information per channel use from simulated samples.

    MI comes from the Gaussian moment formula on the empirical covariance of
    the sampled (mu, zeta), divided by the number of uses; the error bar is a
    20-block jackknife on the same quantity.
    """
    n = params.n
    m = cfg.samples
    data = sample_joint(params, r, cfg)

    value = _empirical_mi(data, n)
    bounds = np.linspace(0, m, _JACKKNIFE_BLOCKS + 1).astype(int)
    leave_outs = np.array([
        _empirical_mi(np.delete(data, slice(lo, hi), axis=0), n)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ])
    dev = leave_outs - leave_outs.mean()
    blocks = _JACKKNIFE_BLOCKS
    std_error = math.sqrt((blocks - 1) / blocks * float(dev @ dev))
    return MiEstimate(value=value / n, std_error=std_error / n)


def _entropy_on_grid(kernel, norm_const, sigmas, half_width, points):
    """Trapezoid mass and entropy (bits) of norm_const * exp(-w kernel w^T)."""
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


def quadrature_entropy_n1(kernel, norm_const, half_width=8.0, points=257):
    """Entropy (bits) of a 2- or 4-dimensional Gaussian-kernel density by
    tensor-grid trapezoid quadrature.

    The density is norm_const * exp(-w kernel w^T) with the caller-supplied
    normalization; the grid is checked first (mass within 1e-6 of 1) and the
    result is gated on agreement between the requested and half resolution,
    both raising GridTooCoarse on failure.
    """
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] not in (2, 4):
        raise DimensionMismatch(f"single-use densities are 2- or 4-dim, got {k.shape}")
    if points < 9:
        raise GridTooCoarse(f"points={points!r} cannot resolve the density")
    cov = spd_factor(k).solve(np.eye(k.shape[0])) / 2.0
    sigmas = np.sqrt(np.diag(cov))

    coarse_pts = (points + 1) // 2
    mass_f, ent_f = _entropy_on_grid(k, norm_const, sigmas, half_width, points)
    mass_c, ent_c = _entropy_on_grid(k, norm_const, sigmas, half_width, coarse_pts)
    for mass, label_pts in ((mass_f, points), (mass_c, coarse_pts)):
        if abs(mass - 1.0) > 1e-6:
            raise GridTooCoarse(
                f"density mass {mass!r} at {label_pts} points/axis is not 1 within 1e-6")
    if abs(ent_f - ent_c) > 2.5e-5:
        raise GridTooCoarse(
            f"entropy moved {abs(ent_f - ent_c):.3e} bits between resolutions "
            f"{coarse_pts} and {points}")
    return ent_f
