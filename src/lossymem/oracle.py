"""Verification paths for the closed-form pipeline.

All three routes are independent of the closed-form core of the information
module and of the pair chain of channel_model: they read only the public
kernel builders, the beam splitter and the photon budget. The moment oracle
propagates the exact covariance of the encode -> loss -> heterodyne pipeline
and takes the mutual information from the Gaussian block-determinant
formula. A physical Monte Carlo simulation of the same pipeline estimates it
from sampled moments, with a jackknife error bar. Direct numerical quadrature
evaluates the single-use entropy integrals of a given kernel.
"""
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import (
    build_beam_splitter,
    build_input_kernel,
    build_memory_kernel,
    photon_budget,
)
from .errors import DimensionMismatch, GridTooCoarse, InvalidSpec
from .information import LN2
from .matrix_core import spd_factor, spd_logdet

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


def pipeline_covariance(params, r):
    """Exact covariance of the (mu, zeta) rows that sample_joint draws.

    r is a float or an array; the result has shape np.shape(r) + (4n, 4n).
    With N = photon_budget(n_eff, r) the modulation block is (N/2) I, the
    cross block sqrt(eta) (N/2) I, and the output block
    eta ((N/2) I + A_in^{-1}/2) + (1 - eta) A_mem^{-1}/2 + I/4, with the
    input and memory kernels inverted numerically.
    """
    n, eta = params.n, params.eta
    r_flat = np.asarray(r, dtype=float).ravel()
    n_mod = np.array([photon_budget(params.n_eff, float(x)) for x in r_flat])
    a_in = np.array([build_input_kernel(n, float(x)) for x in r_flat]).reshape(-1, 2 * n, 2 * n)
    eye = np.eye(2 * n)
    sigma_mu = (n_mod / 2.0)[:, None, None] * eye
    cov = np.empty((r_flat.size, 4 * n, 4 * n))
    cov[:, :2 * n, :2 * n] = sigma_mu
    cov[:, :2 * n, 2 * n:] = cov[:, 2 * n:, :2 * n] = math.sqrt(eta) * sigma_mu
    cov[:, 2 * n:, 2 * n:] = (eta * (sigma_mu + np.linalg.inv(a_in) / 2.0)
                              + (1.0 - eta) * np.linalg.inv(build_memory_kernel(n, params.s)) / 2.0
                              + eye / 4.0)
    return cov.reshape(np.shape(r) + (4 * n, 4 * n))


def _mi_from_covariance(cov, n):
    """Gaussian MI (bits) between the first and last 2n coordinates of a
    4n x 4n covariance, or of each matrix in a (..., 4n, 4n) stack."""
    ld_mu = spd_logdet(cov[..., :2 * n, :2 * n])
    ld_zeta = spd_logdet(cov[..., 2 * n:, 2 * n:])
    return (ld_mu + ld_zeta - spd_logdet(cov)) / (2.0 * LN2)


def gaussian_mi_from_moments(params, r):
    """Mutual information (bits, over the n uses) of the pipeline's exact moments.

    r is a float or an array of r; the result is a float or an array of the
    same shape. An r outside the photon budget raises PhotonBudgetExceeded.
    """
    return _mi_from_covariance(pipeline_covariance(params, r), params.n)


def _kernel_sampler(kernel, rng_normal):
    """Draw rows with covariance kernel^{-1}/2 from standard-normal rows."""
    lower = spd_factor(kernel).lower
    # row x solves x L = z, so cov(x) = L^-T L^-1 = kernel^-1; scale by 1/sqrt(2)
    return np.linalg.solve(lower.T, rng_normal.T).T / math.sqrt(2.0)


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


def _whole_and_leave_outs(per_block):
    """Stack the total over blocks, then the total without each block."""
    total = per_block.sum(axis=0)
    return np.concatenate([total[None], total - per_block])


def monte_carlo_mi(params, r, cfg):
    """Estimate the mutual information per channel use from simulated samples.

    MI comes from the Gaussian moment formula on the empirical covariance of
    the sampled (mu, zeta), divided by the number of uses; the error bar is a
    20-block jackknife on the same quantity. Every leave-one-block-out
    covariance comes from the totals minus that block's sum and Gram matrix,
    on samples centred in place.
    """
    n = params.n
    m = cfg.samples
    data = sample_joint(params, r, cfg)
    data -= data.mean(axis=0)

    bounds = np.linspace(0, m, _JACKKNIFE_BLOCKS + 1).astype(int)
    # row 0 is the whole sample, row 1 + b the sample without block b
    counts = np.concatenate([[m], m - np.diff(bounds)])[:, None, None]
    sums = _whole_and_leave_outs(np.add.reduceat(data, bounds[:-1], axis=0))[:, :, None]
    grams = _whole_and_leave_outs(np.array([
        data[lo:hi].T @ data[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]))
    covs = (grams - sums * sums.transpose(0, 2, 1) / counts) / (counts - 1)
    mi = _mi_from_covariance(covs, n)

    value, leave_outs = float(mi[0]), mi[1:]
    dev = leave_outs - leave_outs.mean()
    blocks = _JACKKNIFE_BLOCKS
    std_error = math.sqrt((blocks - 1) / blocks * float(dev @ dev))
    return MiEstimate(value=value / n, std_error=std_error / n)


def _entropy_on_grid(kernel, norm_const, sigmas, half_width, points):
    """Trapezoid mass and entropy (bits) of norm_const * exp(-w kernel w^T).

    The loop runs over the first axis only. Each step evaluates the exponent
    q and the density p on a (points,)^(d-1) slab of the other axes, in two
    reused buffers, and takes -p ln p as p (q - ln norm_const).
    """
    d = len(sigmas)
    axes, weights = [], []
    for s_i in sigmas:
        ax = np.linspace(-half_width * s_i, half_width * s_i, points)
        h = ax[1] - ax[0]
        w = np.full(points, h)
        w[0] = w[-1] = h / 2.0
        axes.append(ax)
        weights.append(w)

    k = np.asarray(kernel, dtype=float)
    rest = np.meshgrid(*axes[1:], indexing="ij", sparse=True)
    w_rest = functools.reduce(np.multiply.outer, weights[1:])
    # q = k00 x0^2 + x0 * lin + q_rest on the slab at first coordinate x0
    q_rest = np.zeros((points,) * (d - 1))
    lin = np.zeros_like(q_rest)
    for i in range(1, d):
        lin += 2.0 * k[0, i] * rest[i - 1]
        q_rest += k[i, i] * rest[i - 1] * rest[i - 1]
        for j in range(i + 1, d):
            q_rest += 2.0 * k[i, j] * rest[i - 1] * rest[j - 1]

    ln_c = math.log(norm_const)
    q = np.empty_like(q_rest)
    p = np.empty_like(q_rest)
    mass = 0.0
    ent_nats = 0.0
    for x0, w0 in zip(axes[0].tolist(), weights[0].tolist()):
        np.multiply(lin, x0, out=q)
        q += q_rest
        q += k[0, 0] * x0 * x0
        np.negative(q, out=p)
        np.exp(p, out=p)
        p *= norm_const
        q -= ln_c
        q *= p
        mass += w0 * float(np.vdot(w_rest, p))
        ent_nats += w0 * float(np.vdot(w_rest, q))
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
    if not norm_const > 0.0:
        raise GridTooCoarse(f"density mass cannot be 1 with norm_const={norm_const!r}")
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
