"""Entropies, mutual information, rate and relative gain.

Two routes compute the same entropies. The closed-form core, `_closed_form`,
uses the fact that the channel splits into n copies of two decoupled
(signal, environment) quadrature pairs (see `assemble_model`): every
quadrature is Gaussian, so each entropy is a sum of log-variances and the
information per pair class is one `log1p` term, the one-mode Gaussian-channel
reduction of Holevo & Werner, PRA 63, 032312 (2001). It is written in numpy
ufuncs, so a float r and an array of r give the same bits element by element.
`mutual_information`, `rate_gain`, `rate_gains` and `optimize_r` run on it and
build no matrix.

The paper's matrix chain is the reference that the tests and `verify` check
the core against: `output_entropy` and `joint_entropy` evaluate the entropies
from the assembled `ModelMatrices` in log space (powers like 2^{3n}, N^n and
pi^n enter only as sums of logarithms). Each also returns the normalization
coefficient multiplying its entropy bracket, c_out or c_joint, computed
rather than assumed to be 1; it equals 1 up to round-off for valid
parameters. The core has no such coefficient. Internal unit is nats;
conversion to bits happens once, at each entropy's return.
"""
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import N_MIN
from .errors import DegenerateBaseline, PhotonBudgetExceeded
from .matrix_core import spd_logdet

LN2 = math.log(2.0)
LN_PI = math.log(math.pi)
_EPS = np.finfo(np.float64).eps
# ln(2 pi e): twice the differential entropy (nats) of a unit-variance Gaussian
_LN_2PI_E = 1.0 + math.log(2.0 * math.pi)

# Coarse-grid size seeding the golden-section branches of optimize_r.
_SEED_GRID = 256
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class InfoBreakdown:
    """Entropies (bits), mutual information and per-use rate; floats from
    mutual_information, arrays from rate_gains."""

    i_mu: float
    i_zeta: float
    i_joint: float
    i_r: float
    rate: float


@dataclass(frozen=True)
class GainPoint:
    """Relative rate gain of entanglement r against the r = 0 baseline."""

    r: float
    n_mod: float
    gain: float
    info: InfoBreakdown


def photon_budget(n_eff, r):
    """Modulation variance left after spending sinh^2(r) on entanglement."""
    n_mod = n_eff - math.sinh(r) ** 2
    if not n_mod >= N_MIN:
        raise PhotonBudgetExceeded(
            f"r={r!r} leaves modulation {n_mod!r} below {N_MIN} "
            f"(admissible |r| <= {r_limit(n_eff)!r})")
    return n_mod


def r_limit(n_eff):
    """Largest |r| whose modulation variance stays >= N_MIN with margin.

    The margin grows with n_eff so that it outlasts the round-off of n_eff.
    """
    head = n_eff - max(2.0 * N_MIN, 16.0 * _EPS * n_eff)
    return math.asinh(math.sqrt(head)) if head > 0.0 else 0.0


def input_entropy(n, n_mod):
    """Entropy of the Gaussian modulation ensemble, in bits (n_mod a float or an array)."""
    if not np.all(n_mod >= N_MIN):
        raise PhotonBudgetExceeded(f"modulation variance {float(np.min(n_mod))!r} below {N_MIN}")
    return (n + n * np.log(math.pi * n_mod)) / LN2


def _ln_output_norm(model, n, n_mod):
    """ln of the output density's normalization, and the ln det(R' + I/N) in it."""
    ld_rpin = spd_logdet(model.r_p + np.eye(2 * n) / n_mod)
    ln_norm = 3 * n * LN2 - n * LN_PI - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_rpin)
    return ln_norm, ld_rpin


def _ln_joint_norm(model, n, n_mod):
    """ln of the joint (modulation, output) density's normalization."""
    return 3 * n * LN2 - 2 * n * LN_PI - n * math.log(n_mod) - 0.5 * model.logdet_gl


def output_entropy(model, n, n_mod):
    """Entropy of the measured output, in bits, plus the c_out coefficient."""
    ln_norm, ld_rpin = _ln_output_norm(model, n, n_mod)
    ld_up = spd_logdet(model.u_p)
    ln_c = 3 * n * LN2 - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_rpin + ld_up)
    c_out = math.exp(ln_c)
    return c_out * (n - ln_norm) / LN2, c_out


def joint_entropy(model, n, n_mod):
    """Entropy of the joint (modulation, output) density, in bits, plus c_joint."""
    ld_v = spd_logdet(model.v_n)
    ln_c = 3 * n * LN2 - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_v)
    c_joint = math.exp(ln_c)
    return c_joint * (2 * n - _ln_joint_norm(model, n, n_mod)) / LN2, c_joint


def _closed_form(params, r, n_mod):
    """Closed-form core: (i_mu, i_zeta, i_joint, i_r) in bits at entanglement r.

    r and n_mod are floats, or arrays of one shape, of admissible points with
    n_mod = photon_budget(n_eff, r). Given the modulation, each use carries
    one output quadrature of noise variance plus/4 and one of minus/4; the
    modulation adds eta N / 2 to both. So h_noise, the output entropy given
    the modulation, is a sum of log-variances, and the information is one
    log1p term per quadrature class.
    """
    n, eta, s = params.n, params.eta, params.s
    plus = 1.0 + eta * np.exp(2.0 * r) + (1.0 - eta) * math.exp(2.0 * s)
    minus = 1.0 + eta * np.exp(-2.0 * r) + (1.0 - eta) * math.exp(-2.0 * s)
    signal = 2.0 * eta * n_mod
    h_noise = n * _LN_2PI_E + 0.5 * n * (np.log(plus / 4.0) + np.log(minus / 4.0))
    info = 0.5 * n * (np.log1p(signal / plus) + np.log1p(signal / minus))
    i_mu = input_entropy(n, n_mod)
    i_zeta = (h_noise + info) / LN2
    i_joint = i_mu + h_noise / LN2
    return i_mu, i_zeta, i_joint, i_mu + i_zeta - i_joint


def mutual_information(params, r):
    """Full information breakdown at entanglement r within the photon budget."""
    n_mod = photon_budget(params.n_eff, r)
    i_mu, i_zeta, i_joint, i_r = (float(v) for v in _closed_form(params, r, n_mod))
    return InfoBreakdown(
        i_mu=i_mu, i_zeta=i_zeta, i_joint=i_joint, i_r=i_r, rate=i_r / params.n)


def _nonzero_baseline(params):
    """Mutual information at r = 0, rejected when too small to divide by."""
    base = mutual_information(params, 0.0)
    if base.i_r <= 1e-12:
        raise DegenerateBaseline(
            f"baseline mutual information {base.i_r!r} is ~0 (eta too small)")
    return base


def rate_gain(params, r):
    """Relative gain of entanglement r over the r = 0 baseline.

    r = 0 reuses the baseline directly so a zero-entanglement point carries
    gain exactly 0.
    """
    base = _nonzero_baseline(params)
    if r == 0.0:
        return GainPoint(r=0.0, n_mod=params.n_eff, gain=0.0, info=base)
    info = mutual_information(params, r)
    return GainPoint(
        r=r, n_mod=photon_budget(params.n_eff, r),
        gain=(info.i_r - base.i_r) / base.i_r, info=info)


def rate_gains(params, r_values):
    """rate_gain at many r in one array evaluation.

    Values of r outside the photon budget are dropped. Returns arrays
    (r, n_mod, gain) of the admissible points, in input order, and their
    InfoBreakdown of arrays; element by element they equal rate_gain's.
    """
    base = _nonzero_baseline(params)
    kept = []
    for r in r_values:
        try:
            kept.append((float(r), photon_budget(params.n_eff, r)))
        except PhotonBudgetExceeded:
            continue
    r_arr, n_mod = np.array(kept, dtype=float).reshape(-1, 2).T
    i_mu, i_zeta, i_joint, i_r = _closed_form(params, r_arr, n_mod)
    gain = np.where(r_arr == 0.0, 0.0, (i_r - base.i_r) / base.i_r)
    info = InfoBreakdown(
        i_mu=i_mu, i_zeta=i_zeta, i_joint=i_joint, i_r=i_r, rate=i_r / params.n)
    return r_arr, n_mod, gain, info


def _golden_max(fn, lo, hi, tol=1e-9):
    """Golden-section maximization of fn on [lo, hi]."""
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fn(d)
    mid = 0.5 * (a + b)
    return mid, fn(mid)


def optimize_r(params):
    """Maximize the relative gain over the admissible entanglement interval.

    Gain is not proven unimodal in r, so each sign branch is seeded by a
    coarse grid and golden-section search refines a bracket around the best
    grid point; the better branch wins.
    """
    lim = r_limit(params.n_eff)
    if lim <= 0.0:
        raise PhotonBudgetExceeded(f"photon budget {params.n_eff!r} leaves no admissible r")

    def gain_at(r):
        return rate_gain(params, r).gain

    grid, _, gains, _ = rate_gains(params, np.linspace(-lim, lim, _SEED_GRID))
    grid, gains = grid.tolist(), gains.tolist()
    step = grid[1] - grid[0]

    best_r, best_g = 0.0, gain_at(0.0)
    for branch_lo, branch_hi in ((-lim, 0.0), (0.0, lim)):
        in_branch = [(g, r) for g, r in zip(gains, grid) if branch_lo <= r <= branch_hi]
        g0, r0 = max(in_branch)
        lo = max(branch_lo, r0 - step)
        hi = min(branch_hi, r0 + step)
        r_ref, g_ref = _golden_max(gain_at, lo, hi)
        if g_ref < g0:
            r_ref, g_ref = r0, g0
        if g_ref > best_g:
            best_r, best_g = r_ref, g_ref
    return best_r, best_g
