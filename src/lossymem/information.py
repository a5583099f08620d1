"""Entropies, mutual information, rate and relative gain.

Two routes compute the same entropies. The closed-form core, `_closed_form`,
uses the fact that the channel splits into n copies of two decoupled
(signal, environment) quadrature pairs (see `assemble_model`): every
quadrature is Gaussian, so each entropy is a sum of log-variances and the
information per pair class is one `log1p` term, the one-mode Gaussian-channel
reduction of Holevo & Werner, PRA 63, 032312 (2001). It is written in numpy
ufuncs, so a float r and an array of r give the same bits element by element.
`mutual_information`, `rate_gain`, `rate_gains` and `optimize_r` run on it and
build no matrix. `optimize_r` bisects on the sign of the rate's closed-form
slope, since the rate has exactly one peak in r.

The paper's matrix chain is the reference that the tests and `verify` check
the core against: `output_entropy(model)` and `joint_entropy(model)` take
the entropies, in log space, of the model that `assemble_model(params, r)`
builds (powers like 2^{3n}, N^n and pi^n enter only as sums of logarithms);
the photon budget is channel_model's. Each also returns the normalization
coefficient multiplying its entropy bracket, c_out or c_joint, computed
rather than assumed to be 1; it equals 1 up to round-off for valid
parameters. The core has no such coefficient. Internal unit is nats;
conversion to bits happens once, at each entropy's return.
"""
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import N_MIN, photon_budget, r_limit
from .errors import DegenerateBaseline, PhotonBudgetExceeded
from .matrix_core import spd_logdet

LN2 = math.log(2.0)
LN_PI = math.log(math.pi)
# ln(2 pi e): twice the differential entropy (nats) of a unit-variance Gaussian
_LN_2PI_E = 1.0 + math.log(2.0 * math.pi)


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


def input_entropy(n, n_mod):
    """Entropy of the Gaussian modulation ensemble, in bits (n_mod a float or an array)."""
    if not np.all(n_mod >= N_MIN):
        raise PhotonBudgetExceeded(f"modulation variance {float(np.min(n_mod))!r} below {N_MIN}")
    return (n + n * np.log(math.pi * n_mod)) / LN2


def _ln_output_norm(model):
    """ln of the output density's normalization, and the ln det(R' + I/N) in it."""
    n, n_mod = model.n, model.n_mod
    ld_rpin = spd_logdet(model.r_p + np.eye(2 * n) / n_mod)
    ln_norm = 3 * n * LN2 - n * LN_PI - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_rpin)
    return ln_norm, ld_rpin


def _ln_joint_norm(model):
    """ln of the joint (modulation, output) density's normalization."""
    n, n_mod = model.n, model.n_mod
    return 3 * n * LN2 - 2 * n * LN_PI - n * math.log(n_mod) - 0.5 * model.logdet_gl


def output_entropy(model):
    """Entropy of the measured output, in bits, plus the c_out coefficient."""
    n, n_mod = model.n, model.n_mod
    ln_norm, ld_rpin = _ln_output_norm(model)
    ld_up = spd_logdet(model.u_p)
    ln_c = 3 * n * LN2 - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_rpin + ld_up)
    c_out = math.exp(ln_c)
    return c_out * (n - ln_norm) / LN2, c_out


def joint_entropy(model):
    """Entropy of the joint (modulation, output) density, in bits, plus c_joint."""
    n, n_mod = model.n, model.n_mod
    ld_v = spd_logdet(model.v_n)
    ln_c = 3 * n * LN2 - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_v)
    c_joint = math.exp(ln_c)
    return c_joint * (2 * n - _ln_joint_norm(model)) / LN2, c_joint


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


def _descent(params, r):
    """A positive multiple of -d(rate)/dr at admissible r, for eta > 0.

    Each fraction divides by plus or minus before it multiplies by e^{2r} or
    e^{-2r}, so no intermediate overflows, even at N_eff near 1e300.
    """
    eta, s = params.eta, params.s
    up, down = math.exp(2.0 * r), math.exp(-2.0 * r)
    plus = 1.0 + eta * up + (1.0 - eta) * math.exp(2.0 * s)
    minus = 1.0 + eta * down + (1.0 - eta) * math.exp(-2.0 * s)
    signal = 2.0 * eta * photon_budget(params.n_eff, r)
    sinh2r = math.sinh(2.0 * r)
    return ((sinh2r + signal / plus * up) / (plus + signal)
            + (sinh2r - signal / minus * down) / (minus + signal))


def optimize_r(params):
    """Maximize the relative gain over the admissible entanglement interval.

    Returns (r_star, gain_star), or (0.0, 0.0) when no r beats r = 0. The
    rate has exactly one peak in r: with x = e^{2r}, a = p0/eta, b = m0/eta,
    p0 = 1 + (1-eta)e^{2s}, m0 = 1 + (1-eta)e^{-2s} and k = 2 N_eff + 1,
    d(rate)/dx is, over a positive denominator, the sextic with coefficients
    (x^6 down to x^0) -b, -2(ab+1), -(2a^2b + 2ab^2 + 4abk + 5a + 4b^2k + 4bk^2),
    -4(a^2-b^2), 2a^2b + 4a^2k + 2ab^2 + 4abk + 4ak^2 + 5b, 2(ab+1), a. Their
    signs change once, so by Descartes' rule of signs it has one positive root.
    Bisecting on the sign of the slope over [-r_limit, r_limit] thus finds the
    peak to the last bit, stopping when the slope is exactly 0 or the midpoint
    reaches an endpoint. (The sextic's roots, from a companion matrix, miss
    the peak from |s| of about 35.)
    """
    lim = r_limit(params.n_eff)
    if lim <= 0.0:
        raise PhotonBudgetExceeded(f"photon budget {params.n_eff!r} leaves no admissible r")
    lo, hi, mid = -lim, lim, 0.0
    while lo < mid < hi:
        descent = _descent(params, mid)
        if descent == 0.0:
            break
        if descent > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    best = rate_gain(params, mid)
    if best.gain > 0.0:
        return mid, best.gain
    return 0.0, 0.0
