"""Entropies, mutual information, rate and relative gain.

Two routes compute the same entropies. The closed-form core, `_closed_form`,
uses the fact that the channel splits into n copies of two decoupled
(signal, environment) quadrature pairs (see `assemble_model`): every
quadrature is Gaussian, so per use the noise entropy is a sum of
log-variances and the rate is one `log1p` term per pair class, the one-mode
Gaussian-channel reduction of Holevo & Werner, PRA 63, 032312 (2001). n only
scales the reported totals (`_breakdown`), so rate and gain do not depend on
n, bit for bit. Floats run on `math` and arrays on numpy (`_namespace`):
numpy gives 1-D arrays of points (eta, s, r, N) the same bits element by
element, and math agrees with it to a few ulp, bit for bit on CPUs where
numpy's exp, log and log1p are libm's.
`mutual_information`, `rate_gain`, `rate_gains` and `optimize_r` run on it,
build no matrix and take every gain from per-use rates. A sweep's whole
(s, r) grid is one stacked evaluation, `_gain_grid`: one photon-budget call
over r and one `_closed_form` call on the s column against the admissible r,
its baselines included; `rate_gains` is its one-s view. `optimize_r` bisects
on the sign of the rate's closed-form slope, since the rate has exactly one
peak in r.

The paper's matrix chain is the reference that the tests and `verify` check
the core against: `output_entropy(model)` and `joint_entropy(model)` take
the entropies, in log space, of the model that `assemble_model(params, r)`
builds (powers like 2^{3n}, N^n and pi^n enter only as sums of logarithms).
Each log-determinant of a 2n x 2n or 4n x 4n chain form is n times the sum
over the model's two pair classes, taken by `spd_logdet` on the pair stack,
so a pair that is not positive definite raises NotPositiveDefinite. The
photon budget is channel_model's. Each also returns the normalization
coefficient multiplying its entropy bracket, c_out or c_joint, computed
rather than assumed to be 1; it equals 1 up to round-off for valid
parameters. The core has no such coefficient. Internal unit is nats;
conversion to bits happens once, at each entropy's return.
"""
import math
from dataclasses import dataclass

from ._lazy import np
from .channel_model import N_MIN, photon_budget, photon_budgets, r_limit
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


def _namespace(*values):
    """math when every value is a Python int or float (np.float64 is one),
    numpy otherwise: exp, log and log1p have the same names in both."""
    return math if all(isinstance(v, (int, float)) for v in values) else np


def input_entropy(n, n_mod):
    """Entropy of the Gaussian modulation ensemble, in bits (n_mod a float or an array)."""
    xp = _namespace(n_mod)
    low = n_mod if xp is math else xp.min(n_mod)
    if not low >= N_MIN:
        raise PhotonBudgetExceeded(f"modulation variance {float(low)!r} below {N_MIN}")
    return (n + n * xp.log(math.pi * n_mod)) / LN2


def _pair_logdet(model, pairs):
    """ln det of a chain form that is n copies of each class's pair: n times
    the sum over the (2, d, d) stack, each pair pivot-tested by spd_logdet."""
    return model.n * float(spd_logdet(pairs).sum())


def _ln_output_norm(model):
    """ln of the output density's normalization, and the ln det(R' + I/N) in it."""
    n, n_mod = model.n, model.n_mod
    ld_rpin = _pair_logdet(model, (model.r_pair + 1.0 / n_mod)[:, None, None])
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
    ld_up = _pair_logdet(model, model.u_pair[:, None, None])
    ln_c = 3 * n * LN2 - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_rpin + ld_up)
    c_out = math.exp(ln_c)
    return c_out * (n - ln_norm) / LN2, c_out


def joint_entropy(model):
    """Entropy of the joint (modulation, output) density, in bits, plus c_joint."""
    n, n_mod = model.n, model.n_mod
    ld_v = _pair_logdet(model, model.joint_pairs())
    ln_c = 3 * n * LN2 - n * math.log(n_mod) - 0.5 * (model.logdet_gl + ld_v)
    c_joint = math.exp(ln_c)
    return c_joint * (2 * n - _ln_joint_norm(model)) / LN2, c_joint


def _closed_form(eta, s, r, n_mod):
    """Closed-form core: the per-use (h_noise, rate) in bits.

    eta, s, r and n_mod are floats, or arrays that broadcast together, all
    admissible, with n_mod = photon_budget(n_eff, r): 1-D arrays of one
    length P hold P points, a float stands for every point, and an (S, 1)
    column of s against 1-D r and n_mod gives (S, P) results. Given the
    modulation, each use carries one output quadrature of noise variance
    plus/4 and one of minus/4; the modulation adds eta N / 2 to both. So
    h_noise, the output entropy per use given the modulation, is a sum of
    log-variances, and the rate is one log1p term per quadrature class. Each
    element of an array result is bit-equal to the call on that point's
    values as 0-d arrays. Floats, np.float64 included, run on math
    (`_namespace`), whose exp, log and log1p may differ from numpy's SIMD
    kernels in the last bit.
    """
    xp = _namespace(eta, s, r, n_mod)
    plus = 1.0 + eta * xp.exp(2.0 * r) + (1.0 - eta) * xp.exp(2.0 * s)
    minus = 1.0 + eta * xp.exp(-2.0 * r) + (1.0 - eta) * xp.exp(-2.0 * s)
    signal = 2.0 * eta * n_mod
    h_noise = (_LN_2PI_E + 0.5 * (xp.log(plus / 4.0) + xp.log(minus / 4.0))) / LN2
    rate = 0.5 * (xp.log1p(signal / plus) + xp.log1p(signal / minus)) / LN2
    return h_noise, rate


def _breakdown(n, n_mod, h_noise, rate):
    """InfoBreakdown's fields over n uses: n times the per-use terms, and i_mu."""
    i_mu = input_entropy(n, n_mod)
    return i_mu, n * (h_noise + rate), i_mu + n * h_noise, n * rate, rate


def mutual_information(params, r):
    """Full information breakdown at entanglement r within the photon budget."""
    n_mod = photon_budget(params.n_eff, r)
    return InfoBreakdown(*map(float, _breakdown(
        params.n, n_mod, *_closed_form(params.eta, params.s, r, n_mod))))


def _check_baseline(rate):
    """Reject a baseline rate too small to divide by."""
    if rate <= 1e-12:
        raise DegenerateBaseline(f"baseline rate {rate!r} bits per use is ~0 (eta too small)")


def rate_gain(params, r):
    """Relative gain of the rate at entanglement r over the r = 0 baseline; at
    r = 0 the rate has the baseline's inputs, so the gain is 0 by construction."""
    base = mutual_information(params, 0.0)
    _check_baseline(base.rate)
    info = mutual_information(params, r)
    return GainPoint(
        r=r, n_mod=photon_budget(params.n_eff, r),
        gain=(info.rate - base.rate) / base.rate, info=info)


def _gain_grid(n, eta, n_eff, s_values, r_values):
    """rate_gain over the whole (s, r) grid in one array evaluation.

    One `photon_budgets` call over r drops the values of r outside the
    budget, and one `_closed_form` call evaluates each of the S values of s
    (a row) against the k admissible r and, as a last column, against r = 0:
    the baselines. DegenerateBaseline names the first degenerate s in
    s_values' order. Returns the admissible (r, n_mod) as (k,) arrays, the
    (S, k) gains, the InfoBreakdown of (S, k) arrays and the baselines'
    InfoBreakdown of (S,) arrays. A column at r = 0 is computed from the
    same inputs as its baseline, so its gain is 0 by construction. The grid
    runs on numpy and rate_gain on math, so each value is within a few ulp
    of rate_gain's, and bit-equal where numpy's dispatch is libm's.
    """
    r_arr = np.fromiter(r_values, dtype=float)
    n_mod, admissible = photon_budgets(n_eff, r_arr)
    r_arr, n_mod = r_arr[admissible], n_mod[admissible]
    s_col = np.fromiter(s_values, dtype=float)[:, None]
    n_mod_all = np.append(n_mod, photon_budget(n_eff, 0.0))
    fields = np.broadcast_arrays(*_breakdown(
        n, n_mod_all, *_closed_form(eta, s_col, np.append(r_arr, 0.0), n_mod_all)))
    base = InfoBreakdown(*(values[:, -1] for values in fields))
    for value in base.rate.tolist():
        _check_baseline(value)
    info = InfoBreakdown(*(values[:, :-1] for values in fields))
    gain = (info.rate - base.rate[:, None]) / base.rate[:, None]
    return r_arr, n_mod, gain, info, base


def rate_gains(params, r_values):
    """rate_gain at many r in one array evaluation: the one-s view of the
    sweep's grid core.

    Values of r outside the photon budget, by the element-wise test of
    `photon_budgets`, are dropped. Returns arrays (r, n_mod, gain) of the
    admissible points, in input order, their InfoBreakdown of arrays
    (element by element within a few ulp of rate_gain's), and the r = 0 baseline's
    InfoBreakdown of floats, whose per-use rate the gains divide by. The
    gain at r = 0 is 0 by construction.
    """
    r_arr, n_mod, gain, info, base = _gain_grid(
        params.n, params.eta, params.n_eff, [params.s], r_values)
    row = InfoBreakdown(**{name: values[0] for name, values in vars(info).items()})
    base = InfoBreakdown(**{name: float(values[0]) for name, values in vars(base).items()})
    return r_arr, n_mod, gain[0], row, base


def optimize_r(params):
    """Maximize the relative gain over the admissible entanglement interval.

    Returns rate_gain's GainPoint at the peak, or the r = 0 point (gain 0,
    the baseline's InfoBreakdown) when no r beats r = 0, r_limit = 0 included;
    a peak at 0 is that point, so a call costs at most two closed-form calls.
    The rate has exactly one peak in r: with x = e^{2r}, a = p0/eta,
    b = m0/eta, p0 = 1 + (1-eta)e^{2s}, m0 = 1 + (1-eta)e^{-2s} and
    k = 2 N_eff + 1, d(rate)/dx is, over a positive denominator, the sextic
    with coefficients (x^6 down to x^0) -b, -2(ab+1),
    -(2a^2b + 2ab^2 + 4abk + 5a + 4b^2k + 4bk^2), -4(a^2-b^2),
    2a^2b + 4a^2k + 2ab^2 + 4abk + 4ak^2 + 5b, 2(ab+1), a. Their signs change
    once, so by Descartes' rule of signs it has one positive root. Bisecting
    on the sign of the slope over [-r_limit, r_limit] thus finds the peak to
    the last bit, stopping when the slope is exactly 0 or the midpoint reaches
    an endpoint. (The sextic's roots, from a companion matrix, miss the peak
    from |s| of about 35.) The slope's fractions divide before they multiply,
    so nothing overflows, even at N_eff near 1e300.
    """
    eta, n_eff = params.eta, params.n_eff
    c_plus = (1.0 - eta) * math.exp(2.0 * params.s)
    c_minus = (1.0 - eta) * math.exp(-2.0 * params.s)
    lim = r_limit(n_eff)
    lo, hi, mid = -lim, lim, 0.0
    while lo < mid < hi:
        # a positive multiple of -d(rate)/dr at mid
        up, down = math.exp(2.0 * mid), math.exp(-2.0 * mid)
        plus = 1.0 + eta * up + c_plus
        minus = 1.0 + eta * down + c_minus
        signal = 2.0 * eta * photon_budget(n_eff, mid)
        sinh2r = math.sinh(2.0 * mid)
        descent = ((sinh2r + signal / plus * up) / (plus + signal)
                   + (sinh2r - signal / minus * down) / (minus + signal))
        if descent == 0.0:
            break
        if descent > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    best = rate_gain(params, mid)
    return best if best.gain > 0.0 or mid == 0.0 else rate_gain(params, 0.0)
