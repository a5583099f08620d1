"""Entropies, mutual information, relative gain, and the gain optimizer."""
import math

import numpy as np
import pytest

from lossymem.channel_model import ChannelParams, assemble_model
from lossymem.errors import DegenerateBaseline, PhotonBudgetExceeded
from lossymem.information import (
    input_entropy,
    joint_entropy,
    mutual_information,
    optimize_r,
    output_entropy,
    photon_budget,
    r_limit,
    rate_gain,
)

LN2 = math.log(2.0)


def params_at(n=2, eta=0.8, s=0.0, n_eff=2.0):
    return ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)


# ---------------------------------------------------------------- budget

def test_photon_budget_examples():
    assert photon_budget(2.0, 0.0) == 2.0
    assert photon_budget(20.0, 1.0) == 20.0 - math.sinh(1.0) ** 2
    with pytest.raises(PhotonBudgetExceeded):
        photon_budget(2.0, math.asinh(math.sqrt(2.0)))


def test_r_limit_is_admissible():
    for n_eff in (0.5, 2.0, 20.0):
        lim = r_limit(n_eff)
        assert photon_budget(n_eff, lim) >= 0.0
        with pytest.raises(PhotonBudgetExceeded):
            photon_budget(n_eff, lim + 0.05)


def test_r_limit_is_admissible_on_log_grid():
    # above N_eff ~ 1e6 a fixed 2 * N_MIN margin falls below the round-off of
    # N_eff - sinh^2(r), and photon_budget(N_eff, r_limit(N_eff)) used to raise
    for n_eff in np.logspace(-3.0, 12.0, 3001).tolist():
        lim = r_limit(n_eff)
        photon_budget(n_eff, lim)
        photon_budget(n_eff, -lim)


# ---------------------------------------------------------------- entropies

def test_input_entropy_examples():
    assert input_entropy(1, 2.0) == pytest.approx((1 + math.log(2 * math.pi)) / LN2,
                                                  rel=1e-15)
    assert input_entropy(2, 2.0) == pytest.approx(2 * input_entropy(1, 2.0), rel=1e-15)
    assert input_entropy(1, 1.0 / math.pi) == pytest.approx(1.0 / LN2, abs=1e-14)
    with pytest.raises(PhotonBudgetExceeded):
        input_entropy(1, 0.0)


def test_output_entropy_memoryless_anchor():
    value, c_out = output_entropy(assemble_model(params_at(n=1), 0.0))
    assert value == pytest.approx((1 + math.log(math.pi * 2.6)) / LN2, abs=1e-12)
    assert c_out == pytest.approx(1.0, abs=1e-12)


def test_output_entropy_blocked_channel():
    # eta = 0 sends only the environment to the detector; with s = 0 the
    # measured density is an isotropic Gaussian of variance 1/2 per axis
    value, _ = output_entropy(assemble_model(params_at(n=1, eta=0.0), 0.0))
    assert value == pytest.approx((1 + math.log(math.pi)) / LN2, abs=1e-12)


def test_joint_entropy_factorizes_without_memory():
    # at n=1, s=0, r=0 the readout noise is mu-independent with variance 1/2,
    # so the joint entropy is the input entropy plus log2(pi e)
    for eta in (0.2, 0.5, 0.8):
        info = mutual_information(params_at(n=1, eta=eta), 0.0)
        expected = info.i_mu + (1 + math.log(math.pi)) / LN2
        assert info.i_joint == pytest.approx(expected, abs=1e-12)


def test_normalization_coefficients_are_one():
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(1, 5))
        params = params_at(n=n, eta=float(rng.uniform(0.05, 0.95)),
                           s=float(rng.uniform(0.0, 5.0)),
                           n_eff=float(rng.uniform(0.5, 30.0)))
        r = float(rng.uniform(-0.9, 0.9)) * min(r_limit(params.n_eff), 1.5)
        model = assemble_model(params, r)
        _, c_out = output_entropy(model)
        _, c_joint = joint_entropy(model)
        assert abs(c_out - 1.0) <= 1e-8
        assert abs(c_joint - 1.0) <= 1e-8


# ---------------------------------------------------------------- information

def test_memoryless_rate_closed_form():
    # without memory the heterodyne rate is log2(1 + eta N) for every n
    for n in (1, 2, 3):
        for eta in (0.1, 0.35, 0.62, 0.9):
            for n_eff in (0.5, 2.0, 20.0):
                info = mutual_information(params_at(n=n, eta=eta, n_eff=n_eff), 0.0)
                assert info.rate == pytest.approx(math.log2(1 + eta * n_eff), abs=1e-9)


def test_anchor_point_breakdown():
    info = mutual_information(params_at(n=1), 0.0)
    assert info.rate == pytest.approx(math.log2(2.6), abs=1e-9)
    assert info.i_mu == pytest.approx((1 + math.log(2 * math.pi)) / LN2, abs=1e-12)
    assert info.i_zeta == pytest.approx((1 + math.log(math.pi * 2.6)) / LN2, abs=1e-12)
    assert info.i_r == pytest.approx(info.i_mu + info.i_zeta - info.i_joint, abs=0.0)


def test_blocked_channel_carries_no_information():
    info = mutual_information(params_at(n=2, eta=0.0, s=1.5), 0.2)
    assert abs(info.i_r) <= 1e-9


def test_unit_transmissivity_ignores_memory():
    values = [mutual_information(params_at(n=2, eta=1.0, s=s), 0.3).i_r
              for s in (0.0, 2.0, 5.0)]
    assert max(values) - min(values) <= 1e-12


def test_rate_does_not_depend_on_block_length():
    for eta, s, r, n_eff in ((0.7, 2.0, 0.4, 2.0), (0.4, 1.0, -0.6, 5.0),
                             (0.9, 5.0, 0.8, 20.0)):
        rates = [mutual_information(params_at(n=n, eta=eta, s=s, n_eff=n_eff), r).rate
                 for n in (1, 2, 3, 4)]
        assert max(rates) - min(rates) <= 1e-9


def test_mutual_information_monotone_in_eta():
    values = [mutual_information(params_at(n=2, eta=0.1 * k, s=1.0), 0.0).i_r
              for k in range(1, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_information_is_bounded():
    rng = np.random.default_rng(11)
    for _ in range(15):
        params = params_at(n=int(rng.integers(1, 4)),
                           eta=float(rng.uniform(0.05, 0.95)),
                           s=float(rng.uniform(0.0, 5.0)),
                           n_eff=float(rng.uniform(0.5, 30.0)))
        r = float(rng.uniform(-0.9, 0.9)) * min(r_limit(params.n_eff), 1.5)
        info = mutual_information(params, r)
        assert info.i_r >= -1e-9
        assert info.i_r < info.i_mu


def _chain_breakdown(params, r):
    """(i_zeta, i_joint, rate) on the paper's matrix chain, the reference route."""
    model = assemble_model(params, r)
    i_zeta, _ = output_entropy(model)
    i_joint, _ = joint_entropy(model)
    return i_zeta, i_joint, (input_entropy(params.n, model.n_mod) + i_zeta - i_joint) / params.n


def test_closed_form_matches_matrix_chain():
    # 1125 points spanning n, eta, s, N_eff and r
    worst_rate = worst_zeta = worst_joint = 0.0
    for n in (1, 2, 8):
        for n_eff in (0.5, 2.0, 20.0):
            lim = r_limit(n_eff)
            for eta in (0.05, 0.3, 0.55, 0.8, 1.0):
                for s in (-5.0, -2.0, 0.0, 2.5, 5.0):
                    params = params_at(n=n, eta=eta, s=s, n_eff=n_eff)
                    for frac in (-0.95, -0.5, 0.0, 0.4, 0.95):
                        info = mutual_information(params, frac * lim)
                        i_zeta, i_joint, rate = _chain_breakdown(params, frac * lim)
                        worst_rate = max(worst_rate, abs(info.rate - rate) / info.rate)
                        worst_zeta = max(worst_zeta, abs(info.i_zeta - i_zeta))
                        worst_joint = max(worst_joint, abs(info.i_joint - i_joint))
    assert worst_rate <= 1e-7
    assert worst_zeta <= 5e-7
    assert worst_joint <= 5e-7


def test_far_budget_rates_match_high_precision_values():
    # eta = 0.3, s = 8, N_eff = 1e8 near the budget edge; the values are the
    # two-log1p rate evaluated in mpmath at 60 digits (the matrix chain
    # gives 19.67 and 20.44 bits here)
    params = params_at(n=2, eta=0.3, s=8.0, n_eff=1e8)
    lim = r_limit(1e8)
    for frac, want in ((-0.99, 0.80027660849872), (0.99, 11.7517357388523)):
        rate = mutual_information(params, frac * lim).rate
        assert abs(rate - want) <= 1e-12 * want


def test_tiny_transmissivity_information_is_exact():
    # mpmath values at 60 digits. i_r is a difference of entropies of up to
    # 14 bits at s = 0 and 27 bits at s = 8, so a few ulp of those allow
    # 6e-10 and 6e-8 relative; the matrix chain is 3.2% low at s = 8.
    for s, r, want, rtol in ((0.0, 0.3, 5.50320465457e-6, 1e-9),
                             (8.0, -0.99 * r_limit(2.0), 1.60140086681801e-7, 1e-7)):
        info = mutual_information(params_at(n=2, eta=1e-6, s=s, n_eff=2.0), r)
        assert abs(info.i_r - want) <= rtol * want


# ---------------------------------------------------------------- gain

def test_zero_entanglement_gain_is_exactly_zero():
    point = rate_gain(params_at(s=2.0), 0.0)
    assert point.gain == 0.0
    assert point.r == 0.0
    assert point.n_mod == 2.0


def test_gain_is_even_without_memory():
    params = params_at(s=0.0)
    for r in (0.3, 0.7, 1.0):
        plus = rate_gain(params, r).gain
        minus = rate_gain(params, -r).gain
        assert abs(plus - minus) <= 1e-8
        assert plus <= 1e-9
        assert minus <= 1e-9


def test_memory_turns_entanglement_profitable():
    assert rate_gain(params_at(s=5.0), 0.4).gain > 0.1


def test_blocked_channel_has_no_baseline():
    with pytest.raises(DegenerateBaseline):
        rate_gain(params_at(eta=0.0), 0.3)


def test_gain_tracks_budget():
    point = rate_gain(params_at(s=2.0), 0.5)
    assert point.n_mod == photon_budget(2.0, 0.5)
    assert point.info.rate == mutual_information(params_at(s=2.0), 0.5).rate


# ---------------------------------------------------------------- optimizer

def test_optimizer_without_memory_stays_at_zero():
    for eta in [k / 10 for k in range(1, 11)] + [0.31]:
        for n_eff in (1e-3, 0.5, 2.0, 20.0, 1e4, 1e10):
            r_star, gain_star = optimize_r(params_at(eta=eta, n_eff=n_eff, s=0.0))
            assert (r_star, gain_star) == (0.0, 0.0), (eta, n_eff)


def test_optimizer_gains_grow_with_memory():
    results = {s: optimize_r(params_at(s=s)) for s in (1.0, 2.0, 5.0)}
    assert 0.0 < results[1.0][1] < results[2.0][1] < results[5.0][1]
    for r_star, _ in results.values():
        assert r_star > 0.0


def test_optimizer_matches_dense_scan():
    # a 1e4-point scan over the admissible interval, refined by a second
    # 1e4-point pass around its argmax, pins r_star to ~1e-7 resolution
    params = params_at(s=5.0)
    r_star, gain_star = optimize_r(params)
    lim = r_limit(2.0)
    coarse = np.linspace(-lim, lim, 10000)
    gains = np.array([rate_gain(params, float(r)).gain for r in coarse])
    step = coarse[1] - coarse[0]
    center = coarse[int(np.argmax(gains))]
    zoom = np.linspace(center - step, center + step, 10000)
    zoom_gains = np.array([rate_gain(params, float(r)).gain for r in zoom])
    r_scan = float(zoom[int(np.argmax(zoom_gains))])
    assert abs(r_star - r_scan) <= 1e-6
    # near the flat top, gain differences sit at the fp-noise floor, so the
    # value check is loose while the location check above is the strict one
    assert gain_star >= zoom_gains.max() - 1e-9


def test_optimizer_meets_high_precision_argmax():
    # argmax r and peak gain of the two-log1p rate in mpmath at 60 digits.
    # At eta = 0.0025 the peak gain is 1.1e-8 and the round-off of i_r, a
    # difference of entropies, moves it by 1e-10, so only r is checked there.
    for n, eta, s, n_eff, r_mp, gain_mp in (
            (2, 0.8, 5.0, 2.0, 0.417307324532668, 0.12483446736419663),
            (32, 0.6, 5.0, 20.0, 0.936051312032302, 0.10963408199304596),
            (2, 0.5, -3.0, 2.0, -0.343489895557361, 0.079667359393826791),
            (1, 0.0025, 2.5, 0.00185, 4.55166942516639e-6, None),
            (2, 0.3, 8.0, 1e8, 3.90961652956366, 0.013097864749601744),
            (2, 0.3, 40.0, 1e8, 4.65073688545607, 0.014863840646531035),
            (2, 0.7, 300.0, 20.0, 0.971093184849176, 0.12272562868405483)):
        r_star, gain_star = optimize_r(params_at(n=n, eta=eta, s=s, n_eff=n_eff))
        assert abs(r_star - r_mp) <= 1e-12, (n, eta, s, n_eff)
        if gain_mp is not None:
            assert abs(gain_star - gain_mp) <= 1e-12 * gain_mp, (n, eta, s, n_eff)


def test_optimizer_rejects_exhausted_budget():
    with pytest.raises(PhotonBudgetExceeded):
        optimize_r(params_at(n_eff=2 * 1e-9))
