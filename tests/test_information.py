"""Entropies, mutual information, relative gain, and the gain optimizer."""
import dataclasses
import decimal
import math

import numpy as np
import pytest

from lossymem import cli
from lossymem.channel_model import N_EFF_MAX, N_MIN, ChannelParams, assemble_model, photon_budgets
from lossymem.errors import DegenerateBaseline, NotPositiveDefinite, PhotonBudgetExceeded
from lossymem.information import (
    GainPoint,
    _closed_form,
    _gain_grid,
    input_entropy,
    joint_entropy,
    mutual_information,
    optimize_r,
    output_entropy,
    photon_budget,
    r_limit,
    rate_gain,
    rate_gains,
)

from path_bound import gains_agree, paths_agree
from random_points import random_points

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


def test_element_wise_budget_matches_per_r_calls():
    # bit-equal where photon_budget admits r, inadmissible where it raises,
    # and rate_gains keeps exactly the admitted r, in input order, with its
    # r = 0 baseline, whose array rates lie within PATH_ULPS of the scalar's
    specials = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    for size in (355.0, 356.0, 710.0, 711.0):
        specials += [size, -size]
    rng = np.random.default_rng(5)
    for n_eff in (1e-3, 2.0, 20.0, 1e4, N_EFF_MAX):
        lim = r_limit(n_eff)
        # near_edge leaves a modulation in (0, N_MIN) where n_eff is small
        near_edge = math.asinh(math.sqrt(n_eff - 0.5 * N_MIN))
        r_values = np.array(specials + [lim, -lim, math.nextafter(lim, math.inf), near_edge]
                            + (lim * rng.uniform(-1.5, 1.5, 200)).tolist())
        n_mod, admissible = photon_budgets(n_eff, r_values)
        assert n_mod.shape == admissible.shape == r_values.shape
        kept = []
        for r, spare, ok in zip(r_values.tolist(), n_mod.tolist(), admissible.tolist()):
            try:
                budget = photon_budget(n_eff, r)
            except PhotonBudgetExceeded:
                assert not ok and not spare >= N_MIN, (n_eff, r, spare)
                continue
            assert ok and spare.hex() == budget.hex(), (n_eff, r)
            kept.append((r, budget))
        assert 0 < len(kept) < len(r_values)
        params = params_at(n_eff=n_eff)
        r_ok, n_ok, _, _, base = rate_gains(params, r_values.tolist())
        assert [(r.hex(), n.hex()) for r, n in zip(r_ok.tolist(), n_ok.tolist())] == [
            (r.hex(), n.hex()) for r, n in kept]
        scalar = mutual_information(params, 0.0)
        for field in ("i_mu", "i_zeta", "i_joint", "i_r", "rate"):
            assert paths_agree(getattr(scalar, field), getattr(base, field)), (n_eff, field)
    assert photon_budgets(2.0, np.array([]))[0].shape == (0,)


def test_element_wise_budget_takes_a_budget_per_point():
    r_values = np.array([0.0, 1.0, -1.0, 2.0, 800.0])
    n_eff = np.array([2.0, 20.0, 1.0, 0.5, 1e4])
    n_mod, admissible = photon_budgets(n_eff, r_values)
    for k, (budget, r) in enumerate(zip(n_eff.tolist(), r_values.tolist())):
        alone, ok = photon_budgets(budget, np.array([r]))
        assert n_mod[k].hex() == alone[0].hex() and admissible[k] == ok[0]
    assert admissible.tolist() == [True, True, False, False, False]


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


def test_non_positive_pairs_raise_not_positive_definite():
    # a pair the pivot test refuses raises the typed error, never nan or a
    # math domain ValueError from a log of the pair scalars
    model = assemble_model(params_at(n=2, s=1.0), 0.3)
    with pytest.raises(NotPositiveDefinite):
        output_entropy(dataclasses.replace(model, u_pair=np.array([-1e-3, 1.0])))
    for field in ("r_pair", "s_pair", "t_pair"):
        pair = getattr(model, field).copy()
        pair[0] = math.nan
        with pytest.raises(NotPositiveDefinite):
            joint_entropy(dataclasses.replace(model, **{field: pair}))


# ---------------------------------------------------------------- information

def test_memoryless_rate_closed_form():
    # without memory the heterodyne rate is log2(1 + eta N) for every n
    for n in (1, 2, 3):
        for eta in (0.1, 0.35, 0.62, 0.9):
            for n_eff in (0.5, 2.0, 20.0):
                info = mutual_information(params_at(n=n, eta=eta, n_eff=n_eff), 0.0)
                assert info.rate == pytest.approx(math.log2(1 + eta * n_eff), abs=1e-9)


def _rate_decimal(eta, s, r, n_eff):
    """The two-log1p rate per use, in bits, at 50 digits with the standard
    library's decimal, from the floats' exact values and N = n_eff - sinh^2 r."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        one = decimal.Decimal(1)
        eta, s, r, n_eff = (decimal.Decimal(x) for x in (eta, s, r, n_eff))
        n_mod = n_eff - ((r.exp() - (-r).exp()) / 2) ** 2
        total = sum((one + 2 * eta * n_mod / (one + eta * (sign * 2 * r).exp()
                                              + (one - eta) * (sign * 2 * s).exp())).ln()
                    for sign in (1, -1))
        return float(total / 2 / decimal.Decimal(2).ln())


def test_anchor_point_breakdown():
    info = mutual_information(params_at(n=1), 0.0)
    assert info.rate == pytest.approx(math.log2(2.6), abs=1e-9)
    assert info.i_mu == pytest.approx((1 + math.log(2 * math.pi)) / LN2, abs=1e-12)
    assert info.i_zeta == pytest.approx((1 + math.log(math.pi * 2.6)) / LN2, abs=1e-12)
    # i_r is n times the per-use rate, not the entropy difference: the
    # identity holds to a few ulp of i_joint, and i_r to the 50-digit value
    assert abs(info.i_mu + info.i_zeta - info.i_joint - info.i_r) <= 4 * math.ulp(info.i_joint)
    want = _rate_decimal(0.8, 0.0, 0.0, 2.0)
    assert abs(info.i_r - want) <= 1e-14 * want


def test_blocked_channel_carries_no_information():
    for s, r in ((1.5, 0.2), (0.0, 0.5), (2.0, -0.8), (5.0, 0.3)):
        assert mutual_information(params_at(n=2, eta=0.0, s=s), r).i_r == 0.0


def test_unit_transmissivity_ignores_memory():
    for r in (0.3, 0.6):
        values = [mutual_information(params_at(n=2, eta=1.0, s=s), r).i_r
                  for s in (0.0, 1.0, 2.0, 5.0)]
        assert values == [values[0]] * 4


def test_rate_does_not_depend_on_block_length():
    for eta, s, r, n_eff in ((0.7, 2.0, 0.4, 2.0), (0.4, 1.0, -0.6, 5.0),
                             (0.9, 5.0, 0.8, 20.0)):
        rates = [mutual_information(params_at(n=n, eta=eta, s=s, n_eff=n_eff), r).rate
                 for n in (1, 2, 3, 4)]
        assert rates == [rates[0]] * 4


def test_rate_and_gain_are_bit_equal_across_block_lengths():
    # n only scales the reported totals: the per-use rate and the gain of
    # every path, the optimum's r included, are the same floats at n = 1, 2,
    # 3 and 32
    def per_use(n, eta, s, n_eff, r):
        params = params_at(n=n, eta=eta, s=s, n_eff=n_eff)
        point = rate_gain(params, r)
        _, _, gain, info, _ = _gain_grid(n, eta, n_eff, [s], [r])
        best = optimize_r(params)
        return (mutual_information(params, r).rate, point.info.rate, point.gain,
                float(info.rate[0, 0]), float(gain[0, 0]), best.r, best.gain, best.info.rate)

    points = list(zip(*(axis.tolist() for axis in random_points()[1:])))
    want = [per_use(1, *point) for point in points]
    for n in (2, 3, 32):
        assert [per_use(n, *point) for point in points] == want, n


def test_mutual_information_monotone_in_eta():
    values = [mutual_information(params_at(n=2, eta=0.1 * k, s=1.0), 0.0).i_r
              for k in range(1, 10)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_information_is_bounded():
    # 0 <= rate <= log2(1 + eta N) per use: with plus and minus the two
    # classes' noise, 2^{2 rate} = (1 + 2 eta N/plus)(1 + 2 eta N/minus), and
    # plus minus >= 4 and 1/plus + 1/minus <= 1 give at most (1 + eta N)^2.
    # Equality holds at s = r = 0, where the rate is log2(2.6) =
    # 1.37851162325372986..., 0.37 ulp from one float and 0.63 ulp from the
    # next; numpy's SIMD log1p and libm's each land on one of them, so the
    # test allows 1 ulp. H(mu) bounds nothing: mu is continuous, and at the
    # last point i_r is 0.239 bits against i_mu = 0.0895.
    want = _rate_decimal(0.8, 0.0, 0.0, 2.0)
    assert abs(mutual_information(params_at(), 0.0).rate - want) <= math.ulp(want)
    rng = np.random.default_rng(11)
    points = []
    for _ in range(15):
        n, eta, s, n_eff = (int(rng.integers(1, 4)), float(rng.uniform(0.05, 0.95)),
                            float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.5, 30.0)))
        points.append((n, eta, s, n_eff,
                       float(rng.uniform(-0.9, 0.9)) * min(r_limit(n_eff), 1.5)))
    points.append((2, 0.9386732855974946, 3.8286016679973134, 0.5541544516988643,
                   0.6181743511444827))
    for n, eta, s, n_eff, r in points:
        info = mutual_information(params_at(n=n, eta=eta, s=s, n_eff=n_eff), r)
        cap = math.log2(1.0 + eta * photon_budget(n_eff, r))
        assert 0.0 <= info.rate <= cap * (1 + 1e-15), (n, eta, s, n_eff, r)
    assert info.i_r > 2.5 * info.i_mu


def _chain_breakdown(params, r):
    """(i_zeta, i_joint, rate) on the paper's matrix chain, the reference route."""
    model = assemble_model(params, r)
    i_zeta, _ = output_entropy(model)
    i_joint, _ = joint_entropy(model)
    return i_zeta, i_joint, (input_entropy(params.n, model.n_mod) + i_zeta - i_joint) / params.n


def _totals(n, n_mod, h_noise, rate):
    """(i_mu, i_zeta, i_joint, i_r): the reported totals over n uses, from the
    core's per-use (h_noise, rate)."""
    i_mu = input_entropy(n, n_mod)
    return i_mu, n * (h_noise + rate), i_mu + n * h_noise, n * rate


def test_closed_form_core_is_bit_equal_to_rate_gains_on_the_verify_grid():
    # the 1512 points of verify's moment-oracle-grid in one stacked call,
    # against one rate_gains call per (eta, s, N_eff) and its 21 r
    eta, s, n_eff, r = cli._moment_grid_points()
    n_mod, admissible = photon_budgets(n_eff, r)
    assert admissible.all() and r.size == 1512
    h_noise, rate = (values.reshape(72, 21) for values in _closed_form(eta, s, r, n_mod))
    for k, start in enumerate(range(0, r.size, 21)):
        params = params_at(eta=float(eta[start]), s=float(s[start]), n_eff=float(n_eff[start]))
        r_ok, _, _, info, _ = rate_gains(params, r[start:start + 21])
        assert np.array_equal(r_ok, r[start:start + 21])
        assert np.array_equal(info.rate, rate[k]), k
        totals = _totals(2, n_mod[start:start + 21], h_noise[k], rate[k])
        for field, values in zip(("i_mu", "i_zeta", "i_joint", "i_r"), totals):
            assert np.array_equal(getattr(info, field), values), (k, field)
    # and at 402 random points against mutual_information, which runs on
    # math: within PATH_ULPS, since numpy's exp, log and log1p may differ
    # from math's in the last bit
    n, eta, s, n_eff, r = random_points()
    n_mod, admissible = photon_budgets(n_eff, r)
    assert admissible.all()
    for uses in (1, 2, 3):
        at = np.flatnonzero(n == uses)
        h_noise, rate = _closed_form(eta[at], s[at], r[at], n_mod[at])
        totals = _totals(uses, n_mod[at], h_noise, rate)
        for k, i in enumerate(at.tolist()):
            params = params_at(n=uses, eta=float(eta[i]), s=float(s[i]), n_eff=float(n_eff[i]))
            info = mutual_information(params, float(r[i]))
            assert paths_agree(info.rate, rate[k]), i
            for field, values in zip(("i_mu", "i_zeta", "i_joint", "i_r"), totals):
                assert paths_agree(getattr(info, field), values[k]), (i, field)


def _assert_grid_matches_rate_gains(n, eta, n_eff, s_values, r_values):
    """_gain_grid's (S, k) grid against one rate_gains call per s, bit for bit."""
    r_ok, n_mod, gain, info, base = _gain_grid(n, eta, n_eff, s_values, r_values)
    assert gain.shape == (len(s_values), r_ok.size)
    for k, s in enumerate(s_values):
        want = rate_gains(params_at(n=n, eta=eta, s=s, n_eff=n_eff), r_values)
        for got, expected in ((r_ok, want[0]), (n_mod, want[1]), (gain[k], want[2])):
            assert np.array_equal(got, expected), (n, eta, n_eff, s)
        for field in ("i_mu", "i_zeta", "i_joint", "i_r", "rate"):
            assert np.array_equal(getattr(info, field)[k], getattr(want[3], field)), field
            assert getattr(base, field)[k] == getattr(want[4], field), field
    return r_ok, gain


def test_gain_grid_is_bit_equal_to_per_s_rate_gains():
    # verify's moment-oracle grid: the four standard s against 21 r per
    # (eta, N_eff)
    eta, s, n_eff, r = cli._moment_grid_points()
    for start in range(0, r.size, 84):
        _assert_grid_matches_rate_gains(2, float(eta[start]), float(n_eff[start]),
                                         s[start:start + 84:21].tolist(), r[start:start + 21])
    # each random point's s, -s, s again, 0 and -0 against its r, -r, 0 and
    # an r past the budget; then the same s where every r is past it (k = 0)
    for n, eta, s, n_eff, r in zip(*(axis.tolist() for axis in random_points())):
        s_values = [s, -s, s, 0.0, -0.0]
        lim = r_limit(n_eff)
        r_ok, gain = _assert_grid_matches_rate_gains(n, eta, n_eff, s_values,
                                                     [r, -r, 0.0, 2.0 * lim + 1.0])
        assert r_ok.tolist() == [r, -r, 0.0] and not gain[:, 2].any()
        # rate_gain runs on math: within the gain's PATH_ULPS bound
        params = params_at(n=n, eta=eta, s=s, n_eff=n_eff)
        base_rate = mutual_information(params, 0.0).rate
        for got, x in zip(gain[0].tolist(), (r, -r, 0.0)):
            point = rate_gain(params, x)
            assert gains_agree(point.gain, got, point.info.rate, base_rate), (n, eta, s, n_eff, x)
        r_ok, gain = _assert_grid_matches_rate_gains(n, eta, n_eff, s_values,
                                                     [2.0 * lim + 1.0, -3.0 * lim - 1.0])
        assert r_ok.size == 0 and gain.shape == (5, 0)


def test_gain_grid_names_the_first_degenerate_baseline():
    # at eta = 1e-13 every baseline is ~0, and s = 0.5 and s = 5 differ in it
    messages = []
    for s_values in ([5.0, 0.5], [0.5, 5.0]):
        with pytest.raises(DegenerateBaseline) as grid_error:
            _gain_grid(2, 1e-13, 2.0, s_values, [-0.5, 0.5])
        with pytest.raises(DegenerateBaseline) as point_error:
            rate_gain(params_at(eta=1e-13, s=s_values[0]), 0.5)
        assert str(grid_error.value) == str(point_error.value)
        messages.append(str(grid_error.value))
    assert messages[0] != messages[1]


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
    # i_r is n times the two log1p terms, against their 50-digit value:
    # 5.50320465457e-6, 1.60140086682e-7 and 5.77078016356e-13 bits, the
    # first two as a 60-digit mpmath evaluation gives them. The entropies
    # reach 14 bits at s = 0 and 27 bits at s = 8, so their difference would
    # be 2.7e-3 relative off at eta = 1e-13; the matrix chain is 3.2% low at
    # s = 8.
    for eta, s, r in ((1e-6, 0.0, 0.3), (1e-6, 8.0, -0.99 * r_limit(2.0)),
                      (1e-13, 0.0, 0.0)):
        info = mutual_information(params_at(n=2, eta=eta, s=s, n_eff=2.0), r)
        want = 2 * _rate_decimal(eta, s, r, 2.0)
        assert abs(info.i_r - want) <= 1e-13 * want, (eta, s)


# ---------------------------------------------------------------- gain

def test_zero_entanglement_gain_is_exactly_zero():
    for eta, s, n_eff in ((0.8, 2.0, 2.0), (0.5, 1.0, 20.0), (0.3, 0.0, 5.0),
                          (0.9, 5.0, 2.0)):
        point = rate_gain(params_at(eta=eta, s=s, n_eff=n_eff), 0.0)
        assert point.gain == 0.0
        assert point.r == 0.0
        assert point.n_mod == n_eff


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
    # the r = 0 point: gain 0, the whole budget on modulation and the
    # baseline's InfoBreakdown
    for eta in [k / 10 for k in range(1, 11)] + [0.31]:
        for n_eff in (1e-3, 0.5, 2.0, 20.0, 1e4, 1e10):
            params = params_at(eta=eta, n_eff=n_eff, s=0.0)
            assert optimize_r(params) == GainPoint(
                0.0, n_eff, 0.0, mutual_information(params, 0.0)), (eta, n_eff)


def test_optimizer_gains_grow_with_memory():
    results = {s: optimize_r(params_at(s=s)) for s in (1.0, 2.0, 5.0)}
    assert 0.0 < results[1.0].gain < results[2.0].gain < results[5.0].gain
    for point in results.values():
        assert point.r > 0.0


def test_optimizer_matches_dense_scan():
    # a 1e4-point scan over the admissible interval, refined by a second
    # 1e4-point pass around its argmax, pins r_star to ~1e-7 resolution
    params = params_at(s=5.0)
    best = optimize_r(params)
    r_star, gain_star = best.r, best.gain
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
    # At eta = 0.0025 the peak gain is 1.1e-8, a difference of two rates
    # whose round-off moves it by 2e-8 of itself, so only r is checked there.
    for n, eta, s, n_eff, r_mp, gain_mp in (
            (2, 0.8, 5.0, 2.0, 0.417307324532668, 0.12483446736419663),
            (32, 0.6, 5.0, 20.0, 0.936051312032302, 0.10963408199304596),
            (2, 0.5, -3.0, 2.0, -0.343489895557361, 0.079667359393826791),
            (1, 0.0025, 2.5, 0.00185, 4.55166942516639e-6, None),
            (2, 0.3, 8.0, 1e8, 3.90961652956366, 0.013097864749601744),
            (2, 0.3, 40.0, 1e8, 4.65073688545607, 0.014863840646531035),
            (2, 0.7, 300.0, 20.0, 0.971093184849176, 0.12272562868405483)):
        best = optimize_r(params_at(n=n, eta=eta, s=s, n_eff=n_eff))
        assert abs(best.r - r_mp) <= 1e-12, (n, eta, s, n_eff)
        if gain_mp is not None:
            assert abs(best.gain - gain_mp) <= 1e-12 * gain_mp, (n, eta, s, n_eff)


def _bisection_with_slope_terms_per_step(params):
    """optimize_r's bisection with every term of the slope, those in s
    included, computed at each step, and the r = 0 point from rate_gain: the
    reference for optimize_r, which computes the s terms once and builds the
    r = 0 point from one mutual_information call."""
    eta, s, n_eff = params.eta, params.s, params.n_eff
    lim = r_limit(n_eff)
    lo, hi, mid = -lim, lim, 0.0
    while lo < mid < hi:
        up, down = math.exp(2.0 * mid), math.exp(-2.0 * mid)
        plus = 1.0 + eta * up + (1.0 - eta) * math.exp(2.0 * s)
        minus = 1.0 + eta * down + (1.0 - eta) * math.exp(-2.0 * s)
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
    return best if best.gain > 0.0 else rate_gain(params, 0.0)


def test_optimizer_is_bit_equal_to_the_per_step_slope():
    for n, eta, s, n_eff, _ in zip(*(axis.tolist() for axis in random_points())):
        params = params_at(n=n, eta=eta, s=s, n_eff=n_eff)
        assert optimize_r(params) == _bisection_with_slope_terms_per_step(params), params


@pytest.mark.parametrize("n_eff", [N_MIN, 1.5e-9, 2e-9])
def test_optimizer_returns_the_zero_point_where_only_r_zero_is_admissible(n_eff):
    # r_limit is 0 at these budgets, which ChannelParams admits: the search
    # has no interval to bisect and returns the r = 0 point
    params = params_at(n_eff=n_eff)
    assert r_limit(n_eff) == 0.0
    assert optimize_r(params) == GainPoint(0.0, n_eff, 0.0, mutual_information(params, 0.0))
