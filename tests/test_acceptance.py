"""Acceptance gate: the quantitative anchor plus the qualitative gain claims.

Each test pins one release requirement with its tolerance and runtime budget
and prints a single PASS line with the measured margin (visible under
pytest -s; the pytest verdict itself is the pass/fail record).
"""
import math
import time

import numpy as np

from lossymem.channel_model import (
    ChannelParams,
    assemble_model,
    build_beam_splitter,
    build_input_kernel,
)
from lossymem.information import (
    input_entropy,
    joint_entropy,
    mutual_information,
    output_entropy,
    photon_budget,
    r_limit,
    rate_gain,
)
from lossymem.matrix_core import block_diag, spd_logdet
from lossymem.oracle import McConfig, gaussian_mi_from_moments, monte_carlo_mi, quadrature_entropy_n1

R_GRID = np.linspace(-1.1, 1.1, 221)
LN2 = math.log(2.0)


def _gain_series(n_eff, s):
    params = ChannelParams(n=2, eta=0.8, s=s, n_eff=n_eff)
    return np.array([rate_gain(params, float(r)).gain for r in R_GRID])


def _random_point(rng):
    eta = float(rng.uniform(0.05, 0.95))
    s = float(rng.uniform(0.0, 5.0))
    n_eff = float(rng.uniform(0.5, 30.0))
    r = float(rng.uniform(-0.9, 0.9)) * min(r_limit(n_eff), 1.5)
    return eta, s, n_eff, r


def _profile_criteria(n_eff):
    """Shared qualitative checks (a)-(c) for both energy budgets."""
    series = {s: _gain_series(n_eff, s) for s in (0.0, 1.0, 2.0, 5.0)}

    # (a) no memory: entanglement never helps, and the series is even in r
    base = series[0.0]
    assert base.max() <= 1e-9
    sym = max(abs(base[i] - base[220 - i]) for i in range(110))
    assert sym <= 1e-8

    # (b) memory: some positive-r grid point gains
    for s in (1.0, 2.0, 5.0):
        assert (series[s][R_GRID > 0] > 0).any()

    # (c) stronger memory gains more
    peaks = [series[s].max() for s in (1.0, 2.0, 5.0)]
    assert peaks[0] < peaks[1] < peaks[2]
    return series, sym, peaks


def test_memoryless_baseline_anchor():
    t0 = time.perf_counter()
    params = ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0)
    closed_dev = abs(mutual_information(params, 0.0).rate - math.log2(2.6))
    assert closed_dev <= 1e-7

    est = monte_carlo_mi(params, 0.0, McConfig(samples=100000, seed=12345))
    sigmas = abs(est.value - math.log2(2.6)) / est.std_error
    elapsed = time.perf_counter() - t0
    assert sigmas <= 3.0
    assert elapsed < 5.0
    print(f"PASS memoryless-baseline-anchor closed_dev={closed_dev:.3e} "
          f"mc_sigmas={sigmas:.2f} t={elapsed:.2f}s")


def test_gain_profile_low_energy():
    t0 = time.perf_counter()
    series, sym, peaks = _profile_criteria(2.0)

    # (d) at negative r every memory series falls below the memoryless one
    margins = []
    for s in (1.0, 2.0, 5.0):
        neg = np.where(R_GRID < 0)[0]
        worst = neg[np.argmin(series[s][neg])]
        margins.append(series[0.0][worst] - series[s][worst])
        assert series[s][worst] < series[0.0][worst]
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS gain-profile-low-energy sym={sym:.2e} "
          f"peaks={['%.4f' % p for p in peaks]} "
          f"neg_margins={['%.1e' % m for m in margins]} t={elapsed:.2f}s")


def test_gain_profile_high_energy():
    t0 = time.perf_counter()
    series_20, sym, peaks = _profile_criteria(20.0)
    series_2 = _gain_series(2.0, 5.0)

    useful_20 = int(((R_GRID > 0) & (series_20[5.0] > 0)).sum())
    useful_2 = int(((R_GRID > 0) & (series_2 > 0)).sum())
    elapsed = time.perf_counter() - t0
    assert useful_20 > useful_2
    assert elapsed < 10.0
    print(f"PASS gain-profile-high-energy sym={sym:.2e} "
          f"peaks={['%.4f' % p for p in peaks]} "
          f"useful_r={useful_20}>{useful_2} t={elapsed:.2f}s")


def test_entropy_prefactors_reduce_to_one():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        eta, s, n_eff, r = _random_point(rng)
        for n in (1, 2, 3, 4, 5, 6):
            params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)
            model = assemble_model(params, r)
            _, c_out = output_entropy(model)
            _, c_joint = joint_entropy(model)
            worst = max(worst, abs(c_out - 1.0), abs(c_joint - 1.0))
    assert worst <= 1e-8
    print(f"PASS entropy-prefactors-reduce-to-one max_dev={worst:.3e}")


def test_rate_is_independent_of_block_length():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(20):
        eta, s, n_eff, r = _random_point(rng)
        rates = [mutual_information(ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff), r).rate
                 for n in (2, 3, 4)]
        worst = max(worst, abs(rates[0] - rates[1]), abs(rates[1] - rates[2]))
    assert worst <= 1e-7
    print(f"PASS rate-independent-of-block-length max_dev={worst:.3e}")


def test_oracle_equivalence():
    worst = 0.0
    for eta_tenths in range(1, 10):
        for s in (0.0, 1.0, 2.0, 5.0):
            for n_eff in (2.0, 20.0):
                params = ChannelParams(n=2, eta=eta_tenths / 10, s=s, n_eff=n_eff)
                for r_tenths in range(-10, 11):
                    r = r_tenths / 10
                    n_mod = photon_budget(n_eff, r)
                    model = assemble_model(params, r)
                    closed = (input_entropy(2, n_mod)
                              + output_entropy(model)[0]
                              - joint_entropy(model)[0])
                    moments = gaussian_mi_from_moments(params, r)
                    worst = max(worst, abs(closed - moments))
    assert worst <= 1e-7

    quad_worst = 0.0
    # 2-dim densities: the modulation ensemble at N=2 and the circular unit case
    dev = abs(quadrature_entropy_n1(np.eye(2) / 2.0, 1.0 / (2 * math.pi))
              - input_entropy(1, 2.0))
    quad_worst = max(quad_worst, dev)
    dev = abs(quadrature_entropy_n1(np.eye(2), 1.0 / math.pi)
              - (1 + math.log(math.pi)) / LN2)
    quad_worst = max(quad_worst, dev)
    # measured-output densities, memoryless and memory points
    for eta, s, r in ((0.8, 0.0, 0.0), (0.7, 1.5, 0.4)):
        params = ChannelParams(n=1, eta=eta, s=s, n_eff=2.0)
        model = assemble_model(params, r)
        norm = math.exp(0.5 * spd_logdet(model.u_p) - math.log(math.pi))
        dev = abs(quadrature_entropy_n1(model.u_p, norm)
                  - output_entropy(model)[0])
        quad_worst = max(quad_worst, dev)
    # joint 4-dim density
    params = ChannelParams(n=1, eta=0.8, s=1.0, n_eff=2.0)
    model = assemble_model(params, 0.3)
    norm = math.exp(0.5 * spd_logdet(model.v_n) - 2 * math.log(math.pi))
    dev = abs(quadrature_entropy_n1(model.v_n, norm, points=65)
              - joint_entropy(model)[0])
    quad_worst = max(quad_worst, dev)
    assert quad_worst <= 1e-4
    print(f"PASS oracle-equivalence moment_dev={worst:.3e} quad_dev={quad_worst:.3e}")


def test_structural_invariants():
    t0 = time.perf_counter()

    # beam-splitter orthogonality
    bs_dev = 0.0
    for n in (1, 2, 3):
        for k in range(11):
            b = build_beam_splitter(n, k / 10)
            bs_dev = max(bs_dev, float(np.abs(b.T @ b - np.eye(4 * n)).max()))
    assert bs_dev <= 1e-12

    # input-kernel determinant is squeezing-invariant
    det_dev = 0.0
    for n in range(1, 9):
        for r in (-3.0, -1.5, 0.0, 1.5, 3.0):
            det_dev = max(det_dev, abs(spd_logdet(build_input_kernel(n, r)) - 2 * n * LN2))
    assert det_dev <= 1e-10

    # perfect transmission ignores the memory strength
    values = [mutual_information(ChannelParams(n=2, eta=1.0, s=s, n_eff=2.0), 0.3).i_r
              for s in (0.0, 1.0, 2.0, 5.0)]
    eta1_dev = max(values) - min(values)
    assert eta1_dev <= 1e-9

    # blocked transmission carries nothing
    eta0_dev = abs(mutual_information(ChannelParams(n=2, eta=0.0, s=1.5, n_eff=2.0), 0.2).i_r)
    assert eta0_dev <= 1e-9

    # block-diagonal determinant additivity
    add_dev = 0.0
    for r, s in ((0.0, 0.0), (0.5, 1.0), (-1.0, 2.0)):
        a = build_input_kernel(2, r)
        b = build_input_kernel(2, s)
        add_dev = max(add_dev, abs(spd_logdet(block_diag(a, b))
                                   - spd_logdet(a) - spd_logdet(b)))
    assert add_dev <= 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS structural-invariants bs={bs_dev:.1e} det={det_dev:.1e} "
          f"eta1={eta1_dev:.1e} eta0={eta0_dev:.1e} add={add_dev:.1e} t={elapsed:.2f}s")
