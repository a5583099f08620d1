"""Kernel builders and the assembled matrix chain."""
import math

import numpy as np
import pytest

from lossymem.channel_model import (
    N_EFF_MAX,
    N_MIN,
    S_MAX,
    ChannelParams,
    assemble_model,
    build_beam_splitter,
    build_input_kernel,
    build_memory_kernel,
    photon_budget,
    r_limit,
    single_use_kernels,
)
from lossymem.errors import (
    InvalidSpec,
    LossyChannelError,
    NotPositiveDefinite,
    PhotonBudgetExceeded,
)
from lossymem.information import (
    joint_entropy,
    mutual_information,
    optimize_r,
    output_entropy,
    rate_gain,
)
from lossymem.oracle import (
    McConfig,
    gaussian_mi_from_moments,
    monte_carlo_mi,
    pipeline_covariance,
)
from lossymem.matrix_core import block_diag, spd_factor, spd_logdet, symmetrize

from chain_reference import joint_kernel, sector_form
from random_points import random_points


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
    # at n = 1 the relative projector is 0, so no entry cancels: each is the
    # eigenvalue itself, bit for bit, out to |r| = 300
    for r in (-1.3, 0.25, 2.0, 5.0, -5.0, 8.0, -8.0, 9.5, -9.5, 10.0, -10.0, 300.0, -300.0):
        expected = np.diag([2.0 * math.exp(-2 * r), 2.0 * math.exp(2 * r)])
        np.testing.assert_array_equal(build_input_kernel(1, r), expected)


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


def test_input_kernel_spectrum():
    # K v = lambda v on the collective vector (1, .., 1) and on the relative
    # vector e_1 - e_2 of each block. Each entry is off its exact value by a
    # few ulp of the largest eigenvalue, 2e^{2|r|}, and a component of K v
    # sums n entries, so it is off by at most 2 n eps 2e^{2|r|}
    eps = np.finfo(float).eps
    for n in (2, 3, 7, 32):
        collective = np.ones(n)
        relative = np.zeros(n)
        relative[:2] = (1.0, -1.0)
        for r in (-4.0, -1.3, 0.0, 0.25, 2.0, 4.0):
            k = build_input_kernel(n, r)
            bound = 2 * n * eps * 2.0 * math.exp(2 * abs(r))
            shrink, grow = 2.0 * math.exp(-2 * r), 2.0 * math.exp(2 * r)
            for block, (lam_co, lam_rel) in ((k[:n, :n], (shrink, grow)),
                                             (k[n:, n:], (grow, shrink))):
                assert np.abs(block @ collective - lam_co * collective).max() <= bound
                assert np.abs(block @ relative - lam_rel * relative).max() <= bound


def _reference_input_kernel(n, r):
    """The per-r construction: one float r, np.exp and dense projectors J/n
    and I - J/n on the collective and relative quadratures."""
    collective = np.ones((n, n)) / n
    relative = np.eye(n) - collective

    def half(rr):
        return 2.0 * np.exp(-2 * rr) * collective + 2.0 * np.exp(2 * rr) * relative

    return block_diag(half(r), half(-r))


def test_input_kernel_on_an_array_matches_per_r_calls():
    # 120 r in one call: each element bit-equal to its per-r call and to the
    # dense reference
    r = np.concatenate([np.linspace(-3.1, 3.1, 118), [0.0, 1e-9]]).reshape(8, 15)
    for n in (1, 2, 5):
        batched = build_input_kernel(n, r)
        assert batched.shape == r.shape + (2 * n, 2 * n)
        per_r = np.array([build_input_kernel(n, float(x)) for x in r.ravel()])
        np.testing.assert_array_equal(batched, per_r.reshape(batched.shape))
        for x in r.ravel().tolist():
            assert build_input_kernel(n, x).shape == (2 * n, 2 * n)
            np.testing.assert_array_equal(build_input_kernel(n, x),
                                          _reference_input_kernel(n, x))


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


def test_beam_splitter_on_an_array_matches_per_eta_calls():
    eta = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    stack = build_beam_splitter(3, eta)
    assert stack.shape == (2, 3, 12, 12)
    for index in np.ndindex(eta.shape):
        assert np.array_equal(stack[index], build_beam_splitter(3, float(eta[index])))
    with pytest.raises(InvalidSpec):
        build_beam_splitter(2, np.array([0.5, math.nan]))


def test_beam_splitter_orthogonal_on_eta_grid():
    for k in range(11):
        b = build_beam_splitter(2, k / 10)
        assert np.abs(b @ b.T - np.eye(8)).max() <= 1e-12
        assert np.abs(b.T @ b - np.eye(8)).max() <= 1e-12


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
    # below N_MIN no r is admissible, not even 0
    with pytest.raises(InvalidSpec, match="N_MIN"):
        ChannelParams(n=2, eta=0.5, s=0.0, n_eff=math.nextafter(N_MIN, 0.0))
    ChannelParams(n=2, eta=0.5, s=0.0, n_eff=N_MIN)
    with pytest.raises(InvalidSpec):
        ChannelParams(n=2, eta=0.5, s=0.0, n_eff=math.nan)


@pytest.mark.parametrize("build, n, x", [
    (build_beam_splitter, 0, 0.5),
    (build_beam_splitter, -1, 0.5),
    (build_beam_splitter, 2.0, 0.5),
    (build_beam_splitter, True, 0.5),
    (build_input_kernel, 2.0, 0.3),
    (build_input_kernel, 0, 0.3),
    (build_input_kernel, False, 0.3),
    (build_input_kernel, 2, math.nan),
    (build_input_kernel, 2, -math.inf),
    (build_input_kernel, 2, 400.0),
    (build_input_kernel, 2, -400.0),
    (build_input_kernel, 1, np.array([0.5, math.nan])),
    (build_memory_kernel, 3.0, 0.3),
    (build_memory_kernel, -1, 0.3),
    (build_memory_kernel, 2, 400.0),
])
def test_kernel_builders_reject_malformed_specs(build, n, x):
    # the rules of ChannelParams: n a positive int, x finite and in range
    with pytest.raises(InvalidSpec):
        build(n, x)


def _fields(result):
    """The leaves of a result: the fields of a dataclass, recursively."""
    if hasattr(result, "__dict__"):
        return [leaf for value in vars(result).values() for leaf in _fields(value)]
    return [result]


def _finite_or_refused(call):
    """call()'s result, with every field finite, or None if it raised a
    LossyChannelError."""
    try:
        result = call()
    except LossyChannelError:
        return None
    assert all(np.isfinite(value).all() for value in _fields(result))
    return result


def _monte_carlo_mi(params, r):
    return monte_carlo_mi(params, r, McConfig(samples=50, seed=1))


# every path from (params, r) through the kernels
_KERNEL_PATHS = (assemble_model, pipeline_covariance, gaussian_mi_from_moments, _monte_carlo_mi)


@pytest.mark.parametrize("n", [1, 2, 3, 32])
def test_kernel_paths_refuse_past_the_float_range(n):
    # one bound on s and kernel r at every n: at S_MAX the kernels' largest
    # entry, 2e^{2|x|}, is float max / 2. Under pytest's RuntimeWarning-as-
    # error, no path may overflow at +-S_MAX, and the next float out is
    # refused, by ChannelParams as s and by every kernel path as r.
    assert r_limit(N_EFF_MAX) > S_MAX
    for x in (S_MAX, -S_MAX):
        for build in (build_input_kernel, build_memory_kernel):
            assert _finite_or_refused(lambda: build(n, x)) is not None
        for eta in (0.0, 0.3, 0.5, 1.0):
            # x as s at a small budget, and as r at the largest budget, with
            # s = x and s = 0
            points = [(ChannelParams(n=n, eta=eta, s=x, n_eff=2.0), 0.3)]
            points += [(ChannelParams(n=n, eta=eta, s=s, n_eff=N_EFF_MAX), x) for s in (x, 0.0)]
            for params, r in points:
                for path in _KERNEL_PATHS:
                    _finite_or_refused(lambda: path(params, r))
                assert _finite_or_refused(lambda: mutual_information(params, r)) is not None
        out = math.nextafter(x, math.copysign(math.inf, x))
        for build in (build_input_kernel, build_memory_kernel):
            with pytest.raises(InvalidSpec):
                build(n, out)
        with pytest.raises(InvalidSpec):
            ChannelParams(n=n, eta=0.5, s=out, n_eff=2.0)
        params = ChannelParams(n=n, eta=0.5, s=0.0, n_eff=N_EFF_MAX)
        for path in _KERNEL_PATHS:
            with pytest.raises(InvalidSpec):
                path(params, out)


def test_public_paths_are_finite_or_refused_inside_the_range():
    # every public path, across the interior of the range, returns finite
    # values or raises a LossyChannelError: never a numpy error or warning
    lim = r_limit(2.0)
    for n in (1, 2, 3):
        for eta in (0.0, 0.3, 1.0):
            for s in (1.0, 10.0, 30.0, 100.0, S_MAX):
                for params in (ChannelParams(n=n, eta=eta, s=v, n_eff=2.0) for v in (s, -s)):
                    _finite_or_refused(lambda: optimize_r(params))
                    for r in (0.3, 0.99 * lim, -0.99 * lim):
                        for path in (mutual_information, rate_gain) + _KERNEL_PATHS:
                            _finite_or_refused(lambda: path(params, r))
                        for entropy in (output_entropy, joint_entropy):
                            _finite_or_refused(lambda: entropy(assemble_model(params, r)))


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
    np.testing.assert_allclose(model.r_pair, [0.37, 0.37], atol=1e-12)
    np.testing.assert_allclose(sector_form(n, model.r_pair), 0.37 * np.eye(2 * n), atol=1e-12)


def test_single_use_chain_memoryless_point():
    # hand-derived 4x4 chain at n=1, r=s=0, eta=4/5, N=2:
    # R' = eta I, S' = 2 sqrt(eta) I, T' = I, U' = (1 - eta/(eta + 1/2)) I,
    # V = [[(eta+1/2) I, -sqrt(eta) I], [-sqrt(eta) I, I]], det(G+L) = 64
    eta = 0.8
    model = model_at(1, eta, 0.0, 0.0, 2.0)
    rt = math.sqrt(eta)
    np.testing.assert_allclose(model.r_pair, [eta, eta], atol=1e-12)
    np.testing.assert_allclose(model.s_pair, [2 * rt, 2 * rt], atol=1e-12)
    np.testing.assert_allclose(model.t_pair, [1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(model.u_pair, [1.0 - eta / (eta + 0.5)] * 2, atol=1e-12)
    u_kernel, v_kernel = single_use_kernels(model)
    np.testing.assert_allclose(u_kernel, (1.0 - eta / (eta + 0.5)) * np.eye(2), atol=1e-12)
    expected_v = np.block([[(eta + 0.5) * np.eye(2), -rt * np.eye(2)],
                           [-rt * np.eye(2), np.eye(2)]])
    np.testing.assert_allclose(v_kernel, expected_v, atol=1e-12)
    assert model.logdet_gl == pytest.approx(math.log(64.0), abs=1e-12)


def test_single_use_chain_memory_point():
    # 60-digit scalar-by-scalar evaluation of the same chain at
    # n=1, eta=7/10, r=3/10, s=1, N = 2 - sinh^2(3/10)
    n_mod = 1.907267390878866148124043
    model = model_at(1, 0.7, 1.0, 0.3, n_mod)
    np.testing.assert_allclose(
        model.r_pair, [0.3116513074064602, 0.9826156135300038], atol=1e-12)
    np.testing.assert_allclose(
        model.s_pair, [0.7449891174973381, 2.3489005865394569], atol=1e-12)
    np.testing.assert_allclose(
        model.t_pair, [0.4452161534378003, 1.4037365907571483], atol=1e-12)
    np.testing.assert_allclose(
        model.u_pair, [0.2792370107796712, 0.4884072775040943], atol=1e-12)
    u_kernel, v_kernel = single_use_kernels(model)
    np.testing.assert_allclose(
        u_kernel, np.diag([0.2792370107796712, 0.4884072775040943]), atol=1e-12)
    expected_v = np.array([
        [0.8359616399703706, 0.0, -0.3724945587486690, 0.0],
        [0.0, 1.5069259460939142, 0.0, -1.1744502932697285],
        [-0.3724945587486690, 0.0, 0.4452161534378003, 0.0],
        [0.0, -1.1744502932697285, 0.0, 1.4037365907571483]])
    np.testing.assert_allclose(v_kernel, expected_v, atol=1e-12)
    assert model.logdet_gl == pytest.approx(4.6289407854644554, abs=1e-12)


def test_single_use_kernels_lay_out_the_pairs():
    # at n = 1 the diagonal forms are the dense sector forms, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(20):
        n_eff = float(rng.uniform(0.5, 30.0))
        params = ChannelParams(n=1, eta=float(rng.uniform(0.0, 1.0)),
                               s=float(rng.uniform(-5.0, 5.0)), n_eff=n_eff)
        model = assemble_model(params, float(rng.uniform(-0.9, 0.9)) * r_limit(n_eff))
        u_kernel, v_kernel = single_use_kernels(model)
        np.testing.assert_array_equal(u_kernel, sector_form(1, model.u_pair))
        np.testing.assert_array_equal(v_kernel, joint_kernel(model))
    with pytest.raises(InvalidSpec):
        single_use_kernels(model_at(2, 0.8, 1.0, 0.3, 2.0))


def test_chain_matches_literal_route_at_moderate_memory():
    # rebuild the full 4n x 4n chain from public primitives and truncate;
    # both routes must agree where the literal one is well conditioned
    n, eta, s, r, n_mod = 2, 0.8, 1.2, -0.35, 1.4
    model = model_at(n, eta, s, r, n_mod)
    a = block_diag(build_input_kernel(n, r), build_memory_kernel(n, s))
    b = build_beam_splitter(n, eta)
    l = np.zeros((4 * n, 4 * n))  # heterodyne kernel: 2I on the signal quadratures
    l[:2 * n, :2 * n] = 2.0 * np.eye(2 * n)
    f = a @ b
    g = symmetrize(b.T @ f)
    lower = spd_factor(g + l)
    x = np.linalg.solve(lower.T, np.linalg.solve(lower, f.T))
    r_full = a - f @ x
    s_full = 2.0 * l @ x
    t_full = l - l @ np.linalg.solve(lower.T, np.linalg.solve(lower, l))
    r_p = symmetrize(r_full)[:2 * n, :2 * n]
    s_p = s_full[:2 * n, :2 * n]
    t_p = symmetrize(t_full)[:2 * n, :2 * n]
    shift = r_p + np.eye(2 * n) / n_mod
    shift_lower = spd_factor(shift)
    u_p = t_p - 0.25 * s_p @ np.linalg.solve(shift_lower.T, np.linalg.solve(shift_lower, s_p.T))

    assert np.abs(sector_form(n, model.r_pair) - r_p).max() <= 1e-9
    assert np.abs(sector_form(n, model.s_pair) - s_p).max() <= 1e-9
    assert np.abs(sector_form(n, model.t_pair) - t_p).max() <= 1e-9
    assert np.abs(sector_form(n, model.u_pair) - u_p).max() <= 1e-9
    assert abs(model.logdet_gl - 2.0 * np.log(np.diag(lower)).sum()) <= 1e-9


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
                    spd_logdet(model.u_pair[:, None, None])
                    spd_logdet(model.joint_pairs())


def test_assemble_model_answers_each_point_of_the_verify_grid():
    # the 81 points of the grid over eta, r, s and the modulation variance N
    # at n = 2, each point's budget N + sinh^2 r, and the 402 random points
    # at n = 1, 2, 3; one call each: photon_budget's float n_mod, a finite
    # float logdet_gl and (2,) pairs, with U' and the joint pairs passing
    # the pivot test
    grid = [(2, eta, s, n_mod + math.sinh(r) ** 2, r)
            for eta in (0.1, 0.5, 0.9) for r in (-2.0, 0.0, 2.0)
            for s in (-2.0, 0.0, 2.0) for n_mod in (0.01, 1.0, 50.0)]
    n, eta, s, n_eff, r = random_points()
    points = grid + list(zip(*(a.tolist() for a in (n, eta, s, n_eff, r))))
    assert len(points) == 81 + 402
    for k, (uses, eta_k, s_k, n_eff_k, r_k) in enumerate(points):
        model = assemble_model(ChannelParams(n=uses, eta=eta_k, s=s_k, n_eff=n_eff_k), r_k)
        assert type(model.n_mod) is float and model.n_mod == photon_budget(n_eff_k, r_k), k
        assert type(model.logdet_gl) is float and math.isfinite(model.logdet_gl), k
        for field in ("r_pair", "s_pair", "t_pair", "u_pair"):
            assert getattr(model, field).shape == (2,), (k, field)
        spd_logdet(model.u_pair[:, None, None])
        assert model.joint_pairs().shape == (2, 2, 2)
        spd_logdet(model.joint_pairs())


def test_permutation_of_uses_leaves_model_invariant():
    n = 3
    perm = (1, 2, 0)
    p = np.zeros((2 * n, 2 * n))
    for i, j in enumerate(perm):
        p[i, j] = 1.0
        p[n + i, n + j] = 1.0
    for kernel in (build_input_kernel(n, 0.7), build_memory_kernel(n, -1.2)):
        assert np.array_equal(p @ kernel @ p.T, kernel)


def test_chain_refuses_strong_memory_that_the_closed_form_answers():
    # the pivot test, relative to a pair's largest diagonal entry, refuses
    # the pair whose second pivot is of order e^{-2|s|} (assemble_model):
    # from |s| = 17.5 to 19.5 over these eta at N_eff = 2, r = 0.3
    for eta in (1.0, 0.0, 0.3, 0.8):
        for sign in (1.0, -1.0):
            model = assemble_model(ChannelParams(n=1, eta=eta, s=16.0 * sign, n_eff=2.0), 0.3)
            assert math.isfinite(model.logdet_gl)
            with pytest.raises(NotPositiveDefinite):
                assemble_model(ChannelParams(n=1, eta=eta, s=20.0 * sign, n_eff=2.0), 0.3)
            assert math.isfinite(mutual_information(
                ChannelParams(n=1, eta=eta, s=20.0 * sign, n_eff=2.0), 0.3).rate)


def test_extreme_memory_stays_positive_definite():
    # the solve-derived kernels keep tiny eigenvalues clean even at s=5
    model = model_at(2, 0.8, 5.0, -1.0, 1.0)
    spd_logdet(model.u_pair[:, None, None])
    spd_logdet(model.joint_pairs())
    assert math.isfinite(model.logdet_gl)
