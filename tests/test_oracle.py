"""Moment-formula, Monte Carlo, and quadrature verification paths."""
import ast
import decimal
import inspect
import itertools
import math
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from lossymem import cli, information, oracle
from lossymem.channel_model import (
    N_MIN,
    ChannelParams,
    assemble_model,
    build_beam_splitter,
    build_input_kernel,
    build_memory_kernel,
    photon_budget,
    photon_budgets,
    single_use_kernels,
)
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
from lossymem.matrix_core import spd_logdet, symmetrize
from lossymem.oracle import (
    McConfig,
    MiEstimate,
    _covariances,
    _entropy_on_grid,
    _independent_blocks,
    _mi_from_covariance,
    gaussian_mi_from_moments,
    monte_carlo_mi,
    pipeline_covariance,
    quadrature_entropy_n1,
    sample_covariance,
    sample_joint,
)

from chain_reference import joint_kernel
from random_points import random_points

LN2 = math.log(2.0)
EPS = sys.float_info.epsilon


def kernels_n1(eta, s, r):
    """The chain's n = 1 (output, joint) kernels at N_eff = 2."""
    return single_use_kernels(assemble_model(ChannelParams(n=1, eta=eta, s=s, n_eff=2.0), r))


def det_norm(kernel):
    """exp(-w kernel w^T) integrates to pi^{d/2} / sqrt(det kernel)."""
    d = kernel.shape[0]
    return math.exp(0.5 * spd_logdet(kernel) - 0.5 * d * math.log(math.pi))


# ---------------------------------------------------------------- independence

def _imported_names(module):
    """The dotted name of each name that module's imports bind, relative
    imports resolved against the lossymem package."""
    names = []
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["lossymem" if node.level else "", node.module]))
            names += [f"{base}.{alias.name}" for alias in node.names]
    return names


def test_no_oracle_imports_from_the_information_module():
    # the oracles check information's closed form, so they read none of it;
    # ln 2 is their own, the same float
    names = _imported_names(oracle)
    assert "lossymem.channel_model.build_input_kernel" in names
    assert [name for name in names if f"{name}.".startswith("lossymem.information.")] == []
    assert oracle.LN2 == information.LN2


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
    with pytest.raises(InvalidSpec):
        McConfig(samples=100000, seed=True)
    with pytest.raises(InvalidSpec):
        McConfig(samples=True, seed=1)


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


def _reference_pipeline_covariance(params, r, inverse):
    """The covariance at one float r, from per-r kernels and np.block, with
    each kernel inverse A(x)^-1 taken as inverse(n, x)."""
    n, eta = params.n, params.eta
    eye = np.eye(2 * n)
    sigma_mu = (photon_budget(params.n_eff, r) / 2.0) * eye
    sigma_zeta = (eta * (sigma_mu + inverse(n, r) / 2.0)
                  + (1.0 - eta) * inverse(n, params.s) / 2.0 + eye / 4.0)
    cross = math.sqrt(eta) * sigma_mu
    return np.block([[sigma_mu, cross], [cross, sigma_zeta]])


def _identity_inverse(n, x):
    """A(x)^-1 = A(-x) / 4, the kernel family's identity."""
    return build_input_kernel(n, -x) / 4.0


def _numerical_inverse(n, x):
    return np.linalg.inv(build_input_kernel(n, x))


def test_pipeline_covariance_matches_a_per_r_loop():
    for n in (1, 2, 3, 8):
        params = ChannelParams(n=n, eta=0.6, s=-1.5, n_eff=5.0)
        r = np.linspace(-0.9, 0.9, 6).reshape(2, 3) * r_limit(5.0)
        cov = pipeline_covariance(params, r)
        reference = np.array([_reference_pipeline_covariance(params, x, _identity_inverse)
                              for x in r.ravel()])
        np.testing.assert_array_equal(cov, reference.reshape(cov.shape))
        # every matrix is exactly symmetric, however ill-conditioned its kernels
        np.testing.assert_array_equal(cov, np.swapaxes(cov, -1, -2))
        # at |r|, |s| <= 1.5 the numerical inverses are good to round-off
        # (1.8e-14 of the largest entry)
        inverted = np.array([_reference_pipeline_covariance(params, x, _numerical_inverse)
                             for x in r.ravel()])
        np.testing.assert_allclose(cov, inverted.reshape(cov.shape), rtol=0,
                                   atol=1e-13 * np.abs(inverted).max())


def test_covariance_core_is_bit_equal_to_pipeline_covariance():
    # the 1512 points of verify's moment-oracle-grid in one stacked call,
    # against one pipeline_covariance call per (eta, s, N_eff) and its 21 r,
    # and at n = 2 against a call per point
    eta, s, n_eff, r = cli._moment_grid_points()
    n_mod, admissible = photon_budgets(n_eff, r)
    assert admissible.all() and r.size == 1512
    for n in (1, 2, 3):
        stacked = _covariances(n, eta, s, r, n_mod)
        assert stacked.shape == (1512, 4 * n, 4 * n)
        for start in range(0, r.size, 21):
            params = ChannelParams(n=n, eta=float(eta[start]), s=float(s[start]),
                                   n_eff=float(n_eff[start]))
            grid = r[start:start + 21]
            assert np.array_equal(pipeline_covariance(params, grid), stacked[start:start + 21])
            if n == 2:
                for k, r_k in enumerate(grid.tolist()):
                    assert np.array_equal(pipeline_covariance(params, r_k), stacked[start + k])
    # and at 402 random points, where np.exp and math.exp differ at some s
    n, eta, s, n_eff, r = random_points()
    n_mod, admissible = photon_budgets(n_eff, r)
    assert admissible.all()
    for uses in (1, 2, 3):
        at = np.flatnonzero(n == uses)
        stacked = _covariances(uses, eta[at], s[at], r[at], n_mod[at])
        for k, i in enumerate(at.tolist()):
            params = ChannelParams(n=uses, eta=float(eta[i]), s=float(s[i]),
                                   n_eff=float(n_eff[i]))
            assert np.array_equal(pipeline_covariance(params, float(r[i])), stacked[k]), i


def _covariances_as_written(n, eta, s, r, n_mod):
    """_covariances as literal block expressions, with a (P, 2n, 2n)
    temporary per term."""
    eta = np.asarray(eta, dtype=float)[..., None, None]
    a_in = build_input_kernel(n, -r)
    a_mem = build_memory_kernel(n, -s)
    eye = np.eye(2 * n)
    sigma_mu = (n_mod / 2.0)[:, None, None] * eye
    cov = np.empty((r.size, 4 * n, 4 * n))
    cov[:, :2 * n, :2 * n] = sigma_mu
    cov[:, :2 * n, 2 * n:] = cov[:, 2 * n:, :2 * n] = np.sqrt(eta) * sigma_mu
    cov[:, 2 * n:, 2 * n:] = (eta * (sigma_mu + a_in / 8.0) + (1.0 - eta) * a_mem / 8.0
                              + eye / 4.0)
    return cov


def _mixing_map_as_written(params, r):
    """_mixing_map as one np.block of its four row blocks."""
    n = params.n
    mod_scale = math.sqrt(photon_budget(params.n_eff, r) / 2.0)
    rt, eye, zero = math.sqrt(params.eta), np.eye(2 * n), np.zeros((2 * n, 2 * n))
    return np.block([
        [mod_scale * eye, mod_scale * rt * eye],
        [zero, rt * build_input_kernel(n, -r / 2.0) / 4.0],
        [zero, -math.sqrt(1.0 - params.eta) * build_memory_kernel(n, -params.s / 2.0) / 4.0],
        [zero, eye / 2.0]])


def assert_same_bits(got, want):
    # array_equal takes -0.0 for 0.0, so the signs are compared as well
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_covariances_and_mixing_map_keep_the_bits_of_their_formulas():
    # the in-place builds against the block expressions that they replace:
    # verify's 1512-point grid at n = 1, 2, 3 and every 19th point at n = 32
    eta, s, n_eff, r = cli._moment_grid_points()
    n_mod, _ = photon_budgets(n_eff, r)
    for n, every in ((1, 1), (2, 1), (3, 1), (32, 19)):
        at = slice(None, None, every)
        assert_same_bits(_covariances(n, eta[at], s[at], r[at], n_mod[at]),
                         _covariances_as_written(n, eta[at], s[at], r[at], n_mod[at]))
    # the 402 random points, stacked per n, one at a time with float eta and
    # s as pipeline_covariance passes them, and their maps, also at eta = 0
    # and 1, where a noise block is all signed zeros
    n, eta, s, n_eff, r = random_points()
    n_mod, _ = photon_budgets(n_eff, r)
    for uses in (1, 2, 3):
        at = np.flatnonzero(n == uses)
        assert_same_bits(_covariances(uses, eta[at], s[at], r[at], n_mod[at]),
                         _covariances_as_written(uses, eta[at], s[at], r[at], n_mod[at]))
    for i in range(n.size):
        args = (int(n[i]), float(eta[i]), float(s[i]), r[i:i + 1], n_mod[i:i + 1])
        assert_same_bits(_covariances(*args), _covariances_as_written(*args))
        for eta_i in (float(eta[i]), 0.0, 1.0):
            params = ChannelParams(n=int(n[i]), eta=eta_i, s=float(s[i]),
                                   n_eff=float(n_eff[i]))
            assert_same_bits(oracle._mixing_map(params, float(r[i])),
                             _mixing_map_as_written(params, float(r[i])))
    params = ChannelParams(n=32, eta=0.8, s=-2.5, n_eff=20.0)
    assert_same_bits(oracle._mixing_map(params, 0.7), _mixing_map_as_written(params, 0.7))


def _mi_from_three_logdets(cov, n):
    """The Gaussian MI (bits) as ln det S_mu + ln det S_zeta - ln det S, by LU."""
    def logdet(m):
        return np.linalg.slogdet(m)[1]
    return (logdet(cov[..., :2 * n, :2 * n]) + logdet(cov[..., 2 * n:, 2 * n:])
            - logdet(cov)) / (2.0 * LN2)


def test_mi_from_covariance_matches_three_log_determinants():
    # two Cholesky factors against three LU log-determinants on random SPD
    # stacks (condition numbers up to about 140); the largest deviation
    # seen was 2.1e-14 bits at d = 32, a twentieth of the bound
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 8):
        d = 4 * n
        g = rng.standard_normal((2, 25, d, d))
        covs = symmetrize(g @ np.swapaxes(g, -1, -2) + np.eye(d))
        mi = _mi_from_covariance(covs, n)
        assert isinstance(mi, np.ndarray) and mi.shape == (2, 25)
        np.testing.assert_allclose(mi, _mi_from_three_logdets(covs, n), rtol=0,
                                   atol=64 * d * EPS)
        one = _mi_from_covariance(covs[1, 3], n)
        assert type(one) is float
        assert abs(one - mi[1, 3]) <= 64 * d * EPS


def test_mi_from_covariance_refuses_a_bad_mu_block():
    # the mu block's pivots are tested only inside the joint factor
    for n in (1, 2):
        for index, value in (((0, 0), 1e-17), ((0, 0), np.nan), ((0, 1), np.nan)):
            bad = np.eye(4 * n)
            bad[index] = value
            with pytest.raises(NotPositiveDefinite):
                _mi_from_covariance(bad, n)
            with pytest.raises(NotPositiveDefinite):
                _mi_from_covariance(np.stack([np.eye(4 * n), bad]), n)


def test_pipeline_covariance_names_the_inadmissible_r():
    params = ChannelParams(n=2, eta=0.6, s=1.0, n_eff=2.0)
    lim = r_limit(2.0)
    # the last one leaves a modulation in (0, N_MIN)
    near_edge = -math.asinh(math.sqrt(2.0 - 0.5 * N_MIN))
    for bad in (math.nan, math.inf, -711.0, 356.0, 1.1 * lim, near_edge):
        r = np.array([[0.5 * lim, bad], [-0.5 * lim, -1.2 * lim]])
        with pytest.raises(PhotonBudgetExceeded) as exc:
            pipeline_covariance(params, r)
        assert str(exc.value).startswith(f"r={bad!r} leaves modulation ")


def test_moment_formula_at_strong_memory_and_many_uses():
    # the n = 8 kernels at |s| = 5 have condition number e^20: their inverses
    # by np.linalg.inv put the MI 6.4e-11 bits off here, A(-s)/4 3.4e-12. At
    # |s| = 7.5 the relative errors are 2.45e-9 and 3.5e-10.
    for s, bound, relative in ((5.0, 2e-11, False), (7.5, 2e-9, True)):
        for sign in (-1.0, 1.0):
            for eta in (0.3, 0.7):
                for n_eff in (1.0, 20.0):
                    params = ChannelParams(n=8, eta=eta, s=sign * s, n_eff=n_eff)
                    r = np.linspace(-0.9, 0.9, 7) * min(r_limit(n_eff), 1.5)
                    closed = np.array([mutual_information(params, float(x)).i_r for x in r])
                    dev = np.abs(gaussian_mi_from_moments(params, r) - closed)
                    if relative:
                        dev /= np.abs(closed)
                    assert dev.max() <= bound


def test_stacked_logdet_keeps_the_pivot_test():
    stack = np.stack([np.eye(2), np.diag([1.0, 1e-17])])
    with pytest.raises(NotPositiveDefinite):
        spd_logdet(stack)
    covs = np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, 1e-17])])
    with pytest.raises(NotPositiveDefinite):
        _mi_from_covariance(covs, 1)
    np.testing.assert_allclose(spd_logdet(np.stack([np.eye(2), 2.0 * np.eye(2)])),
                               [0.0, 2.0 * math.log(2.0)], rtol=0, atol=1e-15)
    # a NaN anywhere in the stack fails the pivot test instead of giving nan
    for bad in (np.diag([1.0, np.nan]), np.array([[1.0, np.nan], [np.nan, 1.0]]),
                np.full((2, 2), np.nan)):
        with pytest.raises(NotPositiveDefinite):
            spd_logdet(np.stack([np.eye(2), bad, 2.0 * np.eye(2)]))
    with pytest.raises(NotPositiveDefinite):
        _mi_from_covariance(np.stack([np.eye(4), np.diag([1.0, 1.0, np.nan, 1.0])]), 1)


# ---------------------------------------------------------------- sampling

def test_sampled_covariance_matches_model():
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    model = assemble_model(params, 0.3)
    m = 50000
    data = sample_joint(params, 0.3, McConfig(samples=m, seed=11))
    assert data.shape == (m, 8)
    target = np.linalg.inv(joint_kernel(model)) / 2.0
    assert np.abs(np.cov(data, rowvar=False) - target).max() <= 5.0 / math.sqrt(m)


def test_sampled_covariance_scales_with_entry_size():
    # at strong memory the big entries need the Wishart error scale
    params = ChannelParams(n=2, eta=0.8, s=2.0, n_eff=2.0)
    model = assemble_model(params, 0.4)
    m = 50000
    data = sample_joint(params, 0.4, McConfig(samples=m, seed=17))
    target = np.linalg.inv(joint_kernel(model)) / 2.0
    diag = np.diag(target)
    scale = np.sqrt((np.outer(diag, diag) + target ** 2) / m)
    assert np.abs((np.cov(data, rowvar=False) - target) / scale).max() <= 5.0


def _decimal_kernel(n, r):
    """A(r) of the family, a Decimal r, from build_input_kernel's formula
    K_r = 2e^{-2r} J/n + 2e^{2r} (I - J/n), in the current decimal context."""
    shrink, grow = (-2 * r).exp(), (2 * r).exp()
    d = 2 * n
    a = [[Decimal(0)] * d for _ in range(d)]
    for off, (small, big) in ((0, (shrink, grow)), (n, (grow, shrink))):
        for i in range(n):
            for j in range(n):
                a[off + i][off + j] = 2 * (small - big + (n * big if i == j else 0)) / n
    return a


def _exact_sampling_factor(n, x):
    """L^-1 / sqrt(2) for the Cholesky factor L of A(x) = L L^T, with A(x)
    built from its formula and factored and inverted in 50-digit decimal
    arithmetic, then rounded to float: a square root of A(x)^-1 / 2 that
    reads neither the family identity nor the kernel builders."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = _decimal_kernel(n, Decimal(x))
        d = 2 * n
        lower = [[Decimal(0)] * d for _ in range(d)]
        for j in range(d):
            lower[j][j] = (a[j][j] - sum(lower[j][k] ** 2 for k in range(j))).sqrt()
            for i in range(j + 1, d):
                lower[i][j] = (a[i][j] - sum(lower[i][k] * lower[j][k] for k in range(j))
                               ) / lower[j][j]
        # forward substitution, one column of L^-1 at a time
        inv = [[Decimal(0)] * d for _ in range(d)]
        for j in range(d):
            for i in range(j, d):
                rhs = (1 if i == j else 0) - sum(lower[i][k] * inv[k][j] for k in range(j, i))
                inv[i][j] = rhs / lower[i][i]
        root2 = Decimal(2).sqrt()
        return np.array([[float(v / root2) for v in row] for row in inv])


def _exact_spectral_root(n, x):
    """A(-x/2) / 4, the symmetric square root of A(x)^-1 / 2, from its
    formula in 50-digit decimal arithmetic, then rounded to float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return np.array([[float(v / 4) for v in row]
                         for row in _decimal_kernel(n, -Decimal(x) / 2)])


def test_kernel_sampler_matches_triangular_solve():
    # the sampler's factor F, read from the mixing map's environment rows at
    # eta = 0, squares to A(x)^-1 / 2 with no numerical factor or inverse:
    # F^T F is at most 1.6 eps of the largest entry off E^T E, the exact
    # triangular solve's
    for n in (1, 2, 3):
        for x in (-5.0, -1.0, -0.5, 0.0, 1.0, 2.0, 5.0):
            mix = oracle._mixing_map(ChannelParams(n=n, eta=0.0, s=x, n_eff=2.0), 0.0)
            factor = -mix[4 * n:6 * n, 2 * n:]
            exact = _exact_sampling_factor(n, x)
            ref = exact.T @ exact
            assert np.abs(factor.T @ factor - ref).max() <= 16 * EPS * np.abs(ref).max()


def test_mixing_map_squares_to_the_pipeline_covariance():
    # sampler-map's bound, 64 eps of the largest entry; 2.5 eps measured
    for n, eta, s, n_eff, r in zip(*(axis.tolist() for axis in random_points())):
        params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)
        mix, target = oracle._mixing_map(params, r), pipeline_covariance(params, r)
        assert mix.shape == (8 * n, 4 * n)
        assert np.abs(mix.T @ mix - target).max() <= cli._MAP_BOUND * np.abs(target).max()


def test_input_energy_of_the_mixing_map_is_the_photon_budget():
    # at eta = 1 the zeta block of M^T M less I/4 is the input covariance,
    # and tr / n - 1/2 = N + sinh^2 r = N_eff: input-energy's identity and
    # bound, 8.8 eps N_eff measured
    for n, _, s, n_eff, r in zip(*(axis.tolist() for axis in random_points())):
        zeta = oracle._mixing_map(ChannelParams(n=n, eta=1.0, s=s, n_eff=n_eff), r)[:, 2 * n:]
        energy = np.trace(zeta.T @ zeta - np.eye(2 * n) / 4.0) / n - 0.5
        assert abs(energy - n_eff) <= cli._MAP_BOUND * n_eff


def _stream(seed):
    """The SFC64 stream of a seed, through SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def _reference_sample_joint(params, r, cfg):
    """The pipeline with the noise sources' normals drawn whole from the
    seed's stream, 8n to a row, in row order, and split into the columns of
    modulation, input ensemble, environment and detector; the signal and
    environment rows (noise through the exact spectral roots) stacked and
    mixed by the beam splitter's first 2n columns."""
    n = params.n
    normals = _stream(cfg.seed).standard_normal((cfg.samples, 8 * n))
    modulation, ensemble, environment, detector = np.hsplit(normals, 4)
    mu = modulation * math.sqrt(photon_budget(params.n_eff, r) / 2.0)
    sig = mu + ensemble @ _exact_spectral_root(n, r)
    env = environment @ _exact_spectral_root(n, params.s)
    zeta = np.hstack([sig, env]) @ build_beam_splitter(n, params.eta)[:, :2 * n]
    zeta += detector * 0.5
    return np.hstack([mu, zeta])


def test_sampler_matches_the_stacked_beam_splitter_pipeline():
    # 40 and 5003 rows: below the mixing block and not a multiple of it. At
    # s = 4 the sampler's rows are 3.1e-16 of the largest off the exact root's
    for n in (1, 2, 3):
        for eta in (0.0, 0.3, 1.0):
            for s, r, m in ((0.0, 0.0, 40), (4.0, 0.4, 5003), (-2.0, -0.6, 5003)):
                params = ChannelParams(n=n, eta=eta, s=s, n_eff=2.0)
                cfg = McConfig(samples=m, seed=n + m)
                data = sample_joint(params, r, cfg)
                ref = _reference_sample_joint(params, r, cfg)
                assert data.shape == ref.shape
                assert np.abs(data - ref).max() <= 2e-12 * np.abs(ref).max()


def test_sampler_rows_do_not_depend_on_the_block_size(monkeypatch):
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    cfg = McConfig(samples=5003, seed=99)
    default = sample_joint(params, 0.3, cfg)
    for rows in (7, 1000):
        monkeypatch.setattr(oracle, "_MIX_ROWS", rows)
        assert np.array_equal(sample_joint(params, 0.3, cfg), default)


def test_source_covariance_is_the_bartlett_factor_of_the_seed():
    # bit for bit: the diagonal's chi^2(m - 1 - j) draws, square-rooted,
    # then the normals below the diagonal in row-major order, one stream of
    # the seed; C = L L^T / (m - 1), and the rows' covariance M^T C M,
    # symmetrized, as the sampled checks print
    for n in (1, 2, 3):
        params = ChannelParams(n=n, eta=0.7, s=2.0, n_eff=2.0)
        for m in (8 * n + 1 + 40, 20011):
            cfg = McConfig(samples=m, seed=n)
            d = 8 * n
            stream = _stream(cfg.seed)
            lower = np.diag(np.sqrt(stream.chisquare(m - 1 - np.arange(d))))
            below = iter(stream.standard_normal(d * (d - 1) // 2))
            for i in range(d):
                for j in range(i):
                    lower[i, j] = next(below)
            source_cov = lower @ lower.T / (m - 1)
            assert np.array_equal(oracle._source_covariance(n, cfg), source_cov)
            mix = oracle._mixing_map(params, 0.4)
            cov = mix.T @ source_cov @ mix
            assert np.array_equal(sample_covariance(params, 0.4, cfg), (cov + cov.T) / 2.0)


def test_source_covariance_follows_the_wishart_law():
    # W = (m - 1) C ~ Wishart_8n(I, m - 1), k = m - 1: over 2000 seeds each
    # diagonal entry is chi^2(k), of mean k and variance 2k, and each entry
    # below it has variance k. Each z is against the sampling law of the
    # pooled mean or variance (fourth moments 12k(k + 4) and 3k^2 + 6k); a
    # chi^2 degree of freedom off by one reads z = 9.3, off-diagonal normals
    # 3 % too large z = 9.1. The worst |z| measured here is 1.05, in about
    # 0.1 s of a 0.5 s budget
    n, m, seeds = 1, 100, range(1, 2001)
    k, d = m - 1, 8 * n
    w = np.array([oracle._source_covariance(n, McConfig(samples=m, seed=seed)) * k
                  for seed in seeds])
    diag = w[:, np.arange(d), np.arange(d)].ravel()
    rows, cols = np.tril_indices(d, -1)
    below = w[:, rows, cols].ravel()
    z_mean = (diag.mean() - k) / math.sqrt(2 * k / diag.size)
    z_diag_var = (diag.var(ddof=1) - 2 * k) / math.sqrt((8 * k * k + 48 * k) / diag.size)
    z_below_var = (below.var(ddof=1) - k) / math.sqrt((2 * k * k + 6 * k) / below.size)
    for z in (z_mean, z_diag_var, z_below_var):
        assert abs(z) <= 4.0, (z_mean, z_diag_var, z_below_var)


def test_monte_carlo_refuses_samples_at_most_8n(monkeypatch):
    # Bartlett's chi^2 degrees of freedom m - 1 - j reach 0 at m = 8n: a
    # typed refusal before any draw, never numpy's ValueError
    for n in (5, 8, 32):
        params = ChannelParams(n=n, eta=0.8, s=1.0, n_eff=2.0)
        assert math.isfinite(monte_carlo_mi(params, 0.3, McConfig(samples=8 * n + 1, seed=1)).value)

    def no_draw(seed):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(oracle, "_generator", no_draw)
    for n in (5, 8, 32):
        params = ChannelParams(n=n, eta=0.8, s=1.0, n_eff=2.0)
        for m in (40, 8 * n):
            with pytest.raises(InvalidSpec, match=f"samples must exceed 8n = {8 * n} .* got {m}$"):
                monte_carlo_mi(params, 0.3, McConfig(samples=m, seed=1))


def _traced_peak(fn, *args):
    # numpy imports numpy.random on first use: import it before tracing, so
    # that the peak measures the sampler alone
    np.random.SeedSequence(0)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampler_holds_one_draw_buffer():
    # the output plus one (8192, 8n) block of normals, 1 MiB at n = 2
    # (1.003 MiB measured), padded to 2 MiB
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    data, peak = _traced_peak(sample_joint, params, 0.3, McConfig(samples=100000, seed=1))
    assert peak <= data.nbytes + 2 * 2 ** 20


def test_streamed_covariance_holds_nothing_sized_by_the_samples():
    # 11 kB measured at both counts: the (8n, 8n) Bartlett factor and its
    # products, never a row
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    for m in (20000, 200000):
        _, peak = _traced_peak(sample_covariance, params, 0.3, McConfig(samples=m, seed=1))
        assert peak <= 2 ** 16


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


def test_value_is_the_bias_corrected_plug_in():
    # the moment formula on sample_covariance, less pq / (2m) nats, p = q = 2n
    for n, eta, s, n_eff, r, m, seed in ((2, 0.8, 0.0, 2.0, 0.0, 20000, 1),
                                         (1, 0.5, 5.0, 20.0, -0.7, 5003, 12345),
                                         (3, 0.3, 1.0, 5.0, 0.6, 4019, 7)):
        params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)
        cfg = McConfig(samples=m, seed=seed)
        cov = sample_covariance(params, r, cfg)
        plug_in = (spd_logdet(cov[:2 * n, :2 * n]) + spd_logdet(cov[2 * n:, 2 * n:])
                   - spd_logdet(cov)) / (2.0 * LN2)
        est = monte_carlo_mi(params, r, cfg)
        assert abs(est.value - (plug_in - (2 * n) ** 2 / (2.0 * m) / LN2) / n) <= 1e-12


def test_std_error_matches_the_anchor_closed_form():
    # at the anchor each of the 2n = 4 canonical correlations has rho^2 = 8/13
    params = ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0)
    for m in (5003, 100000):
        est = monte_carlo_mi(params, 0.0, McConfig(samples=m, seed=1))
        closed = math.sqrt((32.0 / 13.0 + 8.0 / m) / m) / (2.0 * LN2)
        assert abs(est.std_error - closed) <= 1e-12 * closed


def test_std_error_refuses_an_ill_conditioned_block_with_a_typed_error():
    # at strong memory the output block's condition number passes 1/eps: its
    # factor fails the pivot test before the draw, as NotPositiveDefinite,
    # not as numpy's LinAlgError from a general solve
    cfg = McConfig(samples=50, seed=1)
    for n, eta, s in ((2, 0.3, 30.0), (2, 0.0, 100.0), (3, 0.0, 30.0), (3, 0.3, 30.0),
                      (3, 0.0, 100.0), (3, 0.3, 100.0)):
        with pytest.raises(NotPositiveDefinite):
            monte_carlo_mi(ChannelParams(n=n, eta=eta, s=s, n_eff=2.0), 0.3, cfg)


def test_monte_carlo_reaches_as_far_in_s_as_the_moment_oracle():
    # the sampler factors no kernel, so the estimate answers wherever the
    # pipeline covariance's blocks pass the pivot test: at |s| = 10 and 14,
    # and at eta = 1, where the environment has zero weight, up to |s| = 354.
    # A Cholesky factor of A(-s) fails its pivot test from |s| = 9 to 9.25 at
    # these n. The worst |z| measured here is 1.30
    cfg = McConfig(samples=20000, seed=7)
    points = [(n, eta, s) for n in (1, 2, 3) for eta in (0.3, 0.8)
              for s in (-14.0, -10.0, 10.0, 14.0)]
    points += [(n, 1.0, s) for n in (1, 2, 3) for s in (-354.0, 354.0)]
    for n, eta, s in points:
        params = ChannelParams(n=n, eta=eta, s=s, n_eff=2.0)
        est = monte_carlo_mi(params, 0.3, cfg)
        assert math.isfinite(est.value) and math.isfinite(est.std_error)
        dev = abs(est.value - mutual_information(params, 0.3).rate)
        assert dev <= cli._MC_Z_BOUND * est.std_error, (n, eta, s)


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
        u_kernel = single_use_kernels(model)[0]
        value = quadrature_entropy_n1(u_kernel, det_norm(u_kernel))
        closed, _ = output_entropy(model)
        assert abs(value - closed) <= 1e-4


def test_quadrature_joint_density():
    model = assemble_model(ChannelParams(n=1, eta=0.8, s=1.0, n_eff=2.0), 0.3)
    v_kernel = single_use_kernels(model)[1]
    value = quadrature_entropy_n1(v_kernel, det_norm(v_kernel), points=65)
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


def test_kernel_splits_into_independent_blocks():
    v_n = kernels_n1(0.8, 1.0, 0.3)[1]
    assert _independent_blocks(v_n) == [[0, 2], [1, 3]]
    assert _independent_blocks(np.diag([1.0, 2.0, 3.0, 4.0])) == [[0], [1], [2], [3]]
    # one block of four axes, and one of three with axis 3 at its centre:
    # each holds an axis with two partners, which the split refuses
    chain = np.array([[2.0, 0.5, 0.0, 0.0], [0.5, 2.0, 0.4, 0.0],
                      [0.0, 0.4, 2.0, 0.3], [0.0, 0.0, 0.3, 2.0]])
    star = np.array([[1.0, 0.0, 0.0, 0.2], [0.0, 1.0, 0.0, 0.3],
                     [0.0, 0.0, 1.0, 0.0], [0.2, 0.3, 0.0, 1.0]])
    for kernel in (chain, star):
        with pytest.raises(DimensionMismatch):
            _independent_blocks(kernel)
    # a NaN couples its two indices, even in one triangle only
    assert _independent_blocks(np.array([[1.0, np.nan], [0.0, 1.0]])) == [[0, 1]]
    assert _independent_blocks(np.array([[1.0, 0.0], [np.nan, 1.0]])) == [[0, 1]]


def _connected_components(pattern):
    """The connected components of a symmetric boolean pattern, each a
    sorted index list, in order of their first index, by depth-first search."""
    seen, components = set(), []
    for start in range(len(pattern)):
        if start in seen:
            continue
        stack, component = [start], []
        seen.add(start)
        while stack:
            i = stack.pop()
            component.append(i)
            for j in np.flatnonzero(pattern[i]).tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        components.append(sorted(component))
    return components


def test_split_agrees_with_a_component_search_on_every_pattern():
    # every off-diagonal nonzero pattern of 2 x 2, 3 x 3 and 4 x 4 kernels,
    # 4 + 64 + 4096 of them; one set entry in three holds a NaN, which is
    # nonzero in either triangle
    checked = 0
    for d in (2, 3, 4):
        slots = [(i, j) for i in range(d) for j in range(d) if i != j]
        for bits in itertools.product((False, True), repeat=len(slots)):
            kernel = np.eye(d)
            for index, ((i, j), bit) in enumerate(zip(slots, bits)):
                if bit:
                    kernel[i, j] = np.nan if (index + sum(bits)) % 3 == 0 else 0.25
            pattern = (kernel != 0) | (kernel.T != 0)
            components = _connected_components(pattern)
            if max(map(len, components)) <= 2:
                assert _independent_blocks(kernel) == components
            else:
                with pytest.raises(DimensionMismatch):
                    _independent_blocks(kernel)
            checked += 1
    assert checked == 4164


def test_slab_quadrature_matches_outer_point_loop(monkeypatch):
    u_p = kernels_n1(0.7, 1.5, 0.4)[0]
    v_n = kernels_n1(0.8, 1.0, 0.3)[1]
    # the output kernel, the split joint kernel, a coupled 2-D kernel and a
    # 1-D-block 2-D one; the coupled 4-D cases are refusals now
    kernels = (u_p, v_n, np.array([[1.0, 0.3], [0.3, 2.0]]), u_p[:2, :2])
    # an odd and an even point count: one grid has a point at 0, the other none
    for kernel in kernels:
        sigmas = np.sqrt(np.diag(np.linalg.inv(kernel) / 2.0))
        for half_width in (8.0, 2.0):
            monkeypatch.setattr(oracle, "_HALF_WIDTH", half_width)
            for points in (17, 16):
                mass, ent = _entropy_on_grid(kernel, det_norm(kernel), sigmas, points)
                ref_mass, ref_ent = _reference_entropy_on_grid(
                    kernel, det_norm(kernel), sigmas, half_width, points)
                assert abs(mass - ref_mass) <= 1e-12
                assert abs(ent - ref_ent) <= 1e-12


def test_block_quadrature_matches_outer_point_loop():
    v_n = kernels_n1(0.8, 1.0, 0.3)[1]
    # the split joint kernel, its x pair and diagonal kernels, at an odd and
    # an even point count
    cases = [(v_n, 17), (v_n, 16), (v_n[::2, ::2], 17), (v_n[::2, ::2], 16),
             (np.diag([1.0, 0.5, 2.0, 0.7]), 17), (np.diag([1.0, 0.5, 2.0, 0.7]), 16),
             (np.diag([1.0, 0.25]), 257)]
    for kernel, points in cases:
        sigmas = np.sqrt(np.diag(np.linalg.inv(kernel) / 2.0))
        mass, ent = _entropy_on_grid(kernel, det_norm(kernel), sigmas, points)
        ref_mass, ref_ent = _reference_entropy_on_grid(
            kernel, det_norm(kernel), sigmas, oracle._HALF_WIDTH, points)
        assert abs(mass - ref_mass) <= 1e-12
        assert abs(ent - ref_ent) <= 1e-12


def test_quadrature_refuses_blocks_of_three_or_more_axes():
    # the tridiagonal kernel has exact zeros in its corners but is one block
    chain = np.array([[1.0, 0.3, 0.0, 0.0], [0.3, 2.0, 0.4, 0.0],
                      [0.0, 0.4, 1.5, 0.2], [0.0, 0.0, 0.2, 0.9]])
    dense = np.array([[1.0, 0.3, -0.2, 0.1], [0.3, 2.0, 0.4, -0.5],
                      [-0.2, 0.4, 1.5, 0.2], [0.1, -0.5, 0.2, 0.9]])
    # axes 0, 1 and 3 form one block, axis 2 another
    star = np.array([[1.0, 0.0, 0.0, 0.2], [0.0, 1.0, 0.0, 0.3],
                     [0.0, 0.0, 1.0, 0.0], [0.2, 0.3, 0.0, 1.0]])
    for kernel in (chain, dense, star):
        sigmas = np.sqrt(np.diag(np.linalg.inv(kernel) / 2.0))
        with pytest.raises(DimensionMismatch):
            _entropy_on_grid(kernel, det_norm(kernel), sigmas, 17)
        with pytest.raises(DimensionMismatch):
            quadrature_entropy_n1(kernel, det_norm(kernel), points=17)
        # the kernel is factored before it is split: coupled and not
        # positive definite is a NotPositiveDefinite
        with pytest.raises(NotPositiveDefinite):
            quadrature_entropy_n1(-kernel, 1.0, points=17)


def test_quadrature_rejects_wrong_shapes():
    with pytest.raises(DimensionMismatch):
        quadrature_entropy_n1(np.eye(3), 1.0)
    with pytest.raises(DimensionMismatch):
        quadrature_entropy_n1(np.ones(2), 1.0)


def test_quadrature_rejects_unnormalized_density():
    for norm_const in (1.02 / math.pi, 0.0, -1.0 / math.pi, math.nan, math.inf):
        with pytest.raises(GridTooCoarse):
            quadrature_entropy_n1(np.eye(2), norm_const)
    # a NaN only in the upper triangle, which the Cholesky factor does not
    # read, fails the symmetry test
    for kernel in (np.array([[1.0, np.nan], [0.0, 1.0]]),
                   np.array([[1.0, np.nan], [np.nan, 1.0]]), np.diag([1.0, np.nan])):
        with pytest.raises(NotPositiveDefinite):
            quadrature_entropy_n1(kernel, 1.0 / math.pi)


def test_quadrature_rejects_bad_grid_specs():
    for points in (65.0, True, "65"):
        with pytest.raises(InvalidSpec):
            quadrature_entropy_n1(np.eye(2), 1.0 / math.pi, points=points)
    value = quadrature_entropy_n1(np.eye(2), 1.0 / math.pi, points=np.int64(65))
    assert abs(value - (1 + math.log(math.pi)) / LN2) <= 1e-4


def test_quadrature_rejects_coarse_grids():
    with pytest.raises(GridTooCoarse):
        quadrature_entropy_n1(np.eye(2), 1.0 / math.pi, points=7)
    with pytest.raises(GridTooCoarse):
        quadrature_entropy_n1(np.eye(2), 1.0 / math.pi, points=9)
