"""Verification paths for the closed-form pipeline.

All three routes are independent of the closed-form core of the information
module and of the pair chain of channel_model: they read only the public
kernel builders and the photon budget, and mix at the beam splitter's
amplitudes sqrt(eta) and sqrt(1 - eta) themselves. The moment oracle
propagates the exact covariance of the encode -> loss -> heterodyne pipeline
and takes the mutual information from the Gaussian block-determinant
formula in two factorizations, of the joint covariance S and of its zeta
block: S's factor holds the mu block's in its leading pivots, so its
trailing pivots give the log-determinant of the Schur complement S / S_mu,
and I = (ln det S_zeta - ln det(S / S_mu)) / 2 nats. Neither it nor the
Monte Carlo sampler inverts or factors a kernel: the input and memory
kernels are one family, whose spectrum 2e^{-+2x} inverts to e^{+-2x}/2, so
A(x)^-1 = A(-x)/4 exactly, which the moment oracle reads; and A(-x/2)/4,
of spectrum e^{+-x}/2 on the same eigenvectors, is the symmetric square
root of A(x)^-1 / 2 = A(-x)/8, which the sampler maps its normals
through. A physical Monte Carlo simulation of the same pipeline estimates
it from the sample covariance, with the bias and standard error of that
estimate's sampling law. Direct numerical quadrature evaluates the
single-use entropy integrals of a given kernel.

The quadrature integrates each independent block of the kernel (a connected
component of its nonzero pattern; the n = 1 joint kernel splits into its x
pair and its p pair, the output and input kernels into single axes) on the
whole grid of its one or two axes, and refuses a block of three or more
with DimensionMismatch. The density is a product over the blocks, the grid
a tensor product and its weights products of per-axis weights, so the
trapezoid sums of the whole grid are exact combinations of the blocks'
sums: no approximation enters, only a different order of round-off.

The sampler is one linear map: the (8n, 4n) matrix M of _mixing_map takes
a row of the physical noise sources' standard normals (modulation, input
ensemble, environment, detector) to a (mu, zeta) row, so M^T M must equal
pipeline_covariance, which verify's sampler-map check reads. A draw's
moments are its normals': the (8n, 8n) sample covariance C of m iid rows
of 8n standard normals has (m - 1) C ~ Wishart_8n(I, m - 1), and
_source_covariance draws C from that law by Bartlett's decomposition, in
8n (8n + 1) / 2 draws from one SFC64 stream whatever m is.
sample_covariance is M^T C M, so one seed's C serves the map of every
point of its n. sample_joint simulates the rows themselves, z M, from one
stream seeded the same way: its rows share C's law, not C's realisation.

`pipeline_covariance` is the per-params form of `_covariances`, which
builds the covariance at 1-D arrays of points (eta, s, r, N) in one
stacked pass into one preallocated stack, so that verify's grid checks
make one call for all their points.
"""
import math
from dataclasses import dataclass

from ._lazy import np
from .channel_model import (
    build_input_kernel,
    build_memory_kernel,
    photon_budget,
    photon_budgets,
)
from .errors import DimensionMismatch, GridTooCoarse, InvalidSpec
from .information import LN2
from .matrix_core import spd_factor, spd_logdet, symmetrize

# the sampling law of monte_carlo_mi is asymptotic in the sample count
_MIN_SAMPLES = 40
# sample rows per block of sample_joint; the rows do not depend on it
_MIX_ROWS = 8192
# the quadrature grid's half-width in marginal deviations: a Gaussian's mass
# beyond +-8 sigma is 1.2e-15, far below the quadrature's 1e-6 mass gate
_HALF_WIDTH = 8.0


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run setup: sample count and RNG seed."""

    samples: int
    seed: int

    def __post_init__(self):
        if (not isinstance(self.samples, int) or isinstance(self.samples, bool)
                or self.samples < _MIN_SAMPLES):
            raise InvalidSpec(
                f"samples must be an integer >= {_MIN_SAMPLES}, got {self.samples!r}")
        if (not isinstance(self.seed, int) or isinstance(self.seed, bool)
                or not 0 <= self.seed < 2 ** 64):
            raise InvalidSpec(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True)
class MiEstimate:
    """Bias-corrected sampled mutual information per use and its standard error (bits)."""

    value: float
    std_error: float


def pipeline_covariance(params, r):
    """Exact covariance of the (mu, zeta) rows that sample_joint draws.

    r is a float or an array; the result has shape np.shape(r) + (4n, 4n),
    each matrix bit-equal to `_covariances` at that r. An r outside the
    photon budget raises PhotonBudgetExceeded, naming the first such r.
    """
    r_flat = np.asarray(r, dtype=float).ravel()
    n_mod, admissible = photon_budgets(params.n_eff, r_flat)
    if not admissible.all():
        photon_budget(params.n_eff, float(r_flat[admissible.argmin()]))
    cov = _covariances(params.n, params.eta, params.s, r_flat, n_mod)
    return cov.reshape(np.shape(r) + cov.shape[-2:])


def _covariances(n, eta, s, r, n_mod):
    """pipeline_covariance at P points for blocks of n uses: a (P, 4n, 4n) stack.

    r and n_mod are 1-D arrays of length P, with N = n_mod; eta and s are
    floats or arrays of that length. The modulation block is (N/2) I, the
    cross block sqrt(eta) (N/2) I, and the output block
    eta ((N/2) I + A_in(-r)/8) + (1 - eta) A_mem(-s)/8 + I/4, each kernel
    inverse A(x)^-1 / 2 taken as A(-x)/8 from the family identity. The
    kernel builders are exactly symmetric, so every matrix is.
    """
    eta = np.asarray(eta, dtype=float)
    half, i = n_mod / 2.0, np.arange(2 * n)
    cov = np.zeros((r.size, 4 * n, 4 * n))
    cov[:, i, i] = half[:, None]
    cov[:, i, 2 * n + i] = cov[:, 2 * n + i, i] = (np.sqrt(eta) * half)[..., None]
    # the output block in the order of the formula's operations, in place on
    # the fresh (contiguous) input kernel; its off-diagonal zeros take their
    # sign from the last step, + I/4
    out = build_input_kernel(n, -r)
    out /= 8.0
    out[:, i, i] += half[:, None]
    out *= eta[..., None, None]
    mem = (1.0 - eta)[..., None, None] * build_memory_kernel(n, -s)
    mem /= 8.0
    out += mem
    out += np.eye(2 * n) / 4.0
    cov[:, 2 * n:, 2 * n:] = out
    return cov


def _mi_from_covariance(cov, n):
    """Gaussian MI (bits) between the first and last 2n coordinates of a
    4n x 4n covariance, a float, or of each matrix in a (..., 4n, 4n) stack,
    an array.

    I = (ln det S_zeta - ln det(S / S_mu)) / (2 ln 2), two factorizations:
    S's lower factor holds S_mu's in its leading 2n pivots, so by the chain
    rule of determinants ln det S - ln det S_mu = ln det(S / S_mu), twice the
    sum of the logs of its last 2n pivots. spd_factor pivot-tests S, which
    holds S_mu, and spd_logdet the zeta block.
    """
    lower = spd_factor(cov)
    schur_pivots = np.diagonal(lower, axis1=-2, axis2=-1)[..., 2 * n:]
    ld_schur = 2.0 * np.sum(np.log(schur_pivots), axis=-1)
    mi = (spd_logdet(cov[..., 2 * n:, 2 * n:]) - ld_schur) / (2.0 * LN2)
    return float(mi) if lower.ndim == 2 else mi


def gaussian_mi_from_moments(params, r):
    """Mutual information (bits, over the n uses) of the pipeline's exact moments.

    r is a float or an array of r; the result is a float or an array of the
    same shape. An r outside the photon budget raises PhotonBudgetExceeded.
    """
    return _mi_from_covariance(pipeline_covariance(params, r), params.n)


def _mixing_map(params, r):
    """The (8n, 4n) map M from one row of the four sources' standard normals
    (modulation, input ensemble, environment, detector: 2n each, in that
    order) to one (mu, zeta) row: mu = sqrt(N/2) z_mod, and the heterodyned
    signal output of the beam splitter,
    zeta = sqrt(eta) (mu + z_in F_in) - sqrt(1 - eta) z_env F_mem + z_det / 2,
    with N = photon_budget(n_eff, r) and F = A(-x/2)/4 of the family at
    x = r or s. A(-x/2) has the spectrum 2e^{+-x} on the eigenvectors of
    A(-x), so F is symmetric and F^T F = F^2 = A(-x)/8 = A(x)^-1 / 2: z F
    has the ensemble noise's covariance, and no kernel is factored. M^T M
    is the covariance of the rows.
    """
    n = params.n
    mod_scale = math.sqrt(photon_budget(params.n_eff, r) / 2.0)
    rt, i = math.sqrt(params.eta), np.arange(2 * n)
    mix = np.zeros((8 * n, 4 * n))
    mix[i, i] = mod_scale
    mix[i, 2 * n + i] = mod_scale * rt
    mix[2 * n:4 * n, 2 * n:] = rt * build_input_kernel(n, -r / 2.0) / 4.0
    mix[4 * n:6 * n, 2 * n:] = (-math.sqrt(1.0 - params.eta)
                                * build_memory_kernel(n, -params.s / 2.0) / 4.0)
    mix[6 * n + i, 2 * n + i] = 0.5
    return mix


def _generator(seed):
    """The SFC64 generator of a seed, through SeedSequence."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def _source_covariance(n, cfg):
    """The (8n, 8n) sample covariance C of cfg.samples = m rows of 8n iid
    standard normals, drawn from its law: (m - 1) C ~ Wishart_8n(I, m - 1).
    By Bartlett's decomposition C = L L^T / (m - 1), with L lower triangular,
    L_jj = sqrt(chi^2(m - 1 - j)) and L_ij ~ N(0, 1) below the diagonal, in
    row-major order, all from one stream of the seed. The diagonal's degrees
    of freedom must stay positive, so m <= 8n raises InvalidSpec."""
    d, m = 8 * n, cfg.samples
    if m - 1 < d:
        raise InvalidSpec(f"samples must exceed 8n = {d} for a full-rank sample "
                          f"covariance, got {m}")
    generator = _generator(cfg.seed)
    lower = np.diag(np.sqrt(generator.chisquare(m - 1 - np.arange(d))))
    lower[np.tril_indices(d, -1)] = generator.standard_normal(d * (d - 1) // 2)
    return lower @ lower.T / (m - 1)


def sample_joint(params, r, cfg):
    """Simulate the physical pipeline, returning (samples, 4n) rows of (mu, zeta):
    rows of 8n standard normals, filled block by block from one stream of
    the seed, through _mixing_map. The rows do not depend on the block size,
    and their sample covariance shares the law of sample_covariance, not its
    realisation. The peak memory is the output plus one (_MIX_ROWS, 8n) block."""
    mix = _mixing_map(params, r)
    generator = _generator(cfg.seed)
    rows = min(cfg.samples, _MIX_ROWS)
    z, out = np.empty((rows, 8 * params.n)), np.empty((cfg.samples, 4 * params.n))
    for lo in range(0, cfg.samples, rows):
        k = min(rows, cfg.samples - lo)
        generator.standard_normal(out=z[:k])
        np.matmul(z[:k], mix, out=out[lo:lo + k])
    return out


def sample_covariance(params, r, cfg):
    """Sample covariance (4n x 4n) of cfg.samples simulated (mu, zeta) rows:
    M^T C M, symmetrized, for the normals' C of _source_covariance."""
    mix = _mixing_map(params, r)
    return symmetrize(mix.T @ _source_covariance(params.n, cfg) @ mix)


def monte_carlo_mi(params, r, cfg):
    """Estimate the mutual information per channel use from simulated samples.

    With p = q = 2n and m samples, the value is the moment formula on
    sample_covariance(params, r, cfg) less its first-order bias pq / (2m)
    nats. The standard error is sqrt((sum rho_i^2 + pq / (2m)) / m) nats:
    the rho_i^2 are the eigenvalues of S_mu^-1 S_mu,zeta S_zeta^-1 S_zeta,mu
    of pipeline_covariance, and pq / (2m^2), the null chi^2 variance, keeps
    it nonzero at eta = 0. Both are divided by n ln 2. The sum is the
    squared Frobenius norm of L_zeta^-1 S_zeta,mu L_mu^-T, with the
    pivot-tested factors of spd_factor, so a block that fails the test
    raises NotPositiveDefinite. m <= 8n raises InvalidSpec before the draw.
    """
    n, m = params.n, cfg.samples
    exact = pipeline_covariance(params, r)
    lower_mu = spd_factor(exact[:2 * n, :2 * n])
    lower_zeta = spd_factor(exact[2 * n:, 2 * n:])
    whitened = np.linalg.solve(lower_zeta, np.linalg.solve(lower_mu, exact[:2 * n, 2 * n:]).T)
    rho2 = float(np.sum(whitened * whitened))
    bias = (2 * n) ** 2 / (2.0 * m)
    value = _mi_from_covariance(sample_covariance(params, r, cfg), n) - bias / LN2
    std_error = math.sqrt((rho2 + bias) / m) / LN2
    return MiEstimate(value=value / n, std_error=std_error / n)


def _independent_blocks(k):
    """Index lists of the connected components of k's nonzero pattern.

    Indices i and j are coupled when k[i, j] or k[j, i] is nonzero; a NaN
    is nonzero, so it couples its two indices.
    """
    d = k.shape[0]
    reach = (k != 0) | (k.T != 0) | np.eye(d, dtype=bool)
    for _ in range(d):  # boolean squaring: reach ends as the transitive closure
        reach = reach @ reach
    blocks = []
    for row in reach:
        block = np.flatnonzero(row).tolist()
        if block not in blocks:
            blocks.append(block)
    return blocks


def _block_integrals(k, axes, weights):
    """Trapezoid sums (sum w p, sum w p q) of p = exp(-q), q = w k w^T, on the
    whole grid of a block of one or two axes (x0, y).

    q = x0 * lin + q_rest + k00 x0^2, with lin = 2 k01 y and q_rest = k11 y^2,
    both 0 for one axis.
    """
    x0, w0 = axes[0][:, None], weights[0]
    lin, q_rest, w_rest = np.zeros(1), np.zeros(1), np.ones(1)
    if len(axes) == 2:
        y = axes[1]
        lin, q_rest, w_rest = 2.0 * k[0, 1] * y, k[1, 1] * y * y, weights[1]
    q = x0 * lin + q_rest + k[0, 0] * x0 * x0
    p = np.exp(-q)
    return float(w0 @ (p @ w_rest)), float(w0 @ ((q * p) @ w_rest))


def _entropy_on_grid(kernel, norm_const, sigmas, half_width, points):
    """Trapezoid mass and entropy (bits) of c * exp(-w kernel w^T), c = norm_const.

    The kernel's indices split into the connected components of its nonzero
    pattern, and each block b of one or two axes is integrated on its whole
    grid as p_b = exp(-q_b), giving a mass m_b and a sum S_b of w p_b q_b; a
    block of three or more axes raises DimensionMismatch. The density is c
    times the product of the p_b, the grid a tensor product and its weights
    products of per-axis weights, so the trapezoid sums factor exactly:
    mass = c * prod m_b, and with -ln p = sum q_b - ln c,
    entropy = c * (sum_b S_b * prod_{b' != b} m_b' - ln c * prod m_b).
    """
    axes, weights = [], []
    for s_i in sigmas:
        ax = np.linspace(-half_width * s_i, half_width * s_i, points)
        h = ax[1] - ax[0]
        w = np.full(points, h)
        w[0] = w[-1] = h / 2.0
        axes.append(ax)
        weights.append(w)

    k = np.asarray(kernel, dtype=float)
    masses, moments = [], []
    for block in _independent_blocks(k):
        if len(block) > 2:
            raise DimensionMismatch(f"axes {block} form one block; the quadrature "
                                    "integrates blocks of one or two axes")
        m_b, s_b = _block_integrals(k[np.ix_(block, block)], [axes[i] for i in block],
                                    [weights[i] for i in block])
        masses.append(m_b)
        moments.append(s_b)
    prod_mass = math.prod(masses)
    cross = sum(s_b * math.prod(masses[:b] + masses[b + 1:]) for b, s_b in enumerate(moments))
    ent_nats = norm_const * (cross - math.log(norm_const) * prod_mass)
    return norm_const * prod_mass, ent_nats / LN2


def quadrature_entropy_n1(kernel, norm_const, points=257):
    """Entropy (bits) of a 2- or 4-dimensional Gaussian-kernel density by
    tensor-grid trapezoid quadrature.

    The density is norm_const * exp(-w kernel w^T) with the caller-supplied
    normalization. The grid's axes reach _HALF_WIDTH marginal deviations of
    the whole kernel's covariance on either side of 0; each independent
    block of the kernel, of one or two axes, is integrated on its whole
    grid and the blocks are combined exactly (see _entropy_on_grid). A
    block of three or more coupled axes raises DimensionMismatch. The grid
    is checked first (mass within 1e-6 of 1) and the result is gated on
    agreement between the requested and half resolution, both raising
    GridTooCoarse on failure, a NaN included. points must be an integer, or
    InvalidSpec is raised.
    """
    k = np.asarray(kernel, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] not in (2, 4):
        raise DimensionMismatch(f"single-use densities are 2- or 4-dim, got {k.shape}")
    if not isinstance(points, (int, np.integer)) or isinstance(points, bool):
        raise InvalidSpec(f"points must be an integer, got {points!r}")
    if points < 9:
        raise GridTooCoarse(f"points={points!r} cannot resolve the density")
    if not norm_const > 0.0:
        raise GridTooCoarse(f"density mass cannot be 1 with norm_const={norm_const!r}")
    lower = spd_factor(k)
    cov = np.linalg.solve(lower.T, np.linalg.solve(lower, np.eye(k.shape[0]))) / 2.0
    sigmas = np.sqrt(np.diag(cov))

    coarse_pts = (points + 1) // 2
    mass_f, ent_f = _entropy_on_grid(k, norm_const, sigmas, _HALF_WIDTH, points)
    mass_c, ent_c = _entropy_on_grid(k, norm_const, sigmas, _HALF_WIDTH, coarse_pts)
    for mass, label_pts in ((mass_f, points), (mass_c, coarse_pts)):
        if not abs(mass - 1.0) <= 1e-6:
            raise GridTooCoarse(
                f"density mass {mass!r} at {label_pts} points/axis is not 1 within 1e-6")
    if not abs(ent_f - ent_c) <= 2.5e-5:
        raise GridTooCoarse(
            f"entropy moved {abs(ent_f - ent_c):.3e} bits between resolutions "
            f"{coarse_pts} and {points}")
    return ent_f
