"""Channel parameters, the photon budget and the paper's reference matrix chain.

`ChannelParams`, `photon_budget` and `r_limit` decide which points are
admissible; `assemble_model(params, r)` builds the reference chain.

Phase-space conventions: row vectors, densities proportional to
exp(-w M w^T), quadrature ordering (x_1..x_n, p_1..p_n) per 2n-block and
(signal, environment) for 4n-vectors. A kernel M corresponds to covariance
M^{-1}/2, so the vacuum kernel 2I gives per-quadrature variance 1/4.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, PhotonBudgetExceeded
from .matrix_core import spd_factor, symmetrize

# Modulation variances below this are rejected: the information formulas
# contain 1/N and ln N, and N -> 0 is a genuine boundary of the model.
N_MIN = 1e-9
# Largest |s| for which e^{2|s|} is a finite float.
S_MAX = 0.5 * math.log(np.finfo(float).max)
# Largest photon budget for which pi N and 2 eta N are finite floats.
N_EFF_MAX = np.finfo(float).max / 4
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class ChannelParams:
    """Physical scenario: n uses, transmissivity eta, memory s, photon budget n_eff."""

    n: int
    eta: float
    s: float
    n_eff: float

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise InvalidSpec(f"n must be a positive integer, got {self.n!r}")
        if not (0.0 <= self.eta <= 1.0):
            raise InvalidSpec(f"eta must lie in [0, 1], got {self.eta!r}")
        if not abs(self.s) <= S_MAX:
            raise InvalidSpec(f"s must lie in [-{S_MAX:.6g}, {S_MAX:.6g}], got {self.s!r}")
        if not (math.isfinite(self.n_eff) and self.n_eff > 0.0):
            raise InvalidSpec(f"n_eff must be positive, got {self.n_eff!r}")
        if self.n_eff > N_EFF_MAX:
            raise InvalidSpec(f"n_eff must be at most {N_EFF_MAX:.6g}, got {self.n_eff!r}")


def photon_budget(n_eff, r):
    """Modulation variance left after spending sinh^2(r) on entanglement."""
    try:
        n_mod = n_eff - math.sinh(r) ** 2
    except OverflowError:  # |r| past ~355: far outside any finite budget
        n_mod = -math.inf
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


@dataclass(frozen=True, eq=False)
class ModelMatrices:
    """The reference chain's outputs for one (params, r) point.

    r_p, s_p, t_p are the leading 2n x 2n blocks of the full conditional-
    output chain; u_p is the output kernel, v_n the joint (mu, zeta) kernel
    including the 1/N modulation shift; logdet_gl is ln det(G + L); n_mod is
    the modulation variance N the chain was built at. All are plain float64
    arrays built from the 2x2 pair chain, with no dense 4n x 4n G.
    """

    r_p: np.ndarray
    s_p: np.ndarray
    t_p: np.ndarray
    u_p: np.ndarray
    v_n: np.ndarray
    logdet_gl: float
    n_mod: float

    @property
    def n(self):  # channel uses, read from the 2n x 2n blocks
        return self.r_p.shape[0] // 2


def build_input_kernel(n, r):
    """Wigner kernel of the n-mode squeezed input ensemble.

    (2/n) * block_diag(K_r, K_{-r}) with K_r = (e^{-2r} - e^{2r}) J + n e^{2r} I,
    J the all-ones matrix. Spectrum per block: 2e^{-2r} on the collective
    quadrature, 2e^{2r} on the n-1 relative ones.
    """
    if n < 1:
        raise InvalidSpec(f"n must be >= 1, got {n!r}")
    ones = np.ones((n, n))
    eye = np.eye(n)

    def half(rr):
        return (math.exp(-2 * rr) - math.exp(2 * rr)) * ones + n * math.exp(2 * rr) * eye

    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = half(r)
    out[n:, n:] = half(-r)
    return (2.0 / n) * out


def build_memory_kernel(n, s):
    """Wigner kernel of the correlated n-mode environment (same family, r -> s)."""
    return build_input_kernel(n, s)


def build_beam_splitter(n, eta):
    """Orthogonal 4n x 4n mixing matrix of the signal/environment coupling."""
    if not (0.0 <= eta <= 1.0):
        raise InvalidSpec(f"eta must lie in [0, 1], got {eta!r}")
    eye = np.eye(2 * n)
    rt, rr = math.sqrt(eta), math.sqrt(1.0 - eta)
    return np.block([[rt * eye, rr * eye], [-rr * eye, rt * eye]])


def build_heterodyne_kernel(n):
    """Measurement kernel: 2I on the 2n signal quadratures, zero elsewhere."""
    out = np.zeros((4 * n, 4 * n))
    out[:2 * n, :2 * n] = 2.0 * np.eye(2 * n)
    return out


def _pair_chain(a_sig, a_env, eta, n_mod):
    """Run the full matrix chain on one decoupled (signal, environment) pair.

    Returns (logdet(G+L), r', s', t', u') restricted to this pair; every
    factorization here has O(1) condition number regardless of how extreme
    the kernel diagonals are.
    """
    a2 = np.diag([a_sig, a_env])
    rt, rr = math.sqrt(eta), math.sqrt(1.0 - eta)
    b2 = np.array([[rt, rr], [-rr, rt]])
    l2 = np.diag([2.0, 0.0])
    f2 = a2 @ b2
    g2 = symmetrize(b2.T @ f2)
    gl = spd_factor(g2 + l2)
    x = gl.solve(f2.T)
    r2 = a2 - f2 @ x
    s2 = 2.0 * (l2 @ x)
    t2 = l2 - l2 @ gl.solve(l2)
    r_s, s_s, t_s = r2[0, 0], s2[0, 0], t2[0, 0]
    u_s = t_s - 0.25 * s_s * s_s / (r_s + 1.0 / n_mod)
    return gl.logdet(), r_s, s_s, t_s, u_s


def _sector_form(n, c_co, c_rel):
    """Signal-space 2n x 2n matrix from per-pair scalars.

    c_co sits on the collective x quadrature and the n-1 relative p
    quadratures, c_rel on their complements (the two quadrature sectors are
    mirrored).
    """
    proj = np.full((n, n), 1.0 / n)
    eye = np.eye(n)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = c_co * proj + c_rel * (eye - proj)
    out[n:, n:] = c_rel * proj + c_co * (eye - proj)
    return out


def assemble_model(params, r):
    """Assemble the reference chain at r, with N = photon_budget(n_eff, r).

    The kernels share one orthogonal mode rotation under which the whole
    chain splits into independent (signal, environment) quadrature pairs:
    one pair class per use couples (2e^{-2r}, 2e^{-2s}), the other
    (2e^{2r}, 2e^{2s}), each with multiplicity n. The chain formulas run
    verbatim on those 2x2 pairs and the results are rebuilt in the literal
    basis; this keeps the solve-derived matrices accurate in their small
    eigendirections for large |r| and |s|, where factoring the assembled
    4n x 4n forms directly loses several digits.
    """
    n, eta, s = params.n, params.eta, params.s
    n_mod = photon_budget(params.n_eff, r)

    ld_co, r_co, s_co, t_co, u_co = _pair_chain(
        2.0 * math.exp(-2 * r), 2.0 * math.exp(-2 * s), eta, n_mod)
    ld_rel, r_rel, s_rel, t_rel, u_rel = _pair_chain(
        2.0 * math.exp(2 * r), 2.0 * math.exp(2 * s), eta, n_mod)

    r_p = _sector_form(n, r_co, r_rel)
    s_p = _sector_form(n, s_co, s_rel)
    t_p = _sector_form(n, t_co, t_rel)
    u_p = _sector_form(n, u_co, u_rel)
    rpin = r_p + np.eye(2 * n) / n_mod
    v_n = np.block([[rpin, -s_p / 2.0], [-s_p.T / 2.0, t_p]])
    logdet_gl = n * (ld_co + ld_rel)

    return ModelMatrices(
        r_p=r_p, s_p=s_p, t_p=t_p, u_p=u_p, v_n=v_n, logdet_gl=logdet_gl, n_mod=n_mod)
