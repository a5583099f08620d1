"""Channel parameters, the photon budget and the paper's reference matrix chain.

`ChannelParams`, `photon_budget` (or `photon_budgets` over an array of r)
and `r_limit` decide which points are admissible; `assemble_model(params, r)`
runs the reference chain on its per-use (signal, environment) pairs and
keeps the pair scalars, and `single_use_kernels` lays them out as the
n = 1 kernels that the quadrature oracle integrates. `assemble_model` is
the one-point form of `_pair_chain`, which runs the chain on 1-D arrays of
points (eta, s, r, N) in one stacked pass.

Phase-space conventions: row vectors, densities proportional to
exp(-w M w^T), quadrature ordering (x_1..x_n, p_1..p_n) per 2n-block and
(signal, environment) for 4n-vectors. A kernel M corresponds to covariance
M^{-1}/2, so the vacuum kernel 2I gives per-quadrature variance 1/4.
"""
import math
import sys
from dataclasses import dataclass

from ._lazy import np
from .errors import InvalidSpec, PhotonBudgetExceeded
from .matrix_core import spd_factor, symmetrize

# Modulation variances below this are rejected: the information formulas
# contain 1/N and ln N, and N -> 0 is a genuine boundary of the model.
N_MIN = 1e-9
# Largest |s| and kernel |r|: the kernels' largest entry, 2e^{2|x|}, stays
# at most float max / 2, out of reach of exp's round-off and the chain's sums.
S_MAX = 0.5 * math.log(sys.float_info.max / 4)
# Largest photon budget for which pi N and 2 eta N are finite floats.
N_EFF_MAX = sys.float_info.max / 4
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class ChannelParams:
    """Physical scenario: n uses, transmissivity eta, memory s, photon budget n_eff."""

    n: int
    eta: float
    s: float
    n_eff: float

    def __post_init__(self):
        _check_family(self.n, self.s, "s")
        if not (0.0 <= self.eta <= 1.0):
            raise InvalidSpec(f"eta must lie in [0, 1], got {self.eta!r}")
        # below N_MIN no r is admissible, not even r = 0
        if not self.n_eff >= N_MIN:
            raise InvalidSpec(f"n_eff must be at least N_MIN = {N_MIN}, got {self.n_eff!r}")
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


def photon_budgets(n_eff, r_values):
    """photon_budget element-wise over a 1-D array of r, raising nothing.

    n_eff is a float, or an array of r_values' shape holding each point's
    budget. Returns (n_mod, admissible): n_eff - sinh^2(r) per element,
    -inf where sinh^2(r) overflows, and the mask of entries >= N_MIN, which
    a NaN fails. sinh^2(r) takes photon_budget's float path, math.sinh and
    Python's ** 2 (numpy's sinh and square differ from them in the last
    bit), so an admissible entry is bit-equal to photon_budget's value.
    """
    spent = []
    for r in r_values.tolist():
        try:
            spent.append(math.sinh(r) ** 2)
        except OverflowError:
            spent.append(math.inf)
    n_mod = n_eff - np.array(spent, dtype=float)
    return n_mod, n_mod >= N_MIN


def r_limit(n_eff):
    """Largest |r| whose modulation variance stays >= N_MIN with margin.

    The margin grows with n_eff so that it outlasts the round-off of n_eff.
    """
    head = n_eff - max(2.0 * N_MIN, 16.0 * _EPS * n_eff)
    return math.asinh(math.sqrt(head)) if head > 0.0 else 0.0


@dataclass(frozen=True, eq=False)
class ModelMatrices:
    """The reference chain's outputs for one (params, r) point, or for P.

    The chain splits into two (signal, environment) pair classes, co and
    rel, each n-fold (see `assemble_model`). r_pair, s_pair, t_pair and
    u_pair hold the signal entries of R', S', T' and of the output kernel
    U' for (co, rel), as shape-(2,) arrays; logdet_gl is ln det(G + L) over
    all n uses; n_mod is the modulation variance N the chain was built at.
    `assemble_model` gives floats and (2,) pairs; `_pair_chain` stacks P
    points: n_mod and logdet_gl of shape (P,), pairs of shape (P, 2).
    """

    n: int
    n_mod: float
    logdet_gl: float
    r_pair: "np.ndarray"
    s_pair: "np.ndarray"
    t_pair: "np.ndarray"
    u_pair: "np.ndarray"

    def joint_pairs(self):
        """The joint (mu, zeta) kernel of each class, including the 1/N
        modulation shift: [[R' + 1/N, -S'/2], [-S'/2, T']], a (2, 2, 2)
        stack, or (P, 2, 2, 2) for P points."""
        cross = -self.s_pair / 2.0
        shifted = self.r_pair + 1.0 / np.expand_dims(self.n_mod, -1)
        return np.stack([np.stack([shifted, cross], -1), np.stack([cross, self.t_pair], -1)], -2)


def _check_family(n, x=0.0, name="x"):
    """Raise InvalidSpec unless n is a positive int (not a bool) and every
    element of x is finite with |x| <= S_MAX, the one bound on s and on
    kernel r, where every kernel entry, at most 2e^{2|x|}, is finite. A
    float x is tested on floats, which leaves numpy unloaded."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidSpec(f"n must be a positive integer, got {n!r}")
    within = abs(x) <= S_MAX if isinstance(x, (int, float)) else (np.abs(x) <= S_MAX).all()
    if not within:
        raise InvalidSpec(f"{name} must lie in [-{S_MAX:.6g}, {S_MAX:.6g}], got {x!r}")


def build_input_kernel(n, r):
    """Wigner kernel of the n-mode squeezed input ensemble.

    block_diag(K_r, K_{-r}), built from its spectrum:
    K_r = 2e^{-2r} J/n + 2e^{2r} (I - J/n), J the all-ones matrix, so that
    2e^{-2r} sits on the collective quadrature and 2e^{2r} on the n-1
    relative ones. No entry exceeds 2e^{2|r|}, and at n = 1 the block is
    2e^{-2r} exactly.

    r is a float or an array; the result has shape np.shape(r) + (2n, 2n).
    InvalidSpec is raised unless n is a positive int and every r is finite
    with |r| <= S_MAX (`_check_family`).
    """
    _check_family(n, r, "r")
    r_arr = np.asarray(r, dtype=float)[..., None, None]
    shrink, grow = 2.0 * np.exp(-2.0 * r_arr), 2.0 * np.exp(2.0 * r_arr)
    collective = np.full((n, n), 1.0 / n)
    relative = np.eye(n) - collective
    out = np.zeros(np.shape(r) + (2 * n, 2 * n))
    out[..., :n, :n] = shrink * collective + grow * relative
    out[..., n:, n:] = grow * collective + shrink * relative
    return out


def build_memory_kernel(n, s):
    """Wigner kernel of the correlated n-mode environment (same family, r -> s)."""
    return build_input_kernel(n, s)


def build_beam_splitter(n, eta):
    """Orthogonal 4n x 4n mixing matrix of the signal/environment coupling.

    eta is a float or an array; the result has shape np.shape(eta) + (4n, 4n).
    """
    _check_family(n)
    eta_arr = np.asarray(eta, dtype=float)
    if not np.all((0.0 <= eta_arr) & (eta_arr <= 1.0)):
        raise InvalidSpec(f"eta must lie in [0, 1], got {eta!r}")
    eye = np.eye(2 * n)
    rt, rr = np.sqrt(eta_arr)[..., None, None], np.sqrt(1.0 - eta_arr)[..., None, None]
    return np.block([[rt * eye, rr * eye], [-rr * eye, rt * eye]])


def assemble_model(params, r):
    """Assemble the reference chain at r, with N = photon_budget(n_eff, r).

    The kernels share one orthogonal mode rotation under which the whole
    chain splits into independent (signal, environment) quadrature pairs:
    one pair class per use, co, couples (2e^{-2r}, 2e^{-2s}) and sits on the
    collective x and the n - 1 relative p quadratures; the other, rel,
    couples (2e^{2r}, 2e^{2s}) on their complements. Each has multiplicity
    n. Every 2n x 2n or 4n x 4n form of the chain is block-diagonal in that
    basis, with n copies of each class, so its log-determinant is n times
    the pair sum. This is `_pair_chain` at one point: the pairs and
    logdet_gl are bit-equal to that point's row of a stacked call. An r
    past S_MAX (`_check_family`; ChannelParams has checked s) raises
    InvalidSpec.
    """
    n_mod = photon_budget(params.n_eff, r)
    _check_family(params.n, r, "r")
    point = _pair_chain(params.n, *np.array([[params.eta], [params.s], [r], [n_mod]]))
    return ModelMatrices(
        n=params.n, n_mod=n_mod, logdet_gl=float(point.logdet_gl[0]),
        r_pair=point.r_pair[0], s_pair=point.s_pair[0], t_pair=point.t_pair[0],
        u_pair=point.u_pair[0])


def _pair_chain(n, eta, s, r, n_mod):
    """The reference chain at P points, given as 1-D arrays of eta, s, r and
    the modulation variance N, for blocks of n uses.

    The chain formulas run verbatim, in one pass, on the (P, 2, 2, 2) stack
    of each point's co and rel pairs, with one spd_factor call for all of
    them; LAPACK factors and solves each 2 x 2 matrix of the stack on its
    own, so a point's row does not depend on the others. Factoring pairs
    keeps the digits that factoring the assembled 4n x 4n forms loses, but
    not at strong memory. The pair whose memory kernel entry is 2e^{-2|s|}
    (co for s > 0, rel for s < 0) has a second pivot of that order, and
    spd_factor's pivot test refuses it once it falls to a few eps of the
    pair's largest diagonal entry: at N_eff = 2 and r = 0.3 the chain raises
    NotPositiveDefinite from |s| = 17.5 (eta = 1) to 19.5 (eta = 0.8),
    where the closed form in information still answers.
    Returns a ModelMatrices of stacks: n_mod and logdet_gl of shape (P,),
    each pair field of shape (P, 2).
    """
    # the (co, rel) kernel pairs: (2e^{-2r}, 2e^{-2s}) and (2e^{2r}, 2e^{2s})
    a = np.zeros(r.shape + (2, 2, 2))
    a[..., 0, 0] = 2.0 * np.exp(np.multiply.outer(r, [-2.0, 2.0]))
    a[..., 1, 1] = 2.0 * np.exp(np.multiply.outer(s, [-2.0, 2.0]))
    # each point's 2 x 2 rotation, shared by its two classes
    b = np.empty(r.shape + (1, 2, 2))
    b[:, 0, 0, 0] = b[:, 0, 1, 1] = np.sqrt(eta)
    b[:, 0, 0, 1] = np.sqrt(1.0 - eta)
    b[:, 0, 1, 0] = -b[:, 0, 0, 1]
    # l as a full stack: numpy < 2 solves a (2, 2, 2) stack against a
    # (2, 2) right-hand side as against two vectors
    l = np.zeros(a.shape)
    l[..., 0, 0] = 2.0
    f = a @ b
    g = symmetrize(np.swapaxes(b, -1, -2) @ f)
    lower = spd_factor(g + l)
    upper = np.swapaxes(lower, -1, -2)
    x = np.linalg.solve(upper, np.linalg.solve(lower, np.swapaxes(f, -1, -2)))
    r_pair = (a - f @ x)[..., 0, 0]
    s_pair = (2.0 * (l @ x))[..., 0, 0]
    t_pair = (l - l @ np.linalg.solve(upper, np.linalg.solve(lower, l)))[..., 0, 0]
    u_pair = t_pair - 0.25 * s_pair * s_pair / (r_pair + 1.0 / n_mod[:, None])
    ld_gl = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)
    return ModelMatrices(
        n=n, n_mod=n_mod, logdet_gl=n * ld_gl.sum(axis=-1),
        r_pair=r_pair, s_pair=s_pair, t_pair=t_pair, u_pair=u_pair)


def single_use_kernels(model):
    """The n = 1 output (2x2) and joint (4x4) kernels of a model, for quadrature.

    At n = 1 the co class is the x quadrature and rel the p quadrature, so
    the output kernel is diag(U') and the joint kernel, over
    (mu_x, mu_p, zeta_x, zeta_p), holds each class's joint pair on its x or
    p coordinates. Raises InvalidSpec for n != 1.
    """
    if model.n != 1:
        raise InvalidSpec(f"single-use kernels need n = 1, got n = {model.n!r}")
    joint = np.zeros((4, 4))
    for cls, pair in enumerate(model.joint_pairs()):
        joint[cls::2, cls::2] = pair
    return np.diag(model.u_pair), joint
