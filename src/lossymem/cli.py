"""Command-line front end: rate-gain sweeps, r optimization, verification.

Subcommands: `sweep` writes a CSV over an (s, r) grid, evaluated in one
stacked call (`information._gain_grid`, of which `rate_gains` is the one-s
view), `optimize` reports the best entanglement parameter per memory value,
`verify` runs the invariant and oracle suites. Exit codes: 0 ok,
1 verification failure, 2 invalid spec, 3 numerical failure.
"""
import argparse
import math
import re
import sys
from dataclasses import dataclass, replace

from ._lazy import np
from .channel_model import (
    ChannelParams,
    assemble_model,
    build_input_kernel,
    photon_budgets,
    r_limit,
    single_use_kernels,
)
from .errors import (
    DegenerateBaseline,
    GridTooCoarse,
    InvalidSpec,
    LossyChannelError,
    NotPositiveDefinite,
    PhotonBudgetExceeded,
)
from .information import (
    LN2,
    _closed_form,
    _gain_grid,
    _ln_joint_norm,
    _ln_output_norm,
    input_entropy,
    joint_entropy,
    mutual_information,
    optimize_r,
    output_entropy,
)
from .matrix_core import spd_logdet
from .oracle import (
    McConfig,
    _covariances,
    _mi_from_covariance,
    _mixing_map,
    gaussian_mi_from_moments,
    monte_carlo_mi,
    pipeline_covariance,
    quadrature_entropy_n1,
    sample_covariance,
)

_CSV_HEADER = "s,r,N,I_mu,I_zeta,I_joint,I_r,rate,gain"
# the r, N and I_mu fields of a row, and its I_zeta, I_joint, I_r, rate and
# gain, each as _fmt writes it
_CSV_HEAD = "%.12g,%.12g,%.12g,"
_CSV_TAIL = ",".join(["%.12g"] * 5)
# the most rows (r_steps x len(s_list)) a sweep admits: a sweep's peak memory
# is about 0.16 kB per row over four s and 0.46 kB over one s, where each r
# still has its own line template, so the bound keeps it under about 0.5 GB
SWEEP_MAX_ROWS = 10 ** 6
# rows per formatted and written slice of an s block; the default grid's 221
# rows are one slice
_SWEEP_SLICE_ROWS = 4096
# the largest n that verify admits: spot-point-oracle builds (4n)^2-float
# covariances, and verify quick at n = 1024 takes about 3 s and 0.6 GB
VERIFY_MAX_N = 1024
# the largest n x N_eff that verify admits: from about 7e14 (7.1e14 at n = 1,
# 8.0e14 at n = 32) the moment oracle's joint covariance fails spd_factor's
# pivot test, whose tolerance grows as 2 n eps N_eff
VERIFY_MAX_N_NEFF = 1e14
_STANDARD_ETAS = tuple(k / 10 for k in range(1, 10))
_STANDARD_S = (0.0, 1.0, 2.0, 5.0)
_STANDARD_NEFF = (2.0, 20.0)
# sampled-check bounds: the |z| quantile of a 1e-4 false-fail rate, and
# the chi^2_36 quantiles 1e-4 and 1 - 1e-4, a 2e-4 rate in all.
# monte-carlo-memory-point and sampler-moments read one draw, so their
# failures are not independent
_MC_Z_BOUND = 3.8906
_SAMPLER_LR_BOUNDS = (12.562, 76.365)
# sampler-map's and input-energy's round-off allowance: intact maps read at
# most 2.5 eps and 8.8 eps at 402 random points up to N_eff = 1e3 and |s| = 6
_MAP_BOUND = 64 * sys.float_info.epsilon


def _fmt(value):
    return "%.12g" % (float(value) + 0.0)


@dataclass(frozen=True)
class SweepSpec:
    """Grid description for a sweep: channel shape plus the (s, r) lattice."""

    n: int
    eta: float
    n_eff: float
    s_list: tuple
    r_min: float
    r_max: float
    r_steps: int
    output_path: str

    def __post_init__(self):
        object.__setattr__(self, "s_list", tuple(float(s) for s in self.s_list))
        if not self.s_list:
            raise InvalidSpec("s_list must hold at least one memory value")
        for s in self.s_list:
            ChannelParams(n=self.n, eta=self.eta, s=s, n_eff=self.n_eff)
        if not isinstance(self.r_steps, int) or isinstance(self.r_steps, bool) or self.r_steps < 2:
            raise InvalidSpec(f"r_steps must be an integer >= 2, got {self.r_steps!r}")
        if self.r_steps * len(self.s_list) > SWEEP_MAX_ROWS:
            raise InvalidSpec(
                f"r_steps x len(s_list) = {self.r_steps} x {len(self.s_list)} is above "
                f"SWEEP_MAX_ROWS = {SWEEP_MAX_ROWS}")
        for name in ("r_min", "r_max"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidSpec(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.r_min > self.r_max:
            raise InvalidSpec(f"empty r interval [{self.r_min!r}, {self.r_max!r}]")
        lim = r_limit(self.n_eff)
        if self.r_min > lim or self.r_max < -lim:
            raise InvalidSpec(
                f"[{self.r_min!r}, {self.r_max!r}] misses the admissible interval "
                f"[-{lim:.6g}, {lim:.6g}]")
        if not isinstance(self.output_path, str) or not self.output_path:
            raise InvalidSpec("output_path must be a non-empty string")


def _r_grid(spec):
    grid, step = np.linspace(spec.r_min, spec.r_max, spec.r_steps, retstep=True)
    # snap the midpoint of symmetric grids to an exact 0 so baseline rows
    # have the baseline's inputs and gain 0; within half a step only, so the
    # points of a grid finer than the snap stay distinct
    snap = min(1e-12, step / 2)
    return [0.0 if abs(r) < snap else float(r) for r in grid]


def sweep(spec, stream=None):
    """Evaluate the grid in one stacked call, write the CSV, and print a
    per-s summary.

    Rows come out in (s ascending, r ascending) order. Grid points outside
    the photon budget are skipped; the budget depends on r alone, so they
    are counted once and every s line reads the same rows= and skipped=.
    The gain is exactly 0 on the r = 0 baseline rows. For the numbers
    themselves, call `information.rate_gains`.
    """
    stream = sys.stdout if stream is None else stream
    grid = _r_grid(spec)
    s_sorted = sorted(spec.s_list)
    r_ok, n_mod, gain, info, base = _gain_grid(spec.n, spec.eta, spec.n_eff, s_sorted, grid)
    # + 0.0 turns a -0.0 into 0.0, which prints as 0, as in _fmt. The r, N
    # and I_mu fields depend on r alone, so each line's are formatted once,
    # into a template for its other five; a slice of an s block is then one %
    # of its lines' templates over that s row's tail values for those lines.
    heads = np.stack((r_ok, n_mod, info.i_mu[0]), axis=-1) + 0.0
    templates = [_CSV_HEAD % tuple(values) + _CSV_TAIL + "\n" for values in heads.tolist()]
    tails = np.stack((info.i_zeta, info.i_joint, info.i_r, info.rate, gain), axis=-1) + 0.0
    emitted, skipped = len(r_ok), len(grid) - len(r_ok)
    summary = [f"sweep: n={spec.n} eta={_fmt(spec.eta)} N_eff={_fmt(spec.n_eff)} "
               f"r in [{_fmt(spec.r_min)}, {_fmt(spec.r_max)}] x {spec.r_steps}"]
    for s, gains, base_rate in zip(s_sorted, gain, base.rate.tolist()):
        line = f"  s={_fmt(s)}: rows={emitted} skipped={skipped} baseline_rate={_fmt(base_rate)}"
        if emitted:
            best = int(np.argmax(gains))
            line += f" max_gain={_fmt(gains[best])} at r={_fmt(r_ok[best])}"
        summary.append(line)
    summary += [f"total rows={emitted * len(s_sorted)} skipped={skipped * len(s_sorted)} "
                f"grid={len(grid) * len(s_sorted)}", f"wrote {spec.output_path}"]

    try:
        with open(spec.output_path, "w", encoding="ascii", newline="") as handle:
            handle.write(_CSV_HEADER + "\n")
            # one slice of an s block at a time, so neither the CSV nor an s
            # block is held whole; with every point skipped the CSV is the
            # header alone
            for s, rows in zip(s_sorted, tails):
                s_text = "%.12g," % (s + 0.0)
                for start in range(0, emitted, _SWEEP_SLICE_ROWS):
                    stop = start + _SWEEP_SLICE_ROWS
                    handle.write((s_text + s_text.join(templates[start:stop]))
                                 % tuple(rows[start:stop].ravel().tolist()))
    except OSError as exc:
        raise InvalidSpec(f"cannot write {spec.output_path!r}: {exc}") from exc
    print("\n".join(summary), file=stream)


def optimize(n, eta, n_eff, s_list, stream=None):
    """Report the best r per memory value as (s, r_star, gain_star, rate_star)."""
    stream = sys.stdout if stream is None else stream
    if not s_list:
        raise InvalidSpec("s_list must hold at least one memory value")
    report = []
    for s in sorted(float(v) for v in s_list):
        params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)
        point = optimize_r(params)
        report.append((s, point.r, point.gain, point.info.rate))
    print("s,r_star,gain_star,rate_star", file=stream)
    for entry in report:
        print(",".join(_fmt(v) for v in entry), file=stream)
    return report


def _random_point(rng):
    """One valid (eta, s, n_eff, r) draw for rate-n-additivity."""
    eta = float(rng.uniform(0.05, 0.95))
    s = float(rng.uniform(0.0, 5.0))
    n_eff = float(rng.uniform(0.5, 30.0))
    r = float(rng.uniform(-0.9, 0.9)) * min(r_limit(n_eff), 1.5)
    return eta, s, n_eff, r


def _check_memoryless_anchor():
    rate = mutual_information(ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0), 0.0).rate
    dev = abs(rate - math.log2(1.0 + 0.8 * 2.0))
    return dev <= 1e-7, f"dev={dev:.3e}"


def _check_kernel_determinant():
    # det A(r) = 2^{2n}, and A(r) A(-r) / 4 = I, the identity by which the
    # oracles invert the kernels; a shifted r keeps the first, not the second
    r = np.array([-3.0, -1.5, 0.0, 1.5, 3.0])
    worst = 0.0
    for n in range(1, 9):
        kernels = build_input_kernel(n, r)
        ld_dev = np.abs(spd_logdet(kernels) - 2 * n * LN2)
        identity = np.abs(kernels @ build_input_kernel(n, -r) / 4.0 - np.eye(2 * n))
        worst = max(worst, float(ld_dev.max()), float(identity.max()))
    return worst <= 1e-10, f"max_dev={worst:.3e}"


def _check_kernel_row_sums():
    r = np.array([-2.0, -0.5, 0.0, 1.0, 2.0])
    worst = 0.0
    for n in (1, 2, 4, 6):
        sums = build_input_kernel(n, r).sum(axis=-1)
        target = np.repeat(2.0 * np.exp(np.multiply.outer(r, [-2.0, 2.0])), n, axis=-1)
        worst = max(worst, float(np.abs(sums - target).max()))
    return worst <= 1e-12, f"max_dev={worst:.3e}"


def _check_rate_additivity(points):
    # on the moment oracle, built from the literal n-use kernels: the
    # closed-form core and the pair chain are n-independent by construction.
    # The first point also runs at n = 32 (128 x 128 covariances).
    eta, s, n_eff, r = (np.array(axis) for axis in zip(*points))
    n_mod, _ = photon_budgets(n_eff, r)

    def rates(n, k):
        # the moment-oracle rate per use at n uses for the first k points
        cov = _covariances(n, eta[:k], s[:k], r[:k], n_mod[:k])
        return _mi_from_covariance(cov, n) / n

    by_n = np.array([rates(n, r.size) for n in (2, 3, 4)])
    spread = by_n.max(axis=0) - by_n.min(axis=0)
    first = np.append(by_n[:, 0], rates(32, 1))
    spread[0] = first.max() - first.min()
    worst = float(spread.max())
    return worst <= 1e-7, f"max_dev={worst:.3e}"


def _moment_grid_points():
    """(eta, s, n_eff, r) of moment-oracle-grid, one 1-D array each: the 72
    standard (eta, s, N_eff) triples, each at r = -1, -0.9, ..., 1."""
    axes = (_STANDARD_ETAS, _STANDARD_S, _STANDARD_NEFF, [k / 10 for k in range(-10, 11)])
    return [coords.ravel() for coords in np.meshgrid(*axes, indexing="ij")]


def _check_moment_oracle_grid():
    # one stacked call per layer for all 1512 points: the closed form, the
    # covariances and the MI, from two stacked factorizations (the joint
    # covariance's, whose trailing pivots give ln det of its Schur
    # complement, and the zeta block's), which LAPACK runs one matrix at a time
    eta, s, n_eff, r = _moment_grid_points()
    n_mod, admissible = photon_budgets(n_eff, r)
    points = (eta[admissible], s[admissible], r[admissible], n_mod[admissible])
    closed = 2 * _closed_form(*points)[1]
    dev = np.abs(closed - _mi_from_covariance(_covariances(2, *points), 2))
    worst = float(dev.max())
    return worst <= 1e-7, f"max_dev={worst:.3e} points={dev.size}"


def _check_spot_point(params):
    # the moment oracle's log-determinants lose about n eps N_eff bits
    r = min(0.4, 0.9 * r_limit(params.n_eff))
    dev = abs(mutual_information(params, r).i_r - gaussian_mi_from_moments(params, r))
    bound = 1e-7 + 16 * params.n * sys.float_info.epsilon * params.n_eff
    return dev <= bound, f"dev={dev:.3e} at r={_fmt(r)}"


def _memory_point():
    """(params, r) of the memory point, whose map sampler-map and
    input-energy check and whose moments monte-carlo-memory-point and
    sampler-moments read."""
    return ChannelParams(n=2, eta=0.8, s=2.0, n_eff=2.0), 0.4


def _shared_draw(samples, seed):
    """The cfg of the one draw that monte-carlo-memory-point and
    sampler-moments read through the memory point's map: the seed fixes the
    normals' covariance C bit for bit."""
    return McConfig(samples=samples, seed=seed + 1)


def _check_mc_memory_point(samples, seed):
    params, r = _memory_point()
    est = monte_carlo_mi(params, r, _shared_draw(samples, seed))
    dev = abs(est.value - mutual_information(params, r).rate)
    return dev <= _MC_Z_BOUND * est.std_error, f"dev={dev:.3e} std_error={est.std_error:.3e}"


def _check_mc_repeatability(samples, seed):
    params = ChannelParams(n=2, eta=0.7, s=1.0, n_eff=2.0)
    cfg = McConfig(samples=max(2000, samples // 10), seed=seed + 2)
    first = monte_carlo_mi(params, 0.2, cfg)
    second = monte_carlo_mi(params, 0.2, cfg)
    same = first.value == second.value and first.std_error == second.std_error
    return same, f"value={_fmt(first.value)} repeated={'yes' if same else 'no'}"


def _check_sampler_moments(samples, seed):
    # the Wishart likelihood-ratio statistic (m - 1)(tr(T^-1 S) - ln det(T^-1 S) - d)
    params, r = _memory_point()
    sample = sample_covariance(params, r, _shared_draw(samples, seed))
    target = pipeline_covariance(params, r)
    stat = (samples - 1) * float(np.trace(np.linalg.solve(target, sample))
                                 - spd_logdet(sample) + spd_logdet(target) - len(target))
    low, high = _SAMPLER_LR_BOUNDS
    return low <= stat <= high, f"lr_stat={stat:.3f} bounds=[{low}, {high}]"


def _check_sampler_map():
    # M^T M against the moment oracle's covariance, at the memory point's
    # map, which the sampled checks draw through, and at the memoryless
    # anchor's (s = r = 0), where the kernels are multiples of I
    worst = 0.0
    for params, r in ((ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0), 0.0), _memory_point()):
        mix, target = _mixing_map(params, r), pipeline_covariance(params, r)
        worst = max(worst, float(np.abs(mix.T @ mix - target).max() / np.abs(target).max()))
    return worst <= _MAP_BOUND, f"max_rel_dev={worst:.3e}"


def _check_input_energy():
    # at eta = 1 the zeta block of M^T M less I/4 is the input covariance, and
    # tr / n - 1/2 = N + sinh^2 r = N_eff; at r != 0, where both terms enter:
    # a fault of the budget that spares r = 0 fails no other check
    params, r = _memory_point()
    params = replace(params, eta=1.0)
    zeta = _mixing_map(params, r)[:, 2 * params.n:]
    sigma_in = zeta.T @ zeta - np.eye(2 * params.n) / 4.0
    dev = abs(float(np.trace(sigma_in)) / params.n - 0.5 - params.n_eff) / params.n_eff
    return dev <= _MAP_BOUND, f"rel_dev={dev:.3e}"


def _check_quadrature_input():
    value = quadrature_entropy_n1(np.eye(2) / 2.0, 1.0 / (2.0 * math.pi))
    dev = abs(value - float(input_entropy(1, 2.0)))
    return dev <= 1e-4, f"dev={dev:.3e}"


def _quadrature_output_dev(eta, s, r, n_eff):
    model = assemble_model(ChannelParams(n=1, eta=eta, s=s, n_eff=n_eff), r)
    norm = math.exp(_ln_output_norm(model)[0])
    value = quadrature_entropy_n1(single_use_kernels(model)[0], norm)
    closed, _ = output_entropy(model)
    return abs(value - closed)


def _check_quadrature_output():
    dev = max(_quadrature_output_dev(0.8, 0.0, 0.0, 2.0),
              _quadrature_output_dev(0.7, 1.5, 0.4, 2.0))
    return dev <= 1e-4, f"max_dev={dev:.3e}"


def _check_quadrature_joint():
    model = assemble_model(ChannelParams(n=1, eta=0.8, s=1.0, n_eff=2.0), 0.3)
    norm = math.exp(_ln_joint_norm(model))
    value = quadrature_entropy_n1(single_use_kernels(model)[1], norm, points=65)
    closed, _ = joint_entropy(model)
    dev = abs(value - closed)
    return dev <= 1e-4, f"dev={dev:.3e}"


def _checks(level, seed, samples, n, eta, n_eff):
    """verify's registry: (name, check) pairs in print order, each check
    a call without arguments returning (ok, detail).

    `quick` runs 8 checks of the kernels, the closed form, the moment
    oracle and the sampler's mixing map; `full` adds the 3 sampled and the
    3 quadrature checks. monte-carlo-memory-point and sampler-moments read
    one draw of `samples` rows (_shared_draw): its (16, 16) normals'
    covariance, drawn from its Wishart law and fixed by the seed, taken
    through the memory point's mixing map.
    monte-carlo-repeatability makes its own two draws, which it compares.
    A check is here only if some catalogued fault of the model or its
    oracles fails it and no other check, or if it has a role of its own
    (tests/test_mutants.py pins the faults and the roles).
    An invariant that holds by construction is a tier-1 test instead.
    spot-point-oracle, at the requested (n, eta, N_eff), allows the moment
    oracle's round-off: 1e-7 + 16 n eps N_eff bits. sampler-map and
    input-energy read the maps of fixed points, never the requested n,
    whose map is (8n, 4n).
    """
    spot = ChannelParams(n=n, eta=eta, s=1.0, n_eff=n_eff)
    if n > VERIFY_MAX_N:
        raise InvalidSpec(f"n must be at most VERIFY_MAX_N = {VERIFY_MAX_N} in verify, got {n!r}")
    if n * n_eff > VERIFY_MAX_N_NEFF:
        raise InvalidSpec(f"n x N_eff must be at most VERIFY_MAX_N_NEFF = {VERIFY_MAX_N_NEFF:g} "
                          f"in verify, got {n * n_eff:g}")
    rng = np.random.default_rng(seed)
    additivity_points = [_random_point(rng) for _ in range(5)]
    checks = [
        ("memoryless-anchor", _check_memoryless_anchor),
        ("input-kernel-determinant", _check_kernel_determinant),
        ("kernel-row-sums", _check_kernel_row_sums),
        ("rate-n-additivity", lambda: _check_rate_additivity(additivity_points)),
        ("moment-oracle-grid", _check_moment_oracle_grid),
        ("spot-point-oracle", lambda: _check_spot_point(spot)),
        ("sampler-map", _check_sampler_map),
        ("input-energy", _check_input_energy),
    ]
    if level == "full":
        checks += [
            ("monte-carlo-memory-point",
             lambda: _check_mc_memory_point(samples, seed)),
            ("monte-carlo-repeatability", lambda: _check_mc_repeatability(samples, seed)),
            ("sampler-moments", lambda: _check_sampler_moments(samples, seed)),
            ("quadrature-input-entropy", _check_quadrature_input),
            ("quadrature-output-entropy", _check_quadrature_output),
            ("quadrature-joint-entropy", _check_quadrature_joint),
        ]
    return checks


def verify(level, seed=12345, samples=100000, n=2, eta=0.8, n_eff=2.0, stream=None):
    """Run the named check suite; returns True when every check passes.

    The checks run in registry order on the calling thread, and each line
    prints as its check returns. A LossyChannelError raised by a check is
    that check's FAIL line; any other exception propagates after the lines
    of the checks before it. A request that no check can run (parameters
    that ChannelParams refuses, n above VERIFY_MAX_N or n x N_eff above
    VERIFY_MAX_N_NEFF) raises InvalidSpec before the first line.
    """
    stream = sys.stdout if stream is None else stream
    if level not in ("quick", "full"):
        raise InvalidSpec(f"level must be 'quick' or 'full', got {level!r}")
    # the Monte Carlo checks seed with seed + 1 .. seed + 2; McConfig checks samples
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= 2 ** 64 - 3:
        raise InvalidSpec(f"seed must be an integer in [0, 2**64 - 3], got {seed!r}")
    McConfig(samples=samples, seed=seed)
    checks = _checks(level, seed, samples, n, eta, n_eff)

    failures = 0
    for name, check in checks:
        try:
            ok, detail = check()
        except LossyChannelError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name} {detail}", file=stream)
    print(f"verify {level}: {len(checks)} checks, {len(checks) - failures} passed, "
          f"{failures} failed", file=stream)
    return failures == 0


def _s_values(text):
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of reals, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one memory value")
    return values


def _add_model_flags(parser):
    parser.add_argument("--n", type=int, default=2, help="channel uses per block")
    parser.add_argument("--eta", type=float, default=0.8, help="beam-splitter transmissivity")
    parser.add_argument("--neff", type=float, default=2.0, help="photon budget per use")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lossymem",
        description="Rate gain of entangled inputs on a lossy channel with correlated noise.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate an (s, r) grid and write CSV")
    _add_model_flags(p_sweep)
    p_sweep.add_argument("--s", type=_s_values, default=(0.0, 1.0, 2.0, 5.0),
                         help="comma list of memory values")
    p_sweep.add_argument("--r-min", type=float, default=-1.1)
    p_sweep.add_argument("--r-max", type=float, default=1.1)
    p_sweep.add_argument("--r-steps", type=int, default=221)
    p_sweep.add_argument("--out", default="sweep.csv", help="CSV output path")

    p_opt = sub.add_parser("optimize", help="best entanglement per memory value")
    _add_model_flags(p_opt)
    p_opt.add_argument("--s", type=_s_values, default=(0.0, 1.0, 2.0, 5.0),
                       help="comma list of memory values")

    p_ver = sub.add_parser("verify", help="run the invariant and oracle suites")
    p_ver.add_argument("level", nargs="?", choices=("quick", "full"), default="quick")
    _add_model_flags(p_ver)
    p_ver.add_argument("--seed", type=int, default=12345)
    p_ver.add_argument("--samples", type=int, default=100000)
    # argparse on Python 3.10 and 3.11 reads only plain decimals such as -1 or
    # -.5 as negative numbers, and "--s -1,2" or "--r-min -1e-1" as an option
    # missing its argument. No option here starts with "-" and a digit.
    for subparser in (p_sweep, p_opt, p_ver):
        subparser._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            spec = SweepSpec(
                n=args.n, eta=args.eta, n_eff=args.neff, s_list=args.s,
                r_min=args.r_min, r_max=args.r_max, r_steps=args.r_steps,
                output_path=args.out)
            sweep(spec)
            return 0
        if args.command == "optimize":
            optimize(args.n, args.eta, args.neff, args.s)
            return 0
        ok = verify(args.level, seed=args.seed, samples=args.samples,
                    n=args.n, eta=args.eta, n_eff=args.neff)
        return 0 if ok else 1
    except (InvalidSpec, PhotonBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NotPositiveDefinite, DegenerateBaseline, GridTooCoarse) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
