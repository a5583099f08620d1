"""Command-line front end: rate-gain sweeps, r optimization, verification.

Subcommands: `sweep` writes a CSV over an (s, r) grid, `optimize` reports the
best entanglement parameter per memory value, `verify` runs the invariant and
oracle suites. Exit codes: 0 ok, 1 verification failure, 2 invalid spec,
3 numerical failure.
"""
import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel_model import (
    ChannelParams,
    assemble_model,
    build_beam_splitter,
    build_input_kernel,
    build_memory_kernel,
    r_limit,
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
    _ln_joint_norm,
    _ln_output_norm,
    input_entropy,
    joint_entropy,
    mutual_information,
    optimize_r,
    output_entropy,
    rate_gain,
    rate_gains,
)
from .matrix_core import block_diag, spd_factor, spd_logdet, symmetrize
from .oracle import (
    McConfig,
    gaussian_mi_from_moments,
    monte_carlo_mi,
    pipeline_covariance,
    quadrature_entropy_n1,
    sample_joint,
)

_CSV_HEADER = "s,r,N,I_mu,I_zeta,I_joint,I_r,rate,gain"
_STANDARD_ETAS = tuple(k / 10 for k in range(1, 10))
_STANDARD_S = (0.0, 1.0, 2.0, 5.0)
_STANDARD_NEFF = (2.0, 20.0)


def _fmt(value):
    v = float(value)
    if v == 0:
        v = 0.0
    return format(v, ".12g")


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


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid point; gain is exactly 0 on the r=0 baseline rows."""

    s: float
    r: float
    n_mod: float
    i_mu: float
    i_zeta: float
    i_joint: float
    i_r: float
    rate: float
    gain: float


def _r_grid(spec):
    grid = np.linspace(spec.r_min, spec.r_max, spec.r_steps)
    # snap the midpoint of symmetric grids to an exact 0 so baseline rows
    # take the gain==0 fast path
    return [0.0 if abs(r) < 1e-12 else float(r) for r in grid]


def sweep(spec, stream=None):
    """Evaluate the grid, write the CSV, and print a per-s summary.

    Rows come out in (s ascending, r ascending) order; grid points outside
    the photon budget are skipped and counted. Returns the emitted rows.
    """
    stream = sys.stdout if stream is None else stream
    grid = _r_grid(spec)
    rows = []
    summary = []
    for s in sorted(spec.s_list):
        params = ChannelParams(n=spec.n, eta=spec.eta, s=s, n_eff=spec.n_eff)
        r_ok, n_mod, gain, info = rate_gains(params, grid)
        columns = (r_ok, n_mod, info.i_mu, info.i_zeta, info.i_joint, info.i_r,
                   info.rate, gain)
        for values in zip(*(column.tolist() for column in columns)):
            rows.append(SweepRow(s, *values))
        best_gain = best_r = None
        if len(gain):
            best = int(np.argmax(gain))
            best_gain, best_r = float(gain[best]), float(r_ok[best])
        summary.append((s, len(r_ok), len(grid) - len(r_ok),
                        mutual_information(params, 0.0).rate, best_gain, best_r))

    lines = [_CSV_HEADER]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in (
            row.s, row.r, row.n_mod, row.i_mu, row.i_zeta, row.i_joint,
            row.i_r, row.rate, row.gain)))
    try:
        with open(spec.output_path, "w", encoding="ascii", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InvalidSpec(f"cannot write {spec.output_path!r}: {exc}") from exc

    print(f"sweep: n={spec.n} eta={_fmt(spec.eta)} N_eff={_fmt(spec.n_eff)} "
          f"r in [{_fmt(spec.r_min)}, {_fmt(spec.r_max)}] x {spec.r_steps}", file=stream)
    for s, emitted, skipped, base_rate, best_gain, best_r in summary:
        line = (f"  s={_fmt(s)}: rows={emitted} skipped={skipped} "
                f"baseline_rate={_fmt(base_rate)}")
        if best_gain is not None:
            line += f" max_gain={_fmt(best_gain)} at r={_fmt(best_r)}"
        print(line, file=stream)
    total_emitted = sum(e for _, e, _, _, _, _ in summary)
    total_skipped = sum(k for _, _, k, _, _, _ in summary)
    print(f"total rows={total_emitted} skipped={total_skipped} "
          f"grid={len(grid) * len(spec.s_list)}", file=stream)
    print(f"wrote {spec.output_path}", file=stream)
    return rows


def optimize(n, eta, n_eff, s_list, stream=None):
    """Report the best r per memory value as (s, r_star, gain_star, rate_star)."""
    stream = sys.stdout if stream is None else stream
    if not s_list:
        raise InvalidSpec("s_list must hold at least one memory value")
    report = []
    for s in sorted(float(v) for v in s_list):
        params = ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff)
        r_star, gain_star = optimize_r(params)
        rate_star = mutual_information(params, r_star).rate
        report.append((s, r_star, gain_star, rate_star))
    print("s,r_star,gain_star,rate_star", file=stream)
    for entry in report:
        print(",".join(_fmt(v) for v in entry), file=stream)
    return report


def _random_point(rng):
    """One valid (eta, s, n_eff, r) draw for property checks."""
    eta = float(rng.uniform(0.05, 0.95))
    s = float(rng.uniform(0.0, 5.0))
    n_eff = float(rng.uniform(0.5, 30.0))
    r = float(rng.uniform(-0.9, 0.9)) * min(r_limit(n_eff), 1.5)
    return eta, s, n_eff, r


def _check_memoryless_anchor():
    rate = mutual_information(ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0), 0.0).rate
    dev = abs(rate - math.log2(1.0 + 0.8 * 2.0))
    return dev <= 1e-7, f"dev={dev:.3e}"


def _check_beam_splitter_orthogonality():
    worst = 0.0
    for k in range(11):
        b = build_beam_splitter(3, k / 10)
        worst = max(worst, float(np.abs(b.T @ b - np.eye(12)).max()))
    return worst <= 1e-12, f"max_dev={worst:.3e}"


def _check_kernel_determinant():
    worst = 0.0
    for n in range(1, 9):
        for r in (-3.0, -1.5, 0.0, 1.5, 3.0):
            ld = spd_logdet(build_input_kernel(n, r))
            worst = max(worst, abs(ld - 2 * n * LN2))
    return worst <= 1e-10, f"max_dev={worst:.3e}"


def _check_kernel_row_sums():
    worst = 0.0
    for n in (1, 2, 4, 6):
        for r in (-2.0, -0.5, 0.0, 1.0, 2.0):
            sums = build_input_kernel(n, r).sum(axis=1)
            target = np.concatenate([
                np.full(n, 2.0 * math.exp(-2.0 * r)),
                np.full(n, 2.0 * math.exp(2.0 * r))])
            worst = max(worst, float(np.abs(sums - target).max()))
    return worst <= 1e-12, f"max_dev={worst:.3e}"


def _dense_g(n, eta, r, s):
    """(G, A_tot) of the literal chain: G = B^T A_tot B, A_tot = A_in(r) (+) A_mem(s)."""
    a_tot = block_diag(build_input_kernel(n, r), build_memory_kernel(n, s))
    b = build_beam_splitter(n, eta)
    return symmetrize(b.T @ (a_tot @ b)), a_tot


def _check_block_determinant_additivity():
    worst = 0.0
    for eta in (0.1, 0.3, 0.5, 0.7, 0.9):
        for r, s in ((0.0, 0.0), (0.5, 1.0), (-1.0, 2.0), (0.8, -1.5)):
            g, a_tot = _dense_g(2, eta, r, s)
            worst = max(worst, abs(spd_logdet(g) - spd_logdet(a_tot)))
    return worst <= 1e-10, f"max_dev={worst:.3e}"


def _check_positive_definite_grid():
    count = 0
    for eta in (0.1, 0.5, 0.9):
        for r in (-2.0, 0.0, 2.0):
            for s in (-2.0, 0.0, 2.0):
                for n_mod in (0.01, 1.0, 50.0):
                    params = ChannelParams(
                        n=2, eta=eta, s=s, n_eff=n_mod + math.sinh(r) ** 2)
                    model = assemble_model(params, r)
                    spd_factor(_dense_g(2, eta, r, s)[0])
                    spd_factor(model.u_p)
                    spd_factor(model.v_n)
                    spd_factor(model.r_p + np.eye(4) / model.n_mod)
                    count += 1
    return True, f"points={count}"


def _check_permutation_symmetry():
    n = 3
    perm = (2, 0, 1)
    p = np.zeros((2 * n, 2 * n))
    for i, j in enumerate(perm):
        p[i, j] = 1.0
        p[n + i, n + j] = 1.0
    worst = 0.0
    for k in (build_input_kernel(n, 0.7), build_memory_kernel(n, -1.2)):
        worst = max(worst, float(np.abs(p @ k @ p.T - k).max()))
    return worst <= 1e-12, f"max_dev={worst:.3e}"


def _check_eta_zero_mi():
    worst = 0.0
    for s, r in ((0.0, 0.5), (2.0, -0.8), (5.0, 0.3)):
        info = mutual_information(ChannelParams(n=2, eta=0.0, s=s, n_eff=2.0), r)
        worst = max(worst, abs(info.i_r))
    return worst <= 1e-9, f"max_abs_mi={worst:.3e}"


def _check_eta_one_memory_independence():
    rates = [mutual_information(ChannelParams(n=2, eta=1.0, s=s, n_eff=2.0), 0.6).rate
             for s in (0.0, 1.0, 5.0)]
    worst = max(rates) - min(rates)
    return worst <= 1e-9, f"spread={worst:.3e}"


def _check_zero_r_gain():
    for eta, s, n_eff in ((0.8, 2.0, 2.0), (0.5, 1.0, 20.0), (0.3, 0.0, 5.0),
                          (0.9, 5.0, 2.0)):
        point = rate_gain(ChannelParams(n=2, eta=eta, s=s, n_eff=n_eff), 0.0)
        if point.gain != 0.0:
            return False, f"gain={point.gain!r} at eta={_fmt(eta)} s={_fmt(s)}"
    return True, "gain==0 at 4 baseline points"


def _check_information_bounds(rng):
    low = 0.0
    high = 0.0
    for _ in range(20):
        eta, s, n_eff, r = _random_point(rng)
        info = mutual_information(ChannelParams(n=2, eta=eta, s=s, n_eff=n_eff), r)
        low = min(low, info.i_r)
        high = max(high, info.i_r - info.i_mu)
    return low >= -1e-9 and high <= 1e-9, f"min_mi={low:.3e} max_excess={high:.3e}"


def _check_rate_additivity(rng):
    # on the matrix chain: the closed-form core is n-independent by construction
    worst = 0.0
    for _ in range(5):
        eta, s, n_eff, r = _random_point(rng)
        rates = [_chain_mi(ChannelParams(n=n, eta=eta, s=s, n_eff=n_eff), r) / n
                 for n in (2, 3, 4)]
        worst = max(worst, abs(rates[0] - rates[1]), abs(rates[1] - rates[2]))
    return worst <= 1e-7, f"max_dev={worst:.3e}"


def _chain_mi(params, r):
    """Mutual information (bits) on the paper's matrix chain."""
    model = assemble_model(params, r)
    i_zeta, _ = output_entropy(model)
    i_joint, _ = joint_entropy(model)
    return input_entropy(params.n, model.n_mod) + i_zeta - i_joint


def _check_moment_oracle_grid():
    worst = 0.0
    count = 0
    r_values = [k / 10 for k in range(-10, 11)]
    for eta in _STANDARD_ETAS:
        for s in _STANDARD_S:
            for n_eff in _STANDARD_NEFF:
                params = ChannelParams(n=2, eta=eta, s=s, n_eff=n_eff)
                r_ok, _, _, info = rate_gains(params, r_values)
                moments = gaussian_mi_from_moments(params, r_ok)
                worst = max(worst, float(np.max(np.abs(info.i_r - moments))))
                count += len(r_ok)
    return worst <= 1e-7, f"max_dev={worst:.3e} points={count}"


def _check_spot_point(params):
    r = min(0.4, 0.9 * r_limit(params.n_eff))
    dev = abs(mutual_information(params, r).i_r - gaussian_mi_from_moments(params, r))
    return dev <= 1e-7, f"dev={dev:.3e} at r={_fmt(r)}"


def _check_mc_anchor(samples, seed):
    est = monte_carlo_mi(ChannelParams(n=2, eta=0.8, s=0.0, n_eff=2.0), 0.0,
                         McConfig(samples=samples, seed=seed))
    dev = abs(est.value - math.log2(2.6))
    return dev <= 3.0 * est.std_error, f"dev={dev:.3e} std_error={est.std_error:.3e}"


def _check_mc_memory_point(samples, seed):
    params = ChannelParams(n=2, eta=0.8, s=2.0, n_eff=2.0)
    est = monte_carlo_mi(params, 0.4, McConfig(samples=samples, seed=seed + 1))
    dev = abs(est.value - mutual_information(params, 0.4).rate)
    return dev <= 3.0 * est.std_error, f"dev={dev:.3e} std_error={est.std_error:.3e}"


def _check_mc_repeatability(samples, seed):
    params = ChannelParams(n=2, eta=0.7, s=1.0, n_eff=2.0)
    cfg = McConfig(samples=max(2000, samples // 10), seed=seed + 2)
    first = monte_carlo_mi(params, 0.2, cfg)
    second = monte_carlo_mi(params, 0.2, cfg)
    same = first.value == second.value and first.std_error == second.std_error
    return same, f"value={_fmt(first.value)} repeated={'yes' if same else 'no'}"


def _check_sampler_moments(samples, seed):
    params = ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    r = 0.3
    cfg = McConfig(samples=samples, seed=seed + 3)
    data = sample_joint(params, r, cfg)
    target = pipeline_covariance(params, r)
    dev = float(np.abs(np.cov(data, rowvar=False) - target).max())
    tol = 5.0 / math.sqrt(cfg.samples)
    return dev <= tol, f"max_dev={dev:.3e} tol={tol:.3e}"


def _check_quadrature_input():
    value = quadrature_entropy_n1(np.eye(2) / 2.0, 1.0 / (2.0 * math.pi))
    dev = abs(value - input_entropy(1, 2.0))
    return dev <= 1e-4, f"dev={dev:.3e}"


def _quadrature_output_dev(eta, s, r, n_eff):
    model = assemble_model(ChannelParams(n=1, eta=eta, s=s, n_eff=n_eff), r)
    norm = math.exp(_ln_output_norm(model)[0])
    value = quadrature_entropy_n1(model.u_p, norm)
    closed, _ = output_entropy(model)
    return abs(value - closed)


def _check_quadrature_output():
    dev = max(_quadrature_output_dev(0.8, 0.0, 0.0, 2.0),
              _quadrature_output_dev(0.7, 1.5, 0.4, 2.0))
    return dev <= 1e-4, f"max_dev={dev:.3e}"


def _check_quadrature_joint():
    model = assemble_model(ChannelParams(n=1, eta=0.8, s=1.0, n_eff=2.0), 0.3)
    norm = math.exp(_ln_joint_norm(model))
    value = quadrature_entropy_n1(model.v_n, norm, points=65)
    closed, _ = joint_entropy(model)
    dev = abs(value - closed)
    return dev <= 1e-4, f"dev={dev:.3e}"


def verify(level, seed=12345, samples=100000, n=2, eta=0.8, n_eff=2.0, stream=None):
    """Run the named check suite; returns True when every check passes."""
    stream = sys.stdout if stream is None else stream
    if level not in ("quick", "full"):
        raise InvalidSpec(f"level must be 'quick' or 'full', got {level!r}")
    # the Monte Carlo checks seed with seed .. seed + 3; McConfig checks samples
    if not isinstance(seed, int) or not 0 <= seed <= 2 ** 64 - 4:
        raise InvalidSpec(f"seed must be an integer in [0, 2**64 - 4], got {seed!r}")
    McConfig(samples=samples, seed=seed)
    spot = ChannelParams(n=n, eta=eta, s=1.0, n_eff=n_eff)
    rng = np.random.default_rng(seed)
    checks = [
        ("memoryless-anchor", _check_memoryless_anchor),
        ("beam-splitter-orthogonality", _check_beam_splitter_orthogonality),
        ("input-kernel-determinant", _check_kernel_determinant),
        ("kernel-row-sums", _check_kernel_row_sums),
        ("block-determinant-additivity", _check_block_determinant_additivity),
        ("positive-definite-grid", _check_positive_definite_grid),
        ("permutation-symmetry", _check_permutation_symmetry),
        ("eta-zero-mutual-information", _check_eta_zero_mi),
        ("eta-one-memory-independence", _check_eta_one_memory_independence),
        ("zero-r-gain", _check_zero_r_gain),
        ("information-bounds", lambda: _check_information_bounds(rng)),
        ("rate-n-additivity", lambda: _check_rate_additivity(rng)),
        ("moment-oracle-grid", _check_moment_oracle_grid),
        ("spot-point-oracle", lambda: _check_spot_point(spot)),
    ]
    if level == "full":
        checks += [
            ("monte-carlo-anchor", lambda: _check_mc_anchor(samples, seed)),
            ("monte-carlo-memory-point", lambda: _check_mc_memory_point(samples, seed)),
            ("monte-carlo-repeatability", lambda: _check_mc_repeatability(samples, seed)),
            ("sampler-moments", lambda: _check_sampler_moments(samples, seed)),
            ("quadrature-input-entropy", _check_quadrature_input),
            ("quadrature-output-entropy", _check_quadrature_output),
            ("quadrature-joint-entropy", _check_quadrature_joint),
        ]

    failures = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
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
