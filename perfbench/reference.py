"""Independent reference for the benchmark's correctness checks.

The whole channel chain splits into n copies of two decoupled
(signal, environment) quadrature pairs, so the heterodyne rate per use is
two log1p terms and does not depend on n:

    rate = 1/2 log2(1 + 2 eta N / (1 + eta e^{2r} + (1 - eta) e^{2s}))
         + 1/2 log2(1 + 2 eta N / (1 + eta e^{-2r} + (1 - eta) e^{-2s})),

with N = N_eff - sinh^2 r the modulation variance left after the
entanglement r. This is an instance of the one-mode Gaussian-channel
reduction (Holevo & Werner, PRA 63, 032312, 2001). It shares no code with
lossymem: it uses `math` only, and `self_test` checks it against the same
formula evaluated with mpmath at 60 digits and against the anchors the
paper states.

Run `python3 perfbench/reference.py` for the self-test alone.
"""
import math

LN2 = math.log(2.0)

# lossymem keeps the modulation variance at or above N_MIN = 1e-9 and
# limits |r| with a 2 * N_MIN margin; the reference searches the same range.
_R_LIMIT_MARGIN = 2e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def rate(eta, s, n_eff, r):
    """Heterodyne rate per channel use, in bits."""
    signal = 2.0 * eta * (n_eff - math.sinh(r) ** 2)
    plus = 1.0 + eta * math.exp(2.0 * r) + (1.0 - eta) * math.exp(2.0 * s)
    minus = 1.0 + eta * math.exp(-2.0 * r) + (1.0 - eta) * math.exp(-2.0 * s)
    return (math.log1p(signal / plus) + math.log1p(signal / minus)) / (2.0 * LN2)


def gain(eta, s, n_eff, r):
    """Relative rate gain of entanglement r over r = 0."""
    base = rate(eta, s, n_eff, 0.0)
    return (rate(eta, s, n_eff, r) - base) / base


def r_limit(n_eff):
    """Largest admissible |r| for the photon budget n_eff."""
    return math.asinh(math.sqrt(n_eff - _R_LIMIT_MARGIN))


def max_gain(eta, s, n_eff, points=4001):
    """Largest gain over [-r_limit, r_limit]: a dense grid, then golden
    section around the best grid point.

    Returns (grid_best, r_best, gain_best): the largest gain at any grid
    point, and the refined maximum and where it lies.
    """
    lim = r_limit(n_eff)
    step = 2.0 * lim / (points - 1)
    grid = [-lim + k * step for k in range(points)]
    values = [gain(eta, s, n_eff, r) for r in grid]
    best = max(range(points), key=values.__getitem__)
    a, b = max(-lim, grid[best] - step), min(lim, grid[best] + step)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = gain(eta, s, n_eff, c), gain(eta, s, n_eff, d)
    while b - a > 1e-10:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = gain(eta, s, n_eff, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = gain(eta, s, n_eff, d)
    r_best = 0.5 * (a + b)
    g_best = gain(eta, s, n_eff, r_best)
    if g_best < values[best]:
        r_best, g_best = grid[best], values[best]
    return values[best], r_best, g_best


def rate_mp(eta, s, n_eff, r, digits=60):
    """The same formula in mpmath at `digits` significant digits."""
    import mpmath

    with mpmath.workdps(digits):
        eta, s, n_eff, r = (mpmath.mpf(v) for v in (eta, s, n_eff, r))
        signal = 2 * eta * (n_eff - mpmath.sinh(r) ** 2)
        plus = 1 + eta * mpmath.exp(2 * r) + (1 - eta) * mpmath.exp(2 * s)
        minus = 1 + eta * mpmath.exp(-2 * r) + (1 - eta) * mpmath.exp(-2 * s)
        return (mpmath.log(1 + signal / plus) + mpmath.log(1 + signal / minus)) / (2 * mpmath.log(2))


# (eta, s, n_eff, r) points of the benchmark's domain, both energy budgets.
_SELF_TEST_POINTS = (
    (0.8, 0.0, 2.0, 0.0),
    (0.8, 2.0, 2.0, 0.4),
    (0.3, 5.0, 2.0, -1.1),
    (0.95, 1.0, 20.0, 1.1),
    (0.5, 5.0, 20.0, -2.0),
    (0.65, 2.0, 20.0, 1.7),
)


def self_test():
    """Check the reference; returns a list of failure messages (empty: pass)."""
    failures = []
    for eta, s, n_eff, r in _SELF_TEST_POINTS:
        exact = rate_mp(eta, s, n_eff, r)
        dev = abs(rate(eta, s, n_eff, r) - float(exact)) / float(exact)
        if dev > 1e-13:
            failures.append(f"rate{(eta, s, n_eff, r)}: math vs mpmath rel dev {dev:.3e}")
    # memoryless anchor log2(1 + eta N_eff) at s = r = 0
    for eta, n_eff in ((0.8, 2.0), (0.3, 20.0)):
        dev = abs(rate(eta, 0.0, n_eff, 0.0) - math.log2(1.0 + eta * n_eff))
        if dev > 1e-14:
            failures.append(f"memoryless anchor eta={eta} N_eff={n_eff}: dev {dev:.3e}")
    # at eta = 1 the environment is never mixed in, so memory cannot matter
    rates = [rate(1.0, s, 2.0, 0.6) for s in (0.0, 1.0, 5.0)]
    if max(rates) - min(rates) > 1e-14:
        failures.append(f"eta=1 rates depend on s: {rates}")
    if gain(0.8, 2.0, 2.0, 0.0) != 0.0:
        failures.append("gain at r = 0 is not exactly 0")
    # with memory the best gain is positive and exceeds every grid point
    grid_best, r_best, g_best = max_gain(0.8, 2.0, 20.0, points=401)
    if not g_best >= grid_best > 0.0:
        failures.append(f"max_gain: refined {g_best!r} at r={r_best!r}, grid {grid_best!r}")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print("FAIL", line)
    print("reference self-test:", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
