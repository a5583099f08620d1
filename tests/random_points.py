"""Random admissible channel points for the tests that pin each stacked core
to its per-point call: bit-equal, or within tests/path_bound.py's bound
where the call runs on math."""
import numpy as np

from lossymem.channel_model import r_limit


def random_points(count=400, seed=20):
    """(n, eta, s, n_eff, r) as 1-D arrays of count + 2 points.

    count random points: n in {1, 2, 3}, eta in [0, 1], |s| <= 6, N_eff
    log-uniform in [0.1, 1e3] and |r| <= 0.95 min(r_limit(N_eff), 3); then
    s = r = 0.6 and s = r = -0.6 (2x = +-1.2) at n = 2, eta = 0.8, N_eff = 2.
    """
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 4, size=count)
    eta = rng.uniform(0.0, 1.0, size=count)
    s = rng.uniform(-6.0, 6.0, size=count)
    n_eff = 10.0 ** rng.uniform(-1.0, 3.0, size=count)
    reach = 0.95 * np.minimum([r_limit(x) for x in n_eff.tolist()], 3.0)
    r = rng.uniform(-1.0, 1.0, size=count) * reach
    edge = np.array([0.6, -0.6])
    return (np.append(n, [2, 2]), np.append(eta, [0.8, 0.8]), np.append(s, edge),
            np.append(n_eff, [2.0, 2.0]), np.append(r, edge))
