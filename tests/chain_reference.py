"""The reference chain's literal 2n x 2n and 4n x 4n forms, rebuilt from the
pair scalars of a model, for tests that compare against the dense route."""
import numpy as np


def sector_form(n, pair):
    """Signal-space 2n x 2n matrix of per-class scalars pair = (co, rel).

    co sits on the collective x quadrature and the n-1 relative p
    quadratures, rel on their complements (the two quadrature sectors are
    mirrored).
    """
    c_co, c_rel = pair
    proj = np.full((n, n), 1.0 / n)
    eye = np.eye(n)
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = c_co * proj + c_rel * (eye - proj)
    out[n:, n:] = c_rel * proj + c_co * (eye - proj)
    return out


def joint_kernel(model):
    """The 4n x 4n joint (mu, zeta) kernel, including the 1/N modulation shift."""
    n = model.n
    r_p, s_p, t_p = (sector_form(n, pair) for pair in (model.r_pair, model.s_pair, model.t_pair))
    rpin = r_p + np.eye(2 * n) / model.n_mod
    return np.block([[rpin, -s_p / 2.0], [-s_p.T / 2.0, t_p]])
