"""Named faults of the model and its oracles, for the tests that pin which
`verify` check catches which fault (ROADMAP item 6's catalogue)."""
import sys

import numpy as np

from lossymem import channel_model, information, oracle


def patch_everywhere(monkeypatch, original, replacement):
    """Replace a function in every lossymem module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "lossymem" or name.startswith("lossymem.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def rate_scaled(exact):
    # the per-use rate, and with it i_r = n * rate, scaled by 1 + 1e-6
    def faulty(*point):
        h_noise, rate = exact(*point)
        return h_noise, rate * (1 + 1e-6)
    return faulty


def heterodyne_noisier(exact):
    def faulty(n, *point):
        cov = exact(n, *point)
        cov[:, 2 * n:, 2 * n:] += 0.01 * np.eye(2 * n)
        return cov
    return faulty


def noise_rows_scaled(factor, first=2):
    """A fault of the sampler's mixing map: its noise rows first * n to 6n
    scaled by factor. Rows 2n to 4n are the input ensemble's factor and 4n
    to 6n the environment's."""
    def make(exact):
        def faulty(params, r):
            mix = exact(params, r)
            mix[first * params.n:6 * params.n] *= factor
            return mix
        return faulty
    return make


# the faults that moment-oracle-grid catches in ROADMAP item 6's table:
# (function, fault built from the exact function)
MOMENT_GRID_FAULTS = {
    "input-kernel-scaled": (channel_model.build_input_kernel,
                            lambda exact: lambda n, r: exact(n, r) * (1 + 1e-3)),
    "memory-kernel-at-1.02s": (channel_model.build_memory_kernel,
                               lambda exact: lambda n, s: exact(n, 1.02 * s)),
    "closed-form-i_r-scaled": (information._closed_form, rate_scaled),
    "closed-form-at-1.001s": (information._closed_form,
                              lambda exact: lambda eta, s, r, n_mod: exact(
                                  eta, 1.001 * s, r, n_mod)),
    "heterodyne-variance-plus-0.01": (oracle._covariances, heterodyne_noisier),
}
