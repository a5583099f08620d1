"""Which `verify full` checks each catalogued fault fails, at the default
seed, and why each check is in the registry.

Each fault replaces one function in every lossymem module that holds it,
or distorts the Wishart law of the sampler's source covariance through the
draws of its generator. Every check is the only one that fails under some
fault here, or has a role of its own in ROLES: a check whose faults all
fail other checks too adds run time and code, but no detection. An empty
set is a fault that no check catches: the beam splitter's, which no verify
path reads.
"""
import dataclasses
import io

import numpy as np
import pytest

from lossymem import channel_model, cli, information, oracle

from faults import MOMENT_GRID_FAULTS, noise_rows_scaled, patch_everywhere


def _t_prime_scaled(exact):
    def faulty(params, r):
        model = exact(params, r)
        return dataclasses.replace(model, t_pair=model.t_pair * (1 + 1e-4))
    return faulty


def _u_prime_scaled(exact):
    def faulty(params, r):
        model = exact(params, r)
        return dataclasses.replace(model, u_pair=model.u_pair * (1 + 1e-4))
    return faulty


def _x_and_p_coupled(exact):
    # couples mu_x to mu_p in the n = 1 joint kernel, whose x pair {0, 2}
    # and p pair {1, 3} become one block of four axes
    def faulty(model):
        output, joint = exact(model)
        joint[0, 1] = joint[1, 0] = 1e-3 * joint[0, 0]
        return output, joint
    return faulty


def _collective_scaled(n_min):
    # the J/n term of each block, 2e^{-+2r} J/n, scaled by 1 + 1e-3 for
    # n >= n_min
    def make(exact):
        def faulty(n, r):
            out = exact(n, r)
            if n >= n_min:
                r_arr = np.asarray(r, dtype=float)[..., None, None]
                term = np.full((n, n), 2e-3 / n)
                out[..., :n, :n] += np.exp(-2.0 * r_arr) * term
                out[..., n:, n:] += np.exp(2.0 * r_arr) * term
            return out
        return faulty
    return make


def _input_kernel_scaled_past_r_2_5(exact):
    # the kernel scaled by 1 + 1e-6 where |r| > 2.5
    def faulty(n, r):
        return exact(n, r) * np.where(np.abs(r) > 2.5, 1 + 1e-6, 1.0)[..., None, None]
    return faulty


def _rate_scaled_at_negative_r(exact):
    # the per-use rate scaled by 1 + 1e-6 where r < 0
    def faulty(eta, s, r, n_mod):
        h_noise, rate = exact(eta, s, r, n_mod)
        return h_noise, rate * np.where(np.less(r, 0.0), 1 + 1e-6, 1.0)
    return faulty


def _budget_scaled(at):
    """The replacements that scale the modulation variance N by 1 - 1e-3
    where at(r) holds, in photon_budget and in its array form alike."""
    def scalar(exact):
        return lambda n_eff, r: exact(n_eff, r) * (1 - 1e-3) if at(r) else exact(n_eff, r)

    def array(exact):
        def faulty(n_eff, r_values):
            n_mod, admissible = exact(n_eff, r_values)
            return np.where(at(r_values), n_mod * (1 - 1e-3), n_mod), admissible
        return faulty
    return [(channel_model.photon_budget, scalar), (channel_model.photon_budgets, array)]


# the failing checks of each fault that moment-oracle-grid catches. A
# scaled input kernel scales the sampler's factors A(-x/2)/4, so F^T F by
# the factor's square, and the moment oracle's A(-x)/8 by the factor alone:
# sampler-map sees the difference
MOMENT_GRID_FAILING = {
    "input-kernel-scaled": {"input-kernel-determinant", "kernel-row-sums",
                            "moment-oracle-grid", "spot-point-oracle", "sampler-map",
                            "input-energy"},
    "memory-kernel-at-1.02s": {"moment-oracle-grid", "spot-point-oracle"},
    "closed-form-i_r-scaled": {"memoryless-anchor", "moment-oracle-grid", "spot-point-oracle"},
    "closed-form-at-1.001s": {"moment-oracle-grid", "spot-point-oracle"},
    "heterodyne-variance-plus-0.01": {"moment-oracle-grid", "spot-point-oracle",
                                      "sampler-map", "sampler-moments"},
}
# name: ([(function, fault built from the exact function)], failing checks)
CATALOGUE = {name: ([MOMENT_GRID_FAULTS[name]], failing)
             for name, failing in MOMENT_GRID_FAILING.items()}
CATALOGUE.update({
    "t-prime-scaled": ([(channel_model.assemble_model, _t_prime_scaled)],
                       {"quadrature-joint-entropy"}),
    "u-prime-scaled": ([(channel_model.assemble_model, _u_prime_scaled)],
                       {"quadrature-output-entropy"}),
    "input-entropy-scaled": (
        [(information.input_entropy, lambda exact: lambda n, n_mod: exact(n, n_mod) * (1 + 1e-4))],
        {"quadrature-input-entropy"}),
    "joint-kernel-x-and-p-coupled": ([(channel_model.single_use_kernels, _x_and_p_coupled)],
                                     {"quadrature-joint-entropy"}),
    "collective-term-scaled-at-n-ge-3": (
        [(channel_model.build_input_kernel, _collective_scaled(3))],
        {"input-kernel-determinant", "kernel-row-sums", "rate-n-additivity"}),
    # rate-n-additivity's first point runs at n = 32, past the kernel checks'
    # n <= 8
    "collective-term-scaled-at-n-ge-9": (
        [(channel_model.build_input_kernel, _collective_scaled(9))],
        {"rate-n-additivity"}),
    # the memory kernel is this builder at s, so (r, s) flips as a whole,
    # which keeps every rate, det A = 2^{2n} and A(r) A(-r) / 4 = I, and
    # swaps the row sums of the x and p blocks
    "input-kernel-sign-flipped": (
        [(channel_model.build_input_kernel, lambda exact: lambda n, r: exact(n, -r))],
        {"kernel-row-sums"}),
    # input-kernel-determinant reads r = +-3, every other check |r| <= 2
    "input-kernel-scaled-past-r-2.5": (
        [(channel_model.build_input_kernel, _input_kernel_scaled_past_r_2_5)],
        {"input-kernel-determinant"}),
    # moment-oracle-grid reads r = -1 .. -0.1; the other checks that read
    # the closed form do so at r >= 0
    "closed-form-scaled-at-negative-r": (
        [(information._closed_form, _rate_scaled_at_negative_r)],
        {"moment-oracle-grid"}),
    "sampling-factor-scaled": (
        [(oracle._mixing_map, noise_rows_scaled(1.01))],
        {"sampler-map", "input-energy"}),
    # input-energy reads the map at eta = 1, where the environment's rows
    # carry sqrt(1 - eta) = 0
    "environment-rows-scaled": (
        [(oracle._mixing_map, noise_rows_scaled(1.01, first=4))],
        {"sampler-map"}),
    "photon-budget-scaled-off-r-0": (_budget_scaled(lambda r: np.not_equal(r, 0.0)),
                                     {"input-energy"}),
    # the closed form and the moment oracle read one N, so only the anchor's
    # log2(1 + eta N_eff) sees it
    "photon-budget-scaled-at-r-0": (_budget_scaled(lambda r: np.equal(r, 0.0)),
                                    {"memoryless-anchor"}),
    # no verify path reads the beam splitter: the sampler and the pair chain
    # mix at sqrt(eta) and sqrt(1 - eta) themselves
    "beam-splitter-at-1.001eta": (
        [(channel_model.build_beam_splitter, lambda exact: lambda n, eta: exact(n, 1.001 * eta))],
        set()),
})

# faults of the Bartlett draw of the normals' covariance C = L L^T / (m - 1):
# (scale of the normals below L's diagonal, map of the diagonal's chi^2
# degrees of freedom), failing checks. Each fails sampler-moments alone: its
# statistic reads high for a C too far from its law's mean, and low for one
# nearer to it than m rows can come
LAW_FAULTS = {
    "off-diagonal-normals-doubled": ((2.0, lambda df: df), {"sampler-moments"}),
    "diagonal-dof-halved": ((1.0, lambda df: df / 2), {"sampler-moments"}),
    "off-diagonal-normals-dropped": ((0.0, lambda df: df), {"sampler-moments"}),
}

# the checks that no fault need fail alone, each with its role
ROLES = {
    "spot-point-oracle": "the only check that follows --n, --eta and --neff",
    "monte-carlo-memory-point": "the Monte Carlo oracle's estimate against the closed form",
    "monte-carlo-repeatability":
        "pinned by test_sampler_that_ignores_the_seed_fails_repeatability",
}


def _failing_checks():
    """The FAIL lines of `verify full`, as {check name: detail}."""
    buf = io.StringIO()
    cli.verify("full", stream=buf)
    return dict(line.split(" ", 2)[1:] for line in buf.getvalue().splitlines()
                if line.startswith("FAIL "))


def _seed_sequence(monkeypatch, make):
    """Give the sampler make(exact SeedSequence class, seed) for its SeedSequence."""
    exact = np.random.SeedSequence
    monkeypatch.setattr(np.random, "SeedSequence", lambda seed: make(exact, seed))


def test_intact_model_fails_no_check():
    assert _failing_checks() == {}


def test_every_check_is_the_sole_catcher_of_a_fault_or_has_a_role():
    # the failing sets are the ones the tests below pin
    spot = channel_model.ChannelParams(n=2, eta=0.8, s=1.0, n_eff=2.0)
    names = [name for name, _ in cli._checks(12345, 100000, spot)]
    sole = {name for _, failing in [*CATALOGUE.values(), *LAW_FAULTS.values()]
            if len(failing) == 1 for name in failing}
    assert set(ROLES) <= set(names)
    assert [name for name in names if name not in sole | set(ROLES)] == []


@pytest.mark.parametrize("fault", list(CATALOGUE))
def test_function_fault_fails_exactly_its_checks(monkeypatch, fault):
    replacements, failing = CATALOGUE[fault]
    for exact, make_fault in replacements:
        patch_everywhere(monkeypatch, exact, make_fault(exact))
    assert _failing_checks().keys() == failing


def test_coupled_joint_kernel_is_refused(monkeypatch):
    # the quadrature refuses a block of more than two axes with a typed
    # error, which verify prints as the check's FAIL line
    replacements, _ = CATALOGUE["joint-kernel-x-and-p-coupled"]
    for exact, make_fault in replacements:
        patch_everywhere(monkeypatch, exact, make_fault(exact))
    detail = _failing_checks()["quadrature-joint-entropy"]
    assert detail.startswith("raised DimensionMismatch: ")


@pytest.mark.parametrize("fault", list(LAW_FAULTS))
def test_law_fault_fails_exactly_its_checks(monkeypatch, fault):
    (scale, dof), failing = LAW_FAULTS[fault]
    exact = np.random.Generator

    class Faulty:
        def __init__(self, bit_generator):
            self.generator = exact(bit_generator)

        def chisquare(self, df):
            return self.generator.chisquare(dof(df))

        def standard_normal(self, size):
            return scale * self.generator.standard_normal(size)

    monkeypatch.setattr(np.random, "Generator", Faulty)
    assert _failing_checks().keys() == failing


def test_sampler_that_ignores_the_seed_fails_repeatability(monkeypatch):
    # fresh entropy per draw: the other sampled lines are random, so only
    # the repeatability check is pinned
    _seed_sequence(monkeypatch, lambda exact, seed: exact())
    assert "monte-carlo-repeatability" in _failing_checks()
