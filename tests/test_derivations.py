"""Symbolic checks of the two kernel-family identities that the oracles rest
on, with A(x) = block_diag(K_x, K_{-x}) and
K_x = 2e^{-2x} J/n + 2e^{2x} (I - J/n), the formula of build_input_kernel:

- A(x) A(-x) / 4 = I: the moment oracle reads A(x)^-1 as A(-x)/4;
- (A(-x/2) / 4)^2 = A(-x)/8 = A(x)^-1 / 2: the sampler's noise factor
  F = A(-x/2)/4 is a square root of the ensemble noise's covariance.

They hold for every real x; x is a sympy symbol here. Runs only where sympy
is installed, which the package itself never needs.
"""
import pytest

sp = pytest.importorskip("sympy")

X = sp.Symbol("x", real=True)


def family_kernel(n, x):
    """A(x) of build_input_kernel's formula, as a sympy matrix."""
    collective = sp.ones(n, n) / n
    relative = sp.eye(n) - collective

    def block(y):
        return 2 * sp.exp(-2 * y) * collective + 2 * sp.exp(2 * y) * relative

    return sp.diag(block(x), block(-x))


def is_zero(matrix):
    return matrix.applyfunc(sp.expand) == sp.zeros(*matrix.shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_kernel_inverse_is_the_kernel_at_minus_x_over_four(n):
    assert is_zero(family_kernel(n, X) * family_kernel(n, -X) / 4 - sp.eye(2 * n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_sampling_factor_squares_to_half_the_kernel_inverse(n):
    factor = family_kernel(n, -X / 2) / 4
    assert factor == factor.T
    assert is_zero(factor * factor - family_kernel(n, -X) / 8)
