"""Symbolic checks of the two kernel-family identities that the oracles rest
on, with A(x) = block_diag(K_x, K_{-x}) and
K_x = 2e^{-2x} J/n + 2e^{2x} (I - J/n), the formula of build_input_kernel:

- A(x) A(-x) / 4 = I: the moment oracle reads A(x)^-1 as A(-x)/4;
- (A(-x/2) / 4)^2 = A(-x)/8 = A(x)^-1 / 2: the sampler's noise factor
  F = A(-x/2)/4 is a square root of the ensemble noise's covariance.

They hold for every real x; x is a sympy symbol here. Then the reference
chain's per-class identities, from assemble_model's formulas on one
(signal, environment) pair, with plus = 1 + eta e^{2r} + (1 - eta) e^{2s}
for co (minus, its r -> -r, s -> -s mirror, for rel):

- 1/(2T') = plus/4 and 1/(2U') = plus/4 + eta N/2, the noise variances of
  information's closed form;
- over the two classes, det(G + L) (R' + 1/N) U' and det(G + L) det(V),
  V the joint pair, each multiply to 64/N^2, so that every ln c of
  output_entropy and joint_entropy, 3n ln 2 - n ln N - n/2 ln(64/N^2), is 0
  and c_out = c_joint = 1 exactly.

Last, optimize_r's two claims, with x = e^{2r}: its loop's descent is a
positive multiple of -d(rate)/dr, and d(rate)/dx is its docstring's sextic
over a positive denominator.

Runs only where sympy is installed, which the package itself never needs.
"""
import functools

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


# rational functions of the rotation entries c = sqrt(eta) and d = sqrt(1 - eta),
# x = e^{2r}, y = e^{2s} and N; c^2 + d^2 = 1 is imposed on numerators
FIELD, C, D, XR, YS, N = sp.field("c, d, x, y, N", sp.QQ)
UNIT = (C**2 + D**2 - 1).numer
# each class's (x, y): co's kernel pair is (2/x, 2/y), rel's (2x, 2y)
CLASSES = {"co": (XR, YS), "rel": (1 / XR, 1 / YS)}


def pair_matrix(rows):
    entries = [[FIELD(v) for v in row] for row in rows]
    return sp.polys.matrices.DomainMatrix(entries, (2, 2), FIELD.to_domain())


def vanishes(value):
    """value is 0 once c^2 + d^2 = 1: its numerator lies in that ideal."""
    return value.numer.rem(UNIT) == 0


@functools.cache
def chain_pair(cls):
    """det(G + L), R' + 1/N, T', U' and det(V) of one class, by
    assemble_model's formulas, with x = (G + L)^-1 F^T as its solves give."""
    x, y = CLASSES[cls]
    a = pair_matrix([[2 / x, 0], [0, 2 / y]])
    b = pair_matrix([[C, D], [-D, C]])
    l = pair_matrix([[2, 0], [0, 0]])
    f = a * b
    g = b.transpose() * f
    inverse = (g + l).inv()
    solved = inverse * f.transpose()
    r_pair = (a - f * solved)[0, 0].element
    s_pair = 2 * (l * solved)[0, 0].element
    t_pair = (l - l * inverse * l)[0, 0].element
    u_pair = t_pair - s_pair * s_pair / (4 * (r_pair + 1 / N))
    joint = pair_matrix([[r_pair + 1 / N, -s_pair / 2], [-s_pair / 2, t_pair]])
    return (g + l).det(), r_pair + 1 / N, t_pair, u_pair, joint.det()


def noise_term(cls):
    """plus for co, minus for rel."""
    x, y = CLASSES[cls]
    return 1 + C**2 * x + D**2 * y


@pytest.mark.parametrize("cls", ["co", "rel"])
def test_the_chain_pairs_give_the_closed_forms_noise_variances(cls):
    _, _, t_pair, u_pair, _ = chain_pair(cls)
    assert vanishes(1 / (2 * t_pair) - noise_term(cls) / 4)
    assert vanishes(1 / (2 * u_pair) - noise_term(cls) / 4 - C**2 * N / 2)


def test_the_output_normalization_is_one():
    co, rel = ((gl * shifted * u_pair) for gl, shifted, _, u_pair, _ in map(chain_pair, CLASSES))
    assert vanishes(co - 8 / (N * XR * YS))
    assert vanishes(co * rel - 64 / N**2)


def test_the_joint_normalization_is_one():
    co, rel = ((gl * joint) for gl, _, _, _, joint in map(chain_pair, CLASSES))
    assert vanishes(co * rel - 64 / N**2)


# optimize_r's symbols: x = e^{2r}, the constants c_plus = (1 - eta) e^{2s}
# and c_minus = (1 - eta) e^{-2s} and their scaled forms a = p0/eta and
# b = m0/eta, and k = 2 N_eff + 1
XE, ETA, NEFF, C_PLUS, C_MINUS, A, B, K = sp.symbols(
    "x eta N_eff c_plus c_minus a b k", positive=True)


def test_the_optimizers_descent_is_the_rates_downhill_slope():
    # the loop's formulas at x, with sinh^2 r = (x + 1/x - 2)/4 in N
    up, down = XE, 1 / XE
    plus = 1 + ETA * up + C_PLUS
    minus = 1 + ETA * down + C_MINUS
    signal = 2 * ETA * (NEFF - (XE + 1 / XE - 2) / 4)
    sinh2r = (XE - 1 / XE) / 2
    descent = ((sinh2r + signal / plus * up) / (plus + signal)
               + (sinh2r - signal / minus * down) / (minus + signal))
    # 2 ln 2 rate, whose r-derivative is 2x times its x-derivative
    rate = sp.log(1 + signal / plus) + sp.log(1 + signal / minus)
    assert sp.cancel(sp.together(2 * ETA * descent + 2 * XE * sp.diff(rate, XE))) == 0


def test_the_rates_slope_is_the_docstrings_sextic():
    # plus = eta (a + x), minus = eta (b + 1/x), signal = 2 eta N with
    # 2N = k - (x + 1/x)/2
    plus, minus = ETA * (A + XE), ETA * (B + 1 / XE)
    signal = ETA * (K - (XE + 1 / XE) / 2)
    rate = sp.log(1 + signal / plus) + sp.log(1 + signal / minus)
    # x^6 down to x^0, as the docstring lists them
    sextic = [-B, -2 * (A * B + 1),
              -(2 * A**2 * B + 2 * A * B**2 + 4 * A * B * K + 5 * A + 4 * B**2 * K
                + 4 * B * K**2),
              -4 * (A**2 - B**2),
              2 * A**2 * B + 4 * A**2 * K + 2 * A * B**2 + 4 * A * B * K + 4 * A * K**2 + 5 * B,
              2 * (A * B + 1), A]
    numerator, denominator = sp.fraction(sp.together(sp.diff(rate, XE)))
    coefficients = sp.Poly(numerator, XE).all_coeffs()
    assert len(coefficients) == len(sextic)
    assert all(sp.expand(got - want) == 0 for got, want in zip(coefficients, sextic))
    # the denominator is 4 x^3 (a + x)(b x + 1)(plus + signal)(minus + signal)
    # / eta^2, a product of positive factors
    positive = 4 * XE**3 * (A + XE) * (B * XE + 1) * (plus + signal) * (minus + signal) / ETA**2
    assert sp.cancel(denominator - positive) == 0
