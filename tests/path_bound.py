"""The one bound between a scalar result and an array one.

Floats run the closed form on math and arrays on numpy. On a CPU where
numpy dispatches exp, log and log1p to its own SIMD kernels (AVX-512),
those differ from libm in the last bit, and at 4002 random points the two
paths differed by at most 3 ulp on rate, i_r, i_zeta and i_joint and 1 ulp
on i_mu. Where numpy calls libm they agree bit for bit. Array against array
and scalar against scalar stay exact, and tests assert them with ==.
"""
import math
import sys

# the ulps that a scalar rate or entropy may lie from its array counterpart
PATH_ULPS = 8


def paths_agree(scalar, array_value):
    """True when two values lie at most PATH_ULPS ulp apart."""
    return abs(scalar - array_value) <= PATH_ULPS * math.ulp(max(abs(scalar), abs(array_value)))


def gains_agree(scalar, array_value, rate, base_rate):
    """True when two gains (rate - base)/base lie at most
    PATH_ULPS eps (rate/base_rate + 1) apart, absolute: the scale of the
    worst measured gap, 1.04 eps (rate/base_rate + 1)."""
    bound = PATH_ULPS * sys.float_info.epsilon * (abs(rate) / base_rate + 1.0)
    return abs(scalar - array_value) <= bound
