"""Pivot-tested Cholesky factor of a matrix or a stack, and log-determinants.

NumPy alone, on plain float64 arrays. `spd_factor` returns the lower
Cholesky factor of a matrix or of every matrix of a (..., d, d) stack; the
reference chain of channel_model factors its (co, rel) pair stack through
it, and the quadrature oracle and monte_carlo_mi's standard error read the
factor directly, as does the moment oracle: the trailing pivots of a joint
covariance's factor give the log-determinant of its Schur complement.
`spd_logdet` reads the factor's diagonal; the chain's entropies in
information and the oracles take log-determinants through it.
One symmetry and pivot test guards both, so a matrix that fails it raises
NotPositiveDefinite instead of yielding a silently wrong result.
"""
import functools
import sys

from ._lazy import np
from .errors import DimensionMismatch, NotPositiveDefinite

_EPS = sys.float_info.epsilon


def symmetrize(m):
    """(M + M^T)/2 of a matrix or of each matrix of a (..., d, d) stack;
    stops round-off drift on mathematically symmetric products."""
    a = np.asarray(m, dtype=np.float64)
    return (a + np.swapaxes(a, -1, -2)) / 2.0


@functools.cache
def _upper_pairs(d):
    """(rows, cols) of the strict upper triangle of a d x d matrix; np.triu_indices
    takes longer than a small stack's symmetry test, so each d builds it once."""
    return np.triu_indices(d, 1)


def spd_factor(m):
    """Lower Cholesky factor of an SPD matrix, or of each matrix of a
    (..., d, d) stack, as an array of the input's shape.

    Raises DimensionMismatch unless the input is a square matrix or a stack
    of them. Raises NotPositiveDefinite when, in any matrix of the stack,
    an entry of |A - A^T| is not <= d * eps * max(diag) of that matrix, or
    a squared pivot is not > it. The symmetry test guards the upper
    triangle, which the factor never reads; it allows round-off because a
    numerical inverse is symmetric only to that. The tests are written so that a NaN fails
    them. For valid channel parameters a failure only happens on malformed
    inputs, so it is a diagnostic, not a recoverable condition.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got {a.shape}")
    d = a.shape[-1]
    failure = f"matrix of dim {d} failed Cholesky pivot test"
    # one max(diag) per matrix, on a trailing axis of length 1, so that each
    # matrix's tolerance broadcasts against that matrix's entries
    max_diag = np.diagonal(a, axis1=-2, axis2=-1).max(axis=-1, keepdims=True)
    if not (max_diag > 0.0).all():
        raise NotPositiveDefinite(failure)
    tol = d * _EPS * max_diag
    iu, ju = _upper_pairs(d)
    # at d = 1 there is no entry above the diagonal, and .all() of none is True
    if not (np.abs(a[..., iu, ju] - a[..., ju, iu]) <= tol).all():
        raise NotPositiveDefinite(f"matrix of dim {d} is not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(failure) from None
    piv = np.diagonal(lower, axis1=-2, axis2=-1)
    if not (piv * piv > tol).all():
        raise NotPositiveDefinite(failure)
    return lower


def spd_logdet(m):
    """Natural-log determinant of an SPD matrix, or an array of them for a
    (..., d, d) stack, read from the diagonal of spd_factor's factor."""
    lower = spd_factor(m)
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)
    return float(logdet) if lower.ndim == 2 else logdet


def block_diag(a, b):
    """Direct sum of two matrices, or of each pair of matrices of two
    (..., d, d) stacks of one leading shape."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.block([[a, np.zeros(a.shape[:-1] + b.shape[-1:])],
                     [np.zeros(b.shape[:-1] + a.shape[-1:]), b]])
