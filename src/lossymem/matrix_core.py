"""SPD Cholesky with a typed pivot test, log-determinants, solves.

NumPy alone, on plain float64 arrays. The pair chain of channel_model
factors its 2x2 pairs through `spd_factor`; the chain's entropies in
information and the oracles take log-determinants through `spd_logdet` on a
(..., d, d) stack, the chain's a stack of its 1x1 or 2x2 pairs. Both apply
one symmetry and pivot test, so a matrix that fails it raises
NotPositiveDefinite instead of yielding a silently wrong log-determinant.
"""
import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite

_EPS = np.finfo(np.float64).eps


def _as_square(m):
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {a.shape}")
    return a


def symmetrize(m):
    """(M + M^T)/2; stops round-off drift on mathematically symmetric products."""
    a = _as_square(m)
    return (a + a.T) / 2.0


class CholFactor:
    """Lower Cholesky factor of an SPD matrix, reusable for logdet and solves."""

    __slots__ = ("lower",)

    def __init__(self, lower):
        self.lower = lower

    @property
    def dim(self):
        return self.lower.shape[0]

    def logdet(self):
        return 2.0 * float(np.sum(np.log(np.diag(self.lower))))

    def solve(self, rhs):
        b = np.asarray(rhs, dtype=np.float64)
        vector = b.ndim == 1
        if vector:
            b = b[:, None]
        if b.ndim != 2 or b.shape[0] != self.dim:
            raise DimensionMismatch(
                f"rhs rows {b.shape} do not match factor dim {self.dim}")
        x = np.linalg.solve(self.lower.T, np.linalg.solve(self.lower, b))
        return x[:, 0] if vector else x


def _pivot_tested_cholesky(a):
    """Lower Cholesky factors of a square matrix or a (..., d, d) stack.

    Raises NotPositiveDefinite when, in any matrix of the stack, max|A - A^T|
    is not <= d * eps * max(diag) of that matrix, or a pivot is not > it. The
    symmetry test guards the upper triangle, which the factor never reads; it
    allows round-off because a numerical inverse is symmetric only to that.
    The tests are written so that a NaN fails them.
    """
    d = a.shape[-1]
    failure = f"matrix of dim {d} failed Cholesky pivot test"
    max_diag = np.diagonal(a, axis1=-2, axis2=-1).max(axis=-1)
    if not np.all(max_diag > 0.0):
        raise NotPositiveDefinite(failure)
    tol = d * _EPS * max_diag
    if not np.all(np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1)) <= tol):
        raise NotPositiveDefinite(f"matrix of dim {d} is not symmetric")
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(failure) from None
    piv = np.diagonal(lower, axis1=-2, axis2=-1)
    if not np.all(np.min(piv * piv, axis=-1) > tol):
        raise NotPositiveDefinite(failure)
    return lower


def spd_factor(m):
    """Cholesky-factor an SPD matrix.

    Raises NotPositiveDefinite when the matrix is not symmetric to
    dim * eps * max(diag) or a pivot is <= dim * eps * max(diag); for
    valid channel parameters that only happens on malformed inputs, so the
    failure is a diagnostic, not a recoverable condition.
    """
    return CholFactor(_pivot_tested_cholesky(_as_square(m)))


def spd_logdet(m):
    """Natural-log determinant of an SPD matrix, or an array of them for a
    (..., d, d) stack; every matrix passes spd_factor's pivot test."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix or a stack of them, got {a.shape}")
    lower = _pivot_tested_cholesky(a)
    logdet = 2.0 * np.sum(np.log(np.diagonal(lower, axis1=-2, axis2=-1)), axis=-1)
    return float(logdet) if a.ndim == 2 else logdet


def block_diag(a, b):
    """Direct sum of two square matrices."""
    a = _as_square(a)
    b = _as_square(b)
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da + db, da + db))
    out[:da, :da] = a
    out[da:, da:] = b
    return out
