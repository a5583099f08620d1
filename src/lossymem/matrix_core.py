"""SPD Cholesky with a typed pivot test, log-determinants, solves.

NumPy alone, on plain float64 arrays. The reference matrix chain of
channel_model and the oracles factor through `spd_factor`, so a matrix that
fails the pivot test raises NotPositiveDefinite instead of yielding a
silently wrong log-determinant.
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


def spd_factor(m):
    """Cholesky-factor an SPD matrix.

    Raises NotPositiveDefinite when a pivot is <= dim * eps * max(diag); for
    valid channel parameters that only happens on malformed inputs, so the
    failure is a diagnostic, not a recoverable condition.
    """
    a = _as_square(m)
    failure = f"matrix of dim {a.shape[0]} failed Cholesky pivot test"
    max_diag = np.max(np.diag(a))
    if max_diag <= 0.0:
        raise NotPositiveDefinite(failure)
    try:
        lower = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(failure) from None
    piv = np.diag(lower)
    if np.min(piv * piv) <= a.shape[0] * _EPS * max_diag:
        raise NotPositiveDefinite(failure)
    return CholFactor(lower)


def spd_logdet(m):
    """Natural-log determinant of an SPD matrix."""
    return spd_factor(m).logdet()


def block_diag(a, b):
    """Direct sum of two square matrices."""
    a = _as_square(a)
    b = _as_square(b)
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da + db, da + db))
    out[:da, :da] = a
    out[da:, da:] = b
    return out
