"""Dense low-rank kernels.

Every SVD is one LAPACK call on the matrix itself (``np.linalg.svd`` with
``full_matrices=False``), so singular values are accurate to rounding
relative to the largest, with no floor from squaring them.  The package
passes compressed blocks, at most P (the summed block dims) columns wide,
or the small r x P matrices of a warm-started fit sweep, so no call sees
the vocabulary axis.  All arithmetic is double precision and sequential
execution is run-to-run deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class NumericError(ArithmeticError):
    """A computation produced or received non-finite values."""


@dataclass
class TruncatedSVD:
    """Best rank-k factorization ``M ~ U @ diag(S) @ Vt``.

    ``U`` is ``p x k`` column-orthonormal, ``S`` holds the k singular values
    descending, ``Vt`` is ``k x n`` row-orthonormal.
    """

    U: np.ndarray
    S: np.ndarray
    Vt: np.ndarray

    def compose(self) -> np.ndarray:
        return (self.U * self.S) @ self.Vt


def _checked_matrix(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericError("matrix contains non-finite entries")
    return m


def truncated_svd(matrix, k: int) -> TruncatedSVD:
    """Rank-``k`` SVD of a dense matrix from LAPACK.

    Signs are fixed so that the largest-magnitude entry of each ``U`` column
    is positive, which makes the factors a function of the matrix and not of
    the LAPACK path: the same matrix given in other column coordinates gets
    the same ``U`` up to rounding.  Past the numerical rank the singular
    values are at rounding level and ``Vt`` is completed by LAPACK, still
    row-orthonormal.
    """
    m = _checked_matrix(matrix)
    p, n = m.shape
    if not 1 <= k <= min(p, n):
        raise ValueError(f"rank {k} out of range for a {p}x{n} matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    u, s, vt = u[:, :k], s[:k], vt[:k]
    signs = np.where(u[np.abs(u).argmax(axis=0), np.arange(k)] < 0, -1.0, 1.0)
    return TruncatedSVD(U=u * signs, S=s, Vt=vt * signs[:, None])


def principal_angle_sines(vt_a, vt_b) -> np.ndarray:
    """Sines of the principal angles between two row spaces, ascending angle.

    Both inputs must have orthonormal rows; with unequal ranks the
    ``min(ra, rb)`` canonical pairs are returned.  Sines are read off the
    projection residual directly, which stays accurate for tiny angles where
    ``sqrt(1 - cos^2)`` would lose half the digits.
    """
    a = np.asarray(vt_a, dtype=float)
    b = np.asarray(vt_b, dtype=float)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros(0)
    if a.shape[0] > b.shape[0]:
        a, b = b, a
    residual = a - (a @ b.T) @ b
    sines = np.linalg.svd(residual, compute_uv=False)
    return np.clip(np.sort(sines), 0.0, 1.0)
