"""Dense low-rank kernels.

Embedding blocks are short and wide (features p up to a few hundred,
vocabulary n up to hundreds of thousands), so the truncated SVD of a
``p x n`` matrix is computed from the ``p x p`` Gram matrix: O(p^2 n + p^3)
work and never any ``n x n`` intermediate.  ``singular_values`` calls LAPACK
directly: the package passes it compressed blocks, at most P columns wide.
All arithmetic is double precision and sequential execution is run-to-run
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Accepted deviation from orthonormality for validated basis inputs.
ROW_ORTHO_TOL = 1e-8


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
    """Rank-``k`` SVD of a dense matrix via the small-side Gram matrix.

    Deterministic for a fixed input.  Singular values that fall below the
    Gram-trick resolution floor (sqrt(eps) relative to the largest) are
    reported as exactly zero and their right vectors are filled with a
    deterministic orthonormal completion, so ``Vt`` stays row-orthonormal
    even past the numerical rank.
    """
    m = _checked_matrix(matrix)
    p, n = m.shape
    if not 1 <= k <= min(p, n):
        raise ValueError(f"rank {k} out of range for a {p}x{n} matrix")
    u, s, vt = _gram_svd(m, k)
    return TruncatedSVD(U=u, S=s, Vt=vt)


def singular_values(matrix) -> np.ndarray:
    """All ``min(p, n)`` singular values, descending, from LAPACK: accurate to
    rounding relative to the largest, with no Gram-trick floor."""
    return np.linalg.svd(_checked_matrix(matrix), compute_uv=False)


def project_rows_off(matrix, vt) -> np.ndarray:
    """Project the rows of ``matrix`` off the row space spanned by ``vt``.

    ``vt`` must have (near-)orthonormal rows; an empty basis returns a copy.
    The projector is applied as ``M - (M vt') vt`` so no ``n x n`` matrix is
    formed.
    """
    m = _checked_matrix(matrix)
    basis = np.asarray(vt, dtype=float)
    if basis.ndim != 2 or basis.shape[1] != m.shape[1]:
        raise ValueError(f"dimension mismatch: matrix has {m.shape[1]} columns, basis has shape {basis.shape}")
    if basis.shape[0] == 0:
        return m.copy()
    gram = basis @ basis.T
    deviation = float(np.abs(gram - np.eye(basis.shape[0])).max())
    if deviation > ROW_ORTHO_TOL:
        raise ValueError(f"basis rows are not orthonormal (max deviation {deviation:.3e})")
    return m - (m @ basis.T) @ basis


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


def _gram_svd(m: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    p, n = m.shape
    if p > n:
        v, s, ut = _gram_svd(m.T, k)
        return ut.T, s, v.T
    gram = m @ m.T
    gram = (gram + gram.T) * 0.5
    evals, evecs = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(evals[::-1][:k], 0.0, None))
    u = np.ascontiguousarray(evecs[:, ::-1][:, :k])
    vt = _right_factor(m, u, s)
    return u, s, vt


def _right_factor(m: np.ndarray, u: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Rows ``(u_j' M) / s_j``, orthonormally completed where ``s_j`` is void."""
    vt = u.T @ m
    if s.size == 0:
        return vt
    # Below this floor the Gram eigenvalue is dominated by rounding in M M'.
    cutoff = s[0] * np.sqrt(max(m.shape) * np.finfo(float).eps)
    good = s > cutoff
    vt[good] /= s[good, None]
    if not good.all():
        s[~good] = 0.0
        _complete_rows(vt, int(good.sum()))
    return vt


def _complete_rows(vt: np.ndarray, start: int) -> None:
    """Overwrite ``vt[start:]`` with deterministic orthonormal rows orthogonal to ``vt[:start]``."""
    k, n = vt.shape
    for j in range(start, k):
        basis = vt[:j]
        col_energy = (basis**2).sum(axis=0) if j else np.zeros(n)
        for idx in np.argsort(col_energy, kind="stable"):
            residual = -basis.T @ basis[:, idx] if j else np.zeros(n)
            residual[idx] += 1.0
            if j:
                residual -= basis.T @ (basis @ residual)
            norm = float(np.linalg.norm(residual))
            if norm > 1e-6:
                vt[j] = residual / norm
                break
        else:
            raise NumericError("failed to complete an orthonormal basis")
