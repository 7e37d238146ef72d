import numpy as np
import pytest

from embedjive.linalg import (
    NumericError,
    principal_angle_sines,
    truncated_svd,
)
from embedjive.synthetic import project_rows_off


def jacobi_gram_eigvals(gram, sweeps=60):
    """Cyclic Jacobi eigenvalues of a symmetric matrix, coded independently of
    the library under test."""
    a = np.array(gram, dtype=float)
    n = a.shape[0]
    scale = np.linalg.norm(a)
    for _ in range(sweeps):
        off = np.sqrt(max(np.sum(a**2) - np.sum(np.diag(a) ** 2), 0.0))
        if off <= 1e-15 * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = 1.0 if theta == 0.0 else np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0))
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rows_p = c * a[p, :] - s * a[q, :]
                rows_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rows_p, rows_q
                cols_p = c * a[:, p] - s * a[:, q]
                cols_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = cols_p, cols_q
    return np.sort(np.diag(a))[::-1]


class TestTruncatedSVD:
    def test_identity_rank_one(self):
        t = truncated_svd(np.eye(2), 1)
        np.testing.assert_allclose(t.S, [1.0], atol=1e-12)

    def test_analytic_rank_one(self):
        t = truncated_svd(np.array([[1.0, 2.0], [2.0, 4.0]]), 1)
        np.testing.assert_allclose(t.S, [5.0], atol=1e-12)

    def test_against_jacobi_gram_oracle(self, rng):
        m = rng.standard_normal((8, 50))
        t = truncated_svd(m, 8)
        assert np.abs(t.compose() - m).max() <= 1e-10
        oracle = np.sqrt(np.clip(jacobi_gram_eigvals(m @ m.T), 0.0, None))
        np.testing.assert_allclose(t.S, oracle, atol=1e-10)

    def test_orthonormal_factors(self, rng):
        for p, n in [(5, 40), (40, 5), (7, 7)]:
            m = rng.standard_normal((p, n))
            k = min(p, n)
            t = truncated_svd(m, k)
            assert np.abs(t.U.T @ t.U - np.eye(k)).max() < 1e-10
            assert np.abs(t.Vt @ t.Vt.T - np.eye(k)).max() < 1e-10
            assert (np.diff(t.S) <= 1e-12).all() and (t.S >= 0).all()
            assert (t.U[np.abs(t.U).argmax(axis=0), np.arange(k)] > 0).all()

    def test_rank_deficient_completion(self, rng):
        u = rng.standard_normal((6, 2))
        v = rng.standard_normal((2, 30))
        m = u @ v
        t = truncated_svd(m, 5)
        assert np.abs(t.Vt @ t.Vt.T - np.eye(5)).max() < 1e-10
        assert (t.S[2:] <= 1e-14 * t.S[0]).all()
        assert np.abs(t.compose() - m).max() <= 1e-12 * np.abs(m).max()

    def test_zero_matrix(self):
        t = truncated_svd(np.zeros((3, 9)), 2)
        assert (t.S == 0.0).all()
        assert np.abs(t.Vt @ t.Vt.T - np.eye(2)).max() < 1e-12

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ValueError, match="out of range"):
            truncated_svd(np.eye(3), 0)

    def test_non_finite(self):
        with pytest.raises(NumericError):
            truncated_svd(np.array([[1.0, np.inf]]), 1)

    def test_matches_lapack_bidiagonalization(self, rng):
        for _ in range(10):
            p, n = rng.integers(2, 21, size=2)
            m = rng.standard_normal((p, n))
            ours = truncated_svd(m, int(min(p, n))).S
            lapack = np.linalg.svd(m, compute_uv=False)
            np.testing.assert_allclose(ours, lapack, atol=1e-8)


class TestLowRankApprox:
    def test_exact_rank_recovery(self, rng):
        m = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 20))
        assert np.abs(truncated_svd(m, 2).compose() - m).max() <= 1e-10

    def test_tail_energy_against_svd_oracle(self, rng):
        m = rng.standard_normal((10, 30))
        approx = truncated_svd(m, 3).compose()
        tail = np.linalg.svd(m, compute_uv=False)[3:]
        assert abs(np.sum((m - approx) ** 2) - np.sum(tail**2)) <= 1e-9

    def test_eckart_young(self, rng):
        m = rng.standard_normal((8, 25))
        for k in (1, 3, 6):
            best = np.linalg.norm(m - truncated_svd(m, k).compose())
            for _ in range(20):
                competitor = rng.standard_normal((8, k)) @ rng.standard_normal((k, 25))
                assert best <= np.linalg.norm(m - competitor) + 1e-12


class TestProjectRowsOff:
    def test_full_space_gives_zero(self, rng):
        m = rng.standard_normal((3, 4))
        vt = np.linalg.qr(rng.standard_normal((4, 4)))[0].T
        assert np.abs(project_rows_off(m, vt)).max() < 1e-12

    def test_fixed_point(self, rng):
        vt = np.linalg.qr(rng.standard_normal((30, 3)))[0].T
        m = rng.standard_normal((5, 30))
        orth = m - (m @ vt.T) @ vt
        np.testing.assert_allclose(project_rows_off(orth, vt), orth, atol=1e-12)

    def test_idempotent(self, rng):
        vt = np.linalg.qr(rng.standard_normal((40, 4)))[0].T
        m = rng.standard_normal((6, 40))
        once = project_rows_off(m, vt)
        twice = project_rows_off(once, vt)
        assert np.abs(twice - once).max() < 1e-12

    def test_result_orthogonal_to_basis(self, rng):
        vt = np.linalg.qr(rng.standard_normal((50, 5)))[0].T
        m = rng.standard_normal((7, 50))
        out = project_rows_off(m, vt)
        assert np.abs(out @ vt.T).max() <= 1e-10 * np.linalg.norm(m)

    def test_empty_basis(self, rng):
        m = rng.standard_normal((3, 8))
        np.testing.assert_array_equal(project_rows_off(m, np.zeros((0, 8))), m)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            project_rows_off(rng.standard_normal((3, 8)), np.zeros((1, 9)))

    def test_non_orthonormal_basis(self, rng):
        with pytest.raises(ValueError, match="not orthonormal"):
            project_rows_off(rng.standard_normal((3, 8)), rng.standard_normal((2, 8)))


def test_singular_values_resolve_small_values(rng):
    # A route through the Gram matrix squares the values, so anything below
    # sqrt(eps) of the largest would come back as 0 or with a relative error
    # of 1e-5.
    s = np.array([1.0, 0.5, 1e-6, 1e-10])
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    vt = np.linalg.qr(rng.standard_normal((30, 4)))[0].T
    m = (u * s) @ vt
    sv = truncated_svd(m, 4).S
    assert np.abs(sv - s).max() <= 1e-14
    assert abs(sv[-1] - 1e-10) <= 1e-4 * 1e-10


def test_principal_angle_sines(rng):
    q = np.linalg.qr(rng.standard_normal((50, 6)))[0]
    a, b = q[:, :3].T, q[:, 3:].T
    np.testing.assert_allclose(principal_angle_sines(a, a), np.zeros(3), atol=1e-10)
    np.testing.assert_allclose(principal_angle_sines(a, b), np.ones(3), atol=1e-10)
    from scipy.linalg import subspace_angles

    mixed = np.linalg.qr(rng.standard_normal((50, 4)))[0].T
    expected = np.sort(np.sin(subspace_angles(mixed.T, a.T)))
    np.testing.assert_allclose(np.sort(principal_angle_sines(mixed, a)), expected, atol=1e-10)
