"""Matrix-primitive contracts: dominant eigenvectors, null spaces,
whitening filters, generalized Rayleigh quotients."""

import numpy as np
import pytest

from secsm.numerics import (NotHermitianError, NotPositiveDefiniteError,
                            gen_max_eigvec, max_eigvec_hermitian,
                            null_space_basis, whitening_matrix)

from helpers import (crandn_t, gen_max_eigvec_eig, quotient,
                     random_search_max_ratio)


def hermitian(rng, n, ridge=0.0):
    A = crandn_t(rng, n, n)
    return A @ A.conj().T + ridge * np.eye(n)


class TestMaxEigvec:
    def test_identity_tie(self):
        v, lam = max_eigvec_hermitian(np.eye(3))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        v2, _ = max_eigvec_hermitian(np.eye(3))
        np.testing.assert_array_equal(v, v2)

    def test_diagonal(self):
        v, lam = max_eigvec_hermitian(np.diag([1.0, 5.0, 2.0]))
        assert lam == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_allclose(v, [0, 1, 0], atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(7)
        x = crandn_t(rng, 4)
        x /= np.linalg.norm(x)
        v, lam = max_eigvec_hermitian(np.outer(x, x.conj()))
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert abs(v.conj() @ x) == pytest.approx(1.0, abs=1e-10)

    def test_residual_and_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = hermitian(rng, int(rng.integers(2, 9)))
            v, lam = max_eigvec_hermitian(A)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.linalg.norm(A @ v - lam * v) <= 1e-9 * np.linalg.norm(A)

    def test_canonical_phase(self):
        rng = np.random.default_rng(11)
        A = hermitian(rng, 5)
        v, _ = max_eigvec_hermitian(A)
        j = np.argmax(np.abs(v))
        assert v[j].imag == pytest.approx(0.0, abs=1e-14)
        assert v[j].real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            max_eigvec_hermitian(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        A = np.eye(3, dtype=complex)
        A[0, 0] = np.nan
        with pytest.raises(ValueError):
            max_eigvec_hermitian(A)


class TestNullSpace:
    def test_coordinate_vector(self):
        U = null_space_basis(np.array([[1.0], [0.0], [0.0]]))
        assert U.shape == (3, 2)
        np.testing.assert_allclose(U[0, :], 0, atol=1e-12)
        np.testing.assert_allclose(U.conj().T @ U, np.eye(2), atol=1e-12)

    def test_full_rank_empty(self):
        U = null_space_basis(np.eye(3))
        assert U.shape == (3, 0)

    def test_zero_matrix_identity(self):
        U = null_space_basis(np.zeros((4, 2)))
        np.testing.assert_array_equal(U, np.eye(4))

    def test_random_tall(self):
        rng = np.random.default_rng(5)
        B = crandn_t(rng, 4, 2)
        U = null_space_basis(B)
        assert U.shape == (4, 2)
        assert (np.linalg.norm(U.conj().T @ B)
                <= 1e-10 * np.linalg.norm(B))

    def test_property_suite(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 2))
            B = crandn_t(rng, n, m)
            U = null_space_basis(B)
            k = U.shape[1]
            assert k == n - min(n, m)
            np.testing.assert_allclose(U.conj().T @ U, np.eye(k), atol=1e-10)
            assert (np.linalg.norm(U.conj().T @ B)
                    <= 1e-10 * np.linalg.norm(B))


class TestWhitening:
    def test_scaled_identity(self):
        W = whitening_matrix(4.0 * np.eye(3))
        np.testing.assert_allclose(W @ (4.0 * np.eye(3)) @ W.conj().T,
                                   np.eye(3), atol=1e-12)

    def test_diagonal(self):
        R = np.diag([1.0, 4.0])
        W = whitening_matrix(R)
        np.testing.assert_allclose(W @ R @ W.conj().T, np.eye(2), atol=1e-12)

    def test_random_pd(self):
        rng = np.random.default_rng(23)
        R = hermitian(rng, 6, ridge=0.1)
        W = whitening_matrix(R)
        np.testing.assert_allclose(W @ R @ W.conj().T, np.eye(6), atol=1e-9)

    def test_identity_property_100(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            R = hermitian(rng, n, ridge=float(rng.uniform(0.01, 1.0)))
            W = whitening_matrix(R)
            np.testing.assert_allclose(W @ R @ W.conj().T, np.eye(n),
                                       atol=1e-9)

    def test_near_singular_rejected(self):
        x = np.array([1.0, 0.0])
        R = np.outer(x, x)  # rank 1, eigenvalue 0
        with pytest.raises(NotPositiveDefiniteError):
            whitening_matrix(R)


class TestGenMaxEigvec:
    def test_diag_num(self):
        v, ratio = gen_max_eigvec(np.diag([2.0, 1.0]), np.eye(2))
        assert ratio == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), [1, 0], atol=1e-10)

    def test_diag_den(self):
        v, ratio = gen_max_eigvec(np.eye(2), np.diag([1.0, 4.0]))
        assert ratio == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), [1, 0], atol=1e-10)

    def test_random_vs_search_oracle(self):
        rng = np.random.default_rng(31)
        num = hermitian(rng, 4)
        den = hermitian(rng, 4, ridge=0.5)
        v, ratio = gen_max_eigvec(num, den)
        best = random_search_max_ratio(num, den, rng, n_samples=100_000)
        assert ratio == pytest.approx(best, rel=1e-6)

    def test_matches_plain_eigensolver_when_den_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            A = hermitian(rng, 5)
            v1, lam1 = max_eigvec_hermitian(A)
            v2, lam2 = gen_max_eigvec(A, np.eye(5))
            assert lam2 == pytest.approx(lam1, abs=1e-10 * max(1, lam1))
            assert abs(v1.conj() @ v2) >= 1.0 - 1e-9

    def test_stationary_at_maximum(self):
        rng = np.random.default_rng(41)
        num = hermitian(rng, 4)
        den = hermitian(rng, 4, ridge=0.3)
        v, ratio = gen_max_eigvec(num, den)
        for _ in range(50):
            w = crandn_t(rng, 4)
            w = w - (v.conj() @ w) * v
            w /= np.linalg.norm(w)
            for eps in (1e-4, 1e-3):
                p = v + eps * w
                assert quotient(num, den, p / np.linalg.norm(p)) \
                    <= ratio + 1e-9 * ratio

    def test_ill_conditioned_denominator(self):
        rng = np.random.default_rng(43)
        num = hermitian(rng, 4)
        den = np.diag([1.0, 1e-11, 1.0, 1.0]) + 0j
        v, ratio = gen_max_eigvec(num, den)
        assert np.isfinite(ratio) and ratio > 0
        best = random_search_max_ratio(num, den, rng, n_samples=50_000)
        assert ratio >= best - 1e-6 * abs(best)

    def test_matches_pencil_oracle_across_conditioning(self):
        # 100 pencils per decade of denominator condition 1 .. 1e10. Only
        # the vectors are compared: at high condition the Rayleigh
        # quotient amplifies rounding in an equally good vector.
        rng = np.random.default_rng(53)
        worst = 0.0
        for decade in range(11):
            for _ in range(100):
                n = int(rng.integers(2, 9))
                Q, _ = np.linalg.qr(crandn_t(rng, n, n))
                spread = np.logspace(0.0, decade, n)
                den = (Q * spread) @ Q.conj().T
                den = 0.5 * (den + den.conj().T)
                num = hermitian(rng, n)
                v, _ = gen_max_eigvec(num, den)
                v_ref, _ = gen_max_eigvec_eig(num, den)
                worst = max(worst, 1.0 - abs(v.conj() @ v_ref))
        assert worst <= 1e-12

    def test_errors(self):
        with pytest.raises(NotPositiveDefiniteError):
            gen_max_eigvec(np.eye(2), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            gen_max_eigvec(np.eye(2), np.eye(3))
        with pytest.raises(ValueError, match="PSD"):
            gen_max_eigvec(np.diag([1.0, -1.0]), np.eye(2))


def test_unit_norm_everywhere():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        v1, _ = max_eigvec_hermitian(hermitian(rng, n))
        v2, _ = gen_max_eigvec(hermitian(rng, n), hermitian(rng, n, ridge=0.4))
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(v2) - 1.0) <= 1e-12
