"""Matrix-primitive contracts: dominant eigenvectors, null spaces,
whitening filters, generalized Rayleigh quotients."""

import numpy as np
import pytest

from secsm.numerics import (NotHermitianError, NotPositiveDefiniteError,
                            canonical_phase, gen_max_eigvec,
                            max_eigvec_hermitian, null_space_basis,
                            unit_rows, whitening_matrix)

from helpers import (covariance, crandn_t, gen_max_eigvec_eig, quotient,
                     random_factor, random_search_max_ratio, rayleigh)


def hermitian(rng, n, ridge=0.0):
    A = crandn_t(rng, n, n)
    return A @ A.conj().T + ridge * np.eye(n)


def no_factor(n):
    """An n x 1 zero interference factor: the covariance is noise_var I."""
    return np.zeros((n, 1), dtype=complex)


class TestMaxEigvec:
    def test_identity_tie(self):
        v = max_eigvec_hermitian(np.eye(3))
        assert rayleigh(np.eye(3), v) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
        v2 = max_eigvec_hermitian(np.eye(3))
        np.testing.assert_array_equal(v, v2)

    def test_diagonal(self):
        A = np.diag([1.0, 5.0, 2.0])
        v = max_eigvec_hermitian(A)
        assert rayleigh(A, v) == pytest.approx(5.0, abs=1e-12)
        np.testing.assert_allclose(v, [0, 1, 0], atol=1e-12)

    def test_rank_one(self):
        rng = np.random.default_rng(7)
        x = crandn_t(rng, 4)
        x /= np.linalg.norm(x)
        A = np.outer(x, x.conj())
        v = max_eigvec_hermitian(A)
        assert rayleigh(A, v) == pytest.approx(1.0, abs=1e-10)
        assert abs(v.conj() @ x) == pytest.approx(1.0, abs=1e-10)

    def test_residual_and_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = hermitian(rng, int(rng.integers(2, 9)))
            v = max_eigvec_hermitian(A)
            lam = rayleigh(A, v)
            # the largest eigenvalue, not merely an eigenvalue
            assert lam == pytest.approx(np.linalg.eigvalsh(A)[-1], rel=1e-12)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
            assert np.linalg.norm(A @ v - lam * v) <= 1e-9 * np.linalg.norm(A)

    def test_canonical_phase(self):
        rng = np.random.default_rng(11)
        A = hermitian(rng, 5)
        v = max_eigvec_hermitian(A)
        j = np.argmax(np.abs(v))
        assert v[j].imag == pytest.approx(0.0, abs=1e-14)
        assert v[j].real > 0

    def test_rejects_non_hermitian(self):
        # the check is relative to the largest entry at any scale
        for scale in (1.0, 1e-13):
            with pytest.raises(NotHermitianError):
                max_eigvec_hermitian(scale * np.array([[1.0, 2.0],
                                                       [0.0, 1.0]]))
        with pytest.raises(NotHermitianError, match=r"square: shape \(2, 3"):
            max_eigvec_hermitian(np.ones((2, 3)))

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

    @pytest.mark.parametrize("B, message", [
        (np.ones(3), "expected a matrix, got ndim 1"),
        (np.ones((0, 2)), "at least one row"),
    ], ids=["vector", "zero-row"])
    def test_rejects_non_matrix(self, B, message):
        with pytest.raises(ValueError, match=message):
            null_space_basis(B)

    def test_stack_equals_single_calls(self):
        # one stacked SVD; each basis is the single call's bit for bit
        rng = np.random.default_rng(23)
        for n, m in ((6, 1), (6, 3), (4, 4), (5, 7)):
            B = crandn_t(rng, 3, 2, n, m)
            U = null_space_basis(B)
            assert U.shape == (3, 2, n, n - min(n, m))
            for idx in np.ndindex(3, 2):
                assert U[idx].tobytes() == null_space_basis(B[idx]).tobytes()
        zero = null_space_basis(np.zeros((2, 4, 2)))
        np.testing.assert_array_equal(zero, np.broadcast_to(np.eye(4),
                                                            (2, 4, 4)))

    def test_stack_ranks_must_agree(self):
        # a rank-1 matrix next to a rank-2 one: no common basis shape
        B = crandn_t(np.random.default_rng(29), 2, 4, 2)
        B[1, :, 1] = 2.0 * B[1, :, 0]
        with pytest.raises(ValueError, match="ranks 1 to 2 in one stack"):
            null_space_basis(B)

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
        W = whitening_matrix(no_factor(3), 4.0)
        np.testing.assert_allclose(W, 0.5 * np.eye(3), atol=1e-12)

    def test_diagonal(self):
        V = np.array([[0.0], [np.sqrt(3.0)]])  # R = diag(1, 4)
        W = whitening_matrix(V, 1.0)
        np.testing.assert_allclose(W, np.diag([1.0, 0.5]), atol=1e-12)

    def test_random_pd(self):
        rng = np.random.default_rng(23)
        V = crandn_t(rng, 6, 6)
        W = whitening_matrix(V, 0.1)
        R = covariance(V, 0.1)
        np.testing.assert_allclose(W @ R @ W.conj().T, np.eye(6), atol=1e-9)

    def test_identity_property_100(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            V, noise_var = random_factor(rng, n)
            W = whitening_matrix(V, noise_var)
            # the Hermitian inverse square root: W = W^H, W R W = I
            np.testing.assert_array_equal(W, W.conj().T)
            np.testing.assert_allclose(W @ covariance(V, noise_var) @ W,
                                       np.eye(n), atol=1e-9)

    def test_no_floor_at_extreme_interference(self):
        # interference 1e300 above the noise: a dense covariance fails
        # any relative floor, the factored one is exact
        V = np.array([[1e150], [0.0]])
        W = whitening_matrix(V, 1.0)
        np.testing.assert_allclose(W, np.diag([1e-150, 1.0]), rtol=1e-12,
                                   atol=0.0)

    def test_near_singular_rejected(self):
        x = np.array([[1.0], [0.0]])  # rank 1, eigenvalue 0
        for noise_var in (0.0, -1.0):
            with pytest.raises(NotPositiveDefiniteError):
                whitening_matrix(x, noise_var)


class TestGenMaxEigvec:
    def test_diag_num(self):
        num = np.diag([2.0, 1.0])
        v = gen_max_eigvec(num, no_factor(2), 1.0)
        assert quotient(num, np.eye(2), v) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(np.abs(v), [1, 0], atol=1e-10)

    def test_diag_den(self):
        V = np.array([[0.0], [np.sqrt(3.0)]])  # R = diag(1, 4)
        v = gen_max_eigvec(np.eye(2), V, 1.0)
        assert (quotient(np.eye(2), covariance(V, 1.0), v)
                == pytest.approx(1.0, abs=1e-12))
        np.testing.assert_allclose(np.abs(v), [1, 0], atol=1e-10)

    def test_random_vs_search_oracle(self):
        rng = np.random.default_rng(31)
        num = hermitian(rng, 4)
        V = crandn_t(rng, 4, 4)
        v = gen_max_eigvec(num, V, 0.5)
        ratio = quotient(num, covariance(V, 0.5), v)
        best = random_search_max_ratio(num, covariance(V, 0.5), rng,
                                       n_samples=100_000)
        assert ratio == pytest.approx(best, rel=1e-6)

    def test_matches_plain_eigensolver_when_den_identity(self):
        rng = np.random.default_rng(37)
        # the zero matrix too: both return eigh's last vector, e_5
        for A in [np.zeros((5, 5))] + [hermitian(rng, 5) for _ in range(20)]:
            v1 = max_eigvec_hermitian(A)
            v2 = gen_max_eigvec(A, no_factor(5), 1.0)
            lam1 = rayleigh(A, v1)
            assert (rayleigh(A, v2)
                    == pytest.approx(lam1, abs=1e-10 * max(1, lam1)))
            assert abs(v1.conj() @ v2) >= 1.0 - 1e-9

    def test_stationary_at_maximum(self):
        rng = np.random.default_rng(41)
        num = hermitian(rng, 4)
        V = crandn_t(rng, 4, 4)
        den = covariance(V, 0.3)
        v = gen_max_eigvec(num, V, 0.3)
        ratio = quotient(num, den, v)
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
        # R = diag(1, 1e-11, 1, 1)
        V = np.diag([1.0, 0.0, 1.0, 1.0])[:, [0, 2, 3]] * np.sqrt(1 - 1e-11)
        den = covariance(V, 1e-11)
        v = gen_max_eigvec(num, V, 1e-11)
        ratio = quotient(num, den, v)
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
                # R = Q diag(spread) Q^H = I + V V^H
                V = Q * np.sqrt(spread - 1.0)
                den = covariance(V, 1.0)
                num = hermitian(rng, n)
                v = gen_max_eigvec(num, V, 1.0)
                v_ref, _ = gen_max_eigvec_eig(num, den)
                worst = max(worst, 1.0 - abs(v.conj() @ v_ref))
        assert worst <= 1e-12

    def test_no_floor_at_extreme_interference(self):
        # jamming 1e300 above the noise along e_0: the maximizer nulls it
        V = np.array([[1e150], [0.0]])
        num = np.ones((2, 2))
        v = gen_max_eigvec(num, V, 1.0)
        assert abs(v[1]) == pytest.approx(1.0, abs=1e-12)
        assert (quotient(num, covariance(V, 1.0), v)
                == pytest.approx(1.0, rel=1e-12))

    def test_errors(self):
        with pytest.raises(NotPositiveDefiniteError):
            gen_max_eigvec(np.eye(2), np.zeros((2, 2)), 0.0)
        with pytest.raises(ValueError):
            gen_max_eigvec(np.eye(2), no_factor(3), 1.0)
        for scale in (1.0, 1e-12):
            with pytest.raises(ValueError, match="PSD"):
                gen_max_eigvec(scale * np.diag([1.0, -1.0]), no_factor(2),
                               1.0)


def test_common_scale_invariance():
    # no tolerance is absolute: scaling the inputs by c from 1e-30 to
    # 1e30 scales the eigenvalue by c and leaves every vector as it is
    rng = np.random.default_rng(59)
    A, num, V = hermitian(rng, 5), hermitian(rng, 5), crandn_t(rng, 5, 3)
    v_ref = max_eigvec_hermitian(A)
    g_ref = gen_max_eigvec(num, V, 0.5)
    lam_ref = rayleigh(A, v_ref)
    ratio_ref = quotient(num, covariance(V, 0.5), g_ref)
    for c in 10.0 ** np.arange(-30, 31, 5):
        v = max_eigvec_hermitian(c * A)
        np.testing.assert_allclose(v, v_ref, rtol=0.0, atol=1e-12)
        assert rayleigh(c * A, v) == pytest.approx(c * lam_ref, rel=1e-12)
        g = gen_max_eigvec(c * c * num, c * V, c * c * 0.5)
        np.testing.assert_allclose(g, g_ref, rtol=0.0, atol=1e-12)
        assert (quotient(c * c * num, covariance(c * V, c * c * 0.5), g)
                == pytest.approx(ratio_ref, rel=1e-12))


def test_unit_norm_everywhere():
    rng = np.random.default_rng(47)
    for _ in range(30):
        n = int(rng.integers(2, 8))
        v1 = max_eigvec_hermitian(hermitian(rng, n))
        v2 = gen_max_eigvec(hermitian(rng, n), crandn_t(rng, n, n), 0.4)
        assert abs(np.linalg.norm(v1) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(v2) - 1.0) <= 1e-12


class TestNoiseVarianceAxis:
    """Noise variances broadcast against the leading axes of V (and of
    num) like any stacked axis: a vector against one factor gives one row
    (or matrix) per variance, each bit for bit a single call's."""

    def test_rows_equal_single_calls(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            V, _ = random_factor(rng, n)
            num = hermitian(rng, n)
            noise_vars = 10.0 ** rng.uniform(-12, 6, int(rng.integers(1, 5)))
            W = whitening_matrix(V, noise_vars)
            vs = gen_max_eigvec(num, V, noise_vars)
            assert W.shape == (len(noise_vars), n, n)
            assert vs.shape == (len(noise_vars), n)
            for k, nv in enumerate(noise_vars):
                assert W[k].tobytes() == whitening_matrix(V, nv).tobytes()
                assert (vs[k].tobytes()
                        == gen_max_eigvec(num, V, nv).tobytes())

    def test_stacked_factors_equal_single_calls(self):
        # stacks of factors V and of numerators, broadcast against each
        # other and against a variance axis behind theirs: every slice is
        # a single call's
        rng = np.random.default_rng(73)
        for n, c in ((6, 3), (4, 1), (3, 5)):
            V = crandn_t(rng, 2, 3, n, c)
            num = np.array([hermitian(rng, n) for _ in range(3)])
            noise_vars = np.array([1e-3, 1.0, 40.0])
            W = whitening_matrix(V[:, :, None], noise_vars)
            vs = gen_max_eigvec(num[:, None], V[:, :, None], noise_vars)
            assert W.shape == (2, 3, 3, n, n) and vs.shape == (2, 3, 3, n)
            for p, r, k in np.ndindex(2, 3, 3):
                single = whitening_matrix(V[p, r], noise_vars[k])
                assert W[p, r, k].tobytes() == single.tobytes()
                single = gen_max_eigvec(num[r], V[p, r], noise_vars[k])
                assert vs[p, r, k].tobytes() == single.tobytes()
            # one variance adds no axis
            vs = gen_max_eigvec(num, V, 0.5)
            assert vs.shape == (2, 3, n)
            assert (vs[1, 2].tobytes()
                    == gen_max_eigvec(num[2], V[1, 2], 0.5).tobytes())

    def test_stacked_numerators_checked(self):
        V = crandn_t(np.random.default_rng(79), 2, 3, 2)
        num = np.array([np.eye(3), np.diag([1.0, -1.0, 1.0])])
        with pytest.raises(ValueError, match="not PSD: min eigenvalue -1"):
            gen_max_eigvec(num, V, np.array([1.0, 2.0]))

    def test_stacked_eigvecs_equal_single_calls(self):
        rng = np.random.default_rng(67)
        A = np.array([hermitian(rng, 5) for _ in range(4)])
        vs = max_eigvec_hermitian(A)
        assert vs.shape == (4, 5)
        for a, v in zip(A, vs):
            assert v.tobytes() == max_eigvec_hermitian(a).tobytes()

    def test_each_variance_checked(self):
        V = crandn_t(np.random.default_rng(71), 3, 2)
        for bad in ([1.0, 0.0], [np.inf, 1.0], [np.nan], [[1.0, -1.0]]):
            with pytest.raises(NotPositiveDefiniteError):
                whitening_matrix(V, np.array(bad))
            with pytest.raises(NotPositiveDefiniteError):
                gen_max_eigvec(np.eye(3), V, np.array(bad))

    def test_each_matrix_of_a_stack_checked(self):
        # each matrix against its own largest entry: a tiny non-Hermitian
        # one next to a large Hermitian one is still rejected
        A = np.array([1e6 * np.eye(2), 1e-6 * np.array([[1.0, 2.0],
                                                        [0.0, 1.0]])])
        with pytest.raises(NotHermitianError):
            max_eigvec_hermitian(A)


def canonical_phase_row(v):
    """The rotation of one vector, as canonical_phase computed it row by
    row: its first largest-magnitude entry made real and positive."""
    pivot = v[np.argmax(np.abs(v))]
    return v if pivot == 0.0 else v * (np.conj(pivot) / abs(pivot))


class TestRowsOfAStack:
    """canonical_phase and unit_rows take one pass over any leading axes,
    each row bit for bit a call on the row alone."""

    @staticmethod
    def stacks(rng):
        for shape in ((6,), (4, 6), (2, 3, 5), (3, 1), (1, 1, 8)):
            scale = 10.0 ** rng.uniform(-150, 150)
            v = scale * crandn_t(rng, *shape)
            yield v
            # rows that are strided views, as eigh's last columns are
            yield np.swapaxes(scale * crandn_t(rng, *shape, shape[-1]),
                              -1, -2)[..., -1]

    def test_rows_equal_row_by_row(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            for v in self.stacks(rng):
                rows = v.reshape(-1, v.shape[-1])
                ref = np.array([canonical_phase_row(x) for x in rows])
                assert (canonical_phase(v).tobytes()
                        == ref.reshape(v.shape).tobytes())
                ref = np.array([x / np.linalg.norm(x) for x in rows])
                assert unit_rows(v).tobytes() == ref.reshape(v.shape).tobytes()

    def test_pivot_rules(self):
        v = np.array([[1.0 + 1.0j, -3.0, 2.0j],  # negative real largest
                      [2.0, 2.0j, -2.0],          # three tied magnitudes
                      [0.0, 0.0, 0.0],            # no pivot: unchanged
                      [1.0j, 0.5, -0.5]])
        out = canonical_phase(v)
        for row, ref in zip(out, (canonical_phase_row(x) for x in v)):
            assert row.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(out[0], [-1.0 - 1.0j, 3.0, -2.0j])
        # a tie goes to the first entry, which is already real positive
        np.testing.assert_array_equal(out[1], v[1])
        np.testing.assert_array_equal(out[2], v[2])
        np.testing.assert_array_equal(out[3], [1.0, -0.5j, 0.5j])
        assert canonical_phase(v[0]).tobytes() == out[0].tobytes()
