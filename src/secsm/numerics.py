"""Dense complex-matrix primitives shared by the beamformer constructions.

Dominant Hermitian eigenvectors, null-space bases, noise-whitening filters
and generalized Rayleigh-quotient maximizers, all on small dense matrices.
A covariance noise_var I + V V^H is passed as its factor V and noise_var.
A vector of noise variances against the one V gives one row (or matrix)
per variance, and stacked inputs (leading axes) give one per matrix, each
equal to a single call bit for bit. Every returned eigenvector is unit
norm with a canonical phase (largest entry real positive) so downstream
Monte-Carlo runs reproduce bit-for-bit. Every tolerance is relative to
the input's own scale (its largest entry, eigenvalue or singular value),
so results do not depend on a common scale of the inputs.
"""

import numpy as np

# Singular values at or below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian to working precision."""


class NotPositiveDefiniteError(ValueError):
    """Interference-plus-noise covariance noise_var I + V V^H is singular:
    its noise variance is not positive."""


def _check_finite(A, name):
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains NaN or Inf entries")


def conj_transpose(A):
    """A^H of a matrix or of each matrix in a stack."""
    return np.swapaxes(A.conj(), -1, -2)


def _check_hermitian(A, name="matrix"):
    """A as a complex128 array, symmetrized to 0.5 (A + A^H) after
    checking that it is finite, square and Hermitian: entrywise to 1e-12
    of its largest entry. A may be a stack of matrices, each checked
    against its own largest entry."""
    A = np.asarray(A, dtype=np.complex128)
    _check_finite(A, name)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise NotHermitianError(f"{name} is not square: shape {A.shape}")
    AH = conj_transpose(A)
    asym = np.abs(A - AH).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > 1e-12 * np.abs(A).max(axis=(-2, -1), initial=0.0)):
        raise NotHermitianError(
            f"{name} is not Hermitian: max |A - A^H| = {asym.max():.3e}")
    return 0.5 * (A + AH)


def canonical_phase(v):
    """Rotate v so its largest-magnitude entry (the first of a tie) is
    real and positive; each row of a stack as a call on it alone would."""
    at = np.abs(v).argmax(axis=-1)
    pivot = v.reshape(-1, v.shape[-1])[np.arange(at.size),
                                       at.ravel()].reshape(at.shape + (1,))
    # the scalar abs(pivot) is hypot; the array np.abs may round otherwise
    mag = np.hypot(pivot.real, pivot.imag)
    rot = np.conj(pivot) / np.where(mag > 0.0, mag, 1.0)
    return np.where(mag > 0.0, v * rot, v)


def unit_rows(v):
    """v / ||v||, each row of a stack by its own norm, as np.linalg.norm
    computes a vector's: sqrt(Re.Re + Im.Im) from two BLAS dot products."""
    v = np.ascontiguousarray(v)
    re, im = v.real, v.imag
    norm = np.sqrt(re[..., None, :] @ re[..., :, None]
                   + im[..., None, :] @ im[..., :, None])
    return v / norm[..., 0]


def max_eigvec_hermitian(A):
    """Dominant eigenvector of a Hermitian matrix.

    Returns v with ||v|| = 1 and A v = lam v for the largest eigenvalue
    lam: eigh's last eigenvector, the one gen_max_eigvec takes too, in
    canonical phase. There is no tie rule: a repeated top eigenvalue
    gives the vector eigh puts last. For an S x n x n stack, one stacked
    eigh gives an S x n stack of vectors.
    """
    _, vecs = np.linalg.eigh(_check_hermitian(A))
    return unit_rows(canonical_phase(vecs[..., -1]))


def null_space_basis(B):
    """Orthonormal basis of the orthogonal complement of the columns of B.

    For an n x m input the result U is n x k with U^H B = 0 and
    k = n - rank(B), the rank determined by singular values above
    RANK_RTOL * sigma_max. A zero (or empty) B yields the identity basis;
    a full-row-rank B yields an empty n x 0 basis, which callers must
    treat as an infeasible constraint. A stack of matrices of one rank
    gives a stack of bases from one stacked SVD.
    """
    B = np.asarray(B, dtype=np.complex128)
    _check_finite(B, "null-space input")
    if B.ndim < 2:
        raise ValueError(f"expected a matrix, got ndim {B.ndim}")
    n = B.shape[-2]
    if n < 1:
        raise ValueError("matrix must have at least one row")
    if B.shape[-1] == 0 or not np.any(B):
        return np.zeros(B.shape[:-2] + (1, 1)) + np.eye(n, dtype=complex)
    U, s, _ = np.linalg.svd(B, full_matrices=True)
    rank = np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)
    if np.any(rank != rank.flat[0]):
        raise ValueError(f"ranks {rank.min()} to {rank.max()} in one stack")
    return np.ascontiguousarray(U[..., rank.flat[0]:])


def _interference_factor(V, noise_var):
    """(Q, t) with noise_var I + V V^H = Q diag(t^2) Q^H: Q is the unitary
    of the full SVD of V and t = sqrt(noise_var + s^2), its singular
    values s zero-padded to n entries. A vector of noise variances gives
    t a row per variance and Q a length-1 axis there. The covariance is
    positive definite exactly when noise_var > 0, the only check."""
    V = np.asarray(V, dtype=np.complex128)
    _check_finite(V, "interference factor")
    nv = np.asarray(noise_var, dtype=np.float64)
    if nv.ndim > 1 or not np.all((0.0 < nv) & (nv < np.inf)):
        raise NotPositiveDefiniteError(
            f"noise variance must be positive and finite, got {noise_var!r}: "
            f"noise_var I + V V^H is singular")
    Q, s, _ = np.linalg.svd(V, full_matrices=True)
    padded = np.zeros(Q.shape[:-1])
    padded[..., :s.shape[-1]] = s
    if nv.ndim:
        Q, padded = Q[..., None, :, :], padded[..., None, :]
    return Q, np.hypot(np.sqrt(nv)[..., None], padded)


def whitening_matrix(V, noise_var):
    """Hermitian whitening filter W = R^{-1/2} of R = noise_var I + V V^H.

    With V = Q S and sigma^2 = noise_var, W = sigma^{-1} (I - Q diag(1 -
    (1 + s^2 / sigma^2)^{-1/2}) Q^H) = Q diag(1 / t) Q^H, formed as the
    latter so that no eigenvalue is lost to cancellation. Exact at any
    noise_var > 0; raises NotPositiveDefiniteError otherwise. A vector
    of S noise variances gives an S x n x n stack of filters.
    """
    Q, t = _interference_factor(V, noise_var)
    W = (Q / t[..., None, :]) @ conj_transpose(Q)
    return 0.5 * (W + conj_transpose(W))


def gen_max_eigvec(num, V, noise_var):
    """Unit vector maximizing the generalized Rayleigh quotient.

    Maximizes (v^H num v) / (v^H R v) for Hermitian PSD num and
    R = noise_var I + V V^H; returns v with ||v|| = 1 and canonical
    phase. With R = L L^H for the factor L = Q diag(t) of
    _interference_factor, v is L^{-H} w for the dominant
    eigenvector w of L^{-1} num L^{-H}, reduced with the scale-free
    min(t) L^{-1} = diag(min(t) / t) Q^H. num is PSD when its smallest
    eigenvalue is at least -1e-10 times its largest in magnitude.

    A vector of S noise variances gives an S x n stack of vectors from
    one SVD, one check of num and one stacked eigh; stacks of num and V
    broadcast, each num checked once.
    """
    num = _check_hermitian(num, "numerator")
    Q, t = _interference_factor(V, noise_var)
    if num.shape[-1] != Q.shape[-1]:
        raise ValueError(f"dimension mismatch: numerator {num.shape}, "
                         f"factor {np.shape(V)}")
    nvals = np.linalg.eigvalsh(num)
    if np.any(nvals[..., 0] < -1e-10 * abs(nvals[..., -1])):
        raise ValueError(f"numerator is not PSD: min eigenvalue "
                         f"{nvals[..., 0].min():.3e}")

    G = (t.min(axis=-1, keepdims=True) / t)[..., :, None] * conj_transpose(Q)
    GH = conj_transpose(G)
    C = G @ (num[..., None, :, :] if np.ndim(noise_var) else num) @ GH
    _, vecs = np.linalg.eigh(0.5 * (C + conj_transpose(C)))
    return unit_rows(canonical_phase((GH @ vecs[..., -1:])[..., 0]))
