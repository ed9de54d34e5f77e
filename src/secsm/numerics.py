"""Dense complex-matrix primitives shared by the beamformer constructions.

Dominant Hermitian eigenvectors, null-space bases, noise-whitening filters
and generalized Rayleigh-quotient maximizers, all on small dense matrices.
Every returned eigenvector is unit norm with a canonical phase (largest
entry real positive) so downstream Monte-Carlo runs reproduce bit-for-bit.
"""

import numpy as np

# Eigenvalues closer than this to the maximum are treated as tied when
# picking the dominant eigenvector.
EIG_TIE_GAP = 1e-10
# Singular values at or below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-10


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian to working precision."""


class NotPositiveDefiniteError(ValueError):
    """Covariance-like matrix has an eigenvalue at or below the PD floor."""


def pd_floor(R):
    """Scale-relative positive-definiteness threshold for a covariance R."""
    n = R.shape[0]
    return 1e-12 * float(np.real(np.trace(R))) / n


def _check_finite(A, name):
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains NaN or Inf entries")


def _check_hermitian(A, name="matrix"):
    """A as a complex128 array, symmetrized to 0.5 (A + A^H) after
    checking that it is finite, square and Hermitian to 1e-12."""
    A = np.asarray(A, dtype=np.complex128)
    _check_finite(A, name)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotHermitianError(f"{name} is not square: shape {A.shape}")
    # 1e-12 entrywise, relative to the entry scale for matrices far from
    # unit magnitude.
    scale = max(1.0, float(np.max(np.abs(A)))) if A.size else 1.0
    asym = float(np.max(np.abs(A - A.conj().T))) if A.size else 0.0
    if asym > 1e-12 * scale:
        raise NotHermitianError(
            f"{name} is not Hermitian: max |A - A^H| = {asym:.3e} "
            f"exceeds {1e-12 * scale:.3e}")
    return 0.5 * (A + A.conj().T)


def canonical_phase(v):
    """Rotate v so its largest-magnitude entry is real and positive."""
    j = int(np.argmax(np.abs(v)))
    pivot = v[j]
    if abs(pivot) == 0.0:
        return v
    return v * (np.conj(pivot) / abs(pivot))


def max_eigvec_hermitian(A):
    """Dominant eigenpair of a Hermitian matrix.

    Returns (v, lam) with ||v|| = 1 and A v = lam v for the largest
    eigenvalue lam. The phase of v is canonical; when the top eigenvalue
    is tied (gap below EIG_TIE_GAP) the lowest-index vector of the
    decomposition is returned, which keeps the output deterministic.
    """
    A = _check_hermitian(A)
    vals, vecs = np.linalg.eigh(A)
    lam = float(vals[-1])
    tied = np.nonzero(vals >= lam - EIG_TIE_GAP)[0]
    v = canonical_phase(vecs[:, tied[0]])
    return v / np.linalg.norm(v), lam


def null_space_basis(B):
    """Orthonormal basis of the orthogonal complement of the columns of B.

    For an n x m input the result U is n x k with U^H B = 0 and
    k = n - rank(B), the rank determined by singular values above
    RANK_RTOL * sigma_max. A zero (or empty) B yields the identity basis;
    a full-row-rank B yields an empty n x 0 basis, which callers must
    treat as an infeasible constraint.
    """
    B = np.asarray(B, dtype=np.complex128)
    _check_finite(B, "null-space input")
    if B.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim {B.ndim}")
    n = B.shape[0]
    if n < 1:
        raise ValueError("matrix must have at least one row")
    if B.shape[1] == 0 or not np.any(B):
        return np.eye(n, dtype=np.complex128)
    U, s, _ = np.linalg.svd(B, full_matrices=True)
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0]))
    return np.ascontiguousarray(U[:, rank:])


def whitening_matrix(R):
    """Whitening filter W with W R W^H = I for a positive definite R.

    W = Lam^{-1/2} U^H from the eigen-decomposition R = U Lam U^H.
    Raises NotPositiveDefiniteError when any eigenvalue falls at or below
    the scale-relative floor (degenerate noise covariance).
    """
    R = _check_hermitian(R, "covariance")
    vals, vecs = np.linalg.eigh(R)
    floor = pd_floor(R)
    if vals[0] <= floor:
        raise NotPositiveDefiniteError(
            f"covariance is near-singular: min eigenvalue {vals[0]:.3e} "
            f"at or below floor {floor:.3e}")
    return (vecs / np.sqrt(vals)).conj().T


def gen_max_eigvec(num, den):
    """Unit vector maximizing the generalized Rayleigh quotient.

    Maximizes (v^H num v) / (v^H den v) for Hermitian PSD num and
    Hermitian PD den; returns (v, ratio) with ||v|| = 1, canonical phase,
    and ratio the achieved maximum. With den = L L^H (Cholesky), v is
    L^{-H} w for the dominant eigenvector w of the Hermitian matrix
    L^{-1} num L^{-H}.
    """
    num = _check_hermitian(num, "numerator")
    den = _check_hermitian(den, "denominator")
    if num.shape != den.shape:
        raise ValueError(
            f"dimension mismatch: numerator {num.shape}, denominator {den.shape}")

    nvals = np.linalg.eigvalsh(num)
    nscale = max(1.0, float(abs(nvals[-1])))
    if nvals[0] < -1e-10 * nscale:
        raise ValueError(
            f"numerator is not PSD: min eigenvalue {nvals[0]:.3e}")
    dvals = np.linalg.eigvalsh(den)
    if dvals[0] <= pd_floor(den):
        raise NotPositiveDefiniteError(
            f"denominator is not positive definite: min eigenvalue "
            f"{dvals[0]:.3e}")

    L = np.linalg.cholesky(den)
    C = np.linalg.solve(L, np.linalg.solve(L, num).conj().T).conj().T
    _, vecs = np.linalg.eigh(0.5 * (C + C.conj().T))
    v = np.linalg.solve(L.conj().T, vecs[:, -1])
    v = canonical_phase(v)
    v = v / np.linalg.norm(v)
    ratio = float(np.real(v.conj() @ num @ v) / np.real(v.conj() @ den @ v))
    return v, ratio
