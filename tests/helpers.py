"""Shared test oracles, implemented independently of the library paths
they validate (random search instead of eigensolvers, quadrature instead
of Monte-Carlo)."""

import numpy as np


def crandn_t(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))


def quotient(num, den, v):
    return float(np.real(v.conj() @ num @ v) / np.real(v.conj() @ den @ v))


def random_search_max_ratio(num, den, rng, n_samples=100_000, basis=None,
                            refine=True):
    """Best generalized Rayleigh quotient found by random unit vectors.

    Optionally restricted to span(basis); `refine` follows the best
    sample with a shrinking-radius local search. Returns the best ratio.
    """
    dim = num.shape[0] if basis is None else basis.shape[1]

    def lift(V):
        return V if basis is None else V @ basis.T

    best_q = -np.inf
    best_v = None
    for start in range(0, n_samples, 20_000):
        V = lift(crandn_t(rng, min(20_000, n_samples - start), dim))
        nq = np.einsum("ij,jk,ik->i", V.conj(), num, V).real
        dq = np.einsum("ij,jk,ik->i", V.conj(), den, V).real
        q = nq / dq
        k = int(np.argmax(q))
        if q[k] > best_q:
            best_q = float(q[k])
            best_v = V[k] / np.linalg.norm(V[k])
    if refine:
        radius = 0.5
        sub_dim = dim
        coeff = None
        for _ in range(80):
            if basis is None:
                V = best_v + radius * crandn_t(rng, 64, sub_dim)
            else:
                # stay inside span(basis)
                if coeff is None:
                    coeff = basis.conj().T @ best_v
                V = lift(coeff + radius * crandn_t(rng, 64, sub_dim))
            nq = np.einsum("ij,jk,ik->i", V.conj(), num, V).real
            dq = np.einsum("ij,jk,ik->i", V.conj(), den, V).real
            q = nq / dq
            k = int(np.argmax(q))
            if q[k] > best_q:
                best_q = float(q[k])
                best_v = V[k] / np.linalg.norm(V[k])
                coeff = None if basis is None else basis.conj().T @ best_v
            else:
                radius *= 0.8
    return best_q


def bpsk_mi_quadrature(d, n_nodes=201):
    """BPSK mutual information over the whitened scalar channel.

    d is the whitened distance between the two hypotheses (2|g| for
    symbols +-g). Gauss-Hermite quadrature of
    1 - E_x[log2(1 + exp(-d^2 - 2 d x))] with x ~ N(0, 1/2), the real
    noise component along the signal axis.
    """
    nodes, weights = np.polynomial.hermite.hermgauss(n_nodes)
    f = np.log2(1.0 + np.exp(-d * d - 2.0 * d * nodes))
    return 1.0 - float(weights @ f) / np.sqrt(np.pi)


def ber_counts_per_trial(beamformer, chset, cfg, codebook, n_trials, rng):
    """Sample-level BER reference: one modulation.receive and one
    metrics.ml_detect per trial, bit errors by popcount of the labels.

    Returns (uses, bit_errors, squared_error_sum) like
    metrics._ber_counts, from a different draw order.
    """
    from secsm.metrics import ml_detect
    from secsm.modulation import receive

    labels = codebook.labels
    errors = 0
    squared = 0
    for _ in range(n_trials):
        idx = int(rng.integers(codebook.size))
        sample = receive(codebook, idx, chset, cfg, rng)
        detected = ml_detect(sample.y_bob, beamformer, chset, cfg)
        e = int(labels[idx] ^ labels[detected]).bit_count()
        errors += e
        squared += e * e
    return n_trials, errors, squared
