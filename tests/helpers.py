"""Shared test oracles, implemented independently of the library paths
they validate (random search instead of eigensolvers, quadrature instead
of Monte-Carlo)."""

import math
from dataclasses import replace

import numpy as np

from secsm import harness, metrics
from secsm.beamformers import compute_beamformer
from secsm.channel import crandn, derive_rng, realize_channels
from secsm.metrics import mutual_info_mc, scalar_channel
from secsm.modulation import build_codebook


def crandn_t(rng, *shape):
    return np.sqrt(0.5) * (rng.standard_normal(shape)
                           + 1j * rng.standard_normal(shape))


def covariance(V, noise_var):
    """Dense noise_var I + V V^H of a low-rank factor V."""
    return noise_var * np.eye(V.shape[0]) + V @ V.conj().T


def random_factor(rng, n):
    """A random n x k interference factor V, k in 1..n + 1, and a noise
    variance in [0.01, 1]."""
    k = int(rng.integers(1, n + 2))
    return crandn_t(rng, n, k), float(rng.uniform(0.01, 1.0))


def noise_cov_bob(chset, cfg):
    """Dense interference-plus-noise covariance at Bob from the raw
    ChannelSet matrices, the oracle for the library's low-rank factor:

    R_w = (1-beta) P (H T P_AN)(H T P_AN)^H + P_M (F P_JM)(F P_JM)^H
        + noise_var_bob I.
    """
    A = chset.H @ chset.T @ chset.P_AN
    J = chset.F @ chset.P_JM
    return ((1 - cfg.beta) * cfg.power * A @ A.conj().T
            + cfg.power_mallory * J @ J.conj().T
            + cfg.noise_var_bob * np.eye(chset.H.shape[0]))


def quotient(num, den, v):
    return float(np.real(v.conj() @ num @ v) / np.real(v.conj() @ den @ v))


def rayleigh(A, v):
    """v^H A v: the eigenvalue of a unit eigenvector v of A."""
    return float(np.real(v.conj() @ A @ v))


def gen_max_eigvec_eig(num, den):
    """Dominant generalized eigenpair by the unsymmetrized pencil: the
    eigenvector of den^{-1} num with the largest real eigenvalue.

    Returns (v, lam) with ||v|| = 1 (arbitrary phase) and lam that
    eigenvalue, the maximum of the generalized Rayleigh quotient.
    """
    vals, vecs = np.linalg.eig(np.linalg.solve(den, num))
    k = int(np.argmax(vals.real))
    v = vecs[:, k]
    return v / np.linalg.norm(v), float(vals[k].real)


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


def gh_entry_means(diffs, order):
    """E_n log2 sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj n)), n ~ CN(0, 1),
    for every row i of the R x K differences d, by the order-`order`
    Gauss-Hermite product rule over Re n and Im n, each N(0, 1/2)."""
    x, w = np.polynomial.hermite.hermgauss(order)
    w = w / math.sqrt(math.pi)
    # splitting |d|^2 between the two factors keeps both finite
    half = -0.5 * np.abs(diffs[:, None, :]) ** 2
    a = np.exp(half - 2.0 * x[:, None] * diffs.real[:, None, :])
    b = np.exp(half - 2.0 * x[:, None] * diffs.imag[:, None, :])
    return np.einsum("s,isq,q->i", w, np.log2(a @ b.transpose(0, 2, 1)), w)


def dense_log2_sums(diffs, noise):
    """log2 sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj(n_it))) for every row i
    and draw t, an R x T array from the R x K differences d and the R x T
    noise draws n: the exponent is -|d_ij + n_it|^2 + |n_it|^2 in a
    cancellation-free form, from one real matmul of the coefficients
    [-2 Re d_ij, -2 Im d_ij, -|d_ij|^2] with the draws [Re n, Im n, 1].
    The dense kernel metrics.mi_inner_mean used before its separable
    product grid."""
    coef = np.stack([-2.0 * diffs.real, -2.0 * diffs.imag,
                     -np.abs(diffs) ** 2], axis=-1)
    draws = np.stack([noise.real, noise.imag, np.ones(noise.shape)], axis=1)
    return np.log2(np.exp(coef @ draws).sum(axis=1))


def mutual_info_iid(u, side, chset, cfg, n_noise, rng):
    """Mutual information of one combiner's scalar channel from n_noise
    independent CN(0, 1) draws per codebook entry, clamped to
    [0, log2 K]: the estimator metrics.mutual_info_mc used before its
    stratified noise, kept as the Monte-Carlo oracle of its rule."""
    r, power = scalar_channel(u, side, chset, cfg)
    g = r / math.sqrt(power)
    top = math.log2(len(g))
    inner = dense_log2_sums(g[:, None] - g[None, :],
                            crandn_t(rng, len(g), n_noise)).mean()
    return min(max(top - inner, 0.0), top)


def transmit_alice(codebook, idx, chset, cfg, rng):
    """Alice's antenna-space signals for the codebook entries idx, one row
    each: x_a = T (sqrt(beta P) e_n s + sqrt((1-beta) P) P_AN n_a)."""
    n = len(idx)
    e = np.zeros((n, chset.T.shape[1]), dtype=complex)
    e[np.arange(n), codebook.antennas[idx]] = codebook.symbols[idx]
    an = crandn_t(rng, n, chset.P_AN.shape[1]) @ chset.P_AN.T
    return (np.sqrt(cfg.beta * cfg.power) * e
            + np.sqrt((1 - cfg.beta) * cfg.power) * an) @ chset.T.T


def transmit_mallory(chset, cfg, n, rng):
    """n jamming signals x_m = sqrt(P_M) P_JM n_m, one row each."""
    return (np.sqrt(cfg.power_mallory)
            * crandn_t(rng, n, chset.P_JM.shape[1]) @ chset.P_JM.T)


def receive_bob(codebook, idx, chset, cfg, rng):
    """Bob's antenna-domain samples y = H x_a + F x_m + n_b, one row per
    entry of idx; draws in the order AN, jamming, noise."""
    x_a = transmit_alice(codebook, idx, chset, cfg, rng)
    x_m = transmit_mallory(chset, cfg, len(idx), rng)
    n_b = np.sqrt(cfg.noise_var_bob) * crandn_t(rng, len(idx),
                                                chset.H.shape[0])
    return x_a @ chset.H.T + x_m @ chset.F.T + n_b


def ber_counts_antenna_domain(u, chset, cfg, codebook, n_trials, rng):
    """Antenna-domain BER reference of the combiner u for all n_trials
    at once.

    Draws receive_bob samples, builds R_w from the ChannelSet matrices,
    whitens with u^H / sqrt(u^H R_w u) and detects by ML over the
    codebook; bit errors are popcounts of the label differences. Returns
    (bit_errors, squared_error_sum) like metrics._ber_counts, from a
    different draw order.
    """
    H, T = chset.H, chset.T
    idx = rng.integers(codebook.size, size=n_trials)
    y = receive_bob(codebook, idx, chset, cfg, rng)
    R_w = noise_cov_bob(chset, cfg)
    w = u.conj() / np.sqrt(np.real(u.conj() @ R_w @ u))
    hyp = (np.sqrt(cfg.beta * cfg.power) * (w @ H @ T)[codebook.antennas]
           * codebook.symbols)
    detected = np.argmin(np.abs((y @ w)[:, None] - hyp[None, :]), axis=1)
    diff = (codebook.labels[idx] ^ codebook.labels[detected]).astype(">u8")
    errs = np.unpackbits(diff.view(np.uint8).reshape(n_trials, 8),
                         axis=1).sum(axis=1).astype(np.int64)
    return int(errs.sum()), int((errs * errs).sum())


def ber_counts_hypot(refs, power, codebook, n_trials, rng):
    """metrics._ber_counts with the same draws, detected one row at a
    time by argmin_k |z - r_k| over complex differences (ties to the
    lowest index): the exact-decision oracle of its real-product rule.
    """
    shape = refs.shape[:-1]
    refs = refs.reshape(-1, codebook.size)
    sigma = np.sqrt(np.reshape(power, -1))
    tallies = np.zeros((len(refs), 2), dtype=np.int64)
    for start in range(0, n_trials, metrics.BER_BLOCK_TRIALS):
        block = min(metrics.BER_BLOCK_TRIALS, n_trials - start)
        idx = rng.integers(codebook.size, size=block)
        noise = crandn(rng, block)
        for row, s, tally in zip(refs, sigma, tallies):
            z = row[idx] + s * noise
            dist = np.abs(z[:, None] - row[None, :])
            e = codebook.bit_errors[idx, np.argmin(dist, axis=1)]
            tally += (e.sum(), (e * e).sum())
    errors, squared = tallies.T.reshape((2,) + shape)
    return (int(errors), int(squared)) if not shape else (errors, squared)


def point_config(cfg, snr_db, p_m):
    """cfg at one grid point: both noise variances from snr_db, and the
    jamming power p_m."""
    nv = harness.snr_to_noise_var(snr_db)
    return replace(cfg, noise_var_bob=nv, noise_var_eve=nv, power_mallory=p_m)


def realization_reference(cfg, spec, r, ber_trials):
    """harness._realization_task computed one grid point and one method
    at a time: each combiner built alone at its point (point_config), and
    each MI, SJNR and BER tally from a single call, the BER tally on a
    fresh generator of realization r's rng stream (every cell detects
    the same trials), with realization r's share ber_trials of
    spec.n_ber_trials given by the caller. Returns the task's
    {quantity: (SNR, P_M, method) array}."""
    chset = realize_channels(cfg, r, an_mode=spec.an_mode)
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    shape = (len(spec.snr_grid_db), len(spec.p_m_list), len(spec.methods))
    out = {"sr": np.zeros(shape), "sjnr": np.zeros(shape),
           "bit_errors": np.zeros(shape, np.int64),
           "squared_errors": np.zeros(shape, np.int64)}
    for si, snr_db in enumerate(spec.snr_grid_db):
        i_eve = mutual_info_mc(
            chset.u_er, "mallory", chset,
            point_config(cfg, snr_db, 0.0), spec.n_noise)
        for pi, p_m in enumerate(spec.p_m_list):
            point = point_config(cfg, snr_db, p_m)
            for mi, method in enumerate(spec.methods):
                cell = si, pi, mi
                u = compute_beamformer(method, chset, point).u
                i_bob = mutual_info_mc(u, "bob", chset, point, spec.n_noise)
                out["sr"][cell] = max(0.0, i_bob - i_eve)
                out["sjnr"][cell] = metrics.sjnr(u, chset, point)
                out["bit_errors"][cell], out["squared_errors"][cell] = \
                    metrics._ber_counts(*scalar_channel(u, "bob", chset,
                                                        point),
                                        codebook, ber_trials,
                                        [derive_rng(cfg.seed,
                                                    harness._STREAM_BER,
                                                    r)])
    return out
