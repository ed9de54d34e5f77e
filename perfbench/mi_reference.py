"""Accuracy of the Monte-Carlo mutual-information estimate.

The reference is a Gauss-Hermite product rule over the 2-D complex
noise of the whitened scalar channel, written here from the model and
independent of secsm._kernels and of the library's whitening code. For
codebook entry i the inner expectation

    E_n log2 sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj(n))),  n ~ CN(0, 1)

is separable in Re(n) and Im(n), so each order-n rule costs O(n K) exp
evaluations and one (n x K) @ (K x n) product per entry.
"""

import math
from dataclasses import replace

import numpy as np

GH_ORDER = 48
CONVERGED_BITS = 1e-5
# rng stream tags of the sweep's Bob and attacker MI draws, so a probe
# repeats the estimate the sweep itself made
STREAM_MI_BOB = 1
STREAM_MI_EVE = 2


def gh_mutual_info(diffs, order):
    """Mutual information in bits from the K x K whitened differences."""
    K = diffs.shape[0]
    x, w = np.polynomial.hermite.hermgauss(order)
    w = w / math.sqrt(math.pi)  # 1-D rule for N(0, 1/2)
    half = -0.5 * np.abs(diffs) ** 2
    # a[i, a, j] * b[i, b, j] = exp(-|d_ij|^2 - 2 (x_a Re d_ij + x_b Im d_ij));
    # splitting |d|^2 between the factors keeps both finite
    a = np.exp(half[:, None, :] - 2.0 * x[None, :, None] * diffs.real[:, None, :])
    b = np.exp(half[:, None, :] - 2.0 * x[None, :, None] * diffs.imag[:, None, :])
    sums = a @ b.transpose(0, 2, 1)  # >= 1: the j = i term is exactly 1
    inner = np.einsum("a,iab,b->i", w, np.log2(sums), w)
    bits = math.log2(K) - float(inner.mean())
    return min(max(bits, 0.0), math.log2(K))


def whitened_diffs(u, side, chset, cfg):
    """Pairwise differences of the whitened post-combiner symbols."""
    if side == "bob":
        channel, noise_var = chset.H, cfg.noise_var_bob
        an, jam = chset.H @ chset.T @ chset.P_AN, chset.F @ chset.P_JM
    else:
        channel, noise_var = chset.G, cfg.noise_var_eve
        an, jam = chset.G @ chset.T @ chset.P_AN, chset.M_self @ chset.P_JM
    power = ((1.0 - cfg.beta) * cfg.power * cfg.an_var
             * np.sum(np.abs(an.conj().T @ u) ** 2)
             + cfg.power_mallory * cfg.jam_var
             * np.sum(np.abs(jam.conj().T @ u) ** 2)
             + noise_var * np.sum(np.abs(u) ** 2))
    row = u.conj() @ channel @ chset.T
    psk = np.exp(2j * np.pi * np.arange(cfg.mod_order) / cfg.mod_order)
    g = math.sqrt(cfg.beta * cfg.power / power) * np.outer(row, psk).ravel()
    return g[:, None] - g[None, :]


def probe(cfg, workload):
    """Errors of mutual_info_mc against the reference over the probes.

    The probes are (realization, SNR, P_M) x {Bob under max_sjnr, the
    attacker under u_er}, at the workload's n_noise. Each probe makes
    workload.probe_draws estimates: the first from the stream the sweep
    itself uses, the others from streams the sweep never draws. Returns
    (rmse in bits, number of estimates, largest order-n vs order-2n
    difference of the reference).
    """
    from secsm.beamformers import Method, compute_beamformer
    from secsm.channel import derive_rng, realize_channels
    from secsm.metrics import mutual_info_mc

    snrs = [float(s) for s in workload.snr_grid_db.split(",")]
    pms = [float(p) for p in workload.p_m_list.split(",")]
    squared = []
    worst_delta = 0.0
    for r in range(workload.probe_realizations):
        chset = realize_channels(cfg, r, an_mode="nullspace")
        for si, snr in enumerate(snrs):
            for pi, p_m in enumerate(pms):
                nv = 10.0 ** (-snr / 10.0)
                point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv,
                                power_mallory=p_m)
                u_bob = compute_beamformer(Method.MAX_SJNR, chset, point).u
                for tag, side, u in ((STREAM_MI_BOB, "bob", u_bob),
                                     (STREAM_MI_EVE, "mallory", chset.u_er)):
                    diffs = whitened_diffs(u, side, chset, point)
                    ref = gh_mutual_info(diffs, 2 * GH_ORDER)
                    coarse = gh_mutual_info(diffs, GH_ORDER)
                    worst_delta = max(worst_delta, abs(ref - coarse))
                    for k in range(workload.probe_draws):
                        path = (tag, r, si, pi) + ((k,) if k else ())
                        est = mutual_info_mc(u, side, chset, point,
                                             workload.n_noise,
                                             derive_rng(cfg.seed, *path))
                        squared.append((est - ref) ** 2)
    return math.sqrt(sum(squared) / len(squared)), len(squared), worst_delta
