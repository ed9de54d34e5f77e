"""Performance quantities: covariances, SJNR, Monte-Carlo mutual
information, the BER tally of ML detection, FLOP estimates.

Mutual information and BER both work in the post-beamforming scalar
channel, where interference and noise add one circular Gaussian of power
u^H R_w u. The MI estimator whitens by that power, so its noise draws
are unit complex Gaussians regardless of the combiner's scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import crandn
from .modulation import build_codebook

SIDES = ("bob", "mallory")

# BER trials drawn and detected together. A block's (trials x codebook)
# complex differences and their moduli dominate its memory: at 256
# trials and the default 32-entry codebook one call peaks at ~390 KiB
# (tracemalloc), against 16 bytes per trial for the draws. Peak RSS grows
# with the block: over 50 default BER sweeps (2000 trials per cell),
# 1024-trial blocks ended ~0.5 MiB higher than 256-trial ones.
BER_BLOCK_TRIALS = 256

# Codebook entries whose exponents mi_inner_mean evaluates together. The
# block's exponent array holds rows x K x T doubles: 512 KiB at 4 rows,
# the default 32-entry codebook and 500 draws. Peak RSS grows with the
# block: after 8 in-process secrecy-rate sweeps (500 draws), blocks of
# 4/8/16/32 rows ended ~0.4/1.0/2.1/4.3 MiB above the per-row loop, and
# more than 4 rows bought no measurable sweep time.
MI_BLOCK_ROWS = 4


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregate results for one (method, SNR, jamming power) grid point."""

    method: object
    snr_db: float
    p_m: float
    avg_sr: float
    ber: float
    avg_sjnr_db: float
    sr_samples: tuple = ()
    trial_counts: dict = field(default_factory=dict)


def noise_cov_bob(chset, cfg):
    """Interference-plus-noise covariance at Bob.

    R_w = (1-beta) P (H T P_AN)(H T P_AN)^H + P_M (F P_JM)(F P_JM)^H
        + noise_var_bob I,

    with unit-variance AN and jamming entries (P_AN and P_JM carry the
    unit-power normalisation).
    """
    an, jam, noise_var = _side_terms(chset, cfg, "bob")
    R = ((1.0 - cfg.beta) * cfg.power * (an @ an.conj().T)
         + cfg.power_mallory * (jam @ jam.conj().T)
         + noise_var * np.eye(cfg.n_rx))
    return 0.5 * (R + R.conj().T)


def _side_terms(chset, cfg, side):
    if side == "bob":
        return chset.HT_AN, chset.F_JM, cfg.noise_var_bob
    if side == "mallory":
        return chset.GT_AN, chset.M_JM, cfg.noise_var_eve
    raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")


def scalar_inpn_cov(u, chset, cfg, side="bob"):
    """Interference-plus-noise power seen through the combiner u.

    The Bob side equals u^H R_w u; the attacker side uses its own AN
    leakage and self-interference terms (zero by the jamming precoder's
    construction) with its receiver noise.
    """
    an, jam, noise_var = _side_terms(chset, cfg, side)
    u = np.asarray(u)
    return float((1.0 - cfg.beta) * cfg.power
                 * np.sum(np.abs(an.conj().T @ u) ** 2)
                 + cfg.power_mallory * np.sum(np.abs(jam.conj().T @ u) ** 2)
                 + noise_var * np.sum(np.abs(u) ** 2))


def sjnr(u, chset, cfg):
    """Signal-to-jamming-plus-noise ratio of a combiner at Bob."""
    num = (cfg.beta * cfg.power / cfg.n_active
           * float(np.sum(np.abs(chset.HT.conj().T @ u) ** 2)))
    return num / scalar_inpn_cov(u, chset, cfg, "bob")


def mi_inner_mean(diffs, noise):
    """Mean over entries i and draws t of
    log2 sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj(n_it))).

    diffs is the K x K matrix of pairwise effective-symbol differences in
    the whitened scalar channel; noise holds K x T unit-variance complex
    draws, one row per codebook entry. The exponent equals
    -|d_ij + n_it|^2 + |n_it|^2 written in a cancellation-free form.

    Entries run in blocks of MI_BLOCK_ROWS: one batched real matmul of
    the (rows x K x 3) coefficients [-2 Re d_ij, -2 Im d_ij, -|d_ij|^2]
    with the (rows x 3 x T) draws [Re n_it, Im n_it, 1] gives a block's
    exponents, which are exponentiated in place and summed over j.
    """
    diffs = np.asarray(diffs, dtype=np.complex128)
    noise = np.asarray(noise, dtype=np.complex128)
    K = diffs.shape[0]
    if (diffs.shape != (K, K) or noise.ndim != 2 or noise.shape[0] != K
            or noise.shape[1] < 1):
        raise ValueError(
            f"shape mismatch: diffs {diffs.shape}, noise {noise.shape}")
    T = noise.shape[1]
    coef = np.empty((K, K, 3))
    coef[..., 0] = -2.0 * diffs.real
    coef[..., 1] = -2.0 * diffs.imag
    coef[..., 2] = -np.abs(diffs) ** 2
    rows = min(MI_BLOCK_ROWS, K)
    draws = np.empty((rows, 3, T))
    draws[:, 2] = 1.0
    expo = np.empty((rows, K, T))
    acc = 0.0
    for start in range(0, K, rows):
        stop = min(start + rows, K)
        n = stop - start
        draws[:n, 0] = noise[start:stop].real
        draws[:n, 1] = noise[start:stop].imag
        block = np.matmul(coef[start:stop], draws[:n], out=expo[:n])
        np.exp(block, out=block)
        acc += float(np.log2(block.sum(axis=1)).sum())
    return acc / (K * T)


def _whitened_diffs(u, side, chset, cfg, codebook):
    """Pairwise differences of the whitened effective symbols seen
    through the combiner u on one side."""
    power = scalar_inpn_cov(u, chset, cfg, side)
    if power <= 0.0:
        raise ValueError(
            "interference-plus-noise power is zero; the whitened channel "
            "is undefined (set a positive receiver noise variance)")
    channel = chset.H if side == "bob" else chset.G
    row = u.conj() @ channel @ chset.T
    g = math.sqrt(cfg.beta * cfg.power / power) * codebook.effective_scalars(row)
    return g[:, None] - g[None, :]


def mutual_info_mc(u, side, chset, cfg, n_noise, rng):
    """Monte-Carlo mutual information of the post-beamforming channel.

    For every codebook entry, n_noise whitened unit-Gaussian noise draws
    average log2 sum_j exp(-f_ij + |n|^2) over the full codebook, where
    f_ij uses the whitened pairwise symbol differences. The result is
    clamped to [0, log2(size)] bits.

    u is one combiner (a float is returned) or an m x n_rx stack of
    combiners (an array of m estimates is returned). The K x n_noise
    noise is drawn once and shared by every combiner in the stack, so a
    row's estimate equals a single call on an identically seeded rng.
    """
    if n_noise < 1:
        raise ValueError("n_noise must be at least 1")
    u = np.asarray(u)
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    diffs = [_whitened_diffs(row, side, chset, cfg, codebook)
             for row in u.reshape(-1, u.shape[-1])]
    noise = crandn(rng, codebook.size, n_noise)
    top = math.log2(codebook.size)
    bits = [float(np.clip(top - mi_inner_mean(d, noise), 0.0, top))
            for d in diffs]
    return bits[0] if u.ndim == 1 else np.array(bits)


def _ber_counts(u, chset, cfg, codebook, n_trials, rng):
    """Bit-error tally of the combiner u over n_trials random codebook
    transmissions.

    Returns (uses, bit_errors, squared_error_sum); the squared sum of
    per-use bit errors supports an empirical variance estimate.

    The trials run in Bob's combined scalar channel z = r_idx + sigma n,
    where r_k = sqrt(beta P) u^H H T e_k s_k is the noiseless combined
    output of codebook entry k and n is a unit complex normal: AN,
    jamming and receiver noise are independent circular Gaussians that
    reach z only through u, so their sum is CN(0, u^H R_w u). Per
    block of BER_BLOCK_TRIALS the draws are the codebook indices, then
    one noise draw per trial. ML detection is one argmin over a
    (trials x K) distance array, ties to the lowest index.
    """
    u = np.asarray(u)
    refs = (math.sqrt(cfg.beta * cfg.power)
            * codebook.effective_scalars(u.conj() @ chset.HT))
    sigma = math.sqrt(scalar_inpn_cov(u, chset, cfg, "bob"))
    errors = 0
    squared = 0
    for start in range(0, n_trials, BER_BLOCK_TRIALS):
        block = min(BER_BLOCK_TRIALS, n_trials - start)
        idx = rng.integers(codebook.size, size=block)
        z = refs[idx] + sigma * crandn(rng, block)
        dist = np.abs(z[:, None] - refs[None, :])
        e = codebook.bit_errors[idx, np.argmin(dist, axis=1)]
        errors += int(e.sum())
        squared += int((e * e).sum())
    return n_trials, errors, squared


_FLOP_COEFFS = {
    "max_rp": (129.0, 0.0),
    "max_wfrp": (266.0, 3.0),
    "max_rp_zfc": (259.0, 0.0),
    "max_sjnr": (268.0, 3.0),
}


def flop_estimate(method, n_rx):
    """Approximate FLOP count of one beamformer construction at size n_rx."""
    key = getattr(method, "value", method)
    cubic, linear = _FLOP_COEFFS[key]
    return cubic * n_rx ** 3 + linear * n_rx
