"""Performance quantities: per-side interference factors, SJNR, Monte-Carlo
mutual information, the BER tally of ML detection, FLOP estimates.

SJNR, mutual information and BER all read one model of the
post-beamforming channel, `scalar_channel`.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import crandn
from .modulation import build_codebook

SIDES = ("bob", "mallory")

# BER trials drawn and detected together. A block's (trials x codebook)
# differences dominate its memory: one call peaks at ~390 KiB at 256
# trials and 32 entries (tracemalloc); over 50 default BER sweeps,
# 1024-trial blocks ended ~0.5 MiB higher in peak RSS.
BER_BLOCK_TRIALS = 256

# Codebook entries whose exponents mi_inner_mean evaluates together: a
# rows x K x T block, 512 KiB at 4 rows, 32 entries and 500 draws. After 8
# sweeps, blocks of 4/8/16/32 rows ended ~0.4/1.0/2.1/4.3 MiB above the
# per-row loop in peak RSS; more than 4 rows bought no sweep time.
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


def _side_terms(chset, cfg, side):
    """(signal, V, noise_var) of one receiver: its signal channel after
    antenna selection, and its interference-plus-noise covariance
    noise_var I + V V^H as a low-rank factor and a noise variance.

    V = [sqrt((1-beta) P) S T P_AN, sqrt(P_M) J P_JM] with S = H, J = F
    at Bob and S = G, J = M_self at the attacker (unit-variance AN and
    jamming entries; P_AN and P_JM carry the unit-power normalisation).
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")
    bob = side == "bob"
    signal, an, jam = ((chset.HT, chset.HT_AN, chset.F_JM) if bob else
                       (chset.GT, chset.GT_AN, chset.M_JM))
    noise_var = cfg.noise_var_bob if bob else cfg.noise_var_eve
    V = np.hstack([math.sqrt((1.0 - cfg.beta) * cfg.power) * an,
                   math.sqrt(cfg.power_mallory) * jam])
    return signal, V, noise_var


def scalar_channel(u, side, chset, cfg):
    """The post-beamforming scalar channel of the combiner u on one side.

    Returns (r, power). r[k] = sqrt(beta P) u^H S T e_a s is the
    noiseless combined output of codebook entry k, with a its antenna,
    s its symbol and S = H at Bob, G at the attacker. AN, jamming and
    receiver noise are independent circular Gaussians that reach the
    output only through u, so they add one CN(0, power), with power =
    ||V^H u||^2 + noise_var ||u||^2 = u^H R_w u for the side's factor V
    (at the attacker the jamming term is its self-interference, zero by
    the jamming precoder's construction). u may be a stack of combiners
    along its last axis; r and power keep its leading axes, and each row
    equals a single call bit for bit.
    """
    signal, V, noise_var = _side_terms(chset, cfg, side)
    u = np.asarray(u)
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    r = (math.sqrt(cfg.beta * cfg.power)
         * codebook.effective_scalars((u.conj()[..., None, :] @ signal)
                                      [..., 0, :]))
    col = u[..., :, None]
    power = _energy(V.conj().T @ col) + noise_var * _energy(col)
    return r, (float(power) if u.ndim == 1 else power)


def _energy(col):
    """sum |x|^2 of n x 1 columns, each summed like a single column."""
    return np.sum(np.ascontiguousarray(np.abs(col[..., 0]) ** 2), axis=-1)


def _positive(power):
    """power, checked positive: MI and SJNR are undefined at zero."""
    if np.any(np.asarray(power) <= 0.0):
        raise ValueError(
            "interference-plus-noise power is zero; the whitened channel "
            "is undefined (set a positive receiver noise variance)")
    return power


def sjnr(u, chset, cfg):
    """Signal-to-jamming-plus-noise ratio at Bob of a combiner or stack."""
    r, power = scalar_channel(u, "bob", chset, cfg)
    ratio = (np.mean(np.ascontiguousarray(np.abs(r) ** 2), axis=-1)
             / _positive(power))
    return float(ratio) if r.ndim == 1 else ratio


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


def _lattice_noise(rng, K, n):
    """K x n unit complex Gaussian noise, one stratified row per codebook
    entry, in polar coordinates.

    Row i's squared radii are the Exp(1) quantiles -log1p(-(t + w_i)/n),
    one in each of the n equal-probability cells t = 0..n-1, and its
    angles 2 pi (perm(t) + psi_i)/n, one in each of the n sectors, with
    w_i and psi_i uniform per row. The permutation perm is drawn once
    per call and pairs radius cells with angle sectors in every row. A
    sample picked uniformly from a row is exactly CN(0, 1), so a row's
    mean of any function is unbiased.
    """
    perm = rng.permutation(n)
    w, psi = rng.random((2, K, 1))
    # -log((n - t - w)/n) equals -log1p(-(t + w)/n); n - t - w >= 1 - w > 0
    # keeps the last cell finite for every w in [0, 1)
    radius = np.sqrt(-np.log((np.arange(n, 0, -1.0) - w) / n))
    # exp(i(a + b)) = exp(ia) exp(ib): trig on n + K angles, not K n
    step = 2.0 * math.pi / n
    noise = np.exp(1j * step * psi) * np.exp(1j * step * perm)
    noise *= radius
    return noise


def mutual_info_mc(u, side, chset, cfg, n_noise, rng):
    """Monte-Carlo mutual information of the scalar channel of u.

    The channel is whitened by its noise power; for every codebook
    entry, a row of n_noise CN(0, 1) samples feeds mi_inner_mean. The
    rows are a stratified lattice (_lattice_noise), one sample per
    equal-probability radius cell and per angle sector, so each entry's
    average is unbiased and spreads less than one over independent
    draws. The result is clamped to [0, log2(size)] bits.

    u is one combiner (a float is returned) or an m x n_rx stack of
    combiners (an array of m estimates is returned). The K x n_noise
    lattice is drawn once and shared by every combiner in the stack, so
    a row's estimate equals a single call on an identically seeded rng.
    """
    if n_noise < 1:
        raise ValueError("n_noise must be at least 1")
    r, power = scalar_channel(u, side, chset, cfg)
    g = r / np.sqrt(_positive(power))[..., None]
    K = r.shape[-1]
    diffs = (g[..., :, None] - g[..., None, :]).reshape(-1, K, K)
    noise = _lattice_noise(rng, K, n_noise)
    top = math.log2(K)
    bits = np.array([np.clip(top - mi_inner_mean(d, noise), 0.0, top)
                     for d in diffs]).reshape(r.shape[:-1])
    return float(bits) if r.ndim == 1 else bits


def _ber_counts(u, chset, cfg, codebook, n_trials, rng):
    """Bit-error tally of the combiner u over n_trials random codebook
    transmissions.

    Returns (bit_errors, squared_error_sum); the squared sum of per-use
    bit errors supports an empirical variance estimate. For a stack of
    combiners both sums are arrays over its leading axes.

    The trials run in Bob's scalar_channel, z = r_idx + sqrt(power) n.
    Per block of BER_BLOCK_TRIALS the draws are the codebook indices,
    then one unit complex normal n per trial, shared by a stack's rows,
    which are detected one at a time: a row's tally equals a single call
    on an identically seeded rng. ML detection is one argmin over a
    (trials x K) distance array, ties to the lowest index.
    """
    refs, power = scalar_channel(u, "bob", chset, cfg)
    shape = refs.shape[:-1]
    refs = refs.reshape(-1, codebook.size)
    sigma = np.sqrt(np.reshape(power, -1))
    tallies = np.zeros((len(refs), 2), dtype=np.int64)
    # one buffer per call: a fresh 128 KiB one per block and row faults
    diff = np.empty((min(BER_BLOCK_TRIALS, n_trials), codebook.size),
                    dtype=np.complex128)
    for start in range(0, n_trials, BER_BLOCK_TRIALS):
        block = min(BER_BLOCK_TRIALS, n_trials - start)
        idx = rng.integers(codebook.size, size=block)
        noise = crandn(rng, block)
        for row, s, tally in zip(refs, sigma, tallies):
            z = row[idx] + s * noise
            dist = np.abs(np.subtract(z[:, None], row[None, :],
                                      out=diff[:block]))
            e = codebook.bit_errors[idx, np.argmin(dist, axis=1)]
            tally += (e.sum(), (e * e).sum())
    errors, squared = tallies.T.reshape((2,) + shape)
    if not shape:
        return int(errors), int(squared)
    return errors, squared


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
