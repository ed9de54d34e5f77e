"""Performance quantities: per-side interference factors, SJNR,
Gauss-Hermite mutual information, the BER tally of ML detection, FLOP
estimates.

SJNR, mutual information and BER all read one model of the
post-beamforming channel, `scalar_channel`.
"""

import functools
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

# Float64 temporaries of one mi_inner_mean block of rows: their Re- and
# Im-axis factors and their grid of inner sums (the exponent
# coefficients, 4 K per row, come on top). A block takes as many whole
# channels of rows as fit. One channel's default 8 antenna rows against
# 32 entries on the 45 x 45 grid of n_noise 500 take ~310 KiB, so a
# block holds one; at n_noise 2 (a 3 x 3 grid) it holds up to 40.
MI_BLOCK_BYTES = 512 * 1024

# The Gauss-Hermite rule of mutual_info_mc keeps its nodes with
# |x| <= NODE_LIMIT. Beyond it the weights are below 1e-140 and change no
# sum, but the kernel's factors, at most exp(x^2) per axis, would
# overflow at the grid's corners (x^2 + y^2 > 709). Orders up to 174
# lose no node.
NODE_LIMIT = 18.0


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
    return channel_sjnr(*scalar_channel(u, "bob", chset, cfg))


def channel_sjnr(r, power):
    """The SJNR of scalar channels (r, power) of scalar_channel: the mean
    output power over the codebook per unit noise power. A 1-D r gives
    a float."""
    ratio = (np.mean(np.ascontiguousarray(np.abs(r) ** 2), axis=-1)
             / _positive(power))
    return float(ratio) if r.ndim == 1 else ratio


def _hermite_pair(x, n):
    """(p_{n-1}(x), p_n(x), e): the orthonormal Hermite polynomials of
    degree n - 1 and n (weight exp(-x^2)) at every element of x, both
    divided by 2^e. p_n grows like exp(x^2/2), past the float64 range
    from order ~700 on, so each step rescales by a power of two."""
    prev, cur = np.zeros_like(x), np.full_like(x, math.pi ** -0.25)
    e = np.zeros(x.shape, dtype=np.intp)
    for k in range(1, n + 1):
        prev, cur = cur, (math.sqrt(2.0 / k) * x * cur
                          - math.sqrt((k - 1) / k) * prev)
        _, s = np.frexp(np.maximum(np.abs(prev), np.abs(cur)))
        prev, cur, e = np.ldexp(prev, -s), np.ldexp(cur, -s), e + s
    return prev, cur, e


@functools.lru_cache(maxsize=8)
def _gauss_hermite(m):
    """The m-point Gauss-Hermite rule for E f(x), x ~ N(0, 1/2): nodes x
    and weights w summing to 1, with sum_s w_s f(x_s) exact for every
    polynomial f of degree up to 2m - 1, less the nodes past NODE_LIMIT.

    numpy's hermgauss without its numpy.polynomial import (0.7 MiB per
    process) and with weights that stay finite at any order: the nodes
    are the eigenvalues of the Jacobi matrix of H_m, polished by one
    Newton step, and the weights 1/(m p_{m-1}(x_s)^2). Cached per order
    and read-only, since every call shares it.
    """
    x = np.linalg.eigvalsh(np.diag(np.sqrt(0.5 * np.arange(1.0, m)), 1),
                           UPLO="U")
    low, top, _ = _hermite_pair(x, m)
    x -= top / (math.sqrt(2.0 * m) * low)  # p_m' = sqrt(2m) p_{m-1}
    low, _, e = _hermite_pair(x, m)
    log_w = -2.0 * (e + np.log2(np.abs(low)))
    w = np.exp2(log_w - log_w.max())
    # the density is even: symmetrize the rounding
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    keep = np.abs(x) <= NODE_LIMIT
    x, w = x[keep], w[keep] / w[keep].sum()
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@functools.lru_cache(maxsize=1)
def _mi_workspace(rows, K, m):
    """The coefficient, factor and sum buffers of one mi_inner_mean
    block of rows against K codebook entries on an m x m grid. Kept for
    the last shape, a sweep has one, so a call allocates no large array:
    at the default shape the factors exceed glibc's 128 KiB mmap
    threshold, and fresh ones would fault in new pages on every call.
    Per process and not thread-safe; secsm runs in parallel with
    processes.
    """
    return (np.empty((2, rows, 2, K)), np.empty((2, rows, m, K)),
            np.empty((rows, m, m)))


def mi_inner_mean(diffs, x, w):
    """Unclamped mutual-information estimates in bits, one per group of
    R rows: for each leading index of the (..., R, K) differences, the
    mean over its R rows i, and the weighted sum over the m x m grid of
    noise nodes n = x_s + i x_q with weights w_s w_q, of

        -log2(S_isq / K),  S_isq = sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj n)).

    A group is the R x K matrix of effective-symbol differences
    d_ij = g_i - g_j of one whitened scalar channel, R representative
    codebook entries against all K; x, w is one 1-D rule that both axes
    of every row share. With d = a + i b the exponent is
    -a(a + 2x) - b(b + 2y), so S_i = A_i B_i^T for the factors
    A_i[s, j] = exp(-a_ij (a_ij + 2 x_s)) and B_i[q, j] likewise in b:
    2 K m exponentials per row, and the weights are applied once per
    group, to the sum over its rows of log2 S_i. Each factor is at most
    exp(x_s^2), and a row's own entry contributes exactly 1, so a
    channel without signal gives exactly +0.0. The sums are scaled by
    1/K as a product, which equals the quotient bit for bit for a
    power-of-two K (every codebook size) only.

    Rows run in blocks whose factors and sums, at most MI_BLOCK_BYTES,
    and coefficients live in _mi_workspace. A block holds whole groups,
    or, when one group exceeds the budget, part of one group, whose
    blocks add up in turn; either way a group's estimate does not
    depend on the groups around it, and equals a call on that group
    alone bit for bit. A 2-D diffs, one group, gives a float.
    """
    diffs = np.asarray(diffs, dtype=np.complex128)
    if diffs.ndim < 2 or x.ndim != 1 or x.shape != w.shape:
        raise ValueError(f"shape mismatch: diffs {diffs.shape}, "
                         f"x {x.shape}, w {w.shape}")
    *lead, R, K = diffs.shape
    m = len(x)
    G = math.prod(lead)
    fit = max(1, MI_BLOCK_BYTES // (8 * m * (2 * K + m)))
    rows = min(G, fit // R) * R or fit
    coef, factors, sums = _mi_workspace(rows, K, m)
    # the real and imaginary part of every difference, as rows of (K, 2)
    parts = np.ascontiguousarray(diffs).view(np.float64).reshape(-1, K, 2)
    if rows >= R:
        blocks = [(a, min(rows, G * R - a)) for a in range(0, G * R, rows)]
    else:
        blocks = [(g * R + a, min(rows, R - a))
                  for g in range(G) for a in range(0, R, rows)]
    nodes = np.stack((x, np.ones_like(x)), axis=-1)
    totals = np.zeros(G)
    for start, n in blocks:
        # the exponent's coefficients [-2 d, -d^2] of the nodes [x, 1],
        # per part d (Re [0], Im [1]): 2 x n x 2 x K
        c, f, s = coef[:, :n], factors[:, :n], sums[:n]
        part = np.moveaxis(parts[start:start + n], -1, 0)
        np.multiply(part, -2.0, out=c[:, :, 0])
        np.multiply(part, part, out=c[:, :, 1])
        np.negative(c[:, :, 1], out=c[:, :, 1])
        np.exp(np.matmul(nodes, c, out=f), out=f)
        np.matmul(f[0], f[1].transpose(0, 2, 1), out=s)
        s *= 1.0 / K
        np.log2(s, out=s)
        # the sum of each group's (or the one partial group's) grids
        grids = s.reshape(-1, min(n, R), m, m).sum(axis=1)
        for g, row in enumerate(w @ grids, start // R):
            totals[g] -= float(row @ w)
    bits = totals / R
    return float(bits[0]) if not lead else bits.reshape(lead)


def mutual_info(r, power, mod_order, n_noise):
    """Mutual information in bits of the scalar channels (r, power) of
    scalar_channel: codebook outputs r along the last axis and one noise
    power per channel, any number of leading axes.

    Each channel is whitened by its noise power. Entry (a, k), antenna a
    and PSK symbol s_k, has the differences of entry (a, 0) rotated by
    s_k and permuted, and circular noise makes the noise expectation
    rotation-invariant, so the mod_order entries of one antenna share
    it. It is computed once per antenna, on the row of its symbol-1
    entry (build_codebook orders entries a * mod_order + k), on the
    m x m Gauss-Hermite product rule for CN(0, 1) noise, m the smallest
    order >= 2 with m^2 >= mod_order * n_noise: n_noise nodes per
    codebook entry, pooled per antenna. Every channel goes through one
    mi_inner_mean call, and each estimate, clamped to [0, log2(size)]
    bits, equals a call on its channel alone bit for bit. A 1-D r gives
    a float.
    """
    if n_noise < 1:
        raise ValueError("n_noise must be at least 1")
    g = r / np.sqrt(_positive(power))[..., None]
    rule = _gauss_hermite(max(2, math.isqrt(mod_order * n_noise - 1) + 1))
    # one antenna's row at a time: a broadcast over the whole stack would
    # take two ufunc buffers of up to 128 KiB each, heap that stays
    K = r.shape[-1]
    diffs = np.empty(r.shape[:-1] + (K // mod_order, K), dtype=np.complex128)
    for a in range(K // mod_order):
        np.subtract(g[..., a * mod_order, None], g, out=diffs[..., a, :])
    bits = mi_inner_mean(diffs, *rule)
    bits = np.minimum(np.maximum(bits, 0.0), math.log2(K))
    return float(bits) if r.ndim == 1 else bits


def mutual_info_mc(u, side, chset, cfg, n_noise, rng=None):
    """Mutual information of the scalar channel of u, in bits:
    mutual_info of scalar_channel.

    u is one combiner (a float is returned) or an m x n_rx stack of
    combiners (an array of m estimates is returned), and a row's
    estimate equals a single call bit for bit. No draw is made and rng
    is ignored: it stays only because perfbench/mi_reference.probe
    passes it positionally, until the benchmark change that renames
    n_noise removes it.
    """
    return mutual_info(*scalar_channel(u, side, chset, cfg), cfg.mod_order,
                       n_noise)


def _ber_counts(refs, power, codebook, n_trials, rng):
    """Bit-error tally over n_trials random codebook transmissions
    through Bob's scalar channel (refs, power) of scalar_channel.

    Returns (bit_errors, squared_error_sum); the squared sum of per-use
    bit errors supports an empirical variance estimate. For a stack of
    channels, refs with leading axes, both sums are arrays over them.

    A trial receives z = refs[idx] + sqrt(power) n. Per block of
    BER_BLOCK_TRIALS the draws are the codebook indices, then one unit
    complex normal n per trial, shared by a stack's rows, which are
    detected one at a time: a row's tally equals a single call on an
    identically seeded rng. ML detection is one argmin over a
    (trials x K) distance array, ties to the lowest index.
    """
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
