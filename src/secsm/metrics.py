"""Performance quantities: per-side interference factors, SJNR,
Gauss-Hermite mutual information and the BER tally of ML detection.

SJNR, mutual information and BER all read one model of the
post-beamforming channel, `scalar_channel`.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channel import _read_only, crandn
from .modulation import build_codebook

SIDES = ("bob", "mallory")

# BER trials drawn together, and the detector workspace of a chunk of
# rows: 8 (K + 3) bytes a trial and row, so 4 rows of 32 entries a chunk.
BER_BLOCK_TRIALS = 256
BER_BLOCK_BYTES = 280 * 1024

# The workspace of one mi_inner_mean block: per row, 4 K coefficients,
# 2 m K axis factors and an m x m grid of sums, 8 (4 K + 2 m K + m^2)
# bytes. 32 entries on the 35 x 35 floored grid of n_noise 500 take 28
# KiB a row, 17 rows a block; a 3 x 3 grid (n_noise 2) up to 186 rows.
MI_BLOCK_BYTES = 480 * 1024


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


def _cfg_point(cfg, side):
    """(noise_var, p_m), cfg's own operating point at one receiver: the
    point of every single-point call that is given none."""
    return (cfg.noise_var_bob if side == "bob" else cfg.noise_var_eve,
            cfg.power_mallory)


def _side_terms(chset, cfg, side, p_m):
    """(signal, V) of one receiver at jamming power p_m: its signal
    channel after antenna selection, and the low-rank factor V of its
    interference-plus-noise covariance noise_var I + V V^H.

    V = [sqrt((1-beta) P) S T P_AN, sqrt(P_M) J P_JM] with S = H, J = F
    at Bob and S = G, J = M_self at the attacker (unit-variance AN and
    jamming entries; P_AN and P_JM carry the unit-power normalisation).
    An array p_m broadcasts against the leading axes of a stacked chset,
    and V takes the result.
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")
    bob = side == "bob"
    signal, an, jam = ((chset.HT, chset.HT_AN, chset.F_JM) if bob else
                       (chset.GT, chset.GT_AN, chset.M_JM))
    jam = np.sqrt(p_m)[..., None, None] * jam  # holds every leading axis
    an = np.broadcast_to(math.sqrt((1.0 - cfg.beta) * cfg.power) * an,
                         jam.shape[:-1] + an.shape[-1:])
    return signal, np.concatenate((an, jam), axis=-1)


def scalar_channel(u, side, chset, cfg):
    """The post-beamforming scalar channel of u on one side, at cfg's point.

    Returns (r, power). r[k] = sqrt(beta P) u^H S T e_a s is the
    noiseless combined output of codebook entry k, with a its antenna,
    s its symbol and S = H at Bob, G at the attacker. AN, jamming and
    receiver noise are independent circular Gaussians that reach the
    output only through u, so they add one CN(0, power), with power =
    ||V^H u||^2 + noise_var ||u||^2 = u^H R_w u for the side's factor V
    (at the attacker the jamming term is its self-interference, zero by
    the jamming precoder's construction). A stack of combiners u gives
    its leading axes to r and power, each row a single call's.
    """
    u = np.asarray(u)
    noise_var, p_m = _cfg_point(cfg, side)
    r, power = _scalar_channels(u, *_side_terms(chset, cfg, side, p_m),
                                noise_var, cfg)
    return r, (float(power) if u.ndim == 1 else power)


def _scalar_channels(u, signal, V, noise_var, cfg):
    """scalar_channel's (r, power) of combiners u (..., n) on a side's
    signal channel (..., n, K), factor V (..., n, c) and noise variances,
    all broadcast in one pass, each row a single call's bit for bit."""
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    r = (math.sqrt(cfg.beta * cfg.power)
         * codebook.effective_scalars((u.conj()[..., None, :] @ signal)
                                      [..., 0, :]))
    col = u[..., :, None]
    return r, (_energy(np.swapaxes(V.conj(), -1, -2) @ col)
               + noise_var * _energy(col))


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
    polynomial f of degree up to 2m - 1.

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
    return _read_only(x), _read_only(w / w.sum())


@functools.lru_cache(maxsize=8)
def _mi_rule(m):
    """_gauss_hermite(m) less its nodes of weight below 1e-16 of the
    largest, renormalized: 35 of 45 nodes, 61 of 127, all up to order
    24. Every kept |x| is below 6.1, so exp(x^2) factors stay finite."""
    x, w = _gauss_hermite(m)
    keep = w >= 1e-16 * w.max()
    if keep.all():
        return x, w
    return _read_only(x[keep]), _read_only(w[keep] / w[keep].sum())


def _aligned_empty(shape, dtype=np.float64):
    """An uninitialised array like np.empty(shape, dtype) whose data start
    on a 64-byte (cache-line) boundary. The BER and MI loops run over
    kept buffers, and the offset the heap happens to give them moved
    the BER sweep's time by up to 6%."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


@functools.lru_cache(maxsize=1)
def _mi_workspace(rows, K, m):
    """The coefficient, factor and sum buffers of one mi_inner_mean
    block of rows against K codebook entries on an m x m grid. Kept for
    the last shape, a sweep has one, so a call allocates no large array:
    fresh factors past glibc's 128 KiB mmap threshold fault in new pages.
    Per process and not thread-safe; secsm runs in parallel with
    processes.
    """
    return (_aligned_empty((2, rows, 2, K)),
            _aligned_empty((2, rows, m, K)), _aligned_empty((rows, m, m)))


def mi_inner_mean(g, mod_order, x, w):
    """Unclamped mutual-information estimates in bits, one per whitened
    scalar channel g[c] (a row of the N x K g): the mean over its
    A = K / mod_order rows i, and the weighted sum over the m x m grid
    of noise nodes n = x_s + i x_q with weights w_s w_q, of

        -log2(S_isq / K),  S_isq = sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj n)).

    Row i is channel i // A's antenna i % A on its symbol-1 entry
    (build_codebook orders entries a * mod_order + k), d_ij = g_i - g_j
    its differences, and x, w one 1-D rule for both grid axes of every
    row. With d = a + i b the exponent is
    -a(a + 2x) - b(b + 2y), so S_i = A_i B_i^T for the factors
    A_i[s, j] = exp(-a_ij (a_ij + 2 x_s)) and B_i[q, j] likewise in b:
    2 K m exponentials per row. Each factor is at most exp(x_s^2), and a
    row's own entry contributes exactly 1, so a channel without signal
    gives exactly +0.0. The sums are scaled by 1/K as a product, which
    is the quotient bit for bit for a power-of-two K (every codebook).

    Rows run in blocks of as many as fit in MI_BLOCK_BYTES of workspace
    (_mi_workspace), at least one, each writing its differences straight
    into the workspace and weighting each row's grid on its own: a
    channel's estimate is a call on it alone's, whatever the block.
    """
    g = np.ascontiguousarray(g, dtype=np.complex128)
    if (g.ndim != 2 or mod_order < 1 or g.shape[1] % mod_order
            or x.ndim != 1 or x.shape != w.shape):
        raise ValueError(f"shape mismatch: g {g.shape}, mod_order "
                         f"{mod_order}, x {x.shape}, w {w.shape}")
    (N, K), m, A = g.shape, len(x), g.shape[1] // mod_order
    rows = max(1, min(N * A,
                      MI_BLOCK_BYTES // (8 * (4 * K + 2 * m * K + m * m))))
    coef, factors, sums = _mi_workspace(rows, K, m)
    # Re [0] and Im [1] of every entry (2 x N x K) and of each row's own
    parts = np.moveaxis(g.view(np.float64).reshape(N, K, 2), -1, 0)
    own = parts[:, :, ::mod_order].reshape(2, -1, 1)
    nodes = np.stack((x, np.ones_like(x)), axis=-1)
    row_bits = np.empty(N * A)
    for start in range(0, N * A, rows):
        n = min(rows, N * A - start)
        # the exponent's coefficients [-2 d, -d^2] of the nodes [x, 1],
        # per part d (Re, Im) of the rows' differences: 2 x n x 2 x K
        c, f, s = coef[:, :n], factors[:, :n], sums[:n]
        d = c[:, :, 1]
        np.subtract(own[:, start:start + n],
                    parts[:, np.arange(start, start + n) // A], out=d)
        np.multiply(d, -2.0, out=c[:, :, 0])
        np.multiply(d, d, out=d)
        np.negative(d, out=d)
        np.exp(np.matmul(nodes, c, out=f), out=f)
        np.matmul(f[0], f[1].transpose(0, 2, 1), out=s)
        s *= 1.0 / K
        np.log2(s, out=s)
        # w^T log2 S_i w one row at a time: a single matrix-vector
        # product over the block would round with the block's size
        row_bits[start:start + n] = ((w @ s)[:, None, :] @ w[:, None])[:, 0, 0]
    return 0.0 - row_bits.reshape(N, A).sum(axis=1) / A


def mutual_info(r, power, mod_order, n_noise):
    """Mutual information in bits of the scalar channels (r, power) of
    scalar_channel: codebook outputs r along the last axis and one noise
    power per channel, any number of leading axes.

    Each channel is whitened by its noise power. Entry (a, k), antenna a
    and PSK symbol s_k, has the differences of entry (a, 0) rotated by
    s_k and permuted, and circular noise makes the noise expectation
    rotation-invariant, so it is computed once per antenna, on its
    symbol-1 entry, on the product grid of _mi_rule(m), m the smallest
    order >= 2 with m^2 >= mod_order * n_noise, in one mi_inner_mean
    call. Each estimate, clamped to [0, log2(size)] bits, equals a call
    on its channel alone bit for bit. A 1-D r gives a float.
    """
    if n_noise < 1:
        raise ValueError("n_noise must be at least 1")
    K = r.shape[-1]
    g = (r / np.sqrt(_positive(power))[..., None]).reshape(-1, K)
    rule = _mi_rule(max(2, math.isqrt(mod_order * n_noise - 1) + 1))
    bits = np.minimum(np.maximum(mi_inner_mean(g, mod_order, *rule), 0.0),
                      math.log2(K))
    return float(bits[0]) if r.ndim == 1 else bits.reshape(r.shape[:-1])


def mutual_info_mc(u, side, chset, cfg, n_noise, rng=None):
    """mutual_info of scalar_channel(u, side, chset, cfg), in bits: a
    float for one combiner, an array for a stack. rng is ignored; the
    benchmark's MI probe still passes it."""
    return mutual_info(*scalar_channel(u, side, chset, cfg), cfg.mod_order,
                       n_noise)


@functools.lru_cache(maxsize=1)
def _ber_workspace(rows, block, K):
    """_ber_counts' points [Re z, Im z, 1] and metrics, like _mi_workspace."""
    points = _aligned_empty((rows, block, 3))
    points[..., 2] = 1.0
    return points, _aligned_empty((rows, block, K))


def _ber_counts(refs, power, codebook, n_trials, rngs):
    """Bit-error tally over n_trials random codebook transmissions
    through Bob's scalar channels (refs, power) of scalar_channel.

    Returns (bit_errors, squared_error_sum), the squared sum of per-use
    bit errors for a variance estimate; arrays over refs' leading axes.

    rngs holds one generator, or one per leading index of refs. A trial
    receives z = refs[idx] + sqrt(power) n. Per block of BER_BLOCK_TRIALS
    each generator draws the codebook indices, then one unit complex
    normal n per trial, shared by its rows: a row's tally equals a single
    call on an identically seeded generator. ML detection, argmin_k
    |z - r_k| = argmin_k |r_k|^2 - 2 Re(conj(r_k) z) with ties to the
    lowest index, is one real product [Re z, Im z, 1] [-2 Re r; -2 Im r;
    |r|^2] and one argmin per block and chunk of rows in BER_BLOCK_BYTES.
    Rows are scaled by the power of two that puts max(|r_k|, sqrt(power))
    in [1/2, 1): exact in the normal range; no square overflows.
    """
    if len(rngs) not in {1, refs.shape[0] if refs.ndim > 1 else 1}:
        raise ValueError(f"{len(rngs)} generators for refs {refs.shape}")
    shape, K = refs.shape[:-1], codebook.size
    refs, sigma = refs.reshape(-1, K), np.sqrt(np.reshape(power, -1))
    top = np.hypot(refs.real, refs.imag).max(axis=1, initial=0.0)
    scale = np.ldexp(1.0, -np.frexp(np.maximum(top, sigma))[1])
    refs, sigma = refs * scale[:, None], (sigma * scale)[:, None]
    coef = np.stack((-2.0 * refs.real, -2.0 * refs.imag,
                     refs.real ** 2 + refs.imag ** 2), axis=1)
    N, trials = len(refs), max(1, min(BER_BLOCK_TRIALS, n_trials))
    errors, squared = np.zeros((2, N), dtype=np.int64)
    point = np.repeat(np.arange(len(rngs)), N // len(rngs))  # per row
    row_start = K * np.arange(N)[:, None]  # in refs.ravel()
    rows = max(1, min(N, BER_BLOCK_BYTES // (8 * trials * (K + 3))))
    points, metric = _ber_workspace(rows, trials, K)
    z = points[..., :2].view(np.complex128)[..., 0]
    for start in range(0, n_trials, BER_BLOCK_TRIALS):
        block = min(BER_BLOCK_TRIALS, n_trials - start)
        draws = [(g.integers(K, size=block), crandn(g, block)) for g in rngs]
        idx, noise = (np.array(d) for d in zip(*draws))
        for a in range(0, N, rows):
            at, pt = slice(a, a + rows), point[a:a + rows]
            i, n = idx[pt], len(pt)
            np.add(refs.take(row_start[at] + i), sigma[at] * noise[pt],
                   out=z[:n, :block])
            d = np.matmul(points[:n, :block], coef[at],
                          out=metric[:n, :block])
            e = codebook.bit_errors[i, np.argmin(d, axis=2)]
            errors[at] += e.sum(axis=1)
            squared[at] += (e * e).sum(axis=1)
    errors, squared = errors.reshape(shape), squared.reshape(shape)
    return (int(errors), int(squared)) if not shape else (errors, squared)

