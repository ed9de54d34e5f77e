"""Performance quantities: per-side interference factors, SJNR, Monte-Carlo
mutual information, the BER tally of ML detection, FLOP estimates.

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

# Float64 temporaries of one mi_inner_mean block of codebook entries:
# their Re- and Im-axis factors and their grid of inner sums. The default
# 32-entry codebook on the 22 x 23 grid of n_noise 500 fits in one block
# of ~490 KiB, as much as the dense kernel's block of 4 entries x 500
# draws took.
MI_BLOCK_BYTES = 512 * 1024

# Wichura's AS241 rational approximations of the standard normal quantile
# (Applied Statistics 37(3), 1988), the algorithm behind
# statistics.NormalDist.inv_cdf. Rows: the central region
# |p - 1/2| <= 0.425 in r = 0.180625 - (p - 1/2)^2, and the tails in
# r = sqrt(-log(min(p, 1 - p))) - 1.6 for r <= 5 and - 5 above; each a
# numerator and a denominator, highest power first. Stored as
# (power, numerator/denominator, branch), so that gathering the branch of
# every element gives contiguous coefficient rows.
_AS241 = np.array([
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4,
      6.7265770927008700853e+4, 4.5921953931549871457e+4,
      1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4,
      3.9307895800092710610e+4, 2.1213794301586595867e+4,
      5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.7454501427834140764e-4, 2.2723844989269184583e-2,
      2.4178072517745061177e-1, 1.2704582524523683826e+0,
      3.6478483247632046050e+0, 5.7694972214606914055e+0,
      4.6303378461565452959e+0, 1.4234371107496835773e+0),
     (1.0507500716444168432e-9, 5.4759380849953449460e-4,
      1.5198666563616457197e-2, 1.4810397642748007459e-1,
      6.8976733498510000455e-1, 1.6763848301838038494e+0,
      2.0531916266377588219e+0, 1.0)),
    ((2.0103343992922881327e-7, 2.7115555687434875782e-5,
      1.2426609473880784386e-3, 2.6532189526576123093e-2,
      2.9656057182850489123e-1, 1.7848265399172913358e+0,
      5.4637849111641143699e+0, 6.6579046435011037772e+0),
     (2.0442631033899397856e-15, 1.4215117583164458887e-7,
      1.8463183175100546818e-5, 7.8686913114561325910e-4,
      1.4875361290850614853e-2, 1.3692988092273580531e-1,
      5.9983220655588793769e-1, 1.0)),
]).transpose(2, 1, 0).copy()

# t - sin t = t^3 sum_k (-t^2)^k / (2k + 3)!, highest power first. Below
# t = 0.1, where the difference cancels, terms k = 0..4 reach full
# precision; above it the direct difference loses under 1e-13 relative.
_SIN_DEFECT = np.array([(-1.0) ** k / math.factorial(2 * k + 3)
                        for k in range(4, -1, -1)])


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


def _horner(coeffs, r):
    """The polynomial in r with the coefficients coeffs[0], coeffs[1], ...
    (highest power first) by Horner's rule."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * r + c
    return acc


def _normal_quantile(p):
    """Standard normal quantile of every element of p in (0, 1), by
    AS241 in the operation order of statistics.NormalDist.inv_cdf.

    Every element is evaluated with its own branch's coefficients only,
    and logarithms are taken of the tail elements only; the upper tail
    goes through its complement 1 - p.
    """
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    r = 0.180625 - q * q
    tail = np.abs(q) > 0.425
    qt = q[tail]
    rt = np.sqrt(-np.log(np.where(qt <= 0.0, p[tail], 1.0 - p[tail])))
    far = rt > 5.0
    r[tail] = rt - np.where(far, 5.0, 1.6)
    branch = np.zeros(p.shape, dtype=np.intp)
    branch[tail] = 1 + far
    num, den = _horner(np.take(_AS241, branch, axis=-1), r)
    # the central ratio is (num q)/den; a tail's is num/den, negated below
    # the median
    return num * np.where(tail, np.sign(q), q) / den


def _noise_grid(rng, K, n_noise):
    """Nodes and weights of entry-wise product rules for E f(n), n ~
    CN(0, 1): per codebook entry, an m_x x m_y grid of nodes
    n = x + i y, the smallest 2 <= m_x <= m_y <= m_x + 1 with at least
    n_noise nodes. Returns (x, wx, y, wy), K x m_x and K x m_y.

    Each axis x ~ N(0, 1/2) takes the m-point rectangle rule at
    v = (s + w)/m, s = 0..m-1, of the integral over (0, 1) of
    f(Phi^-1(tau(v)) / sqrt 2) tau'(v) dv under Sidi's periodizing map
    tau(v) = v - sin(2 pi v)/(2 pi), with one shift w per entry and axis
    drawn uniformly from (0, 1) (odd multiples of 2^-53). A uniform shift
    makes each rule's weighted sum an unbiased estimate of E f(x), and
    for m >= 2 the weights tau'(v)/m sum to 1 in exact arithmetic.
    """
    m_y = math.isqrt(n_noise - 1) + 1
    m_x = max(2, m_y - 1 if (m_y - 1) * m_y >= n_noise else m_y)
    m_y = max(2, m_y)
    shifts = (rng.integers(2 ** 52, size=(2, K)) + 0.5) / 2 ** 52
    s, rest, step = _grid_columns(m_x, m_y)
    w = np.repeat(shifts.T, [m_x, m_y], axis=1)
    # v and 1 - v, the latter in a form that stays positive for w < 1;
    # tau(1 - v) = 1 - tau(v) and tau'(1 - v) = tau'(v), so the rule is
    # evaluated at the nearer end and the upper half mirrored
    lower = s + w
    upper = rest + (1.0 - w)
    t = step * np.minimum(lower, upper)  # 2 pi min(v, 1 - v), in (0, pi]
    defect = t - np.sin(t)
    small = t < 0.1
    ts = t[small]
    defect[small] = ts ** 3 * _horner(_SIN_DEFECT, ts * ts)
    z = _normal_quantile(defect / (2.0 * math.pi))
    nodes = math.sqrt(0.5) * np.where(lower <= upper, z, -z)
    # tau'(v)/m = (1 - cos(2 pi v))/m = 2 sin^2(pi v)/m
    weights = (step / math.pi) * np.sin(0.5 * t) ** 2
    return (nodes[:, :m_x], weights[:, :m_x],
            nodes[:, m_x:], weights[:, m_x:])


@functools.lru_cache(maxsize=16)
def _grid_columns(m_x, m_y):
    """The two axes' rules side by side, m_x then m_y columns: per column
    its node index s, m - 1 - s and 2 pi/m for its rule size m. Cached
    per grid shape, a sweep has one, and read-only, since every call
    shares them."""
    s = np.concatenate([np.arange(m_x), np.arange(m_y)])
    m = np.repeat([m_x, m_y], [m_x, m_y])
    columns = (s, m - 1 - s, 2.0 * math.pi / m)
    for c in columns:
        c.setflags(write=False)
    return columns


def _axis_factors(x, coef):
    """exp(-d_ij^2 - 2 d_ij x_is) of one axis as a rows x m x K array:
    one batched matmul of the rows x m nodes [x_is, 1] with the
    rows x 2 x K coefficients [-2 d_ij, -d_ij^2] of its parts d."""
    nodes = np.empty(x.shape + (2,))
    nodes[..., 0] = x
    nodes[..., 1] = 1.0
    e = nodes @ coef
    return np.exp(e, out=e)


def mi_inner_mean(diffs, x, wx, y, wy):
    """Unclamped mutual-information estimate in bits: the mean over
    codebook entries i, and the weighted sum over entry i's grid of
    noise nodes n = x_is + i y_iq with weights wx_is wy_iq, of

        -log2(S_isq / K),  S_isq = sum_j exp(-|d_ij|^2 - 2 Re(d_ij conj n)).

    diffs is the K x K matrix of pairwise effective-symbol differences
    d_ij = g_i - g_j in the whitened scalar channel; x, wx are K x m_x
    and y, wy K x m_y. With d = a + i b the exponent is
    -a(a + 2x) - b(b + 2y), so S_i = A_i B_i^T for the factors
    A_i[s, j] = exp(-a_ij (a_ij + 2 x_is)) and B_i[q, j] likewise in b
    and y: K (m_x + m_y) exponentials per entry. Each factor is at most
    exp(x^2), and the j = i term is exactly 1, so a channel without
    signal gives exactly 0. Entries run in blocks of at most
    MI_BLOCK_BYTES of temporaries.
    """
    diffs = np.asarray(diffs, dtype=np.complex128)
    K = diffs.shape[0]
    if (diffs.shape != (K, K) or x.shape != wx.shape or y.shape != wy.shape
            or x.ndim != 2 or y.ndim != 2 or len(x) != K or len(y) != K):
        raise ValueError(f"shape mismatch: diffs {diffs.shape}, "
                         f"x {x.shape}, wx {wx.shape}, y {y.shape}, "
                         f"wy {wy.shape}")
    m_x, m_y = x.shape[1], y.shape[1]
    # coef[0] holds the Re parts' coefficients, coef[1] the Im parts'
    parts = np.moveaxis(np.ascontiguousarray(diffs).view(np.float64)
                        .reshape(K, K, 2), -1, 0)
    coef = np.empty((2, K, 2, K))
    np.multiply(parts, -2.0, out=coef[:, :, 0])
    np.multiply(parts, parts, out=coef[:, :, 1])
    np.negative(coef[:, :, 1], out=coef[:, :, 1])
    rows = max(1, MI_BLOCK_BYTES // (8 * (K * (m_x + m_y) + m_x * m_y)))
    total = 0.0
    for start in range(0, K, rows):
        block = slice(start, start + rows)
        sums = (_axis_factors(x[block], coef[0, block])
                @ _axis_factors(y[block], coef[1, block]).transpose(0, 2, 1))
        sums /= K
        np.log2(sums, out=sums)
        total -= float(np.sum(wx[block][:, None, :] @ sums
                              @ wy[block][:, :, None]))
    return total / K


def mutual_info_mc(u, side, chset, cfg, n_noise, rng):
    """Monte-Carlo mutual information of the scalar channel of u.

    The channel is whitened by its noise power; for every codebook
    entry, the noise expectation is a randomly shifted product rule of
    about n_noise CN(0, 1) nodes (_noise_grid) that mi_inner_mean sums.
    Each entry's weighted sum is an unbiased estimate of its
    expectation. The result is clamped to [0, log2(size)] bits.

    u is one combiner (a float is returned) or an m x n_rx stack of
    combiners (an array of m estimates is returned). The grid is drawn
    once and shared by every combiner in the stack, so a row's estimate
    equals a single call on an identically seeded rng.
    """
    if n_noise < 1:
        raise ValueError("n_noise must be at least 1")
    r, power = scalar_channel(u, side, chset, cfg)
    g = r / np.sqrt(_positive(power))[..., None]
    K = r.shape[-1]
    diffs = (g[..., :, None] - g[..., None, :]).reshape(-1, K, K)
    grid = _noise_grid(rng, K, n_noise)
    top = math.log2(K)
    bits = np.array([min(max(mi_inner_mean(d, *grid), 0.0), top)
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
