"""The separable mutual-information kernel and its Gauss-Hermite rule
against their defining formulas."""

import math
import warnings

import numpy as np
import pytest

from secsm import metrics
from secsm.metrics import _gauss_hermite, _mi_rule, mi_inner_mean

from helpers import crandn_t, dense_log2_sums

EPS = np.finfo(float).eps
# every node the MI rule keeps lies within this (6.088 at order 49)
KEPT_NODE_BOUND = 6.1


def reference_mean(diffs, noise, weights):
    """Direct evaluation of the defining formula, no vectorization: the
    mean over the R rows i of the R x K differences of sum_t weights_it
    (log2 K - log2 sum_j exp(-|d_ij + n_it|^2 + |n_it|^2))."""
    R, K = diffs.shape
    T = noise.shape[1]
    acc = 0.0
    for i in range(R):
        for t in range(T):
            s = 0.0
            for j in range(K):
                d = diffs[i, j]
                n = noise[i, t]
                s += np.exp(-abs(d + n) ** 2 + abs(n) ** 2)
            acc += weights[i, t] * (math.log2(K) - np.log2(s))
    return acc / R


def random_channel(rng, K, scale):
    """A whitened channel of K random hypotheses, as the 1 x K g of
    mi_inner_mean."""
    return scale * crandn_t(rng, 1, K)


def diffs_of(g, step):
    """The R x K differences of a 1 x K g's every step-th entry against
    all: the rows mi_inner_mean(g, step, ...) takes, so step = mod_order
    gives mutual_info_mc's n_active x K class rows."""
    return g[0, ::step, None] - g[0, None, :]


def one(g, step, rule):
    """mi_inner_mean's estimate of a 1 x K g, as a float."""
    bits = mi_inner_mean(g, step, *rule)
    assert isinstance(bits, np.ndarray) and bits.shape == (1,)
    return float(bits[0])


def rule_for(n_nodes):
    """The rule of the smallest m x m grid with at least n_nodes nodes,
    as mutual_info_mc sizes and floors it."""
    return _mi_rule(max(2, math.isqrt(n_nodes - 1) + 1))


def expand(R, x, w):
    """The m x m grid as R x m^2 nodes x_s + i x_q, weights w_s w_q, the
    same for each of R rows."""
    noise = (x[:, None] + 1j * x[None, :]).ravel()
    weights = np.outer(w, w).ravel()
    return np.tile(noise, (R, 1)), np.tile(weights, (R, 1))


def dense_value(diffs, rule):
    """The separable kernel's value from the dense helper formula on the
    expanded grid."""
    R, K = diffs.shape
    noise, weights = expand(R, *rule)
    return float(np.sum(weights * (math.log2(K)
                                   - dense_log2_sums(diffs, noise)))) / R


def case_ids(cases):
    """Test ids of (K, ..., step) cases: the values but the step, joined
    by '-', and '-step<n>' for a case of every n-th row."""
    return ["-".join(map(str, c[:-1])) + (f"-step{c[-1]}" if c[-1] > 1
                                          else "") for c in cases]


def test_numpy_matches_reference():
    # every entry's row, and 2 rows of 8, one per antenna of a QPSK
    # codebook on 2 antennas
    for step in (1, 4):
        rng = np.random.default_rng(1)
        g = random_channel(rng, 8, 1.0)
        diffs, rule = diffs_of(g, step), rule_for(16)
        assert one(g, step, rule) == pytest.approx(
            reference_mean(diffs, *expand(len(diffs), *rule)), rel=1e-12)


def test_dense_helper_matches_reference():
    for step in (1, 4):
        rng = np.random.default_rng(2)
        diffs = diffs_of(random_channel(rng, 8, 1.0), step)
        R = len(diffs)
        noise = crandn_t(rng, R, 16)
        dense = 3.0 - float(dense_log2_sums(diffs, noise).mean())
        assert dense == pytest.approx(
            reference_mean(diffs, noise, np.full((R, 16), 1 / 16)),
            rel=1e-12)


# (K, nodes, scale, step); the last case is mutual_info_mc's default:
# 8 antenna rows of a 32-entry codebook on the 35 x 35 floored grid of
# n_noise 500 per entry
SEPARABLE_CASES = [(8, 12, 1.0, 1), (7, 2, 3.0, 1), (32, 500, 0.5, 1),
                   (2, 7, 2.0, 1), (32, 2000, 0.5, 4)]


@pytest.mark.parametrize("K, n_noise, scale, step", SEPARABLE_CASES,
                         ids=case_ids(SEPARABLE_CASES))
def test_separable_matches_dense_grid(K, n_noise, scale, step):
    rng = np.random.default_rng(K + n_noise)
    g = random_channel(rng, K, scale)
    rule = rule_for(n_noise)
    assert one(g, step, rule) == \
        pytest.approx(dense_value(diffs_of(g, step), rule), rel=1e-12)


BLOCK_CASES = [(7, 16, 1.0, 1), (7, 1, 3.0, 1), (32, 3, 0.5, 1),
               (64, 40, 1.0, 8)]


@pytest.mark.parametrize("K, T, scale, step", BLOCK_CASES,
                         ids=case_ids(BLOCK_CASES))
def test_blocks_match_reference(K, T, scale, step, monkeypatch):
    # blocks of 3 rows, the last one shorter, on the grid of T nodes:
    # a 4 x 4 grid, the 2 x 2 floor at one node, the default 32-entry
    # codebook over several blocks, and the 8 antenna rows of a 64-entry
    # 8-PSK codebook
    rng = np.random.default_rng(K + T)
    g = random_channel(rng, K, scale)
    rule = rule_for(T)
    whole = one(g, step, rule)
    set_block_rows(monkeypatch, K, rule, 3)
    # the workspace the blocked call runs in, not one cached before
    (blocked,), rows = call_with_workspace(monkeypatch, g, step, rule)
    assert rows == 3
    assert blocked == pytest.approx(whole, rel=1e-13)
    assert blocked == pytest.approx(dense_value(diffs_of(g, step), rule),
                                    rel=1e-12)


# (K, n_noise, scale, step); K = 40 at n_noise 500 runs in blocks of 24
# rows, the last of 16, under the default MI_BLOCK_BYTES, and the last
# case has mutual_info_mc's default 8 x 32 shape
WORKSPACE_CASES = [(32, 500, 0.5, 1), (8, 12, 1.0, 1), (40, 500, 1.0, 1),
                   (32, 500, 2.0, 1), (7, 2, 3.0, 1), (8, 12, 1.0, 1),
                   (32, 2000, 1.0, 4)]


def workspace_inputs(k):
    """(g, step, rule) of WORKSPACE_CASES[k]."""
    K, n_noise, scale, step = WORKSPACE_CASES[k]
    rng = np.random.default_rng(100 + k)
    return random_channel(rng, K, scale), step, rule_for(n_noise)


def call_with_workspace(monkeypatch, g, step, rule):
    """(mi_inner_mean(g, step, *rule), the rows of the workspace it ran
    in), read by a spy on metrics._mi_workspace."""
    shapes = []
    workspace = metrics._mi_workspace

    def spy(*args):
        shapes.append(args)
        return workspace(*args)

    monkeypatch.setattr(metrics, "_mi_workspace", spy)
    value = mi_inner_mean(g, step, *rule)
    monkeypatch.setattr(metrics, "_mi_workspace", workspace)
    [(rows, K, m)] = shapes
    assert (K, m) == (g.shape[-1], len(rule[0]))
    return value, rows


def test_partial_last_block_under_default_budget(monkeypatch):
    g, step, rule = workspace_inputs(2)
    _, rows = call_with_workspace(monkeypatch, g, step, rule)
    R = g.shape[1] // step
    assert 1 < rows < R and R % rows


def test_workspace_independent_of_call_history():
    # interleaved shapes and a repeated call give the values of calls on
    # newly built workspaces, bit for bit, and agree with the dense formula
    inputs = [workspace_inputs(k) for k in range(len(WORKSPACE_CASES))]
    here = [one(*case) for case in inputs]
    here.append(one(*inputs[0]))
    fresh = []
    for case in inputs:
        metrics._mi_workspace.cache_clear()
        fresh.append(one(*case))
    assert here == fresh + fresh[:1]
    for value, (g, step, rule) in zip(here, inputs):
        assert value == pytest.approx(dense_value(diffs_of(g, step), rule),
                                      rel=1e-12)


def test_workspace_cells_written_before_read(monkeypatch):
    # every buffer filled with NaN between calls: a cell read before it
    # is written turns the estimate NaN. One channel of 40 rows in blocks
    # of 24, then 5 channels of 8 rows in blocks of 16, the last holding 8
    cases = [workspace_inputs(2), (stack_inputs(5, 32, 20), 4, rule_for(20))]
    for k, (g, step, rule) in enumerate(cases):
        if k:
            set_block_rows(monkeypatch, g.shape[-1], rule, 16)
        first, rows = call_with_workspace(monkeypatch, g, step, rule)
        for buf in metrics._mi_workspace(rows, g.shape[-1], len(rule[0])):
            buf[...] = np.nan
        again = mi_inner_mean(g, step, *rule)
        assert np.array_equal(again, first) and not np.isnan(first).any()


@pytest.mark.parametrize("shape, dtype", [
    ((1,), np.float64), ((7,), np.uint8), ((4, 1), np.float32),
    ((3, 5), np.complex128), ((2, 3, 3), np.int64),
    ((2, 7, 2, 32), np.float64), ((256, 32), np.complex128)])
def test_aligned_empty_starts_on_cache_line(shape, dtype):
    # whatever offset the heap gives: small arrays of every size in
    # between shift it, and are kept alive so they do
    held = []
    for size in range(1, 130, 8):
        held.append(np.empty(size, dtype=np.uint8))
        a = metrics._aligned_empty(shape, dtype)
        assert a.ctypes.data % 64 == 0
        assert a.shape == shape and a.dtype == dtype
        assert a.flags.c_contiguous and a.flags.writeable


def test_workspace_starts_on_cache_line():
    # coefficients, both factors as the grid product reads them, sums
    bufs = metrics._mi_workspace(3, 32, 45)
    assert [buf.shape for buf in bufs] == [(2, 2, 3, 32), (3, 45, 32),
                                           (3, 32, 45), (3, 45, 45)]
    for buf in bufs:
        assert buf.ctypes.data % 64 == 0 and buf.flags.c_contiguous


def subnormal_count(a):
    """The entries of a strictly between zero and the smallest normal."""
    return int(np.count_nonzero((a != 0.0)
                                & (np.abs(a) < np.finfo(float).tiny)))


# (SNRs in dB of channels of 8 rows, rows a block): all in one block;
# a wide channel ending the first block and filling the last; one
# straddling two blocks, its last 2 rows opening the last block
@pytest.mark.parametrize("snrs, rows", [((0.0, 20.0, 30.0, 40.0), 32),
                                        ((0.0, 40.0), 12),
                                        ((0.0, 40.0, 0.0), 14)])
def test_high_snr_factors_stay_normal(snrs, rows, monkeypatch):
    # 32 entries at n_noise 500; the workspace keeps the last block's
    # factors and, past its rows, the block's before: the clamped call
    # leaves no subnormal factor, the unclamped one (an infinite bound)
    # does, and both give the same estimates bit for bit, each a call on
    # its channel alone's
    rng = np.random.default_rng(36)
    g = np.concatenate([10.0 ** (snr / 20.0) * random_channel(rng, 32, 1.0)
                        for snr in snrs])
    rule = rule_for(500)
    set_block_rows(monkeypatch, 32, rule, rows)
    clamped, used = call_with_workspace(monkeypatch, g, 4, rule)
    assert used == rows
    _, a, b, _ = metrics._mi_workspace(rows, 32, len(rule[0]))
    assert subnormal_count(a) == subnormal_count(b) == 0
    monkeypatch.setattr(metrics, "MI_DIFF_BOUND", math.inf)
    unclamped = mi_inner_mean(g, 4, *rule)
    assert subnormal_count(a) + subnormal_count(b) > 0
    assert clamped.tobytes() == unclamped.tobytes()
    monkeypatch.undo()
    assert clamped.tolist() == [one(g[i:i + 1], 4, rule)
                                for i in range(len(snrs))]


@pytest.mark.parametrize("m", [35, 64, 174])
def test_clamp_exact_on_full_rules(m, monkeypatch):
    # full rules with nodes out to 7.5, 10.5 and 18.6, where a clamped
    # difference part can count in a sum, but only at nodes whose weight
    # hides it: 20-40 dB channels give the unclamped estimates bit for
    # bit; a bound of 8 moves them, so the clamp is reached
    rng = np.random.default_rng(37)
    g = np.concatenate([10.0 ** (snr / 20.0) * random_channel(rng, 32, 1.0)
                        for snr in (20.0, 30.0, 40.0)])
    rule = _gauss_hermite(m)
    clamped = mi_inner_mean(g, 4, *rule)
    monkeypatch.setattr(metrics, "MI_DIFF_BOUND", math.inf)
    unclamped = mi_inner_mean(g, 4, *rule)
    assert clamped.tobytes() == unclamped.tobytes()
    monkeypatch.setattr(metrics, "MI_DIFF_BOUND", 8.0)
    assert np.all(mi_inner_mean(g, 4, *rule) != unclamped)


def stack_inputs(G, K, n_noise):
    """A G x K g of G random_channel rows at scales from 0.3 to 2."""
    rng = np.random.default_rng(G * K + n_noise)
    return np.concatenate([random_channel(rng, K, scale)
                           for scale in np.linspace(0.3, 2.0, G)])


def set_block_rows(monkeypatch, K, rule, rows):
    """A block budget of the given rows for K entries and the rule: the
    coefficients, both factors and sums of a row take 8 (4 K + 2 m K +
    m^2) bytes."""
    m = len(rule[0])
    monkeypatch.setattr(metrics, "MI_BLOCK_BYTES",
                        rows * 8 * (4 * K + 2 * m * K + m * m))


# (G, K, n_noise, step, budget rows or None for MI_BLOCK_BYTES, rows of
# the block the stack runs in): 2 channels a block with a shorter last
# block; blocks of 7 rows across channels of 2; one block of all
# channels; channels larger than a block, in blocks of 3 rows and of 1;
# 27 default-budget channels of 8 rows at the 9 x 9 rule of 80 nodes
# (QPSK at n_noise 20), 78 a block, so blocks straddle channels; and
# 8-PSK on 8 antennas, whose 3-row blocks straddle channels of 8 rows
STACK_CASES = [(5, 32, 20, 4, 16, 16), (4, 8, 12, 4, 7, 7),
               (3, 8, 50, 2, None, 12), (3, 32, 50, 4, 3, 3),
               (2, 7, 2, 1, 1, 1), (27, 32, 80, 4, None, 78),
               (4, 64, 40, 8, 3, 3)]


@pytest.mark.parametrize("G, K, n_noise, step, budget, rows", STACK_CASES)
def test_stack_equals_single_calls(G, K, n_noise, step, budget, rows,
                                   monkeypatch):
    g, rule = stack_inputs(G, K, n_noise), rule_for(n_noise)
    if budget:
        set_block_rows(monkeypatch, K, rule, budget)
    stacked, got = call_with_workspace(monkeypatch, g, step, rule)
    assert got == rows
    assert isinstance(stacked, np.ndarray) and stacked.shape == (G,)
    singles = [one(g[i:i + 1], step, rule) for i in range(G)]
    assert stacked.tolist() == singles
    # split into two calls: the same estimates
    halves = [mi_inner_mean(part, step, *rule)
              for part in (g[:G // 2], g[G // 2:])]
    assert np.concatenate(halves).tolist() == singles


def test_estimates_independent_of_block_split(monkeypatch):
    # one stack of 5 channels of 8 rows under budgets of 1 row, 3 rows
    # (a channel split over blocks), 12 rows (blocks straddling two
    # channels) and the default (one block): bit-identical estimates
    g, rule = stack_inputs(5, 32, 20), rule_for(20)
    default = metrics.MI_BLOCK_BYTES
    results = []
    for budget, want in [(1, 1), (3, 3), (12, 12), (None, 40)]:
        if budget:
            set_block_rows(monkeypatch, 32, rule, budget)
        else:
            monkeypatch.setattr(metrics, "MI_BLOCK_BYTES", default)
        bits, rows = call_with_workspace(monkeypatch, g, 4, rule)
        assert rows == want
        results.append(bits.tolist())
    assert all(r == results[0] for r in results)


@pytest.mark.parametrize("K, m", [(32, 45), (32, 3), (40, 45), (8, 9),
                                  (64, 127), (2, 2)])
def test_workspace_within_block_budget(K, m, monkeypatch):
    # all four workspace arrays count: a block of more than one row fits
    # in MI_BLOCK_BYTES, and takes as many rows as fit; 130 channels of
    # one row each
    rule = _gauss_hermite(m)
    _, rows = call_with_workspace(monkeypatch, np.zeros((130, K)), K, rule)
    used = sum(buf.nbytes for buf in metrics._mi_workspace(rows, K, m))
    assert used // rows == 8 * (4 * K + 2 * m * K + m * m)
    assert rows == 1 or used <= metrics.MI_BLOCK_BYTES
    assert rows == 130 or used + used // rows > metrics.MI_BLOCK_BYTES


def test_empty_stack_gives_empty_array():
    bits = mi_inner_mean(np.zeros((0, 32)), 4, *rule_for(20))
    assert isinstance(bits, np.ndarray) and bits.shape == (0,)
    # and mutual_info of no channels, with any leading axes
    for lead in [(0,), (2, 0)]:
        bits = metrics.mutual_info(np.zeros(lead + (32,), dtype=complex),
                                   np.ones(lead), 4, 20)
        assert isinstance(bits, np.ndarray) and bits.shape == lead


def test_zero_diffs_gives_zero():
    # all hypotheses identical: every inner sum is exactly K, and the
    # estimate exactly +0.0, of one channel or of each in a stack
    bits = one(np.zeros((1, 8)), 1, rule_for(50))
    assert bits == 0.0 and math.copysign(1.0, bits) == 1.0
    stacked = mi_inner_mean(np.zeros((3, 8)), 1, *rule_for(50))
    assert stacked.tolist() == [0.0] * 3
    assert not np.signbit(stacked).any()


def test_shape_validation():
    x, w = np.zeros(2), np.zeros(2)
    # 2 rows against 4 entries is legal, of one channel or each of 2; the
    # rule is one 1-D x and w
    assert mi_inner_mean(np.zeros((1, 4)), 2, x, w).tolist() == [0.0]
    assert mi_inner_mean(np.zeros((2, 4)), 2, x, w).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros(3), 1, x, w)
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((2, 3, 4)), 2, x, w)
    # mod_order must divide the entries into whole antennas
    for mod_order in (0, 3):
        with pytest.raises(ValueError):
            mi_inner_mean(np.zeros((1, 4)), mod_order, x, w)
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((1, 3)), 1, np.zeros((3, 2)),
                      np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((1, 3)), 1, x, np.zeros(3))


class TestGridRule:
    """The m-point Gauss-Hermite rule for x ~ N(0, 1/2) that both axes of
    mutual_info_mc's noise grid share."""

    @staticmethod
    def moment(k):
        """E x^k for x ~ N(0, 1/2): (k - 1)!! / 2^(k/2) for even k."""
        return 0.0 if k % 2 else math.prod(range(k - 1, 0, -2)) / 2 ** (k // 2)

    @pytest.mark.parametrize("m", [2, 3, 5, 12, 45])
    def test_exact_up_to_degree_2m_minus_1(self, m):
        x, w = _gauss_hermite(m)
        for k in range(2 * m):
            scale = float(w @ np.abs(x) ** k)
            assert abs(float(w @ x ** k) - self.moment(k)) <= 1e-13 * scale
        # and not beyond: the m-point rule misses E x^2m by m!/2^m
        k = 2 * m
        assert float(w @ x ** k) - self.moment(k) == pytest.approx(
            -math.factorial(m) / 2 ** m, rel=0.05)

    @pytest.mark.parametrize("n_noise", [2, 6, 49, 500, 20_000])
    def test_weights_sum_to_one(self, n_noise):
        x, w = rule_for(n_noise)
        assert np.all(w > 0.0) and np.all(np.diff(x) > 0.0)
        assert abs(w.sum() - 1.0) <= 4 * EPS
        # nodes and weights symmetric about 0, like the density
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(w, w[::-1])

    @pytest.mark.parametrize("m", [2, 7, 45, 96, 174])
    def test_matches_numpy_hermgauss(self, m):
        # numpy's rule for the weight exp(-x^2) is the same rule, its
        # weights scaled by 1/sqrt(pi); up to order 174 no node is dropped
        x, w = _gauss_hermite(m)
        ref_x, ref_w = np.polynomial.hermite.hermgauss(m)
        np.testing.assert_allclose(x, ref_x, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(w, ref_w / math.sqrt(math.pi), rtol=1e-12)

    def test_large_order_stays_finite(self):
        # numpy's hermgauss gives NaN weights at order 1000, where p_999
        # overflows at the outer nodes; this rule rescales its recurrence,
        # and the weight floor keeps the nodes within 6.1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, w = _mi_rule(1000)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert np.all(w > 0.0) and np.max(np.abs(x)) <= KEPT_NODE_BOUND
        assert abs(w.sum() - 1.0) <= 4 * EPS
        for k in (2, 4, 6):
            assert float(w @ x ** k) == pytest.approx(self.moment(k),
                                                      rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_corner_factors_stay_finite(self):
        # a difference at minus a corner node x + i y of the order-300
        # grid makes a factor pair exp(x^2 + y^2); the nodes the weight
        # floor drops keep it finite, so the estimate is finite too
        # (g = [0, -d] gives its symbol-1 entry the differences [0, d])
        x, w = _mi_rule(300)
        d = -(x[-1] + 1j * x[-1])
        bits = one(np.array([[0.0, -d]]), 2, (x, w))
        assert 0.0 <= bits <= 1.0

    def test_cached_and_read_only(self):
        x, w = _gauss_hermite(45)
        assert _gauss_hermite(45)[0] is x
        assert not x.flags.writeable and not w.flags.writeable


def log_sum_exp_value(diffs, x, w):
    """mi_inner_mean's estimate from one channel's R x K differences
    (diffs_of), each grid node's inner sum taken as a log-sum-exp: finite
    at any order and scale, where the kernel's exp(x^2) factors of the
    full rule overflow."""
    a, b = diffs.real[:, None, :], diffs.imag[:, None, :]
    im_part = -b * (b + 2.0 * x[:, None])
    per_row = np.zeros(len(diffs))
    for x_s, w_s in zip(x, w):
        e = -a * (a + 2.0 * x_s) + im_part
        top = e.max(axis=-1, keepdims=True)
        log2_sums = (top[..., 0] + np.log(np.exp(e - top).sum(axis=-1))
                     ) / math.log(2.0)
        per_row += w_s * ((math.log2(diffs.shape[1]) - log2_sums) @ w)
    return float(per_row.mean())


class TestMiRule:
    """The weight-floored rule mutual_info reads, against the full
    Gauss-Hermite rule of the same order."""

    @pytest.mark.parametrize("K", [8, 32, 64])
    @pytest.mark.parametrize("m", [2, 3, 24, 45, 64, 127, 200])
    def test_dropped_nodes_within_bound(self, m, K):
        # at a node n, |log2(S/K)| <= log2 K + |n|^2 / ln 2, so the
        # dropped pairs move an estimate by at most the sum of their
        # weights times that, and renormalizing the rest by at most the
        # dropped weight D times log2 K + E|n|^2 / ln 2; on top, the
        # rounding of two grid sums
        x, w = _gauss_hermite(m)
        kept_x, kept_w = _mi_rule(m)
        assert np.max(np.abs(kept_x)) <= KEPT_NODE_BOUND
        if m <= 24:
            # every node kept: the full rule, bit for bit
            assert kept_x.tobytes() == x.tobytes()
            assert kept_w.tobytes() == w.tobytes()
        keep = np.isin(x, kept_x)
        assert keep.sum() == {45: 35, 64: 42, 127: 61, 200: 76}.get(m, m)
        pair_w = np.outer(w, w)[~np.outer(keep, keep)]
        pair_n2 = (x[:, None] ** 2 + x[None, :] ** 2)[~np.outer(keep, keep)]
        dropped = pair_w.sum()
        bound = (float(pair_w @ (math.log2(K) + pair_n2 / math.log(2.0)))
                 + dropped / (1.0 - dropped)
                 * (math.log2(K) + 1.0 / math.log(2.0)))
        rounding = 16 * EPS * (math.log2(K) + 2.0)
        rng = np.random.default_rng(1000 * K + m)
        for scale in (0.05, 0.3, 1.0, 3.0, 10.0):
            g = random_channel(rng, K, scale)
            floored = one(g, 4, (kept_x, kept_w))
            full = log_sum_exp_value(diffs_of(g, 4), x, w)
            assert abs(floored - full) <= bound + rounding
