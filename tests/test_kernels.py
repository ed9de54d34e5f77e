"""The separable mutual-information kernel and its Gauss-Hermite rule
against their defining formulas."""

import math
import warnings

import numpy as np
import pytest

from secsm import metrics
from secsm.metrics import NODE_LIMIT, _gauss_hermite, mi_inner_mean

from helpers import crandn_t, dense_log2_sums

EPS = np.finfo(float).eps


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


def random_diffs(rng, K, scale, step=1):
    """Differences of K random hypotheses: every step-th one's row, so
    step = mod_order gives mutual_info_mc's n_active x K class rows."""
    g = scale * crandn_t(rng, K)
    return g[::step, None] - g[None, :]


def rule_for(n_nodes):
    """The rule of the smallest m x m grid with at least n_nodes nodes,
    as mutual_info_mc sizes it."""
    return _gauss_hermite(max(2, math.isqrt(n_nodes - 1) + 1))


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
        diffs = random_diffs(rng, 8, 1.0, step)
        rule = rule_for(16)
        assert mi_inner_mean(diffs, *rule) == pytest.approx(
            reference_mean(diffs, *expand(len(diffs), *rule)), rel=1e-12)


def test_dense_helper_matches_reference():
    for step in (1, 4):
        rng = np.random.default_rng(2)
        diffs = random_diffs(rng, 8, 1.0, step)
        R = len(diffs)
        noise = crandn_t(rng, R, 16)
        dense = 3.0 - float(dense_log2_sums(diffs, noise).mean())
        assert dense == pytest.approx(
            reference_mean(diffs, noise, np.full((R, 16), 1 / 16)),
            rel=1e-12)


# (K, nodes, scale, step); the last case is mutual_info_mc's default:
# 8 antenna rows of a 32-entry codebook on the 45 x 45 grid of n_noise
# 500 per entry
SEPARABLE_CASES = [(8, 12, 1.0, 1), (7, 2, 3.0, 1), (32, 500, 0.5, 1),
                   (2, 7, 2.0, 1), (32, 2000, 0.5, 4)]


@pytest.mark.parametrize("K, n_noise, scale, step", SEPARABLE_CASES,
                         ids=case_ids(SEPARABLE_CASES))
def test_separable_matches_dense_grid(K, n_noise, scale, step):
    rng = np.random.default_rng(K + n_noise)
    diffs = random_diffs(rng, K, scale, step)
    rule = rule_for(n_noise)
    assert mi_inner_mean(diffs, *rule) == \
        pytest.approx(dense_value(diffs, rule), rel=1e-12)


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
    diffs = random_diffs(rng, K, scale, step)
    rule = rule_for(T)
    whole = mi_inner_mean(diffs, *rule)
    m = len(rule[0])
    monkeypatch.setattr(metrics, "MI_BLOCK_BYTES", 3 * 8 * m * (2 * K + m))
    # the workspace the blocked call runs in, not one cached before
    blocked, rows = call_with_workspace(monkeypatch, diffs, rule)
    assert rows == 3
    assert blocked == pytest.approx(whole, rel=1e-13)
    assert blocked == pytest.approx(dense_value(diffs, rule), rel=1e-12)


# (K, n_noise, scale, step); K = 40 at n_noise 500 runs in blocks of 29
# and 11 rows under the default MI_BLOCK_BYTES, and the last case has
# mutual_info_mc's default 8 x 32 shape
WORKSPACE_CASES = [(32, 500, 0.5, 1), (8, 12, 1.0, 1), (40, 500, 1.0, 1),
                   (32, 500, 2.0, 1), (7, 2, 3.0, 1), (8, 12, 1.0, 1),
                   (32, 2000, 1.0, 4)]


def workspace_inputs(k):
    K, n_noise, scale, step = WORKSPACE_CASES[k]
    rng = np.random.default_rng(100 + k)
    return random_diffs(rng, K, scale, step), rule_for(n_noise)


def call_with_workspace(monkeypatch, diffs, rule):
    """(mi_inner_mean(diffs, *rule), the rows of the workspace it ran
    in), read by a spy on metrics._mi_workspace."""
    shapes = []
    workspace = metrics._mi_workspace

    def spy(*args):
        shapes.append(args)
        return workspace(*args)

    monkeypatch.setattr(metrics, "_mi_workspace", spy)
    value = mi_inner_mean(diffs, *rule)
    monkeypatch.setattr(metrics, "_mi_workspace", workspace)
    [(rows, K, m)] = shapes
    assert (K, m) == (diffs.shape[-1], len(rule[0]))
    return value, rows


def test_partial_last_block_under_default_budget(monkeypatch):
    diffs, rule = workspace_inputs(2)
    _, rows = call_with_workspace(monkeypatch, diffs, rule)
    assert 1 < rows < len(diffs) and len(diffs) % rows


def test_workspace_independent_of_call_history():
    # interleaved shapes and a repeated call give the values of calls on
    # newly built workspaces, bit for bit, and agree with the dense formula
    inputs = [workspace_inputs(k) for k in range(len(WORKSPACE_CASES))]
    here = [mi_inner_mean(diffs, *rule) for diffs, rule in inputs]
    here.append(mi_inner_mean(inputs[0][0], *inputs[0][1]))
    fresh = []
    for diffs, rule in inputs:
        metrics._mi_workspace.cache_clear()
        fresh.append(mi_inner_mean(diffs, *rule))
    assert here == fresh + fresh[:1]
    for value, (diffs, rule) in zip(here, inputs):
        assert value == pytest.approx(dense_value(diffs, rule), rel=1e-12)


def test_workspace_cells_written_before_read(monkeypatch):
    # every buffer filled with NaN between calls: a cell read before it
    # is written turns the estimate NaN. One group in blocks of 27 rows,
    # then 5 groups of 8 rows in blocks of 2 groups, the last holding one
    cases = [workspace_inputs(2), (stack_inputs(5, 32, 20, 4), rule_for(20))]
    for k, (diffs, rule) in enumerate(cases):
        if k:
            set_block_rows(monkeypatch, diffs, rule, 16)
        first, rows = call_with_workspace(monkeypatch, diffs, rule)
        for buf in metrics._mi_workspace(rows, diffs.shape[-1],
                                         len(rule[0])):
            buf[...] = np.nan
        again = mi_inner_mean(diffs, *rule)
        assert np.array_equal(again, first) and not np.isnan(first).any()


def stack_inputs(G, K, n_noise, step):
    """G groups of random_diffs, each its own whitened channel."""
    rng = np.random.default_rng(G * K + n_noise)
    return np.array([random_diffs(rng, K, scale, step)
                     for scale in np.linspace(0.3, 2.0, G)])


def set_block_rows(monkeypatch, diffs, rule, rows):
    """A block budget of the given rows for diffs' K and the rule."""
    K, m = diffs.shape[-1], len(rule[0])
    monkeypatch.setattr(metrics, "MI_BLOCK_BYTES", rows * 8 * m * (2 * K + m))


# (G, K, n_noise, step, budget rows or None for MI_BLOCK_BYTES, rows of
# the block the stack runs in): 2 groups a block with a shorter last
# block; 3 groups a block, not a multiple of the budget's 7 rows; one
# block of all groups; groups larger than a block, in blocks of 3 rows
# and of 1; and 27 default-budget groups of 8 rows at the 9 x 9 rule of
# 80 nodes (QPSK at n_noise 20), 12 a block
STACK_CASES = [(5, 32, 20, 4, 16, 16), (4, 8, 12, 4, 7, 6),
               (3, 8, 50, 2, None, 12), (3, 32, 50, 4, 3, 3),
               (2, 7, 2, 1, 1, 1), (27, 32, 80, 4, None, 96)]


@pytest.mark.parametrize("G, K, n_noise, step, budget, rows", STACK_CASES)
def test_stack_equals_single_calls(G, K, n_noise, step, budget, rows,
                                   monkeypatch):
    diffs, rule = stack_inputs(G, K, n_noise, step), rule_for(n_noise)
    if budget:
        set_block_rows(monkeypatch, diffs, rule, budget)
    stacked, got = call_with_workspace(monkeypatch, diffs, rule)
    assert got == rows
    assert isinstance(stacked, np.ndarray) and stacked.shape == (G,)
    singles = [mi_inner_mean(d, *rule) for d in diffs]
    assert all(type(v) is float for v in singles)
    assert stacked.tolist() == singles
    # two leading axes: the same estimates in their shape
    if G % 2 == 0:
        pairs = mi_inner_mean(diffs.reshape(2, G // 2, *diffs.shape[1:]),
                              *rule)
        assert pairs.shape == (2, G // 2)
        assert pairs.ravel().tolist() == singles


def test_zero_diffs_gives_zero():
    # all hypotheses identical: every inner sum is exactly K, and the
    # estimate exactly +0.0, of one group or of each in a stack
    bits = mi_inner_mean(np.zeros((8, 8)), *rule_for(50))
    assert bits == 0.0 and math.copysign(1.0, bits) == 1.0
    stacked = mi_inner_mean(np.zeros((3, 8, 8)), *rule_for(50))
    assert stacked.tolist() == [0.0] * 3
    assert not np.signbit(stacked).any()


def test_shape_validation():
    x, w = np.zeros(2), np.zeros(2)
    # 3 rows against 4 entries is legal, alone or as 2 groups; the rule
    # is one 1-D x and w
    assert mi_inner_mean(np.zeros((3, 4)), x, w) == 0.0
    assert mi_inner_mean(np.zeros((2, 3, 4)), x, w).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros(3), x, w)
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 3)), x, np.zeros(3))


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
        # overflows at the outer nodes; this rule rescales its recurrence
        # and keeps the nodes within NODE_LIMIT
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, w = _gauss_hermite(1000)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w))
        assert np.all(w > 0.0) and np.max(np.abs(x)) <= NODE_LIMIT
        assert abs(w.sum() - 1.0) <= 4 * EPS
        for k in (2, 4, 6):
            assert float(w @ x ** k) == pytest.approx(self.moment(k),
                                                      rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_corner_factors_stay_finite(self):
        # a difference at minus a corner node x + i y of the order-300
        # grid makes a factor pair exp(x^2 + y^2); the nodes dropped
        # past NODE_LIMIT keep it finite, so the estimate is finite too
        x, w = _gauss_hermite(300)
        d = -(x[-1] + 1j * x[-1])
        bits = mi_inner_mean(np.array([[0.0, d]]), x, w)
        assert 0.0 <= bits <= 1.0

    def test_cached_and_read_only(self):
        x, w = _gauss_hermite(45)
        assert _gauss_hermite(45)[0] is x
        assert not x.flags.writeable and not w.flags.writeable
