"""The separable mutual-information kernel and its noise grid against
their defining formulas."""

import math
import statistics

import numpy as np
import pytest

from secsm import metrics
from secsm.metrics import _noise_grid, _normal_quantile, mi_inner_mean

from helpers import crandn_t, dense_log2_sums

EPS = np.finfo(float).eps


def reference_mean(diffs, noise, weights):
    """Direct evaluation of the defining formula, no vectorization: the
    mean over entries i of sum_t weights_it (log2 K - log2 sum_j
    exp(-|d_ij + n_it|^2 + |n_it|^2))."""
    K = diffs.shape[0]
    T = noise.shape[1]
    acc = 0.0
    for i in range(K):
        for t in range(T):
            s = 0.0
            for j in range(K):
                d = diffs[i, j]
                n = noise[i, t]
                s += np.exp(-abs(d + n) ** 2 + abs(n) ** 2)
            acc += weights[i, t] * (math.log2(K) - np.log2(s))
    return acc / K


def random_diffs(rng, K, scale):
    g = scale * crandn_t(rng, K)
    return g[:, None] - g[None, :]


def expand(x, wx, y, wy):
    """The grid as K x (m_x m_y) nodes x_is + i y_iq, weights wx_is wy_iq."""
    K = len(x)
    noise = (x[:, :, None] + 1j * y[:, None, :]).reshape(K, -1)
    weights = (wx[:, :, None] * wy[:, None, :]).reshape(K, -1)
    return noise, weights


def dense_value(diffs, grid):
    """The separable kernel's value from the dense helper formula on the
    expanded grid."""
    noise, weights = expand(*grid)
    K = len(diffs)
    return float(np.sum(weights * (math.log2(K)
                                   - dense_log2_sums(diffs, noise)))) / K


def test_numpy_matches_reference():
    rng = np.random.default_rng(1)
    diffs = random_diffs(rng, 8, 1.0)
    grid = _noise_grid(rng, 8, 16)
    assert mi_inner_mean(diffs, *grid) == \
        pytest.approx(reference_mean(diffs, *expand(*grid)), rel=1e-12)


def test_dense_helper_matches_reference():
    rng = np.random.default_rng(2)
    diffs = random_diffs(rng, 8, 1.0)
    noise = crandn_t(rng, 8, 16)
    dense = 3.0 - float(dense_log2_sums(diffs, noise).mean())
    assert dense == pytest.approx(
        reference_mean(diffs, noise, np.full((8, 16), 1 / 16)), rel=1e-12)


@pytest.mark.parametrize("K, n_noise, scale", [(8, 12, 1.0), (7, 2, 3.0),
                                               (32, 500, 0.5), (2, 7, 2.0)])
def test_separable_matches_dense_grid(K, n_noise, scale):
    rng = np.random.default_rng(K + n_noise)
    diffs = random_diffs(rng, K, scale)
    grid = _noise_grid(rng, K, n_noise)
    assert mi_inner_mean(diffs, *grid) == \
        pytest.approx(dense_value(diffs, grid), rel=1e-12)


@pytest.mark.parametrize("K, T, scale", [(7, 16, 1.0), (7, 1, 3.0),
                                         (32, 3, 0.5)])
def test_blocks_match_reference(K, T, scale, monkeypatch):
    # blocks of 3 entries, the last one shorter, on the grid of T nodes:
    # a 4 x 4 grid, the 2 x 2 floor at one node, and the default
    # 32-entry codebook over several blocks
    rng = np.random.default_rng(K + T)
    diffs = random_diffs(rng, K, scale)
    grid = _noise_grid(rng, K, T)
    whole = mi_inner_mean(diffs, *grid)
    m_x, m_y = grid[0].shape[1], grid[2].shape[1]
    monkeypatch.setattr(metrics, "MI_BLOCK_BYTES",
                        3 * 8 * (K * (m_x + m_y) + m_x * m_y))
    blocked = mi_inner_mean(diffs, *grid)
    assert blocked == pytest.approx(whole, rel=1e-13)
    assert blocked == pytest.approx(dense_value(diffs, grid), rel=1e-12)


def test_zero_diffs_gives_zero():
    # all hypotheses identical: every inner sum is exactly K, and the
    # estimate exactly +0.0
    grid = _noise_grid(np.random.default_rng(4), 8, 50)
    bits = mi_inner_mean(np.zeros((8, 8)), *grid)
    assert bits == 0.0 and math.copysign(1.0, bits) == 1.0


def test_shape_validation():
    x, w = np.zeros((3, 2)), np.zeros((3, 2))
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 4)), x, w, x, w)
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 3)), x, w, np.zeros((4, 2)), w)
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 3)), x, np.zeros((3, 3)), x, w)


class TestNormalQuantile:
    """The numpy AS241 port against statistics.NormalDist.inv_cdf."""

    @staticmethod
    def check(p):
        p = np.asarray(p, dtype=float)
        reference = np.array([statistics.NormalDist().inv_cdf(float(v))
                              for v in p])
        np.testing.assert_array_max_ulp(_normal_quantile(p), reference,
                                        maxulp=4)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_central_region(self):
        # |p - 1/2| <= 0.425, both edges included
        self.check(np.concatenate([np.linspace(0.075, 0.925, 1001),
                                   [0.5, 0.075, 0.925]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_lower_tail_down_to_1e_300(self):
        # r = sqrt(-log p) on both sides of 5, and past 1e-300
        self.check(np.concatenate([np.logspace(-300, np.log10(0.0749), 900),
                                   [1e-300, math.exp(-25.0)]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_upper_tail_through_complement(self):
        # the upper tail is evaluated at 1 - p, exact for p >= 1/2, so it
        # mirrors the lower tail bit for bit
        q = np.logspace(-16, np.log10(0.0749), 400)
        p = 1.0 - q
        self.check(p)
        np.testing.assert_array_max_ulp(_normal_quantile(p),
                                        -_normal_quantile(1.0 - p), maxulp=0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixed_branches_in_one_call(self):
        rng = np.random.default_rng(9)
        p = np.concatenate([rng.random(200), 10.0 ** -rng.uniform(1, 300, 50),
                            1.0 - 10.0 ** -rng.uniform(1, 16, 50)])
        rng.shuffle(p)
        self.check(p[(p > 0.0) & (p < 1.0)])


class FixedShifts:
    """An rng stand-in that hands _noise_grid the shift indices k, for the
    shifts (k + 1/2) / 2^52."""

    def __init__(self, k):
        self.k = np.asarray(k)

    def integers(self, high, size):
        assert high == 2 ** 52 and size == self.k.shape
        return self.k


class TestGridRule:
    @pytest.mark.parametrize("n_noise", [2, 6, 49, 500, 20_000])
    def test_weights_sum_to_one(self, n_noise):
        x, wx, y, wy = _noise_grid(np.random.default_rng(n_noise), 64,
                                   n_noise)
        for weights in (wx, wy):
            assert np.all(weights >= 0.0)
            np.testing.assert_allclose(weights.sum(axis=1), 1.0, rtol=0.0,
                                       atol=4 * EPS)

    @pytest.mark.parametrize("n_noise", [2, 20, 500])
    def test_matches_periodizing_map(self, n_noise):
        # nodes Phi^-1(tau(v)) / sqrt 2 and weights tau'(v) / m at
        # v = (s + w)/m, the shifts w drawn like _noise_grid draws them;
        # compared away from v = 0 and 1, where the direct tau(v) cancels
        K = 5
        grid = _noise_grid(np.random.default_rng(n_noise), K, n_noise)
        shifts = (np.random.default_rng(n_noise).integers(
            2 ** 52, size=(2, K)) + 0.5) / 2 ** 52
        for (nodes, weights), w in zip((grid[:2], grid[2:]), shifts):
            m = nodes.shape[1]
            v = (np.arange(m) + w[:, None]) / m
            tau = v - np.sin(2.0 * math.pi * v) / (2.0 * math.pi)
            direct = np.array([[statistics.NormalDist().inv_cdf(float(t))
                                for t in row] for row in tau])
            inside = np.minimum(v, 1.0 - v) > 0.01
            np.testing.assert_allclose(nodes[inside],
                                       direct[inside] / math.sqrt(2.0),
                                       rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(
                weights, (1.0 - np.cos(2.0 * math.pi * v)) / m, rtol=1e-12,
                atol=1e-16)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_shifts_stay_finite(self):
        # the smallest and largest shifts, 2^-53 and 1 - 2^-53, put nodes
        # next to v = 0 and v = 1, where tau(v) ~ (2 pi v)^3 / (12 pi)
        k = np.array([[0, 2 ** 52 - 1], [2 ** 52 - 1, 0]])
        x, wx, y, wy = _noise_grid(FixedShifts(k), 2, 500)
        for nodes, weights in ((x, wx), (y, wy)):
            assert np.all(np.isfinite(nodes)) and np.all(weights >= 0.0)
            # exp(x^2) bounds each kernel factor, far from overflow here
            assert np.max(nodes ** 2) < 200.0
            # mirror images: the node at v is minus the node at 1 - v
            np.testing.assert_array_equal(nodes[0], -nodes[1][::-1])
            np.testing.assert_array_equal(weights[0], weights[1][::-1])
