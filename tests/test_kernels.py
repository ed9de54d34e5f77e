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


def expand(x, wx, y, wy):
    """The grid as R x (m_x m_y) nodes x_is + i y_iq, weights wx_is wy_iq."""
    R = len(x)
    noise = (x[:, :, None] + 1j * y[:, None, :]).reshape(R, -1)
    weights = (wx[:, :, None] * wy[:, None, :]).reshape(R, -1)
    return noise, weights


def dense_value(diffs, grid):
    """The separable kernel's value from the dense helper formula on the
    expanded grid."""
    noise, weights = expand(*grid)
    R, K = diffs.shape
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
        grid = _noise_grid(rng, len(diffs), 16)
        assert mi_inner_mean(diffs, *grid) == \
            pytest.approx(reference_mean(diffs, *expand(*grid)), rel=1e-12)


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


# (K, n_noise, scale, step); the last case is mutual_info_mc's default:
# 8 antenna rows of a 32-entry codebook on the 45 x 45 grid of n_noise
# 500 per entry
SEPARABLE_CASES = [(8, 12, 1.0, 1), (7, 2, 3.0, 1), (32, 500, 0.5, 1),
                   (2, 7, 2.0, 1), (32, 2000, 0.5, 4)]


@pytest.mark.parametrize("K, n_noise, scale, step", SEPARABLE_CASES,
                         ids=case_ids(SEPARABLE_CASES))
def test_separable_matches_dense_grid(K, n_noise, scale, step):
    rng = np.random.default_rng(K + n_noise)
    diffs = random_diffs(rng, K, scale, step)
    grid = _noise_grid(rng, len(diffs), n_noise)
    assert mi_inner_mean(diffs, *grid) == \
        pytest.approx(dense_value(diffs, grid), rel=1e-12)


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
    grid = _noise_grid(rng, len(diffs), T)
    whole = mi_inner_mean(diffs, *grid)
    m_x, m_y = grid[0].shape[1], grid[2].shape[1]
    monkeypatch.setattr(metrics, "MI_BLOCK_BYTES",
                        3 * 8 * (K * (m_x + m_y) + m_x * m_y))
    # the workspace the blocked call runs in, not one cached before
    rows = []
    workspace = metrics._mi_workspace

    def spy(*args):
        result = workspace(*args)
        rows.append(result[0])
        return result

    monkeypatch.setattr(metrics, "_mi_workspace", spy)
    blocked = mi_inner_mean(diffs, *grid)
    assert rows == [3]
    assert blocked == pytest.approx(whole, rel=1e-13)
    assert blocked == pytest.approx(dense_value(diffs, grid), rel=1e-12)


# (K, n_noise, scale, step); K = 40 at n_noise 500 runs in blocks of 28
# and 12 rows under the default MI_BLOCK_BYTES, and the last case has
# mutual_info_mc's default 8 x 32 shape
WORKSPACE_CASES = [(32, 500, 0.5, 1), (8, 12, 1.0, 1), (40, 500, 1.0, 1),
                   (32, 500, 2.0, 1), (7, 2, 3.0, 1), (8, 12, 1.0, 1),
                   (32, 2000, 1.0, 4)]


def workspace_inputs(k):
    K, n_noise, scale, step = WORKSPACE_CASES[k]
    rng = np.random.default_rng(100 + k)
    diffs = random_diffs(rng, K, scale, step)
    return diffs, _noise_grid(rng, len(diffs), n_noise)


def workspace_of(diffs, grid):
    """The workspace a call on diffs and grid runs in."""
    return metrics._mi_workspace(*diffs.shape, grid[0].shape[1],
                                 grid[2].shape[1], metrics.MI_BLOCK_BYTES)


def test_partial_last_block_under_default_budget():
    diffs, grid = workspace_inputs(2)
    rows, _ = workspace_of(diffs, grid)
    assert 1 < rows < len(diffs) and len(diffs) % rows


def test_workspace_independent_of_call_history():
    # interleaved shapes and a repeated call give the values of calls on
    # newly built workspaces, bit for bit, and agree with the dense formula
    inputs = [workspace_inputs(k) for k in range(len(WORKSPACE_CASES))]
    here = [mi_inner_mean(diffs, *grid) for diffs, grid in inputs]
    here.append(mi_inner_mean(inputs[0][0], *inputs[0][1]))
    fresh = []
    for diffs, grid in inputs:
        metrics._mi_workspace.cache_clear()
        fresh.append(mi_inner_mean(diffs, *grid))
    assert here == fresh + fresh[:1]
    for value, (diffs, grid) in zip(here, inputs):
        assert value == pytest.approx(dense_value(diffs, grid), rel=1e-12)


def test_workspace_cells_written_before_read():
    # every buffer but the constant node column filled with NaN between
    # calls: a cell read before it is written turns the estimate NaN
    diffs, grid = workspace_inputs(2)
    first = mi_inner_mean(diffs, *grid)
    rows, ws = workspace_of(diffs, grid)
    for name, buf in ws.items():
        if name.startswith("nodes"):
            assert np.all(buf[..., 1] == 1.0)
            buf[..., 0] = np.nan
        else:
            buf[...] = np.nan
    assert mi_inner_mean(diffs, *grid) == first
    # the constant column is written once, with the buffers, and read by
    # every block: stale values there would show
    for name in ("nodes_x", "nodes_y"):
        assert np.all(ws[name][..., 1] == 1.0)
    ws["nodes_x"][-1, :, 1] = 2.0
    try:
        assert mi_inner_mean(diffs, *grid) != first
    finally:
        ws["nodes_x"][..., 1] = 1.0


def test_zero_diffs_gives_zero():
    # all hypotheses identical: every inner sum is exactly K, and the
    # estimate exactly +0.0
    grid = _noise_grid(np.random.default_rng(4), 8, 50)
    bits = mi_inner_mean(np.zeros((8, 8)), *grid)
    assert bits == 0.0 and math.copysign(1.0, bits) == 1.0


def test_shape_validation():
    x, w = np.zeros((3, 2)), np.zeros((3, 2))
    # 3 rows against 4 entries is legal; 4 rows on 3-row grids is not
    assert mi_inner_mean(np.zeros((3, 4)), x, w, x, w) == 0.0
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((4, 4)), x, w, x, w)
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros(3), x, w, x, w)
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
