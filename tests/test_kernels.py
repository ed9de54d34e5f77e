"""The mutual-information inner kernel against its defining formula."""

import numpy as np
import pytest

from secsm.metrics import MI_BLOCK_ROWS, mi_inner_mean

from helpers import crandn_t


def reference_mean(diffs, noise):
    """Direct evaluation of the defining formula, no vectorization."""
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
            acc += np.log2(s)
    return acc / (K * T)


def test_numpy_matches_reference():
    rng = np.random.default_rng(1)
    g = crandn_t(rng, 8)
    diffs = g[:, None] - g[None, :]
    noise = crandn_t(rng, 8, 16)
    assert mi_inner_mean(diffs, noise) == \
        pytest.approx(reference_mean(diffs, noise), rel=1e-12)


@pytest.mark.parametrize("K, T, scale", [(7, 16, 1.0), (7, 1, 3.0),
                                         (32, 3, 0.5)])
def test_blocks_match_reference(K, T, scale):
    # a last block shorter than MI_BLOCK_ROWS, a single draw, and the
    # default 32-entry codebook over several blocks
    assert K % MI_BLOCK_ROWS or K > MI_BLOCK_ROWS
    rng = np.random.default_rng(K + T)
    g = scale * crandn_t(rng, K)
    diffs = g[:, None] - g[None, :]
    noise = crandn_t(rng, K, T)
    assert mi_inner_mean(diffs, noise) == \
        pytest.approx(reference_mean(diffs, noise), rel=1e-12)


def test_zero_diffs_gives_log2_k():
    # all hypotheses identical: the inner sum is exactly K
    noise = crandn_t(np.random.default_rng(4), 8, 50)
    assert mi_inner_mean(np.zeros((8, 8)), noise) == \
        pytest.approx(np.log2(8), rel=1e-13)


def test_shape_validation():
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 4)), np.zeros((3, 5)))
    with pytest.raises(ValueError):
        mi_inner_mean(np.zeros((3, 3)), np.zeros((4, 5)))
