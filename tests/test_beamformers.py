"""Closed-form beamformer constructions against search oracles and the
cross-method dominance/equivalence properties."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secsm.beamformers import (Method, ZfcInfeasibleError,
                               compute_beamformer, max_rp, max_rp_zfc,
                               max_sjnr, max_wfrp)
from secsm.channel import (AN_MODES, ChannelSet, SystemConfig, crandn,
                           derive_rng, realize_channels)
from secsm.metrics import noise_cov_bob, sjnr
from secsm.numerics import null_space_basis

from helpers import crandn_t, gen_max_eigvec_eig, random_search_max_ratio


def square_channel_set(n, rng, H=None):
    """Hand-built ChannelSet with square H T and inert attacker terms."""
    H = crandn(rng, n, n) if H is None else H
    return ChannelSet(
        H=H, G=crandn(rng, 2, n), F=np.zeros((n, 2)),
        M_self=np.eye(2, dtype=complex), T=np.eye(n),
        P_AN=np.zeros((n, n), dtype=complex),
        u_er=np.array([1.0, 0.0], dtype=complex),
        P_JM=np.array([[0.0], [1.0]], dtype=complex))


def top_sjnr(ch, cfg):
    """The largest achievable SJNR: the top eigenvalue of the scaled
    signal Gram against R_w, from the unsymmetrized-pencil oracle."""
    HT = ch.H @ ch.T
    num = cfg.beta * cfg.power / cfg.n_active * (HT @ HT.conj().T)
    return gen_max_eigvec_eig(num, noise_cov_bob(ch, cfg))[1]


def square_cfg(n, **kw):
    kw.setdefault("beta", 1.0)
    kw.setdefault("power_mallory", 0.0)
    return SystemConfig(n_tx=n, n_rx=n, **kw)


class TestMaxRp:
    def test_isotropic_tie_deterministic(self):
        rng = derive_rng(1, 8, 0)
        ch = square_channel_set(4, rng, H=np.eye(4, dtype=complex))
        cfg = square_cfg(4)
        a = max_rp(ch, cfg)
        b = max_rp(ch, cfg)
        np.testing.assert_array_equal(a.u, b.u)
        assert np.linalg.norm(a.u) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_channel(self):
        rng = derive_rng(1, 8, 1)
        a = crandn_t(np.random.default_rng(2), 4)
        b = crandn_t(np.random.default_rng(3), 4)
        ch = square_channel_set(4, rng, H=np.outer(a, b.conj()))
        bf = max_rp(ch, square_cfg(4))
        assert abs(bf.u.conj() @ (a / np.linalg.norm(a))) \
            == pytest.approx(1.0, abs=1e-10)

    def test_beats_random_search(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 4)
        bf = max_rp(ch, cfg)
        HT = ch.H @ ch.T
        S = HT @ HT.conj().T
        rng = np.random.default_rng(11)
        best = random_search_max_ratio(S, np.eye(6), rng,
                                       n_samples=100_000, refine=False)
        achieved = float(np.real(bf.u.conj() @ S @ bf.u))
        assert achieved >= best - 1e-9 * best


class TestMaxWfrp:
    def test_white_noise_reduces_to_max_rp(self):
        # no jamming, null-space AN: R_w is a scaled identity
        cfg = SystemConfig(power_mallory=0.0)
        ch = realize_channels(cfg, 5)
        R = noise_cov_bob(ch, cfg)
        np.testing.assert_allclose(R, cfg.noise_var_bob * np.eye(6),
                                   atol=1e-12)
        u1 = max_rp(ch, cfg).u
        u2 = max_wfrp(ch, cfg).u
        assert abs(u1.conj() @ u2) >= 1.0 - 1e-10

    def test_reaches_top_generalized_eigenvalue(self):
        cfg = SystemConfig()
        for r in range(10):
            ch = realize_channels(cfg, r)
            u = max_wfrp(ch, cfg).u
            assert sjnr(u, ch, cfg) == pytest.approx(top_sjnr(ch, cfg),
                                                     rel=1e-10)

    def test_dominates_max_rp(self):
        cfg = SystemConfig(power_mallory=5.0)
        for r in range(25):
            ch = realize_channels(cfg, r)
            assert sjnr(max_wfrp(ch, cfg).u, ch, cfg) >= \
                sjnr(max_rp(ch, cfg).u, ch, cfg) - 1e-12

    def test_degenerate_covariance_error_propagates(self):
        from secsm.numerics import NotPositiveDefiniteError
        cfg = SystemConfig(power_mallory=0.0, noise_var_bob=0.0)
        ch = realize_channels(cfg, 0)  # R_w is exactly zero
        with pytest.raises(NotPositiveDefiniteError):
            max_wfrp(ch, cfg)


class TestMaxRpZfc:
    def test_no_jamming_channel_reduces_to_max_rp(self):
        rng = derive_rng(1, 8, 2)
        ch = square_channel_set(4, rng)  # F = 0
        cfg = square_cfg(4)
        u1 = max_rp(ch, cfg).u
        u2 = max_rp_zfc(ch, cfg).u
        np.testing.assert_allclose(u1, u2, atol=1e-10)

    def test_zero_forcing_residual(self):
        cfg = SystemConfig(n_mallory=4)
        for r in range(25):
            ch = realize_channels(cfg, r)
            bf = max_rp_zfc(ch, cfg)
            jam = ch.F @ ch.P_JM
            resid = np.abs(bf.u.conj() @ jam)
            assert resid.max() <= 1e-10 * np.linalg.norm(jam)
            assert np.linalg.norm(bf.u) == pytest.approx(1.0, abs=1e-12)

    def test_beats_constrained_search(self):
        cfg = SystemConfig(n_mallory=4)
        ch = realize_channels(cfg, 6)
        bf = max_rp_zfc(ch, cfg)
        HT = ch.H @ ch.T
        S = HT @ HT.conj().T
        basis = null_space_basis(ch.F @ ch.P_JM)
        rng = np.random.default_rng(13)
        best = random_search_max_ratio(S, np.eye(6), rng,
                                       n_samples=100_000, basis=basis,
                                       refine=False)
        achieved = float(np.real(bf.u.conj() @ S @ bf.u))
        assert achieved >= best - 1e-9 * best

    def test_infeasible_raises(self):
        cfg = SystemConfig(n_mallory=7)  # 6 jamming streams fill C^6
        ch = realize_channels(cfg, 0)
        with pytest.raises(ZfcInfeasibleError):
            max_rp_zfc(ch, cfg)


class TestMaxSjnr:
    def test_white_noise_reduces_to_max_rp(self):
        cfg = SystemConfig(power_mallory=0.0)
        ch = realize_channels(cfg, 7)
        u1 = max_rp(ch, cfg).u
        u2 = max_sjnr(ch, cfg).u
        assert abs(u1.conj() @ u2) >= 1.0 - 1e-9

    def test_reaches_top_generalized_eigenvalue(self):
        cfg = SystemConfig()
        for r in range(10):
            ch = realize_channels(cfg, r)
            u = max_sjnr(ch, cfg).u
            assert sjnr(u, ch, cfg) == pytest.approx(top_sjnr(ch, cfg),
                                                     rel=1e-10)

    def test_equals_max_wfrp_sjnr(self):
        cfg = SystemConfig(power_mallory=3.0)
        for r in range(25):
            ch = realize_channels(cfg, r)
            a = sjnr(max_sjnr(ch, cfg).u, ch, cfg)
            b = sjnr(max_wfrp(ch, cfg).u, ch, cfg)
            assert abs(a - b) <= 1e-9 * a


class TestCrossMethodProperties:
    def test_invariants_100_realizations(self):
        cfg = SystemConfig(n_mallory=4, power_mallory=2.0)
        for r in range(100):
            ch = realize_channels(cfg, r)
            ratios = {}
            for method in Method:
                bf = compute_beamformer(method, ch, cfg)
                assert abs(np.linalg.norm(bf.u) - 1.0) <= 1e-12
                ratios[method] = sjnr(bf.u, ch, cfg)
                assert ratios[method] >= 0.0
            best = ratios[Method.MAX_SJNR]
            assert best >= ratios[Method.MAX_WFRP] - 1e-9 * best
            assert best >= ratios[Method.MAX_RP] - 1e-12 * max(best, 1)
            assert best >= ratios[Method.MAX_RP_ZFC] - 1e-12 * max(best, 1)
            assert abs(best - ratios[Method.MAX_WFRP]) <= 1e-9 * best

    def test_deterministic(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 9)
        for method in Method:
            a = compute_beamformer(method, ch, cfg)
            b = compute_beamformer(method, ch, cfg)
            np.testing.assert_array_equal(a.u, b.u)

    def test_scale_invariance(self):
        cfg = SystemConfig(n_mallory=4, power_mallory=2.0)
        ch = realize_channels(cfg, 10)
        scaled = replace(ch, H=3.0 * ch.H)
        for method in Method:
            u1 = compute_beamformer(method, ch, cfg).u
            u2 = compute_beamformer(method, scaled, cfg).u
            assert abs(u1.conj() @ u2) >= 1.0 - 1e-9


@st.composite
def scenarios(draw):
    """A SystemConfig, an AN mode and one realization. Null-space AN
    needs n_rx < n_active; random AN admits any n_rx."""
    n_tx = draw(st.integers(2, 16))
    n_active = SystemConfig(n_tx=n_tx).n_active
    an_mode = draw(st.sampled_from(AN_MODES))
    top = n_active - 1 if an_mode == "nullspace" else 12
    n_rx = draw(st.integers(1, top))
    cfg = SystemConfig(n_tx=n_tx, n_rx=n_rx,
                       n_mallory=draw(st.integers(2, n_rx + 2)),
                       seed=draw(st.integers(0, 2 ** 32)))
    r = draw(st.integers(0, 10 ** 6))
    return cfg, realize_channels(cfg, r, an_mode=an_mode)


class TestBeamformerProperties:
    @settings(max_examples=80, deadline=None)
    @given(scenarios())
    def test_invariants(self, scenario):
        cfg, ch = scenario
        ratios = {}
        for method in Method:
            try:
                bf = compute_beamformer(method, ch, cfg)
            except ZfcInfeasibleError:
                assert method is Method.MAX_RP_ZFC
                assert cfg.n_mallory - 1 >= cfg.n_rx
                continue
            if method is Method.MAX_RP_ZFC:
                assert cfg.n_mallory - 1 < cfg.n_rx
                jam = ch.F @ ch.P_JM
                resid = np.abs(bf.u.conj() @ jam)
                assert resid.max() <= 1e-10 * np.linalg.norm(jam)
            ratios[method] = sjnr(bf.u, ch, cfg)
        best = ratios[Method.MAX_SJNR]
        for ratio in ratios.values():
            assert best >= ratio * (1.0 - 1e-9)
        assert abs(best - ratios[Method.MAX_WFRP]) <= 1e-9 * best
