"""Closed-form beamformer constructions against search oracles and the
cross-method dominance/equivalence properties."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secsm.beamformers import (Method, compute_beamformer, max_rp,
                               max_rp_zfc, max_sjnr, max_wfrp)
from secsm.channel import (AN_MODES, ChannelSet, SystemConfig,
                           build_mallory_chain, crandn, derive_rng,
                           realize_channels, stack_channels)
from secsm.harness import SweepSpec, check_feasible
from secsm.metrics import sjnr
from secsm.numerics import null_space_basis

from helpers import (crandn_t, gen_max_eigvec_eig, noise_cov_bob,
                     random_search_max_ratio)


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


def cfg_point(cfg):
    """cfg's own operating point (noise_var, p_m) at Bob."""
    return cfg.noise_var_bob, cfg.power_mallory


def square_cfg(n, **kw):
    kw.setdefault("beta", 1.0)
    kw.setdefault("power_mallory", 0.0)
    return SystemConfig(n_tx=n, n_rx=n, **kw)


class TestMaxRp:
    def test_isotropic_tie_deterministic(self):
        rng = derive_rng(1, 8, 0)
        ch = square_channel_set(4, rng, H=np.eye(4, dtype=complex))
        cfg = square_cfg(4)
        a = max_rp(ch, cfg, *cfg_point(cfg))
        b = max_rp(ch, cfg, *cfg_point(cfg))
        np.testing.assert_array_equal(a.u, b.u)
        assert np.linalg.norm(a.u) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_channel(self):
        rng = derive_rng(1, 8, 1)
        a = crandn_t(np.random.default_rng(2), 4)
        b = crandn_t(np.random.default_rng(3), 4)
        ch = square_channel_set(4, rng, H=np.outer(a, b.conj()))
        cfg = square_cfg(4)
        bf = max_rp(ch, cfg, *cfg_point(cfg))
        assert abs(bf.u.conj() @ (a / np.linalg.norm(a))) \
            == pytest.approx(1.0, abs=1e-10)

    def test_beats_random_search(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 4)
        bf = max_rp(ch, cfg, *cfg_point(cfg))
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
        u1 = max_rp(ch, cfg, *cfg_point(cfg)).u
        u2 = max_wfrp(ch, cfg, *cfg_point(cfg)).u
        assert abs(u1.conj() @ u2) >= 1.0 - 1e-10

    def test_reaches_top_generalized_eigenvalue(self):
        cfg = SystemConfig()
        for r in range(10):
            ch = realize_channels(cfg, r)
            u = max_wfrp(ch, cfg, *cfg_point(cfg)).u
            assert sjnr(u, ch, cfg) == pytest.approx(top_sjnr(ch, cfg),
                                                     rel=1e-10)

    def test_dominates_max_rp(self):
        cfg = SystemConfig(power_mallory=5.0)
        for r in range(25):
            ch = realize_channels(cfg, r)
            assert sjnr(max_wfrp(ch, cfg, *cfg_point(cfg)).u, ch, cfg) >= \
                sjnr(max_rp(ch, cfg, *cfg_point(cfg)).u, ch, cfg) - 1e-12

    def test_degenerate_covariance_error_propagates(self):
        from secsm.numerics import NotPositiveDefiniteError
        cfg = SystemConfig(power_mallory=0.0, noise_var_bob=0.0)
        ch = realize_channels(cfg, 0)  # R_w is exactly zero
        with pytest.raises(NotPositiveDefiniteError):
            max_wfrp(ch, cfg, *cfg_point(cfg))


class TestMaxRpZfc:
    def test_no_jamming_channel_reduces_to_max_rp(self):
        rng = derive_rng(1, 8, 2)
        ch = square_channel_set(4, rng)  # F = 0
        cfg = square_cfg(4)
        u1 = max_rp(ch, cfg, *cfg_point(cfg)).u
        u2 = max_rp_zfc(ch, cfg, *cfg_point(cfg)).u
        np.testing.assert_allclose(u1, u2, atol=1e-10)

    def test_zero_forcing_residual(self):
        cfg = SystemConfig(n_mallory=4)
        for r in range(25):
            ch = realize_channels(cfg, r)
            bf = max_rp_zfc(ch, cfg, *cfg_point(cfg))
            jam = ch.F @ ch.P_JM
            resid = np.abs(bf.u.conj() @ jam)
            assert resid.max() <= 1e-10 * np.linalg.norm(jam)
            assert np.linalg.norm(bf.u) == pytest.approx(1.0, abs=1e-12)

    def test_beats_constrained_search(self):
        cfg = SystemConfig(n_mallory=4)
        ch = realize_channels(cfg, 6)
        bf = max_rp_zfc(ch, cfg, *cfg_point(cfg))
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
        with pytest.raises(ValueError, match="ZFC infeasible"):
            max_rp_zfc(ch, cfg, *cfg_point(cfg))

    def test_stack_with_zero_jamming_channel(self):
        # the rank comes from the geometry, not from each matrix's
        # singular values: a realization whose F P_JM is zero (rank 0)
        # among rank-3 ones builds, and every other row is its single
        # build bit for bit
        cfg = SystemConfig(n_mallory=4)
        chsets = [realize_channels(cfg, r) for r in range(4)]
        chsets[2] = replace(chsets[2], F=np.zeros_like(chsets[2].F))
        us = max_rp_zfc(stack_channels(chsets), cfg, *cfg_point(cfg)).u
        assert us.shape == (4, cfg.n_rx) and np.isfinite(us).all()
        for r in (0, 1, 3):
            single = max_rp_zfc(chsets[r], cfg, *cfg_point(cfg)).u
            assert us[r].tobytes() == single.tobytes()

    def test_feasible_exactly_when_n_mallory_at_most_n_rx(self):
        # rank(F P_JM) = n_mallory - 1 almost surely, so the null space
        # has width n_rx - n_mallory + 1 in every realization or in none;
        # check_feasible rejects exactly the geometries where it is empty
        zfc = SweepSpec(methods=(Method.MAX_RP_ZFC,))
        for n_rx in (1, 2, 3, 6):
            for n_mallory in range(2, 9):
                cfg = SystemConfig(n_rx=n_rx, n_mallory=n_mallory)
                feasible = n_mallory <= n_rx
                for r in range(25):
                    ch = realize_channels(cfg, r)
                    width = null_space_basis(ch.F_JM).shape[1]
                    assert width == max(0, n_rx - n_mallory + 1)
                    if feasible:
                        max_rp_zfc(ch, cfg, *cfg_point(cfg))
                    else:
                        with pytest.raises(ValueError, match="ZFC"):
                            max_rp_zfc(ch, cfg, *cfg_point(cfg))
                if feasible:
                    check_feasible(cfg, zfc)
                else:
                    with pytest.raises(ValueError, match="^methods"):
                        check_feasible(cfg, zfc)


class TestMaxSjnr:
    def test_white_noise_reduces_to_max_rp(self):
        cfg = SystemConfig(power_mallory=0.0)
        ch = realize_channels(cfg, 7)
        u1 = max_rp(ch, cfg, *cfg_point(cfg)).u
        u2 = max_sjnr(ch, cfg, *cfg_point(cfg)).u
        assert abs(u1.conj() @ u2) >= 1.0 - 1e-9

    def test_reaches_top_generalized_eigenvalue(self):
        cfg = SystemConfig()
        for r in range(10):
            ch = realize_channels(cfg, r)
            u = max_sjnr(ch, cfg, *cfg_point(cfg)).u
            assert sjnr(u, ch, cfg) == pytest.approx(top_sjnr(ch, cfg),
                                                     rel=1e-10)

    def test_equals_max_wfrp_sjnr(self):
        cfg = SystemConfig(power_mallory=3.0)
        for r in range(25):
            ch = realize_channels(cfg, r)
            a = sjnr(max_sjnr(ch, cfg, *cfg_point(cfg)).u, ch, cfg)
            b = sjnr(max_wfrp(ch, cfg, *cfg_point(cfg)).u, ch, cfg)
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

    @pytest.mark.parametrize("noise_vars", [(1.0,), (10.0, 1e-14, 0.3),
                                            (1e6, 1e6)])
    def test_stacked_rows_equal_single_builds(self, noise_vars):
        # one factor and one stacked eigh for every noise variance, each
        # row bit for bit the build at that variance alone
        cfg = SystemConfig(n_mallory=4, power_mallory=2.0)
        for an_mode in AN_MODES:
            ch = realize_channels(cfg, 3, an_mode=an_mode)
            for method in (Method.MAX_WFRP, Method.MAX_SJNR):
                stack = compute_beamformer(method, ch, cfg, (
                    np.array(noise_vars), cfg.power_mallory)).u
                assert stack.shape == (len(noise_vars), cfg.n_rx)
                for nv, u in zip(noise_vars, stack):
                    single = compute_beamformer(
                        method, ch, replace(cfg, noise_var_bob=nv)).u
                    assert u.tobytes() == single.tobytes()

    @pytest.mark.parametrize("an_mode", AN_MODES)
    def test_stacked_realizations_equal_single_builds(self, an_mode):
        # one ChannelSet stacked over five realizations, its axis behind
        # the noise variances' and the jamming powers': each method
        # builds every realization at every point, or once where it reads
        # no point, as a build on that realization and point alone would,
        # bit for bit
        cfg = SystemConfig(n_mallory=4)
        chsets = [realize_channels(cfg, r, an_mode=an_mode) for r in range(5)]
        stack = stack_channels(chsets)
        nvs = np.array([10.0, 1e-3, 0.3])[:, None, None]
        p_ms = np.array([0.0, 2.0, 1e300])[:, None]
        for method in Method:
            us = compute_beamformer(method, stack, cfg, (nvs, p_ms)).u
            reads = method in (Method.MAX_WFRP, Method.MAX_SJNR)
            assert us.shape == ((3, 3, 5) if reads else (5,)) + (cfg.n_rx,)
            us = np.broadcast_to(us, (3, 3, 5, cfg.n_rx))
            for si, pi, r in np.ndindex(us.shape[:-1]):
                point = replace(cfg, noise_var_bob=nvs.flat[si],
                                power_mallory=p_ms.flat[pi])
                single = compute_beamformer(method, chsets[r], point).u
                assert us[si, pi, r].tobytes() == single.tobytes(), method

    def test_scale_invariance(self):
        cfg = SystemConfig(n_mallory=4, power_mallory=2.0)
        ch = realize_channels(cfg, 10)
        scaled = replace(ch, H=3.0 * ch.H)
        for method in Method:
            u1 = compute_beamformer(method, ch, cfg).u
            u2 = compute_beamformer(method, scaled, cfg).u
            assert abs(u1.conj() @ u2) >= 1.0 - 1e-9

    def test_common_link_scale(self):
        # a common path loss c (every channel x c, both noise variances
        # x c^2) changes no SJNR and not the attacker's u_er
        cfg = SystemConfig()
        ch1 = realize_channels(cfg, 0)

        def link(c):
            u_er, P_JM = build_mallory_chain(c * ch1.G, ch1.T,
                                             c * ch1.M_self)
            ch = replace(ch1, H=c * ch1.H, G=c * ch1.G, F=c * ch1.F,
                         M_self=c * ch1.M_self, u_er=u_er, P_JM=P_JM)
            point = replace(cfg, noise_var_bob=c * c, noise_var_eve=c * c)
            return ch, {m: sjnr(compute_beamformer(m, ch, point).u, ch,
                                point) for m in Method}

        ref, ref_ratios = link(1.0)
        for c in (1e-20, 1e-8, 1e-6, 1e-3, 1e3):
            ch, ratios = link(c)
            assert abs(ch.u_er.conj() @ ref.u_er) == pytest.approx(
                1.0, abs=1e-12)
            for method in Method:
                assert ratios[method] == pytest.approx(ref_ratios[method],
                                                       rel=1e-9), (c, method)


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
            except ValueError as exc:
                assert "ZFC infeasible" in str(exc)
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
