"""Covariances, SJNR, Monte-Carlo mutual information against quadrature,
and the BER tally against an antenna-domain reference."""

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from secsm import metrics
from secsm.beamformers import Method, compute_beamformer
from secsm.channel import (AN_MODES, ChannelSet, SystemConfig, crandn,
                           derive_rng, realize_channels)
from secsm.metrics import (BER_BLOCK_TRIALS, SIDES, _ber_counts, _cfg_point,
                           _gauss_hermite, _mi_rule, _side_terms,
                           mi_inner_mean, mutual_info, mutual_info_mc,
                           scalar_channel, sjnr)
from secsm.modulation import build_codebook
from secsm.numerics import gen_max_eigvec

from helpers import (ber_counts_antenna_domain, ber_counts_hypot,
                     bpsk_mi_quadrature, covariance, gh_entry_means,
                     mutual_info_iid, noise_cov_bob, quotient)


def bob_ber(u, ch, cfg, codebook, n_trials, rng):
    """_ber_counts in the scalar channel of Bob's combiner or stack u,
    every row on the one generator rng."""
    return _ber_counts(*scalar_channel(u, "bob", ch, cfg), codebook,
                       n_trials, [rng])


def side_factor(ch, cfg, side="bob"):
    """(V, noise_var): the library's low-rank factor and noise variance
    of one side's interference-plus-noise covariance at cfg's point."""
    noise_var, p_m = _cfg_point(cfg, side)
    return _side_terms(ch, cfg, side, p_m)[1], noise_var


def factored_cov(ch, cfg, side="bob"):
    """The library's interference-plus-noise covariance of one side,
    formed densely from its low-rank factor."""
    return covariance(*side_factor(ch, cfg, side))


def sjnr_combiner(ch, cfg):
    """Bob's max_sjnr combiner at cfg's point."""
    return compute_beamformer(Method.MAX_SJNR, ch, cfg).u


def scalar_channel_set():
    """1x1 link with inert attacker terms for oracle comparisons."""
    return ChannelSet(
        H=np.eye(1, dtype=complex), G=np.zeros((2, 1), dtype=complex),
        F=np.zeros((1, 2)), M_self=np.eye(2, dtype=complex),
        T=np.eye(1), P_AN=np.zeros((1, 1), dtype=complex),
        u_er=np.array([1.0, 0.0], dtype=complex),
        P_JM=np.array([[0.0], [1.0]], dtype=complex))


def scalar_cfg(noise_var, power=1.0):
    return SystemConfig(n_tx=1, n_rx=1, mod_order=2,
                        beta=1.0, power=power, power_mallory=0.0,
                        noise_var_bob=noise_var, noise_var_eve=noise_var)


def ber_over(method, sets, cfg, trials_per_set, rng):
    """BER of one method over several realizations, trials_per_set
    _ber_counts trials on each, all drawn from the one rng in turn."""
    cb = build_codebook(cfg.n_active, cfg.mod_order)
    errors = sum(bob_ber(compute_beamformer(method, ch, cfg).u, ch,
                          cfg, cb, trials_per_set, rng)[0] for ch in sets)
    return errors / (len(sets) * trials_per_set * cb.bits_per_use)


class TestNoiseCov:
    """The per-side low-rank factor V of noise_var I + V V^H."""

    def test_noise_only(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0, noise_var_bob=3.0)
        ch = realize_channels(cfg, 0)
        np.testing.assert_allclose(factored_cov(ch, cfg), 3.0 * np.eye(6),
                                   atol=1e-12)

    def test_nullspace_an_leaves_jamming_plus_noise(self):
        cfg = SystemConfig(power_mallory=2.0, noise_var_bob=0.5)
        ch = realize_channels(cfg, 1)
        jam = ch.F @ ch.P_JM
        expect = 2.0 * (jam @ jam.conj().T) + 0.5 * np.eye(6)
        np.testing.assert_allclose(factored_cov(ch, cfg), expect,
                                   atol=1e-12)

    def test_matches_empirical_covariance(self):
        cfg = SystemConfig(n_mallory=4, power_mallory=2.0,
                           noise_var_bob=0.8)
        ch = realize_channels(cfg, 2)
        R = factored_cov(ch, cfg)
        np.testing.assert_allclose(R, noise_cov_bob(ch, cfg), rtol=1e-12,
                                   atol=1e-12)
        rng = derive_rng(3, 9, 0)
        n = 100_000
        an = (math.sqrt((1 - cfg.beta) * cfg.power)
              * (ch.H @ ch.T @ ch.P_AN @ crandn(rng, ch.P_AN.shape[1], n)))
        jam = (math.sqrt(cfg.power_mallory)
               * (ch.F @ ch.P_JM @ crandn(rng, 3, n)))
        w = an + jam + math.sqrt(cfg.noise_var_bob) * crandn(rng, 6, n)
        emp = (w @ w.conj().T) / n
        assert (np.linalg.norm(emp - R) / np.linalg.norm(R)) <= 0.03


class TestScalarChannel:
    @pytest.mark.parametrize("an_mode", AN_MODES)
    @pytest.mark.parametrize("side", SIDES)
    def test_matches_raw_matrices(self, side, an_mode):
        cfg = SystemConfig(n_mallory=4, power_mallory=2.0,
                           noise_var_bob=0.7, noise_var_eve=1.3)
        ch = realize_channels(cfg, 2, an_mode=an_mode)
        if side == "bob":
            S, J, noise_var = ch.H, ch.F, cfg.noise_var_bob
        else:
            S, J, noise_var = ch.G, ch.M_self, cfg.noise_var_eve
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        # column k is entry k's transmit vector T e_a s
        X = ch.T[:, cb.antennas] * cb.symbols
        A = S @ ch.T @ ch.P_AN
        B = J @ ch.P_JM
        R = ((1 - cfg.beta) * cfg.power * A @ A.conj().T
             + cfg.power_mallory * B @ B.conj().T
             + noise_var * np.eye(S.shape[0]))
        rng = derive_rng(3, 9, 1)
        combiners = [crandn(rng, S.shape[0]) for _ in range(5)]
        if side == "mallory":
            combiners.append(ch.u_er)
        for u in combiners:
            r, power = scalar_channel(u, side, ch, cfg)
            np.testing.assert_allclose(
                r, math.sqrt(cfg.beta * cfg.power) * (u.conj() @ S @ X),
                rtol=1e-12, atol=1e-12 * np.linalg.norm(u))
            direct = float(np.real(u.conj() @ R @ u))
            assert power == pytest.approx(direct, rel=1e-12)
            if side == "bob":
                assert power == pytest.approx(
                    float(np.real(u.conj() @ noise_cov_bob(ch, cfg) @ u)),
                    rel=1e-12)
        if side == "mallory":
            # the jamming precoder cancels self-interference at u_er
            assert np.linalg.norm(B.conj().T @ ch.u_er) < 1e-12
        elif an_mode == "nullspace":
            assert np.linalg.norm(A) < 1e-12

    @pytest.mark.parametrize("side", SIDES)
    def test_power_is_factored_quadratic_form(self, side):
        # power = u^H (noise_var I + V V^H) u, the dense oracle, also at
        # jamming-to-noise ratios up to 1e14
        cfg = SystemConfig()
        ch = realize_channels(cfg, 3, an_mode="random")
        rng = derive_rng(3, 9, 2)
        n = ch.H.shape[0] if side == "bob" else ch.G.shape[0]
        stack = crandn(rng, 4, n)
        for snr_db, p_m in ((0.0, 1.0), (140.0, 1.0), (20.0, 1e12)):
            nv = 10.0 ** (-snr_db / 10.0)
            point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv,
                            power_mallory=p_m)
            R = factored_cov(ch, point, side)
            _, power = scalar_channel(stack, side, ch, point)
            for u, p in zip(stack, power):
                assert p == pytest.approx(
                    float(np.real(u.conj() @ R @ u)), rel=1e-12)

    def test_unknown_side(self):
        cfg = SystemConfig()
        with pytest.raises(ValueError, match="unknown side"):
            scalar_channel(np.ones(6), "eve", realize_channels(cfg, 0), cfg)


class TestSjnr:
    def test_zero_signal_fraction(self):
        cfg = SystemConfig(beta=0.0)
        ch = realize_channels(cfg, 0)
        u = np.eye(6, dtype=complex)[:, 0]
        assert sjnr(u, ch, cfg) == 0.0

    def test_white_case_formula(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0, noise_var_bob=2.0)
        ch = realize_channels(cfg, 1)
        rng = derive_rng(3, 9, 2)
        u = crandn(rng, 6)
        u /= np.linalg.norm(u)
        HT = ch.H @ ch.T
        expect = (cfg.beta * cfg.power / (8 * 2.0)
                  * float(np.sum(np.abs(HT.conj().T @ u) ** 2)))
        assert sjnr(u, ch, cfg) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("fn", ["sjnr", "mutual_info_mc"])
    def test_zero_power_raises(self, fn, stacked):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0, noise_var_bob=0.0)
        ch = realize_channels(cfg, 0)
        u = compute_beamformer(Method.MAX_RP, ch, cfg).u
        if stacked:
            u = np.array([u, 2.0 * u])
        call = {"sjnr": lambda: sjnr(u, ch, cfg),
                "mutual_info_mc": lambda: mutual_info_mc(
                    u, "bob", ch, cfg, 20)}[fn]
        with pytest.raises(ValueError, match="power is zero"):
            call()

    def test_solver_self_consistency(self):
        cfg = SystemConfig(power_mallory=3.0)
        ch = realize_channels(cfg, 2)
        HT = ch.H @ ch.T
        num = cfg.beta * cfg.power / cfg.n_active * (HT @ HT.conj().T)
        v = gen_max_eigvec(num, *side_factor(ch, cfg))
        ratio = quotient(num, noise_cov_bob(ch, cfg), v)
        u = sjnr_combiner(ch, cfg)
        assert sjnr(u, ch, cfg) == pytest.approx(ratio, rel=1e-10)


class TestMutualInfo:
    def test_high_snr_saturates(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=1e-4)
        ch = realize_channels(cfg, 0)
        bf = compute_beamformer(Method.MAX_RP, ch, cfg)
        bits = mutual_info_mc(bf.u, "bob", ch, cfg, 1000)
        assert bits == pytest.approx(5.0, abs=0.05)

    def test_zero_signal_limit(self):
        cfg = SystemConfig(beta=0.0)
        ch = realize_channels(cfg, 1)
        u = np.eye(6, dtype=complex)[:, 0]
        assert mutual_info_mc(u, "bob", ch, cfg, 200) == 0.0

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 5.0, 10.0])
    def test_bpsk_matches_quadrature(self, snr_db):
        noise_var = 10.0 ** (-snr_db / 10.0)
        cfg = scalar_cfg(noise_var)
        ch = scalar_channel_set()
        u = np.array([1.0 + 0j])
        mc = mutual_info_mc(u, "bob", ch, cfg, 20_000)
        # whitened BPSK distance: 2 sqrt(P) / sigma
        d = 2.0 * math.sqrt(cfg.power / noise_var)
        assert mc == pytest.approx(bpsk_mi_quadrature(d), abs=0.02)

    def test_bounds_always(self):
        cfg = SystemConfig()
        rng = derive_rng(3, 9, 6)
        for r in range(5):
            ch = realize_channels(cfg, r)
            for nv in (1e-6, 1.0, 1e6):
                point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
                u = crandn(rng, 6)
                u /= np.linalg.norm(u)
                bits = mutual_info_mc(u, "bob", ch, point, 50)
                assert 0.0 <= bits <= 5.0

    def test_scale_invariant_in_u(self):
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 3)
        u = compute_beamformer(Method.MAX_RP, ch, cfg).u
        a = mutual_info_mc(u, "bob", ch, cfg, 400)
        b = mutual_info_mc(3.7 * u, "bob", ch, cfg, 400)
        assert abs(a - b) <= 1e-9

    def test_convergence_in_n_noise(self):
        # halving the noise nodes moves the estimate by < 0.03 bits
        cfg = SystemConfig()
        ch = realize_channels(cfg, 4)
        point = replace(cfg, noise_var_bob=10 ** -0.5,
                        noise_var_eve=10 ** -0.5)
        u = compute_beamformer(Method.MAX_SJNR, ch, point).u
        full = mutual_info_mc(u, "bob", ch, point, 500)
        half = mutual_info_mc(u, "bob", ch, point, 250)
        assert abs(full - half) < 0.03

    def test_chunks_equal_single_calls(self, monkeypatch):
        # 150 QPSK channels of 4 KiB of differences each go to the kernel
        # in 3 equal chunks of 50 (within half of MI_BLOCK_BYTES), all on
        # one workspace shape, and each estimate is a single call's
        assert metrics.MI_BLOCK_BYTES == 480 * 1024
        rng = np.random.default_rng(31)
        r = 3.0 * crandn(rng, 3, 50, 32)
        power = rng.uniform(0.5, 2.0, (3, 50))
        shapes = []
        kernel = metrics.mi_inner_mean
        monkeypatch.setattr(metrics, "mi_inner_mean", lambda diffs, *rule: (
            shapes.append(diffs.shape), kernel(diffs, *rule))[1])
        metrics._mi_workspace.cache_clear()
        bits = mutual_info(r, power, 4, 500)
        assert shapes == [(50, 8, 32)] * 3
        assert metrics._mi_workspace.cache_info().misses == 1
        assert bits.shape == (3, 50)
        for idx in np.ndindex(3, 50):
            assert bits[idx] == mutual_info(r[idx], power[idx], 4, 500)

    def test_stacked_equals_single_calls(self):
        # MI, SJNR and the BER tally of a stack, row by row, against
        # single calls (each BER call on an identically seeded rng)
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 5)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        U = np.array([compute_beamformer(m, ch, cfg).u for m in Method])
        singles = []
        for side, stack in (("bob", U), ("mallory", U[:, :2])):
            stacked = mutual_info_mc(stack, side, ch, cfg, 300)
            single = [mutual_info_mc(u, side, ch, cfg, 300) for u in stack]
            assert isinstance(stacked, np.ndarray)
            assert stacked.tolist() == single
            singles.append(single)
        # both sides' scalar channels as one 2 x 4 stack of mutual_info
        channels = [scalar_channel(U, "bob", ch, cfg),
                    scalar_channel(U[:, :2], "mallory", ch, cfg)]
        r, power = (np.stack(parts) for parts in zip(*channels))
        assert mutual_info(r, power, cfg.mod_order, 300).tolist() == singles
        ratios = sjnr(U, ch, cfg)
        assert isinstance(ratios, np.ndarray)
        assert type(sjnr(U[0], ch, cfg)) is float
        assert ratios.tolist() == [sjnr(u, ch, cfg) for u in U]
        # a full block and a partial one
        n = BER_BLOCK_TRIALS + 37
        errors, squared = bob_ber(U, ch, cfg, cb, n,
                                   derive_rng(3, 9, 42))
        for k, u in enumerate(U):
            assert (errors[k], squared[k]) == bob_ber(
                u, ch, cfg, cb, n, derive_rng(3, 9, 42))
        assert errors.sum() > 0  # the tallies have errors to compare

    def test_single_combiner_returns_float(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 0)
        bits = mutual_info_mc(ch.u_er, "mallory", ch, cfg, 20)
        assert type(bits) is float

    def test_rejects_zero_draws(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 0)
        with pytest.raises(ValueError):
            mutual_info_mc(np.eye(6)[:, 0], "bob", ch, cfg, 0)


def rule_order(mod_order, n_noise):
    """The Gauss-Hermite order mutual_info_mc takes for one antenna's
    mod_order * n_noise nodes, read by a spy on metrics._mi_rule."""
    orders = []

    def spy(m):
        orders.append(m)
        return _mi_rule(m)

    cfg = replace(scalar_cfg(1.0), mod_order=mod_order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_mi_rule", spy)
        mutual_info_mc(np.array([1.0 + 0j]), "bob", scalar_channel_set(),
                       cfg, n_noise)
    return orders[0]


def gh_mutual_info(u, side, ch, cfg, order=96):
    """The reference: the mean of gh_entry_means over all K entries at
    the given Gauss-Hermite order, clamped like mutual_info_mc."""
    r, power = scalar_channel(u, side, ch, cfg)
    g = r / math.sqrt(power)
    top = math.log2(len(g))
    inner = float(gh_entry_means(g[:, None] - g[None, :], order).mean())
    return min(max(top - inner, 0.0), top)


class TestLatticeNoise:
    """The noise lattice behind mutual_info_mc: per transmit antenna, the
    m x m product grid of one Gauss-Hermite rule on the Re and Im axes,
    the same for every call."""

    # per n_noise, {mod_order: m}: the smallest m >= 2 with
    # m^2 >= mod_order * n_noise
    @pytest.mark.parametrize("n, shape", [
        (1, {2: 2, 4: 2, 8: 3}), (2, {2: 2, 4: 3}), (5, {2: 4, 4: 5}),
        (7, {2: 4, 4: 6}), (484, {2: 32, 4: 44}), (500, {2: 32, 4: 45, 8: 64}),
        (20_000, {2: 200, 4: 283})])
    def test_smallest_near_square_grid(self, n, shape):
        assert {M: rule_order(M, n) for M in shape} == shape

    @pytest.mark.parametrize("n", [1, 2, 7, 500, 40_000])
    def test_one_node_per_cell(self, n):
        # Chebyshev-Markov-Stieltjes: the CDF at node s lies between the
        # weights summed below it and up to it, so the cells with edges
        # Phi^-1(w_0 + ... + w_s) / sqrt 2 hold one node each; the upper
        # half's edges come from the weights above, where 1 - sum rounds
        x, w = _gauss_hermite(rule_order(2, n))
        below, above = np.cumsum(w)[:-1], np.cumsum(w[::-1])[-2::-1]
        quantile = statistics.NormalDist().inv_cdf
        edges = np.array([quantile(float(b)) if b < 0.5
                          else -quantile(float(a))
                          for b, a in zip(below, above)]) / math.sqrt(2.0)
        assert np.searchsorted(edges, x).tolist() == list(range(len(x)))

    def test_ignores_rng(self):
        # no draw: rng=None and two different generators give the same
        # bits, for one combiner and for a stack
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 5)
        U = np.array([compute_beamformer(m, ch, cfg).u for m in Method])
        for u in (U[0], U):
            runs = [mutual_info_mc(u, "bob", ch, cfg, 50, rng) for rng in
                    (None, derive_rng(3, 9, 70), np.random.default_rng(71))]
            assert all(np.array_equal(run, runs[0]) for run in runs)

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0])
    def test_spread_below_independent_draws(self, snr_db):
        # at 50 nodes per entry the rule's error against order 96 is far
        # below the RMS error of 50 independent draws per entry over 40
        # streams (measured ratios 5e-5 at -5 dB and 6e-4 at 0 dB)
        nv = 10.0 ** (-snr_db / 10.0)
        cfg = SystemConfig()
        point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
        ch = realize_channels(cfg, 0)
        u = sjnr_combiner(ch, point)
        exact = gh_mutual_info(u, "bob", ch, point)
        iid = np.array([mutual_info_iid(u, "bob", ch, point, 50,
                                        derive_rng(3, 9, 53, s))
                        for s in range(40)])
        rule_error = abs(mutual_info_mc(u, "bob", ch, point, 50) - exact)
        assert rule_error < 0.01 * math.sqrt(np.mean((iid - exact) ** 2))

    def test_max_error_against_order_96(self):
        # the default system at n_noise 500, the sweep's budget: 10
        # realizations x 6 SNRs x 2 jamming powers, max_sjnr at Bob and
        # u_er at the attacker (measured worst 1.6e-6 bits)
        cfg = SystemConfig()
        worst = 0.0
        for r in range(10):
            ch = realize_channels(cfg, r)
            for snr_db in (-10.0, 0.0, 10.0, 20.0, 30.0, 40.0):
                nv = 10.0 ** (-snr_db / 10.0)
                for p_m in (1.0, 10.0):
                    point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv,
                                    power_mallory=p_m)
                    for side, u in (("bob", sjnr_combiner(ch, point)),
                                    ("mallory", ch.u_er)):
                        worst = max(worst, abs(
                            mutual_info_mc(u, side, ch, point, 500)
                            - gh_mutual_info(u, side, ch, point)))
        assert worst <= 5e-4

    @pytest.mark.parametrize("snr_db", [-5.0, 5.0, 15.0])
    def test_agrees_with_independent_draws(self, snr_db):
        # 40 streams of 1000 independent draws per entry: their mean is
        # within 4 standard errors of the rule at n_noise 500 (measured
        # 0.01, 0.8 and 0.3 SE)
        nv = 10.0 ** (-snr_db / 10.0)
        cfg = SystemConfig()
        point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
        ch = realize_channels(cfg, 0)
        u = sjnr_combiner(ch, point)
        iid = np.array([mutual_info_iid(u, "bob", ch, point, 1000,
                                        derive_rng(3, 9, 54, s))
                        for s in range(40)])
        se = iid.std(ddof=1) / math.sqrt(len(iid))
        rule = mutual_info_mc(u, "bob", ch, point, 500)
        assert abs(iid.mean() - rule) <= 4.0 * se


def whitened_bob_diffs(mod_order, snr_db):
    """(cfg, ch, u, diffs): Bob's max_sjnr combiner u in realization 0 of
    the default system with mod_order-PSK at one SNR, and the K x K
    differences of its whitened channel."""
    nv = 10.0 ** (-snr_db / 10.0)
    cfg = SystemConfig(mod_order=mod_order, noise_var_bob=nv,
                       noise_var_eve=nv)
    ch = realize_channels(cfg, 0)
    u = sjnr_combiner(ch, cfg)
    r, power = scalar_channel(u, "bob", ch, cfg)
    g = r / math.sqrt(power)
    return cfg, ch, u, g[:, None] - g[None, :]


class TestClassEstimator:
    """mutual_info_mc estimates the noise expectation once per transmit
    antenna: the mod_order entries of one antenna share it."""

    @pytest.mark.parametrize("mod_order", [2, 4])
    @pytest.mark.parametrize("snr_db", [-5.0, 5.0, 10.0])
    def test_class_members_equal_under_quadrature(self, mod_order, snr_db):
        # rotations by multiples of 90 degrees map the Gauss-Hermite
        # product grid onto itself, so the entries of one antenna agree to
        # rounding
        _, _, _, diffs = whitened_bob_diffs(mod_order, snr_db)
        means = gh_entry_means(diffs, 96).reshape(-1, mod_order)
        assert np.max(np.ptp(means, axis=1)) <= 1e-12

    @pytest.mark.parametrize("snr_db", [0.0, 5.0])
    def test_8psk_members_converge_with_order(self, snr_db):
        # a 45-degree rotation does not map the product grid onto itself:
        # the spread within a class is the quadrature's own error, and it
        # falls with the order (0 dB: 7.2e-8, 1.9e-9, 1.7e-11; 5 dB:
        # 2.4e-7, 1.2e-8, 5.8e-10 at orders 60, 96, 150)
        _, _, _, diffs = whitened_bob_diffs(8, snr_db)
        bounds = {60: 1e-6, 96: 5e-8, 150: 3e-9}
        spreads = [float(np.max(np.ptp(gh_entry_means(diffs, order)
                                       .reshape(-1, 8), axis=1)))
                   for order in bounds]
        assert all(s <= b for s, b in zip(spreads, bounds.values()))
        assert spreads == sorted(spreads, reverse=True)

    @pytest.mark.parametrize("mod_order", [2, 4, 8])
    def test_error_below_all_entries_estimator(self, mod_order):
        # equal node budgets: one grid of mod_order * n_noise nodes per
        # antenna against one of n_noise nodes per entry, the kernel on
        # every entry's row; errors against order 96 at 0 dB (measured
        # ratios 0.11, 0.04, 0.003 for M = 2, 4, 8)
        n_noise = 100
        cfg, ch, u, diffs = whitened_bob_diffs(mod_order, 0.0)
        K = len(diffs)
        exact = math.log2(K) - float(gh_entry_means(diffs, 96).mean())
        every_entry = mi_inner_mean(diffs, *_gauss_hermite(10))
        assert abs(mutual_info_mc(u, "bob", ch, cfg, n_noise) - exact) \
            < abs(every_entry - exact)


class TestSecrecyRate:
    """The two mutual informations a secrecy rate is built from; the
    harness's max(0, I_bob - I_attacker) hinge is checked by
    test_harness.py::TestRunSweep::test_realization_rates_match_single_calls.
    """

    def test_symmetric_link_zero(self):
        # make the attacker's view identical to Bob's
        cfg = SystemConfig(n_tx=4, n_rx=4, n_mallory=4,
                           beta=1.0, power_mallory=0.0)
        rng = derive_rng(3, 9, 11)
        H = crandn(rng, 4, 4)
        ch = ChannelSet(H=H, G=H.copy(), F=np.zeros((4, 4)),
                        M_self=np.eye(4, dtype=complex), T=np.eye(4),
                        P_AN=np.zeros((4, 4), dtype=complex),
                        u_er=np.eye(4, dtype=complex)[:, 0],
                        P_JM=np.eye(4, dtype=complex)[:, 1:] / np.sqrt(3))
        i_b = mutual_info_mc(ch.u_er, "bob", ch, cfg, 400)
        i_e = mutual_info_mc(ch.u_er, "mallory", ch, cfg, 400)
        assert i_b == pytest.approx(i_e, abs=1e-12)

    def test_deaf_eavesdropper(self):
        cfg = SystemConfig(noise_var_eve=1e9, noise_var_bob=0.5)
        ch = realize_channels(cfg, 1)
        i_e = mutual_info_mc(ch.u_er, "mallory", ch, cfg, 400)
        assert i_e == pytest.approx(0.0, abs=0.02)


class TestMlDetect:
    """The whitened ML decision inside metrics._ber_counts."""

    def test_noiseless_recovers_all_entries(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=0.0, noise_var_eve=0.0)
        ch = realize_channels(cfg, 0)
        cb = build_codebook(8, 4)
        u = compute_beamformer(Method.MAX_RP, ch, cfg).u
        # 1000 uniform draws miss one of the 32 entries with p < 1e-12
        errors, _ = bob_ber(u, ch, cfg, cb, 1000, derive_rng(3, 9, 15))
        assert errors == 0

    def test_scale_invariant_decision(self):
        # (P, sigma^2, P_M) -> 9 (P, sigma^2, P_M) scales every term of
        # the received signal by 3, which the whitening removes
        realized = SystemConfig(power_mallory=2.0, noise_var_bob=0.5)
        cases = [(scalar_channel_set(), scalar_cfg(noise_var=0.5)),
                 (realize_channels(realized, 0), realized)]
        for ch, cfg in cases:
            big = replace(cfg, power=9.0 * cfg.power,
                          noise_var_bob=9.0 * cfg.noise_var_bob,
                          power_mallory=9.0 * cfg.power_mallory)
            cb = build_codebook(cfg.n_active, cfg.mod_order)
            u = compute_beamformer(Method.MAX_RP, ch, cfg).u
            u9 = compute_beamformer(Method.MAX_RP, ch, big).u
            a = bob_ber(u, ch, cfg, cb, 50, derive_rng(3, 9, 16))
            b = bob_ber(u9, ch, big, cb, 50, derive_rng(3, 9, 16))
            assert a == b
        assert a[0] > 0  # the realized case makes errors to compare


class TestBer:
    """BER properties of _ber_counts over several realizations."""

    def test_noiseless_zero(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=0.0, noise_var_eve=0.0)
        sets = [realize_channels(cfg, r) for r in range(3)]
        # one full block and a one-trial block per realization
        n = BER_BLOCK_TRIALS + 1
        for method in (Method.MAX_RP, Method.MAX_RP_ZFC):
            assert ber_over(method, sets, cfg, n, derive_rng(3, 9, 18)) == 0.0

    def test_monotone_in_snr(self):
        cfg = SystemConfig()
        sets = [realize_channels(cfg, r) for r in range(10)]
        n = 20_000
        rates = []
        for snr in (-5.0, 0.0, 5.0, 10.0):
            nv = 10.0 ** (-snr / 10.0)
            point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
            rates.append(ber_over(Method.MAX_SJNR, sets, point, n // 10,
                                  derive_rng(3, 9, 19)))
        sigma = [math.sqrt(max(b, 1e-9) / n) for b in rates]
        for k in range(len(rates) - 1):
            allow = 2 * math.hypot(sigma[k], sigma[k + 1])
            assert rates[k + 1] <= rates[k] + allow

    def test_wfrp_beats_rp(self):
        cfg = SystemConfig(power_mallory=2.0)
        sets = [realize_channels(cfg, r) for r in range(10)]
        n = 20_000
        for snr in (0.0, 5.0):
            nv = 10.0 ** (-snr / 10.0)
            point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
            b_rp = ber_over(Method.MAX_RP, sets, point, n // 10,
                            derive_rng(3, 9, 20))
            b_wf = ber_over(Method.MAX_WFRP, sets, point, n // 10,
                            derive_rng(3, 9, 20))
            allow = 2 * math.hypot(math.sqrt(max(b_rp, 1e-9) / n),
                                   math.sqrt(max(b_wf, 1e-9) / n))
            assert b_wf <= b_rp + allow


def ber_and_se(counts, uses, bits):
    """BER and its standard error from (errors, squared errors) over
    `uses` trials."""
    errors, squared = counts
    mean = errors / uses
    var = max(squared / uses - mean * mean, 0.0)
    return mean / bits, math.sqrt(var / uses) / bits


class TestBatchedBerCounts:
    """metrics._ber_counts, which simulates Bob's combined scalar
    channel, against an antenna-domain simulation of the whole link."""

    @pytest.mark.parametrize("method", list(Method))
    def test_agrees_with_per_trial_reference(self, method):
        cfg = SystemConfig()
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        n = 80_000
        # null-space AN; then AN leaking into Bob under strong jamming.
        # Each case has its own stream tags for the two simulations.
        cases = [(realize_channels(cfg, 2), {}, (30, 31)),
                 (realize_channels(cfg, 2, an_mode="random"),
                  {"beta": 0.95, "power_mallory": 10.0}, (35, 36))]
        zs = []
        for ch, overrides, (tag, ref_tag) in cases:
            for k, snr in enumerate((0.0, 5.0, 10.0)):
                nv = 10.0 ** (-snr / 10.0)
                point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv,
                                **overrides)
                u = compute_beamformer(method, ch, point).u
                batched = bob_ber(u, ch, point, cb, n,
                                   derive_rng(3, 9, tag, k))
                looped = ber_counts_antenna_domain(
                    u, ch, point, cb, n, derive_rng(3, 9, ref_tag, k))
                b, b_se = ber_and_se(batched, n, cb.bits_per_use)
                r, r_se = ber_and_se(looped, n, cb.bits_per_use)
                assert b > 0.0
                z = (b - r) / math.hypot(b_se, r_se)
                assert abs(z) <= 3.0, (tag, snr, b, r, z)
                zs.append(z)
        # the six cases together: sum z^2 is chi^2(6) without bias, and
        # 22.458 its 0.999 quantile, the root of
        # 1 - exp(-x/2) (1 + x/2 + x^2/8) = 0.999
        assert len(zs) == 6
        assert sum(z * z for z in zs) <= 22.458, zs

    @pytest.mark.parametrize("n_trials", [1, BER_BLOCK_TRIALS + 1,
                                          3 * BER_BLOCK_TRIALS - 37])
    def test_exact_uses(self, n_trials):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 0)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        u = compute_beamformer(Method.MAX_SJNR, ch, cfg).u
        errors, squared = bob_ber(u, ch, cfg, cb, n_trials,
                                   derive_rng(3, 9, 32))
        assert 0 <= errors <= squared <= n_trials * cb.bits_per_use ** 2
        assert errors <= n_trials * cb.bits_per_use

    def test_uniform_guess_limit(self):
        # at -70 dB the decision does not depend on the uniform truth, so
        # E[popcount(idx ^ j)] = 2.5 of 5 bits for any decision j
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=1e8)
        ch = realize_channels(cfg, 1)
        cb = build_codebook(8, 4)
        u = compute_beamformer(Method.MAX_RP, ch, cfg).u
        errors, _ = bob_ber(u, ch, cfg, cb, 100_000,
                             derive_rng(3, 9, 17))
        assert errors / (100_000 * cb.bits_per_use) == \
            pytest.approx(0.5, abs=0.01)

    def test_stack_noiseless_and_empty(self):
        # zero noise power is the noiseless channel, not an error; zero
        # trials give zero tallies
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=0.0, noise_var_eve=0.0)
        ch = realize_channels(cfg, 0)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        U = np.array([compute_beamformer(m, ch, cfg).u
                      for m in (Method.MAX_RP, Method.MAX_RP_ZFC)])
        for n_trials in (300, 0):
            errors, squared = bob_ber(U, ch, cfg, cb, n_trials,
                                       derive_rng(3, 9, 44))
            assert errors.tolist() == squared.tolist() == [0, 0]
        single = bob_ber(U[0], ch, cfg, cb, 0, derive_rng(3, 9, 44))
        assert single == (0, 0)
        assert all(type(x) is int for x in single)

    def test_same_seed_same_counts(self):
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 1)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        u = compute_beamformer(Method.MAX_WFRP, ch, cfg).u
        runs = [bob_ber(u, ch, cfg, cb, 1000, derive_rng(3, 9, 34))
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] > 0


def method_stack(r, snr_db):
    """Bob's scalar channels (refs, power) of every method's combiner on
    realization r at one SNR, a 4-row stack."""
    nv = 10.0 ** (-snr_db / 10.0)
    cfg = SystemConfig(noise_var_bob=nv, noise_var_eve=nv)
    ch = realize_channels(cfg, r)
    U = np.array([compute_beamformer(m, ch, cfg).u for m in Method])
    return scalar_channel(U, "bob", ch, cfg)


def assert_same_tallies(a, b):
    assert all(np.array_equal(x, y) for x, y in zip(a, b)), (a, b)
    assert [type(x) for x in a] == [type(x) for x in b]


class TestBerOracle:
    """_ber_counts' real-product ML rule against the per-row complex
    distances argmin |z - r_k| of helpers.ber_counts_hypot, on the same
    draws: every decision, so every tally, is the same."""

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("n_trials", [1, BER_BLOCK_TRIALS + 1,
                                          3 * BER_BLOCK_TRIALS - 37])
    def test_matches_hypot_oracle(self, rows, n_trials):
        cb = build_codebook(8, 4)
        for r in range(3):
            for k, snr_db in enumerate((-30.0, -10.0, 0.0, 10.0, 30.0,
                                        60.0)):
                refs, power = method_stack(r, snr_db)
                if rows == 1:
                    refs, power = refs[0], float(power[0])
                args = refs, power, cb, n_trials
                assert_same_tallies(
                    _ber_counts(*args, [derive_rng(3, 9, 50, r, k)]),
                    ber_counts_hypot(*args, derive_rng(3, 9, 50, r, k)))

    @pytest.mark.parametrize("magnitude, power", [
        (7e149, 1e300), (7e149, 1.7e308), (1e-150, 1e-300),
        # |r|^2 ~ 1e-320 is subnormal: without the power-of-two scale
        # the squares lose their digits and decisions move
        (1e-160, 1e-320)])
    def test_magnitude_extremes(self, magnitude, power):
        cb = build_codebook(8, 4)
        refs, _ = method_stack(1, 10.0)
        refs = refs * (magnitude / np.abs(refs).max())
        powers = np.full(len(refs), power)
        n = 3 * BER_BLOCK_TRIALS - 37
        with np.errstate(all="raise"):
            got = _ber_counts(refs, powers, cb, n, [derive_rng(3, 9, 51)])
        assert_same_tallies(got, ber_counts_hypot(refs, powers, cb, n,
                                                  derive_rng(3, 9, 51)))
        assert got[0].min() > 0

    def test_absorbed_rows_keep_their_channels(self):
        # sigma / |r| = 1e24, far past the 1e17 at which z - r_k rounds
        # to z: the complex distances tie on every entry and decide entry
        # 0 on every trial, the same tally for any channel; the real
        # product keeps r_k
        cb = build_codebook(8, 4)
        refs, _ = method_stack(2, 10.0)
        powers = (1e24 * np.abs(refs).max(axis=1)) ** 2
        n = 2000
        hypot = ber_counts_hypot(refs, powers, cb, n, derive_rng(3, 9, 52))
        assert len(set(hypot[0].tolist())) == 1
        errors, _ = _ber_counts(refs, powers, cb, n,
                                [derive_rng(3, 9, 52)])
        assert len(set(errors.tolist())) > 1
        # a guess that ignores the truth: 2.5 of 5 bits wrong per use
        ber = errors / (n * cb.bits_per_use)
        assert np.all(np.abs(ber - 0.5) < 0.05), ber


class TestStackedBer:
    """_ber_counts over a stack of grid points, one generator each, as
    the harness calls it once per realization."""

    @pytest.mark.parametrize("points", [1, 6])
    @pytest.mark.parametrize("n_trials", [1, BER_BLOCK_TRIALS + 1,
                                          3 * BER_BLOCK_TRIALS - 37])
    @pytest.mark.parametrize("chunk", [None, 3, 1])
    def test_points_equal_single_calls(self, points, n_trials, chunk,
                                       monkeypatch):
        # 4 method rows per point at several SNRs and realizations; a
        # chunk of 3 rows straddles points, one of 1 row splits them
        cb = build_codebook(8, 4)
        stacks = [method_stack(p % 3, -10.0 + 8.0 * p)
                  for p in range(points)]
        refs = np.array([r for r, _ in stacks])
        power = np.array([pw for _, pw in stacks])
        # a row takes 8 (K + 3) bytes a trial of its block; by default
        # 4 rows fit at full blocks, every row at one trial
        block = min(BER_BLOCK_TRIALS, n_trials)
        if chunk:
            monkeypatch.setattr(metrics, "BER_BLOCK_BYTES",
                                chunk * 8 * block * (cb.size + 3))
        rows = []
        workspace = metrics._ber_workspace

        def spy(*args):
            rows.append(args[0])
            return workspace(*args)

        monkeypatch.setattr(metrics, "_ber_workspace", spy)
        got = _ber_counts(refs, power, cb, n_trials,
                          [derive_rng(3, 9, 60, p) for p in range(points)])
        assert rows == [chunk or (4 if block > 1 else 4 * points)]
        monkeypatch.setattr(metrics, "_ber_workspace", workspace)
        assert got[0].shape == got[1].shape == (points, 4)
        for p in range(points):
            assert_same_tallies(
                (got[0][p], got[1][p]),
                _ber_counts(refs[p], power[p], cb, n_trials,
                            [derive_rng(3, 9, 60, p)]))
        assert got[0].sum() > 0

    def test_generators_must_match_points(self):
        # 2 generators for 4 rows would otherwise split them 2 and 2
        cb = build_codebook(8, 4)
        refs, power = method_stack(0, 0.0)
        rngs = [derive_rng(3, 9, 61, p) for p in range(2)]
        for r, pw in ((refs, power), (refs[None], power[None]),
                      (refs[0], float(power[0]))):
            with pytest.raises(ValueError, match="2 generators"):
                _ber_counts(r, pw, cb, 10, rngs)

