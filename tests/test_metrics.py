"""Covariances, SJNR, Monte-Carlo mutual information against quadrature,
the BER tally against an antenna-domain reference, and the FLOP table."""

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from secsm.beamformers import Method, compute_beamformer, max_sjnr
from secsm.channel import (AN_MODES, ChannelSet, SystemConfig, crandn,
                           derive_rng, realize_channels)
from secsm.metrics import (BER_BLOCK_TRIALS, SIDES, _ber_counts,
                           _noise_grid, _side_terms, flop_estimate,
                           mi_inner_mean, mutual_info_mc, scalar_channel,
                           sjnr)
from secsm.modulation import build_codebook
from secsm.numerics import gen_max_eigvec

from helpers import (ber_counts_antenna_domain, bpsk_mi_quadrature,
                     covariance, mutual_info_iid, noise_cov_bob)


def factored_cov(ch, cfg, side="bob"):
    """The library's interference-plus-noise covariance of one side,
    formed densely from its low-rank factor."""
    _, V, noise_var = _side_terms(ch, cfg, side)
    return covariance(V, noise_var)


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
    errors = sum(_ber_counts(compute_beamformer(method, ch, cfg).u, ch,
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
            _, V, noise_var = _side_terms(ch, point, side)
            R = covariance(V, noise_var)
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
                    u, "bob", ch, cfg, 20, derive_rng(3, 9, 43))}[fn]
        with pytest.raises(ValueError, match="power is zero"):
            call()

    def test_solver_self_consistency(self):
        cfg = SystemConfig(power_mallory=3.0)
        ch = realize_channels(cfg, 2)
        HT = ch.H @ ch.T
        num = cfg.beta * cfg.power / cfg.n_active * (HT @ HT.conj().T)
        _, V, noise_var = _side_terms(ch, cfg, "bob")
        _, ratio = gen_max_eigvec(num, V, noise_var)
        u = max_sjnr(ch, cfg).u
        assert sjnr(u, ch, cfg) == pytest.approx(ratio, rel=1e-10)


class TestMutualInfo:
    def test_high_snr_saturates(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=1e-4)
        ch = realize_channels(cfg, 0)
        bf = compute_beamformer(Method.MAX_RP, ch, cfg)
        bits = mutual_info_mc(bf.u, "bob", ch, cfg, 1000,
                              derive_rng(3, 9, 3))
        assert bits == pytest.approx(5.0, abs=0.05)

    def test_zero_signal_limit(self):
        cfg = SystemConfig(beta=0.0)
        ch = realize_channels(cfg, 1)
        u = np.eye(6, dtype=complex)[:, 0]
        assert mutual_info_mc(u, "bob", ch, cfg, 200,
                              derive_rng(3, 9, 4)) == 0.0

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 5.0, 10.0])
    def test_bpsk_matches_quadrature(self, snr_db):
        noise_var = 10.0 ** (-snr_db / 10.0)
        cfg = scalar_cfg(noise_var)
        ch = scalar_channel_set()
        u = np.array([1.0 + 0j])
        mc = mutual_info_mc(u, "bob", ch, cfg, 20_000,
                            derive_rng(3, 9, 5))
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
                bits = mutual_info_mc(u, "bob", ch, point, 50, rng)
                assert 0.0 <= bits <= 5.0

    def test_scale_invariant_in_u(self):
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 3)
        u = compute_beamformer(Method.MAX_RP, ch, cfg).u
        a = mutual_info_mc(u, "bob", ch, cfg, 400, derive_rng(3, 9, 7))
        b = mutual_info_mc(3.7 * u, "bob", ch, cfg, 400,
                           derive_rng(3, 9, 7))
        assert abs(a - b) <= 1e-9

    def test_convergence_in_n_noise(self):
        # halving the noise draws moves the estimate by < 0.03 bits
        cfg = SystemConfig()
        ch = realize_channels(cfg, 4)
        point = replace(cfg, noise_var_bob=10 ** -0.5,
                        noise_var_eve=10 ** -0.5)
        u = compute_beamformer(Method.MAX_SJNR, ch, point).u
        full = mutual_info_mc(u, "bob", ch, point, 500, derive_rng(3, 9, 8))
        half = mutual_info_mc(u, "bob", ch, point, 250, derive_rng(3, 9, 9))
        assert abs(full - half) < 0.03

    def test_stacked_equals_single_calls(self):
        # MI, SJNR and the BER tally of a stack, row by row, against
        # single calls (each BER call on an identically seeded rng)
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 5)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        U = np.array([compute_beamformer(m, ch, cfg).u for m in Method])
        for side, stack in (("bob", U), ("mallory", U[:, :2])):
            stacked = mutual_info_mc(stack, side, ch, cfg, 300,
                                     derive_rng(3, 9, 40))
            single = [mutual_info_mc(u, side, ch, cfg, 300,
                                     derive_rng(3, 9, 40)) for u in stack]
            assert isinstance(stacked, np.ndarray)
            assert stacked.tolist() == single
        ratios = sjnr(U, ch, cfg)
        assert isinstance(ratios, np.ndarray)
        assert type(sjnr(U[0], ch, cfg)) is float
        assert ratios.tolist() == [sjnr(u, ch, cfg) for u in U]
        # a full block and a partial one
        n = BER_BLOCK_TRIALS + 37
        errors, squared = _ber_counts(U, ch, cfg, cb, n,
                                      derive_rng(3, 9, 42))
        for k, u in enumerate(U):
            assert (errors[k], squared[k]) == _ber_counts(
                u, ch, cfg, cb, n, derive_rng(3, 9, 42))
        assert errors.sum() > 0  # the tallies have errors to compare

    def test_single_combiner_returns_float(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 0)
        bits = mutual_info_mc(ch.u_er, "mallory", ch, cfg, 20,
                              derive_rng(3, 9, 41))
        assert type(bits) is float

    def test_rejects_zero_draws(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 0)
        with pytest.raises(ValueError):
            mutual_info_mc(np.eye(6)[:, 0], "bob", ch, cfg, 0,
                           derive_rng(3, 9, 10))


class TestLatticeNoise:
    """The randomly shifted noise lattice behind mutual_info_mc: per
    codebook entry, a product grid of Re- and Im-axis nodes."""

    @pytest.mark.parametrize("n, shape", [(1, (2, 2)), (2, (2, 2)),
                                          (5, (2, 3)), (7, (3, 3)),
                                          (484, (22, 22)), (500, (22, 23)),
                                          (20_000, (141, 142))])
    def test_smallest_near_square_grid(self, n, shape):
        K = 6
        x, wx, y, wy = _noise_grid(derive_rng(3, 9, 50, n), K, n)
        assert (x.shape, wx.shape) == ((K, shape[0]),) * 2
        assert (y.shape, wy.shape) == ((K, shape[1]),) * 2
        # one shift per entry and axis: no two entries share a node
        for nodes in (x, y):
            assert len(np.unique(nodes[:, 0])) == K

    @pytest.mark.parametrize("n", [1, 2, 7, 500])
    def test_one_node_per_cell(self, n):
        # each axis's m nodes, mapped back through Phi(sqrt 2 x) =
        # tau(v), fall one into each of the m equal cells of v, with edges
        # Phi^-1(tau(k/m)) / sqrt 2 from the standard library
        for nodes in _noise_grid(derive_rng(3, 9, 50, n), 6, n)[::2]:
            m = nodes.shape[1]
            v = np.arange(1, m) / m
            tau = v - np.sin(2.0 * math.pi * v) / (2.0 * math.pi)
            edges = np.array([statistics.NormalDist().inv_cdf(float(t))
                              for t in tau]) / math.sqrt(2.0)
            cells = np.array([np.searchsorted(edges, row) for row in nodes])
            assert cells.tolist() == [list(range(m))] * len(nodes)

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("snr_db", [-5.0, 0.0, 5.0])
    def test_entry_mean_unbiased(self, n, snr_db):
        # criterion 8's BPSK link. The clamp of mutual_info_mc to
        # [0, 1] bit biases any estimator at a few nodes, so this checks
        # the unclamped per-entry average the random shifts keep
        # unbiased. Above 5 dB the rare shifts that carry the error make
        # the standard error itself unreliable at a few thousand grids.
        grids = 2000
        cfg = scalar_cfg(10.0 ** (-snr_db / 10.0))
        r, power = scalar_channel(np.array([1.0 + 0j]), "bob",
                                  scalar_channel_set(), cfg)
        g = r / math.sqrt(power)
        diffs = g[:, None] - g[None, :]
        rng = derive_rng(3, 9, 51, n)
        bits = np.array([mi_inner_mean(diffs, *_noise_grid(rng, 2, n))
                         for _ in range(grids)])
        se = bits.std(ddof=1) / math.sqrt(grids)
        exact = bpsk_mi_quadrature(2.0 * math.sqrt(cfg.power
                                                   / cfg.noise_var_bob))
        assert abs(bits.mean() - exact) <= 4.0 * se

    @pytest.mark.parametrize("snr_db", [-5.0, 0.0])
    def test_spread_below_independent_draws(self, snr_db):
        # at 50 samples per entry the stratified estimate's spread over
        # streams is well below that of independent draws on this link
        nv = 10.0 ** (-snr_db / 10.0)
        cfg = SystemConfig()
        point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
        ch = realize_channels(cfg, 0)
        u = max_sjnr(ch, point).u
        lattice = [mutual_info_mc(u, "bob", ch, point, 50,
                                  derive_rng(3, 9, 52, s)) for s in range(40)]
        iid = [mutual_info_iid(u, "bob", ch, point, 50,
                               derive_rng(3, 9, 53, s)) for s in range(40)]
        assert np.std(lattice) < 0.5 * np.std(iid)


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
        # both sides draw from one stream, Bob first
        rng = derive_rng(3, 9, 12)
        i_b = mutual_info_mc(ch.u_er, "bob", ch, cfg, 400, rng)
        i_e = mutual_info_mc(ch.u_er, "mallory", ch, cfg, 400, rng)
        assert i_b == pytest.approx(i_e, abs=0.05)

    def test_deaf_eavesdropper(self):
        cfg = SystemConfig(noise_var_eve=1e9, noise_var_bob=0.5)
        ch = realize_channels(cfg, 1)
        bf = compute_beamformer(Method.MAX_SJNR, ch, cfg)
        rng = derive_rng(3, 9, 13)
        mutual_info_mc(bf.u, "bob", ch, cfg, 400, rng)
        i_e = mutual_info_mc(ch.u_er, "mallory", ch, cfg, 400, rng)
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
        errors, _ = _ber_counts(u, ch, cfg, cb, 1000, derive_rng(3, 9, 15))
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
            a = _ber_counts(u, ch, cfg, cb, 50, derive_rng(3, 9, 16))
            b = _ber_counts(u9, ch, big, cb, 50, derive_rng(3, 9, 16))
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
        for ch, overrides, (tag, ref_tag) in cases:
            for k, snr in enumerate((0.0, 5.0, 10.0)):
                nv = 10.0 ** (-snr / 10.0)
                point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv,
                                **overrides)
                u = compute_beamformer(method, ch, point).u
                batched = _ber_counts(u, ch, point, cb, n,
                                      derive_rng(3, 9, tag, k))
                looped = ber_counts_antenna_domain(
                    u, ch, point, cb, n, derive_rng(3, 9, ref_tag, k))
                b, b_se = ber_and_se(batched, n, cb.bits_per_use)
                r, r_se = ber_and_se(looped, n, cb.bits_per_use)
                assert b > 0.0
                assert abs(b - r) <= 3.0 * math.hypot(b_se, r_se), \
                    (tag, snr, b, r, abs(b - r) / math.hypot(b_se, r_se))

    @pytest.mark.parametrize("n_trials", [1, BER_BLOCK_TRIALS + 1,
                                          3 * BER_BLOCK_TRIALS - 37])
    def test_exact_uses(self, n_trials):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 0)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        u = compute_beamformer(Method.MAX_SJNR, ch, cfg).u
        errors, squared = _ber_counts(u, ch, cfg, cb, n_trials,
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
        errors, _ = _ber_counts(u, ch, cfg, cb, 100_000,
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
            errors, squared = _ber_counts(U, ch, cfg, cb, n_trials,
                                          derive_rng(3, 9, 44))
            assert errors.tolist() == squared.tolist() == [0, 0]
        single = _ber_counts(U[0], ch, cfg, cb, 0, derive_rng(3, 9, 44))
        assert single == (0, 0)
        assert all(type(x) is int for x in single)

    def test_same_seed_same_counts(self):
        cfg = SystemConfig(power_mallory=2.0)
        ch = realize_channels(cfg, 1)
        cb = build_codebook(cfg.n_active, cfg.mod_order)
        u = compute_beamformer(Method.MAX_WFRP, ch, cfg).u
        runs = [_ber_counts(u, ch, cfg, cb, 1000, derive_rng(3, 9, 34))
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] > 0


class TestFlops:
    def test_flop_values(self):
        assert flop_estimate(Method.MAX_RP, 6) == 27_864
        assert flop_estimate(Method.MAX_SJNR, 6) == 57_906
        assert flop_estimate(Method.MAX_WFRP, 6) == 266 * 216 + 18
        assert flop_estimate(Method.MAX_RP_ZFC, 6) == 259 * 216

    def test_flop_ordering(self):
        for n in range(1, 65):
            chain = [flop_estimate(m, n) for m in
                     (Method.MAX_RP, Method.MAX_RP_ZFC,
                      Method.MAX_WFRP, Method.MAX_SJNR)]
            assert chain == sorted(chain)
            assert len(set(chain)) == 4
