"""Channel sampling, antenna selection, AN projection and the attacker
chain."""

import math

import numpy as np
import pytest

from secsm.channel import (SystemConfig, build_an_projection,
                           build_mallory_chain, build_tas_matrix, crandn,
                           derive_rng, realize_channels, sample_channels)


def default_cfg(**kw):
    return SystemConfig(**kw)


class TestConfig:
    def test_defaults(self):
        cfg = default_cfg()
        assert (cfg.n_tx, cfg.n_active, cfg.n_rx) == (8, 8, 6)
        assert (cfg.power, cfg.mod_order, cfg.beta) == (10.0, 4, 0.5)

    def test_range_checks(self):
        with pytest.raises(ValueError, match="beta"):
            default_cfg(beta=1.5)
        for mod_order in (0, 1, 3):
            with pytest.raises(ValueError, match="^mod_order"):
                default_cfg(mod_order=mod_order)
        with pytest.raises(ValueError, match="power"):
            default_cfg(power=-1.0)
        for name in ("n_tx", "n_rx"):
            with pytest.raises(ValueError, match=f"^{name} must be at least"):
                default_cfg(**{name: 0})
        for name in ("power", "power_mallory", "noise_var_bob",
                     "noise_var_eve"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^{name} .*finite"):
                    default_cfg(**{name: value})

    def test_variances_fixed(self):
        # AN and jamming entry variances are constants, not fields
        cfg = default_cfg()
        assert (cfg.an_var, cfg.jam_var) == (1.0, 1.0)
        for name in ("an_var", "jam_var"):
            with pytest.raises(TypeError):
                default_cfg(**{name: 2.0})
            with pytest.raises(AttributeError):
                setattr(cfg, name, 2.0)

    def test_attacker_needs_two_antennas(self):
        # one antenna leaves no self-interference-free jamming stream
        for n_mallory in (0, 1):
            with pytest.raises(ValueError, match="^n_mallory"):
                default_cfg(n_mallory=n_mallory)
        assert default_cfg(n_mallory=2).n_mallory == 2


class TestSampling:
    def test_shapes(self):
        cfg = default_cfg(n_mallory=4)
        H, G, F, M = sample_channels(cfg, derive_rng(1, 0, 0))
        assert H.shape == (6, 8)
        assert G.shape == (4, 8)
        assert F.shape == (6, 4)
        assert M.shape == (4, 4)

    def test_entry_statistics(self):
        cfg = default_cfg()
        rng = derive_rng(2, 0, 0)
        entries = np.concatenate(
            [sample_channels(cfg, rng)[0].ravel() for _ in range(10_000)])
        var = np.mean(np.abs(entries) ** 2)
        assert var == pytest.approx(1.0, rel=0.05)
        # mean within 3 standard errors of zero per component
        se = np.sqrt(0.5 / entries.size)
        assert abs(entries.real.mean()) <= 3 * se
        assert abs(entries.imag.mean()) <= 3 * se

    def test_deterministic(self):
        cfg = default_cfg()
        a = sample_channels(cfg, derive_rng(cfg.seed, 0, 3))
        b = sample_channels(cfg, derive_rng(cfg.seed, 0, 3))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestTasMatrix:
    def test_no_selection(self):
        H = crandn(derive_rng(3, 0, 0), 6, 8)
        np.testing.assert_array_equal(build_tas_matrix(H, 8), np.eye(8))

    def test_by_construction(self):
        # column norms 3, 1, 2, 0.5 -> keep columns 0 and 2
        H = np.array([[3.0, 1.0, 2.0, 0.5],
                      [0.0, 0.0, 0.0, 0.0]])
        T = build_tas_matrix(H, 2)
        np.testing.assert_array_equal(T, np.eye(4)[:, [0, 2]])

    def test_vs_sort_oracle(self):
        rng = derive_rng(5, 0, 0)
        for _ in range(20):
            H = crandn(rng, 6, 16)
            T = build_tas_matrix(H, 8)
            norms = [float(np.sum(np.abs(H[:, i]) ** 2)) for i in range(16)]
            expect = sorted(sorted(range(16),
                                   key=lambda i: (-norms[i], i))[:8])
            picked = [int(np.argmax(T[:, j])) for j in range(8)]
            assert picked == expect

    def test_tie_lower_index(self):
        H = np.array([[1.0, 1.0, 1.0]])
        T = build_tas_matrix(H, 2)
        np.testing.assert_array_equal(T, np.eye(3)[:, [0, 1]])

    def test_more_active_than_antennas_rejected(self):
        with pytest.raises(ValueError, match="cannot select 4 of 3"):
            build_tas_matrix(np.ones((2, 3)), 4)


class TestAnProjection:
    def test_nullspace_dimensions(self):
        rng = derive_rng(7, 0, 0)
        H = crandn(rng, 6, 8)
        T = np.eye(8)
        P = build_an_projection(H, T)
        # one column per null-space dimension, 8 - 6 = 2, unit trace
        assert P.shape == (8, 2)
        np.testing.assert_allclose(P.conj().T @ P, np.eye(2) / 2,
                                   atol=1e-12)
        assert np.linalg.norm(H @ T @ P) <= 1e-10

    def test_power_normalization(self):
        # unit trace: unit-variance AN entries carry unit total power
        rng = derive_rng(7, 0, 1)
        H = crandn(rng, 6, 8)
        for mode in ("nullspace", "random"):
            P = build_an_projection(H, np.eye(8), mode=mode, rng=rng)
            tr = float(np.real(np.trace(P @ P.conj().T)))
            assert tr == pytest.approx(1.0, abs=1e-12)

    def test_random_mode_orthonormal(self):
        rng = derive_rng(7, 0, 2)
        H = crandn(rng, 6, 8)
        P = build_an_projection(H, np.eye(8), mode="random", rng=rng)
        PtP = P.conj().T @ P
        np.testing.assert_allclose(PtP, PtP[0, 0] * np.eye(8), atol=1e-10)

    def test_bad_mode_arguments_rejected(self):
        H = crandn(derive_rng(7, 0, 5), 6, 8)
        with pytest.raises(ValueError, match="unknown AN mode 'off'"):
            build_an_projection(H, np.eye(8), mode="off")
        with pytest.raises(ValueError, match="random AN mode needs an rng"):
            build_an_projection(H, np.eye(8), mode="random")

    def test_infeasible_when_no_null_space(self):
        rng = derive_rng(7, 0, 3)
        H = crandn(rng, 8, 8)
        with pytest.raises(ValueError, match="null space"):
            build_an_projection(H, np.eye(8))

    def test_bob_an_term_vanishes(self):
        # first term of Bob's interference covariance is zero for any u
        cfg = default_cfg()
        ch = realize_channels(cfg, 0)
        rng = derive_rng(7, 0, 4)
        an = ch.H @ ch.T @ ch.P_AN
        for _ in range(10):
            u = crandn(rng, cfg.n_rx)
            u /= np.linalg.norm(u)
            term = ((1 - cfg.beta) * cfg.power
                    * np.sum(np.abs(an.conj().T @ u) ** 2))
            assert term <= 1e-12


class TestMalloryChain:
    def test_identity_self_channel(self):
        rng = derive_rng(9, 0, 0)
        G = crandn(rng, 4, 8)
        u_er, P_JM = build_mallory_chain(G, np.eye(8), np.eye(4))
        assert np.linalg.norm(u_er.conj() @ P_JM) <= 1e-10

    def test_dimensions_and_orthonormal(self):
        rng = derive_rng(9, 0, 1)
        G = crandn(rng, 4, 8)
        M = crandn(rng, 4, 4)
        u_er, P_JM = build_mallory_chain(G, np.eye(8), M)
        assert P_JM.shape == (4, 3)
        PtP = P_JM.conj().T @ P_JM
        np.testing.assert_allclose(PtP, PtP[0, 0] * np.eye(3), atol=1e-12)

    def test_self_interference_power(self):
        rng = derive_rng(9, 0, 2)
        for _ in range(20):
            G = crandn(rng, 4, 8)
            M = crandn(rng, 4, 4)
            u_er, P_JM = build_mallory_chain(G, np.eye(8), M)
            leak = u_er.conj() @ M @ P_JM
            assert float(np.sum(np.abs(leak) ** 2)) <= 1e-18

    def test_one_antenna_cannot_jam(self):
        G = crandn(derive_rng(9, 0, 3), 1, 8)
        with pytest.raises(ValueError, match="at least 2 antennas"):
            build_mallory_chain(G, np.eye(8), np.eye(1))

    def test_near_degenerate_self_channel(self):
        # M_self^H u_er is 1e-16 of M_self: still a direction to cancel
        rng = derive_rng(9, 0, 4)
        G, M0, v = crandn(rng, 4, 8), crandn(rng, 4, 4), crandn(rng, 4)
        u_er, _ = build_mallory_chain(G, np.eye(8), np.eye(4))
        M = M0 - np.outer(u_er, u_er.conj() @ M0)
        M = M + 1e-16 * np.linalg.norm(M) * np.outer(u_er, v.conj())
        back = M.conj().T @ u_er
        assert 0.0 < np.linalg.norm(back) <= 1e-14 * np.linalg.norm(M)
        u, P_JM = build_mallory_chain(G, np.eye(8), M)
        np.testing.assert_array_equal(u, u_er)
        assert P_JM.shape == (4, 3)
        tr = float(np.real(np.trace(P_JM @ P_JM.conj().T)))
        assert tr == pytest.approx(1.0, abs=1e-12)
        assert (np.linalg.norm(P_JM.conj().T @ back)
                <= 1e-12 * np.linalg.norm(back))

    def test_zero_self_channel_leading_identity_columns(self):
        G = crandn(derive_rng(9, 0, 5), 4, 8)
        _, P_JM = build_mallory_chain(G, np.eye(8), np.zeros((4, 4)))
        np.testing.assert_array_equal(P_JM, np.eye(4)[:, :3] / math.sqrt(3))


class TestChannelSetInvariants:
    def test_invariants_100_realizations(self):
        cfg = default_cfg(n_tx=12, n_mallory=4)
        assert cfg.n_active == 8
        for r in range(100):
            ch = realize_channels(cfg, r)
            # T: one 1 per column, distinct identity columns
            assert ch.T.shape == (12, 8)
            assert np.all(ch.T.sum(axis=0) == 1)
            cols = [int(np.argmax(ch.T[:, j])) for j in range(8)]
            assert len(set(cols)) == 8
            assert np.linalg.norm(ch.u_er) == pytest.approx(1.0, abs=1e-12)
            leak = np.abs(ch.u_er.conj() @ ch.M_self @ ch.P_JM)
            assert leak.max() <= 1e-10
            tr_an = float(np.real(np.trace(ch.P_AN @ ch.P_AN.conj().T)))
            tr_jm = float(np.real(np.trace(ch.P_JM @ ch.P_JM.conj().T)))
            assert tr_an == pytest.approx(1.0, abs=1e-10)
            assert tr_jm == pytest.approx(1.0, abs=1e-10)

    def test_realize_deterministic(self):
        cfg = default_cfg()
        a = realize_channels(cfg, 12)
        b = realize_channels(cfg, 12)
        np.testing.assert_array_equal(a.H, b.H)
        np.testing.assert_array_equal(a.P_AN, b.P_AN)
        np.testing.assert_array_equal(a.u_er, b.u_er)
        np.testing.assert_array_equal(a.P_JM, b.P_JM)

    def test_cached_products(self):
        ch = realize_channels(default_cfg(power_mallory=2.0), 3)
        fresh = {"HT": ch.H @ ch.T, "GT": ch.G @ ch.T,
                 "HT_AN": ch.H @ ch.T @ ch.P_AN,
                 "GT_AN": ch.G @ ch.T @ ch.P_AN, "F_JM": ch.F @ ch.P_JM,
                 "M_JM": ch.M_self @ ch.P_JM}
        for name, expected in fresh.items():
            cached = getattr(ch, name)
            # same association order, so the same bits
            np.testing.assert_array_equal(cached, expected)
            assert getattr(ch, name) is cached
            assert not cached.flags.writeable
