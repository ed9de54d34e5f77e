"""Codebook enumeration and labeling, and the power accounting of the
antenna-domain transmit/receive model behind the BER reference in
helpers."""

import numpy as np
import pytest

from secsm.channel import SystemConfig, derive_rng, realize_channels
from secsm.modulation import build_codebook

from helpers import receive_bob, transmit_alice, transmit_mallory


class TestCodebook:
    def test_bpsk_two_antennas(self):
        cb = build_codebook(2, 2)
        assert cb.size == 4
        np.testing.assert_array_equal(cb.antennas, [0, 0, 1, 1])
        np.testing.assert_allclose(cb.symbols, [1, -1, 1, -1], atol=1e-15)

    @pytest.mark.parametrize("n_active, mod_order", [(1, 2), (8, 4), (4, 8)])
    def test_symbol_one_heads_each_antenna(self, n_active, mod_order):
        # mutual_info_mc takes every mod_order-th entry as its antenna's
        # representative: entry a * mod_order, antenna a, symbol exactly 1
        cb = build_codebook(n_active, mod_order)
        assert np.all(cb.symbols[::mod_order] == 1.0)
        np.testing.assert_array_equal(cb.antennas[::mod_order],
                                      np.arange(n_active))

    def test_default_size_and_bits(self):
        cb = build_codebook(8, 4)
        assert cb.size == 32
        assert cb.bits_per_use == 5

    def test_unit_energy(self):
        for m in (2, 4, 8):
            cb = build_codebook(4, m)
            assert np.mean(np.abs(cb.symbols) ** 2) == pytest.approx(1.0)

    def test_labels_bijective(self):
        cb = build_codebook(8, 4)
        assert sorted(cb.labels.tolist()) == list(range(32))
        # label -> (antenna, symbol) -> label round-trip
        for i in range(cb.size):
            label = int(cb.labels[i])
            n = label >> 2
            assert n == int(cb.antennas[i])

    def test_gray_adjacent_symbols(self):
        # adjacent PSK points differ in exactly one symbol bit
        cb = build_codebook(1, 8)
        by_phase = np.argsort(np.angle(cb.symbols) % (2 * np.pi))
        labels = cb.labels[by_phase]
        for a, b in zip(labels, np.roll(labels, -1)):
            assert int(a ^ b).bit_count() == 1

    def test_shared_instance_read_only(self):
        cb = build_codebook(8, 4)
        assert build_codebook(8, 4) is cb
        for arr in (cb.labels, cb.antennas, cb.symbols, cb.bit_errors):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    @pytest.mark.parametrize("n_active,mod_order", [(1, 2), (8, 4), (4, 16)])
    def test_bit_error_table(self, n_active, mod_order):
        cb = build_codebook(n_active, mod_order)
        labels = [int(v) for v in cb.labels]
        expected = [[(a ^ b).bit_count() for b in labels] for a in labels]
        np.testing.assert_array_equal(cb.bit_errors, expected)
        np.testing.assert_array_equal(cb.bit_errors, cb.bit_errors.T)
        assert not np.diagonal(cb.bit_errors).any()

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            build_codebook(3, 4)
        with pytest.raises(ValueError):
            build_codebook(8, 6)
        with pytest.raises(ValueError, match="mod_order must be at least 2"):
            build_codebook(2, 1)


class TestTransmit:
    def setup_method(self):
        self.cfg = SystemConfig()
        self.ch = realize_channels(self.cfg, 0)
        self.cb = build_codebook(8, 4)

    def test_no_an_limit_exact(self):
        cfg = SystemConfig(beta=1.0)
        rng = derive_rng(1, 9, 0)
        x = transmit_alice(self.cb, [5], self.ch, cfg, rng)[0]
        e = np.zeros(8, dtype=complex)
        e[self.cb.antennas[5]] = self.cb.symbols[5]
        np.testing.assert_allclose(x, np.sqrt(10.0) * self.ch.T @ e,
                                   atol=1e-12)
        assert np.sum(np.abs(x) ** 2) == pytest.approx(10.0)

    def test_an_only_power(self):
        cfg = SystemConfig(beta=0.0)
        x = transmit_alice(self.cb, np.zeros(10_000, dtype=int), self.ch,
                           cfg, derive_rng(1, 9, 1))
        p = np.mean(np.sum(np.abs(x) ** 2, axis=1))
        assert p == pytest.approx(cfg.power, rel=0.02)

    def test_split_power(self):
        cfg = SystemConfig(beta=0.5, power=10.0)
        # deterministic symbol part carries beta * power exactly
        sig = np.sqrt(cfg.beta * cfg.power) * self.ch.T[:, 3]
        x = transmit_alice(self.cb, np.full(10_000, 3 * 4), self.ch, cfg,
                           derive_rng(1, 9, 2))
        total = np.mean(np.sum(np.abs(x) ** 2, axis=1))
        assert np.sum(np.abs(sig) ** 2) == pytest.approx(5.0, abs=1e-12)
        assert total == pytest.approx(10.0, rel=0.02)

    def test_mallory_zero_power(self):
        cfg = SystemConfig(power_mallory=0.0)
        x = transmit_mallory(self.ch, cfg, 1, derive_rng(1, 9, 3))[0]
        np.testing.assert_array_equal(x, np.zeros(2))

    def test_mallory_unit_power(self):
        cfg = SystemConfig(power_mallory=1.0)
        x = transmit_mallory(self.ch, cfg, 10_000, derive_rng(1, 9, 4))
        p = np.mean(np.sum(np.abs(x) ** 2, axis=1))
        assert p == pytest.approx(1.0, rel=0.02)

    def test_mallory_self_interference_free(self):
        cfg = SystemConfig(power_mallory=2.0)
        for x in transmit_mallory(self.ch, cfg, 100, derive_rng(1, 9, 5)):
            leak = abs(self.ch.u_er.conj() @ self.ch.M_self @ x)
            assert leak <= 1e-9 * max(np.linalg.norm(x), 1e-30)


class TestReceive:
    def test_noiseless_limit(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0,
                           noise_var_bob=0.0, noise_var_eve=0.0)
        ch = realize_channels(cfg, 1)
        cb = build_codebook(8, 4)
        y = receive_bob(cb, [7], ch, cfg, derive_rng(1, 9, 6))[0]
        e = np.zeros(8, dtype=complex)
        e[cb.antennas[7]] = cb.symbols[7]
        np.testing.assert_allclose(y, np.sqrt(10.0) * ch.H @ ch.T @ e,
                                   atol=1e-12)

    def test_noise_covariance(self):
        cfg = SystemConfig(beta=1.0, power_mallory=0.0, noise_var_bob=2.0)
        ch = realize_channels(cfg, 2)
        cb = build_codebook(8, 4)
        ys = receive_bob(cb, np.zeros(10_000, dtype=int), ch, cfg,
                         derive_rng(1, 9, 7))
        w = ys - ys.mean(axis=0)
        cov = (w.conj().T @ w) / len(w)
        np.testing.assert_allclose(cov, 2.0 * np.eye(6),
                                   atol=0.05 * 2.0 * np.sqrt(6))

    def test_reproducible(self):
        cfg = SystemConfig()
        ch = realize_channels(cfg, 3)
        cb = build_codebook(8, 4)
        a = receive_bob(cb, [11], ch, cfg, derive_rng(5, 9, 8))
        b = receive_bob(cb, [11], ch, cfg, derive_rng(5, 9, 8))
        np.testing.assert_array_equal(a, b)
