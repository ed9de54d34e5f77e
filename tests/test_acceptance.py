"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them live)."""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from secsm import harness
from secsm.beamformers import Method, compute_beamformer
from secsm.channel import SystemConfig, crandn, realize_channels
from secsm.cli import main
from secsm.harness import (SweepSpec, default_config_text, emit_config,
                           parse_config, run_sweep)
from secsm.metrics import mutual_info_mc, sjnr
from secsm.numerics import (gen_max_eigvec, max_eigvec_hermitian,
                            null_space_basis, whitening_matrix)

from helpers import (bpsk_mi_quadrature, covariance, crandn_t,
                     noise_cov_bob, quotient, random_search_max_ratio,
                     rayleigh)

THREADS = min(4, os.cpu_count() or 1)

ORDERED = (Method.MAX_RP, Method.MAX_RP_ZFC, Method.MAX_WFRP,
           Method.MAX_SJNR)


def report(number, ok, text):
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {text}")
    assert ok, f"criterion {number} failed: {text}"


def sr_se(record):
    samples = np.asarray(record.sr_samples)
    return float(np.std(samples) / math.sqrt(len(samples)))


def allowances(lo, hi):
    """(paired, unpaired) slack for lo.avg_sr <= hi.avg_sr: twice the SE
    of the per-realization differences of the aligned sr_samples, which
    share every channel and draw, and twice the SE as if independent.
    The paired one is the bound; the other is reported beside it."""
    diff = np.subtract(hi.sr_samples, lo.sr_samples)
    paired = 2.0 * float(np.std(diff) / math.sqrt(len(diff)))
    return paired, 2.0 * math.hypot(sr_se(lo), sr_se(hi))


def ber_se(record):
    counts = record.trial_counts
    uses = counts["n_ber_uses"]
    bits = 5  # log2(32) for the default codebook
    mean_e = counts["n_bit_errors"] / uses
    var_e = max(counts["ber_squared_errors"] / uses - mean_e ** 2, 0.0)
    return math.sqrt(var_e / uses) / bits


@pytest.fixture(scope="module")
def sr_sweep():
    """Criteria 1 and 4: defaults, 500 realizations, n_noise=500,
    SNR in {-5, 0, 5} dB, P_M in {1, 10} W, all four methods."""
    cfg = SystemConfig()
    spec = SweepSpec(snr_grid_db=(-5.0, 0.0, 5.0), p_m_list=(1.0, 10.0),
                     methods=ORDERED, n_realizations=500, n_noise=500,
                     n_ber_trials=500)
    started = time.perf_counter()
    records = run_sweep(cfg, spec, threads=THREADS)
    elapsed = time.perf_counter() - started
    table = {(r.snr_db, r.p_m, r.method): r for r in records}
    return table, elapsed


@pytest.fixture(scope="module")
def ber_sweep():
    """Criterion 5: 10^5 detection trials per (SNR, method) point."""
    cfg = SystemConfig()
    spec = SweepSpec(snr_grid_db=(0.0, 5.0, 10.0), p_m_list=(1.0,),
                     methods=ORDERED, n_realizations=50, n_noise=2,
                     n_ber_trials=100_000)
    started = time.perf_counter()
    records = run_sweep(cfg, spec, threads=THREADS)
    elapsed = time.perf_counter() - started
    table = {(r.snr_db, r.method): r for r in records}
    return table, elapsed


def test_criterion_01_sr_method_ordering(sr_sweep):
    table, elapsed = sr_sweep
    ok = True
    notes = []
    allows = []
    for snr in (-5.0, 0.0, 5.0):
        recs = {m: table[snr, 1.0, m] for m in ORDERED}
        chain = (Method.MAX_RP, Method.MAX_RP_ZFC, Method.MAX_WFRP)
        for lo, hi in zip(chain, chain[1:]):
            allow, unpaired = allowances(recs[lo], recs[hi])
            allows.append(f"{lo.value[4:]}<={hi.value[4:]}@{snr:+.0f}dB "
                          f"{allow:.4f}/{unpaired:.4f}")
            if not recs[lo].avg_sr <= recs[hi].avg_sr + allow:
                ok = False
                notes.append(f"{lo.value}>{hi.value}@{snr:+.0f}dB")
        twin_gap = abs(recs[Method.MAX_WFRP].avg_sr
                       - recs[Method.MAX_SJNR].avg_sr)
        if twin_gap > 0.05:
            ok = False
            notes.append(f"wfrp/sjnr gap {twin_gap:.3f}@{snr:+.0f}dB")
    summary = " ".join(
        f"{snr:+.0f}dB:" + "/".join(f"{table[snr, 1.0, m].avg_sr:.3f}"
                                    for m in ORDERED)
        for snr in (-5.0, 0.0, 5.0))
    report(1, ok, f"SR ordering rp<=zfc<=wfrp~sjnr ({summary}; "
                  f"paired/unpaired allowances {', '.join(allows)}; "
                  f"{elapsed:.0f}s)" + (" " + ";".join(notes) if notes else ""))


def test_criterion_02_wfrp_sjnr_equivalence():
    cfg = SystemConfig()
    started = time.perf_counter()
    worst = 0.0
    for r in range(1000):
        ch = realize_channels(cfg, r)
        a = sjnr(compute_beamformer(Method.MAX_WFRP, ch, cfg).u, ch, cfg)
        b = sjnr(compute_beamformer(Method.MAX_SJNR, ch, cfg).u, ch, cfg)
        worst = max(worst, abs(a - b) / a)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 10.0
    report(2, ok, f"max-wfrp == max-sjnr achieved SJNR on 1000 "
                  f"realizations (worst rel diff {worst:.2e}, "
                  f"{elapsed:.1f}s)")


def test_criterion_03_zero_forcing_constraint():
    cfg = SystemConfig(n_mallory=4)
    worst = 0.0
    for r in range(1000):
        ch = realize_channels(cfg, r)
        bf = compute_beamformer(Method.MAX_RP_ZFC, ch, cfg)
        jam = ch.F @ ch.P_JM
        worst = max(worst, float(np.linalg.norm(bf.u.conj() @ jam)
                                 / np.linalg.norm(jam)))
    ok = worst <= 1e-10
    report(3, ok, f"ZF residual <= 1e-10 on 1000 feasible instances "
                  f"(worst {worst:.2e})")


def test_criterion_04_high_jamming_degradation(sr_sweep):
    table, _ = sr_sweep
    ok = True
    notes = []
    for snr in (-5.0, 0.0, 5.0):
        rp1 = table[snr, 1.0, Method.MAX_RP]
        rp10 = table[snr, 10.0, Method.MAX_RP]
        sj1 = table[snr, 1.0, Method.MAX_SJNR]
        sj10 = table[snr, 10.0, Method.MAX_SJNR]
        allow, unpaired = allowances(rp10, rp1)
        if not rp10.avg_sr <= rp1.avg_sr + allow:
            ok = False
            notes.append(f"max_rp not degraded@{snr:+.0f}dB")
        gap_rp = rp1.avg_sr - rp10.avg_sr
        gap_sj = sj1.avg_sr - sj10.avg_sr
        if not gap_sj < gap_rp:
            ok = False
            notes.append(f"gap order@{snr:+.0f}dB")
        notes.append(f"{snr:+.0f}dB:rp {gap_rp:+.3f}/sjnr {gap_sj:+.3f} "
                     f"allow {allow:.4f}/{unpaired:.4f}")
    report(4, ok, "P_M 1W->10W SR loss, max_rp vs max_sjnr "
                  f"({'; '.join(notes)})")


def test_criterion_05_ber_ordering_and_monotonicity(ber_sweep):
    table, elapsed = ber_sweep
    ok = elapsed <= 900.0
    notes = []
    snrs = (0.0, 5.0, 10.0)
    for method in ORDERED:
        rates = [table[snr, method].ber for snr in snrs]
        ses = [ber_se(table[snr, method]) for snr in snrs]
        for k in range(len(rates) - 1):
            if not rates[k + 1] <= rates[k] + 2 * math.hypot(ses[k],
                                                             ses[k + 1]):
                ok = False
                notes.append(f"{method.value} not monotone@{snrs[k]:g}dB")
    for snr in snrs:
        pairs = ((Method.MAX_WFRP, Method.MAX_RP),
                 (Method.MAX_SJNR, Method.MAX_RP_ZFC))
        for better, worse in pairs:
            b, w = table[snr, better], table[snr, worse]
            allow = 2 * math.hypot(ber_se(b), ber_se(w))
            if not b.ber <= w.ber + allow:
                ok = False
                notes.append(f"{better.value}>{worse.value}@{snr:g}dB")
    summary = " ".join(
        f"{snr:g}dB:" + "/".join(f"{table[snr, m].ber:.4f}" for m in ORDERED)
        for snr in snrs)
    report(5, ok, f"BER monotone + wfrp<=rp, sjnr<=zfc at 1e5 trials "
                  f"({summary}; {elapsed:.0f}s)"
                  + (" " + ";".join(notes) if notes else ""))


def test_criterion_06_oracle_equivalence_small():
    cfg = SystemConfig(n_tx=4, n_rx=3, n_mallory=2)
    rng = np.random.default_rng(606)
    worst = 0.0
    for r in range(50):
        ch = realize_channels(cfg, r)
        HT = ch.H @ ch.T
        S = HT @ HT.conj().T
        R_w = noise_cov_bob(ch, cfg)
        eye = np.eye(3)
        scale = cfg.beta * cfg.power / cfg.n_active
        sigma_w = float(np.real(np.trace(R_w))) / cfg.n_rx
        searches = {
            Method.MAX_RP: (S, eye, None,
                            cfg.beta * cfg.power / (sigma_w * cfg.n_active)),
            Method.MAX_WFRP: (scale * S, R_w, None, 1.0),
            Method.MAX_RP_ZFC: (S, eye,
                                null_space_basis(ch.F @ ch.P_JM), scale),
            Method.MAX_SJNR: (scale * S, R_w, None, 1.0),
        }
        for method, (num, den, basis, factor) in searches.items():
            bf = compute_beamformer(method, ch, cfg)
            best = factor * random_search_max_ratio(
                num, den, rng, n_samples=100_000, basis=basis,
                refine=False)
            achieved = factor * quotient(num, den, bf.u)
            shortfall = (best - achieved) / max(best, 1e-30)
            worst = max(worst, shortfall)
    ok = worst <= 1e-6
    report(6, ok, f"closed forms >= 1e5-sample search on 50 N_b=3 "
                  f"instances (worst shortfall {worst:.2e})")


def test_criterion_07_numerics_suite():
    rng = np.random.default_rng(707)
    ok = True
    worst_wh = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        V = crandn_t(rng, n, n)
        noise_var = float(rng.uniform(0.05, 1.0))
        R = covariance(V, noise_var)
        W = whitening_matrix(V, noise_var)
        worst_wh = max(worst_wh, float(np.max(np.abs(
            W @ R @ W.conj().T - np.eye(n)))))
    ok &= worst_wh <= 1e-9
    worst_eig = 0.0
    for _ in range(25):
        A = crandn_t(rng, 6, 6)
        A = A @ A.conj().T
        v1 = max_eigvec_hermitian(A)
        v2 = gen_max_eigvec(A, np.zeros((6, 1)), 1.0)
        lam1, lam2 = rayleigh(A, v1), rayleigh(A, v2)
        worst_eig = max(worst_eig, abs(lam1 - lam2) / max(1.0, lam1),
                        1.0 - abs(v1.conj() @ v2))
    ok &= worst_eig <= 1e-10
    cfg = SystemConfig()
    bounds_ok = True
    for r in range(5):
        ch = realize_channels(cfg, r)
        for nv in (1e-9, 1.0, 1e9):
            point = replace(cfg, noise_var_bob=nv, noise_var_eve=nv)
            u = crandn(rng, 6)
            u /= np.linalg.norm(u)
            bits = mutual_info_mc(u, "bob", ch, point, 100)
            bounds_ok &= 0.0 <= bits <= 5.0
    ok &= bounds_ok
    report(7, ok, f"whitening identity (worst {worst_wh:.2e}), "
                  f"generalized-vs-plain eig (worst {worst_eig:.2e}), "
                  f"MI within [0, 5] bits: {bounds_ok}")


def test_criterion_08_mi_estimator_vs_quadrature():
    from test_metrics import scalar_cfg, scalar_channel_set
    ch = scalar_channel_set()
    u = np.array([1.0 + 0j])
    worst = 0.0
    for snr_db in (-5.0, 0.0, 5.0, 10.0):
        noise_var = 10.0 ** (-snr_db / 10.0)
        cfg = scalar_cfg(noise_var)
        mc = mutual_info_mc(u, "bob", ch, cfg, 20_000)
        exact = bpsk_mi_quadrature(2.0 * math.sqrt(cfg.power / noise_var))
        worst = max(worst, abs(mc - exact))
    # the Gauss-Hermite rule at 20,000 nodes per entry, one 200 x 200
    # grid per antenna, errs by at most 5.9e-10 bits over these SNRs and
    # -10, 15, 20, 25 and 30 dB (at 5 and 10 dB here)
    ok = worst <= 1.8e-9
    report(8, ok, f"BPSK MI matches 1-D quadrature at 4 SNRs "
                  f"(worst |err| {worst:.2e} bits)")


def test_criterion_09_decomposition_counts(monkeypatch):
    # the decompositions one realization runs: as many for one SNR as
    # for three, and at most one more SVD per extra jamming power
    counts = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, counting(
            name, getattr(np.linalg, name)))
    runs = {}
    for snrs, p_ms in (((0.0,), (1.0,)), ((-5.0, 0.0, 5.0), (1.0,)),
                       ((0.0,), (1.0, 10.0)), ((-5.0, 0.0, 5.0),
                                               (1.0, 10.0, 100.0))):
        counts.update(svd=0, eigh=0)
        harness._realization_task(SystemConfig(seed=9), SweepSpec(
            snr_grid_db=snrs, p_m_list=p_ms, methods=ORDERED,
            n_realizations=1, n_noise=4, n_ber_trials=1), range(1))
        runs[len(snrs), len(p_ms)] = dict(counts)
    ok = runs[1, 1] == runs[3, 1]
    ok &= runs[1, 2]["svd"] <= runs[1, 1]["svd"] + 1
    ok &= runs[3, 3]["svd"] <= runs[3, 1]["svd"] + 2
    report(9, ok, f"SVD and eigh calls per realization by (SNRs, P_Ms) "
                  f"{runs}")


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch):
    # two processes even on a 1-CPU host
    monkeypatch.setattr(harness, "_cpus", lambda: 2)
    cfg = SystemConfig(seed=10)
    spec = SweepSpec(snr_grid_db=(-5.0, 5.0), p_m_list=(1.0,),
                     methods=ORDERED, n_realizations=8, n_noise=50,
                     n_ber_trials=160)
    config_path = tmp_path / "det.cfg"
    config_path.write_text(emit_config(cfg, spec))
    outs = []
    for threads, name in ((1, "one"), (2, "two")):
        out = tmp_path / name
        assert main(["--config", str(config_path), "--out", str(out),
                     "--threads", str(threads)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    ok = names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        ok &= (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report(10, ok, f"byte-identical outputs for --threads 1 vs 2 "
                   f"({', '.join(names)})")


def paired_z(diff):
    """Mean of per-realization differences over their standard error;
    identical samples score 0."""
    diff = np.asarray(diff)
    mean = float(np.mean(diff))
    se = float(np.std(diff)) / math.sqrt(len(diff))
    if se > 0.0:
        return mean / se
    return 0.0 if mean == 0.0 else math.copysign(math.inf, mean)


def test_criterion_11_low_snr_gain(sr_sweep):
    # The abstract: max_wfrp and max_sjnr gain substantially over max_rp
    # and max_rp_zfc at low and medium SNR. Judged on the per-realization
    # differences of the aligned sr_samples: the gain's paired z at -5
    # and 0 dB, and the fall of the gain from one SNR to the next. The
    # fall is that of the gain over max_rp_zfc, the stronger baseline
    # (criterion 1); the gain over max_rp, which never suppresses the
    # jamming, grows over -5/0/5 dB.
    table, _ = sr_sweep
    threshold = 4.0
    ok = True
    notes = []
    snrs = (-5.0, 0.0, 5.0)
    for p_m in (1.0, 10.0):
        for hi in (Method.MAX_WFRP, Method.MAX_SJNR):
            for lo in (Method.MAX_RP, Method.MAX_RP_ZFC):
                gains = [np.subtract(table[snr, p_m, hi].sr_samples,
                                     table[snr, p_m, lo].sr_samples)
                         for snr in snrs]
                zs = [paired_z(g) for g in gains[:2]]
                if min(zs) <= threshold:
                    ok = False
                    notes.append(f"{hi.value}/{lo.value}@{p_m:g}W")
                text = (f"{hi.value[4:]}-{lo.value[4:]}@{p_m:g}W "
                        + "/".join(f"{np.mean(g):.4f}" for g in gains)
                        + " z " + "/".join(f"{z:.1f}" for z in zs))
                if lo is Method.MAX_RP_ZFC:
                    falls = [paired_z(a - b)
                             for a, b in zip(gains, gains[1:])]
                    if min(falls) <= threshold:
                        ok = False
                        notes.append(f"no fall {hi.value}@{p_m:g}W")
                    text += " fall z " + "/".join(f"{z:.1f}" for z in falls)
                notes.append(text)
    report(11, ok, f"gain over rp and zfc at -5/0 dB, paired z > "
                   f"{threshold:g}, falling over -5/0/5 dB "
                   f"({'; '.join(notes)})")


def test_criterion_12_zero_forcing_crossover():
    # Where the ordering max_rp <= max_rp_zfc holds. Zero-forcing spends
    # one of Bob's receive dimensions on the jamming stream, which at a
    # low jamming-to-noise ratio is worth more than the jamming it
    # removes: at P_M 1 W max_rp_zfc trails max_rp at -14 dB and leads
    # it at -8 dB, the crossover lying in between. At P_M 10 W it still
    # leads at -14 dB. Judged on the paired z of the per-realization
    # differences, max_rp_zfc minus max_rp.
    spec = SweepSpec(snr_grid_db=(-14.0, -8.0), p_m_list=(1.0, 10.0),
                     methods=(Method.MAX_RP, Method.MAX_RP_ZFC),
                     n_realizations=400, n_noise=500, n_ber_trials=400)
    started = time.perf_counter()
    records = run_sweep(SystemConfig(), spec, threads=THREADS)
    elapsed = time.perf_counter() - started
    table = {(r.snr_db, r.p_m, r.method): r for r in records}
    threshold = 4.0
    # (SNR, P_M, sign of the gain)
    sides = ((-14.0, 1.0, -1.0), (-8.0, 1.0, 1.0), (-14.0, 10.0, 1.0))
    ok = True
    notes = []
    for snr, p_m, sign in sides:
        gain = np.subtract(table[snr, p_m, Method.MAX_RP_ZFC].sr_samples,
                           table[snr, p_m, Method.MAX_RP].sr_samples)
        z = paired_z(gain)
        ok &= sign * z > threshold
        notes.append(f"{snr:+.0f}dB@{p_m:g}W {np.mean(gain):+.4f} "
                     f"z {z:+.1f}")
    report(12, ok, f"zfc-rp crossover between -14 and -8 dB at 1 W, "
                   f"above -14 dB at 10 W, paired |z| > {threshold:g} "
                   f"({'; '.join(notes)}; {elapsed:.1f}s)")
