"""Configuration parsing, sweep bookkeeping/determinism and file export."""

import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from collections import Counter
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secsm import harness, metrics
from secsm.beamformers import Method
from secsm.channel import AN_MODES, SystemConfig
from secsm.cli import main
from secsm.harness import (ConfigError, SweepSpec, default_config_text,
                           emit_config, parse_config, run_sweep,
                           snr_to_noise_var, write_outputs)

from helpers import realization_reference

# the methods that read nothing of the operating point (SNR, P_M)
POINT_FREE = (Method.MAX_RP, Method.MAX_RP_ZFC)


def line_of(text, key):
    """1-based line number of `key = ...` in a configuration document."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.partition("=")[0].strip() == key:
            return lineno
    raise KeyError(key)


def set_key(text, key, value):
    """The document with `key`'s value replaced."""
    return "\n".join(f"{key} = {value}" if line.startswith(f"{key} =")
                     else line for line in text.splitlines()) + "\n"


def tiny_spec(**kw):
    kw.setdefault("snr_grid_db", (0.0,))
    kw.setdefault("p_m_list", (1.0,))
    kw.setdefault("methods", (Method.MAX_RP,))
    kw.setdefault("n_realizations", 4)
    kw.setdefault("n_noise", 40)
    kw.setdefault("n_ber_trials", 80)
    return SweepSpec(**kw)


class TestParseConfig:
    def test_default_document(self):
        cfg, spec = parse_config(default_config_text())
        assert cfg == SystemConfig()
        assert spec == SweepSpec()
        assert (cfg.n_tx, cfg.n_active, cfg.n_rx) == (8, 8, 6)
        assert (cfg.power, cfg.mod_order, cfg.beta, cfg.seed) == \
            (10.0, 4, 0.5, 1)

    def test_round_trip(self):
        cfg = SystemConfig(n_tx=12, beta=0.25, seed=9)
        spec = tiny_spec(snr_grid_db=(-5.0, 2.5), p_m_list=(1.0, 10.0))
        cfg2, spec2 = parse_config(emit_config(cfg, spec))
        assert cfg2 == cfg
        assert spec2 == spec
        # the operating point is not in the document; a sweep sets it
        point = replace(cfg, power_mallory=5.0, noise_var_bob=0.1,
                        noise_var_eve=0.2)
        assert parse_config(emit_config(point, spec)) == (cfg, spec)

    def test_document_keys(self):
        keys = [line.partition("=")[0].strip()
                for line in default_config_text().splitlines()
                if "=" in line]
        assert keys == list(harness._SCHEMA)
        assert len(keys) == 15

    def test_range_error_names_key_and_line(self):
        text = default_config_text().replace("beta = 0.5", "beta = 1.5")
        with pytest.raises(ConfigError, match="beta") as info:
            parse_config(text)
        assert info.value.key == "beta"
        assert info.value.line is not None

    @pytest.mark.parametrize("key, value, message", [
        ("power", "-1", "non-negative"),
        ("power", "1e301", "at most 1e300"),
        ("seed", "-1", "non-negative"),
        ("mod_order", "1", "at least 2"),
        ("n_tx", "0", "at least 1"),
        ("n_rx", "0", "at least 1"),
        ("n_realizations", "0", "at least 1"),
        ("n_noise", "0", "at least 1"),
        ("n_ber_trials", "0", "at least 1"),
        ("an_mode", "bogus", "must be one of"),
        ("output_dir", "", "non-empty"),
    ], ids=["power", "power-bound", "seed", "mod_order", "n_tx", "n_rx",
            "n_realizations", "n_noise", "n_ber_trials", "an_mode",
            "output_dir"])
    def test_range_error_names_exact_key(self, key, value, message):
        # the key comes from the constraint message, the line from the key
        text = set_key(default_config_text(), key, value)
        with pytest.raises(ConfigError, match=message) as info:
            parse_config(text)
        assert info.value.key == key
        assert info.value.line == line_of(text, key)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["power", "beta", "snr_grid_db",
                                     "p_m_list"])
    def test_non_finite_rejected(self, key, value):
        text = set_key(default_config_text(), key, f"1.0, {value}"
                       if key in ("snr_grid_db", "p_m_list") else value)
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.key == key
        assert info.value.line == line_of(text, key)

    @pytest.mark.parametrize("key,value", [
        ("snr_grid_db", "0, -0"), ("snr_grid_db", "-5, 5, -5.0"),
        ("p_m_list", "1, 10, 1.0"),
        ("methods", "max_rp, max_sjnr, max_rp")])
    def test_repeated_value_rejected(self, key, value):
        # one grid cell must not produce two rows or merge two CDFs
        text = set_key(default_config_text(), key, value)
        with pytest.raises(ConfigError, match="repeat") as info:
            parse_config(text)
        assert info.value.key == key
        assert info.value.line == line_of(text, key)

    @pytest.mark.parametrize("value,ok", [("1e300", True), ("1e301", False)])
    def test_jamming_power_bound(self, value, ok):
        # 1e308 W overflows the interference power; 1e300 is the bound
        text = set_key(default_config_text(), "p_m_list", f"1, {value}")
        if ok:
            assert parse_config(text)[1].p_m_list == (1.0, float(value))
            return
        with pytest.raises(ConfigError, match="1e300") as info:
            parse_config(text)
        assert info.value.key == "p_m_list"
        assert info.value.line == line_of(text, "p_m_list")

    @pytest.mark.parametrize("beta,edge", [("0.5", 2993), ("1.0", 2990)])
    def test_signal_to_noise_bound(self, beta, edge):
        # beta * power * 10^(snr/10) above 1e300 overflows the whitened
        # codebook distances; power = 10 W
        text = set_key(default_config_text(), "beta", beta)
        ok = set_key(text, "snr_grid_db", f"0, {edge}")
        assert parse_config(ok)[1].snr_grid_db == (0.0, float(edge))
        bad = set_key(text, "snr_grid_db", f"0, {edge + 1}")
        with pytest.raises(ConfigError, match="1e300") as info:
            parse_config(bad)
        assert info.value.key == "snr_grid_db"
        assert info.value.line == line_of(bad, "snr_grid_db")
        # without a transmitted signal there is nothing to overflow
        no_signal = set_key(bad, "power", "0.0")
        assert parse_config(no_signal)[1].snr_grid_db[1] == edge + 1

    def test_nullspace_an_needs_fewer_rx_than_active(self):
        for n_rx in (8, 9):
            text = default_config_text().replace("n_rx = 6", f"n_rx = {n_rx}")
            with pytest.raises(ConfigError, match="n_active") as info:
                parse_config(text)
            assert info.value.key == "n_rx"
            assert info.value.line == line_of(text, "n_rx")
        cfg, spec = parse_config(text.replace("an_mode = nullspace",
                                              "an_mode = random"))
        assert (cfg.n_rx, spec.an_mode) == (9, "random")

    def test_zfc_needs_n_mallory_at_most_n_rx(self):
        # six jamming streams fill Bob's 6 receive dimensions
        text = set_key(default_config_text(), "n_mallory", "7")
        with pytest.raises(ConfigError,
                           match="n_mallory - 1 = 6 .*n_rx = 6") as info:
            parse_config(text)
        assert info.value.key == "methods"
        assert info.value.line == line_of(text, "methods")
        # n_mallory = n_rx leaves one receive dimension to zero-force in
        six = set_key(default_config_text(), "n_mallory", "6")
        assert parse_config(six)[0].n_mallory == 6
        # and without max_rp_zfc there is no bound
        cfg, spec = parse_config(set_key(text, "methods", "max_rp, max_sjnr"))
        assert (cfg.n_mallory, len(spec.methods)) == (7, 2)

    def test_single_antenna_attacker_rejected(self):
        text = default_config_text().replace("n_mallory = 2",
                                             "n_mallory = 1")
        with pytest.raises(ConfigError, match="at least 2") as info:
            parse_config(text)
        assert info.value.key == "n_mallory"
        assert info.value.line == line_of(text, "n_mallory")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(default_config_text() + "bogus = 1\n")
        # n_active is derived from n_tx; the operating point is set per
        # grid point; the AN and jamming entry variances are fixed at 1
        text = default_config_text()
        for key in ("n_active", "power_mallory", "noise_var_bob",
                    "noise_var_eve", "an_var", "jam_var"):
            with pytest.raises(ConfigError, match="unknown key") as info:
                parse_config(text + f"{key} = 1.0\n")
            assert info.value.key == key
            assert info.value.line == len(text.splitlines()) + 1

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(default_config_text() + "seed = 2\n")

    def test_missing_key(self):
        text = "\n".join(line for line in
                         default_config_text().splitlines()
                         if not line.startswith("seed"))
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config(text)

    def test_type_error_with_line(self):
        text = default_config_text().replace("seed = 1", "seed = zebra")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(text)

    def test_unknown_method(self):
        text = default_config_text().replace(
            "methods = max_rp, max_wfrp, max_rp_zfc, max_sjnr",
            "methods = max_rp, max_zf")
        with pytest.raises(ConfigError, match="max_zf"):
            parse_config(text)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        nonneg = st.floats(0.0, 1e300)
        an_mode = data.draw(st.sampled_from(AN_MODES))
        nullspace = an_mode == "nullspace"
        # null-space AN needs n_rx < n_active, so at least 2 TX antennas
        n_tx = data.draw(st.integers(2 if nullspace else 1, 64))
        max_rx = SystemConfig(n_tx=n_tx).n_active - 1 if nullspace else 64
        n_rx = data.draw(st.integers(1, max_rx))
        # max_rp_zfc needs n_mallory <= n_rx, so at least 2 RX antennas
        choices = [m for m in Method
                   if n_rx > 1 or m is not Method.MAX_RP_ZFC]
        methods = tuple(data.draw(st.lists(
            st.sampled_from(choices), min_size=1, max_size=len(choices),
            unique=True)))
        cfg = SystemConfig(
            n_tx=n_tx, n_rx=n_rx,
            n_mallory=data.draw(st.integers(
                2, n_rx if Method.MAX_RP_ZFC in methods else 16)),
            power=data.draw(nonneg),
            beta=data.draw(st.floats(0.0, 1.0)),
            mod_order=1 << data.draw(st.integers(1, 8)),
            seed=data.draw(st.integers(0, 2 ** 63)))
        # grid values and methods may not repeat (0.0 and -0.0 are one);
        # 10^(-snr/10) must stay finite and positive, P_M at most 1e300;
        # beta * power * 10^(snr/10) at most 1e300, with a 1 dB margin
        # that keeps rounding at the bound out of the draw
        signal = cfg.beta * cfg.power
        max_snr = (min(3000.0, 10.0 * (300.0 - math.log10(signal)) - 1.0)
                   if signal > 0.0 else 3000.0)
        spec = SweepSpec(
            snr_grid_db=tuple(data.draw(st.lists(
                st.floats(-3000.0, max_snr), min_size=1, max_size=5,
                unique=True))),
            p_m_list=tuple(data.draw(st.lists(
                st.floats(0.0, 1e300), min_size=1, max_size=5,
                unique=True))),
            methods=methods,
            n_realizations=data.draw(st.integers(1, 10 ** 6)),
            n_noise=data.draw(st.integers(1, 10 ** 6)),
            n_ber_trials=data.draw(st.integers(1, 10 ** 9)),
            an_mode=an_mode,
            output_dir=data.draw(st.text(
                "abcXYZ019_-./ ", min_size=1).map(str.strip)
                .filter(bool)))
        assert parse_config(emit_config(cfg, spec)) == (cfg, spec)

    def test_comments_and_blanks(self):
        text = default_config_text() + "\n# trailing comment\n\n"
        cfg, _ = parse_config(text)
        assert cfg == SystemConfig()

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just some words\n")

    def test_snr_convention(self):
        assert snr_to_noise_var(0.0) == pytest.approx(1.0)
        assert snr_to_noise_var(10.0) == pytest.approx(0.1)
        assert snr_to_noise_var(-10.0) == pytest.approx(10.0)


class TestRunSweep:
    def test_single_point_bookkeeping(self):
        cfg = SystemConfig()
        spec = tiny_spec(n_realizations=1, n_ber_trials=7)
        records = run_sweep(cfg, spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.method is Method.MAX_RP
        assert rec.trial_counts["n_realizations"] == 1
        assert rec.trial_counts["n_zfc_infeasible"] == 0
        assert rec.trial_counts["n_ber_uses"] == 7
        assert len(rec.sr_samples) == 1
        assert 0.0 <= rec.avg_sr <= 5.0
        assert 0.0 <= rec.ber <= 1.0

    def test_deterministic_given_seed(self):
        cfg = SystemConfig(seed=3)
        spec = tiny_spec(methods=(Method.MAX_RP, Method.MAX_SJNR))
        a = run_sweep(cfg, spec)
        b = run_sweep(cfg, spec)
        for ra, rb in zip(a, b):
            assert ra.sr_samples == rb.sr_samples
            assert ra.avg_sr == rb.avg_sr
            assert ra.ber == rb.ber
            assert ra.avg_sjnr_db == rb.avg_sjnr_db
            assert ra.trial_counts == rb.trial_counts

    def test_parallel_matches_serial(self, monkeypatch):
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        cfg = SystemConfig(seed=4)
        spec = tiny_spec(n_realizations=6,
                         methods=(Method.MAX_RP, Method.MAX_WFRP))
        serial = run_sweep(cfg, spec, threads=1)
        parallel = run_sweep(cfg, spec, threads=3)
        for ra, rb in zip(serial, parallel):
            assert ra.sr_samples == rb.sr_samples
            assert ra.trial_counts == rb.trial_counts

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """A fake pool that records its size and runs each realization
        at submit. Each of its realizations is done before this process
        steps again, so it takes every realization. Returns the list of
        sizes asked for."""
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            SerialPool)
        return asked

    def test_pool_holds_two_realizations_per_worker(self, monkeypatch):
        # a fake pool whose realizations stay pending until it is left
        submitted = []

        class PendingPool:
            def __init__(self, max_workers):
                self.tasks = []

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                for future, fn, args in self.tasks:
                    future.set_result(fn(*args))
                return False

            def submit(self, fn, *args):
                submitted.append(args[-1])
                self.tasks.append((Future(), fn, args))
                return self.tasks[-1][0]

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            PendingPool)
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        # a budget below one realization: one realization per range
        monkeypatch.setattr(harness, "RANGE_BYTES", 1)
        cfg, spec = SystemConfig(seed=4), tiny_spec(n_realizations=10)
        pooled = run_sweep(cfg, spec, threads=3)
        # two workers, each with one realization running and one queued;
        # this process runs the other six
        assert submitted == [range(9, 10), range(8, 9), range(7, 8),
                             range(6, 7)]
        assert pooled == run_sweep(cfg, spec, threads=1)

    @pytest.mark.parametrize("n, budget, workers, sizes", [
        (6, 9 * 13_824, 1, [6]), (6, 9 * 13_824, 2, [3, 3]),
        (6, 9 * 13_824, 3, [2, 2, 2]), (6, 3 * 13_824, 1, [3, 3]),
        (6, 4 * 13_824, 2, [3, 3]), (6, 2 * 13_824, 2, [1, 2, 1, 2]),
        (7, 9 * 13_824, 2, [3, 4]), (3, 1, 2, [1, 1, 1]),
        (1, 9 * 13_824, 2, [1]), (10, 9 * 13_824 - 1, 1, [5, 5]),
    ])
    def test_ranges_fit_the_budget(self, monkeypatch, n, budget, workers,
                                   sizes):
        # the benchmark's 3 SNR x 2 P_M x 4 method grid: 27 channels of 32
        # complex outputs, 13,824 bytes a realization
        monkeypatch.setattr(harness, "RANGE_BYTES", budget)
        spec = tiny_spec(snr_grid_db=(-5.0, 0.0, 5.0), p_m_list=(1.0, 10.0),
                         methods=tuple(Method), n_realizations=n)
        ranges = harness._ranges(SystemConfig(), spec, workers)
        assert [len(r) for r in ranges] == sizes
        assert [k for r in ranges for k in r] == list(range(n))

    def test_processes_split_ranges_evenly(self, monkeypatch, serial_pool):
        # the fake pool finishes each range at submit, so only the rule
        # that this process runs the last range left keeps its share
        submitted = []
        real = harness._realization_task

        def task(cfg, spec, rs):
            submitted.append(rs)
            return real(cfg, spec, rs)

        monkeypatch.setattr(harness, "_realization_task", task)
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        spec = tiny_spec(n_realizations=6)
        for threads, order in ((2, [range(3, 6), range(0, 3)]),
                               (3, [range(4, 6), range(2, 4), range(0, 2)])):
            submitted.clear()
            run_sweep(SystemConfig(seed=4), spec, threads=threads)
            # the pool takes the tail ranges, this process the head one
            assert submitted == order

    def test_pool_capped_at_realizations(self, monkeypatch, serial_pool):
        monkeypatch.setattr(harness, "_cpus", lambda: 64)
        cfg = SystemConfig(seed=4)
        spec = tiny_spec(n_realizations=3)
        capped = run_sweep(cfg, spec, threads=64)
        assert serial_pool == [2]  # three processes: this one and two
        assert capped == run_sweep(cfg, spec, threads=1)
        run_sweep(cfg, tiny_spec(n_realizations=1), threads=64)
        assert serial_pool == [2]  # one realization starts no pool

    def test_pool_capped_at_cpus(self, monkeypatch, serial_pool):
        # without the CPU cap this would fork 39 workers; the fake pool
        # keeps any real process from starting at an extreme value
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        cfg = SystemConfig(seed=4)
        spec = tiny_spec(n_realizations=40)
        capped = run_sweep(cfg, spec, threads=10_000)
        assert serial_pool == [1]  # two processes: this one and one worker
        assert capped == run_sweep(cfg, spec, threads=1)

    def test_cpus_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert harness._cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert harness._cpus() == 1

    def test_this_process_computes_realizations(self, monkeypatch, tmp_path):
        real = harness.realize_channels

        def recorded(cfg, index, an_mode):
            (tmp_path / str(index)).write_text(str(os.getpid()))
            return real(cfg, index, an_mode=an_mode)

        # the pool pickles _realization_task by reference, and the task
        # looks realize_channels up, so the fork inherits this patch; a
        # 1-CPU host still gets a pool
        monkeypatch.setattr(harness, "realize_channels", recorded)
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        cfg, spec = SystemConfig(seed=4), tiny_spec(n_realizations=8)
        pooled = run_sweep(cfg, spec, threads=2)
        pids = {int(path.name): path.read_text()
                for path in tmp_path.iterdir()}
        assert len(pids) == 8 and len(set(pids.values())) == 2
        # this process runs from the head, the worker from the tail
        assert pids[0] == str(os.getpid()) != pids[7]
        assert pooled == run_sweep(cfg, spec, threads=1)

    @pytest.mark.parametrize("failing, error", [
        (39, RuntimeError), (0, RuntimeError), (0, KeyboardInterrupt),
    ], ids=["worker", "this-process", "interrupt"])
    def test_failure_ends_the_sweep(self, monkeypatch, tmp_path, failing,
                                    error):
        # 40 realizations on 2 processes, 0.08 s each and one a range:
        # the worker takes 39 downwards, this process 0 onwards
        monkeypatch.setattr(harness, "RANGE_BYTES", 1)
        parent = os.getpid()
        real = harness.realize_channels

        def realize(cfg, index, an_mode):
            (tmp_path / str(index)).touch()
            if index == failing:
                raise error(f"realization {index}")
            # this process's time counts from the worker's first
            # realization, which in the worker case is the failure
            while os.getpid() == parent and not (tmp_path / "39").exists():
                time.sleep(0.005)
            time.sleep(0.08)
            return real(cfg, index, an_mode=an_mode)

        monkeypatch.setattr(harness, "realize_channels", realize)
        monkeypatch.setattr(harness, "_cpus", lambda: 2)
        with pytest.raises(error, match=f"realization {failing}"):
            run_sweep(SystemConfig(), tiny_spec(n_realizations=40),
                      threads=2)
        ran = {int(path.name) for path in tmp_path.iterdir()}
        # the pool holds 39 (running) and 38 (queued) and finishes both;
        # nothing else is submitted
        assert ran == {0, 38, 39}, sorted(ran)

    def test_serial_run_never_imports_the_pool(self):
        # a fresh interpreter: this one imported the pool long ago; nor
        # does anything in secsm log
        code = textwrap.dedent("""
            import sys
            from secsm import Method, SweepSpec, SystemConfig, run_sweep
            from secsm.harness import default_config_text, parse_config
            parse_config(default_config_text())
            spec = SweepSpec(snr_grid_db=(0.0,), methods=(Method.MAX_RP,),
                             n_realizations=2, n_noise=4, n_ber_trials=4)
            run_sweep(SystemConfig(), spec, threads=1)
            print(sorted({"multiprocessing", "concurrent.futures.process",
                          "logging"} & set(sys.modules)))
            """)
        src = str(Path(harness.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n", out.stderr

    def test_jamming_power_degrades_max_rp(self):
        cfg = SystemConfig(seed=5)
        spec = tiny_spec(p_m_list=(1.0, 10.0), n_realizations=60,
                         n_noise=150, snr_grid_db=(0.0,),
                         n_ber_trials=60)
        rec1, rec10 = run_sweep(cfg, spec)
        assert (rec1.p_m, rec10.p_m) == (1.0, 10.0)
        se = math.hypot(np.std(rec1.sr_samples) / math.sqrt(60),
                        np.std(rec10.sr_samples) / math.sqrt(60))
        assert rec10.avg_sr <= rec1.avg_sr + 2 * se

    def test_record_fields_are_builtin(self):
        # _fmt writes repr(value): a numpy scalar would print as
        # np.float64(...) under numpy 2
        cfg = SystemConfig(n_mallory=6, seed=6)
        spec = tiny_spec(snr_grid_db=(0.0, 10.0), p_m_list=(1.0, 4.0),
                         methods=tuple(Method), n_realizations=3)
        records = run_sweep(cfg, spec)
        assert len(records) == 16
        for rec in records:
            assert len(rec.sr_samples) == 3
            for value in (rec.snr_db, rec.p_m, rec.avg_sr, rec.ber,
                          rec.avg_sjnr_db, *rec.sr_samples):
                assert type(value) is float, (rec, value)
            for value in rec.trial_counts.values():
                assert type(value) is int, (rec, value)

    def test_records_independent_of_other_methods(self):
        # the stacked calls compute each row on its own, so a method's
        # records do not depend on which other methods the sweep runs
        cfg = SystemConfig(seed=6)
        spec = tiny_spec(snr_grid_db=(0.0, 10.0), p_m_list=(1.0, 4.0),
                         methods=tuple(Method), n_realizations=3)
        full = run_sweep(cfg, spec)
        others = tuple(m for m in Method if m is not Method.MAX_RP_ZFC)
        assert run_sweep(cfg, replace(spec, methods=others)) == [
            rec for rec in full if rec.method is not Method.MAX_RP_ZFC]

    def test_no_signal_power(self):
        # beta = 0 puts all of Alice's power into AN: Bob sees no signal
        spec = tiny_spec(snr_grid_db=(0.0, 10.0), methods=tuple(Method),
                         n_realizations=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = run_sweep(SystemConfig(beta=0.0), spec)
        assert len(records) == 8
        for rec in records:
            assert rec.avg_sjnr_db == -math.inf
            assert rec.avg_sr == 0.0

    @pytest.mark.parametrize("n_mallory", [2, 6])
    def test_realization_rates_match_single_calls(self, n_mallory):
        # n_mallory = 6: five jamming streams leave ZFC one dimension of C^6
        cfg = SystemConfig(n_mallory=n_mallory, seed=8)
        spec = tiny_spec(snr_grid_db=(0.0, 10.0), p_m_list=(1.0, 4.0),
                         methods=tuple(Method), n_realizations=3,
                         n_ber_trials=600)
        out = harness._realization_task(cfg, spec, range(2, 3))
        # 600 trials over 3 realizations: 200 each
        ref = realization_reference(cfg, spec, 2, 200)
        assert out.keys() == {"sr", "sjnr", "bit_errors", "squared_errors"}
        for key, values in out.items():
            assert values[0].tobytes() == ref[key].tobytes(), key
        # at every point some secrecy rate is above the hinge, so the
        # attacker's rate is checked; the tallies have errors to compare
        assert np.all(out["sr"].max(axis=-1) > 0.0)
        assert out["bit_errors"].sum() > 0

    # ber_trials: realizations 0 and 1's shares of n_ber_trials over
    # n_realizations = 4, the first realizations taking the remainder
    @pytest.mark.parametrize("cfg, spec, ber_trials", [
        (SystemConfig(seed=9), tiny_spec(methods=tuple(Method)), (20, 20)),
        (SystemConfig(seed=9),
         tiny_spec(snr_grid_db=(0.0, 10.0), p_m_list=(0.0, 1e300),
                   methods=tuple(Method)), (20, 20)),
        (SystemConfig(seed=4),
         tiny_spec(snr_grid_db=(-5.0, 0.0, 5.0), p_m_list=(1.0, 4.0),
                   methods=tuple(Method), an_mode="random",
                   n_ber_trials=81), (21, 20)),
        (SystemConfig(n_mallory=6, seed=5),
         tiny_spec(snr_grid_db=(5.0, -5.0), p_m_list=(10.0, 1.0),
                   methods=(Method.MAX_SJNR, Method.MAX_RP_ZFC,
                            Method.MAX_RP), n_ber_trials=82), (21, 21)),
        (SystemConfig(seed=6),
         tiny_spec(snr_grid_db=(0.0, 20.0), p_m_list=(1.0, 0.5),
                   methods=(Method.MAX_RP, Method.MAX_WFRP)), (20, 20)),
    ], ids=["one-point", "p_m-0-and-1e300", "random-an", "no-max_wfrp",
            "no-max_sjnr"])
    def test_realization_task_matches_per_point_reference(self, cfg, spec,
                                                          ber_trials):
        out = harness._realization_task(cfg, spec, range(2))
        for r in range(2):
            ref = realization_reference(cfg, spec, r, ber_trials[r])
            assert out.keys() == ref.keys()
            for key, values in out.items():
                assert values.dtype == ref[key].dtype, key
                assert values[r].tobytes() == ref[key].tobytes(), (key, r)

    @pytest.mark.parametrize("an_mode", AN_MODES)
    @pytest.mark.parametrize("p_m_list", [(1.0,), (1.0, 10.0)])
    @pytest.mark.parametrize("methods", [tuple(Method), POINT_FREE],
                             ids=["all", "point-free"])
    def test_range_equals_single_realizations(self, an_mode, p_m_list,
                                              methods):
        # 14 trials over 6 realizations: 3, 3, 2, 2, 2, 2, so the 4 + 2
        # split puts both trial counts in its first range
        cfg = SystemConfig(seed=12)
        spec = tiny_spec(snr_grid_db=(-5.0, 0.0, 5.0), p_m_list=p_m_list,
                         methods=methods, n_realizations=6, n_ber_trials=14,
                         an_mode=an_mode)
        whole = harness._realization_task(cfg, spec, range(6))
        for split in ([range(0, 4), range(4, 6)],
                      [range(k, k + 1) for k in range(6)]):
            parts = [harness._realization_task(cfg, spec, rs) for rs in split]
            for key, values in whole.items():
                assert values.shape == (6, 3, len(p_m_list), len(methods))
                joined = np.concatenate([p[key] for p in parts])
                assert values.tobytes() == joined.tobytes(), (key, split)

    def test_calls_per_range(self, monkeypatch):
        calls = Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key(*args) if callable(key) else key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(harness, "compute_beamformer", counting(
            lambda method, *args: Method(method), harness.compute_beamformer))
        for name in ("realize_channels", "derive_rng"):
            monkeypatch.setattr(harness, name, counting(
                name, getattr(harness, name)))
        for name in ("mutual_info", "mi_inner_mean", "channel_sjnr",
                     "_ber_counts", "_scalar_channels"):
            monkeypatch.setattr(metrics, name, counting(
                name, getattr(metrics, name)))
        for name in ("svd", "eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(
                name, getattr(np.linalg, name)))

        def run(snr_grid_db, p_m_list, methods=tuple(Method), rs=range(3),
                n_ber_trials=80, an_mode="nullspace"):
            calls.clear()
            harness._realization_task(SystemConfig(seed=9), tiny_spec(
                snr_grid_db=snr_grid_db, p_m_list=p_m_list, methods=methods,
                n_realizations=4, n_ber_trials=n_ber_trials,
                an_mode=an_mode), rs)
            return dict(calls)

        run((0.0,), (1.0,))  # caches the MI rule, which takes an eigvalsh
        grid = run((-5.0, 0.0, 5.0), (1.0, 4.0))
        # one build per method and range, whatever the grid and the range
        for counts in (run((0.0,), (1.0,)), run((0.0,), (1.0,), rs=range(1)),
                       grid, run((-5.0, 0.0, 5.0), (1.0, 4.0), rs=range(1))):
            assert {m: counts[m] for m in Method} == dict.fromkeys(Method, 1)
            assert {k: counts[k] for k in (
                "_scalar_channels", "channel_sjnr", "mutual_info",
                "_ber_counts", "eigvalsh")} == {
                "_scalar_channels": 2, "channel_sjnr": 1,
                "mutual_info": 1, "_ber_counts": 1, "eigvalsh": 1}
        # per realization: its draws (the AN null space and the jamming
        # precoder take an SVD each, the attacker's receive vector an
        # eigh) and one BER generator per (SNR, P_M); per range: the
        # stacked builds, an SVD of max_rp_zfc's constraint and of each
        # of the two interference factors, and an eigh per method
        assert {k: grid[k] for k in ("realize_channels", "derive_rng",
                                     "svd", "eigh")} == {
            "realize_channels": 3, "derive_rng": 18, "svd": 2 * 3 + 3,
            "eigh": 3 + 4}
        point_free = run((-5.0, 0.0, 5.0), (1.0, 4.0), POINT_FREE)
        assert point_free["svd"] == 2 * 3 + 1 and point_free["eigh"] == 3 + 2
        assert "eigvalsh" not in point_free
        # the MI kernel takes equal chunks of channels within half of
        # MI_BLOCK_BYTES of differences, 4 KiB a channel: 3 realizations
        # of 3 SNRs x 9 channels are 2 chunks, 3 of 1 x 5 channels are 1
        assert grid["mi_inner_mean"] == 2
        assert run((0.0,), (1.0,))["mi_inner_mean"] == 1
        random_an = run((-5.0, 0.0, 5.0), (1.0, 4.0), an_mode="random")
        assert random_an["svd"] == 3 + 3
        # 82 trials over 4 realizations: 21, 21, 20, 20, so a range across
        # the two counts takes one BER call for each
        assert run((0.0,), (1.0,), n_ber_trials=82)["_ber_counts"] == 2
        assert run((0.0,), (1.0,), rs=range(2),
                   n_ber_trials=82)["_ber_counts"] == 1

    @pytest.mark.parametrize("snr_db,p_m", [(140.0, 1.0), (60.0, 1e6),
                                             (20.0, 1e12)])
    def test_high_jamming_to_noise_points(self, snr_db, p_m):
        # a dense R_w with a relative eigenvalue floor aborted these legal
        # points; the factored model is exact at any noise variance > 0
        spec = tiny_spec(snr_grid_db=(snr_db,), p_m_list=(p_m,),
                         methods=tuple(Method), n_realizations=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            records = run_sweep(SystemConfig(), spec)
        for rec in records:
            assert all(math.isfinite(x)
                       for x in (rec.avg_sr, rec.ber, rec.avg_sjnr_db))
        ratio = {rec.method: 10.0 ** (rec.avg_sjnr_db / 10.0)
                 for rec in records}
        best = ratio[Method.MAX_SJNR]
        assert all(best >= r * (1.0 - 1e-9) for r in ratio.values())
        assert abs(ratio[Method.MAX_WFRP] - best) <= 1e-9 * best

    def test_range_edges_run_clean(self):
        # the largest legal SNR (beta * power * 10^(snr/10) <= 1e300) and
        # jamming power; beta = 1 has no AN to floor the noise power
        for cfg, snr_db in ((SystemConfig(), 2993.0),
                            (SystemConfig(beta=1.0), 2990.0)):
            spec = tiny_spec(snr_grid_db=(0.0, snr_db),
                             p_m_list=(0.0, 1e300), methods=tuple(Method),
                             n_realizations=2)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                records = run_sweep(cfg, spec)
            assert len(records) == 16
            for rec in records:
                assert all(math.isfinite(x)
                           for x in (rec.avg_sr, rec.ber, rec.avg_sjnr_db))

    def test_random_an_mode(self):
        cfg = SystemConfig(seed=7)
        null = run_sweep(cfg, tiny_spec())[0]
        rand = run_sweep(cfg, tiny_spec(an_mode="random"))[0]
        # leaked AN at Bob changes the interference statistics
        assert rand.avg_sjnr_db != null.avg_sjnr_db

    def test_infeasible_nullspace_rejected_before_any_realization(
            self, monkeypatch):
        def unreachable(cfg, spec, r):
            raise AssertionError("a realization started")

        monkeypatch.setattr(harness, "_realization_task", unreachable)
        for threads in (1, 2):
            with pytest.raises(ValueError, match="^n_rx .*n_active = 8"):
                run_sweep(SystemConfig(n_rx=9), tiny_spec(), threads=threads)
        with pytest.raises(AssertionError, match="a realization started"):
            run_sweep(SystemConfig(n_rx=9), tiny_spec(an_mode="random"))

    def test_zfc_infeasible_rejected_before_any_realization(
            self, monkeypatch):
        def unreachable(cfg, spec, r):
            raise AssertionError("a realization started")

        monkeypatch.setattr(harness, "_realization_task", unreachable)
        cfg = SystemConfig(n_mallory=7)  # six streams fill Bob's C^6
        others = tuple(m for m in Method if m is not Method.MAX_RP_ZFC)
        for threads in (1, 2):
            with pytest.raises(ValueError,
                               match="^methods .*n_mallory - 1 = 6 "):
                run_sweep(cfg, tiny_spec(methods=tuple(Method)),
                          threads=threads)
        with pytest.raises(AssertionError, match="a realization started"):
            run_sweep(cfg, tiny_spec(methods=others))
        # without max_rp_zfc the geometry runs
        monkeypatch.undo()
        records = run_sweep(cfg, tiny_spec(methods=others), threads=2)
        assert [rec.method for rec in records] == list(others)
        assert all(len(rec.sr_samples) == 4 for rec in records)

    def test_snr_bound_rejected_before_any_realization(self, monkeypatch):
        def unreachable(cfg, spec, r):
            raise AssertionError("a realization started")

        monkeypatch.setattr(harness, "_realization_task", unreachable)
        spec = tiny_spec(snr_grid_db=(0.0, 2991.0))
        for threads in (1, 2):
            with pytest.raises(ValueError, match="^snr_grid_db .*1e300"):
                run_sweep(SystemConfig(beta=1.0), spec, threads=threads)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_realizations"):
            tiny_spec(n_realizations=0)
        with pytest.raises(ValueError, match="n_ber_trials"):
            tiny_spec(n_ber_trials=0)
        with pytest.raises(ValueError, match="an_mode"):
            tiny_spec(an_mode="off")
        with pytest.raises(ValueError, match="snr_grid_db"):
            tiny_spec(snr_grid_db=())
        with pytest.raises(ValueError, match="^snr_grid_db .*finite"):
            tiny_spec(snr_grid_db=(0.0, math.nan))
        # 10^(-snr/10) overflows to inf / underflows to 0.0
        for snr_db in (-4000.0, 4000.0):
            with pytest.raises(ValueError, match="^snr_grid_db .*positive"):
                tiny_spec(snr_grid_db=(0.0, snr_db))
        with pytest.raises(ValueError, match="^p_m_list .*finite"):
            tiny_spec(p_m_list=(math.inf,))
        # 1e308 W overflows the attacker's AN power; 1e300 is the bound
        SystemConfig(power=1e300)
        for power in (1e301, 1e308):
            with pytest.raises(ValueError, match="^power .*1e300"):
                SystemConfig(power=power, beta=0.0)
        with pytest.raises(ValueError, match="^snr_grid_db .*repeat"):
            tiny_spec(snr_grid_db=(0.0, -0.0))
        with pytest.raises(ValueError, match="^methods .*repeat"):
            tiny_spec(methods=(Method.MAX_RP, Method.MAX_RP))
        # a string would sweep the whole grid, then fail in write_outputs
        for methods in (("max_rp", "max_sjnr"), (Method.MAX_RP, "bogus")):
            with pytest.raises(ValueError, match="^methods .*Method"):
                tiny_spec(methods=methods)
        # a comment mark, line break or surrounding space would make the
        # manifest record another directory than the one written
        for output_dir in ("runs/a#1", "runs/a\nseed = 2", "runs\u2028a",
                           " runs/a", "runs/a\t"):
            with pytest.raises(ValueError, match="^output_dir "):
                tiny_spec(output_dir=output_dir)


class TestWriteOutputs:
    def test_results_csv(self, tmp_path):
        cfg = SystemConfig()
        spec = tiny_spec()
        records = run_sweep(cfg, spec)
        out = write_outputs(records, cfg, spec, tmp_path / "run")
        text = (out / "results.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == ("method,snr_db,p_m,avg_sr,ber,avg_sjnr_db,"
                            "n_realizations,n_zfc_infeasible")
        assert len(lines) == 2
        assert lines[1].startswith("max_rp,0.0,1.0,")
        assert (out / "manifest.txt").read_text().count("seed = 1") == 1

    def test_empty_records_header_only(self, tmp_path):
        cfg = SystemConfig()
        spec = tiny_spec()
        out = write_outputs([], cfg, spec, tmp_path / "empty")
        lines = (out / "results.csv").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_cdf_files(self, tmp_path):
        cfg = SystemConfig()
        spec = tiny_spec(snr_grid_db=(-5.0, 5.0), n_realizations=6)
        records = run_sweep(cfg, spec)
        out = write_outputs(records, cfg, spec, tmp_path / "cdf")
        for name in ("sr_cdf_-5.csv", "sr_cdf_5.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert lines[0] == "method,sr,cdf"
            cdf = [float(line.split(",")[2]) for line in lines[1:]]
            assert cdf == sorted(cdf)
            assert 0.0 < cdf[0] <= 1.0
            assert cdf[-1] == 1.0
            srs = [float(line.split(",")[1]) for line in lines[1:]]
            assert srs == sorted(srs)

    def test_cdf_files_multi_pm(self, tmp_path):
        cfg = SystemConfig()
        spec = tiny_spec(p_m_list=(1.0, 10.0), n_realizations=3)
        records = run_sweep(cfg, spec)
        out = write_outputs(records, cfg, spec, tmp_path / "multi")
        for name in ("sr_cdf_0_pm_1.csv", "sr_cdf_0_pm_10.csv"):
            lines = (out / name).read_text().strip().splitlines()
            assert lines[0] == "method,sr,cdf"
            assert len(lines) == 4  # 3 realizations, one method

    def test_huge_jamming_power_file_name(self, tmp_path):
        cfg = SystemConfig()
        spec = tiny_spec(p_m_list=(1.0, 1e240), n_realizations=2)
        out = write_outputs(run_sweep(cfg, spec), cfg, spec,
                            tmp_path / "huge")
        assert (out / "sr_cdf_0_pm_1.csv").exists()
        assert (out / "sr_cdf_0_pm_1e+240.csv").exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = SystemConfig(seed=8)
        spec = tiny_spec(n_realizations=5)
        a = write_outputs(run_sweep(cfg, spec), cfg, spec, tmp_path / "a")
        b = write_outputs(run_sweep(cfg, spec), cfg, spec, tmp_path / "b")
        for name in ("results.csv", "sr_cdf_0.csv", "manifest.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_second_grid_replaces_cdf_files(self, tmp_path):
        cfg = SystemConfig()
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.csv").write_text("kept\n")
        for snr_db in (0.0, 5.0):
            spec = tiny_spec(snr_grid_db=(snr_db,), n_realizations=2)
            write_outputs(run_sweep(cfg, spec), cfg, spec, out)
        names = sorted(path.name for path in out.iterdir())
        assert names == ["manifest.txt", "notes.csv", "results.csv",
                         "sr_cdf_5.csv"]
        assert "snr_grid_db = 5.0" in (out / "manifest.txt").read_text()

    def test_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        cfg = SystemConfig()
        spec = tiny_spec()
        with pytest.raises(RuntimeError, match=str(blocker)):
            write_outputs([], cfg, spec, blocker / "sub")


class TestCli:
    def test_print_defaults(self, capsys):
        assert main(["--print-defaults"]) == 0
        out = capsys.readouterr().out
        cfg, spec = parse_config(out)
        assert cfg == SystemConfig()
        assert spec == SweepSpec()

    def test_end_to_end(self, tmp_path, capsys):
        overrides = {"n_realizations": "4", "n_noise": "30",
                     "n_ber_trials": "40", "snr_grid_db": "0, 5"}
        lines = []
        for line in default_config_text().splitlines():
            key = line.split("=")[0].strip()
            if key in overrides:
                line = f"{key} = {overrides.pop(key)}"
            lines.append(line)
        assert not overrides
        text = "\n".join(lines) + "\n"
        path = tmp_path / "run.cfg"
        path.write_text(text)
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "results.csv").exists()
        assert (tmp_path / "out" / "sr_cdf_0.csv").exists()
        assert (tmp_path / "out" / "sr_cdf_5.csv").exists()
        assert (tmp_path / "out" / "manifest.txt").exists()

    def test_bad_config_nonzero_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("beta = 2.0\n")
        assert main(["--config", str(path)]) != 0
        assert "error" in capsys.readouterr().err

    def test_snr_out_of_range_exits_cleanly(self, tmp_path, capsys):
        text = set_key(default_config_text(), "snr_grid_db", "0, -4000")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: snr_grid_db")
        assert f"line {line_of(text, 'snr_grid_db')}" in err
        assert "Traceback" not in err

    def test_power_out_of_range_exits_cleanly(self, tmp_path, capsys):
        text = set_key(default_config_text(), "power", "1e308")
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: power")
        assert f"line {line_of(text, 'power')}" in err
        assert "Traceback" not in err

    def test_write_error_exits_cleanly(self, tmp_path, capsys,
                                       monkeypatch):
        def fail(*args, **kwargs):
            raise OSError(36, "File name too long")

        monkeypatch.setattr("secsm.cli.run_sweep", lambda *a, **k: [])
        monkeypatch.setattr("secsm.cli.write_outputs", fail)
        monkeypatch.chdir(tmp_path)  # the default output_dir is relative
        path = tmp_path / "run.cfg"
        path.write_text(default_config_text())
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "File name too long" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    def test_unwritable_out_fails_before_any_realization(
            self, tmp_path, capsys, monkeypatch, via):
        def unreachable(cfg, spec, r):
            raise AssertionError("a realization started")

        monkeypatch.setattr(harness, "_realization_task", unreachable)
        blocker = tmp_path / "file"
        blocker.write_text("x")
        blocked = str(blocker / "sub")
        text = default_config_text()
        argv = ["--out", blocked]
        if via == "output_dir":
            text, argv = set_key(text, "output_dir", blocked), []
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert main(["--config", str(path), *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(blocker) in err
        assert "Traceback" not in err

    def test_existing_write_probe_survives(self, tmp_path, capsys):
        text = default_config_text()
        for key, value in (("n_realizations", "1"), ("n_noise", "4"),
                           ("n_ber_trials", "4"), ("snr_grid_db", "0"),
                           ("methods", "max_rp")):
            text = set_key(text, key, value)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".write_probe").write_text("user data")
        assert main(["--config", str(path), "--out", str(out)]) == 0
        assert (out / ".write_probe").read_text() == "user data"
        assert sorted(p.name for p in out.iterdir()) == [
            ".write_probe", "manifest.txt", "results.csv", "sr_cdf_0.csv"]

    def test_manifest_independent_of_out(self, tmp_path, capsys):
        # the manifest records the document's output_dir, not --out, so
        # two output directories of one document compare equal by diff -r
        text = default_config_text()
        for key, value in (("n_realizations", "1"), ("n_noise", "4"),
                           ("n_ber_trials", "4"), ("snr_grid_db", "0"),
                           ("methods", "max_rp")):
            text = set_key(text, key, value)
        path = tmp_path / "run.cfg"
        path.write_text(text)
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["--config", str(path), "--out", str(out)]) == 0
            manifests.append((out / "manifest.txt").read_bytes())
        assert manifests[0] == manifests[1]
        assert b"\noutput_dir = results\n" in manifests[0]

    def test_zfc_infeasible_exits_before_output(self, tmp_path, capsys):
        text = set_key(default_config_text(), "n_mallory", "7")
        path = tmp_path / "zfc.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: methods")
        assert f"key 'methods', line {line_of(text, 'methods')}" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["--threads", "0"]],
                             ids=["no-config", "zero-threads"])
    def test_usage_error_exits_2(self, tmp_path, capsys, argv):
        if argv:
            path = tmp_path / "run.cfg"
            path.write_text(default_config_text())
            argv = ["--config", str(path), *argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: --" in capsys.readouterr().err

    def test_non_utf8_config_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"\xff")
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: ")
        assert "Traceback" not in err

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, monkeypatch):
        # Notepad and PowerShell 5's `Out-File -Encoding utf8` start a
        # UTF-8 file with a byte-order mark, which is not part of line 1
        parsed = []
        monkeypatch.setattr("secsm.cli.run_sweep",
                            lambda cfg, spec, threads: parsed.append(
                                (cfg, spec)) or [])
        path = tmp_path / "bom.cfg"
        path.write_text(default_config_text(), encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(["--config", str(path), "--out",
                     str(tmp_path / "out")]) == 0
        assert parsed == [(SystemConfig(), SweepSpec())]

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg")]) != 0
