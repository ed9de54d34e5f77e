"""Configuration parsing, sweep bookkeeping/determinism and file export."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secsm import harness
from secsm.beamformers import Method, ZfcInfeasibleError, compute_beamformer
from secsm.channel import AN_MODES, SystemConfig, derive_rng, realize_channels
from secsm.cli import main
from secsm.harness import (ConfigError, SweepSpec, default_config_text,
                           emit_config, parse_config, run_sweep,
                           snr_to_noise_var, write_outputs)
from secsm.metrics import mutual_info_mc


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

    @pytest.mark.parametrize("key", ["power", "seed", "mod_order"])
    def test_range_error_names_exact_key(self, key):
        # the key comes from the constraint message, the line from the key
        value, message = {"mod_order": ("1", "at least 2")}.get(
            key, ("-1", "non-negative"))
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
        nonneg = st.floats(min_value=0.0, allow_infinity=False)
        an_mode = data.draw(st.sampled_from(AN_MODES))
        nullspace = an_mode == "nullspace"
        # null-space AN needs n_rx < n_active, so at least 2 TX antennas
        n_tx = data.draw(st.integers(2 if nullspace else 1, 64))
        max_rx = SystemConfig(n_tx=n_tx).n_active - 1 if nullspace else 64
        cfg = SystemConfig(
            n_tx=n_tx, n_rx=data.draw(st.integers(1, max_rx)),
            n_mallory=data.draw(st.integers(2, 16)),
            power=data.draw(nonneg),
            beta=data.draw(st.floats(0.0, 1.0)),
            mod_order=1 << data.draw(st.integers(1, 8)),
            seed=data.draw(st.integers(0, 2 ** 63)))
        # grid values and methods may not repeat (0.0 and -0.0 are one);
        # 10^(-snr/10) must stay finite and positive
        spec = SweepSpec(
            snr_grid_db=tuple(data.draw(st.lists(
                st.floats(-3000.0, 3000.0), min_size=1, max_size=5,
                unique=True))),
            p_m_list=tuple(data.draw(st.lists(
                nonneg, min_size=1, max_size=5, unique=True))),
            methods=tuple(data.draw(st.lists(
                st.sampled_from(Method), min_size=1, max_size=4,
                unique=True))),
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
        assert rec.trial_counts["n_feasible"] == 1
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

    def test_parallel_matches_serial(self):
        cfg = SystemConfig(seed=4)
        spec = tiny_spec(n_realizations=6,
                         methods=(Method.MAX_RP, Method.MAX_WFRP))
        serial = run_sweep(cfg, spec, threads=1)
        parallel = run_sweep(cfg, spec, threads=3)
        for ra, rb in zip(serial, parallel):
            assert ra.sr_samples == rb.sr_samples
            assert ra.trial_counts == rb.trial_counts

    def test_pool_capped_at_realizations(self, monkeypatch):
        # a fake pool records its size and maps in this process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        cfg = SystemConfig(seed=4)
        spec = tiny_spec(n_realizations=3)
        capped = run_sweep(cfg, spec, threads=64)
        assert asked == [3]
        assert capped == run_sweep(cfg, spec, threads=1)
        run_sweep(cfg, tiny_spec(n_realizations=1), threads=64)
        assert asked == [3]  # one realization takes the serial path

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

    def test_zfc_infeasible_recorded(self):
        cfg = SystemConfig(n_mallory=7, seed=6)  # 6 streams fill C^6
        spec = tiny_spec(methods=(Method.MAX_RP_ZFC,), n_realizations=3)
        (rec,) = run_sweep(cfg, spec)
        assert rec.trial_counts["n_zfc_infeasible"] == 3
        assert rec.trial_counts["n_feasible"] == 0
        assert math.isnan(rec.avg_sr)

    @pytest.mark.parametrize("n_mallory", [2, 7])
    def test_realization_rates_match_single_calls(self, n_mallory):
        # n_mallory = 7: six jamming streams fill C^6, ZFC is infeasible
        cfg = SystemConfig(n_mallory=n_mallory, seed=8)
        spec = tiny_spec(snr_grid_db=(0.0, 10.0), p_m_list=(1.0, 4.0),
                         methods=tuple(Method), n_realizations=3,
                         n_ber_trials=3)
        r = 2
        out = harness._realization_task((cfg, spec, r))
        chset = realize_channels(cfg, r, an_mode=spec.an_mode)
        for si, snr_db in enumerate(spec.snr_grid_db):
            for pi, p_m in enumerate(spec.p_m_list):
                point = harness._point_config(cfg, snr_db, p_m)
                i_eve = mutual_info_mc(
                    chset.u_er, "mallory", chset, point, spec.n_noise,
                    derive_rng(cfg.seed, harness._STREAM_MI_EVE, r, si, pi))
                for method in spec.methods:
                    feasible, sr, *_ = out[si, pi, method]
                    try:
                        bf = compute_beamformer(method, chset, point)
                    except ZfcInfeasibleError:
                        assert (method, n_mallory) == (Method.MAX_RP_ZFC, 7)
                        assert (feasible, sr) == (False, 0.0)
                        continue
                    i_bob = mutual_info_mc(
                        bf.u, "bob", chset, point, spec.n_noise,
                        derive_rng(cfg.seed, harness._STREAM_MI_BOB, r, si,
                                   pi))
                    assert feasible
                    assert sr == max(0.0, i_bob - i_eve)

    def test_random_an_mode(self):
        cfg = SystemConfig(seed=7)
        null = run_sweep(cfg, tiny_spec())[0]
        rand = run_sweep(cfg, tiny_spec(an_mode="random"))[0]
        # leaked AN at Bob changes the interference statistics
        assert rand.avg_sjnr_db != null.avg_sjnr_db

    def test_infeasible_nullspace_rejected_before_any_realization(
            self, monkeypatch):
        def unreachable(args):
            raise AssertionError("a realization started")

        monkeypatch.setattr(harness, "_realization_task", unreachable)
        for threads in (1, 2):
            with pytest.raises(ValueError, match="^n_rx .*n_active = 8"):
                run_sweep(SystemConfig(n_rx=9), tiny_spec(), threads=threads)
        with pytest.raises(AssertionError, match="a realization started"):
            run_sweep(SystemConfig(n_rx=9), tiny_spec(an_mode="random"))

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
        with pytest.raises(ValueError, match="^snr_grid_db .*repeat"):
            tiny_spec(snr_grid_db=(0.0, -0.0))
        with pytest.raises(ValueError, match="^methods .*repeat"):
            tiny_spec(methods=(Method.MAX_RP, Method.MAX_RP))


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

    def test_write_error_exits_cleanly(self, tmp_path, capsys,
                                       monkeypatch):
        def fail(*args, **kwargs):
            raise OSError(36, "File name too long")

        monkeypatch.setattr("secsm.cli.run_sweep", lambda *a, **k: [])
        monkeypatch.setattr("secsm.cli.write_outputs", fail)
        path = tmp_path / "run.cfg"
        path.write_text(default_config_text())
        assert main(["--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "File name too long" in err
        assert "Traceback" not in err

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg")]) != 0
