"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the correctness gate fires on corrupted records, that a hook
a refactor removed is reported as absent instead of crashing, and that
the Gauss-Hermite reference matches an independent 1-D quadrature.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import mi_reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, config_document  # noqa: E402


def _bench_file():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_emitted_with_unit():
    bench = _bench_file()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[key]}
        for workload in WORKLOADS:
            result = _run(workload, trace)
            assert result["correct"] is True
            assert result["failed"] == 0 and result["attempted"] >= 1
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                assert math.isfinite(m["value"]), name


def _tiny_sweep(tmp):
    from secsm import harness

    workload = WORKLOADS["sr_sweep"].tiny()
    text = config_document(harness.default_config_text(), workload, 3,
                           "bench_out")
    cfg, spec = harness.parse_config(text)
    records = harness.run_sweep(cfg, spec)
    harness.write_outputs(records, cfg, spec, tmp)
    return workload, records


def _corrupt(records, method, **changes):
    return [replace(rec, **changes) if rec.method.value == method else rec
            for rec in records]


def test_gate_fires_on_corrupted_records():
    with tempfile.TemporaryDirectory() as tmp:
        workload, records = _tiny_sweep(tmp)
        assert gate.check_records(records, workload) == []
        assert gate.check_outputs(tmp, records) == []
        assert gate.failed_cells(records) == 0

        # wfrp and sjnr no longer agree
        sjnr = {(r.snr_db, r.p_m): r.avg_sjnr_db for r in records
                if r.method.value == "max_sjnr"}
        bad = [replace(r, avg_sjnr_db=sjnr[r.snr_db, r.p_m] - 1e-6)
               if r.method.value == "max_wfrp" else r for r in records]
        assert any("max_wfrp/max_sjnr" in msg
                   for msg in gate.check_records(bad, workload))

        # another method beats max_sjnr
        bad = _corrupt(records, "max_rp", avg_sjnr_db=1e3)
        assert any("not highest" in msg
                   for msg in gate.check_records(bad, workload))

        # a non-finite secrecy-rate sample
        rec = records[0]
        bad = [replace(rec, sr_samples=(math.nan,) + rec.sr_samples[1:])]
        bad += records[1:]
        assert gate.failed_cells(bad) == 1
        assert gate.check_records(bad, workload)

        # a BER budget that does not match
        counts = dict(rec.trial_counts, n_ber_uses=0)
        bad = [replace(rec, trial_counts=counts)] + records[1:]
        assert any("n_ber_uses" in msg
                   for msg in gate.check_records(bad, workload))

        # outputs that differ from the records
        assert gate.check_outputs(tmp, _corrupt(records, "max_rp",
                                                avg_sr=-1.0))


def test_determinism_check_compares_bytes():
    with tempfile.TemporaryDirectory() as a, \
            tempfile.TemporaryDirectory() as b:
        for d in (a, b):
            Path(d, "results.csv").write_text("x\n")
        assert gate.check_identical(a, b) == []
        Path(b, "results.csv").write_text("y\n")
        assert gate.check_identical(a, b)


def test_absent_hook_reports_zero_calls():
    hooks = tracing.HOOKS + (("secsm.harness", "removed_in_refactor", "x"),
                             ("secsm.no_such_module", "fn", "y"))
    tracer = tracing.Tracer(hooks)
    tracer.install()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            _tiny_sweep(tmp)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["secsm.harness.removed_in_refactor",
                             "secsm.no_such_module.fn"]
    layers = tracing.summarize(tracer.spans)
    assert "x" not in layers and "y" not in layers
    assert layers["kernels.mi"]["calls"] > 0

    from secsm import harness, metrics
    assert not hasattr(harness.realize_channels, "__wrapped__")
    assert not hasattr(metrics.mi_inner_mean, "__wrapped__")


def test_self_times_partition_the_root():
    import time

    tracer = tracing.Tracer(())
    with tracer.span("root"):
        with tracer.span("child"):
            time.sleep(0.01)
        with tracer.span("child"):
            time.sleep(0.01)
    layers = tracing.summarize(tracer.spans)
    total = sum(v["self_s"] for v in layers.values())
    assert math.isclose(total, layers["root"]["incl_s"], rel_tol=1e-12)
    assert layers["child"]["calls"] == 2


def test_gauss_hermite_matches_bpsk_quadrature():
    import numpy as np

    nodes, weights = np.polynomial.hermite.hermgauss(201)
    for d in (0.3, 1.0, 2.5):
        # BPSK +-g: I = 1 - E_x log2(1 + exp(-d^2 - 2 d x)), x ~ N(0, 1/2)
        one_d = 1.0 - float(weights @ np.log2(
            1.0 + np.exp(-d * d - 2.0 * d * nodes))) / math.sqrt(math.pi)
        diffs = np.array([[0.0, d], [-d, 0.0]], dtype=complex)
        two_d = mi_reference.gh_mutual_info(diffs, 2 * mi_reference.GH_ORDER)
        assert abs(one_d - two_d) < 1e-9, (d, one_d, two_d)


def test_no_source_tree_fails_without_result():
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "perfbench")
        copy.mkdir()
        for path in HERE.glob("*.py"):
            (copy / path.name).write_bytes(path.read_bytes())
        Path(tmp, "BENCHMARK.json").write_bytes(
            (ROOT / "BENCHMARK.json").read_bytes())
        env = dict(os.environ, PYTHONPATH="")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sr_sweep",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except Exception as exc:  # report every test, then fail
                failed += 1
                print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    sys.exit(1 if failed else 0)
