"""The library names that the benchmark (perfbench/) and README's Library
example read. A refactor that drops or reshapes one fails here, in the
tier-1 suite, not only later in the benchmark's own self-tests."""

import importlib
import importlib.util
import re
from dataclasses import replace
from pathlib import Path

import secsm
from secsm.beamformers import Method, compute_beamformer
from secsm.channel import SystemConfig, derive_rng, realize_channels
from secsm.harness import SweepSpec, run_sweep
from secsm.metrics import mutual_info_mc

ROOT = Path(__file__).resolve().parents[1]


def load_tracing():
    """perfbench/tracing.py as a module, without touching sys.path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_hooks_resolve_to_callables():
    hooks = load_tracing().HOOKS
    assert hooks
    for module, name, _ in hooks:
        target = getattr(importlib.import_module(module), name, None)
        assert callable(target), f"{module}.{name}"


def test_kernel_backend_is_named():
    assert isinstance(secsm.kernel_backend, str) and secsm.kernel_backend


def test_probe_point_builds_and_estimates():
    # the MI probe's calls: a point made with dataclasses.replace, Bob's
    # max_sjnr combiner at it and one estimate per side
    cfg = SystemConfig()
    assert cfg.an_var == cfg.jam_var == 1.0
    point = replace(cfg, noise_var_bob=0.5, noise_var_eve=0.25,
                    power_mallory=10.0)
    assert (point.noise_var_bob, point.noise_var_eve,
            point.power_mallory) == (0.5, 0.25, 10.0)
    chset = realize_channels(point, 0, an_mode="nullspace")
    u = compute_beamformer(Method.MAX_SJNR, chset, point).u
    assert u.shape == (cfg.n_rx,)
    for side, v in (("bob", u), ("mallory", chset.u_er)):
        bits = mutual_info_mc(v, side, chset, point, 500,
                              derive_rng(cfg.seed, 1, 0))
        assert type(bits) is float and 0.0 <= bits <= 5.0


def test_records_carry_the_gate_counts():
    records = run_sweep(SystemConfig(), SweepSpec(
        snr_grid_db=(0.0,), n_realizations=1, n_noise=2, n_ber_trials=1))
    assert len(records) == 4
    for rec in records:
        assert {"n_realizations", "n_zfc_infeasible",
                "n_ber_uses"} <= rec.trial_counts.keys()


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    ratio, sr = (float(x) for x in capsys.readouterr().out.split())
    assert ratio > 0.0 and sr >= 0.0
