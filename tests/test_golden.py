"""The version-pinned golden table: a small fixed document whose every
results.csv value is committed in tests/golden.json with the package
version that produced it.

An intended change of the outputs regenerates the file and bumps
secsm.__version__, and pyproject.toml's version with it, in the same
change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import re
from pathlib import Path

from secsm import __version__
from secsm.harness import parse_config, run_sweep, write_outputs

GOLDEN = Path(__file__).with_name("golden.json")
PYPROJECT = Path(__file__).parents[1] / "pyproject.toml"

# every method at 2 SNRs and 2 jamming powers, over 3 realizations
DOCUMENT = """\
n_tx = 8
n_rx = 6
n_mallory = 2
power = 10.0
beta = 0.5
mod_order = 4
seed = 3
snr_grid_db = -5.0, 5.0
p_m_list = 1.0, 10.0
methods = max_rp, max_wfrp, max_rp_zfc, max_sjnr
n_realizations = 3
n_noise = 500
n_ber_trials = 600
an_mode = nullspace
output_dir = golden
"""

# far above cross-platform rounding, far below an intended change
REL_TOL = 1e-9
ABS_TOL = 1e-12


def results_csv(out_dir):
    """The document's results.csv lines, written under out_dir."""
    cfg, spec = parse_config(DOCUMENT)
    write_outputs(run_sweep(cfg, spec), cfg, spec, out_dir)
    return (Path(out_dir) / "results.csv").read_text().splitlines()


def matches(value, expected):
    """A numeric field within the tolerances, any other field exactly."""
    try:
        a, b = float(value), float(expected)
    except ValueError:
        return value == expected
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def test_golden_version():
    golden = json.loads(GOLDEN.read_text())
    assert golden["version"] == __version__, (
        "outputs pinned by another version: regenerate tests/golden.json "
        "with the version bump that changed them")
    assert golden["document"] == DOCUMENT


def test_pyproject_version():
    # the project table's version line, read without tomllib (Python
    # 3.11+): a version bump changes both files or fails here
    found = re.findall(r'^version = "([^"]+)"$', PYPROJECT.read_text(),
                       flags=re.M)
    assert found == [__version__], (
        f"pyproject.toml version {found} differs from secsm.__version__ "
        f"{__version__!r}")


def test_golden_results(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    lines = results_csv(tmp_path)
    assert len(lines) == len(golden["results_csv"]) == 17
    header = lines[0].split(",")
    for line, expected in zip(lines, golden["results_csv"]):
        for name, value, want in zip(header, line.split(","),
                                     expected.split(",")):
            assert matches(value, want), (name, line, expected)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {"version": __version__, "document": DOCUMENT,
                 "results_csv": results_csv(tmp)}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
