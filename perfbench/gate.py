"""Correctness gate for a benchmark sweep.

Every check returns a list of failure messages; an empty list passes.
The checks use only the published records and output files, so they
hold for any implementation of the sweep.
"""

import math
from pathlib import Path

from workloads import METHODS

SJNR_RTOL = 1e-9


def _lin(db):
    return 10.0 ** (db / 10.0)


def failed_cells(records):
    """Grid cells (realization x SNR x P_M x method) without a finite
    result. ZFC-infeasible cells are not failures."""
    failed = 0
    for rec in records:
        counts = rec.trial_counts
        feasible = counts["n_realizations"] - counts["n_zfc_infeasible"]
        finite = sum(1 for sr in rec.sr_samples if math.isfinite(sr))
        aggregates = [rec.avg_sr, rec.avg_sjnr_db]
        if counts["n_ber_uses"]:
            aggregates.append(rec.ber)
        if feasible and not all(math.isfinite(v) for v in aggregates):
            finite = 0
        failed += feasible - min(finite, feasible)
    return failed


def check_records(records, workload):
    """Budgets, finiteness and the method invariants of one sweep."""
    fails = []
    snrs = [float(s) for s in workload.snr_grid_db.split(",")]
    pms = [float(p) for p in workload.p_m_list.split(",")]
    cells = {(rec.snr_db, rec.p_m, rec.method.value): rec for rec in records}
    methods = [m.strip() for m in METHODS.split(",")]
    expected = {(s, p, m) for s in snrs for p in pms for m in methods}
    if set(cells) != expected or len(records) != len(expected):
        fails.append(f"grid mismatch: {len(records)} records for "
                     f"{len(expected)} cells")
        return fails
    bad = failed_cells(records)
    if bad:
        fails.append(f"{bad} feasible cells without a finite result")
    for key, rec in sorted(cells.items()):
        counts = rec.trial_counts
        where = f"{key[2]}@{key[0]:g}dB/{key[1]:g}W"
        if counts["n_realizations"] != workload.n_realizations:
            fails.append(f"{where}: n_realizations "
                         f"{counts['n_realizations']} != "
                         f"{workload.n_realizations}")
        infeasible = counts["n_zfc_infeasible"]
        if len(rec.sr_samples) != counts["n_realizations"] - infeasible:
            fails.append(f"{where}: {len(rec.sr_samples)} SR samples for "
                         f"{counts['n_realizations'] - infeasible} feasible "
                         f"realizations")
        uses = counts["n_ber_uses"]
        if uses != workload.n_ber_trials and not (
                infeasible and uses < workload.n_ber_trials):
            fails.append(f"{where}: n_ber_uses {uses} != "
                         f"{workload.n_ber_trials}")
    for s in snrs:
        for p in pms:
            lin = {m: _lin(cells[s, p, m].avg_sjnr_db) for m in methods}
            best = max(lin.values())
            if not lin["max_sjnr"] >= best * (1.0 - SJNR_RTOL):
                fails.append(f"max_sjnr not highest SJNR at {s:g}dB/{p:g}W")
            gap = abs(lin["max_wfrp"] - lin["max_sjnr"])
            if not gap <= SJNR_RTOL * lin["max_sjnr"]:
                fails.append(f"max_wfrp/max_sjnr SJNR differ by "
                             f"{gap / lin['max_sjnr']:.2e} at {s:g}dB/{p:g}W")
    return fails


def _same(text, value):
    parsed = float(text)
    return parsed == value or (math.isnan(parsed) and math.isnan(value))


def check_outputs(out_dir, records):
    """results.csv and the CDF tables agree with the records."""
    out = Path(out_dir)
    try:
        rows = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"results.csv unreadable: {exc}"]
    fails = []
    if len(rows) != len(records) + 1:
        fails.append(f"results.csv has {len(rows) - 1} rows for "
                     f"{len(records)} records")
        return fails
    for row, rec in zip(rows[1:], records):
        cols = row.split(",")
        if (cols[0] != rec.method.value
                or not all(_same(c, v) for c, v in zip(
                    cols[1:6], (rec.snr_db, rec.p_m, rec.avg_sr, rec.ber,
                                rec.avg_sjnr_db)))):
            fails.append(f"results.csv row {row!r} does not match its record")
    cdf_rows = sum(len(p.read_text(encoding="utf-8").splitlines()) - 1
                   for p in out.glob("sr_cdf_*.csv"))
    samples = sum(len(rec.sr_samples) for rec in records)
    if cdf_rows != samples:
        fails.append(f"CDF tables hold {cdf_rows} rows for {samples} "
                     f"SR samples")
    if not (out / "manifest.txt").is_file():
        fails.append("manifest.txt missing")
    return fails


def check_identical(dir_a, dir_b):
    """Both output directories hold the same files, byte for byte."""
    a, b = Path(dir_a), Path(dir_b)
    names_a = sorted(p.name for p in a.iterdir() if p.is_file())
    names_b = sorted(p.name for p in b.iterdir() if p.is_file())
    if names_a != names_b:
        return [f"output files differ: {names_a} vs {names_b}"]
    return [f"{name} differs from the --threads 1 output" for name in names_a
            if (a / name).read_bytes() != (b / name).read_bytes()]
