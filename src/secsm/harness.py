"""Experiment harness: configuration parsing, grid sweeps over SNR and
jamming power, parallel Monte-Carlo execution, and CSV export.

A sweep is a grid over (SNR, P_M, method). Channel realizations are the
parallel work items; every Monte-Carlo draw comes from a generator
derived from (seed, stream, realization, grid indices), so results are
byte-identical for any worker count. The SNR axis sets both receiver
noise variances to 10^(-snr/10) W (unit-power reference); the transmit
powers enter separately through the system configuration.
"""

import contextlib
import math
import os
from dataclasses import dataclass, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import metrics
from .beamformers import POINT_FREE, Method, compute_beamformer
from .channel import AN_MODES, SystemConfig, derive_rng, realize_channels
from .metrics import MetricsRecord, scalar_channel
# not called here: perfbench/tracing.py hooks this name, until the
# benchmark change that retires the hook
from .metrics import mutual_info_mc  # noqa: F401
from .modulation import build_codebook

# rng stream tag of the BER trials (channel sampling owns tag 0).
_STREAM_BER = 3


@dataclass(frozen=True)
class SweepSpec:
    """Sweep axes and Monte-Carlo budgets for one experiment."""

    snr_grid_db: tuple = tuple(float(s) for s in range(-10, 22, 2))
    p_m_list: tuple = (1.0,)
    methods: tuple = (Method.MAX_RP, Method.MAX_WFRP, Method.MAX_RP_ZFC,
                      Method.MAX_SJNR)
    n_realizations: int = 500
    n_noise: int = 500
    n_ber_trials: int = 10000
    an_mode: str = "nullspace"
    output_dir: str = "results"

    def __post_init__(self):
        # a repeat (0.0 == -0.0 too) would give one cell two rows
        for name in ("snr_grid_db", "p_m_list", "methods"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be non-empty without repeats")
        bad = [m for m in self.methods if not isinstance(m, Method)]
        if bad:
            raise ValueError(f"methods must be Method members, got {bad[0]!r}")
        for snr_db in self.snr_grid_db:
            try:
                nv = snr_to_noise_var(float(snr_db))
            except OverflowError:
                nv = math.inf
            if not 0.0 < nv < math.inf:
                raise ValueError(
                    f"snr_grid_db must give a finite, positive noise "
                    f"variance 10^(-snr/10), got {snr_db!r}")
        # 1e308 W overflows |V^H u|^2; 1e300 leaves a jamming-gain margin
        if not all(0.0 <= p <= 1e300 for p in self.p_m_list):
            raise ValueError("p_m_list must be finite, in [0, 1e300]")
        for name in ("n_realizations", "n_noise", "n_ber_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.an_mode not in AN_MODES:
            raise ValueError(f"an_mode must be one of {AN_MODES}")
        # the document carries one line per key and `#` starts a comment
        d = self.output_dir
        if not d or d != d.strip() or "#" in d or d.splitlines() != [d]:
            raise ValueError(
                f"output_dir must be non-empty, without '#', line breaks "
                f"or surrounding whitespace, got {d!r}")


def check_feasible(cfg, spec):
    """Reject a (cfg, spec) pair that no realization could satisfy.

    Null-space artificial noise needs n_rx < n_active, or Bob's channel
    leaves no null space to hide the noise in. max_rp_zfc needs
    n_mallory <= n_rx, or the n_mallory - 1 jamming streams leave Bob no
    receive dimension to zero-force them in. The signal-to-noise ratio
    beta * power * 10^(snr/10) may not exceed 1e300, or the whitened
    codebook distances overflow. The message starts with the offending
    key.
    """
    if spec.an_mode == "nullspace" and cfg.n_rx >= cfg.n_active:
        raise ValueError(
            f"n_rx must be below n_active = {cfg.n_active} for null-space "
            f"artificial noise, got {cfg.n_rx}")
    if Method.MAX_RP_ZFC in spec.methods and cfg.n_mallory > cfg.n_rx:
        raise ValueError(
            f"methods max_rp_zfc needs n_mallory - 1 = {cfg.n_mallory - 1} "
            f"jamming streams below n_rx = {cfg.n_rx}")
    signal, snr_db = cfg.beta * cfg.power, max(spec.snr_grid_db)
    # in the log domain: 10^(snr/10) alone overflows above 3082 dB
    if signal > 0.0 and math.log10(signal) + snr_db / 10.0 > 300.0:
        raise ValueError(
            f"snr_grid_db must keep beta * power * 10^(snr/10) at most "
            f"1e300, got {snr_db!r} with beta * power = {signal!r}")


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""

    def __init__(self, message, key=None, line=None):
        parts = []
        if key is not None:
            parts.append(f"key {key!r}")
        if line is not None:
            parts.append(f"line {line}")
        where = f" ({', '.join(parts)})" if parts else ""
        super().__init__(f"{message}{where}")
        self.key = key
        self.line = line


def _parse_methods(text):
    out = []
    for token in text.split(","):
        token = token.strip()
        try:
            out.append(Method(token))
        except ValueError:
            names = ", ".join(m.value for m in Method)
            raise ValueError(f"unknown method {token!r}; expected {names}")
    return tuple(out)


def _parse_float_list(text):
    return tuple(float(tok) for tok in text.split(","))


# key -> (target dataclass, converter). The config document is flat; every
# key is required, `simulate --print-defaults` emits the full template.
_SCHEMA = {
    "n_tx": (SystemConfig, int),
    "n_rx": (SystemConfig, int),
    "n_mallory": (SystemConfig, int),
    "power": (SystemConfig, float),
    "beta": (SystemConfig, float),
    "mod_order": (SystemConfig, int),
    "seed": (SystemConfig, int),
    "snr_grid_db": (SweepSpec, _parse_float_list),
    "p_m_list": (SweepSpec, _parse_float_list),
    "methods": (SweepSpec, _parse_methods),
    "n_realizations": (SweepSpec, int),
    "n_noise": (SweepSpec, int),
    "n_ber_trials": (SweepSpec, int),
    "an_mode": (SweepSpec, str),
    "output_dir": (SweepSpec, str),
}


def parse_config(text):
    """Parse a flat key = value configuration document.

    One assignment per line, `#` starts a comment, lists are comma
    separated. Unknown, duplicate or missing keys and constraint
    violations raise ConfigError naming the key and line.
    """
    values = {}
    lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _SCHEMA:
            raise ConfigError("unknown key", key=key, line=lineno)
        if key in values:
            raise ConfigError("duplicate key", key=key, line=lineno)
        target, convert = _SCHEMA[key]
        try:
            values[key] = convert(rhs)
        except ValueError as exc:
            raise ConfigError(f"invalid value {rhs!r}: {exc}",
                              key=key, line=lineno)
        lines[key] = lineno
    missing = [k for k in _SCHEMA if k not in values]
    if missing:
        raise ConfigError("missing required key", key=missing[0])

    def checked(check, *args, **kwargs):
        try:
            return check(*args, **kwargs)
        except ValueError as exc:
            # Every constraint message starts with the field it checks.
            key = str(exc).split(" ", 1)[0]
            raise ConfigError(str(exc), key=key, line=lines.get(key))

    def build(cls):
        return checked(cls, **{k: values[k] for k, (t, _) in _SCHEMA.items()
                                if t is cls})

    cfg, spec = build(SystemConfig), build(SweepSpec)
    checked(check_feasible, cfg, spec)
    return cfg, spec


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_config(cfg, spec):
    """Render (cfg, spec) as a canonical configuration document.

    parse_config(emit_config(cfg, spec)) reproduces the document keys
    exactly; cfg's operating point (power_mallory and the noise
    variances, which a sweep sets per grid point) is not in it.
    """
    out = ["# secsm simulation configuration (all keys required)", ""]
    for title, obj in (("system", cfg), ("sweep", spec)):
        out.append(f"# {title}")
        for key in (k for k, (t, _) in _SCHEMA.items() if t is type(obj)):
            value = getattr(obj, key)
            if key == "methods":
                rendered = ", ".join(m.value for m in value)
            elif isinstance(value, tuple):
                rendered = ", ".join(_fmt(v) for v in value)
            else:
                rendered = _fmt(value)
            out.append(f"{key} = {rendered}")
        out.append("")
    return "\n".join(out)


def default_config_text():
    """The complete default configuration document."""
    return emit_config(SystemConfig(), SweepSpec())


def snr_to_noise_var(snr_db):
    """Receiver noise variance for an SNR point: 10^(-snr/10) W."""
    return 10.0 ** (-snr_db / 10.0)


def _point_config(cfg, snr_db, p_m):
    nv = snr_to_noise_var(snr_db)
    return replace(cfg, noise_var_bob=nv, noise_var_eve=nv,
                   power_mallory=p_m)


def _realization_task(cfg, spec, r):
    """All per-realization work for every grid point.

    Returns {quantity: (SNR, P_M, method) array} for sr, sjnr and the BER
    tally bit_errors, squared_errors. POINT_FREE methods are built once,
    the others once per P_M across every SNR. Each (SNR, P_M) takes one
    scalar channel of its method stack, which its BER tally reads at
    once, the methods sharing one BER draw; the attacker takes one per
    SNR. All of them then go through one SJNR and one MI call.
    """
    chset = realize_channels(cfg, r, an_mode=spec.an_mode)
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    base, extra = divmod(spec.n_ber_trials, spec.n_realizations)
    ber_block = base + (1 if r < extra else 0)

    noise_vars = [snr_to_noise_var(snr_db) for snr_db in spec.snr_grid_db]
    # the combiners of every method at each (P_M, SNR)
    combiners = np.empty((len(spec.p_m_list), len(noise_vars),
                          len(spec.methods), cfg.n_rx), dtype=np.complex128)
    for mi, m in enumerate(spec.methods):
        if m in POINT_FREE:
            combiners[:, :, mi] = compute_beamformer(m, chset, cfg).u
    # P_M outermost: the builds at one P_M share one SVD of its factor
    for pi, p_m in enumerate(spec.p_m_list):
        at_p_m = replace(cfg, power_mallory=p_m)
        for mi, m in enumerate(spec.methods):
            if m not in POINT_FREE:
                combiners[pi, :, mi] = compute_beamformer(
                    m, chset, at_p_m, noise_vars).u
    shape = (len(spec.snr_grid_db), len(spec.p_m_list), len(spec.methods))
    n_snr, n_p_m, n_methods = shape
    errors, squared = np.zeros(shape, np.int64), np.zeros(shape, np.int64)
    # the scalar channels per SNR: Bob's per (P_M, method), then the
    # attacker's, the last row
    refs = np.empty((n_snr, n_p_m * n_methods + 1, codebook.size),
                    dtype=np.complex128)
    power = np.empty(refs.shape[:-1])
    for si, snr_db in enumerate(spec.snr_grid_db):
        # P_JM cancels the attacker's self-interference at u_er, so I_E
        # does not depend on P_M: P_M = 0 makes that cancellation exact
        refs[si, -1], power[si, -1] = scalar_channel(
            chset.u_er, "mallory", chset, _point_config(cfg, snr_db, 0.0))
        for pi, p_m in enumerate(spec.p_m_list):
            bob = slice(pi * n_methods, (pi + 1) * n_methods)
            refs[si, bob], power[si, bob] = scalar_channel(
                combiners[pi, si], "bob", chset,
                _point_config(cfg, snr_db, p_m))
            errors[si, pi], squared[si, pi] = metrics._ber_counts(
                refs[si, bob], power[si, bob], codebook, ber_block,
                derive_rng(cfg.seed, _STREAM_BER, r, si, pi))
    bits = metrics.mutual_info(refs, power, cfg.mod_order, spec.n_noise)
    sr = np.maximum(0.0, bits[:, :-1] - bits[:, -1:]).reshape(shape)
    sjnr = metrics.channel_sjnr(refs[:, :-1], power[:, :-1]).reshape(shape)
    return {"sr": sr, "sjnr": sjnr, "bit_errors": errors,
            "squared_errors": squared}


def _partials(cfg, spec, workers):
    """Per-realization results in index order, from this process plus
    workers - 1 pool processes, one realization per pool task.

    This process runs realizations from the head (0, 1, ...) and the pool
    from the tail (n-1, n-2, ...). At each step a failed pool task raises,
    the pool gets the next tail realization if it holds fewer than two
    per worker (one running, one queued), and else this process runs the
    next head one. With one process that bound is 0 and no pool starts.
    After a failure or an interrupt, leaving the pool waits for at most
    the two realizations per worker that it holds.
    """
    pool = contextlib.nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # loaded once here, before the fork, not by every worker
        import numpy.random  # noqa: F401
        pool = ProcessPoolExecutor(max_workers=workers - 1)
    n, own, pooled, done = spec.n_realizations, [], [], 0
    with pool:
        while len(own) + len(pooled) < n:
            # a failed pool task ends the sweep now, not at the end
            while done < len(pooled) and pooled[done].done():
                pooled[done].result()
                done += 1
            if len(pooled) < done + 2 * (workers - 1):
                pooled.append(pool.submit(_realization_task, cfg, spec,
                                          n - 1 - len(pooled)))
            else:
                own.append(_realization_task(cfg, spec, len(own)))
    return own + [future.result() for future in reversed(pooled)]


def _cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(cfg, spec, threads=1):
    """Run the full (SNR, P_M, method) grid and aggregate MetricsRecords.

    Realizations are independent work items reduced in index order, so
    the result is identical for any `threads` value. `threads` counts
    processes: this one plus threads - 1 pool workers, at most one
    process per realization and one per CPU the process may run on. Every
    realization, on any number of processes, passes through the one loop
    of `_partials`; a run on one process never imports the pool.
    Every count is one sum over the stacked realizations. An infeasible
    (cfg, spec) pair raises ValueError before any realization starts.
    """
    check_feasible(cfg, spec)
    workers = min(threads, spec.n_realizations, _cpus())
    partials = _partials(cfg, spec, workers)
    # (realization, SNR, P_M, method), the grid flattened in record order
    cells = {k: np.stack([p[k] for p in partials]).reshape(len(partials), -1)
             for k in partials[0]}
    errors, squared = (cells[k].sum(axis=0).tolist()
                       for k in ("bit_errors", "squared_errors"))

    bits = build_codebook(cfg.n_active, cfg.mod_order).bits_per_use
    records = []
    grid = product(spec.snr_grid_db, spec.p_m_list, spec.methods)
    for c, (snr_db, p_m, method) in enumerate(grid):
        srs = tuple(cells["sr"][:, c].tolist())
        ratio = float(np.mean(cells["sjnr"][:, c]))
        records.append(MetricsRecord(
            method=method, snr_db=float(snr_db), p_m=float(p_m),
            avg_sr=float(np.mean(srs)), sr_samples=srs,
            ber=errors[c] / (spec.n_ber_trials * bits),
            avg_sjnr_db=10.0 * math.log10(ratio) if ratio else -math.inf,
            # check_feasible rejects every ZFC-infeasible configuration
            trial_counts={
                "n_realizations": spec.n_realizations,
                "n_zfc_infeasible": 0, "n_ber_uses": spec.n_ber_trials,
                "n_bit_errors": errors[c], "ber_squared_errors": squared[c]}))
    return records


def _num_token(value):
    """Compact filename token for a grid value: -5, 5, 2.5, 1e+240, ...

    Whole values below 1e16 print as integers; larger ones keep the
    exponent form, so the file name stays short."""
    value = float(value)
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def write_outputs(records, cfg, spec, out_dir):
    """Write results.csv, per-SNR secrecy-rate CDF tables, and a manifest.

    All files are UTF-8 with LF line endings; floats use shortest
    round-trip decimals, so identical records give identical bytes.
    CDF tables of an earlier run in the directory are deleted first.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot write output directory {out}: {exc}")
    for stale in out.glob("sr_cdf_*.csv"):
        stale.unlink()

    header = ("method,snr_db,p_m,avg_sr,ber,avg_sjnr_db,"
              "n_realizations,n_zfc_infeasible")
    rows = [header]
    for rec in records:
        counts = rec.trial_counts
        rows.append(",".join([
            rec.method.value, _fmt(rec.snr_db), _fmt(rec.p_m),
            _fmt(rec.avg_sr), _fmt(rec.ber), _fmt(rec.avg_sjnr_db),
            str(counts["n_realizations"]),
            str(counts["n_zfc_infeasible"]),
        ]))
    (out / "results.csv").write_text("\n".join(rows) + "\n",
                                     encoding="utf-8", newline="\n")

    single_pm = len({rec.p_m for rec in records}) == 1
    by_file = {}
    for rec in records:
        name = (f"sr_cdf_{_num_token(rec.snr_db)}.csv" if single_pm else
                f"sr_cdf_{_num_token(rec.snr_db)}_pm_{_num_token(rec.p_m)}.csv")
        by_file.setdefault(name, []).append(rec)
    for name, recs in by_file.items():
        lines = ["method,sr,cdf"]
        for rec in recs:
            samples = np.sort(np.asarray(rec.sr_samples))
            n = len(samples)
            for k, sr in enumerate(samples):
                lines.append(f"{rec.method.value},{_fmt(float(sr))},"
                             f"{_fmt((k + 1) / n)}")
        (out / name).write_text("\n".join(lines) + "\n",
                                encoding="utf-8", newline="\n")

    from . import __version__, kernel_backend
    manifest = (f"# secsm run manifest\nversion = {__version__}\n"
                f"kernel_backend = {kernel_backend}\n\n"
                + emit_config(cfg, spec))
    (out / "manifest.txt").write_text(manifest, encoding="utf-8",
                                      newline="\n")
    return out
