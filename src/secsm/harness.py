"""Experiment harness: configuration parsing, grid sweeps over SNR and
jamming power, parallel Monte-Carlo execution, and CSV export.

A sweep is a grid over (SNR, P_M, method). Channel realizations are the
parallel work items; every Monte-Carlo draw comes from a generator
derived from (seed, stream, realization), so results are byte-identical
for any worker count, and every grid cell of a realization shares its
draws. The SNR axis sets both receiver noise variances to 10^(-snr/10) W
(unit-power reference); the transmit powers enter separately through
the system configuration.
"""

import contextlib
import math
import os
from dataclasses import dataclass, fields
from itertools import product
from pathlib import Path

import numpy as np

from . import metrics
from .beamformers import Method, compute_beamformer
from .channel import (AN_MODES, ChannelSet, SystemConfig, derive_rng,
                      realize_channels, stack_channels)
from .metrics import MetricsRecord
# not called here: perfbench/tracing.py hooks this name, until the
# benchmark change that retires the hook
from .metrics import mutual_info_mc  # noqa: F401
from .modulation import build_codebook

# rng stream tag of the BER trials (channel sampling owns tag 0).
_STREAM_BER = 3
RANGE_BYTES = 128 * 1024  # the scalar channels of one range (_ranges)


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
        parts = (f"key {key!r}" if key is not None else None,
                 f"line {line}" if line is not None else None)
        where = ", ".join(p for p in parts if p)
        super().__init__(f"{message} ({where})" if where else message)
        self.key, self.line = key, line


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
    values, lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=lineno)
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
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
    return repr(value) if isinstance(value, float) else str(value)


def emit_config(cfg, spec):
    """Render (cfg, spec) as a canonical configuration document.

    parse_config(emit_config(cfg, spec)) reproduces the document keys
    exactly; cfg's operating point (power_mallory and the noise
    variances, which a sweep takes from its grid) is not in it.
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


def _realization_task(cfg, spec, rs):
    """{quantity: (realization, SNR, P_M, method) array} of sr, sjnr and
    the BER tally bit_errors, squared_errors for the range rs, each
    realization's bit for bit its own range's. The channels' leading
    axes (realization, 1, 1) broadcast against the noise variances'
    (SNR, 1) and the jamming powers' (P_M,). Each layer runs once: one
    build per method, one scalar-channel broadcast for Bob and one for
    the attacker (at P_M = 0, where its self-interference cancels
    exactly), one SJNR and one MI call, and one BER call per trial
    count, on one generator per realization: every (SNR, P_M, method)
    cell of a realization detects the same trials."""
    chs = stack_channels([realize_channels(cfg, r, an_mode=spec.an_mode)
                          for r in rs])
    chs = ChannelSet(*(getattr(chs, f.name)[:, None, None]
                       for f in fields(ChannelSet)))
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    nvs = np.array([snr_to_noise_var(s) for s in spec.snr_grid_db])[:, None]
    p_ms = np.array(spec.p_m_list)
    R, S, P, M = shape = (len(rs), len(nvs), len(p_ms), len(spec.methods))
    u = np.empty(shape + (cfg.n_rx,), dtype=np.complex128)
    for mi, m in enumerate(spec.methods):
        u[:, :, :, mi] = compute_beamformer(m, chs, cfg, (nvs, p_ms)).u
    signal, V = metrics._side_terms(chs, cfg, "bob", p_ms)
    chans = metrics._scalar_channels(u, signal[..., None, :, :],
                                     V[..., None, :, :], nvs[..., None], cfg)
    errors, squared = np.empty((2,) + shape, dtype=np.int64)
    # the realizations below `extra` take one trial more
    base, extra = divmod(spec.n_ber_trials, spec.n_realizations)
    for lo, hi, n in ((rs.start, min(rs.stop, extra), base + 1),
                      (max(rs.start, extra), rs.stop, base)):
        if lo < hi:
            at = slice(lo - rs.start, hi - rs.start)
            counts = metrics._ber_counts(
                chans[0][at].reshape(hi - lo, -1, codebook.size),
                chans[1][at].reshape(hi - lo, -1), codebook, n,
                [derive_rng(cfg.seed, _STREAM_BER, k) for k in range(lo, hi)])
            errors[at], squared[at] = (c.reshape(-1, S, P, M) for c in counts)
    sjnr = metrics.channel_sjnr(*chans)
    eve = metrics._scalar_channels(
        chs.u_er, *metrics._side_terms(chs, cfg, "mallory", 0.0), nvs, cfg)
    # per SNR, Bob's (P_M, method) channels, then the attacker's
    chans = [np.concatenate((c.reshape(R, S, P * M, *c.shape[4:]),
                             np.broadcast_to(e, (R, S, 1) + c.shape[4:])),
                            axis=2) for c, e in zip(chans, eve)]
    bits = metrics.mutual_info(*chans, cfg.mod_order, spec.n_noise)
    sr = np.maximum(0.0, bits[..., :-1] - bits[..., -1:]).reshape(shape)
    return {"sr": sr, "sjnr": sjnr, "bit_errors": errors,
            "squared_errors": squared}


def _ranges(cfg, spec, workers):
    """The realizations as contiguous ranges of equal size, a multiple of
    `workers` of them, each within RANGE_BYTES of scalar channels (16 K
    bytes a channel, S (P M + 1) channels a realization: 9 realizations of
    the 3 SNR x 2 P_M x 4 method grid, 3 of the default 16-SNR one)."""
    size = 16 * cfg.n_active * cfg.mod_order * len(spec.snr_grid_db) * (
        len(spec.p_m_list) * len(spec.methods) + 1)
    n = spec.n_realizations
    k = min(n, workers * -(-n // (workers * max(1, RANGE_BYTES // size))))
    return [range(n * i // k, n * (i + 1) // k) for i in range(k)]


def _partials(cfg, spec, workers):
    """Per-range results in index order, from this process (ranges from
    the head) and workers - 1 pool processes (from the tail).

    At each step a failed pool task raises; the pool gets the next tail
    range if it holds fewer than two per worker (one running, one queued)
    and it is not the last range left, else this process runs the next
    head one. One process starts no pool. After a failure or interrupt,
    leaving the pool waits for the ranges it holds.
    """
    pool = contextlib.nullcontext()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # loaded once here, before the fork, not by every worker
        import numpy.random  # noqa: F401
        pool = ProcessPoolExecutor(max_workers=workers - 1)
    ranges = _ranges(cfg, spec, workers)
    own, pooled, done = [], [], 0
    with pool:
        while len(own) + len(pooled) < len(ranges):
            # a failed pool task ends the sweep now, not at the end
            while done < len(pooled) and pooled[done].done():
                pooled[done].result()
                done += 1
            if (len(own) + len(pooled) < len(ranges) - 1
                    and len(pooled) < done + 2 * (workers - 1)):
                pooled.append(pool.submit(_realization_task, cfg, spec,
                                          ranges[-1 - len(pooled)]))
            else:
                own.append(_realization_task(cfg, spec, ranges[len(own)]))
    return own + [future.result() for future in reversed(pooled)]


def _cpus():
    """The number of CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def run_sweep(cfg, spec, threads=1):
    """Run the full (SNR, P_M, method) grid and aggregate MetricsRecords.

    Realizations are independent work items reduced in index order, so
    the result is identical for any `threads` value. `threads` counts
    processes: this one plus threads - 1 pool workers, at most one
    process per realization and one per CPU the process may run on, all
    through the one loop of `_partials`. Every count is one sum over the
    stacked realizations. An infeasible (cfg, spec) pair raises
    ValueError before any realization starts.
    """
    check_feasible(cfg, spec)
    workers = min(threads, spec.n_realizations, _cpus())
    partials = _partials(cfg, spec, workers)
    # (realization, SNR, P_M, method), the grid flattened in record order
    cells = {k: np.concatenate([p[k] for p in partials]).reshape(
        spec.n_realizations, -1) for k in partials[0]}
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
    """Compact filename token for a grid value: -5, 5, 2.5, 1e+240, ...;
    whole values below 1e16 print as integers, larger ones as exponents."""
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

    rows = ["method,snr_db,p_m,avg_sr,ber,avg_sjnr_db,n_realizations,"
            "n_zfc_infeasible"]
    for rec in records:
        counts = rec.trial_counts
        rows.append(",".join([
            rec.method.value, _fmt(rec.snr_db), _fmt(rec.p_m),
            _fmt(rec.avg_sr), _fmt(rec.ber), _fmt(rec.avg_sjnr_db),
            str(counts["n_realizations"]), str(counts["n_zfc_infeasible"]),
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
