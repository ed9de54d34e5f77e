"""Experiment harness: configuration parsing, grid sweeps over SNR and
jamming power, parallel Monte-Carlo execution, and CSV export.

A sweep is a grid over (SNR, P_M, method). Channel realizations are the
parallel work items; every Monte-Carlo draw comes from a generator
derived from (seed, stream, realization, grid indices), so results are
byte-identical for any worker count. The SNR axis sets both receiver
noise variances to 10^(-snr/10) W (unit-power reference); the transmit
powers enter separately through the system configuration.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import metrics
from .beamformers import Method, ZfcInfeasibleError, compute_beamformer
from .channel import AN_MODES, SystemConfig, derive_rng, realize_channels
from .metrics import MetricsRecord, mutual_info_mc
from .modulation import build_codebook

# rng stream tags (channel sampling owns tag 0).
_STREAM_MI_BOB = 1
_STREAM_MI_EVE = 2
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
        for snr_db in self.snr_grid_db:
            try:
                nv = snr_to_noise_var(float(snr_db))
            except OverflowError:
                nv = math.inf
            if not 0.0 < nv < math.inf:
                raise ValueError(
                    f"snr_grid_db must give a finite, positive noise "
                    f"variance 10^(-snr/10), got {snr_db!r}")
        if not all(0.0 <= p < math.inf for p in self.p_m_list):
            raise ValueError("p_m_list must be finite and non-negative")
        for name in ("n_realizations", "n_noise", "n_ber_trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.an_mode not in AN_MODES:
            raise ValueError(f"an_mode must be one of {AN_MODES}")
        if not self.output_dir:
            raise ValueError("output_dir must be non-empty")


def check_feasible(cfg, spec):
    """Reject a (cfg, spec) pair that no realization could satisfy.

    Null-space artificial noise needs n_rx < n_active, or Bob's channel
    leaves no null space to hide the noise in. The message starts with
    the offending key.
    """
    if spec.an_mode == "nullspace" and cfg.n_rx >= cfg.n_active:
        raise ValueError(
            f"n_rx must be below n_active = {cfg.n_active} for null-space "
            f"artificial noise, got {cfg.n_rx}")


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
            if key not in lines:
                key = None
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


def _realization_task(args):
    """All per-realization work for every grid point.

    Returns {(snr_idx, pm_idx, method): (feasible, sr, sjnr,
    ber_uses, bit_errors, squared_errors)}. The attacker's rate is
    method-independent and computed once per grid point; Bob's rates for
    all feasible methods come from one stacked call, so they share one
    noise draw, and BER draws reuse one stream per grid point across
    methods (common random numbers), which sharpens method comparisons.
    """
    cfg, spec, r = args
    chset = realize_channels(cfg, r, an_mode=spec.an_mode)
    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    base, extra = divmod(spec.n_ber_trials, spec.n_realizations)
    ber_block = base + (1 if r < extra else 0)
    out = {}
    for si, snr_db in enumerate(spec.snr_grid_db):
        for pi, p_m in enumerate(spec.p_m_list):
            point = _point_config(cfg, snr_db, p_m)
            i_eve = mutual_info_mc(
                chset.u_er, "mallory", chset, point, spec.n_noise,
                derive_rng(cfg.seed, _STREAM_MI_EVE, r, si, pi))
            built = {}
            for method in spec.methods:
                try:
                    built[method] = compute_beamformer(method, chset, point).u
                except ZfcInfeasibleError:
                    out[si, pi, method] = (False, 0.0, 0.0, 0, 0, 0)
            if not built:
                continue
            i_bobs = mutual_info_mc(
                np.array(list(built.values())), "bob", chset,
                point, spec.n_noise,
                derive_rng(cfg.seed, _STREAM_MI_BOB, r, si, pi))
            for (method, u), i_bob in zip(built.items(), i_bobs.tolist()):
                sr = max(0.0, i_bob - i_eve)
                ratio = metrics.sjnr(u, chset, point)
                uses = errors = squared = 0
                if ber_block:
                    uses, errors, squared = metrics._ber_counts(
                        u, chset, point, codebook, ber_block,
                        derive_rng(cfg.seed, _STREAM_BER, r, si, pi))
                out[si, pi, method] = (True, sr, ratio, uses, errors,
                                       squared)
    return out


def run_sweep(cfg, spec, threads=1):
    """Run the full (SNR, P_M, method) grid and aggregate MetricsRecords.

    Realizations are independent work items reduced in index order, so
    the result is identical for any `threads` value. The pool has at
    most one worker per realization. An infeasible (cfg, spec) pair
    raises ValueError before any realization starts.
    """
    check_feasible(cfg, spec)
    tasks = [(cfg, spec, r) for r in range(spec.n_realizations)]
    workers = min(threads, spec.n_realizations)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, spec.n_realizations // (4 * workers))
            partials = list(pool.map(_realization_task, tasks,
                                     chunksize=chunk))
    else:
        partials = [_realization_task(t) for t in tasks]

    codebook = build_codebook(cfg.n_active, cfg.mod_order)
    bits = codebook.bits_per_use
    records = []
    for si, snr_db in enumerate(spec.snr_grid_db):
        for pi, p_m in enumerate(spec.p_m_list):
            for method in spec.methods:
                rows = [p[si, pi, method] for p in partials]
                srs = tuple(sr for ok, sr, *_ in rows if ok)
                ratios = [ratio for ok, _, ratio, *_ in rows if ok]
                uses = sum(row[3] for row in rows)
                errors = sum(row[4] for row in rows)
                squared = sum(row[5] for row in rows)
                infeasible = sum(1 for row in rows if not row[0])
                avg_sr = float(np.mean(srs)) if srs else float("nan")
                mean_ratio = float(np.mean(ratios)) if ratios else math.nan
                if mean_ratio > 0.0:
                    avg_sjnr_db = 10.0 * math.log10(mean_ratio)
                elif mean_ratio == 0.0:
                    avg_sjnr_db = -math.inf
                else:
                    avg_sjnr_db = math.nan
                ber = errors / (uses * bits) if uses else float("nan")
                records.append(MetricsRecord(
                    method=method, snr_db=float(snr_db), p_m=float(p_m),
                    avg_sr=avg_sr, ber=ber, avg_sjnr_db=avg_sjnr_db,
                    sr_samples=srs,
                    trial_counts={
                        "n_realizations": spec.n_realizations,
                        "n_feasible": len(srs),
                        "n_zfc_infeasible": infeasible,
                        "n_ber_uses": uses,
                        "n_bit_errors": errors,
                        "ber_squared_errors": squared,
                    }))
    return records


def _num_token(value):
    """Compact filename token for a grid value: -5, 5, 2.5, 1e+240, ...

    Whole values below 1e16 print as integers; larger ones keep the
    exponent form, so the file name stays short."""
    value = float(value)
    if abs(value) < 1e16 and value == int(value):
        return str(int(value))
    return repr(value)


def write_outputs(records, cfg, spec, out_dir=None):
    """Write results.csv, per-SNR secrecy-rate CDF tables, and a manifest.

    All files are UTF-8 with LF line endings; floats use shortest
    round-trip decimals, so identical records give identical bytes.
    """
    out = Path(out_dir) if out_dir is not None else Path(spec.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise RuntimeError(f"cannot write output directory {out}: {exc}")

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
