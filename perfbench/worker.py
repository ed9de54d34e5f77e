"""One benchmark process: repeated `simulate`-path sweeps of a workload.

Run by run.py, never by hand. Each sweep is parse_config, run_sweep and
write_outputs on the workload document, the calls `simulate` makes.

  sweep   untraced sweeps at the given --threads until --seconds have
          passed (and at least --min-repeats), gated for correctness
  trace   alternating untraced and traced sweeps at --threads 1; for a
          pool workload also untraced sweeps at its own --threads

The result is written as JSON to --result; stdout is free for progress.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import gate
import tracing
from workloads import WORKLOADS

TRACE_MIN_PAIRS = 2
POOL_SWEEPS = 3


def _cpu(who):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def one_sweep(harness, text, threads, out_dir, tracer=None):
    """parse + sweep + export; returns (records, wall, parent, child CPU)."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    cpu_self = _cpu(resource.RUSAGE_SELF)
    cpu_children = _cpu(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    with span("harness.parse"):
        cfg, spec = harness.parse_config(text)
    with span("harness.sweep"):
        records = harness.run_sweep(cfg, spec, threads=threads)
    with span("harness.export"):
        harness.write_outputs(records, cfg, spec, out_dir)
    wall = time.perf_counter() - started
    return (records, wall, _cpu(resource.RUSAGE_SELF) - cpu_self,
            _cpu(resource.RUSAGE_CHILDREN) - cpu_children)


class Tally:
    """Sweep outcomes: attempted and failed grid cells, gate failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, records, out_dir):
        self.attempted += self.workload.grid_cells()
        self.failed += gate.failed_cells(records)
        for msg in (gate.check_records(records, self.workload)
                    + gate.check_outputs(out_dir, records)):
            if msg not in self.failures:
                self.failures.append(msg)

    def crashed(self, exc_text):
        self.attempted += self.workload.grid_cells()
        self.failed += self.workload.grid_cells()
        self.failures.append(f"sweep raised: {exc_text}")


def export_bytes(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).iterdir()
               if p.is_file())


def sweep_mode(harness, text, args, tally):
    runs = []
    deadline = time.perf_counter() + args.seconds
    while (len(runs) < args.min_repeats
           or time.perf_counter() < deadline):
        records, wall, cpu_p, cpu_c = one_sweep(harness, text, args.threads,
                                                args.out)
        tally.add(records, args.out)
        runs.append({"wall_s": wall, "parent_cpu_s": cpu_p,
                     "child_cpu_s": cpu_c})
    return {"runs": runs}


def layer_metrics(tracer, wall):
    """The per-layer metrics of one traced sweep."""
    layers = tracing.summarize(tracer.spans)
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "work": []}

    def get(name):
        return layers.get(name, empty)

    kernel = get("kernels.mi")
    shapes = [w for w in kernel["work"] if isinstance(w, tuple)]
    exp_evals = sum(k * k * t for k, t in shapes)
    # inputs (K x K diffs, K x T noise, complex128) plus one float64
    # exponent per exponential, computed from the argument shapes
    kernel_bytes = sum(16 * k * k + 16 * k * t + 8 * k * k * t
                       for k, t in shapes)
    ber = get("metrics.ber")
    trials = sum(w for w in ber["work"] if isinstance(w, int))
    build = get("beamformers.build")
    bob, mallory = get("metrics.mi_bob"), get("metrics.mi_mallory")
    return {
        "kernels.mi_calls": kernel["calls"],
        "kernels.mi_s": kernel["self_s"],
        "kernels.mi_exp_evals": exp_evals,
        "kernels.mi_exp_per_s": (exp_evals / kernel["self_s"]
                                 if kernel["self_s"] else 0.0),
        "kernels.mi_bytes_computed": kernel_bytes,
        "metrics.mi_bob_calls": bob["calls"],
        "metrics.mi_bob_s": bob["incl_s"],
        "metrics.mi_mallory_calls": mallory["calls"],
        "metrics.mi_mallory_s": mallory["incl_s"],
        "metrics.mi_overhead_s": bob["self_s"] + mallory["self_s"],
        "metrics.ber_s": ber["self_s"],
        "metrics.ber_trials": trials,
        "metrics.ber_us_per_trial": (1e6 * ber["incl_s"] / trials
                                     if trials else 0.0),
        "metrics.sjnr_s": get("metrics.sjnr")["self_s"],
        "modulation.codebook_builds": get("modulation.codebook")["calls"],
        "modulation.codebook_s": get("modulation.codebook")["self_s"],
        "channel.realize_calls": get("channel.realize")["calls"],
        "channel.realize_s": get("channel.realize")["self_s"],
        "beamformers.build_calls": build["calls"],
        "beamformers.build_s": build["self_s"],
        "beamformers.zfc_infeasible": build["work"].count(
            "ZfcInfeasibleError"),
        "numerics.calls": get("numerics")["calls"],
        "numerics.s": get("numerics")["self_s"],
        "harness.parse_s": get("harness.parse")["self_s"],
        "harness.sweep_self_s": get("harness.sweep")["self_s"],
        "harness.export_s": get("harness.export")["self_s"],
        "trace.sweep_s": wall,
        "trace.accounted_frac": (sum(v["self_s"] for v in layers.values())
                                 / wall),
        "trace.spans": len(tracer.spans),
        "trace.absent_hooks": len(tracer.absent),
    }


def trace_mode(harness, text, args, tally):
    tracer = tracing.Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while len(traced) < TRACE_MIN_PAIRS or time.perf_counter() < deadline:
        records, wall, cpu_p, cpu_c = one_sweep(harness, text, 1, args.out)
        tally.add(records, args.out)
        untraced.append({"wall_s": wall, "parent_cpu_s": cpu_p,
                         "child_cpu_s": cpu_c})
        tracer.reset()
        tracer.install()
        try:
            records, wall, _, _ = one_sweep(harness, text, 1, args.out,
                                            tracer)
        finally:
            tracer.uninstall()
        tally.add(records, args.out)
        traced.append(layer_metrics(tracer, wall))
    pool = untraced
    if args.threads > 1:
        pool = []
        for _ in range(POOL_SWEEPS):
            records, wall, cpu_p, cpu_c = one_sweep(harness, text,
                                                    args.threads, args.out)
            tally.add(records, args.out)
            pool.append({"wall_s": wall, "parent_cpu_s": cpu_p,
                         "child_cpu_s": cpu_c})
    spans_path = Path(args.result).with_name("spans.json")
    spans_path.write_text(json.dumps({"absent": tracer.absent,
                                      "spans": tracer.spans}))
    return {"untraced": untraced, "traced": traced, "pool": pool,
            "absent": tracer.absent,
            "export_bytes": export_bytes(args.out)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("sweep", "trace"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-repeats", type=int, default=3)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    text = Path(args.config).read_text(encoding="utf-8")
    from secsm import harness

    tally = Tally(workload)
    result = {}
    try:
        mode = sweep_mode if args.mode == "sweep" else trace_mode
        result = mode(harness, text, args, tally)
    except Exception:
        traceback.print_exc()
        tally.crashed(traceback.format_exc(limit=1).strip().splitlines()[-1])
    result.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.failures,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
