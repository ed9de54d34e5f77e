#!/usr/bin/env python3
"""secsm sweep benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sr_sweep --seed 1 --seconds 25 \
        --trace 0

Runs the workload through the path `simulate` takes (parse_config,
run_sweep, write_outputs) from the source tree next to this directory,
checks the outputs, prints one line per metric and, as the last line of
stdout, one JSON object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics (untraced):
  sweep_s       median wall time of parse + sweep + export
  setup_s       median, over fresh interpreters, of import secsm +
                parse_config of the workload document
  peak_rss_mb   peak resident memory of the sweep process plus the sum of
                its pool processes' peaks
  mi_rmse_bits  RMS error of metrics.mutual_info_mc against a
                Gauss-Hermite reference over fixed probes (not timed)
  ok_frac       share of attempted grid cells with a finite result
--trace 1 reports the per-layer metrics from a traced --threads 1 sweep
plus untraced sweeps for the tracing overhead and the pool figures.

Exit status: 0 when the correctness gate passes, 1 when it fails (the
result line is still printed), 2 when the benchmark cannot run at all.
See README.md in this directory for the metric definitions.
"""

import os

# Before numpy loads anywhere, here or in a child: one BLAS/OpenMP thread
# per process, so a --threads 2 pool never runs more threads than cores.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import mi_reference  # noqa: E402
from workloads import WORKLOADS, config_document  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mi_rmse_bits": "bits",
    "ok_frac": "ratio",
}
PER_LAYER = {
    "kernels.mi_calls": "count",
    "kernels.mi_s": "s",
    "kernels.mi_exp_evals": "count",
    "kernels.mi_exp_per_s": "1/s",
    "kernels.mi_bytes_computed": "B",
    "metrics.mi_bob_calls": "count",
    "metrics.mi_bob_s": "s",
    "metrics.mi_mallory_calls": "count",
    "metrics.mi_mallory_s": "s",
    "metrics.mi_overhead_s": "s",
    "metrics.ber_s": "s",
    "metrics.ber_trials": "count",
    "metrics.ber_us_per_trial": "us",
    "metrics.sjnr_s": "s",
    "modulation.codebook_builds": "count",
    "modulation.codebook_s": "s",
    "channel.realize_calls": "count",
    "channel.realize_s": "s",
    "beamformers.build_calls": "count",
    "beamformers.build_s": "s",
    "beamformers.zfc_infeasible": "count",
    "numerics.calls": "count",
    "numerics.s": "s",
    "harness.parse_s": "s",
    "harness.sweep_self_s": "s",
    "harness.export_s": "s",
    "harness.export_bytes": "B",
    "harness.pool_child_cpu_s": "s",
    "harness.pool_parent_cpu_s": "s",
    "harness.pool_utilization": "ratio",
    "trace.sweep_s": "s",
    "trace.untraced_sweep_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.spans": "count",
    "trace.absent_hooks": "count",
}

SETUP_RUNS = 15
# every process this run starts ends before this many seconds
RUN_LIMIT_S = 170.0
POLL_S = 0.025


def _descendants(pid):
    """Live descendant pids of pid, from /proc."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                kids = Path(f"/proc/{parent}/task/{tid}/children").read_text()
            except OSError:
                continue
            for kid in map(int, kids.split()):
                found.append(kid)
                todo.append(kid)
    return found


def _hwm_kb(pid):
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Runner:
    """Starts the benchmark's child processes and waits for each."""

    def __init__(self, env):
        self.env = env
        self.started = time.monotonic()

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def run(self, argv):
        """Run argv to completion; returns (exit code, stdout, peak KiB of
        its descendants). A run past the time limit is killed."""
        proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                cwd=ROOT, stdout=subprocess.PIPE, text=True)
        peak = 0
        try:
            while proc.poll() is None:
                if self.remaining() <= 0:
                    for pid in [*_descendants(proc.pid), proc.pid]:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:
                            pass
                    break
                peak = max(peak, sum(map(_hwm_kb, _descendants(proc.pid))))
                time.sleep(POLL_S)
        finally:
            out, _ = proc.communicate()
        return proc.returncode, out, peak


def _median(values):
    return statistics.median(values) if values else None


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def environment():
    import numpy

    import secsm
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernel_backend": secsm.kernel_backend,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "thread_vars": {var: os.environ[var] for var in THREAD_VARS},
    }


def worker(runner, mode, workload, args, work, threads, seconds,
           min_repeats=3):
    """Run perfbench/worker.py; returns (result dict or None, peak KiB)."""
    out = work / f"out-{mode}-t{threads}"
    result = work / f"{mode}-t{threads}.json"
    argv = [str(HERE / "worker.py"), mode, "--workload", workload.name,
            "--config", str(work / "workload.cfg"), "--out", str(out),
            "--threads", str(threads), "--seconds", str(seconds),
            "--min-repeats", str(min_repeats), "--result", str(result)]
    if args.tiny:
        argv.append("--tiny")
    code, _, peak = runner.run(argv)
    if code != 0 or not result.is_file():
        return None, peak
    return json.loads(result.read_text()), peak


def end_to_end(runner, workload, args, work, report):
    config = work / "workload.cfg"
    setups = []
    for _ in range(3 if args.tiny else SETUP_RUNS):
        code, out, _ = runner.run([str(HERE / "setup_probe.py"), str(config)])
        if code != 0:
            report.fail("setup probe failed")
            break
        setups.append(float(out.strip().splitlines()[-1]))

    sweep, peak_kb = worker(runner, "sweep", workload, args, work,
                            workload.threads, args.seconds)
    if sweep is None:
        report.crash(workload, "sweep worker failed")
        return {"setup_s": _median(setups)}
    report.add_worker(sweep)
    report.raw["sweep"] = sweep
    metrics = {
        "sweep_s": _median([r["wall_s"] for r in sweep["runs"]]),
        "setup_s": _median(setups),
        "peak_rss_mb": (sweep["maxrss_kb"] + peak_kb) / 1024.0,
    }

    if workload.reference:
        ref, _ = worker(runner, "sweep", workload, args, work, 1, 0,
                        min_repeats=1)
        if ref is None:
            report.crash(workload, "reference sweep worker failed")
        else:
            report.add_worker(ref)
            report.failures += [
                f"determinism: {msg}" for msg in gate.check_identical(
                    work / f"out-sweep-t{workload.threads}",
                    work / "out-sweep-t1")]

    from secsm import harness
    cfg, _ = harness.parse_config(config.read_text(encoding="utf-8"))
    try:
        rmse, probes, delta = mi_reference.probe(cfg, workload)
    except Exception as exc:  # a library change broke the probe: report it
        report.fail(f"MI probe raised {type(exc).__name__}: {exc}")
        return metrics
    report.raw["mi_probe"] = {"probes": probes, "gh_order_delta_bits": delta}
    if not delta < mi_reference.CONVERGED_BITS:
        report.fail(f"Gauss-Hermite reference not converged: orders "
                    f"{mi_reference.GH_ORDER} and "
                    f"{2 * mi_reference.GH_ORDER} differ by {delta:.2e} bits")
    metrics["mi_rmse_bits"] = rmse
    metrics["ok_frac"] = 1.0 - report.failed / report.attempted
    return metrics


def per_layer(runner, workload, args, work, report):
    traced, _ = worker(runner, "trace", workload, args, work,
                       workload.threads, args.seconds)
    if traced is None:
        report.crash(workload, "trace worker failed")
        return {}
    report.add_worker(traced)
    report.raw["trace"] = {k: v for k, v in traced.items() if k != "traced"}
    if traced["absent"]:
        print(f"absent hooks (reported as zero calls): "
              f"{', '.join(traced['absent'])}")
    metrics = {name: _median([rep[name] for rep in traced["traced"]])
               for name in traced["traced"][0]}
    untraced = _median([r["wall_s"] for r in traced["untraced"]])
    metrics["trace.untraced_sweep_s"] = untraced
    metrics["trace.overhead_frac"] = metrics["trace.sweep_s"] / untraced - 1.0
    metrics["harness.export_bytes"] = traced["export_bytes"]
    pool = traced["pool"]
    threads = workload.threads
    metrics["harness.pool_child_cpu_s"] = _median(
        [r["child_cpu_s"] for r in pool])
    metrics["harness.pool_parent_cpu_s"] = _median(
        [r["parent_cpu_s"] for r in pool])
    # without a pool the sweep's CPU is the process's own
    busy = "child_cpu_s" if threads > 1 else "parent_cpu_s"
    metrics["harness.pool_utilization"] = _median(
        [r[busy] / (threads * r["wall_s"]) for r in pool])
    return metrics


class Report:
    """Attempted and failed grid cells and the gate's failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.raw = {}

    def fail(self, msg):
        self.failures.append(msg)

    def crash(self, workload, msg):
        self.attempted += workload.grid_cells()
        self.failed += workload.grid_cells()
        self.fail(msg)

    def add_worker(self, result):
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.failures += result["failures"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few-second size, for the self-tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "secsm" / "__init__.py").is_file():
        print(f"error: no secsm source tree at {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from secsm import harness

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    results = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    (work / "workload.cfg").write_text(
        config_document(harness.default_config_text(), workload, args.seed,
                        "bench_out"), encoding="utf-8")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    runner = Runner(env)
    report = Report()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(runner, workload, args, work, report)
    units = PER_LAYER if args.trace else END_TO_END
    correct = not report.failures and report.attempted > 0 and all(
        metrics.get(name) is not None for name in units)

    env_record = environment()
    print(f"env {json.dumps(env_record, sort_keys=True)}")
    print(f"workload {workload.name}: seed {args.seed}, "
          f"threads {workload.threads}, "
          f"{report.attempted} grid cells attempted, {report.failed} failed")
    for name, unit in units.items():
        print(f"metric {name} = {metrics.get(name)} {unit}")
    for msg in report.failures:
        print(f"gate FAIL: {msg}")
    print(f"gate {'PASS' if correct else 'FAIL'}")

    summary = {
        "correct": correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    spans = work / "spans.json"
    if spans.is_file():
        shutil.move(spans, results / f"{tag}-spans.json")
    (results / f"{tag}.json").write_text(json.dumps(
        {**summary, "env": env_record, "workload": workload.name,
         "seed": args.seed, "failures": report.failures, "raw": report.raw},
        indent=1))
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
