"""Benchmark of the qndprobe command line, end to end and per layer.

    python3 bench/run_bench.py --workload engine --seed 1 --seconds 50 --trace 0

Each workload is a closed loop with one client: a single process runs jobs
back to back, each one a fixed sequence of in-process ``qndprobe.cli.main``
calls whose arguments come from the workload seed (see ``workloads.py``).
Run it from the root of a source checkout; it imports ``src/qndprobe`` from
that checkout and nothing else.

``--trace 0`` times jobs with nothing wrapped and reports the end-to-end
metrics.  ``--trace 1`` alternates plain and traced jobs and reports the
per-layer metrics plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is one JSON object.  A fuller record
(provenance, every job's CSV digests and informational values) is written to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Job, non_finite_cells, read_csv  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 150
WORKLOAD_TIMEOUT_S = 600
# Array bytes read plus written per trial and pulse by the loop body of
# experiment.monte_carlo_sample at eps > 0 with the dropped terms off, counted
# from its numpy expressions (8-byte floats): two shot-noise draws 2x24, the
# meter increment 56, Jz 40, Jy 104, meter accumulation 24, depolarization of
# Jy, Jz, Jxy 3x64 and Jx 16.
MC_BYTES_PER_TRIAL_PULSE = 480
# Four dense complex D x D products per oracle pulse (the state and the
# cross-pulse correlation operator, each conjugated by U), 8 real flops each.
ORACLE_FLOP_PER_PULSE_PER_D3 = 32


def cap_blas_threads() -> None:
    """Cap BLAS at one thread per process; must run before numpy loads.

    With a thread per core an oracle job needs every core free: on a shared
    2-core host the IQR over median of its p90 across five runs was 68% with
    two threads and 6% with one.
    """
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_cli():
    """Import ``qndprobe.cli`` from this checkout's ``src``, refusing any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    from qndprobe import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"qndprobe imported from {cli.__file__}, not from {src}")
    return cli


@dataclass
class JobResult:
    wall_s: float
    cpu_s: float
    work: float
    failures: list
    info: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    bytes_written: int = 0
    traced: bool = False


def run_job(cli, workload, job: Job, workdir: Path) -> JobResult:
    """Run one job's cli.main calls back to back, timed; then check its outputs."""
    paths = {call.tag: workdir / f"{call.tag}.csv" for call in job.calls}
    for path in paths.values():
        path.unlink(missing_ok=True)
        Path(f"{path}.manifest").unlink(missing_ok=True)
    codes, failures = {}, []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        for call in job.calls:
            codes[call.tag] = cli.main([*call.argv, "--out", str(paths[call.tag])])
    except Exception:  # a crash fails this job, the loop goes on
        failures.append(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    result = JobResult(wall_s=wall, cpu_s=cpu, work=job.work, failures=failures)
    failures += [f"{tag}: exit code {code}" for tag, code in codes.items() if code != 0]
    if failures:
        return result
    try:
        outputs = {tag: read_csv(path) for tag, path in paths.items()}
        for tag, out in outputs.items():
            failures += [f"{tag}: non-finite value {cell}" for cell in non_finite_cells(out)]
        failures += workload.check(job, outputs)
        result.info = workload.info(job, outputs)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        failures.append(f"unreadable output: {exc!r}")
    for tag, path in paths.items():
        data = path.read_bytes() if path.exists() else b""
        result.digests[tag] = hashlib.sha256(data).hexdigest()[:16]
        manifest = Path(f"{path}.manifest")
        result.bytes_written += len(data) + (manifest.stat().st_size if manifest.exists() else 0)
    return result


def measure_setup(args) -> list:
    """Process start to the end of the warm-up job, in fresh processes."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "setup-done":
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        samples.append(float(lines[1]) - start)
    return samples


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def end_to_end_metrics(results: list, setup: list) -> dict:
    walls = [r.wall_s for r in results]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_ms_p50": (statistics.median(walls) * 1e3, "ms"),
        "job_ms_p90": (percentile(walls, 90) * 1e3, "ms"),
        "work_per_s": (sum(r.work for r in results) / sum(walls), "1/s"),
        "cpu_ms_per_job": (sum(r.cpu_s for r in results) / len(results) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer: Tracer, traced: list, plain: list) -> dict:
    n = len(traced)
    calls, incl, selft, nested = tracer.calls, tracer.inclusive_ns, tracer.self_ns, tracer.nested

    def per_job(name):
        return calls[name] / n

    def ms(name):
        return incl[name] / 1e6 / n

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_self_ms(layer):
        return sum(v for k, v in selft.items() if k.startswith(layer + ".")) / 1e6 / n

    sweep_points = tracer.sums["experiment.sweep_atom_number"]
    mc_trial_pulses = tracer.sums["experiment.monte_carlo_sample"]
    exact_pulses = tracer.sums["oracle.run_schedule_exact"]
    joint_dim = tracer.maxima.get("oracle.hermitian_unitary", 0)
    gflop_per_pulse = ORACLE_FLOP_PER_PULSE_PER_D3 * joint_dim ** 3 / 1e9
    overhead = (statistics.median(r.wall_s for r in traced)
                / statistics.median(r.wall_s for r in plain) - 1.0)
    return {
        "gaussian.apply_pulse.calls": (per_job("gaussian.apply_pulse"), "count"),
        "gaussian.run_schedule.calls": (per_job("gaussian.run_schedule"), "count"),
        "gaussian.run_schedule.ms": (ms("gaussian.run_schedule"), "ms"),
        "gaussian.us_per_pulse": (ratio(incl["gaussian.apply_pulse"] / 1e3, calls["gaussian.apply_pulse"]), "us"),
        "gaussian.check_psd.calls": (per_job("gaussian.check_psd"), "count"),
        "gaussian.check_psd.ms": (ms("gaussian.check_psd"), "ms"),
        "gaussian.apply_decoherence.calls": (per_job("gaussian.apply_decoherence"), "count"),
        "gaussian.pulses_per_sweep_point": (
            ratio(nested[("experiment.sweep_atom_number", "gaussian.apply_pulse")], sweep_points), "pulses/point"),
        "experiment.sweep_atom_number.ms": (ms("experiment.sweep_atom_number"), "ms"),
        "experiment.sweep_atom_number.points": (sweep_points / n, "count"),
        "experiment.fit_linear_quadratic.ms": (ms("experiment.fit_linear_quadratic"), "ms"),
        "experiment.quadratic_suppression_curve.ms": (ms("experiment.quadratic_suppression_curve"), "ms"),
        "experiment.dropped_terms_impact.ms": (ms("experiment.dropped_terms_impact"), "ms"),
        "experiment.self_ms": (layer_self_ms("experiment"), "ms"),
        "experiment.monte_carlo_sample.ms": (ms("experiment.monte_carlo_sample"), "ms"),
        "experiment.mc.ns_per_trial_pulse": (ratio(incl["experiment.monte_carlo_sample"], mc_trial_pulses), "ns"),
        "experiment.mc.bytes_per_trial_pulse_computed": (
            MC_BYTES_PER_TRIAL_PULSE if mc_trial_pulses else 0, "B"),
        "oracle.oracle_vs_gaussian.ms": (ms("oracle.oracle_vs_gaussian"), "ms"),
        "oracle.build_joint_operators.ms": (ms("oracle.build_joint_operators"), "ms"),
        "oracle.build_heff.ms": (ms("oracle.build_heff"), "ms"),
        "oracle.hermitian_unitary.calls": (per_job("oracle.hermitian_unitary"), "count"),
        "oracle.hermitian_unitary.ms": (ms("oracle.hermitian_unitary"), "ms"),
        "oracle.run_schedule_exact.ms": (ms("oracle.run_schedule_exact"), "ms"),
        "oracle.ms_per_pulse": (ratio(incl["oracle.run_schedule_exact"] / 1e6, exact_pulses), "ms"),
        "oracle.joint_dim": (joint_dim, "count"),
        "oracle.gflop_per_pulse_computed": (gflop_per_pulse, "GFLOP"),
        "oracle.gflops_achieved": (
            ratio(gflop_per_pulse * exact_pulses, incl["oracle.run_schedule_exact"] / 1e9), "GFLOP/s"),
        "operators.build_spin_operators.calls": (per_job("operators.build_spin_operators"), "count"),
        "operators.build_spin_operators.ms": (ms("operators.build_spin_operators"), "ms"),
        "operators.build_stokes_operators.calls": (per_job("operators.build_stokes_operators"), "count"),
        "operators.build_stokes_operators.ms": (ms("operators.build_stokes_operators"), "ms"),
        "cli.main.calls": (per_job("cli.main"), "count"),
        "cli.self_ms": (layer_self_ms("cli"), "ms"),
        "cli.bytes_written": (statistics.mean(r.bytes_written for r in traced), "B"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


TRACE_PROBES = {
    "experiment.sweep_atom_number": lambda args, kwargs, rows: len(rows),
    "experiment.monte_carlo_sample": lambda args, kwargs, mc: mc.trials * len(args[1]),
    "oracle.run_schedule_exact": lambda args, kwargs, record: len(record.meter_var),
    "oracle.hermitian_unitary": lambda args, kwargs, u: u.shape[0],
}


def run_loop(cli, workload, rng: random.Random, seconds: float, workdir: Path, tracer=None):
    """Closed loop until ``seconds`` have passed; with a tracer, every other job is traced."""
    plain, traced, mismatches = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        job = workload.make_job(rng)
        if tracer is not None and len(plain) > len(traced):
            before = dict(tracer.calls)
            with tracer:
                result = run_job(cli, workload, job, workdir)
            result.traced = True
            counted = {name: tracer.calls[name] - before.get(name, 0) for name in job.expected_counts}
            bad = {name: (want, counted[name]) for name, want in job.expected_counts.items()
                   if counted[name] != want}
            if bad:
                mismatches.append(bad)
            traced.append(result)
        else:
            plain.append(result := run_job(cli, workload, job, workdir))
        enough = tracer is None or traced
        if enough and time.perf_counter() >= deadline:
            return plain, traced, mismatches


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics and tracing overhead")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Run every workload in its own process, one after another, passing on their reports."""
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    cap_blas_threads()
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        warm = run_job(cli, workload, workload.make_job(rng), workdir)
        if args.setup_probe:
            print("setup-done", repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
            return 0
        setup = [] if args.trace else measure_setup(args)
        tracer = Tracer(probes=TRACE_PROBES) if args.trace else None
        plain, traced, mismatches = run_loop(cli, workload, rng, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = plain + traced
    failed = [r for r in results if r.failures]
    if args.trace:
        metrics = layer_metrics(tracer, traced, plain)
    else:
        metrics = end_to_end_metrics(results, setup)
    prov = provenance(args.seed)

    print(f"qndprobe benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"closed loop, 1 client: {len(results)} jobs in {sum(r.wall_s for r in results):.3f} s "
          f"of job time; work unit: {workload.unit}; failed_frac = {len(failed) / len(results):.6g}")
    if args.trace:
        print(f"per-layer figures are per job over {len(traced)} traced jobs; "
              f"overhead against {len(plain)} plain jobs")
        print("count self-check: " + ("pass" if not mismatches else
                                      f"FAIL in {len(mismatches)} jobs, first {mismatches[0]}"))
    else:
        print(f"job_ms_p50 and job_ms_p90 over n = {len(results)} jobs; "
              f"setup_s median of {len(setup)} fresh processes")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"informational, not gated (first job): {results[0].info}")
    for r in failed[:5]:
        print("failed job: " + " | ".join(r.failures), file=sys.stderr)

    record = {
        "workload": args.workload, "trace": args.trace, "provenance": prov,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "setup_samples_s": setup,
        "count_mismatches": mismatches,
        "warm_up_failures": warm.failures,
        "jobs": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "traced": r.traced, "failures": r.failures,
                  "digests": r.digests, "info": r.info} for r in results],
    }
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not failed and not warm.failures,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
