"""Workloads of the qndprobe benchmark: job generators, output checks, counts.

A job is a fixed sequence of ``qndprobe.cli.main(argv)`` calls.  Every job's
arguments are drawn from a ``random.Random`` seeded with the workload seed,
so the same seed gives the same jobs.  For each job the generator also
states the work it completes (in the workload's unit) and the number of
calls into each traced layer that its inputs imply, which the traced run
compares with what the tracer counted.

Two workloads: ``engine`` chains the NA sweeps, the long trains and the
Monte Carlo of the Gaussian engine in one job; ``oracle`` runs the exact
oracle.

``check`` gates only model-independent invariants; ``info`` records values
a model change may legitimately move (c2(p), ratios), never gating them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Call:
    tag: str
    argv: tuple


@dataclass(frozen=True)
class Job:
    calls: tuple
    work: float
    expected_counts: dict


@dataclass(frozen=True)
class CsvOutput:
    header: list
    rows: list
    footer: dict

    def column(self, name: str) -> list:
        i = self.header.index(name)
        return [float(row[i]) for row in self.rows]


def read_csv(path: Path) -> CsvOutput:
    """Parse a qndprobe CSV: header row, data rows, ``# key = value`` footer."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    footer = {}
    for line in lines[1:]:
        if line.startswith("# ") and " = " in line:
            key, value = line[2:].split(" = ", 1)
            footer[key] = value
    return CsvOutput(header, rows, footer)


def non_finite_cells(out: CsvOutput) -> list:
    """Every numeric cell and footer value that is NaN or infinite."""
    bad = []
    for cell in [c for row in out.rows for c in row] + list(out.footer.values()):
        try:
            value = float(cell)
        except ValueError:
            continue
        if not math.isfinite(value):
            bad.append(cell)
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    make_job: Callable
    check: Callable
    info: Callable


def _grid(rng: random.Random) -> tuple:
    """Seed-jittered atom-number range around the default 1e4 .. 2e6."""
    na_min = 10 ** rng.uniform(3.9, 4.1)
    na_max = 10 ** rng.uniform(6.2, 6.4)
    return ("--na-min", repr(na_min), "--na-max", repr(na_max))


def _footer_float(out: CsvOutput, key: str) -> float:
    return float(out.footer[key])


# --- engine part 1: NA sweeps ----------------------------------------------

SWEEP_POINTS = 100
NAIVE_PULSES = 10
SWEEP_P = 5
SUPPRESSION_P = (1, 2, 4, 8, 16, 32, 64)
SUPPRESSION_POINTS = 8
PROJECTION_RTOL = 1e-9


def _na_sweep_part(rng: random.Random) -> tuple:
    grid = _grid(rng)
    dense = grid + ("--na-points", str(SWEEP_POINTS))
    calls = (
        Call("naive", ("sweep", "--mode", "naive", "--pulses", str(NAIVE_PULSES)) + dense),
        Call("decoupled", ("sweep", "--p", str(SWEEP_P)) + dense),
        Call("ideal", ("sweep", "--p", str(SWEEP_P), "--g2", "0") + dense),
        Call("c2", ("suppression", "--p-values", ",".join(map(str, SUPPRESSION_P)))
             + grid + ("--na-points", str(SUPPRESSION_POINTS))),
    )
    sweeps = 3 + len(SUPPRESSION_P)
    points = 3 * SWEEP_POINTS + len(SUPPRESSION_P) * SUPPRESSION_POINTS
    pulses = (NAIVE_PULSES + 2 * 2 * SWEEP_P) * SWEEP_POINTS + 2 * sum(SUPPRESSION_P) * SUPPRESSION_POINTS
    counts = {
        "cli.main": len(calls),
        "experiment.sweep_atom_number": sweeps,
        "experiment.fit_linear_quadratic": sweeps,
        "experiment.quadratic_suppression_curve": 1,
        "gaussian.run_schedule": points,
        "gaussian.apply_pulse": pulses,
        "gaussian.apply_decoherence": pulses,
        "gaussian.check_psd": pulses,
    }
    return calls, counts


def _na_sweep_check(job: Job, outputs: dict) -> list:
    ideal = outputs["ideal"]
    worst = max(
        abs(v - line) / line
        for v, line in zip(ideal.column("normalized_meter_var"), ideal.column("projection_line"))
    )
    if worst > PROJECTION_RTOL:
        return [f"g2=0 sweep is {worst:.3e} (relative) off the projection-noise line"]
    return []


def _na_sweep_info(job: Job, outputs: dict) -> dict:
    c2_naive = _footer_float(outputs["naive"], "c2")
    c2_decoupled = _footer_float(outputs["decoupled"], "c2")
    return {
        "c2_naive": c2_naive,
        "c2_decoupled": c2_decoupled,
        "naive_over_decoupled_c2": c2_naive / c2_decoupled if c2_decoupled else None,
        "c2_of_p": {int(p): c2 for p, c2 in zip(outputs["c2"].column("p"), outputs["c2"].column("c2"))},
    }


# --- engine part 2: long trains ---------------------------------------------

LONG_P = (990, 1010)
LONG_SWEEP_POINTS = 4
LONG_EPS = "1e-6"


def _long_train_part(rng: random.Random) -> tuple:
    p = rng.randint(*LONG_P)
    na = 10 ** rng.uniform(5.5, 6.3)
    common = ("--p", str(p), "--eps", LONG_EPS)
    calls = (
        Call("impact", ("impact", "--na", repr(na)) + common),
        Call("sweep", ("sweep",) + common + _grid(rng)
             + ("--na-points", str(LONG_SWEEP_POINTS), "--dropped")),
    )
    train = 2 * p
    trains = 2 + LONG_SWEEP_POINTS  # impact runs the train with and without the dropped terms
    counts = {
        "cli.main": len(calls),
        "experiment.dropped_terms_impact": 1,
        "experiment.sweep_atom_number": 1,
        "experiment.fit_linear_quadratic": 1,
        "gaussian.run_schedule": trains,
        "gaussian.apply_pulse": trains * train,
        "gaussian.apply_decoherence": trains * train,
        "gaussian.check_psd": LONG_SWEEP_POINTS * train,
    }
    return calls, counts


def _long_train_info(job: Job, outputs: dict) -> dict:
    return {
        "impact_ratio": outputs["impact"].column("relative_var_jz_increase")[0],
        "c2_dropped": _footer_float(outputs["sweep"], "c2"),
    }


# --- engine part 3: Monte Carlo ---------------------------------------------

MC_TRIALS = 100_000
MC_P = 5
MC_EPS = "1e-4"
MC_MAX_STDERR = 5.0


def _montecarlo_part(rng: random.Random) -> tuple:
    calls = (
        Call("mc", ("montecarlo", "--trials", str(MC_TRIALS), "--p", str(MC_P),
                    "--eps", MC_EPS, "--seed", str(rng.randrange(2 ** 31)))),
    )
    train = 2 * MC_P
    counts = {
        "cli.main": 1,
        "experiment.monte_carlo_sample": 1,
        "gaussian.run_schedule": 1,  # the analytic var(M) the sample is compared with
        "gaussian.apply_pulse": train,
        "gaussian.apply_decoherence": train,
        "gaussian.check_psd": 0,
    }
    return calls, counts


def _montecarlo_check(job: Job, outputs: dict) -> list:
    mc = outputs["mc"]
    sampled = mc.column("sampled_meter_var")[0]
    stderr = mc.column("stderr")[0]
    analytic = mc.column("analytic_meter_var")[0]
    if abs(sampled - analytic) > MC_MAX_STDERR * stderr:
        return [f"Monte Carlo var(M) {sampled:.6g} is more than {MC_MAX_STDERR:g} stderr "
                f"({stderr:.3g}) from the analytic {analytic:.6g}"]
    return []


def _montecarlo_info(job: Job, outputs: dict) -> dict:
    mc = outputs["mc"]
    return {"z_score": (mc.column("sampled_meter_var")[0] - mc.column("analytic_meter_var")[0])
            / mc.column("stderr")[0]}


# --- oracle ---------------------------------------------------------------

ORACLE_NA = 4
ORACLE_N_PH = 4
ORACLE_P = 2
ORACLE_G = (5e-4, 2e-3)
# measured 4e-6 .. 1.3e-4 for g <= 3e-3 at this na, n_ph and p
ORACLE_TOL = 1e-3
ALGEBRA_TOL = 1e-12
ALGEBRA_SPINS = 4  # f = 1/2, 1, 3/2, 2: the algebra-check default


def _oracle_job(rng: random.Random) -> Job:
    g1, g2 = rng.uniform(*ORACLE_G), rng.uniform(*ORACLE_G)
    calls = (
        Call("oracle", ("oracle-compare", "--oracle-na", str(ORACLE_NA), "--n-ph", str(ORACLE_N_PH),
                        "--p", str(ORACLE_P), "--g1", repr(g1), "--g2", repr(g2))),
        Call("algebra", ("algebra-check",)),
    )
    train = 2 * ORACLE_P
    counts = {
        "cli.main": len(calls),
        "oracle.oracle_vs_gaussian": 1,
        "oracle.run_schedule_exact": 1,
        # one fresh coupling per job: one workspace, one eigendecomposition
        "oracle.build_joint_operators": 1,
        "oracle.build_heff": 1,
        "oracle.hermitian_unitary": 1,
        "gaussian.apply_pulse": train,
        # joint operators + single-atom moments + one set per algebra-check spin
        "operators.build_spin_operators": 2 + ALGEBRA_SPINS,
        # joint operators + the workspace's photon-sector operators
        "operators.build_stokes_operators": 2,
    }
    return Job(calls, work=train, expected_counts=counts)


def _oracle_check(job: Job, outputs: dict) -> list:
    failures = []
    deviation = _footer_float(outputs["oracle"], "max_first_moment_deviation")
    if not deviation < ORACLE_TOL:
        failures.append(f"oracle first-moment deviation {deviation:.3e} >= {ORACLE_TOL:g}")
    residual = _footer_float(outputs["algebra"], "max_residual")
    if not residual < ALGEBRA_TOL:
        failures.append(f"algebra residual {residual:.3e} >= {ALGEBRA_TOL:g}")
    return failures


def _oracle_info(job: Job, outputs: dict) -> dict:
    return {"max_first_moment_deviation": _footer_float(outputs["oracle"], "max_first_moment_deviation")}


# --- engine -----------------------------------------------------------------


def _engine_job(rng: random.Random) -> Job:
    calls, counts = (), Counter()
    for part in (_na_sweep_part, _long_train_part, _montecarlo_part):
        part_calls, part_counts = part(rng)
        calls += part_calls
        counts.update(part_counts)
    return Job(calls, work=1, expected_counts=dict(counts))


def _engine_check(job: Job, outputs: dict) -> list:
    return _na_sweep_check(job, outputs) + _montecarlo_check(job, outputs)


def _engine_info(job: Job, outputs: dict) -> dict:
    return {**_na_sweep_info(job, outputs), **_long_train_info(job, outputs),
            **_montecarlo_info(job, outputs)}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("engine", "jobs", _engine_job, _engine_check, _engine_info),
        Workload("oracle", "oracle pulses", _oracle_job, _oracle_check, _oracle_info),
    )
}
