"""Self-test of the qndprobe benchmark; run with ``python3 -m pytest bench/selftest.py``.

The file name keeps it out of the repository's default test collection.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest

import run_bench
from tracer import Tracer
from workloads import WORKLOADS, CsvOutput, non_finite_cells

CLI = run_bench.import_cli()
from qndprobe.gaussian import GaussianState  # noqa: E402  (importable once src is on the path)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_equal_counts_implied_by_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    rng = random.Random(7)
    warm = run_bench.run_job(CLI, workload, workload.make_job(rng), tmp_path)
    assert warm.failures == []
    tracer = Tracer(probes=run_bench.TRACE_PROBES)
    plain, traced, mismatches = run_bench.run_loop(CLI, workload, rng, 0.0, tmp_path, tracer)
    assert len(plain) == len(traced) == 1
    assert [r.failures for r in plain + traced] == [[], []]
    assert mismatches == []


def test_tracer_restores_every_binding():
    tracer = Tracer()
    targets = tracer.targets()
    bindings = [(owner, attr, obj) for obj, owners in targets.values() for owner, attr in owners]
    with tracer:
        assert all(getattr(owner, attr) is not obj for owner, attr, obj in bindings)
    assert all(getattr(owner, attr) is obj for owner, attr, obj in bindings)


def test_tracer_wraps_every_namespace_that_imported_a_name():
    targets = Tracer().targets()

    def modules(name):
        return {owner.__name__.rsplit(".", 1)[-1] for owner, _ in targets[name][1]}

    assert {"experiment", "cli", "gaussian"} <= modules("gaussian.run_schedule")
    assert {"gaussian", "oracle"} <= modules("gaussian.apply_pulse")
    assert {"gaussian", "oracle", "cli", "operators"} <= modules("operators.build_spin_operators")
    assert targets["gaussian.check_psd"][1] == [(GaussianState, "check_psd")]


def test_same_seed_same_jobs():
    for workload in WORKLOADS.values():
        a, b = random.Random(3), random.Random(3)
        assert [workload.make_job(a) for _ in range(3)] == [workload.make_job(b) for _ in range(3)]


def _csv(header, rows, footer=None):
    return CsvOutput(header, [[str(c) for c in row] for row in rows], footer or {})


def test_checks_reject_broken_outputs():
    engine = WORKLOADS["engine"]
    job = engine.make_job(random.Random(1))
    line = ["normalized_meter_var", "projection_line"]
    mc = ["sampled_meter_var", "stderr", "analytic_meter_var"]
    good = {"ideal": _csv(line, [[1.0 + 5e-10, 1.0]]), "mc": _csv(mc, [[104.0, 1.0, 100.0]])}
    assert not engine.check(job, good)
    assert engine.check(job, {**good, "ideal": _csv(line, [[1.0 + 2e-9, 1.0]])})
    assert engine.check(job, {**good, "mc": _csv(mc, [[106.0, 1.0, 100.0]])})

    oracle = WORKLOADS["oracle"]
    job = oracle.make_job(random.Random(1))
    good = {"oracle": _csv([], [], {"max_first_moment_deviation": "1e-4"}),
            "algebra": _csv([], [], {"max_residual": "1e-15"})}
    assert not oracle.check(job, good)
    assert oracle.check(job, {**good, "oracle": _csv([], [], {"max_first_moment_deviation": "nan"})})
    assert oracle.check(job, {**good, "algebra": _csv([], [], {"max_residual": "1e-11"})})

    assert non_finite_cells(_csv(["a", "b"], [["naive", "inf"]], {"c2": "nan"})) == ["inf", "nan"]


def test_reported_metrics_are_the_declared_ones():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = run_bench.JobResult(wall_s=0.1, cpu_s=0.1, work=1.0, failures=[])
    e2e = run_bench.end_to_end_metrics([result], [1.0])
    layers = run_bench.layer_metrics(Tracer(), [result], [dataclasses.replace(result)])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == [Path(run_bench.BENCH_DIR).name]
