"""Configuration-driven command line front end.

Six subcommands (algebra-check, oracle-compare, sweep, suppression, impact,
montecarlo) share a --config JSON file whose keys are validated fail-closed;
explicit flags override file values.  The Gaussian subcommands (sweep,
suppression, impact, montecarlo) build every run with
``experiment.paper_scale_params`` and model f = 1 only, so they reject any
other --f.  Every run writes a CSV with a header row and a '#'-prefixed
metadata footer, plus a key-value run manifest alongside.  ``READS`` lists
the RunConfig fields each subcommand reads; an explicit flag for any other
field is rejected, so no flag is silently ignored.  Exit codes:
0 success, 1 numerical failure (NaN/Inf or PSD violation), 2 invalid
configuration (including input a subcommand rejects) or unwritable output.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .experiment import (
    G1_REFERENCE,
    NL_REFERENCE,
    dropped_terms_impact,
    monte_carlo_sample,
    paper_scale_params,
    projection_noise_line,
    sweep_atom_number,
    quadratic_suppression_curve,
)
from .gaussian import EVAL_BATCH, CouplingParams, PulseSchedule, run_schedule
from .operators import build_spin_operators, commutator
from .oracle import oracle_vs_gaussian

DEFAULT_SEED = 20100401

MODES = ("algebra-check", "oracle-compare", "sweep", "suppression", "impact", "montecarlo")
GAUSSIAN_MODES = ("sweep", "suppression", "impact", "montecarlo")


def _has_type(value, declared) -> bool:
    """Whether a JSON config value has its field's declared type, without coercion."""
    args = get_args(declared)
    if get_origin(declared) is tuple:  # tuple[X, ...]: a JSON list of X
        return type(value) is tuple and all(_has_type(x, args[0]) for x in value)
    if args:  # X | None
        return any(_has_type(value, arg) for arg in args)
    if declared is float:  # an int too, but not a bool (a subclass of int)
        return type(value) in (int, float)
    return type(value) is declared  # so an int field refuses true and 20.0


@dataclass
class RunConfig:
    mode: str
    out: str = "qndprobe_out.csv"
    seed: int = DEFAULT_SEED
    g1: float = G1_REFERENCE
    g2: float | None = None
    nl_total: float = NL_REFERENCE
    na: float = 1.0e6
    f: float = 1.0
    schedule: str = "decoupled"
    p: int = 5
    num_pulses: int | None = None
    na_min: float = 1.0e4
    na_max: float = 2.0e6
    na_points: int = 20
    p_values: tuple[int, ...] = (1, 2, 5)
    n_ph: int = 4
    oracle_na: int = 2
    tilt: float = 0.4
    tilt_phase: float = 0.3
    trials: int = 100_000
    scattering_eps: float = 0.0
    include_dropped_terms: bool = False
    f_values: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0)

    def validate(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        for field in fields(self):
            value = getattr(self, field.name)
            if not _has_type(value, _FIELD_TYPES[field.name]):
                raise ValueError(f"{field.name} must have type {field.type}, got {value!r}")
            # JSON NaN and Infinity are floats, and so are the flag values nan and inf
            items = value if type(value) is tuple else (value,)
            if any(type(x) is float and not math.isfinite(x) for x in items):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.schedule not in ("naive", "decoupled"):
            raise ValueError(f"schedule must be 'naive' or 'decoupled', got {self.schedule!r}")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not self.p_values or not self.f_values:
            raise ValueError("p_values and f_values must not be empty")
        # four points over-determine c0 + c1 NA + c2 NA^2, so a reader can
        # re-fit the CSV rows and check the exact footer
        if self.na_points < 4:
            raise ValueError(f"na_points must be >= 4, got {self.na_points}")
        if self.na_min <= 0 or self.na_max < self.na_min:
            raise ValueError("invalid atom-number range")
        if self.na_points > EVAL_BATCH:
            raise ValueError(f"na_points {self.na_points} exceeds the {EVAL_BATCH} one sweep evaluates")
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode in GAUSSIAN_MODES and self.f != 1.0:
            raise ValueError(f"{self.mode} models f = 1 only, got f = {self.f}")


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"mode"}
_FIELD_TYPES = get_type_hints(RunConfig)


def _load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(unknown))}")
    return data


# (flag, RunConfig field, argparse options); every flag defaults to None, "not given"
_FLAGS = (
    ("--out", "out", {"type": str, "help": "output CSV path"}),
    ("--seed", "seed", {"type": int}),
    ("--p", "p", {"type": int, "help": "decoupling order"}),
    ("--mode", "schedule", {"choices": ["naive", "decoupled"]}),
    ("--g1", "g1", {"type": float}),
    ("--g2", "g2", {"type": float}),
    ("--nl", "nl_total", {"type": float, "help": "total photon budget"}),
    ("--na", "na", {"type": float, "help": "atom number"}),
    ("--f", "f", {"type": float, "help": "atomic spin"}),
    ("--pulses", "num_pulses", {"type": int, "help": "pulse count for naive trains"}),
    ("--na-min", "na_min", {"type": float}),
    ("--na-max", "na_max", {"type": float}),
    ("--na-points", "na_points", {"type": int}),
    ("--p-values", "p_values", {"type": str, "help": "comma-separated decoupling orders"}),
    ("--n-ph", "n_ph", {"type": int, "help": "photons per oracle pulse"}),
    ("--oracle-na", "oracle_na", {"type": int}),
    ("--trials", "trials", {"type": int}),
    ("--eps", "scattering_eps", {"type": float}),
    ("--dropped", "include_dropped_terms",
     {"action": "store_const", "const": True, "help": "enable the dropped tensor terms"}),
)
_FLAG_OF = {dest: flag for flag, dest, _ in _FLAGS}

# RunConfig fields each subcommand reads, besides out.  An explicit flag for
# any other field is rejected; config-file keys are not checked, because one
# --config file may serve every subcommand.
_COUPLINGS = {"g1", "g2", "nl_total", "f", "scattering_eps"}
_SCHEDULE = {"schedule", "p", "num_pulses"}
_NA_GRID = {"na_min", "na_max", "na_points"}
READS = {
    "algebra-check": {"f_values"},
    "oracle-compare": _SCHEDULE | {"g1", "g2", "f", "n_ph", "oracle_na", "tilt", "tilt_phase"},
    "sweep": _COUPLINGS | _SCHEDULE | _NA_GRID | {"include_dropped_terms"},
    "suppression": _COUPLINGS | _NA_GRID | {"p_values", "include_dropped_terms"},
    "impact": _COUPLINGS | _SCHEDULE | {"na"},
    "montecarlo": _COUPLINGS | _SCHEDULE | {"na", "include_dropped_terms", "trials", "seed"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qndprobe",
        description="Pulsed QND probing of large-spin ensembles: checks and sweeps.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        s = sub.add_parser(mode)
        s.add_argument("--config", type=str, default=None, help="JSON config file")
        for flag, dest, options in _FLAGS:
            s.add_argument(flag, dest=dest, default=None, **options)
    return parser


def parse_config(argv=None) -> RunConfig:
    """Merge defaults, config-file values and flags (flags win) into a RunConfig."""
    args = _build_parser().parse_args(argv)
    flags = {dest: getattr(args, dest) for dest in _FLAG_OF if getattr(args, dest) is not None}
    unread = sorted(_FLAG_OF[dest] for dest in flags.keys() - READS[args.mode] - {"out"})
    if unread:
        raise ValueError(f"{args.mode} does not read {', '.join(unread)}")
    values: dict = {}
    if args.config:
        values.update(_load_config_file(args.config))
    values.update(flags)
    if isinstance(values.get("p_values"), str):
        values["p_values"] = tuple(int(x) for x in values["p_values"].split(","))
    for name in ("p_values", "f_values"):
        if isinstance(values.get(name), list):
            values[name] = tuple(values[name])
    config = RunConfig(mode=args.mode, **values)
    config.validate()
    # a decoupled train has 2p pulses, a naive one num_pulses if set and else 2p
    if config.schedule == "decoupled" and "num_pulses" in flags:
        raise ValueError(f"{args.mode} does not read --pulses with a decoupled schedule")
    if config.schedule == "naive" and config.num_pulses is not None and "p" in flags:
        raise ValueError(f"{args.mode} does not read --p when --pulses sets the naive train's length")
    return config


def _naive_pulses(config: RunConfig) -> int | None:
    return config.num_pulses if config.schedule == "naive" else None


def _params_and_schedule(config: RunConfig, na: float) -> tuple[CouplingParams, PulseSchedule]:
    return paper_scale_params(
        mode=config.schedule, p=config.p, num_pulses=_naive_pulses(config), na=na,
        g1=config.g1, g2=config.g2, nl_total=config.nl_total,
        scattering_eps=config.scattering_eps,
        include_dropped_terms=config.include_dropped_terms,
    )


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_output(config: RunConfig, header: list, rows: list, footer: list):
    for row in rows:
        for cell in row:
            if isinstance(cell, float) and not math.isfinite(cell):
                raise ArithmeticError("non-finite value in output")
    out_path = Path(config.out)
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    lines += [f"# {line}" for line in footer]
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    manifest = [f"{f.name} = {getattr(config, f.name)}" for f in fields(RunConfig)]
    manifest.append(f"version = {__version__}")
    manifest.append(f"timestamp = {datetime.datetime.now(datetime.timezone.utc).isoformat()}")
    Path(str(out_path) + ".manifest").write_text("\n".join(manifest) + "\n", encoding="utf-8")


def _run_algebra_check(config: RunConfig) -> tuple[list, list, list]:
    header = ["f", "max_commutator_residual", "max_identity_residual", "max_hermiticity_residual"]
    rows = []
    worst = 0.0
    for f in config.f_values:
        ops = build_spin_operators(f)
        comm = max(
            np.max(np.abs(commutator(ops.jz, ops.jx) - 1j * ops.jy)),
            np.max(np.abs(commutator(ops.jy, ops.jz) - 1j * ops.jx)),
            np.max(np.abs(commutator(ops.jx, ops.jy) - 1j * ops.jxy)),
        )
        f2 = f * (f + 1)
        ident = np.max(np.abs(
            ops.jxy - ops.fz @ (f2 * np.eye(ops.dim) - ops.fz @ ops.fz - 0.5 * np.eye(ops.dim))
        ))
        herm = max(
            np.max(np.abs(op - op.conj().T))
            for op in (ops.fx, ops.fy, ops.fz, ops.jx, ops.jy, ops.jz, ops.jxy)
        )
        worst = max(worst, comm, ident, herm)
        rows.append([f, float(comm), float(ident), float(herm)])
    footer = [f"max_residual = {_fmt(float(worst))}", "tolerance = 1e-12"]
    if worst >= 1e-12:
        raise ArithmeticError(f"operator algebra residual {worst:.3e} exceeds 1e-12")
    return header, rows, footer


def _run_oracle_compare(config: RunConfig) -> tuple[list, list, list]:
    _, schedule = paper_scale_params(mode=config.schedule, p=config.p, num_pulses=_naive_pulses(config))
    g2 = 0.0 if config.g2 is None else config.g2
    report = oracle_vs_gaussian(
        na=config.oracle_na, f=config.f, n_ph=config.n_ph, g1=config.g1, g2=g2,
        schedule=schedule, tilt=config.tilt, phase=config.tilt_phase,
    )
    header = ["pulse", "d_jz_mean", "d_jy_mean", "d_meter_mean", "d_meter_var"]
    rows = [
        [i + 1, report.d_jz[i], report.d_jy[i], report.d_meter_mean[i], report.d_meter_var[i]]
        for i in range(len(report.d_jz))
    ]
    footer = [f"max_first_moment_deviation = {_fmt(report.max_first_moment_deviation)}", f"g2 = {_fmt(g2)}"]
    return header, rows, footer


def _run_sweep(config: RunConfig) -> tuple[list, list, list]:
    na_values = list(np.geomspace(config.na_min, config.na_max, config.na_points))
    params, schedule = _params_and_schedule(config, na_values[0])
    sweep = sweep_atom_number(params, na_values, schedule)
    header = ["na", "mode", "p", "normalized_meter_var", "projection_line"]
    p = schedule.p if schedule.p is not None else 0
    rows = [
        [na, schedule.mode, p, var, projection_noise_line(params.g1, config.nl_total, na)]
        for na, var in zip(sweep.na.tolist(), sweep.normalized_meter_var.tolist())
    ]
    footer = [f"c0 = {_fmt(sweep.c0)}", f"c1 = {_fmt(sweep.c1)}", f"c2 = {_fmt(sweep.c2)}"]
    return header, rows, footer


def _run_suppression(config: RunConfig) -> tuple[list, list, list]:
    first = replace(config, schedule="decoupled", p=config.p_values[0])
    params, _ = _params_and_schedule(first, config.na)
    na_values = list(np.geomspace(config.na_min, config.na_max, config.na_points))
    points = quadratic_suppression_curve(params, config.nl_total, list(config.p_values), na_values)
    header = ["p", "c2"]
    rows = [[pt.p, pt.c2] for pt in points]
    footer = ["quadratic coefficient of the decoupled sweep vs decoupling order"]
    return header, rows, footer


def _run_impact(config: RunConfig) -> tuple[list, list, list]:
    params, schedule = _params_and_schedule(config, config.na)
    rel = dropped_terms_impact(params, schedule)
    header = ["na", "mode", "p", "relative_var_jz_increase"]
    rows = [[config.na, schedule.mode, schedule.p if schedule.p else 0, rel]]
    footer = ["relative increase of final var(Jz) with the dropped terms enabled"]
    return header, rows, footer


def _run_montecarlo(config: RunConfig) -> tuple[list, list, list]:
    params, schedule = _params_and_schedule(config, config.na)
    # the kernel PSD-checks every pulse, so a train it refuses is never sampled
    analytic = run_schedule(params, schedule).meter_var
    mc = monte_carlo_sample(params, schedule, trials=config.trials, seed=config.seed)
    header = ["trials", "sampled_meter_var", "stderr", "analytic_meter_var"]
    rows = [[mc.trials, mc.meter_variance, mc.stderr, analytic]]
    footer = [f"seed = {config.seed}"]
    return header, rows, footer


_RUNNERS = {
    "algebra-check": _run_algebra_check,
    "oracle-compare": _run_oracle_compare,
    "sweep": _run_sweep,
    "suppression": _run_suppression,
    "impact": _run_impact,
    "montecarlo": _run_montecarlo,
}


def run(config: RunConfig) -> int:
    """Execute one validated configuration; returns the process exit code."""
    try:
        header, rows, footer = _RUNNERS[config.mode](config)
        _write_output(config, header, rows, footer)
    except (ArithmeticError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
