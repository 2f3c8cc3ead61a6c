"""Configuration-driven command line front end.

Six subcommands (algebra-check, oracle-compare, sweep, suppression, impact,
montecarlo) share a --config JSON file whose keys are validated fail-closed;
explicit flags override file values.  A flag's value is converted and checked
by its subcommand's argparse parser (``_FLAGS`` types and choices); then
``RunConfig.validate`` checks every merged value, from a flag or the file,
without coercion against its field's annotation (``_FIELD_CHECKS``, built at
import) and for finiteness, and the ranges.  The Gaussian subcommands (sweep,
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
from .gaussian import EVAL_BATCH, CouplingParams, PulseSchedule
from .operators import build_spin_operators, commutator
from .oracle import oracle_vs_gaussian

DEFAULT_SEED = 20100401

MODES = ("algebra-check", "oracle-compare", "sweep", "suppression", "impact", "montecarlo")
GAUSSIAN_MODES = ("sweep", "suppression", "impact", "montecarlo")


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
        for name, declared, has_type in _FIELD_CHECKS:
            value = getattr(self, name)
            if not has_type(value):
                raise ValueError(f"{name} must have type {declared}, got {value!r}")
            # JSON NaN and Infinity are floats, and so are the flag values nan and inf
            if any(type(x) is float and not math.isfinite(x) for x in (value if type(value) is tuple else (value,))):
                raise ValueError(f"{name} must be finite, got {value!r}")
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
        if self.na_min <= 0 or self.na_max <= self.na_min:
            raise ValueError(f"--na-min must be positive and below --na-max, got {self.na_min:g} and {self.na_max:g}")
        if self.na_points > EVAL_BATCH:
            raise ValueError(f"na_points {self.na_points} exceeds the {EVAL_BATCH} one sweep evaluates")
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode in GAUSSIAN_MODES and self.f != 1.0:
            raise ValueError(f"{self.mode} models f = 1 only, got f = {self.f}")


def _type_check(declared):
    """The predicate whether a JSON config value has the declared type, without coercion."""
    if get_origin(declared) is tuple:  # tuple[X, ...]: a JSON list of X
        item = _type_check(get_args(declared)[0])
        return lambda value: type(value) is tuple and all(map(item, value))
    # X | None takes either; a float takes an int too, but not a bool (a
    # subclass of int), and an int field refuses true and 20.0
    types = {t for arg in get_args(declared) or (declared,) for t in ((int, float) if arg is float else (arg,))}
    return lambda value: type(value) in types


_CONFIG_KEYS = {f.name for f in fields(RunConfig)} - {"mode"}
_FIELD_TYPES = get_type_hints(RunConfig)
# (name, declared type, type predicate) of every field, built once
_FIELD_CHECKS = tuple((f.name, f.type, _type_check(_FIELD_TYPES[f.name])) for f in fields(RunConfig))


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
def _build_parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser, for help and a missing or unknown subcommand, and each subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="qndprobe",
        description="Pulsed QND probing of large-spin ensembles: checks and sweeps.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        s = sub.add_parser(mode)
        s.set_defaults(mode=mode)
        s.add_argument("--config", type=str, default=None, help="JSON config file")
        for flag, dest, options in _FLAGS:
            s.add_argument(flag, dest=dest, default=None, **options)
    return parser, sub.choices


def parse_config(argv=None) -> RunConfig:
    """Merge defaults, config-file values and flags (flags win) into a RunConfig."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, subparsers = _build_parsers()
    # help, or a missing or unknown subcommand, goes to the top-level parser, which prints it and exits
    args = subparsers[argv[0]].parse_args(argv[1:]) if argv and argv[0] in subparsers else parser.parse_args(argv)
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
    """A cell or footer value as text; a non-finite float raises ArithmeticError."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ArithmeticError("non-finite value in output")
        return format(x, ".17g")
    return str(x)


def _write_output(config: RunConfig, header: list, rows: list, footer: list):
    # every cell is formatted, and a non-finite one refused, before anything is written
    table = [",".join(header), *(",".join(map(_fmt, row)) for row in rows), *(f"# {line}" for line in footer)]
    manifest = [f"{name} = {value}" for name, value in vars(config).items()]
    manifest += [f"version = {__version__}", f"timestamp = {datetime.datetime.now(datetime.timezone.utc).isoformat()}"]
    for path, lines in ((config.out, table), (f"{config.out}.manifest", manifest)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def _run_algebra_check(config: RunConfig) -> tuple[list, list, list]:
    header = ["f", "max_commutator_residual", "max_identity_residual", "max_hermiticity_residual"]
    sets = [build_spin_operators(f) for f in config.f_values]
    # one (spins, operators, d, d) stack, each spin's operators zero-padded to the
    # largest dimension: a product, sum or adjoint of padded matrices is the
    # padded result, so the padding adds only exact zeros to every residual
    d = max(ops.dim for ops in sets)
    stack = np.zeros((len(sets), 7, d, d), dtype=complex)
    for spin, ops in zip(stack, sets):
        spin[:, :ops.dim, :ops.dim] = [ops.jz, ops.jy, ops.jx, ops.jxy, ops.fz, ops.fx, ops.fy]
    # [jz, jx] = i jy, [jy, jz] = i jx and [jx, jy] = i jxy as one stacked product
    comm = commutator(stack[:, :3], stack[:, [2, 0, 1]]) - 1j * stack[:, 1:4]
    jxy, fz = stack[:, 3], stack[:, 4]
    f2 = np.array([f * (f + 1) for f in config.f_values])[:, None, None]
    ident = jxy - fz @ (f2 * np.eye(d) - fz @ fz - 0.5 * np.eye(d))
    herm = stack - stack.conj().swapaxes(-1, -2)
    residuals = np.stack([np.abs(x).reshape(len(sets), -1).max(axis=1) for x in (comm, ident, herm)], axis=1)
    rows = [[f, *r] for f, r in zip(config.f_values, residuals.tolist())]
    worst = float(residuals.max())
    footer = [f"max_residual = {_fmt(worst)}", "tolerance = 1e-12"]
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
    rows = [[i, *r] for i, r in enumerate(zip(report.d_jz, report.d_jy, report.d_meter_mean, report.d_meter_var), 1)]
    footer = [f"max_first_moment_deviation = {_fmt(report.max_first_moment_deviation)}", f"g2 = {_fmt(g2)}"]
    return header, rows, footer


def _run_sweep(config: RunConfig) -> tuple[list, list, list]:
    na_values = list(np.geomspace(config.na_min, config.na_max, config.na_points))
    params, schedule = _params_and_schedule(config, na_values[0])
    sweep = sweep_atom_number(params, na_values, schedule)
    header = ["na", "mode", "p", "normalized_meter_var", "projection_line"]
    p = schedule.p if schedule.p is not None else 0
    line = projection_noise_line(params.g1, config.nl_total, sweep.na)
    rows = [[na, schedule.mode, p, var, proj] for na, var, proj in
            zip(sweep.na.tolist(), sweep.normalized_meter_var.tolist(), line.tolist())]
    footer = [f"c0 = {_fmt(sweep.c0)}", f"c1 = {_fmt(sweep.c1)}", f"c2 = {_fmt(sweep.c2)}"]
    return header, rows, footer


def _run_suppression(config: RunConfig) -> tuple[list, list, list]:
    na_values = list(np.geomspace(config.na_min, config.na_max, config.na_points))
    first = replace(config, schedule="decoupled", p=config.p_values[0])
    params, _ = _params_and_schedule(first, na_values[0])
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
    mc = monte_carlo_sample(params, schedule, trials=config.trials, seed=config.seed)
    header = ["trials", "sampled_meter_var", "stderr", "analytic_meter_var"]
    rows = [[mc.trials, mc.meter_variance, mc.stderr, mc.analytic_meter_variance]]
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
