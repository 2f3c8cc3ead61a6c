"""Noise-scaling sweeps and figure-of-merit formulas for pulsed QND probing.

Reproduces the desk-scale quantitative story: normalized polarimeter
variance versus atom number for naive and decoupled pulse trains with the
kernel's exact c0 + c1 NA + c2 NA^2 of that curve, the projection-noise line,
the dB-below-projection metric, the calibration of g2 from the impact ratio,
and a seeded Monte Carlo cross-check of the analytic meter variance.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    ATOMIC,
    DIM,
    JY,
    JZ,
    M,
    MEMORY_CAP_BYTES,
    CouplingParams,
    PulseSchedule,
    css_meter_variance,
    init_css,
    pulse_channel,
    run_schedule,
)

# Reference values used for "paper-scale" runs: the independently measured
# interaction strength, the probe photon budget, and the detuning-independent
# tensor-to-QND impact ratio G2/(G1^2 Jx) = 8 * Delta_HFS / (d0 * Gamma) from its
# order-of-magnitude inputs Delta_HFS/Gamma ~ 30 and optical depth d0 ~ 50.
G1_REFERENCE = 1.27e-7
NL_REFERENCE = 8.0e8
HFS_SPLITTING_IN_LINEWIDTHS = 30.0
OPTICAL_DEPTH_REFERENCE = 50.0
G2_IMPACT_REFERENCE = 8.0 * HFS_SPLITTING_IN_LINEWIDTHS / OPTICAL_DEPTH_REFERENCE
NA_REFERENCE = 1.0e6

DEFAULT_NA_GRID = tuple(np.geomspace(1.0e4, 2.0e6, 20))

# Peak bytes one trial of the dropped-term Monte Carlo holds in
# monte_carlo_sample's float64 rows: the stacked [x; z] samples, z holding
# Sy_in, Sz_in and one depolarization draw per atomic row, and the step's
# result, DIM + 2 + len(ATOMIC) + DIM rows (104 B).  Slices own their
# columns, so slicing adds no rows.  Trial counts above the cap are refused;
# the linear path holds one slice whatever the trial count, so it has no cap.
MC_BYTES_PER_TRIAL = 8 * (DIM + 2 + len(ATOMIC) + DIM)
MC_MEMORY_CAP_BYTES = MEMORY_CAP_BYTES
# eigenvalues below this fraction of the largest are rounding, not noise
MC_RANK_TOL = 1e-13
# pulses whose steps the dropped-term Monte Carlo builds at once
MC_BLOCK = 1024
# trials per slice, each with its own stream: the linear path draws a slice's
# meters into one reused 64 KiB buffer and keeps running totals; with the
# dropped terms on, a slice's columns of x and moved (MC_BYTES_PER_TRIAL / 8
# rows of 64 KiB at most) stay in one core's cache through a step
MC_SLICE = 2 ** 13


def g2_from_impact(
    g2_impact: float = G2_IMPACT_REFERENCE,
    g1: float = G1_REFERENCE,
    na_ref: float = NA_REFERENCE,
) -> float:
    """Calibrate g2 from the impact ratio g2/(g1^2 Jx) at a reference atom number."""
    return g2_impact * g1 * g1 * (na_ref / 2.0)


def projection_noise_line(g1: float, nl_total: float, na: float) -> float:
    """Ideal-QND normalized meter variance 1 + g1^2 NL var(Jz).

    var(Jz) = Jx/2 = na/4 for the x-polarized CSS; this is the black
    projection-noise line the decoupled measurement should approach.
    """
    if nl_total <= 0 or na < 0:
        raise ValueError("photon number must be positive and atom number non-negative")
    return 1.0 + g1 * g1 * nl_total * (na / 4.0)


def db_below_projection(g1: float, nl_total: float, na: float) -> float:
    """Projection-noise-to-shot-noise ratio in decibels, 10 log10(g1^2 NL var(Jz))."""
    excess = g1 * g1 * nl_total * (na / 4.0)
    if excess <= 0:
        raise ValueError("atomic noise excess must be positive")
    return 10.0 * math.log10(excess)


def paper_scale_params(
    mode: str = "decoupled",
    p: int = 5,
    num_pulses: int | None = None,
    na: float = NA_REFERENCE,
    g1: float = G1_REFERENCE,
    g2: float | None = None,
    nl_total: float = NL_REFERENCE,
    scattering_eps: float = 0.0,
    include_dropped_terms: bool = False,
) -> tuple[CouplingParams, PulseSchedule]:
    """CouplingParams + schedule at the reference couplings and photon budget.

    The photon budget is split equally across pulses: 2p pulses for a
    decoupled train of order p, ``num_pulses`` (default 2p, refused otherwise) for naive mode.
    """
    if g2 is None:
        g2 = g2_from_impact(g1=g1)
    if mode == "decoupled":
        if num_pulses is not None:
            raise ValueError("a decoupled train has 2p pulses; num_pulses sets only a naive train's length")
        schedule = PulseSchedule.decoupled(p)
    elif mode == "naive":
        schedule = PulseSchedule.naive(num_pulses if num_pulses is not None else 2 * p)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    params = CouplingParams(
        g1=g1, g2=g2, photons_per_pulse=nl_total / len(schedule),
        atom_number=na, scattering_eps=scattering_eps,
        include_dropped_terms=include_dropped_terms,
    )
    return params, schedule


@dataclass(frozen=True)
class Sweep:
    """Normalized var(M) at each atom number and its exact polynomial c0 + c1 NA + c2 NA^2."""

    na: np.ndarray
    normalized_meter_var: np.ndarray
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        # below the shot-noise floor means the propagation broke down numerically
        if (self.normalized_meter_var < 1.0 - 1e-9).any():
            raise ArithmeticError("normalized meter variance fell below the shot-noise floor")

    def __len__(self) -> int:
        return len(self.na)


def sweep_atom_number(
    params_template: CouplingParams,
    na_values,
    schedule: PulseSchedule,
) -> Sweep:
    """Normalized var(M) of the CSS at every atom number, from one pass of the train.

    ``gaussian.css_meter_variance`` propagates the covariance once as its
    exact quadratic in NA and PSD-checks every pulse at every atom number;
    its final var(M) coefficients, normalized like the grid values, are the
    sweep's c0, c1 and c2.
    """
    na = np.array(na_values, dtype=float)
    if not na.size:
        raise ValueError("na_values must be non-empty")
    if (np.diff(na) <= 0).any():
        raise ValueError("na_values must be strictly ascending")
    meter_var, coeffs = css_meter_variance(params_template, schedule, na)
    nl_total = params_template.photons_per_pulse * len(schedule)
    c0, c1, c2 = (4.0 * coeffs / nl_total).tolist()
    return Sweep(na=na, normalized_meter_var=4.0 * meter_var / nl_total, c0=c0, c1=c1, c2=c2)


@dataclass(frozen=True)
class SuppressionPoint:
    p: int
    c2: float


def quadratic_suppression_curve(
    params_template: CouplingParams,
    nl_total: float,
    p_values,
    na_values=None,
) -> list[SuppressionPoint]:
    """Exact quadratic coefficient of the decoupled sweep as a function of order p.

    The photon budget ``nl_total`` is held fixed and split across the 2p
    pulses of each order; the template's photons_per_pulse is not used.
    """
    p_values = list(p_values)
    if any(b <= a for a, b in zip(p_values, p_values[1:])):
        raise ValueError("p_values must be strictly ascending")
    na_values = list(DEFAULT_NA_GRID) if na_values is None else list(na_values)
    points = []
    for p in p_values:
        schedule = PulseSchedule.decoupled(p)
        params = replace(params_template, photons_per_pulse=nl_total / len(schedule))
        points.append(SuppressionPoint(p=p, c2=sweep_atom_number(params, na_values, schedule).c2))
    return points


def dropped_terms_impact(params: CouplingParams, schedule: PulseSchedule) -> float:
    """Relative increase of the final var(Jz) when the dropped terms are enabled."""
    off = run_schedule(replace(params, include_dropped_terms=False), schedule)
    on = run_schedule(replace(params, include_dropped_terms=True), schedule)
    var_off = off.final_state.cov[JZ, JZ]
    var_on = on.final_state.cov[JZ, JZ]
    return float((var_on - var_off) / var_off)


@dataclass(frozen=True)
class MonteCarloResult:
    meter_variance: float
    stderr: float
    trials: int
    analytic_meter_variance: float


def _roots(covs: np.ndarray) -> np.ndarray:
    """R with R R^T = C for each PSD C of a (..., k, k) stack, as many columns as the largest rank.

    Eigenvalues within ``MC_RANK_TOL`` of their matrix's largest count as
    zero, and a matrix of lower rank than the stack's largest gets zero columns.
    """
    w, v = np.linalg.eigh(covs)
    w = np.where(w > MC_RANK_TOL * w[..., -1:], w, 0.0)
    rank = np.count_nonzero(w, axis=-1).max(initial=0)
    return (v * np.sqrt(w)[..., None, :])[..., w.shape[-1] - rank:]


def _monte_carlo_maps(params: CouplingParams, schedule: PulseSchedule):
    """The lists of (q, [W | R]) steps that draw the CSS start from x = 0 and move it through the train.

    Used where the meter-product loading q is nonzero (the dropped terms
    on): the meter product q Jy Sz_in is not Gaussian, so the start (a
    draw of ``init_css``'s covariance) and every pulse are steps, one
    list per ``MC_BLOCK`` pulses.  A pulse's step is ``pulse_channel``'s:
    W = D A, and R holds the shot-noise root sqrt(shot) D B(jx) at the
    pre-pulse jx as its first two columns (Sy_in and Sz_in are the first two
    draws; the meter product reads Sz_in), then the depolarization root.
    """
    channel = pulse_channel(params)
    depol = _roots(np.diag(params.atom_number * channel.depol))
    css = init_css(params)
    head = [(0.0, np.pad(_roots(css.cov), ((0, 0), (DIM, 0))))]  # from x = 0: W = 0, R R^T = css.cov
    for start in range(0, len(schedule), MC_BLOCK):
        ks = schedule.kinds(start, min(start + MC_BLOCK, len(schedule)))
        jxs = css.jx_mean * channel.jx_decay ** np.arange(start, start + len(ks))
        db = channel.db0[ks] + jxs[:, None, None] * channel.db1[ks]
        maps = np.concatenate([channel.da[ks], db, np.repeat(depol[None], len(ks), axis=0)], axis=2)
        yield head + list(zip(channel.q[ks].tolist(), maps))
        head = []


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (the affinity call is Linux only)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _advance_slice(rng, x, moved, block):
    """Move one slice's samples x through a block's (q, [W | R]) steps."""
    for q_k, w in block:
        width = w.shape[1]
        for row in x[DIM:width]:  # a slice's rows are contiguous, its stack is not
            rng.standard_normal(out=row)
        np.matmul(w, x[:width], out=moved)
        if q_k:
            sz_in = x[DIM + 1]  # Sz_in / sqrt(shot), overwritten with the meter product
            sz_in *= q_k
            sz_in *= x[JY]
            moved[M] += sz_in
        x[:DIM] = moved


def _stream(seed: int, i: int) -> np.random.Generator:
    """Slice i's generator: the i-th child of ``np.random.SeedSequence(seed)``, made without spawning the others."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(i,))))


def monte_carlo_sample(
    params: CouplingParams,
    schedule: PulseSchedule,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Sampled meter variance from simulated pulse trains, next to the kernel's analytic one.

    ``run_schedule`` runs the train first and PSD-checks every pulse, so a
    train it refuses raises ArithmeticError before anything is sampled; its
    var(M) is ``analytic_meter_variance``.  Without ``pulse_channel``'s
    meter-product loading q (the dropped terms off) the final state is
    N(0, S), S the kernel's final covariance, and the meter, the one
    coordinate reported, is drawn alone from N(0, S_MM): one normal per
    trial, whatever the train's length.  With q nonzero every step of
    ``_monte_carlo_maps`` is one product [W | R] @ [x; z] on a slice's
    stacked state samples x and fresh standard normals z, plus the meter
    product q Jy z[1] as sampled.  The samples are exact in distribution.
    Returns the meter's sample variance with the Gaussian standard error
    var * sqrt(2/(trials-1)).

    The trials are cut into slices of ``MC_SLICE``; slice i owns its columns
    of the samples and draws its normals from
    ``np.random.Generator(np.random.SFC64(s_i))``, s_i the i-th child of
    ``np.random.SeedSequence(seed)`` (``SeedSequence(seed, spawn_key=(i,))``).
    The meter alone is drawn slice by slice in the calling thread, each
    slice into one reused buffer whose count, mean and sum of squared
    deviations join running totals, so a linear run holds one slice
    whatever the trial count.  Only the dropped-term steps run on a thread
    pool, one worker per CPU the process may use (at most one per slice),
    since numpy's normals, matmul and large in-place ufuncs release the
    interpreter lock, and every slice takes one list of steps before the
    next is built.  Because streams belong to slices, not threads, a fixed
    seed gives bit-identical results on any number of cores.  With the
    dropped terms on, trial counts whose arrays would exceed
    ``MC_MEMORY_CAP_BYTES`` raise ValueError before anything is allocated
    (about 20 million trials).
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    dropped = pulse_channel(params).q.any()
    if dropped and trials * MC_BYTES_PER_TRIAL > MC_MEMORY_CAP_BYTES:
        raise ValueError(
            f"{trials} trials need about {trials * MC_BYTES_PER_TRIAL / 1e9:.3g} GB, "
            f"above the {MC_MEMORY_CAP_BYTES / 1e9:.3g} GB Monte Carlo cap"
        )
    analytic = run_schedule(params, schedule)
    starts = range(0, trials, MC_SLICE)
    if dropped:
        # the state's DIM rows, then the draws z (counted at MC_BYTES_PER_TRIAL)
        noise_rows = 2 + len(ATOMIC) * (params.scattering_eps > 0.0)
        x = np.zeros((DIM + noise_rows, trials))
        moved = np.empty((DIM, trials))
        xs = [x[:, a:a + MC_SLICE] for a in starts]
        moveds = [moved[:, a:a + MC_SLICE] for a in starts]
        rngs = [_stream(seed, i) for i in range(len(starts))]
        with ThreadPoolExecutor(min(len(starts), _usable_cpus())) as pool:
            for block in _monte_carlo_maps(params, schedule):
                list(pool.map(_advance_slice, rngs, xs, moveds, itertools.repeat(block)))
        del moved, moveds  # before np.var's temporary row
        sample_var = float(np.var(x[M], ddof=1))
    else:
        # each slice's standard normals join running totals of count, mean and sum of
        # squared deviations (Chan et al.'s pairwise update); the meters are
        # sqrt(S_MM) times them, so their sample variance is S_MM times the normals'
        buffer = np.empty(min(MC_SLICE, trials))
        count, mean, squares = 0, 0.0, 0.0
        for i, a in enumerate(starts):
            draw = buffer[:min(MC_SLICE, trials - a)]
            _stream(seed, i).standard_normal(out=draw)
            draw_mean = float(draw.mean())
            draw -= draw_mean
            shift = draw_mean - mean
            count += len(draw)
            mean += shift * len(draw) / count
            squares += float(draw @ draw) + shift * shift * len(draw) * (count - len(draw)) / count
        sample_var = analytic.meter_var * squares / (trials - 1)
    stderr = sample_var * math.sqrt(2.0 / (trials - 1))
    return MonteCarloResult(sample_var, stderr, trials, analytic.meter_var)
