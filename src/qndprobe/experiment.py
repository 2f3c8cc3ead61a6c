"""Noise-scaling sweeps and figure-of-merit formulas for pulsed QND probing.

Reproduces the desk-scale quantitative story: normalized polarimeter
variance versus atom number for naive and decoupled pulse trains with the
kernel's exact c0 + c1 NA + c2 NA^2 of that curve, the projection-noise line,
the dB-below-projection metric, the calibration of g2 from the impact ratio,
and a seeded Monte Carlo cross-check of the analytic meter variance.
"""

from __future__ import annotations

import collections
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (ATOMIC, DIM, JY, JZ, M, MEMORY_CAP_BYTES, TRAIN_BYTES_PER_PULSE, CouplingParams, PulseSchedule,
                       css_meter_variance, css_root, init_css, pulse_channel, run_schedule)

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

# trials per slice, each with its own stream and its own running totals: the
# linear path draws a slice's meters into one reused 64 KiB row, and with the
# dropped terms on a slice's state, draws and step result (2 DIM + 2 +
# len(ATOMIC) rows of 64 KiB at most) stay in one core's cache through a step
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
    projection-noise line the decoupled measurement should approach, at one
    atom number or at each of an array of them.
    """
    if nl_total <= 0 or np.min(na) < 0:
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


def _monte_carlo_maps(params: CouplingParams, schedule: PulseSchedule) -> tuple:
    """The [W | R] that draws the CSS start from x = 0, then each pulse's q and [W | R], as read-only arrays.

    Used where the meter-product loading q is nonzero (the dropped terms
    on): the meter product q Jy Sz_in is not Gaussian, so the start (R =
    sqrt(NA) ``css_root``) and every pulse are steps, built once per run and
    read by every slice.  A pulse's step is ``pulse_channel``'s: W = D A,
    and R holds the shot-noise root sqrt(shot) D B(jx) at the pre-pulse jx
    (Sy_in and Sz_in, the first two draws), then sqrt(NA depol) on each
    ``ATOMIC`` row in ``STATE`` order, no columns at eps = 0.
    """
    channel = pulse_channel(params)
    draws = len(ATOMIC) if params.scattering_eps > 0.0 else 0
    # the steps, q and [W | R] per pulse, live next to the train's own arrays, and
    # np.concatenate holds its inputs next to the maps, so the build takes about twice the maps
    need = len(schedule) * (TRAIN_BYTES_PER_PULSE + 8 * (1 + 2 * DIM * (DIM + 2 + draws)))
    if need > MEMORY_CAP_BYTES:
        raise ValueError(f"the Monte Carlo steps of {len(schedule)} pulses need about {need / 1e9:.3g} GB, "
                         f"above the {MEMORY_CAP_BYTES / 1e9:.3g} GB train cap")
    depol = np.diag(np.sqrt(params.atom_number * channel.depol))[:, :draws]
    ks = schedule.kinds(len(schedule))
    jxs = init_css(params).jx_mean * channel.jx_decay ** np.arange(len(ks))
    db = channel.db0[ks] + jxs[:, None, None] * channel.db1[ks]
    maps = np.concatenate([channel.da[ks], db, np.broadcast_to(depol, (len(ks), *depol.shape))], axis=2)
    start = np.pad(math.sqrt(params.atom_number) * css_root(), ((0, 0), (DIM, 0)))  # from x = 0: W = 0
    q = channel.q[ks]
    for a in (start, q, maps):
        a.setflags(write=False)
    return start, q, maps


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (the affinity call is Linux only)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _stream(seed: int, i: int) -> np.random.Generator:
    """Slice i's generator: the i-th child of ``np.random.SeedSequence(seed)``, made without spawning the others."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(i,))))


def _moments(sample: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, sum of squared deviations) of one slice's sample, which is overwritten with its deviations."""
    mean = float(sample.mean())
    sample -= mean
    return len(sample), mean, float(sample @ sample)


def _pooled_squares(moments) -> float:
    """Sum of squared deviations of the concatenated slices from their ``_moments``, by Chan et al.'s running totals."""
    count, mean, squares = 0, 0.0, 0.0
    for n, slice_mean, slice_squares in moments:
        shift = slice_mean - mean
        count += n
        mean += shift * n / count
        squares += slice_squares + shift * shift * n * (count - n) / count
    return squares


def _in_order(pool, task, items, ahead: int):
    """task(item) for every item, run on ``pool`` and yielded in order, with at most ``ahead`` calls not yet yielded."""
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(task, item))
        if len(pending) == ahead:
            yield pending.popleft().result()
    for future in pending:
        yield future.result()


def _dropped_slice(steps: tuple, rng, trials: int):
    """``_moments`` of the meters of ``trials`` samples moved from x = 0 through the ``_monte_carlo_maps`` steps."""
    start, q, maps = steps
    x = np.zeros((DIM + 2 + len(ATOMIC), trials))  # the state, then Sy_in, Sz_in and the depolarization draws
    moved = np.empty((DIM, trials))
    for q_k, w in itertools.chain([(0.0, start)], zip(q.tolist(), maps)):
        width = w.shape[1]
        rng.standard_normal(out=x[DIM:width])
        np.matmul(w, x[:width], out=moved)
        if q_k:
            sz_in = x[DIM + 1]  # Sz_in / sqrt(shot), overwritten with the meter product
            sz_in *= q_k
            sz_in *= x[JY]
            moved[M] += sz_in
        x[:DIM] = moved
    return _moments(x[M])


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

    The trials are cut into slices of ``MC_SLICE``, and slice i draws from
    ``np.random.Generator(np.random.SFC64(s_i))``, s_i the i-th child of
    ``np.random.SeedSequence(seed)`` (``SeedSequence(seed, spawn_key=(i,))``).
    Each slice returns the count, mean and sum of squared deviations of its
    meters, and one running-total update (``_pooled_squares``) combines them
    in slice order.  The linear path draws slice by slice in the calling
    thread into one reused buffer.  The dropped-term slices run on a thread
    pool, one worker per CPU the process may use (at most one per slice),
    since numpy's normals, matmul and large in-place ufuncs release the
    interpreter lock; they read one set of steps, built before the first
    slice, and a slice holds its samples only while it runs, and at
    most two slices per worker are submitted ahead (``_in_order``).  Either
    way a run holds one slice per worker whatever its trial count, and
    because streams belong to slices, not threads, a fixed seed gives
    bit-identical results on any number of cores.
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    analytic = run_schedule(params, schedule)
    slices = range(-(-trials // MC_SLICE))

    def size(i):
        return min(MC_SLICE, trials - i * MC_SLICE)

    if pulse_channel(params).q.any():
        steps = _monte_carlo_maps(params, schedule)  # shared, read-only, by every slice

        def sample(i):
            return _dropped_slice(steps, _stream(seed, i), size(i))

        workers = min(len(slices), _usable_cpus())
        with ThreadPoolExecutor(workers) as pool:
            sample_var = _pooled_squares(_in_order(pool, sample, slices, 2 * workers)) / (trials - 1)
    else:
        # the meters are sqrt(S_MM) times standard normals, so their sample
        # variance is S_MM times the normals'
        buffer = np.empty(min(MC_SLICE, trials))

        def sample(i):
            draw = buffer[:size(i)]
            _stream(seed, i).standard_normal(out=draw)
            return _moments(draw)

        sample_var = analytic.meter_var * _pooled_squares(map(sample, slices)) / (trials - 1)
    stderr = sample_var * math.sqrt(2.0 / (trials - 1))
    return MonteCarloResult(sample_var, stderr, trials, analytic.meter_var)
