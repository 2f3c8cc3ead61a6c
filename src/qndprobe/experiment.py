"""Noise-scaling sweeps, fits and figure-of-merit formulas for pulsed QND probing.

Reproduces the desk-scale quantitative story: normalized polarimeter
variance versus atom number for naive and decoupled pulse trains, the
linear/quadratic decomposition of that curve, the projection-noise line,
the dB-below-projection metric, physical coupling estimates, and a seeded
Monte Carlo cross-check of the analytic meter variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    JY,
    JZ,
    M,
    MEMORY_CAP_BYTES,
    CouplingParams,
    PulseSchedule,
    css_meter_variance,
    init_css,
    pulse_map,
    run_schedule,
    single_atom_mixed_variances,
)

# Reference values used for "paper-scale" runs: the independently measured
# interaction strength, the probe photon budget, and the order-of-magnitude
# tensor-to-QND impact ratio G2/(G1^2 Jx) = 8 * Delta_HFS / (d0 * Gamma)
# evaluated at Delta_HFS/Gamma ~ 30, d0 ~ 50.
G1_REFERENCE = 1.27e-7
NL_REFERENCE = 8.0e8
G2_IMPACT_REFERENCE = 4.8
NA_REFERENCE = 1.0e6

DEFAULT_NA_GRID = tuple(np.geomspace(1.0e4, 2.0e6, 20))

# Peak bytes one Monte Carlo trial holds, counted from monte_carlo_sample's
# float64 arrays in its pulse loop: the stacked samples (6 rows), the
# depolarization draw (3), the pulse product's result (4) and the dropped-term
# product (1).  Trial counts needing more than the cap are refused up front.
MC_BYTES_PER_TRIAL = 8 * (6 + 3 + 4 + 1)
MC_MEMORY_CAP_BYTES = MEMORY_CAP_BYTES


@dataclass(frozen=True)
class PhysicalParams:
    """Beam/atom parameters entering the far-detuned coupling estimates."""

    sigma0: float      # on-resonance scattering cross section (m^2)
    gamma: float       # natural linewidth (rad/s or any consistent unit)
    area_a: float      # effective beam area (m^2)
    delta: float       # probe detuning (same unit as gamma)
    delta_hfs: float   # excited-state hyperfine splitting (same unit as gamma)
    na: float          # atom number

    def __post_init__(self):
        for name in ("sigma0", "gamma", "area_a", "delta_hfs", "na"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.delta == 0:
            raise ValueError("detuning must be nonzero")


@dataclass(frozen=True)
class CouplingEstimate:
    g1: float
    g2: float
    d0: float
    g2_impact: float


def couplings_from_physics(phys: PhysicalParams) -> CouplingEstimate:
    """Order-of-magnitude couplings in the far-detuned regime.

    g1 = sigma0*Gamma / (4*A*Delta), g2 = g1 * Delta_HFS/Delta (so they fall
    off as 1/Delta and 1/Delta^2), on-resonance optical depth
    d0 = sigma0*NA/A, and the detuning-independent impact ratio
    g2/(g1^2 Jx) = 8*Delta_HFS/(d0*Gamma).
    """
    g1 = phys.sigma0 * phys.gamma / (4.0 * phys.area_a * phys.delta)
    g2 = g1 * phys.delta_hfs / phys.delta
    d0 = phys.sigma0 * phys.na / phys.area_a
    g2_impact = 8.0 * phys.delta_hfs / (d0 * phys.gamma)
    return CouplingEstimate(g1=g1, g2=g2, d0=d0, g2_impact=g2_impact)


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
    decoupled train of order p, ``num_pulses`` (default 2p) for naive mode.
    """
    if g2 is None:
        g2 = g2_from_impact(g1=g1)
    if mode == "decoupled":
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
class SweepRow:
    na: float
    normalized_meter_var: float
    mode: str
    p: int | None

    def __post_init__(self):
        # below the shot-noise floor means the propagation broke down numerically
        if self.normalized_meter_var < 1.0 - 1e-9:
            raise ArithmeticError("normalized meter variance fell below the shot-noise floor")


def sweep_atom_number(
    params_template: CouplingParams,
    na_values,
    schedule: PulseSchedule,
) -> list[SweepRow]:
    """Normalized var(M) of the CSS at every atom number, from one pass of the train.

    ``gaussian.css_meter_variance`` propagates the covariance once as its
    exact quadratic in NA and PSD-checks every pulse at every atom number.
    """
    na_values = [float(na) for na in na_values]
    if not na_values:
        raise ValueError("na_values must be non-empty")
    if any(b <= a for a, b in zip(na_values, na_values[1:])):
        raise ValueError("na_values must be strictly ascending")
    meter_var = css_meter_variance(params_template, schedule, na_values)
    nl_total = params_template.photons_per_pulse * len(schedule)
    return [
        SweepRow(
            na=na,
            normalized_meter_var=4.0 * float(var) / nl_total,
            mode=schedule.mode,
            p=schedule.p,
        )
        for na, var in zip(na_values, meter_var)
    ]


@dataclass(frozen=True)
class FitResult:
    c0: float
    c1: float
    c2: float
    residual_rms: float


def fit_linear_quadratic(rows) -> FitResult:
    """Unweighted least-squares fit v(na) = c0 + c1 na + c2 na^2.

    Accepts SweepRow lists or (na, value) array pairs.  Columns are rescaled
    before the orthogonal-decomposition solve so the wide dynamic range of
    na does not degrade the recovered coefficients.
    """
    if isinstance(rows, tuple) and len(rows) == 2:
        na, values = (np.asarray(x, dtype=float) for x in rows)
    else:
        na = np.array([r.na for r in rows], dtype=float)
        values = np.array([r.normalized_meter_var for r in rows], dtype=float)
    if na.size < 4:
        raise ValueError("need at least 4 rows for a quadratic fit")
    scale = na.max()
    x = na / scale
    design = np.column_stack([np.ones_like(x), x, x * x])
    if np.linalg.matrix_rank(design) < 3:
        raise ValueError("na values are collinear; quadratic fit is rank deficient")
    coef, _, _, _ = np.linalg.lstsq(design, values, rcond=None)
    pred = design @ coef
    rms = float(np.sqrt(np.mean((values - pred) ** 2)))
    return FitResult(
        c0=float(coef[0]),
        c1=float(coef[1] / scale),
        c2=float(coef[2] / scale ** 2),
        residual_rms=rms,
    )


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
    """Fitted quadratic coefficient of the decoupled sweep as a function of order p.

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
        fit = fit_linear_quadratic(sweep_atom_number(params, na_values, schedule))
        points.append(SuppressionPoint(p=p, c2=fit.c2))
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


def monte_carlo_sample(
    params: CouplingParams,
    schedule: PulseSchedule,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Sampled meter variance from simulated pulse trains.

    Draws the initial atomic fluctuations and, per pulse, the shot noise
    (Sy_in, then Sz_in) and, with scattering_eps > 0, the spin-1
    depolarization noise (Jy, Jz, Jxy).  Each pulse applies the engine's
    ``pulse_map`` to all trials at once as one product on the stacked
    (Jy, Jz, Jxy, M, Sy_in, Sz_in) samples; the dropped-term meter product
    -sign g2 Sz_in Jy is added as sampled.  Returns the sample
    variance of the accumulated meter with the Gaussian standard error
    var * sqrt(2/(trials-1)).  Fixed seeds give bit-identical results; the
    estimate converges to the analytic var(M).  Trial counts whose arrays
    would exceed ``MC_MEMORY_CAP_BYTES`` raise ValueError before anything is
    allocated (about 19 million trials).
    """
    if trials < 2:
        raise ValueError("need at least 2 trials")
    if trials * MC_BYTES_PER_TRIAL > MC_MEMORY_CAP_BYTES:
        raise ValueError(
            f"{trials} trials need about {trials * MC_BYTES_PER_TRIAL / 1e9:.3g} GB, "
            f"above the {MC_MEMORY_CAP_BYTES / 1e9:.3g} GB Monte Carlo cap"
        )
    rng = np.random.default_rng(seed)

    state0 = init_css(params)
    # factor the (possibly singular) atomic covariance for sampling
    atom_cov = state0.cov[:3, :3]
    w, v = np.linalg.eigh((atom_cov + atom_cov.T) / 2)
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    x = np.empty((6, trials))  # rows: Jy, Jz, Jxy, M, Sy_in, Sz_in
    x[:3] = root @ rng.standard_normal((3, trials))
    x[M] = 0.0
    noise = x[4:]
    jx = state0.jx_mean

    shot_sd = math.sqrt(params.photons_per_pulse / 4.0)
    eps = params.scattering_eps
    depol_sd = np.sqrt(eps * params.atom_number * np.array(single_atom_mixed_variances(1.0)))
    depol = np.empty((3, trials)) if eps > 0.0 else None

    for sign in schedule.signs.tolist():
        rng.standard_normal(out=noise)
        noise *= shot_sd
        a, b = pulse_map(sign, params, jx)
        if params.include_dropped_terms:
            product = (-sign * params.g2) * noise[1] * x[JY]
        x[:4] = np.hstack([a, b]) @ x
        if params.include_dropped_terms:
            x[M] += product

        if depol is not None:
            rng.standard_normal(out=depol)
            depol *= depol_sd[:, None]
            x[:3] *= 1.0 - eps
            x[:3] += depol
            jx *= 1.0 - eps

    sample_var = float(np.var(x[M], ddof=1))
    stderr = sample_var * math.sqrt(2.0 / (trials - 1))
    return MonteCarloResult(meter_variance=sample_var, stderr=stderr, trials=trials)
