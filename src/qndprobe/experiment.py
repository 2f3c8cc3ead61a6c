"""Noise-scaling sweeps and figure-of-merit formulas for pulsed QND probing.

Reproduces the desk-scale quantitative story: normalized polarimeter
variance versus atom number for naive and decoupled pulse trains with the
kernel's exact c0 + c1 NA + c2 NA^2 of that curve, the projection-noise line,
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
# float64 rows: the stacked [x; z] samples (at most 4 + 5, with the dropped
# terms on: Sy_in, Sz_in and three depolarization draws) and the pulse
# product's result (4).  With the dropped terms off the stack has at most
# 4 + 3 rows, and the summed Sy_in draw reuses a row of the product's result.
# Trial counts needing more than the cap are refused up front.
MC_BYTES_PER_TRIAL = 8 * (4 + 5 + 4)
MC_MEMORY_CAP_BYTES = MEMORY_CAP_BYTES
# eigenvalues below this fraction of the largest are rounding, not noise
MC_RANK_TOL = 1e-13
# pulses whose maps one batched eigendecomposition builds
MC_BLOCK = 1024


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
class FitResult:
    c0: float
    c1: float
    c2: float
    residual_rms: float


def fit_linear_quadratic(data) -> FitResult:
    """Unweighted least-squares fit v(na) = c0 + c1 na + c2 na^2.

    Accepts a Sweep or an (na, value) array pair.  Columns are rescaled
    before the orthogonal-decomposition solve so the wide dynamic range of
    na does not degrade the recovered coefficients.
    """
    if isinstance(data, Sweep):
        data = data.na, data.normalized_meter_var
    na, values = (np.asarray(x, dtype=float) for x in data)
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


def _roots(covs: np.ndarray) -> np.ndarray:
    """R with R R^T = C for each PSD C of a (..., k, k) stack, as many columns as the largest rank.

    Eigenvalues within ``MC_RANK_TOL`` of their matrix's largest count as
    zero, and a matrix of lower rank than the stack's largest gets zero columns.
    """
    w, v = np.linalg.eigh(covs)
    w = np.where(w > MC_RANK_TOL * w[..., -1:], w, 0.0)
    rank = np.count_nonzero(w, axis=-1).max(initial=0)
    return (v * np.sqrt(w)[..., None, :])[..., w.shape[-1] - rank:]


def _monte_carlo_maps(params: CouplingParams, schedule: PulseSchedule, jx: float):
    """Per pulse, the Monte Carlo's map [D A | R] and the Sy_in variance it leaves to one summed draw.

    A and B come from ``pulse_map`` (B as B0 + jx B1 at the pre-pulse jx,
    which depolarization shrinks by (1 - eps) per pulse), and
    D = diag(1 - eps, 1 - eps, 1 - eps, 1) is the depolarization contraction.
    Pulse k adds noise of covariance shot (D B)(D B)^T + diag(eps NA v, 0) on
    top of D A x, with shot = n_L/4 and v the mixed single-atom variances.
    With the dropped terms on, R holds sqrt(shot) D B as its first two
    columns, so that Sy_in and Sz_in are the first two draws (the meter
    product reads Sz_in), then the depolarization root, and nothing is left
    over.  With them off, Sy_in enters only M, with loading sign, and M feeds
    back into nothing, so the pulse leaves its variance shot to one
    N(0, n shot) draw of sum sign Sy_in per trial; R is a rank-revealing root
    of the rest of the noise, which merges Sz_in with the Jy depolarization
    draw.  The maps are built ``MC_BLOCK`` pulses at a time.
    """
    shot = params.photons_per_pulse / 4.0
    eps = params.scattering_eps
    d = np.array([1.0 - eps] * 3 + [1.0])
    depol = np.diag([*(eps * params.atom_number * np.array(single_atom_mixed_variances(1.0))), 0.0])
    depol_root = _roots(depol)
    da, b0, b1 = [], [], []
    for sign in (1, -1):
        a, b = pulse_map(sign, params, 0.0)
        da.append(d[:, None] * a)
        b0.append(b)
        b1.append(pulse_map(sign, params, 1.0)[1] - b)
    da, b0, b1 = np.array(da), np.array(b0), np.array(b1)
    kind = (schedule.signs < 0).astype(int)
    left_over = 0.0 if params.include_dropped_terms else shot

    for start in range(0, len(kind), MC_BLOCK):
        ks = kind[start:start + MC_BLOCK]
        jxs = jx * (1.0 - eps) ** np.arange(start, start + len(ks))
        db = math.sqrt(shot) * d[:, None] * (b0[ks] + jxs[:, None, None] * b1[ks])
        if params.include_dropped_terms:
            r = np.concatenate([db, np.broadcast_to(depol_root, (len(ks), *depol_root.shape))], axis=2)
        else:
            r = _roots(db[..., 1:] @ db[..., 1:].swapaxes(1, 2) + depol)
        for w in np.concatenate([da[ks], r], axis=2):
            yield w, left_over


def monte_carlo_sample(
    params: CouplingParams,
    schedule: PulseSchedule,
    trials: int,
    seed: int,
) -> MonteCarloResult:
    """Sampled meter variance from simulated pulse trains.

    Draws the initial atomic fluctuations from a root of the CSS covariance
    (rank 2, since Jxy = Jz) and, per pulse, the independent noise of
    ``_monte_carlo_maps``: one product [D A | R] @ [x; z] on the stacked
    (Jy, Jz, Jxy, M) samples x and fresh standard normals z moves all trials
    at once.  With the dropped terms on, z holds Sy_in and Sz_in explicitly
    and the meter product -sign g2 Sz_in Jy is added as sampled; with them
    off, the meter's shot noise sum sign Sy_in is one draw per trial, added at
    the end.  The samples are exact in distribution.  Returns the sample
    variance of the accumulated meter with the Gaussian standard error
    var * sqrt(2/(trials-1)).  Fixed seeds give bit-identical results; the
    estimate converges to the analytic var(M).  Trial counts whose arrays
    would exceed ``MC_MEMORY_CAP_BYTES`` raise ValueError before anything is
    allocated (about 20 million trials).
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
    root = _roots(state0.cov[:3, :3])
    # rows Jy, Jz, Jxy, M, then the draws z: with the dropped terms on Sy_in, Sz_in
    # and one per depolarized atomic row, with them off at most one per atomic row
    noise_rows = 2 + 3 * (params.scattering_eps > 0.0) if params.include_dropped_terms else 3
    x = np.empty((4 + noise_rows, trials))
    rng.standard_normal(out=x[:root.shape[1]])
    x[:3] = root @ x[:root.shape[1]]
    x[M] = 0.0
    moved = np.empty((4, trials))
    product_scale = -params.g2 * math.sqrt(params.photons_per_pulse / 4.0)
    sy_var = 0.0

    maps = _monte_carlo_maps(params, schedule, state0.jx_mean)
    for sign, (w, left_over) in zip(schedule.signs.tolist(), maps):
        width = w.shape[1]
        rng.standard_normal(out=x[4:width])
        np.matmul(w, x[:width], out=moved)
        if params.include_dropped_terms:
            sz_in = x[5]  # Sz_in / sqrt(shot), overwritten with the meter product
            sz_in *= sign * product_scale
            sz_in *= x[JY]
            moved[M] += sz_in
        x[:4] = moved
        sy_var += left_over

    meter = x[M]
    if sy_var:  # the summed Sy_in draw reuses a row of the product's result
        rng.standard_normal(out=moved[0])
        moved[0] *= math.sqrt(sy_var)
        meter += moved[0]
    del moved  # before np.var's temporary row
    sample_var = float(np.var(meter, ddof=1))
    stderr = sample_var * math.sqrt(2.0 / (trials - 1))
    return MonteCarloResult(meter_variance=sample_var, stderr=stderr, trials=trials)
