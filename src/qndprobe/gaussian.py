"""Gaussian moment propagation of collective atomic variables through pulse trains.

The state tracks means and a 4x4 covariance matrix over (Jy, Jz, Jxy, M):
the alignment conjugate, the measured alignment component, the commutator
operator sourced by the tensor coupling, and the accumulated polarimeter
meter.  Jx and the pulse Sx are treated as classical scalars, each probe
pulse injects fresh shot noise var(Sy_in) = var(Sz_in) = n_L/4, and every
update is the first-order (commutator-linear) map applied with pre-pulse
values on all right-hand sides.  Jxy carries no input-output relation of
its own and stays frozen at its initial statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .operators import build_spin_operators

# index order of the tracked variables (Jy, Jz, Jxy, meter)
JY, JZ, JXY, M = 0, 1, 2, 3


@dataclass(frozen=True)
class CouplingParams:
    """Couplings and bookkeeping for one probing configuration.

    g1 and g2 are the dimensionless per-pulse interaction strengths (pulse
    duration already absorbed), ``photons_per_pulse`` the photon number of a
    single probe pulse and ``num_pulses`` the train length (2p for a
    decoupled train of order p).  ``scattering_eps`` is an optional per-pulse
    depolarization probability; ``include_dropped_terms`` switches on the
    -g2 Sy Jx and -g2 Sz Jy contributions that are otherwise neglected.
    """

    g1: float
    g2: float
    photons_per_pulse: float
    num_pulses: int
    atom_number: float
    f: float = 1.0
    scattering_eps: float = 0.0
    include_dropped_terms: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.g1) and math.isfinite(self.g2)):
            raise ValueError("couplings g1, g2 must be finite")
        if self.photons_per_pulse <= 0:
            raise ValueError("photons_per_pulse must be positive")
        if self.atom_number <= 0:
            raise ValueError("atom_number must be positive")
        if int(self.num_pulses) != self.num_pulses or self.num_pulses < 1:
            raise ValueError("num_pulses must be a positive integer")
        if not 0.0 <= self.scattering_eps <= 1.0:
            raise ValueError("scattering_eps must lie in [0, 1]")
        if float(2 * self.f) != int(round(2 * self.f)) or self.f < 0.5:
            raise ValueError("f must be a positive half-integer")

    @property
    def total_photons(self) -> float:
        return self.photons_per_pulse * self.num_pulses


@dataclass(frozen=True)
class ScheduleEntry:
    sx_sign: int
    meter_sign: int

    def __post_init__(self):
        if self.sx_sign not in (-1, 1) or self.meter_sign not in (-1, 1):
            raise ValueError("schedule signs must be +1 or -1")


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered probe polarizations and meter signs.

    ``naive``: every pulse has sx_sign = +1 and meter_sign = +1.
    ``decoupled(p)``: 2p pulses with sx_sign alternating +, -, ... and
    meter_sign (-1)^(i+1) for 1-based pulse index i, so the meter is the
    alternating sum of per-pulse Sy outcomes.
    """

    entries: tuple[ScheduleEntry, ...]
    mode: str
    p: int | None = None

    def __post_init__(self):
        if self.mode not in ("naive", "decoupled"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.mode == "naive":
            if any(e.sx_sign != 1 or e.meter_sign != 1 for e in self.entries):
                raise ValueError("naive schedule requires all signs +1")
        else:
            if self.p is None or len(self.entries) != 2 * self.p:
                raise ValueError("decoupled schedule of order p needs 2p entries")
            for i, e in enumerate(self.entries):
                want = 1 if i % 2 == 0 else -1
                if e.sx_sign != want or e.meter_sign != want:
                    raise ValueError("decoupled schedule signs must alternate +1, -1, ...")

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def naive(cls, num_pulses: int) -> "PulseSchedule":
        if num_pulses < 1:
            raise ValueError("num_pulses must be >= 1")
        return cls(tuple(ScheduleEntry(1, 1) for _ in range(num_pulses)), "naive")

    @classmethod
    def decoupled(cls, p: int) -> "PulseSchedule":
        if p < 1:
            raise ValueError("decoupling order p must be >= 1")
        entries = tuple(
            ScheduleEntry(1 if i % 2 == 0 else -1, 1 if i % 2 == 0 else -1)
            for i in range(2 * p)
        )
        return cls(entries, "decoupled", p)

    def describe(self) -> str:
        return "naive" if self.mode == "naive" else f"decoupled(p={self.p})"


@dataclass(frozen=True)
class GaussianState:
    """Means and covariance of (Jy, Jz, Jxy, M) plus the classical Jx mean."""

    mean: np.ndarray
    cov: np.ndarray
    jx_mean: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (4,) or cov.shape != (4, 4):
            raise ValueError("state needs a length-4 mean and a 4x4 covariance")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def min_cov_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh((self.cov + self.cov.T) / 2).min())

    def check_psd(self, tol: float = 1e-9):
        """Raise if the covariance has an eigenvalue below -tol (scale-relative)."""
        scale = max(1.0, float(np.trace(self.cov)))
        if self.min_cov_eigenvalue() < -tol * scale:
            raise ArithmeticError(
                f"covariance lost positive semidefiniteness "
                f"(min eigenvalue {self.min_cov_eigenvalue():.3e})"
            )


@lru_cache(maxsize=None)
def single_atom_mixed_variances(f: float) -> tuple[float, float, float]:
    """Variances of (jy, jz, jxy) in the maximally mixed single-atom state.

    jz gives f(f+1)/12 (the isotropic spin variance over the 1/2 in its
    definition); jy and jxy are evaluated from their matrices as
    tr(op^2)/(2f+1), all first moments being traceless or zero.
    """
    ops = build_spin_operators(f)
    dim = ops.dim

    def mixed_var(op):
        mean = np.trace(op).real / dim
        return float(np.trace(op @ op).real / dim - mean ** 2)

    return mixed_var(ops.jy), mixed_var(ops.jz), mixed_var(ops.jxy)


def init_css(params: CouplingParams) -> GaussianState:
    """Initial x-polarized coherent-spin-state moments.

    jx_mean = NA/2, all tracked means zero, var(Jz) = var(Jy) = NA/4 (the
    projection noise Jx/2) with no cross covariances.  The frozen Jxy slot
    is initialized from the operator identities: for f=1 it coincides with
    Jz and shares its row/column of the covariance; for f=1/2 it vanishes
    identically; otherwise it gets the same NA/4 variance, uncorrelated.
    """
    na = params.atom_number
    mean = np.zeros(4)
    cov = np.zeros((4, 4))
    cov[JY, JY] = na / 4
    cov[JZ, JZ] = na / 4
    if params.f == 1.0:
        cov[JXY, JXY] = na / 4
        cov[JXY, JZ] = cov[JZ, JXY] = na / 4
    elif params.f == 0.5:
        cov[JXY, JXY] = 0.0
    else:
        cov[JXY, JXY] = na / 4
    return GaussianState(mean=mean, cov=cov, jx_mean=na / 2)


def state_from_atomic_moments(
    mean_jy: float,
    mean_jz: float,
    mean_jxy: float,
    atomic_cov: np.ndarray,
    jx_mean: float,
) -> GaussianState:
    """Assemble a fresh state (meter at zero) from atomic first/second moments."""
    atomic_cov = np.asarray(atomic_cov, dtype=float)
    if atomic_cov.shape != (3, 3):
        raise ValueError("atomic covariance must be 3x3 over (Jy, Jz, Jxy)")
    mean = np.array([mean_jy, mean_jz, mean_jxy, 0.0])
    cov = np.zeros((4, 4))
    cov[:3, :3] = (atomic_cov + atomic_cov.T) / 2
    return GaussianState(mean=mean, cov=cov, jx_mean=float(jx_mean))


def apply_decoherence(state: GaussianState, eps: float, params: CouplingParams) -> GaussianState:
    """Single-parameter isotropic depolarization of the atomic sector.

    Atomic means and jx_mean shrink by (1 - eps); the atomic covariance
    block contracts by (1 - eps)^2 while gaining eps * NA times the
    fully-mixed single-atom variances on its diagonal; atomic-meter cross
    covariances scale by (1 - eps).  eps = 1 therefore lands exactly on the
    fully depolarized ensemble.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError("depolarization probability must lie in [0, 1]")
    if eps == 0.0:
        return state
    r = 1.0 - eps
    kappa_y, kappa_z, kappa_xy = single_atom_mixed_variances(params.f)
    mean = state.mean.copy()
    mean[:3] *= r
    cov = state.cov.copy()
    cov[:3, :3] *= r * r
    cov[:3, M] *= r
    cov[M, :3] *= r
    cov[JY, JY] += eps * params.atom_number * kappa_y
    cov[JZ, JZ] += eps * params.atom_number * kappa_z
    cov[JXY, JXY] += eps * params.atom_number * kappa_xy
    return GaussianState(mean=mean, cov=cov, jx_mean=r * state.jx_mean)


def pulse_map(entry: ScheduleEntry, params: CouplingParams, jx: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear part of one probe pulse: x <- A x + B (Sy_in, Sz_in).

    With classical Sx = sx_sign * n_L/2, classical Jx = jx and fresh shot
    noise Sy_in, Sz_in (variance n_L/4 each, uncorrelated with everything
    prior), the first-order map on x = (Jy, Jz, Jxy, M) is

        Jz  <- Jz + g2 Sx Jy                  [- g2 Sy_in Jx   if dropped terms on]
        Jy  <- Jy - g1 Sz_in Jx - g2 Sx Jxy
        Jxy <- Jxy                            (frozen)
        M   <- M + meter_sign (Sy_in + g1 Sx Jz)

    with pre-pulse values on all right-hand sides.  A is 4x4 and B the 4x2
    loadings of (Sy_in, Sz_in).  The one non-linear contribution, the
    dropped-term meter product -meter_sign g2 Sz_in Jy, is left to the caller.
    """
    sx = entry.sx_sign * params.photons_per_pulse / 2.0
    g1, g2 = params.g1, params.g2
    w = entry.meter_sign

    a = np.eye(4)
    a[JZ, JY] = g2 * sx
    a[JY, JXY] = -g2 * sx
    a[M, JZ] = w * g1 * sx

    b = np.zeros((4, 2))
    b[JY, 1] = -g1 * jx
    b[M, 0] = w
    if params.include_dropped_terms:
        b[JZ, 0] = -g2 * jx
    return a, b


def apply_pulse(state: GaussianState, entry: ScheduleEntry, params: CouplingParams) -> GaussianState:
    """Propagate one probe pulse through ``pulse_map``, then depolarize.

    Means and covariances follow the affine-Gaussian transport exactly.  With
    the dropped terms on, the meter product -meter_sign g2 Sz_in Jy enters
    through its mean, as the Sz_in loading -meter_sign g2 <Jy> of M, and its
    fluctuation contributes the Gaussian-factorized variance
    g2^2 var(Sz_in) var(Jy) as an independent noise on M.  Depolarization
    (scattering_eps) is applied after the map.
    """
    shot = params.photons_per_pulse / 4.0
    g2 = params.g2
    a, b = pulse_map(entry, params, state.jx_mean)
    if params.include_dropped_terms:
        b[M, 1] = -entry.meter_sign * g2 * state.mean[JY]

    mean = a @ state.mean
    cov = a @ state.cov @ a.T + shot * (b @ b.T)
    if params.include_dropped_terms:
        cov[M, M] += g2 * g2 * shot * state.cov[JY, JY]
    cov = (cov + cov.T) / 2

    out = GaussianState(mean=mean, cov=cov, jx_mean=state.jx_mean)
    return apply_decoherence(out, params.scattering_eps, params)


@dataclass(frozen=True)
class ScheduleResult:
    """Final meter statistics plus the per-pulse trace of the run.

    ``pulse_means[i]`` holds the means of (Jy, Jz, Jxy, M) and
    ``pulse_meter_var[i]`` var(M) after pulse i.
    """

    meter_mean: float
    meter_var: float
    final_state: GaussianState
    pulse_means: np.ndarray
    pulse_meter_var: np.ndarray


def run_schedule(
    params: CouplingParams,
    schedule: PulseSchedule,
    initial: GaussianState | None = None,
    check_psd: bool = False,
) -> ScheduleResult:
    """Fold apply_pulse over a schedule, recording the moments after every pulse."""
    if len(schedule) != params.num_pulses:
        raise ValueError(
            f"schedule has {len(schedule)} pulses but params.num_pulses = {params.num_pulses}"
        )
    state = init_css(params) if initial is None else initial
    pulse_means = np.empty((len(schedule), 4))
    pulse_meter_var = np.empty(len(schedule))
    for i, entry in enumerate(schedule.entries):
        state = apply_pulse(state, entry, params)
        if check_psd:
            state.check_psd()
        pulse_means[i] = state.mean
        pulse_meter_var[i] = state.cov[M, M]
    return ScheduleResult(
        meter_mean=float(state.mean[M]),
        meter_var=float(state.cov[M, M]),
        final_state=state,
        pulse_means=pulse_means,
        pulse_meter_var=pulse_meter_var,
    )
