"""Gaussian moment propagation of collective atomic variables through pulse trains.

The state tracks means and a 4x4 covariance matrix over (Jy, Jz, Jxy, M):
the alignment conjugate, the measured alignment component, the commutator
operator sourced by the tensor coupling, and the accumulated polarimeter
meter.  Jx and the pulse Sx are treated as classical scalars, each probe
pulse injects fresh shot noise var(Sy_in) = var(Sz_in) = n_L/4, and every
update is the first-order (commutator-linear) map applied with pre-pulse
values on all right-hand sides.  Jxy carries no input-output relation of
its own and stays frozen at its initial statistics.

One kernel propagates every train.  Because A does not depend on the atom
number and B is affine in jx, the covariance after each pulse is exactly
C0 + NA C1 + NA^2 C2 for a CSS start, so the kernel carries the three
coefficient matrices through the train in one pass (a given initial state
is the same polynomial taken at 1).  ``run_schedule`` and ``apply_pulse``
evaluate it at their atom number; ``css_meter_variance`` evaluates one train
at every atom number of a sweep.  Every pulse's covariance is PSD-checked,
in a sweep at every atom number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

    def check_psd(self, tol: float = 1e-9):
        """Raise if the covariance has an eigenvalue below -tol (scale-relative)."""
        _psd_margins(self.cov[None], tol)


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


# vec(cov)[4 i + j] = cov[i, j]; the kernel acts on covariances in this flattened form
_TRANSPOSE = np.eye(16)[[4 * j + i for i in range(4) for j in range(4)]]
_SYMMETRIZE = (np.eye(16) + _TRANSPOSE) / 2
_VEC_JY_JY, _VEC_M_M = 5 * JY, 5 * M
_VEC_ATOMIC_DIAG = [5 * JY, 5 * JZ, 5 * JXY]
# covariance matrices evaluated per block of the kernel (2 MB of 4x4 floats)
_EVAL_BATCH = 1 << 14


def _psd_margins(covs: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Smallest eigenvalue of every symmetrized covariance in a (..., 4, 4) stack.

    Raises ArithmeticError if a covariance is not finite (eigvalsh would
    return arbitrary values or fail to converge) or if any eigenvalue falls
    below -tol * max(1, trace).
    """
    bad = ~np.isfinite(covs).all(axis=(-2, -1))
    if bad.any():
        raise ArithmeticError(f"non-finite covariance at index {tuple(map(int, np.argwhere(bad)[0]))}")
    low = np.linalg.eigvalsh((covs + covs.swapaxes(-1, -2)) / 2)[..., 0]
    bad = low < -tol * np.maximum(1.0, np.trace(covs, axis1=-2, axis2=-1))
    if bad.any():
        where = tuple(map(int, np.argwhere(bad)[0]))
        raise ArithmeticError(
            f"covariance lost positive semidefiniteness at index {where} (min eigenvalue {low[where]:.3e})"
        )
    return low


def _covariances(coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(n, 3, 16) coefficients of lambda^0..2 -> (n, len(lam), 4, 4) covariances."""
    powers = np.asarray(lam, dtype=float)[:, None] ** np.arange(3)
    return (powers @ coeffs).reshape(len(coeffs), len(powers), 4, 4)


def _train(params: CouplingParams, entries, unit: GaussianState, nu: float, block: int):
    """Moments of the state lambda * ``unit`` after every pulse, as polynomials in lambda.

    The state has jx = lambda * unit.jx_mean, means lambda * unit.mean and
    covariance lambda * unit.cov, and carries nu * lambda atoms (nu = 1 for a
    CSS of lambda = NA atoms).  Since A does not depend on lambda and
    B(jx) = B0 + jx B1 is affine in it, the covariance after every pulse is
    exactly C0 + lambda C1 + lambda^2 C2.  Each distinct schedule entry
    becomes one 16x16 operator on vec(cov): A (x) A, the dropped-term
    g2^2 shot var(Jy) -> var(M) entry, symmetrization and the depolarization
    contraction.  The per-pulse noise (shot noise through B, the dropped-term
    mean loading -meter_sign g2 <Jy> of Sz_in into M, and the depolarization
    noise eps nu lambda kappa) is built in array operations, so the loop body
    is one (3, 16) @ (16, 16) product and one add.

    Yields, per block of at most ``block`` pulses, the means per unit lambda
    (pulses, 4), the coefficients (pulses, 3, 16) and the
    jx per unit lambda after each of them.
    """
    n = len(entries)
    shot = params.photons_per_pulse / 4.0
    eps = params.scattering_eps
    r = 1.0 - eps
    d = np.array([r, r, r, 1.0])
    dd = np.outer(d, d).ravel()

    kinds: dict = {}
    kind = np.array([kinds.setdefault(e, len(kinds)) for e in entries])
    maps, ops, b0, b1, load = [], [], [], [], []
    for entry in kinds:
        a, b = pulse_map(entry, params, 0.0)
        k = np.kron(a, a)
        mean_load = np.zeros((4, 2))
        if params.include_dropped_terms:
            k[_VEC_M_M, _VEC_JY_JY] += params.g2 * params.g2 * shot
            mean_load[M, 1] = -entry.meter_sign * params.g2
        maps.append(a)
        # transposed, to act on the rows of the coefficient stack
        ops.append((dd[:, None] * (_SYMMETRIZE @ k)).T)
        b0.append(b)
        b1.append(pulse_map(entry, params, 1.0)[1] - b)
        load.append(mean_load)
    b0, b1, load = np.array(b0), np.array(b1), np.array(load)
    b0_noise = shot * np.einsum("kia,kja->kij", b0, b0).reshape(-1, 16) * dd
    depol_noise = eps * nu * np.array(single_atom_mixed_variances(params.f))
    jx = unit.jx_mean * r ** np.arange(n + 1)

    mean = unit.mean
    c = np.zeros((3, 16))
    c[1] = unit.cov.ravel()
    for start in range(0, n, block):
        ks = kind[start:start + block]
        means = np.zeros((len(ks), 4))
        pre_jy = np.full(len(ks), mean[JY])
        if mean.any():
            for i, k in enumerate(ks):
                pre_jy[i] = mean[JY]
                mean = (maps[k] @ mean) * d
                means[i] = mean

        # B = B0 + lambda (u B1 + <Jy> L) per unit lambda
        lin = jx[start:start + len(ks), None, None] * b1[ks] + pre_jy[:, None, None] * load[ks]
        cross = np.einsum("nia,nja->nij", b0[ks], lin)
        noise = np.empty((len(ks), 3, 16))
        noise[:, 0] = b0_noise[ks]
        noise[:, 1] = shot * (cross + cross.swapaxes(1, 2)).reshape(-1, 16) * dd
        noise[:, 2] = shot * np.einsum("nia,nja->nij", lin, lin).reshape(-1, 16) * dd
        noise[:, 1, _VEC_ATOMIC_DIAG] += depol_noise

        coeffs = np.empty((len(ks), 3, 16))
        for i, k in enumerate(ks):
            c = c @ ops[k] + noise[i]
            coeffs[i] = c
        yield means, coeffs, jx[start + 1:start + 1 + len(ks)]


def _start(params: CouplingParams, initial: GaussianState | None) -> tuple[GaussianState, float, float]:
    """(unit, nu, lambda): a CSS start scales with lambda = NA, a given state is taken at lambda = 1."""
    if initial is None:
        return init_css(replace(params, atom_number=1.0)), 1.0, params.atom_number
    return initial, params.atom_number, 1.0


def _check_length(params: CouplingParams, schedule: PulseSchedule):
    if len(schedule) != params.num_pulses:
        raise ValueError(
            f"schedule has {len(schedule)} pulses but params.num_pulses = {params.num_pulses}"
        )


@dataclass(frozen=True)
class ScheduleResult:
    """Final meter statistics plus the per-pulse trace of the run.

    ``pulse_means[i]`` holds the means of (Jy, Jz, Jxy, M), ``pulse_meter_var[i]``
    var(M) and ``pulse_min_cov_eig[i]`` the smallest covariance eigenvalue
    (the PSD margin) after pulse i.
    """

    meter_mean: float
    meter_var: float
    final_state: GaussianState
    pulse_means: np.ndarray
    pulse_meter_var: np.ndarray
    pulse_min_cov_eig: np.ndarray


def _run(params: CouplingParams, entries, initial: GaussianState | None) -> ScheduleResult:
    unit, nu, lam = _start(params, initial)
    means, meter_var, margins = [], [], []
    for block_means, coeffs, jx in _train(params, entries, unit, nu, _EVAL_BATCH):
        covs = _covariances(coeffs, [lam])[:, 0]
        margins.append(_psd_margins(covs))
        means.append(lam * block_means)
        meter_var.append(covs[:, M, M])
    final = GaussianState(mean=means[-1][-1].copy(), cov=covs[-1].copy(), jx_mean=lam * jx[-1])
    return ScheduleResult(
        meter_mean=float(final.mean[M]),
        meter_var=float(final.cov[M, M]),
        final_state=final,
        pulse_means=np.concatenate(means),
        pulse_meter_var=np.concatenate(meter_var),
        pulse_min_cov_eig=np.concatenate(margins),
    )


def apply_pulse(state: GaussianState, entry: ScheduleEntry, params: CouplingParams) -> GaussianState:
    """Propagate one probe pulse through ``pulse_map``, then depolarize.

    Means and covariances follow the affine-Gaussian transport exactly.  With
    the dropped terms on, the meter product -meter_sign g2 Sz_in Jy enters
    through its mean, as the Sz_in loading -meter_sign g2 <Jy> of M, and its
    fluctuation contributes the Gaussian-factorized variance
    g2^2 var(Sz_in) var(Jy) as an independent noise on M.  Depolarization
    (scattering_eps) then shrinks the atomic means and jx by (1 - eps),
    contracts the atomic covariance block by (1 - eps)^2 and the
    atomic-meter covariances by (1 - eps), and adds eps * NA times the fully
    mixed single-atom variances, so eps = 1 lands on the fully depolarized
    ensemble.  The result is PSD-checked.
    """
    return _run(params, (entry,), state).final_state


def run_schedule(
    params: CouplingParams,
    schedule: PulseSchedule,
    initial: GaussianState | None = None,
) -> ScheduleResult:
    """Run a train from ``initial`` (default: the CSS), recording the moments after every pulse.

    One pass of the covariance kernel; every pulse's covariance is
    PSD-checked (ArithmeticError on a violation).
    """
    _check_length(params, schedule)
    return _run(params, schedule.entries, initial)


def css_meter_variance(params: CouplingParams, schedule: PulseSchedule, atom_numbers) -> np.ndarray:
    """Final var(M) of the x-polarized CSS at each atom number, from one pass of the train.

    The covariance is exactly quadratic in NA, so the train is propagated once
    and evaluated at every atom number; ``params.atom_number`` is not used.
    Every pulse is PSD-checked at every atom number.
    """
    _check_length(params, schedule)
    lam = np.asarray(atom_numbers, dtype=float)
    unit, nu, _ = _start(params, None)
    for _, coeffs, _ in _train(params, schedule.entries, unit, nu, max(1, _EVAL_BATCH // len(lam))):
        covs = _covariances(coeffs, lam)
        _psd_margins(covs)
    return covs[-1, :, M, M]
