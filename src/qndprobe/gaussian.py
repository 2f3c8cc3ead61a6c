"""Gaussian moment propagation of collective spin-1 variables through pulse trains.

The state tracks means and a 4x4 covariance matrix over (Jy, Jz, Jxy, M):
the alignment conjugate, the measured alignment component, the commutator
operator sourced by the tensor coupling, and the accumulated polarimeter
meter.  Jx and the pulse Sx are treated as classical scalars, each probe
pulse injects fresh shot noise var(Sy_in) = var(Sz_in) = n_L/4, and every
update is the first-order (commutator-linear) map applied with pre-pulse
values on all right-hand sides.  Jxy carries no input-output relation of
its own and stays frozen at its initial statistics.  A pulse is one sign s:
the probe has Sx = s n_L/2 and its polarimeter output enters the meter as s Sy.

One kernel propagates every train.  Because A does not depend on the atom
number and B is affine in jx, the covariance after each pulse is exactly
C0 + NA C1 + NA^2 C2 for a CSS start, so the kernel carries the three
coefficient matrices through the train in one pass (a given initial state
is the same polynomial taken at 1).  ``run_schedule`` evaluates it at its
atom number; ``css_meter_variance`` evaluates one train at every atom number
of a sweep and returns the final var(M) coefficients too.  Every pulse's
covariance is PSD-checked, in a sweep at every atom number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .operators import build_spin_operators

# index order of the tracked variables (Jy, Jz, Jxy, meter)
JY, JZ, JXY, M = 0, 1, 2, 3

# Memory a run may hold, shared with the Monte Carlo.  A run holds 8-byte
# arrays of one value per pulse (the signs, the operator index, jx and the
# recorded var(M) and PSD margin) and of four (the recorded means).
MEMORY_CAP_BYTES = 2 * 1024 ** 3
TRAIN_BYTES_PER_PULSE = 8 * (1 + 1 + 1 + 4 + 1 + 1)


@dataclass(frozen=True)
class CouplingParams:
    """Couplings and bookkeeping for one probing configuration of spin-1 atoms.

    g1 and g2 are the dimensionless per-pulse interaction strengths (pulse
    duration already absorbed) and ``photons_per_pulse`` the photon number of
    a single probe pulse; the train and its length are the ``PulseSchedule``.
    ``scattering_eps`` is an optional per-pulse depolarization probability;
    ``include_dropped_terms`` switches on the -g2 Sy Jx and -g2 Sz Jy
    contributions that are otherwise neglected.
    """

    g1: float
    g2: float
    photons_per_pulse: float
    atom_number: float
    scattering_eps: float = 0.0
    include_dropped_terms: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.g1) and math.isfinite(self.g2)):
            raise ValueError("couplings g1, g2 must be finite")
        if self.photons_per_pulse <= 0:
            raise ValueError("photons_per_pulse must be positive")
        if self.atom_number <= 0:
            raise ValueError("atom_number must be positive")
        if not 0.0 <= self.scattering_eps <= 1.0:
            raise ValueError("scattering_eps must lie in [0, 1]")


@dataclass(frozen=True)
class PulseSchedule:
    """A probe train: one sign per pulse, the probe's Sx sign and its meter sign.

    ``naive``: every sign is +1.  ``decoupled(p)``: 2p pulses with signs
    alternating +1, -1, ..., so the meter is the alternating sum of per-pulse
    Sy outcomes.  Trains whose per-pulse arrays would exceed
    ``MEMORY_CAP_BYTES`` are refused.
    """

    mode: str
    num_pulses: int

    def __post_init__(self):
        if self.mode not in ("naive", "decoupled"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if not isinstance(self.num_pulses, (int, np.integer)) or self.num_pulses < 1:
            raise ValueError("a train needs a positive integer number of pulses")
        if self.mode == "decoupled" and self.num_pulses % 2:
            raise ValueError("a decoupled train needs an even number of pulses")
        if self.num_pulses * TRAIN_BYTES_PER_PULSE > MEMORY_CAP_BYTES:
            raise ValueError(
                f"{self.num_pulses} pulses need about {self.num_pulses * TRAIN_BYTES_PER_PULSE / 1e9:.3g} GB, "
                f"above the {MEMORY_CAP_BYTES / 1e9:.3g} GB train cap"
            )

    def __len__(self) -> int:
        return self.num_pulses

    @property
    def p(self) -> int | None:
        return self.num_pulses // 2 if self.mode == "decoupled" else None

    @property
    def signs(self) -> np.ndarray:
        """Read-only +1/-1 integer array, one sign per pulse."""
        signs = np.resize([1, -1] if self.mode == "decoupled" else [1], self.num_pulses)
        signs.setflags(write=False)
        return signs

    @classmethod
    def naive(cls, num_pulses: int) -> "PulseSchedule":
        return cls("naive", num_pulses)

    @classmethod
    def decoupled(cls, p: int) -> "PulseSchedule":
        return cls("decoupled", 2 * p)


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
    follows the f = 1 operator identity jxy = jz: it shares Jz's variance and
    its row/column of the covariance.
    """
    na = params.atom_number
    mean = np.zeros(4)
    cov = np.zeros((4, 4))
    cov[JY, JY] = na / 4
    cov[JZ:JXY + 1, JZ:JXY + 1] = na / 4
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


def pulse_map(sign: int, params: CouplingParams, jx: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear part of one probe pulse of sign +1 or -1: x <- A x + B (Sy_in, Sz_in).

    With classical Sx = sign * n_L/2, classical Jx = jx and fresh shot
    noise Sy_in, Sz_in (variance n_L/4 each, uncorrelated with everything
    prior), the first-order map on x = (Jy, Jz, Jxy, M) is

        Jz  <- Jz + g2 Sx Jy                  [- g2 Sy_in Jx   if dropped terms on]
        Jy  <- Jy - g1 Sz_in Jx - g2 Sx Jxy
        Jxy <- Jxy                            (frozen)
        M   <- M + sign (Sy_in + g1 Sx Jz)

    with pre-pulse values on all right-hand sides.  A is 4x4 and B the 4x2
    loadings of (Sy_in, Sz_in).  The one non-linear contribution, the
    dropped-term meter product -sign g2 Sz_in Jy, is left to the caller.
    """
    sx = sign * params.photons_per_pulse / 2.0
    g1, g2 = params.g1, params.g2

    a = np.eye(4)
    a[JZ, JY] = g2 * sx
    a[JY, JXY] = -g2 * sx
    a[M, JZ] = sign * g1 * sx

    b = np.zeros((4, 2))
    b[JY, 1] = -g1 * jx
    b[M, 0] = sign
    if params.include_dropped_terms:
        b[JZ, 0] = -g2 * jx
    return a, b


# vec(cov)[4 i + j] = cov[i, j]; the kernel acts on covariances in this flattened form
_TRANSPOSE = np.eye(16)[[4 * j + i for i in range(4) for j in range(4)]]
_SYMMETRIZE = (np.eye(16) + _TRANSPOSE) / 2
_VEC_JY_JY, _VEC_M_M = 5 * JY, 5 * M
_VEC_ATOMIC_DIAG = [5 * JY, 5 * JZ, 5 * JXY]
# covariance matrices evaluated per block of the kernel (2 MB of 4x4 floats),
# so also the most atom numbers one sweep evaluates
EVAL_BATCH = 1 << 14


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


def _train(params: CouplingParams, schedule: PulseSchedule, unit: GaussianState, nu: float, block: int):
    """Moments of the state lambda * ``unit`` after every pulse, as polynomials in lambda.

    The state has jx = lambda * unit.jx_mean, means lambda * unit.mean and
    covariance lambda * unit.cov, and carries nu * lambda atoms (nu = 1 for a
    CSS of lambda = NA atoms).  Since A does not depend on lambda and
    B(jx) = B0 + jx B1 is affine in it, the covariance after every pulse is
    exactly C0 + lambda C1 + lambda^2 C2.  Each pulse sign becomes one
    16x16 operator on vec(cov): A (x) A, the dropped-term
    g2^2 shot var(Jy) -> var(M) entry, symmetrization and the depolarization
    contraction.  The per-pulse noise (shot noise through B, the dropped-term
    mean loading -sign g2 <Jy> of Sz_in into M, and the depolarization
    noise eps nu lambda kappa) is built in array operations, so the loop body
    is one (3, 16) @ (16, 16) product and one add.

    Yields, per block of at most ``block`` pulses, the index of its first
    pulse, the means per unit lambda (pulses, 4), the coefficients
    (pulses, 3, 16) and the jx per unit lambda after each of them.
    """
    n = len(schedule)
    shot = params.photons_per_pulse / 4.0
    eps = params.scattering_eps
    r = 1.0 - eps
    d = np.array([r, r, r, 1.0])
    dd = np.outer(d, d).ravel()

    # operator index of each pulse: 0 for sign +1, 1 for sign -1
    kind = (schedule.signs < 0).astype(int)
    maps, ops, b0, b1, load = [], [], [], [], []
    for sign in (1, -1):
        a, b = pulse_map(sign, params, 0.0)
        k = np.kron(a, a)
        mean_load = np.zeros((4, 2))
        if params.include_dropped_terms:
            k[_VEC_M_M, _VEC_JY_JY] += params.g2 * params.g2 * shot
            mean_load[M, 1] = -sign * params.g2
        maps.append(a)
        # transposed, to act on the rows of the coefficient stack
        ops.append((dd[:, None] * (_SYMMETRIZE @ k)).T)
        b0.append(b)
        b1.append(pulse_map(sign, params, 1.0)[1] - b)
        load.append(mean_load)
    b0, b1, load = np.array(b0), np.array(b1), np.array(load)
    b0_noise = shot * np.einsum("kia,kja->kij", b0, b0).reshape(-1, 16) * dd
    depol_noise = eps * nu * np.array(single_atom_mixed_variances(1.0))
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
        yield start, means, coeffs, jx[start + 1:start + 1 + len(ks)]


def _start(params: CouplingParams, initial: GaussianState | None) -> tuple[GaussianState, float, float]:
    """(unit, nu, lambda): a CSS start scales with lambda = NA, a given state is taken at lambda = 1."""
    if initial is None:
        return init_css(replace(params, atom_number=1.0)), 1.0, params.atom_number
    return initial, params.atom_number, 1.0


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


def run_schedule(
    params: CouplingParams,
    schedule: PulseSchedule,
    initial: GaussianState | None = None,
) -> ScheduleResult:
    """Run a train from ``initial`` (default: the CSS), recording the moments after every pulse.

    Each pulse applies ``pulse_map`` to the means and covariances, which
    follow the affine-Gaussian transport exactly.  With the dropped terms on,
    the meter product -sign g2 Sz_in Jy enters through its mean, as the Sz_in
    loading -sign g2 <Jy> of M, and its fluctuation contributes the
    Gaussian-factorized variance g2^2 var(Sz_in) var(Jy) as an independent
    noise on M.  Depolarization (scattering_eps) then shrinks the atomic
    means and jx by (1 - eps), contracts the atomic covariance block by
    (1 - eps)^2 and the atomic-meter covariances by (1 - eps), and adds
    eps * NA times the fully mixed single-atom variances, so eps = 1 lands on
    the fully depolarized ensemble.  One pass of the covariance kernel; every
    pulse's covariance is PSD-checked (ArithmeticError on a violation).
    """
    unit, nu, lam = _start(params, initial)
    n = len(schedule)
    means, meter_var, margins = np.empty((n, 4)), np.empty(n), np.empty(n)
    for start, block_means, coeffs, jx in _train(params, schedule, unit, nu, EVAL_BATCH):
        block = slice(start, start + len(coeffs))
        covs = _covariances(coeffs, [lam])[:, 0]
        margins[block] = _psd_margins(covs)
        means[block] = lam * block_means
        meter_var[block] = covs[:, M, M]
    final = GaussianState(mean=means[-1].copy(), cov=covs[-1].copy(), jx_mean=lam * jx[-1])
    return ScheduleResult(
        meter_mean=float(final.mean[M]),
        meter_var=float(final.cov[M, M]),
        final_state=final,
        pulse_means=means,
        pulse_meter_var=meter_var,
        pulse_min_cov_eig=margins,
    )


def css_meter_variance(params: CouplingParams, schedule: PulseSchedule, atom_numbers) -> tuple:
    """Final var(M) of the x-polarized CSS at each atom number, and its c0, c1, c2 in NA.

    The covariance is exactly quadratic in NA, so the train is propagated once
    and evaluated at every atom number; ``params.atom_number`` is not used.
    Every pulse is PSD-checked at every atom number.  At most ``EVAL_BATCH``
    atom numbers are accepted, so one block holds at least one pulse.
    """
    if len(atom_numbers) > EVAL_BATCH:
        raise ValueError(f"{len(atom_numbers)} atom numbers exceed the {EVAL_BATCH} one sweep evaluates")
    lam = np.asarray(atom_numbers, dtype=float)
    unit, nu, _ = _start(params, None)
    for _, _, coeffs, _ in _train(params, schedule, unit, nu, EVAL_BATCH // len(lam)):
        covs = _covariances(coeffs, lam)
        _psd_margins(covs)
    return covs[-1, :, M, M], coeffs[-1, :, _VEC_M_M]
