"""Gaussian moment propagation of collective spin-1 variables through pulse trains.

The state tracks means and a DIM x DIM covariance matrix over the variables
of ``STATE``, (Jy, Jz, Jxy, M): the alignment conjugate, the measured
alignment component, the commutator operator sourced by the tensor coupling,
and the accumulated polarimeter meter; every size and index derives from
``STATE``.  Jx and the pulse Sx are treated as classical scalars, each probe
pulse injects fresh shot noise var(Sy_in) = var(Sz_in) = n_L/4, and every
update is the first-order (commutator-linear) map applied with pre-pulse
values on all right-hand sides.  Jxy carries no input-output relation of
its own and stays frozen at its initial statistics.  A pulse is one sign s:
the probe has Sx = s n_L/2 and its polarimeter output enters the meter as s Sy.

One kernel propagates every train.  Because A does not depend on the atom
number and B is affine in jx, the covariance after each pulse is exactly
C0 + NA C1 + NA^2 C2 for a CSS start, so the kernel carries the three
coefficient matrices through the train (a given initial state is the same
polynomial taken at 1).  It cuts a train of n pulses into about sqrt(n)
chunks of about sqrt(n) pulses and steps all chunks at once, carrying the
state across chunk boundaries one step per chunk, so a train takes
O(sqrt(n)) Python steps.  Its pulses, like the Monte Carlo's, are
``pulse_channel``'s.  ``run_schedule`` evaluates it at its atom number;
``css_meter_variance`` evaluates one train at every atom number of a sweep
and returns the final var(M) coefficients too.  Every pulse's covariance is
PSD-checked, in a sweep at every atom number, by ``_check_psd``: one LDL^T
elimination run across the whole stack at once, with eigenvalues computed
only to word a refusal, which names the earliest failing pulse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

# The tracked variables in index order, named as the spin operators they
# follow (``operators.SpinOperatorSet``), then the meter.  The ones before the
# meter are ATOMIC: they depolarize and come from single-atom moments.
STATE = ("jy", "jz", "jxy", "m")
JY, JZ, JXY, M = map(STATE.index, ("jy", "jz", "jxy", "m"))
ATOMIC = STATE[:M]
DIM = len(STATE)
# variance of each ATOMIC variable in the maximally mixed spin-1 state, tr(op^2)/3
MIXED_VARIANCE = 1.0 / 6.0
# a covariance is PSD when no eigenvalue lies below -PSD_TOL * max(1, trace)
PSD_TOL = 1e-9

# Memory a run may hold, shared with the Monte Carlo.  A run holds 8-byte
# arrays of one value per pulse (the signs and the recorded var(M)), of DIM
# (the recorded means) and of six (the weights of the pulse's noise terms);
# the chunked scan holds a few states per chunk.  The traced peak of a tilted
# run with the dropped terms grows by about 90 B per pulse (2e5 to 8e5 pulses).
MEMORY_CAP_BYTES = 2 * 1024 ** 3
TRAIN_BYTES_PER_PULSE = 8 * (1 + 1 + DIM + 6)


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
        if not (math.isfinite(self.photons_per_pulse) and self.photons_per_pulse > 0):
            raise ValueError("photons_per_pulse must be positive and finite")
        if not (math.isfinite(self.atom_number) and self.atom_number > 0):
            raise ValueError("atom_number must be positive and finite")
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
    """Means and covariance of the ``STATE`` variables plus the classical Jx mean."""

    mean: np.ndarray
    cov: np.ndarray
    jx_mean: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (DIM,) or cov.shape != (DIM, DIM):
            raise ValueError(f"state shapes {mean.shape}, {cov.shape} do not fit {STATE}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def check_psd(self):
        """Raise ArithmeticError unless the covariance is finite and PSD (see ``_check_psd``)."""
        _check_psd(self.cov[None])


def init_css(params: CouplingParams) -> GaussianState:
    """Initial x-polarized coherent-spin-state moments.

    jx_mean = NA/2, all tracked means zero, var(Jz) = var(Jy) = NA/4 (the
    projection noise Jx/2) with no cross covariances.  The frozen Jxy slot
    follows the f = 1 operator identity jxy = jz: it shares Jz's variance and
    its row/column of the covariance.
    """
    na = params.atom_number
    cov = np.zeros((len(ATOMIC), len(ATOMIC)))
    cov[JY, JY] = cov[JZ, JZ] = cov[JZ, JXY] = cov[JXY, JZ] = cov[JXY, JXY] = na / 4
    return state_from_atomic_moments(np.zeros(len(ATOMIC)), cov, na / 2)


def state_from_atomic_moments(atomic_mean, atomic_cov, jx_mean: float) -> GaussianState:
    """Assemble a fresh state (meter at zero) from the means and covariance of the ``ATOMIC`` variables."""
    atomic_mean = np.asarray(atomic_mean, dtype=float)
    atomic_cov = np.asarray(atomic_cov, dtype=float)
    if atomic_mean.shape != (len(ATOMIC),) or atomic_cov.shape != (len(ATOMIC), len(ATOMIC)):
        raise ValueError(f"atomic shapes {atomic_mean.shape}, {atomic_cov.shape} do not fit {ATOMIC}")
    mean = np.zeros(DIM)
    mean[:M] = atomic_mean
    cov = np.zeros((DIM, DIM))
    cov[:M, :M] = (atomic_cov + atomic_cov.T) / 2
    return GaussianState(mean=mean, cov=cov, jx_mean=float(jx_mean))


def pulse_map(sign: int, params: CouplingParams, jx: float) -> tuple[np.ndarray, np.ndarray]:
    """Linear part of one probe pulse of sign +1 or -1: x <- A x + B (Sy_in, Sz_in).

    With classical Sx = sign * n_L/2, classical Jx = jx and fresh shot
    noise Sy_in, Sz_in (variance n_L/4 each, uncorrelated with everything
    prior), the first-order map on the ``STATE`` x = (Jy, Jz, Jxy, M) is

        Jz  <- Jz + g2 Sx Jy                  [- g2 Sy_in Jx   if dropped terms on]
        Jy  <- Jy - g1 Sz_in Jx - g2 Sx Jxy
        Jxy <- Jxy                            (frozen)
        M   <- M + sign (Sy_in + g1 Sx Jz)

    with pre-pulse values on all right-hand sides.  A is DIM x DIM and B the
    DIM x 2 loadings of (Sy_in, Sz_in).  The one non-linear contribution, the
    dropped-term meter product -sign g2 Sz_in Jy, is left to ``pulse_channel``.
    """
    sx = sign * params.photons_per_pulse / 2.0
    g1, g2 = params.g1, params.g2

    a = np.eye(DIM)
    a[JZ, JY] = g2 * sx
    a[JY, JXY] = -g2 * sx
    a[M, JZ] = sign * g1 * sx

    b = np.zeros((DIM, 2))
    b[JY, 1] = -g1 * jx
    b[M, 0] = sign
    if params.include_dropped_terms:
        b[JZ, 0] = -g2 * jx
    return a, b


class PulseChannel(NamedTuple):
    """The depolarized pulse of each sign, index 0 for +1 and 1 for -1 (see ``pulse_channel``)."""

    da: np.ndarray      # (2, DIM, DIM) D A
    db0: np.ndarray     # (2, DIM, 2) sqrt(shot) D B0
    db1: np.ndarray     # (2, DIM, 2) sqrt(shot) D B1
    q: np.ndarray       # (2,) meter-product loading -sign g2 sqrt(shot)
    depol: np.ndarray   # (DIM,) depolarization variance per atom
    jx_decay: float     # 1 - eps


def pulse_channel(params: CouplingParams) -> PulseChannel:
    """One pulse of each sign followed by depolarization, with the shot noise in standard normals.

    With A and B(jx) = B0 + jx B1 from ``pulse_map``, shot = n_L/4 and
    z = (Sy_in, Sz_in) / sqrt(shot) two fresh standard normals, a pulse of
    sign s maps the state x and the pre-pulse jx of NA atoms to

        x  <- D A x + sqrt(shot) D B(jx) z + q Jy z[1] e_M + w
        jx <- (1 - eps) jx

    where D, 1 - eps on every ``ATOMIC`` variable and 1 on M, is the
    depolarization contraction, q = -s g2 sqrt(shot) loads the dropped-term meter product
    -s g2 Sz_in Jy (q = 0 with the dropped terms off) and w is independent
    noise of variance NA * depol: eps times ``MIXED_VARIANCE`` on every
    atomic variable and 0 on M, so eps = 1 gives every atomic variable its
    fully depolarized variance but zeroes cov(Jz, Jxy), which is NA/6 there
    for f = 1 (jxy = jz).  Everything is evaluated with pre-pulse values.
    """
    eps = params.scattering_eps
    d = np.array([1.0 - eps] * len(ATOMIC) + [1.0])[:, None]
    sqrt_shot = math.sqrt(params.photons_per_pulse / 4.0)
    da, db0, db1 = [], [], []
    for sign in (1, -1):
        a, b = pulse_map(sign, params, 0.0)
        da.append(d * a)
        db0.append(sqrt_shot * d * b)
        db1.append(sqrt_shot * d * (pulse_map(sign, params, 1.0)[1] - b))
    q = -np.array([1.0, -1.0]) * params.g2 * sqrt_shot if params.include_dropped_terms else np.zeros(2)
    depol = eps * np.array([MIXED_VARIANCE] * len(ATOMIC) + [0.0])
    return PulseChannel(np.array(da), np.array(db0), np.array(db1), q, depol, 1.0 - eps)


# vec(cov)[_VEC[i, j]] = cov[i, j]; the kernel acts on covariances in this flattened form
_VEC = np.arange(DIM * DIM).reshape(DIM, DIM)
_SYMMETRIZE = (np.eye(DIM * DIM) + np.eye(DIM * DIM)[_VEC.T.ravel()]) / 2
# covariance matrices evaluated per block of the kernel (2 MB at DIM = 4),
# so also the most atom numbers one sweep evaluates
EVAL_BATCH = 1 << 14


def _check_psd(covs: np.ndarray, name=lambda index: f"index {index}") -> None:
    """Raise ArithmeticError unless every covariance of a (..., d, d) stack is finite and PSD.

    A covariance passes when it is finite and the smallest eigenvalue of its
    symmetrized form lies at or above -PSD_TOL * max(1, trace).  The passing
    path is an LDL^T elimination without pivoting of sym(C) + PSD_TOL *
    max(1, tr C) I, run on the whole stack at once with entry (i, j) of every
    matrix in one contiguous array; its pivots, the squared diagonal of the
    Cholesky factor, are all > 0 exactly when the covariance passes, up to
    rounding (about 1e-16 |C|).  Only a stack that is not finite or fails the
    elimination has its eigenvalues computed, which settles that gap; the
    refusal names the first failing index, worded ``name(index)`` and kept as
    its ``index``, and the smallest eigenvalue of a finite covariance.
    """
    if np.isfinite(covs).all():
        d = covs.shape[-1]
        flat = covs.reshape(-1, d, d)
        a = np.empty((d, d, len(flat)))
        np.add(flat.transpose(1, 2, 0), flat.transpose(2, 1, 0), out=a)
        a /= 2
        diagonal = a.reshape(d * d, -1)[::d + 1]  # a view of the d diagonal entries
        diagonal += PSD_TOL * np.maximum(1.0, diagonal.sum(axis=0))
        for k in range(d):
            pivot = a[k, k]
            if not (pivot > 0).all():
                break
            a[k + 1:, k + 1:] -= a[k + 1:, k, None] * (a[k, None, k + 1:] / pivot)
        else:
            return
    finite = np.isfinite(covs).all(axis=(-2, -1))
    sym = np.where(finite[..., None, None], covs, 0.0) / 2
    sym += sym.swapaxes(-1, -2)  # halved first, so a finite sym(C) cannot overflow
    low = np.linalg.eigvalsh(sym)[..., 0]
    bad = ~finite | (low < -PSD_TOL * np.maximum(1.0, np.trace(sym, axis1=-2, axis2=-1)))
    if bad.any():
        where = tuple(map(int, np.argwhere(bad)[0]))
        refusal = ArithmeticError(
            f"covariance lost positive semidefiniteness at {name(where)} (min eigenvalue {low[where]:.3e})"
            if finite[where] else f"non-finite covariance at {name(where)}"
        )
        refusal.index = where
        raise refusal


def _covariances(coeffs: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """(n, 3, DIM^2) coefficients of lambda^0..2 -> (n, len(lam), DIM, DIM) covariances."""
    powers = np.asarray(lam, dtype=float)[:, None] ** np.arange(3)
    return (powers @ coeffs).reshape(len(coeffs), len(powers), DIM, DIM)


def _chunking(n: int) -> tuple[int, int]:
    """(length, count) of the chunks an n-pulse train is scanned in.

    The length is the smallest even number not below sqrt(n), so that the
    period-2 sign pattern of a decoupled train (and the constant one of a
    naive train) is the same in every chunk.  The last chunk may run past
    the end of the train.
    """
    length = 2 * math.ceil(math.sqrt(n) / 2)
    return length, -(-n // length)


def _scan(ops: np.ndarray, start: np.ndarray, chunks: int, drive=None):
    """Every state of the recurrence x <- x @ ops[t] + drive(t) along ``chunks`` equal chunks.

    Position t of every chunk applies the (d, d) operator ops[t] and then
    adds drive(t), a (chunks * r, d) stack of one (r, d) term per chunk
    (nothing when ``drive`` is None); ``start`` (r, d) is the state before
    the first pulse.  A first pass over the positions finds every chunk's
    map from the state entering it to the state leaving it, x @ W + end[j],
    where W is the product of ``ops`` and end[j] the chunk's own state when
    entered at zero.  One step per chunk then carries the entering states
    along the train, and a second pass over the positions, started from
    them, yields after each position t the (chunks, r, d) states of every
    chunk.  Each pass steps the states of all chunks at once, as one
    (chunks * r, d) @ (d, d) product, so a train takes 2 len(ops) + chunks
    Python steps and holds a few states per chunk.
    """
    r, d = start.shape
    whole, end = functools.reduce(np.matmul, ops), np.zeros((chunks * r, d))
    if drive is not None:
        for t, op in enumerate(ops):
            end = end @ op + drive(t)
    end = end.reshape(chunks, r, d)
    entry = np.empty((chunks, r, d))
    entry[0] = start
    for j in range(1, chunks):
        entry[j] = entry[j - 1] @ whole + end[j - 1]
    state = entry.reshape(chunks * r, d)
    for t, op in enumerate(ops):
        state = state @ op
        if drive is not None:
            state += drive(t)
        yield state.reshape(chunks, r, d)


def _blocks(states, length: int, n: int, block: int):
    """Regroup ``_scan``'s per-position states into (pulses, states) blocks in pulse order.

    Pulse j * length + t is position t of chunk j.  Each block holds at most
    ``block`` pulses of the train, with their ascending indices; positions
    past the end of the train are dropped, so the block that holds the last
    pulse ends with it.
    """
    chunks = -(-n // length)
    positions = max(1, block // chunks)  # held at a time, each of every chunk
    for t, state in enumerate(states):
        i = t % positions
        if i == 0:
            held = np.empty((chunks, min(positions, length - t), *state.shape[1:]))
        held[:, i] = state
        if i < held.shape[1] - 1:
            continue
        pulses = (length * np.arange(chunks)[:, None] + np.arange(t - i, t + 1)).ravel()
        inside = pulses < n
        pulses, held = pulses[inside], held.reshape(-1, *state.shape[1:])[inside]
        for first in range(0, len(pulses), block):
            yield pulses[first:first + block], held[first:first + block]


def _train(params: CouplingParams, schedule: PulseSchedule, unit: GaussianState, nu: float, block: int):
    """Moments of the state lambda * ``unit`` after every pulse, as polynomials in lambda.

    The state has jx = lambda * unit.jx_mean, means lambda * unit.mean and
    covariance lambda * unit.cov, and carries nu * lambda atoms (nu = 1 for a
    CSS of lambda = NA atoms).  Each pulse is ``pulse_channel``'s.  Since
    D A does not depend on lambda and D B(jx) is affine in it, the
    covariance after every pulse is exactly C0 + lambda C1 + lambda^2 C2.
    Each pulse sign becomes one DIM^2 x DIM^2 operator on vec(cov): the symmetrized
    (D A) (x) (D A) plus the meter product's q^2 var(Jy) -> var(M).  The
    pulse's noise (the channel's shot noise, with the meter product's mean
    loading y = q <Jy> of Sz_in into M, and its depolarization noise for
    nu lambda atoms) is a sum of per-sign constant outer products of D B0,
    D B1 and the loading, weighted by 1, jx, jx^2, y, jx y and y^2.  The
    means (with D A) and the coefficients (3 rows of vec(cov)) are
    both propagated by ``_scan`` over the chunks of ``_chunking``, so a
    train of n pulses takes O(sqrt(n)) Python steps.

    Returns the means per unit lambda after every pulse (n, DIM), the jx per
    unit lambda after the train, and a generator of (pulses, coefficients)
    blocks of at most ``block`` pulses (see ``_blocks``), with coefficients
    (pulses, 3, DIM^2).
    """
    n = len(schedule)
    length, chunks = _chunking(n)
    da, db0, db1, q, depol, jx_decay = pulse_channel(params)
    # operator index at each position of a chunk: 0 for sign +1, 1 for sign -1
    kind = (schedule.signs[:2] < 0).astype(int)
    kind = kind[np.arange(length) % len(kind)]

    means = np.zeros((n, DIM))
    if unit.mean.any():
        grid = np.empty((chunks, length, DIM))
        for t, state in enumerate(_scan(da[kind].swapaxes(1, 2), unit.mean[None], chunks)):
            grid[:, t] = state[:, 0]
        means = grid.reshape(-1, DIM)[:n]

    # per pulse, the weights 1, jx, jx^2, y, jx y and y^2 of the noise terms
    weights = np.zeros((chunks * length, 6))
    by_position = weights.reshape(chunks, length, 6)
    weights[:, 0] = 1.0
    np.multiply.outer(unit.jx_mean * jx_decay ** (length * np.arange(chunks)), jx_decay ** np.arange(length),
                      out=by_position[..., 1])
    np.square(weights[:, 1], out=weights[:, 2])
    weights[0, 3] = unit.mean[JY]
    weights[1:n, 3] = means[:-1, JY]
    by_position[..., 3] *= q[kind]
    np.multiply(weights[:, 1], weights[:, 3], out=weights[:, 4])
    np.square(weights[:, 3], out=weights[:, 5])

    # the noise root is db0 + lambda (jx db1 + y load), where y loads Sz_in into M;
    # the outer products of its parts, per sign, weighted as above
    load = np.zeros_like(db0)
    load[:, M, 1] = 1.0
    parts = np.stack([db0, db1, load], axis=1)
    outer = (parts[:, :, None] @ parts[:, None].swapaxes(-1, -2)).reshape(2, 3, 3, DIM * DIM)
    terms = np.zeros((2, 6, 3, DIM * DIM))
    terms[:, 0, 0] = outer[:, 0, 0]
    terms[:, 0, 1, _VEC.diagonal()] = nu * depol
    terms[:, 1, 1] = outer[:, 0, 1] + outer[:, 1, 0]
    terms[:, 2, 2] = outer[:, 1, 1]
    terms[:, 3, 1] = outer[:, 0, 2] + outer[:, 2, 0]
    terms[:, 4, 2] = outer[:, 1, 2] + outer[:, 2, 1]
    terms[:, 5, 2] = outer[:, 2, 2]
    terms = terms.reshape(2, 6, 3 * DIM * DIM)

    def drive(t):
        return (by_position[:, t] @ terms[kind[t]]).reshape(3 * chunks, DIM * DIM)

    # per sign, (D A) (x) (D A), symmetrized, transposed to act on the rows of the coefficient stack
    ops = _SYMMETRIZE @ (da[:, :, None, :, None] * da[:, None, :, None, :]).reshape(2, DIM * DIM, DIM * DIM)
    ops[:, _VEC[M, M], _VEC[JY, JY]] += q * q
    start = np.zeros((3, DIM * DIM))
    start[1] = unit.cov.ravel()
    states = _scan(ops.swapaxes(1, 2)[kind], start, chunks, drive)
    return means, unit.jx_mean * jx_decay ** n, _blocks(states, length, n, block)


def _checked(blocks, evaluate, name):
    """(pulses, coefficients, covariances) of ``_blocks``' blocks, each ``evaluate(coefficients)`` passing ``_check_psd``.

    Blocks hold chunk positions, not consecutive pulses, so a later block can
    hold a pulse before a refused one.  After a refusal nothing is yielded,
    the later blocks' earlier pulses are still checked, and the refusal of
    the smallest failing pulse is raised, its index worded ``name(pulse, index)``.
    """
    refusal = None
    for pulses, coeffs in blocks:
        if refusal is not None:
            pulses, coeffs = pulses[pulses < first], coeffs[pulses < first]
        covs = evaluate(coeffs)
        try:
            _check_psd(covs, lambda i: name(pulses[i[0]], i))
        except ArithmeticError as exc:
            refusal, first = exc, pulses[exc.index[0]]
        if refusal is None:
            yield pulses, coeffs, covs
    if refusal is not None:
        raise refusal


def _start(params: CouplingParams, initial: GaussianState | None) -> tuple[GaussianState, float, float]:
    """(unit, nu, lambda): a CSS start scales with lambda = NA, a given state is taken at lambda = 1."""
    if initial is None:
        return init_css(replace(params, atom_number=1.0)), 1.0, params.atom_number
    return initial, params.atom_number, 1.0


@dataclass(frozen=True)
class ScheduleResult:
    """Final meter statistics plus the per-pulse trace of the run.

    ``pulse_means[i]`` holds the means of the ``STATE`` variables and
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
) -> ScheduleResult:
    """Run a train from ``initial`` (default: the CSS), recording the moments after every pulse.

    Each pulse is ``pulse_channel``'s, applied to the means and
    covariances, which follow the affine-Gaussian transport exactly; the
    dropped-term meter product enters through its mean (the Sz_in loading
    q <Jy> of M) and its Gaussian-factorized variance q^2 var(Jy).  One run
    of the chunked kernel; every pulse's covariance is PSD-checked by
    ``_check_psd`` (ArithmeticError naming the earliest failing pulse).
    """
    unit, nu, lam = _start(params, initial)
    n = len(schedule)
    means, jx, blocks = _train(params, schedule, unit, nu, EVAL_BATCH)
    meter_var = np.empty(n)
    checked = _checked(blocks, lambda coeffs: _covariances(coeffs, [lam])[:, 0],
                       lambda pulse, i: f"pulse {pulse} (atom number {params.atom_number:.6g})")
    for pulses, _, covs in checked:
        meter_var[pulses] = covs[:, M, M]
        if pulses[-1] == n - 1:
            cov = covs[-1].copy()
    means *= lam
    final = GaussianState(mean=means[-1].copy(), cov=cov, jx_mean=lam * jx)
    return ScheduleResult(
        meter_mean=float(final.mean[M]),
        meter_var=float(final.cov[M, M]),
        final_state=final,
        pulse_means=means,
        pulse_meter_var=meter_var,
    )


def css_meter_variance(params: CouplingParams, schedule: PulseSchedule, atom_numbers) -> tuple:
    """Final var(M) of the x-polarized CSS at each atom number, and its c0, c1, c2 in NA.

    The covariance is exactly quadratic in NA, so the train is propagated once
    and evaluated at every atom number; ``params.atom_number`` is not used.
    Every pulse is PSD-checked at every atom number by ``_check_psd``; a
    refusal names the earliest failing pulse and its first failing atom
    number.  From 1 to ``EVAL_BATCH`` atom numbers are accepted, so one
    block holds at least one pulse.
    """
    lam = np.asarray(atom_numbers, dtype=float)
    if not 0 < len(lam) <= EVAL_BATCH:
        raise ValueError(f"a sweep evaluates 1 to {EVAL_BATCH} atom numbers, got {len(lam)}")
    if not np.all(np.isfinite(lam) & (lam > 0)):
        raise ValueError("atom numbers must be positive and finite")
    unit, nu, _ = _start(params, None)
    _, _, blocks = _train(params, schedule, unit, nu, EVAL_BATCH // len(lam))
    checked = _checked(blocks, lambda coeffs: _covariances(coeffs, lam),
                       lambda pulse, i: f"pulse {pulse}, atom number {lam[i[1]]:.6g} (index {i[1]})")
    for pulses, coeffs, covs in checked:
        if pulses[-1] == len(schedule) - 1:
            final = covs[-1, :, M, M], coeffs[-1, :, _VEC[M, M]]
    return final
