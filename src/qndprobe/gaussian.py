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

One kernel propagates every train.  It carries rows, each one state's
DIM(DIM+1)/2 distinct covariance entries and four noise seeds: 1, the atom
number, jx and jx^2.  A pulse's noise depends on these alone, not on the
means, so ``run_schedule`` refuses the dropped terms from a start with
non-zero means, and every pulse is one homogeneous step x <- x @ G_s, G_s
one operator per sign, read off ``pulse_channel`` alone, as the Monte
Carlo's pulses are.  The kernel is a product scan over about sqrt(n)
chunks of about sqrt(n) pulses, so a train takes O(sqrt(n)) Python steps
and yields its states in entry-major blocks of ascending pulses.  Each
caller scans the rows it reads: ``run_schedule`` its start's one row, and
``css_meter_variance`` one CSS row per atom number of a sweep plus the
three coefficient rows of the CSS row in NA, which carry the final var(M)'s
exact coefficients c0, c1 and c2 (A does not depend on NA and B is affine
in jx).  Every pulse's covariance is PSD-checked, in a sweep at every atom
number, by ``_check_entries``: one LDL^T elimination run across the whole
stack at once, with eigenvalues computed only to word a refusal, which
names the earliest failing pulse, then its first failing atom number.
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

# Memory a run may hold, shared with the Monte Carlo.  Per pulse a run holds
# the recorded means and var(M), 40 B; the scan holds a few states per chunk
# and one block of states.  The traced peak of run_schedule grows by 42.4 B
# per pulse from 2e5 to 8e5 pulses at eps = 1e-6 for a CSS start with the
# dropped terms (13.4 to 38.8 MB) and by 42.6 B for a tilted start without
# them (13.6 to 39.1 MB), and the cap charges that, rounded up.
MEMORY_CAP_BYTES = 2 * 1024 ** 3
TRAIN_BYTES_PER_PULSE = 48


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
        signs = 1 - 2 * self.kinds(self.num_pulses)
        signs.setflags(write=False)
        return signs

    def kinds(self, stop: int) -> np.ndarray:
        """``pulse_channel``'s sign index (0 for +1, 1 for -1) of pulses 0..stop-1, continued past the end."""
        return np.arange(stop) & (self.mode == "decoupled")

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


def css_root() -> np.ndarray:
    """The (DIM, 2) root R, columns e_Jy/2 and (e_Jz + e_Jxy)/2, of the x-polarized CSS: NA R R^T is its covariance.

    var(Jz) = var(Jy) = NA/4 (the projection noise Jx/2), and the frozen Jxy
    follows the f = 1 operator identity jxy = jz, so it shares Jz's column.
    """
    root = np.zeros((DIM, 2))
    root[JY, 0] = root[JZ, 1] = root[JXY, 1] = 0.5
    return root


def init_css(params: CouplingParams) -> GaussianState:
    """Initial x-polarized CSS moments: jx_mean = NA/2, all means zero, covariance NA R R^T (``css_root``)."""
    na = params.atom_number
    root = css_root()[:M]
    return state_from_atomic_moments(np.zeros(len(ATOMIC)), na * (root @ root.T), na / 2)


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
    depolarization contraction, q = -s g2 sqrt(shot) loads the dropped-term
    meter product -s g2 Sz_in Jy (q = 0 with the dropped terms off) and w is
    independent noise of variance NA * depol: eps times ``MIXED_VARIANCE`` on
    every atomic variable and 0 on M, so eps = 1 gives every atomic variable
    its fully depolarized variance but zeroes cov(Jz, Jxy), which is NA/6
    there for f = 1 (jxy = jz).  Everything is evaluated with pre-pulse
    values.  The kernel takes the meter product's variance q^2 var(Jy)
    alone, which is all it adds to the covariance while <Jy> = 0.
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


@functools.cache
def _packing(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (rows, columns, index) of the d(d+1)/2 distinct entries of a symmetric d x d matrix.

    The entries (i, j) with i <= j are taken row by row, so row k's entries
    (k, k..d-1) are adjacent and the entries after row 0 are the trailing
    (d-1) x (d-1) block's in the same order; entry index[i, j] holds both
    (i, j) and (j, i).
    """
    rows, columns = np.triu_indices(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, columns] = index[columns, rows] = np.arange(len(rows))
    for table in (rows, columns, index):
        table.setflags(write=False)
    return rows, columns, index


# the kernel carries each covariance as its distinct entries: cov[i, j] = entries[_ENTRY[i, j]]
_ROWS, _COLS, _ENTRY = _packing(DIM)
# carried rows per block of the kernel (1.8 MB of states at DIM = 4, and the
# elimination's 0.8 MB of trailing rows), so also the most atom numbers one
# sweep evaluates
EVAL_BATCH = 1 << 14


@np.errstate(over="ignore", invalid="ignore")  # overflow is what this check refuses
def _check_entries(entries: np.ndarray, name=lambda index: f"index {index}") -> None:
    """Raise ArithmeticError unless every symmetric matrix of a (K, ...) stack of distinct entries is finite and PSD.

    Row k of ``entries`` holds entry k, in ``_packing``'s order, of every
    matrix of the stack.  A matrix passes when its entries and its trace are
    finite and its smallest eigenvalue lies at or above -PSD_TOL * max(1,
    trace).  The passing path is an LDL^T elimination without pivoting of
    C + PSD_TOL * max(1, tr C) I, run on the whole stack at once on the rows
    of ``entries``, which it leaves unchanged and may take as a strided view.  Its pivots, the squared
    diagonal of the Cholesky factor, are all > 0 exactly when the matrix
    passes, up to rounding (about 1e-16 |C|); a non-finite entry (i, j)
    makes pivot j -inf or NaN, unless the trace is non-finite too.  Only a
    stack that fails the elimination or has a non-finite trace has its
    eigenvalues computed, which settles that gap; the refusal names the
    first failing index of the stack's trailing shape, worded
    ``name(index)`` and kept as its ``index``, and the smallest eigenvalue
    of a finite matrix.
    """
    d = (math.isqrt(8 * len(entries) + 1) - 1) // 2
    _, _, index = _packing(d)
    floor = PSD_TOL * np.maximum(1.0, entries[index.diagonal()].sum(axis=0))
    block = entries  # the first step writes a new array, later steps update it in place
    for width in range(d, 0, -1):
        pivot = block[0] + floor
        if not (pivot > 0).all():
            break
        ratio = block[1:width] / pivot
        rest = np.empty_like(block[width:]) if block is entries else block[width:]
        start = 0
        for i in range(1, width):  # row i of the trailing block: entries (i, i..width-1)
            row = slice(start, start + width - i)
            np.subtract(block[width:][row], block[i] * ratio[i - 1:], out=rest[row])
            start = row.stop
        block = rest
    else:
        if np.isfinite(floor).all():  # so every pivot was finite too
            return
    finite = np.isfinite(entries).all(axis=0)
    sym = np.moveaxis(np.where(finite, entries, 0.0)[index], (0, 1), (-2, -1))
    low = np.linalg.eigvalsh(sym)[..., 0]
    floor = PSD_TOL * np.maximum(1.0, np.trace(sym, axis1=-2, axis2=-1))
    finite &= np.isfinite(floor)  # a trace that overflows leaves no floor
    bad = ~finite | (low < -floor)
    if bad.any():
        where = tuple(map(int, np.argwhere(bad)[0]))
        refusal = ArithmeticError(
            f"covariance lost positive semidefiniteness at {name(where)} (min eigenvalue {low[where]:.3e})"
            if finite[where] else f"non-finite covariance at {name(where)}"
        )
        refusal.index = where
        raise refusal


@np.errstate(over="ignore", invalid="ignore")  # overflow is what this check refuses
def _check_psd(covs: np.ndarray, name=lambda index: f"index {index}") -> None:
    """Raise ArithmeticError unless every covariance of a (..., d, d) stack is finite and PSD.

    Each covariance is judged by its symmetric part, whose distinct entries
    (halved before they are added, so a finite sym(C) cannot overflow) go to
    ``_check_entries``; a refusal names an index of the stack's leading shape.
    """
    rows, columns, _ = _packing(covs.shape[-1])
    half = np.moveaxis(covs, (-2, -1), (0, 1)) / 2
    _check_entries(half[rows, columns] + half[columns, rows], name)


def _scan(ops: np.ndarray, start: np.ndarray, schedule: PulseSchedule, block: int, keep: int):
    """The first ``keep`` entries of x <- x @ ops[sign index] after every pulse of ``schedule`` from ``start`` (r, d).

    The train is cut into chunks of the smallest even number of pulses not
    below sqrt(n), so that the period-2 sign pattern of a decoupled train
    (and the constant one of a naive train) is the same in every chunk; the
    last chunk may run past the end of the train.  The prefix products P[t]
    = op(0) @ ... @ op(t) of one chunk map the state entering any chunk to
    its state after position t, and one step per chunk carries the entering
    states along the train by the whole-chunk product P[-1].  A block's
    states are then one product of its chunks' entering states with the
    prefixes laid side by side: whole chunks when ``block`` holds one, else
    ``block`` positions of one chunk, so a chunk may end on a partial block.
    The product is stacked, one (r, d) matrix per chunk, so a state is
    rounded the same whatever block holds it (BLAS rounds a one-row product
    apart from a many-row one); it forms only the kept entries and is
    copied once, entry-major.  Yields (pulses, states) in pulse order,
    states (keep, pulses, r); a train takes O(sqrt(n) + n / block) Python
    steps and holds a few states per chunk.
    """
    n = len(schedule)
    length = 2 * math.ceil(math.sqrt(n) / 2)
    ops = ops[schedule.kinds(length)]
    r, d = start.shape
    prefix = np.empty((d, length, d))  # prefix[:, t] is P[t], so the prefixes lie side by side
    prefix[:, 0] = ops[0]
    for t in range(1, length):
        prefix[:, t] = prefix[:, t - 1] @ ops[t]
    entry = np.empty((-(-n // length), r, d))
    entry[0] = start
    for j in range(1, len(entry)):
        entry[j] = entry[j - 1] @ prefix[:, -1]
    side = np.ascontiguousarray(prefix[..., :keep]).reshape(d, length * keep)
    chunks, width = max(1, block // length), min(block, length)
    for j in range(0, len(entry), chunks):
        for t in range(0, min(length, n - j * length), width):
            first = j * length + t
            states = entry[j:j + chunks] @ side[:, t * keep:(t + width) * keep]
            states = states.reshape(len(states), r, -1, keep).transpose(3, 0, 2, 1)
            states = states.reshape(keep, -1, r)[:, :n - first]
            yield np.arange(first, first + states.shape[1]), states


def _row(state: GaussianState, atoms: float) -> np.ndarray:
    """``state``'s carried row at ``atoms`` atoms: its distinct covariance entries, then the seeds (1, atoms, jx, jx^2)."""
    jx = np.float64(state.jx_mean)  # jx^2 overflows to inf, which the PSD check refuses
    return np.concatenate([(state.cov + state.cov.T)[_ROWS, _COLS] / 2, [1.0, atoms, jx, jx * jx]])


def _train(channel: PulseChannel, schedule: PulseSchedule, rows: np.ndarray, block: int):
    """The covariance of every carried row (``_row``) of ``rows`` after every pulse of ``channel``.

    A row holds the K = DIM(DIM+1)/2 distinct entries of a covariance
    (``_ENTRY``) and four noise seeds, 1, the atom number, jx and jx^2, so
    each pulse sign is one homogeneous (K + 4) x (K + 4) operator that reads
    ``channel`` alone: the restriction of (D A) (x) (D A) to the distinct
    entries plus the meter product's q^2 var(Jy) -> var(M), then the noise
    rows, which the seeds weight into the entries, and the seeds' own decay
    1, 1, 1 - eps and (1 - eps)^2.  The noise rows are the pulse's shot
    noise, whose root D B0 + jx D B1 makes it the outer products D B0 D
    B0^T, the cross term and D B1 D B1^T, and its depolarization noise,
    depol per atom.  The map is linear in the row, so a sum of rows is
    carried as the sum of their covariances.  The noise does not read the
    means: the meter product's mean loading q <Jy> of Sz_in into M is left
    out, which is exact while <Jy> = 0 (see ``run_schedule``).  ``_scan``
    runs the operators over chunks of about sqrt(n) pulses.

    Returns a generator of (pulses, entries) blocks of at most ``block``
    pulses in ascending pulse order, entries (K, pulses, rows).
    """
    k = len(_ROWS)
    da, db0, db1, q, depol, jx_decay = channel
    ops = np.zeros((2, k + 4, k + 4))
    # per sign, row (i, j) of (D A) (x) (D A), its columns (a, b) and (b, a) summed
    # into their one entry; transposed to act on the carried rows
    kron = (da[:, :, None, :, None] * da[:, None, :, None, :]).reshape(2, DIM, DIM, DIM * DIM)
    ops[:, :k, :k] = (kron[:, _ROWS, _COLS] @ np.eye(k)[_ENTRY.ravel()]).swapaxes(1, 2)
    ops[:, _ENTRY[JY, JY], _ENTRY[M, M]] += q * q
    # the noise rows: the outer products of the noise root's parts D B0 and D B1, and depolarization
    parts = np.stack([db0, db1], axis=1)
    outer = (parts[:, :, None] @ parts[:, None].swapaxes(-1, -2))[..., _ROWS, _COLS]
    ops[:, k, :k] = outer[:, 0, 0]
    ops[:, k + 1, _ENTRY.diagonal()] = depol
    ops[:, k + 2, :k] = outer[:, 0, 1] + outer[:, 1, 0]
    ops[:, k + 3, :k] = outer[:, 1, 1]
    seeds = np.arange(k, k + 4)
    ops[:, seeds, seeds] = 1.0, 1.0, jx_decay, jx_decay ** 2
    return _scan(ops, rows, schedule, block, k)


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite covariance is refused
def run_schedule(
    params: CouplingParams,
    schedule: PulseSchedule,
    initial: GaussianState | None = None,
) -> ScheduleResult:
    """Run a train from ``initial`` (default: the CSS), recording the moments after every pulse.

    Each pulse is ``pulse_channel``'s, applied to the means and
    covariances, which follow the affine-Gaussian transport exactly; the
    dropped-term meter product enters through its variance q^2 var(Jy)
    alone, so a start with non-zero means is refused with the dropped terms
    on (ValueError, before any work).  The means are ``_scan``'s with the
    operators (D A)^T, the covariances ``_train``'s on the start's one row
    at ``params.atom_number`` atoms, both in blocks of ``EVAL_BATCH``
    pulses; every pulse's covariance is PSD-checked by ``_check_entries``
    (ArithmeticError naming the earliest failing pulse).
    """
    state = init_css(params) if initial is None else initial
    if params.include_dropped_terms and state.mean.any():
        raise ValueError("the dropped terms are modelled only from a start with zero means")
    n = len(schedule)
    channel = pulse_channel(params)
    means = np.zeros((n, DIM))
    if state.mean.any():
        for pulses, states in _scan(channel.da.swapaxes(1, 2), state.mean[None], schedule, EVAL_BATCH, DIM):
            means[pulses] = states[..., 0].T
    meter_var = np.empty(n)
    for pulses, entries in _train(channel, schedule, _row(state, params.atom_number)[None], EVAL_BATCH):
        _check_entries(entries, lambda i: f"pulse {pulses[i[0]]} (atom number {params.atom_number:.6g})")
        meter_var[pulses] = entries[_ENTRY[M, M], :, 0]
    cov = entries[_ENTRY, -1, 0]  # the last block ends with the last pulse
    final = GaussianState(mean=means[-1].copy(), cov=cov, jx_mean=state.jx_mean * channel.jx_decay ** n)
    return ScheduleResult(
        meter_mean=float(final.mean[M]),
        meter_var=float(final.cov[M, M]),
        final_state=final,
        pulse_means=means,
        pulse_meter_var=meter_var,
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite covariance is refused
def css_meter_variance(params: CouplingParams, schedule: PulseSchedule, atom_numbers) -> tuple:
    """Final var(M) of the x-polarized CSS at each atom number, and its c0, c1, c2 in NA.

    Every entry of a CSS row (``_row``) is a power of NA: the covariance
    and the seeds atoms and jx are linear in it, jx^2 quadratic and the
    first seed constant.  The row is therefore c0 + NA c1 + NA^2 c2, three
    coefficient rows, and since ``_train`` is linear in the row, so is the
    covariance after every pulse.  One train carries the three coefficient
    rows, whose final var(M) entries are c0, c1 and c2, and one row per
    atom number, formed from them; ``params.atom_number`` is not used.
    Every pulse is PSD-checked at every atom number by ``_check_entries``;
    a refusal names the earliest failing pulse and its first failing atom
    number.  From 1 to ``EVAL_BATCH`` atom numbers are accepted, so one
    block holds at least one pulse.
    """
    na = np.asarray(atom_numbers, dtype=float)
    if not 0 < len(na) <= EVAL_BATCH:
        raise ValueError(f"a sweep evaluates 1 to {EVAL_BATCH} atom numbers, got {len(na)}")
    if not np.all(np.isfinite(na) & (na > 0)):
        raise ValueError("atom numbers must be positive and finite")
    row = _row(init_css(replace(params, atom_number=1.0)), 1.0)
    power = np.array([1] * len(_ROWS) + [0, 1, 1, 2])  # of NA, in each entry of a CSS row
    coeffs = np.where(power == np.arange(3)[:, None], row, 0.0)
    rows = np.concatenate([coeffs, na[:, None] ** np.arange(3) @ coeffs])
    for pulses, entries in _train(pulse_channel(params), schedule, rows, EVAL_BATCH // len(na)):
        _check_entries(entries[..., 3:], lambda i: f"pulse {pulses[i[0]]}, atom number {na[i[1]]:.6g} (index {i[1]})")
    final = entries[_ENTRY[M, M], -1]  # the last block ends with the last pulse
    return final[3:], final[:3]
