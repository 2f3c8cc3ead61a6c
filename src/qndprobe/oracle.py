"""Exact unitary simulation of an atomic ensemble and a truncated photon sector.

Validates the linearized covariance engine.  The coupling Hamiltonian
g1 Sz Jz + g2 (Sx Jx + Sy Jy) on the (atoms x photons) space conserves
Sz + Jz and is written only block by block, from collective atomic and Stokes
factors; each block is evolved by one Hermitian eigendecomposition, so no
joint-space matrix is formed.  Spin-1 atoms are one collective spin na/2 (dimension
na + 1), exact because jx, jy, jz act as sigma/2 on {|1>, |-1>} and vanish on
|0>; other spins keep the (2f+1)^na tensor space.  Between pulses the reduced
atomic density matrix is carried (unconditional dynamics): each probe pulse
enters pure, so a pulse is the atomic Kraus channel of the operators
<l|U|phi>, built once per run.  Meter correlations across pulses are tracked
exactly through a propagated correlation operator so the cumulative meter
variance matches the full multi-pulse pure-state calculation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .gaussian import ATOMIC, JY, JZ, M, CouplingParams, PulseSchedule, run_schedule, state_from_atomic_moments
from .operators import angular_momentum_matrices, build_spin_operators, build_stokes_operators

# No joint-space matrix is built.  A run holds the four Kraus stacks of n_ph + 1
# atomic matrices (64 D dim_a bytes), their conjugated copies and the per-pulse
# products: the traced peak of a decoupled(1) run is 192 D dim_a + 96 dim_a^2
# bytes within 0.01% at (na, n_ph) = (200, 16), (300, 8), (500, 3) and (1000, 1)
# (136, 165, 217 and 481 MB).  So the cap admits na = 818 spin-1 atoms at n_ph = 4
# (D = 4095, about 0.71 GB) and na = 2047 at n_ph = 1 (D = 4096, about 2.0 GB),
# but only na = 4 spin-2 atoms: at na = 5 (D = 15625) a run would need about 10 GB.
DEFAULT_DIM_CAP = 4096
# largest |tr rho - 1| a pulse may leave before the run is refused
NORMALIZATION_TOL = 1e-10


def _atomic_dim(dim: int, na: int) -> int:
    """Atomic dimension of na dim-level atoms: spin na/2 for spin 1, the tensor space otherwise."""
    return na + 1 if dim == 3 else dim ** na


def _check_joint_dim(dim: int, na: int, n_ph: int) -> None:
    """Refuse na < 1, or na dim-level atoms whose joint space with n_ph photons exceeds the cap."""
    if na < 1:
        raise ValueError("need at least one atom")
    joint = _atomic_dim(dim, na) * (n_ph + 1)
    if joint > DEFAULT_DIM_CAP:
        raise ValueError(f"joint dimension {joint} exceeds cap {DEFAULT_DIM_CAP}")


def _kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


@lru_cache(maxsize=None)
def _atomic_collective(na: int, two_f: int) -> dict:
    """Collective atomic operators (sums over atoms) on the atomic space."""
    if two_f == 2:  # the symmetric span of {|1>, |-1>}, which H never leaves
        mats = angular_momentum_matrices(na / 2)
    else:
        ops, eye = build_spin_operators(two_f / 2), np.eye(two_f + 1, dtype=complex)
        mats = [sum(_kron_all([op if i == k else eye for i in range(na)]) for k in range(na))
                for op in (ops.jx, ops.jy, ops.jz)]
    for total in mats:
        total.setflags(write=False)
    return dict(zip(("jx", "jy", "jz"), mats))


def build_heff(na: int, f: float, n_ph: int, g1: float, g2: float) -> list:
    """Pulse-integrated coupling Hamiltonian g1 Sz Jz + g2 (Sx Jx + Sy Jy), block by block.

    H conserves Sz + Jz, diagonal in the joint basis a * (n_ph + 1) + s, so it
    is one (a, s, h_b) per block of equal Sz + Jz, in ascending order: the
    atomic and photon indices and the matrix.  Each entry is summed from
    Kronecker entries jz[a_i, a_j] * sz[s_i, s_j] of the collective atomic and
    Stokes factors, so blocks are exactly Hermitian and no joint-space matrix
    exists.  The joint dimension is checked against the cap before anything is built.
    """
    _check_joint_dim(build_spin_operators(f).dim, na, n_ph)
    st = build_stokes_operators(n_ph)
    jx, jy, jz = _atomic_collective(na, int(round(2 * f))).values()
    # the Sz + Jz values are exact dyadic rationals
    _, block = np.unique(np.add.outer(jz.diagonal(), st.sz.diagonal()).real, return_inverse=True)
    blocks = []
    for b in range(block.max() + 1):
        a, s = np.divmod(np.flatnonzero(block == b), n_ph + 1)
        aa, ss = np.ix_(a, a), np.ix_(s, s)
        blocks.append((a, s, g1 * (jz[aa] * st.sz[ss]) + g2 * (jx[aa] * st.sx[ss] + jy[aa] * st.sy[ss])))
    return blocks


def hermitian_unitary(h: np.ndarray) -> np.ndarray:
    """exp(-i h) for Hermitian h via eigendecomposition (the oracle's H one block at a time)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def polarized_photon_state(n_ph: int, sign: int) -> np.ndarray:
    """Fully +-45-degree polarized n-photon state (Sx eigenvector, eigenvalue +-n/2).

    Binomial amplitudes in the |n_plus, n_minus> basis: expanding
    ((a_plus^dag +- a_minus^dag)/sqrt(2))^n on the vacuum gives
    2^(-n/2) sqrt(C(n, n_plus)) with alternating signs for the -45 state.
    They are formed in log space from lgamma, since C(n, n_plus) and 2^n
    overflow a float above n = 1023, and normalized to absorb lgamma's
    rounding (about 1e-12 relative at n = 2047).
    """
    if sign not in (-1, 1):
        raise ValueError("polarization sign must be +1 or -1")
    log_fact = np.fromiter(map(math.lgamma, range(1, n_ph + 2)), float, n_ph + 1)  # log i!
    log_amps = 0.5 * (log_fact[-1] - log_fact - log_fact[::-1] - n_ph * math.log(2.0))
    amps = float(sign) ** np.arange(n_ph + 1) * np.exp(log_amps)
    return (amps / np.linalg.norm(amps)).astype(complex)


@dataclass
class ExactState:
    """Reduced atomic density matrix of na spin-f atoms (for f = 1, one spin na/2) probed by n_ph photons."""

    na: int
    f: float
    n_ph: int
    rho: np.ndarray

    def __post_init__(self):
        dim = int(round(2 * self.f + 1))
        _check_joint_dim(dim, self.na, self.n_ph)
        dim_a = _atomic_dim(dim, self.na)
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (dim_a, dim_a):
            raise ValueError(f"density matrix must be {dim_a}x{dim_a}")
        self.rho = rho

    @classmethod
    def from_product_state(cls, single: np.ndarray, na: int, f: float, n_ph: int) -> "ExactState":
        single = np.asarray(single, dtype=complex)
        norm = np.linalg.norm(single)
        if not abs(norm - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError("single-atom state must be normalized")
        if single.size == 3 and single[1] != 0:
            raise ValueError("spin-1 state with |m=0> amplitude leaves the spin-na/2 space")
        _check_joint_dim(single.size, na, n_ph)  # before the dim_a^2 density matrix exists
        if single.size == 3:
            # spin coherent state sqrt(C(na, k)) a^(na-k) b^k at m = na/2 - k; C(na, k)
            # passes 1e308 beyond na = 1029, so its root is taken in integers
            root = np.array([math.isqrt(math.comb(na, k) << 128) / 2 ** 64 for k in range(na + 1)])
            a_pow, b_pow = (np.cumprod(np.r_[1, np.full(na, amp)]) for amp in (single[0], single[2]))
            psi = root * a_pow[::-1] * b_pow
        else:
            psi = _kron_all([single] * na)
        return cls(na=na, f=float(f), n_ph=n_ph, rho=np.outer(psi, psi.conj()))

    def check_normalization(self):
        if not abs(np.trace(self.rho).real - 1.0) <= NORMALIZATION_TOL:  # NaN fails too
            raise ArithmeticError("atomic state lost normalization")

    def expect(self, atomic_op: np.ndarray) -> float:
        return float(np.einsum("ij,ji->", atomic_op, self.rho).real)


def single_atom_css(f: float, tilt: float = 0.0, phase: float = 0.0) -> np.ndarray:
    """Single-atom x-polarized CSS, optionally tilted.

    For f >= 1 this is the superposition of the stretched states
    cos(pi/4 + tilt)|f, f> + e^{i phase} sin(pi/4 + tilt)|f, -f>; for f=1 the
    untilted state maximizes <jx> = 1/2.  For f = 1/2 it is the x-polarized
    spin state (|up> + |down>)/sqrt(2) rotated by the same angles.
    """
    dim = build_spin_operators(f).dim
    alpha = math.pi / 4 + tilt
    psi = np.zeros(dim, dtype=complex)
    psi[0] = math.cos(alpha)
    psi[-1] = math.sin(alpha) * np.exp(1j * phase)
    return psi


def single_atom_moments(single: np.ndarray, f: float) -> dict:
    """Means ("mean") and symmetrized covariances ("cov") of the engine's ``ATOMIC`` variables, plus <jx>."""
    ops = build_spin_operators(f)
    psi = np.asarray(single, dtype=complex)

    def ev(op):
        return float((psi.conj() @ (op @ psi)).real)

    tracked = [getattr(ops, name) for name in ATOMIC]
    means = np.array([ev(op) for op in tracked])
    cov = np.zeros((len(tracked), len(tracked)))
    for i, a in enumerate(tracked):
        for j, b in enumerate(tracked):
            sym = ev(a @ b + b @ a) / 2
            cov[i, j] = sym - means[i] * means[j]
    return {"mean": means, "cov": cov, "mean_jx": ev(ops.jx)}


def _adjoint_rows(stack: np.ndarray) -> np.ndarray:
    """An (n_ph+1)-stack R_l as ``_kraus_sum``'s right factor, with rows [(l, b), c] = conj(R_l[c, b])."""
    return stack.conj().transpose(0, 2, 1).reshape(-1, stack.shape[1])


def _kraus_sum(left: np.ndarray, right_rows: np.ndarray) -> np.ndarray:
    """sum_l left_l right_l^dag for an (n_ph+1)-stack ``left`` and ``right_rows`` = ``_adjoint_rows(right)``.

    The same single product as ``np.tensordot(left, right.conj(), axes=([0, 2], [0, 2]))``,
    with the fixed right factor conjugated and laid out once per run.
    """
    return np.dot(left.transpose(1, 0, 2).reshape(left.shape[1], -1), right_rows)


def _kraus_stacks(state: ExactState, g1: float, g2: float) -> dict:
    """Per probe sign, the (n_ph+1)-stacks E_l = <l|U|phi_sign> and F_l = sum_m Sy[l, m] E_m.

    U is never formed: each Sz + Jz block of H from ``build_heff`` is
    exponentiated on its own and written straight into the stacks.  Given
    (l, a') and a, one photon state s puts (a, s) in the block of (a', l), so
    E_l[a', a] = U_b[(a', l), (a, s)] phi[s] exactly.
    """
    dim_a, dim_ph = state.rho.shape[0], state.n_ph + 1
    phis = {sign: polarized_photon_state(state.n_ph, sign) for sign in (1, -1)}
    stacks = {sign: np.zeros((dim_ph, dim_a, dim_a), dtype=complex) for sign in phis}
    for a, s, h_b in build_heff(state.na, state.f, state.n_ph, g1, g2):
        u_b = hermitian_unitary(h_b)
        for sign, e in stacks.items():
            e[s[:, None], a[:, None], a] = u_b * phis[sign][s]
    sy = build_stokes_operators(state.n_ph).sy
    return {sign: (e, np.tensordot(sy, e, axes=1)) for sign, e in stacks.items()}


@dataclass(frozen=True)
class ExactRunRecord:
    """Per-pulse expectation values plus cumulative meter statistics."""

    jz_mean: list
    jy_mean: list
    meter_mean: list
    meter_var: list
    final_state: ExactState


def run_schedule_exact(
    initial: ExactState, schedule: PulseSchedule, g1: float, g2: float
) -> ExactRunRecord:
    """Evolve a pulse train, tracking the signed cumulative meter exactly.

    Pulse i is probed with the Sx = sign_i n_ph/2 state |phi_s> and the meter
    is M = sum_i sign_i Sy_i.  Because the probe enters pure, a pulse acts on
    the atoms as the Kraus channel rho -> sum_l E_l rho E_l^dag with
    E_l = <l|U|phi_s>, and the outgoing Sy is read through
    F_l = sum_m Sy[l, m] E_m: <Sy> = tr sum E rho F^dag and
    <Sy^2> = tr sum F rho F^dag.  Both stacks are built once per sign and run,
    so a pulse costs only products of atomic-sized matrices.
    Cross-pulse covariances cov(Sy_i, Sy_j) survive the photon trace through
    the correlation operator K = sum_i sign_i (sum E rho F^dag - <Sy_i> rho'),
    which later pulses carry by the same channel as rho and read out as
    tr sum E K F^dag; this reproduces the full multi-pulse calculation
    without keeping every photon sector alive.  The stacks are built block by
    block of the conserved Sz + Jz, so no joint-space unitary is formed.
    """
    state = initial
    atomic = _atomic_collective(state.na, int(round(2 * state.f)))
    kraus = _kraus_stacks(state, g1, g2)
    rows = {sign: (_adjoint_rows(e), _adjoint_rows(sy_e)) for sign, (e, sy_e) in kraus.items()}

    k_corr = np.zeros_like(state.rho)
    m_mean = 0.0
    m_var = 0.0
    rec_jz, rec_jy, rec_mm, rec_mv = [], [], [], []

    for sign in schedule.signs.tolist():
        e, sy_e = kraus[sign]
        e_rows, sy_e_rows = rows[sign]
        e_rho, e_k = e @ state.rho, e @ k_corr
        rho_out = _kraus_sum(e_rho, e_rows)
        corr = _kraus_sum(e_rho, sy_e_rows)
        sy_mean = float(np.trace(corr).real)
        sy_var = float(np.vdot(sy_e, sy_e @ state.rho).real) - sy_mean ** 2

        # cross covariance of this pulse with all earlier ones
        cross = float(np.vdot(sy_e, e_k).real)

        m_mean += sign * sy_mean
        m_var += sy_var + 2.0 * sign * cross

        k_corr = _kraus_sum(e_k, e_rows) + sign * (corr - sy_mean * rho_out)

        state = ExactState(na=state.na, f=state.f, n_ph=state.n_ph, rho=rho_out)
        state.check_normalization()
        rec_jz.append(state.expect(atomic["jz"]))
        rec_jy.append(state.expect(atomic["jy"]))
        rec_mm.append(m_mean)
        rec_mv.append(m_var)

    return ExactRunRecord(
        jz_mean=rec_jz, jy_mean=rec_jy, meter_mean=rec_mm, meter_var=rec_mv,
        final_state=state,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Per-pulse oracle-vs-engine differences for matched schedules."""

    d_jz: list
    d_jy: list
    d_meter_mean: list
    d_meter_var: list

    @property
    def max_first_moment_deviation(self) -> float:
        return max(
            max(abs(x) for x in self.d_jz),
            max(abs(x) for x in self.d_jy),
            max(abs(x) for x in self.d_meter_mean),
        )


def oracle_vs_gaussian(
    na: int,
    f: float,
    n_ph: int,
    g1: float,
    g2: float,
    schedule: PulseSchedule,
    tilt: float = 0.0,
    phase: float = 0.0,
) -> ComparisonReport:
    """Run the same schedule through the exact oracle and the Gaussian engine.

    Both start from the matched product CSS (optionally tilted so the first
    moments are nonzero and the comparison is not trivially 0 = 0).  The
    engine's initial Gaussian moments are computed from the single-atom state,
    so ``f`` reaches the engine only through them: the engine runs without
    depolarization, whose noise is the one spin-1 input it has of its own.
    Warns when the couplings are too large for the linearization to be
    meaningful.
    """
    if max(abs(g1), abs(g2)) * max(n_ph, na) > 0.1:
        warnings.warn(
            "couplings are large for the linearized comparison "
            f"(g*max(n_ph, na) = {max(abs(g1), abs(g2)) * max(n_ph, na):.3g})",
            stacklevel=2,
        )
    single = single_atom_css(f, tilt=tilt, phase=phase)
    exact0 = ExactState.from_product_state(single, na, f, n_ph)
    oracle_rec = run_schedule_exact(exact0, schedule, g1, g2)

    mom = single_atom_moments(single, f)
    engine_state = state_from_atomic_moments(na * mom["mean"], na * mom["cov"], na * mom["mean_jx"])
    params = CouplingParams(g1=g1, g2=g2, photons_per_pulse=n_ph, atom_number=na)
    engine = run_schedule(params, schedule, initial=engine_state)
    means = engine.pulse_means

    def diff(exact, approx):
        return (np.asarray(exact) - approx).tolist()

    return ComparisonReport(
        d_jz=diff(oracle_rec.jz_mean, means[:, JZ]),
        d_jy=diff(oracle_rec.jy_mean, means[:, JY]),
        d_meter_mean=diff(oracle_rec.meter_mean, means[:, M]),
        d_meter_var=diff(oracle_rec.meter_var, engine.pulse_meter_var),
    )
