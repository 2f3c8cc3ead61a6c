"""Exact unitary simulation of an atomic ensemble and a truncated photon sector.

Validates the linearized covariance engine: builds the full coupling
Hamiltonian g1 Sz Jz + g2 (Sx Jx + Sy Jy) on the (atoms x photons) space as
a sum of Kronecker products of collective atomic and Stokes factors, evolves
exactly via one Hermitian eigendecomposition per conserved Sz + Jz block, and
checks the bang-bang rotation / polarization-flip equivalence.  Spin-1 atoms
are one collective spin na/2 (dimension na + 1), exact because jx, jy, jz act
as sigma/2 on {|1>, |-1>} and vanish on |0>; other spins keep the
(2f+1)^na tensor space.  Between pulses the reduced atomic density matrix is
carried (unconditional dynamics): each probe pulse enters pure, so a pulse is
the atomic Kraus channel of the operators <l|U|phi>, built once per run.
Meter correlations across pulses are tracked exactly through a propagated
correlation operator so the cumulative meter variance matches the full
multi-pulse pure-state calculation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .gaussian import CouplingParams, PulseSchedule, run_schedule, state_from_atomic_moments
from .operators import angular_momentum_matrices, build_spin_operators, build_stokes_operators

# A dense complex D x D matrix takes 16 D^2 bytes, and a run builds H densely.
# D = 4096 (268 MB) admits na = 818 spin-1 atoms at n_ph = 4 (D = 4095) but only
# na = 4 spin-2 atoms (D = 3125): at na = 5 (D = 15625) H alone takes 3.9 GB.
DEFAULT_DIM_CAP = 4096


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


def _embed_single_atom(op: np.ndarray, atom: int, na: int) -> np.ndarray:
    dim = op.shape[0]
    eye = np.eye(dim, dtype=complex)
    return _kron_all([op if i == atom else eye for i in range(na)])


@lru_cache(maxsize=None)
def _atomic_collective(na: int, two_f: int) -> dict:
    """Collective atomic operators (sums over atoms) on the atomic space."""
    if two_f == 2:  # the symmetric span of {|1>, |-1>}, which H never leaves
        mats = angular_momentum_matrices(na / 2)
    else:
        ops = build_spin_operators(two_f / 2)
        mats = [sum(_embed_single_atom(op, i, na) for i in range(na)) for op in (ops.jx, ops.jy, ops.jz)]
    for total in mats:
        total.setflags(write=False)
    return dict(zip(("jx", "jy", "jz"), mats))


def build_heff(na: int, f: float, n_ph: int, g1: float, g2: float) -> np.ndarray:
    """Pulse-integrated coupling Hamiltonian g1 Sz Jz + g2 (Sx Jx + Sy Jy).

    Each term is the Kronecker product of a collective atomic operator and a
    Stokes operator, so H is built on the (atoms x photons) space without
    joint-space operators or matrix products, and is exactly Hermitian.
    The joint dimension is checked against the cap before anything is built.
    """
    _check_joint_dim(build_spin_operators(f).dim, na, n_ph)
    stokes = build_stokes_operators(n_ph)
    atomic = _atomic_collective(na, int(round(2 * f)))
    return g1 * np.kron(atomic["jz"], stokes.sz) + g2 * (
        np.kron(atomic["jx"], stokes.sx) + np.kron(atomic["jy"], stokes.sy)
    )


def hermitian_unitary(h: np.ndarray, phase: float = -1.0) -> np.ndarray:
    """exp(i * phase * h) for Hermitian h via eigendecomposition (the oracle's H one block at a time)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * phase * w)) @ v.conj().T


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
        if abs(norm - 1.0) > 1e-10:
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

    def check_normalization(self, tol: float = 1e-10):
        if abs(np.trace(self.rho).real - 1.0) > tol:
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
    dim = int(round(2 * f + 1))
    alpha = math.pi / 4 + tilt
    psi = np.zeros(dim, dtype=complex)
    psi[0] = math.cos(alpha)
    psi[-1] = math.sin(alpha) * np.exp(1j * phase)
    return psi


def single_atom_moments(single: np.ndarray, f: float) -> dict:
    """First moments and symmetrized covariances of (jy, jz, jxy) plus <jx>."""
    ops = build_spin_operators(f)
    psi = np.asarray(single, dtype=complex)

    def ev(op):
        return float((psi.conj() @ (op @ psi)).real)

    tracked = [ops.jy, ops.jz, ops.jxy]
    means = np.array([ev(op) for op in tracked])
    cov = np.zeros((3, 3))
    for i, a in enumerate(tracked):
        for j, b in enumerate(tracked):
            sym = ev(a @ b + b @ a) / 2
            cov[i, j] = sym - means[i] * means[j]
    return {"mean_jy": means[0], "mean_jz": means[1], "mean_jxy": means[2],
            "cov": cov, "mean_jx": ev(ops.jx)}


def _kraus_sum(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_l left_l right_l^dag over two (n_ph+1)-stacks of atomic matrices."""
    return np.tensordot(left, right.conj(), axes=([0, 2], [0, 2]))


def _kraus_stacks(state: ExactState, g1: float, g2: float) -> dict:
    """Per probe sign, the (n_ph+1)-stacks E_l = <l|U|phi_sign> and F_l = sum_m Sy[l, m] E_m.

    H conserves Sz + Jz, diagonal in this basis, so U is never formed: each
    block of equal Sz + Jz is exponentiated on its own and written straight
    into the stacks.  Given (l, a') and a, one photon state s puts (a, s) in
    the block of (a', l), so E_l[a', a] = U_b[(a', l), (a, s)] phi[s] exactly.
    """
    dim_a, dim_ph = state.rho.shape[0], state.n_ph + 1
    h = build_heff(state.na, state.f, state.n_ph, g1, g2)
    jz = _atomic_collective(state.na, int(round(2 * state.f)))["jz"]
    stokes = build_stokes_operators(state.n_ph)
    # joint index a * dim_ph + s; the Sz + Jz values are exact dyadic rationals
    total_z = np.add.outer(jz.diagonal(), stokes.sz.diagonal()).real.ravel()
    _, block = np.unique(total_z, return_inverse=True)
    phis = {sign: polarized_photon_state(state.n_ph, sign) for sign in (1, -1)}
    stacks = {sign: np.zeros((dim_ph, dim_a, dim_a), dtype=complex) for sign in phis}
    for b in range(block.max() + 1):
        idx = np.flatnonzero(block == b)
        u_b = hermitian_unitary(h[np.ix_(idx, idx)])
        a, s = np.divmod(idx, dim_ph)
        for sign, e in stacks.items():
            e[s[:, None], a[:, None], a] = u_b * phis[sign][s]
    return {sign: (e, np.tensordot(stokes.sy, e, axes=1)) for sign, e in stacks.items()}


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

    k_corr = np.zeros_like(state.rho)
    m_mean = 0.0
    m_var = 0.0
    rec_jz, rec_jy, rec_mm, rec_mv = [], [], [], []

    for sign in schedule.signs.tolist():
        e, sy_e = kraus[sign]
        e_rho, e_k = e @ state.rho, e @ k_corr
        rho_out = _kraus_sum(e_rho, e)
        corr = _kraus_sum(e_rho, sy_e)
        sy_mean = float(np.trace(corr).real)
        sy_var = float(np.vdot(sy_e, sy_e @ state.rho).real) - sy_mean ** 2

        # cross covariance of this pulse with all earlier ones
        cross = float(np.vdot(sy_e, e_k).real)

        m_mean += sign * sy_mean
        m_var += sy_var + 2.0 * sign * cross

        k_corr = _kraus_sum(e_k, e) + sign * (corr - sy_mean * rho_out)

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


def check_bangbang_equivalence(
    na: int, f: float, n_ph: int, g1: float, g2: float
) -> float:
    """Max-norm deviation between conjugated and polarization-flipped evolutions.

    A pi rotation about the collective Jz leaves Jz untouched and inverts
    Jx, Jy, so U_b^dag U_H U_b must equal evolution under the Hamiltonian
    with Sx -> -Sx, Sy -> -Sy.
    """
    u_h = hermitian_unitary(build_heff(na, f, n_ph, g1, g2))
    u_flip = hermitian_unitary(build_heff(na, f, n_ph, g1, -g2))
    jz = _atomic_collective(na, int(round(2 * f)))["jz"]
    u_b = np.kron(hermitian_unitary(jz, phase=math.pi), np.eye(n_ph + 1))
    diff = u_b.conj().T @ u_h @ u_b - u_flip
    return float(np.max(np.abs(diff)))


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
    engine_state = state_from_atomic_moments(
        mean_jy=na * mom["mean_jy"],
        mean_jz=na * mom["mean_jz"],
        mean_jxy=na * mom["mean_jxy"],
        atomic_cov=na * mom["cov"],
        jx_mean=na * mom["mean_jx"],
    )
    params = CouplingParams(g1=g1, g2=g2, photons_per_pulse=n_ph, atom_number=na)
    engine = run_schedule(params, schedule, initial=engine_state)
    e_jy, e_jz, _, e_mm = engine.pulse_means.T

    def diff(exact, approx):
        return (np.asarray(exact) - approx).tolist()

    return ComparisonReport(
        d_jz=diff(oracle_rec.jz_mean, e_jz),
        d_jy=diff(oracle_rec.jy_mean, e_jy),
        d_meter_mean=diff(oracle_rec.meter_mean, e_mm),
        d_meter_var=diff(oracle_rec.meter_var, engine.pulse_meter_var),
    )
