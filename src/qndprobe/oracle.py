"""Brute-force unitary simulation of few atoms and a truncated photon sector.

Validates the linearized covariance engine: builds the full coupling
Hamiltonian g1 Sz Jz + g2 (Sx Jx + Sy Jy) on the (atoms x photons) tensor
space, evolves exactly via Hermitian eigendecomposition, and checks the
bang-bang rotation / polarization-flip equivalence.  Between pulses the
reduced atomic density matrix is carried (unconditional dynamics); meter
correlations across pulses are tracked exactly through a propagated
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
from .operators import build_spin_operators, build_stokes_operators

# A dense complex D x D matrix takes 16 D^2 bytes and a pulse holds several:
# D = 4096 (268 MB each) admits na = 6 spin-1 atoms at n_ph = 4 (D = 3645),
# while na = 7 (D = 10935, 1.9 GB each) would exhaust an 8 GB host.
DEFAULT_DIM_CAP = 4096


def _check_joint_dim(dim_a: int, n_ph: int) -> None:
    """Refuse an atomic dimension dim_a whose joint space with n_ph photons exceeds the cap."""
    if dim_a * (n_ph + 1) > DEFAULT_DIM_CAP:
        raise ValueError(f"joint dimension {dim_a * (n_ph + 1)} exceeds cap {DEFAULT_DIM_CAP}")


def _kron_all(mats) -> np.ndarray:
    return reduce(np.kron, mats)


def _embed_single_atom(op: np.ndarray, atom: int, na: int) -> np.ndarray:
    dim = op.shape[0]
    eye = np.eye(dim, dtype=complex)
    return _kron_all([op if i == atom else eye for i in range(na)])


@lru_cache(maxsize=None)
def _atomic_collective(na: int, two_f: int) -> dict:
    """Collective atomic operators (sums over atoms) on the atomic space."""
    ops = build_spin_operators(two_f / 2)
    out = {}
    for name, single in (("jx", ops.jx), ("jy", ops.jy), ("jz", ops.jz), ("jxy", ops.jxy)):
        total = sum(_embed_single_atom(single, i, na) for i in range(na))
        total.setflags(write=False)
        out[name] = total
    return out


@dataclass(frozen=True)
class CollectiveOperators:
    """Collective spin/alignment and Stokes operators on the joint space."""

    na: int
    f: float
    n_ph: int
    dim: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jxy: np.ndarray
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


def build_joint_operators(na: int, f: float, n_ph: int) -> CollectiveOperators:
    """Tensor the collective atomic operators and Stokes operators together."""
    if na < 1:
        raise ValueError("need at least one atom")
    spin = build_spin_operators(f)
    stokes = build_stokes_operators(n_ph)
    _check_joint_dim(spin.dim ** na, n_ph)
    dim = spin.dim ** na * stokes.dim
    atomic = _atomic_collective(na, int(round(2 * f)))
    eye_a = np.eye(spin.dim ** na, dtype=complex)
    eye_ph = np.eye(stokes.dim, dtype=complex)
    return CollectiveOperators(
        na=na, f=float(f), n_ph=n_ph, dim=dim,
        jx=np.kron(atomic["jx"], eye_ph),
        jy=np.kron(atomic["jy"], eye_ph),
        jz=np.kron(atomic["jz"], eye_ph),
        jxy=np.kron(atomic["jxy"], eye_ph),
        sx=np.kron(eye_a, stokes.sx),
        sy=np.kron(eye_a, stokes.sy),
        sz=np.kron(eye_a, stokes.sz),
    )


def build_heff(ops: CollectiveOperators, g1: float, g2: float) -> np.ndarray:
    """Pulse-integrated coupling Hamiltonian g1 Sz Jz + g2 (Sx Jx + Sy Jy)."""
    h = g1 * (ops.sz @ ops.jz) + g2 * (ops.sx @ ops.jx + ops.sy @ ops.jy)
    return (h + h.conj().T) / 2


def hermitian_unitary(h: np.ndarray, phase: float = -1.0) -> np.ndarray:
    """exp(i * phase * h) for Hermitian h via eigendecomposition (exact at these sizes)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * phase * w)) @ v.conj().T


def polarized_photon_state(n_ph: int, sign: int) -> np.ndarray:
    """Fully +-45-degree polarized n-photon state (Sx eigenvector, eigenvalue +-n/2).

    Binomial amplitudes in the |n_plus, n_minus> basis: expanding
    ((a_plus^dag +- a_minus^dag)/sqrt(2))^n on the vacuum gives
    2^(-n/2) sqrt(C(n, n_plus)) with alternating signs for the -45 state.
    """
    if sign not in (-1, 1):
        raise ValueError("polarization sign must be +1 or -1")
    amps = np.zeros(n_ph + 1, dtype=complex)
    for i in range(n_ph + 1):
        n_plus = n_ph - i
        amps[i] = (sign ** i) * math.sqrt(math.comb(n_ph, n_plus))
    return amps / math.sqrt(2.0 ** n_ph)


@dataclass
class ExactState:
    """Reduced atomic density matrix of na spin-f atoms probed by n_ph-photon pulses."""

    na: int
    f: float
    n_ph: int
    rho: np.ndarray

    def __post_init__(self):
        dim_a = int(round(2 * self.f + 1)) ** self.na
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (dim_a, dim_a):
            raise ValueError(f"density matrix must be {dim_a}x{dim_a}")
        _check_joint_dim(dim_a, self.n_ph)
        self.rho = rho

    @classmethod
    def from_product_state(cls, single: np.ndarray, na: int, f: float, n_ph: int) -> "ExactState":
        single = np.asarray(single, dtype=complex)
        norm = np.linalg.norm(single)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError("single-atom state must be normalized")
        _check_joint_dim(single.size ** na, n_ph)  # before the dim_a^2 density matrix exists
        psi = _kron_all([single] * na)
        return cls(na=na, f=float(f), n_ph=n_ph, rho=np.outer(psi, psi.conj()))

    def check_normalization(self, tol: float = 1e-10):
        if abs(np.trace(self.rho).real - 1.0) > tol:
            raise ArithmeticError("atomic state lost normalization")

    def expect(self, atomic_op: np.ndarray) -> float:
        return float(np.trace(atomic_op @ self.rho).real)


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


@lru_cache(maxsize=32)
def _pulse_workspace(na: int, two_f: int, n_ph: int, g1: float, g2: float):
    """Cached unitary and photon-sector operators for one pulse configuration."""
    ops = build_joint_operators(na, two_f / 2, n_ph)
    h = build_heff(ops, g1, g2)
    u = hermitian_unitary(h)
    stokes = build_stokes_operators(n_ph)
    return {
        "u": u,
        "sy": np.asarray(stokes.sy),
        "sy2": np.asarray(stokes.sy @ stokes.sy),
        "dim_a": int(round(2 * (two_f / 2) + 1)) ** na,
        "dim_ph": n_ph + 1,
    }


def _pulse_reshape(mat: np.ndarray, dim_a: int, dim_ph: int) -> np.ndarray:
    return mat.reshape(dim_a, dim_ph, dim_a, dim_ph)


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

    Pulse i is probed with the Sx = sign_i n_ph/2 state and the meter is
    M = sum_i sign_i Sy_i.  Cross-pulse covariances
    cov(Sy_i, Sy_j) survive the photon trace through the correlation operator
    K = sum_i sign_i * (tr_ph[sigma (1 x Sy)] - <Sy_i> rho), which propagates
    through later pulses by the same unitary-plus-trace channel as rho; this
    reproduces the full multi-pulse calculation without keeping every photon
    sector alive.
    """
    state = initial
    atomic = _atomic_collective(state.na, int(round(2 * state.f)))
    ws = _pulse_workspace(state.na, int(round(2 * state.f)), state.n_ph, float(g1), float(g2))
    dim_a, dim_ph = ws["dim_a"], ws["dim_ph"]
    sy, sy2, u = ws["sy"], ws["sy2"], ws["u"]
    u_dag = u.conj().T

    k_corr = np.zeros((dim_a, dim_a), dtype=complex)
    m_mean = 0.0
    m_var = 0.0
    rec_jz, rec_jy, rec_mm, rec_mv = [], [], [], []

    for sign in schedule.signs.tolist():
        phi = polarized_photon_state(state.n_ph, sign)
        phi_proj = np.outer(phi, phi.conj())

        joint = u @ np.kron(state.rho, phi_proj) @ u_dag
        sigma = _pulse_reshape(joint, dim_a, dim_ph)
        sy_mean = float(np.einsum("alam,ml->", sigma, sy).real)
        sy_var = float(np.einsum("alam,ml->", sigma, sy2).real) - sy_mean ** 2
        rho_out = np.einsum("alcl->ac", sigma)

        # cross covariance of this pulse with all earlier ones
        k_joint = u @ np.kron(k_corr, phi_proj) @ u_dag
        k_sigma = _pulse_reshape(k_joint, dim_a, dim_ph)
        cross = float(np.einsum("alam,ml->", k_sigma, sy).real)
        k_prop = np.einsum("alcl->ac", k_sigma)

        m_mean += sign * sy_mean
        m_var += sy_var + 2.0 * sign * cross

        corr = np.einsum("albm,ml->ab", sigma, sy)
        k_corr = k_prop + sign * (corr - sy_mean * rho_out)

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
    ops = build_joint_operators(na, f, n_ph)
    u_h = hermitian_unitary(build_heff(ops, g1, g2))
    h_flipped = g1 * (ops.sz @ ops.jz) - g2 * (ops.sx @ ops.jx + ops.sy @ ops.jy)
    u_flip = hermitian_unitary((h_flipped + h_flipped.conj().T) / 2)
    u_b = hermitian_unitary(ops.jz, phase=math.pi)
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
