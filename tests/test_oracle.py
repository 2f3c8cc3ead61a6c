import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qndprobe.gaussian import PulseSchedule
from qndprobe.operators import build_stokes_operators
from qndprobe.oracle import (
    ExactState,
    build_heff,
    build_joint_operators,
    check_bangbang_equivalence,
    oracle_vs_gaussian,
    polarized_photon_state,
    run_schedule_exact,
    single_atom_css,
    single_atom_moments,
    _atomic_collective,
    _pulse_workspace,
)


# ------------------------------------------------------------- joint operators

def test_joint_dimension_two_atoms():
    ops = build_joint_operators(2, 1.0, 2)
    assert ops.dim == 27
    assert ops.jz.shape == (27, 27)


def test_single_atom_jz_spectrum():
    ops = build_joint_operators(1, 1.0, 2)
    eig = np.unique(np.round(np.linalg.eigvalsh(ops.jz), 12))
    assert np.allclose(eig, [-0.5, 0.0, 0.5])


def test_three_atom_jx_extreme_eigenvalue():
    ops = build_joint_operators(3, 1.0, 2)
    assert np.linalg.eigvalsh(ops.jx).max() == pytest.approx(1.5, abs=1e-10)


def test_dimension_cap_enforced():
    with pytest.raises(ValueError):
        build_joint_operators(6, 2.0, 10)  # 5^6 * 11 >> 4096
    with pytest.raises(ValueError):
        build_joint_operators(7, 1.0, 4)  # 3^7 * 5 = 10935 > 4096


def test_product_state_refused_before_density_matrix_is_built():
    # the 2187 x 2187 complex density matrix of 7 spin-1 atoms would take 76 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap"):
            ExactState.from_product_state(single_atom_css(1.0), 7, 1.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ----------------------------------------------------------------- Hamiltonian

def test_heff_diagonal_when_g2_zero():
    ops = build_joint_operators(2, 1.0, 2)
    h = build_heff(ops, 0.3, 0.0)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


@pytest.mark.parametrize("na,f,n_ph", [(1, 0.5, 2), (2, 1.0, 3), (3, 1.0, 2), (2, 0.5, 6)])
def test_heff_commutes_with_total_z(na, f, n_ph):
    ops = build_joint_operators(na, f, n_ph)
    h = build_heff(ops, 0.11, 0.07)
    total_z = ops.sz + ops.jz
    assert np.max(np.abs(h @ total_z - total_z @ h)) < 1e-10


def test_heff_g2_irrelevant_for_spin_half():
    ops = build_joint_operators(2, 0.5, 3)
    assert np.max(np.abs(build_heff(ops, 0.2, 5.0) - build_heff(ops, 0.2, 0.0))) == 0.0


# --------------------------------------------------------------- photon states

@pytest.mark.parametrize("n_ph", [1, 2, 4, 6])
@pytest.mark.parametrize("sign", [1, -1])
def test_polarized_photon_state(n_ph, sign):
    st = build_stokes_operators(n_ph)
    phi = polarized_photon_state(n_ph, sign)
    assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)
    assert (phi.conj() @ st.sx @ phi).real == pytest.approx(sign * n_ph / 2, abs=1e-12)
    for op in (st.sy, st.sz):
        mean = (phi.conj() @ op @ phi).real
        var = (phi.conj() @ op @ op @ phi).real - mean ** 2
        assert mean == pytest.approx(0.0, abs=1e-12)
        assert var == pytest.approx(n_ph / 4, abs=1e-12)


# ------------------------------------------------- short trains, exact evolution
# A one-pulse record's meter_mean[0] and meter_var[0] are that pulse's <Sy>
# and var(Sy) on the outgoing light.

def test_evolve_pulse_free_case():
    state = ExactState.from_product_state(single_atom_css(1.0), 2, 1.0, 4)
    rec = run_schedule_exact(state, PulseSchedule.naive(1), 0.0, 0.0)
    assert rec.meter_mean[0] == pytest.approx(0.0, abs=1e-12)
    assert rec.meter_var[0] == pytest.approx(1.0, abs=1e-12)  # n_ph/4
    assert np.allclose(rec.final_state.rho, state.rho, atol=1e-12)


def test_evolve_pulse_faraday_rotation_formula():
    # atoms pinned in a Jz eigenstate rotate the Stokes vector by g1 * m:
    # <Sy> = (n/2) sin(g1 m), var(Sy) = (n/4) cos^2(g1 m) for the coherent input
    g1, n_ph = 0.3, 4
    stretched = np.array([1.0, 0.0, 0.0], dtype=complex)  # m = +1 per atom, Jz = +1 total
    state = ExactState.from_product_state(stretched, 2, 1.0, n_ph)
    rec = run_schedule_exact(state, PulseSchedule.naive(1), g1, 0.0)
    assert rec.meter_mean[0] == pytest.approx((n_ph / 2) * np.sin(g1 * 1.0), rel=1e-12)
    assert rec.meter_var[0] == pytest.approx((n_ph / 4) * np.cos(g1 * 1.0) ** 2, rel=1e-12)


def test_evolve_pulse_jz_drift_matches_linear_prediction():
    # f=1, g1=0, small g2: per-pulse <Jz> drift is g2 Sx <Jy> + O(g2^2)
    g2, n_ph, na = 1e-3, 4, 2
    single = single_atom_css(1.0, tilt=0.3, phase=0.7)  # nonzero <jy>
    mom = single_atom_moments(single, 1.0)
    state = ExactState.from_product_state(single, na, 1.0, n_ph)
    atomic = _atomic_collective(na, 2)
    jz_before = state.expect(atomic["jz"])
    rec = run_schedule_exact(state, PulseSchedule.naive(1), 0.0, g2)
    drift = rec.final_state.expect(atomic["jz"]) - jz_before
    predicted = g2 * (n_ph / 2) * na * mom["mean_jy"]
    assert abs(drift - predicted) < (g2 * n_ph) ** 2


def test_evolve_pulse_norm_preserved_and_checked():
    # decoupled(1) ends with a -45-degree pulse
    state = ExactState.from_product_state(single_atom_css(1.0), 2, 1.0, 3)
    rec = run_schedule_exact(state, PulseSchedule.decoupled(1), 0.05, 0.05)
    assert abs(np.trace(rec.final_state.rho).real - 1.0) < 1e-10
    bad = ExactState(na=2, f=1.0, n_ph=3, rho=0.5 * state.rho)
    with pytest.raises(ArithmeticError):
        run_schedule_exact(bad, PulseSchedule.naive(1), 0.1, 0.0)


def test_spin_half_jz_exactly_conserved_despite_g2():
    single = single_atom_css(0.5, tilt=0.2)
    state = ExactState.from_product_state(single, 2, 0.5, 4)
    atomic = _atomic_collective(2, 1)
    jz0 = state.expect(atomic["jz"])
    rec = run_schedule_exact(state, PulseSchedule.decoupled(2), 0.05, 0.5)  # signs +, -, +, -
    assert abs(rec.final_state.expect(atomic["jz"]) - jz0) < 1e-12


# ------------------------------------------------------------------- bang-bang

@pytest.mark.parametrize("na,f,n_ph", [(2, 1.0, 2), (1, 1.0, 4), (2, 0.5, 3), (3, 1.0, 2)])
def test_bangbang_equivalence(na, f, n_ph):
    assert check_bangbang_equivalence(na, f, n_ph, 0.05, 0.05) < 1e-10


def test_bangbang_trivial_when_g2_zero():
    assert check_bangbang_equivalence(2, 1.0, 2, 0.05, 0.0) < 1e-12


# -------------------------------------------------- cumulative meter statistics

def brute_force_meter(na, f, n_ph, g1, g2, schedule, tilt, phase):
    """Full multi-pulse pure-state meter moments; every photon sector kept alive."""
    single = single_atom_css(f, tilt, phase)
    psi_a = reduce(np.kron, [single] * na)
    ws = _pulse_workspace(na, int(round(2 * f)), n_ph, g1, g2)
    d_a, d_p = ws["dim_a"], ws["dim_ph"]
    n = len(schedule)
    signs = schedule.signs.tolist()
    phis = [polarized_photon_state(n_ph, sign) for sign in signs]
    psi = reduce(np.kron, [psi_a] + phis)
    for i in range(n):
        before, after = d_p ** i, d_p ** (n - 1 - i)
        t = psi.reshape(d_a, before, d_p, after)
        t = np.moveaxis(t, 2, 1).reshape(d_a * d_p, before * after)
        t = ws["u"] @ t
        psi = np.moveaxis(t.reshape(d_a, d_p, before, after), 1, 2).reshape(-1)
    sy = np.asarray(build_stokes_operators(n_ph).sy)

    def apply_sy(vec, i):
        before, after = d_p ** i, d_p ** (n - 1 - i)
        t = vec.reshape(d_a * before, d_p, after)
        return np.einsum("ml,alb->amb", sy, t).reshape(-1)

    weighted = [signs[i] * apply_sy(psi, i) for i in range(n)]
    total = sum(weighted)
    mean = (psi.conj() @ total).real
    second = (total.conj() @ total).real
    return mean, second - mean ** 2


@pytest.mark.parametrize("sched", [PulseSchedule.decoupled(2), PulseSchedule.naive(3)])
def test_meter_correlation_tracking_matches_brute_force(sched):
    na, f, n_ph, g1, g2, tilt, phase = 2, 1.0, 3, 1e-2, 7e-3, 0.4, 0.3
    state = ExactState.from_product_state(single_atom_css(f, tilt, phase), na, f, n_ph)
    rec = run_schedule_exact(state, sched, g1, g2)
    bf_mean, bf_var = brute_force_meter(na, f, n_ph, g1, g2, sched, tilt, phase)
    assert rec.meter_mean[-1] == pytest.approx(bf_mean, abs=1e-10)
    assert rec.meter_var[-1] == pytest.approx(bf_var, rel=1e-10)


# --------------------------------------------------------- engine comparisons

def test_pure_qnd_agreement():
    rep = oracle_vs_gaussian(2, 1.0, 4, g1=1e-3, g2=0.0,
                             schedule=PulseSchedule.decoupled(2), tilt=0.4)
    assert max(abs(x) for x in rep.d_jz) < 1e-6


def test_first_moment_residual_shrinks_quadratically():
    devs = []
    for g in (1e-3, 5e-4, 2.5e-4):
        rep = oracle_vs_gaussian(2, 1.0, 4, g1=g, g2=g,
                                 schedule=PulseSchedule.naive(4), tilt=0.4, phase=0.3)
        devs.append(rep.max_first_moment_deviation)
    assert devs[0] / devs[1] >= 3.5
    assert devs[1] / devs[2] >= 3.5


def test_decoupling_beats_naive_in_oracle():
    # same photon budget: |<Jz> drift| under p=2 decoupling at least 10x smaller
    g2, n_ph = 1e-3, 4
    single = single_atom_css(1.0, tilt=0.3, phase=0.5)
    drift = {}
    for name, sched in (("naive", PulseSchedule.naive(4)), ("decoupled", PulseSchedule.decoupled(2))):
        state = ExactState.from_product_state(single, 2, 1.0, n_ph)
        atomic = _atomic_collective(2, 2)
        jz0 = state.expect(atomic["jz"])
        rec = run_schedule_exact(state, sched, 0.0, g2)
        drift[name] = abs(rec.jz_mean[-1] - jz0)
    assert drift["naive"] >= 10 * drift["decoupled"]


def test_large_coupling_warns():
    with pytest.warns(UserWarning):
        oracle_vs_gaussian(2, 1.0, 4, g1=0.2, g2=0.2, schedule=PulseSchedule.naive(2))
