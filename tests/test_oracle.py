import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from qndprobe.gaussian import JY, M, CouplingParams, PulseSchedule, init_css
from qndprobe.operators import build_spin_operators, build_stokes_operators
from qndprobe.oracle import (
    ExactState,
    build_heff,
    hermitian_unitary,
    oracle_vs_gaussian,
    polarized_photon_state,
    run_schedule_exact,
    single_atom_css,
    single_atom_moments,
    _atomic_collective,
    _kraus_stacks,
)


# ------------------------------------------------------- joint space and factors

def kron_heff(jx, jy, jz, n_ph, g1, g2):
    """Dense reference H = g1 Jz x Sz + g2 (Jx x Sx + Jy x Sy) on the (atoms x photons) space."""
    stokes = build_stokes_operators(n_ph)
    return g1 * np.kron(jz, stokes.sz) + g2 * (np.kron(jx, stokes.sx) + np.kron(jy, stokes.sy))


def dense_heff(na, f, n_ph, g1, g2):
    """The dense reference on the oracle's atomic space (spin na/2 for f = 1)."""
    atomic = _atomic_collective(na, int(round(2 * f)))
    return kron_heff(atomic["jx"], atomic["jy"], atomic["jz"], n_ph, g1, g2)


def total_z(na, f, n_ph):
    """Sz + Jz on the (atoms x photons) space, built from the factors H is built from."""
    jz = _atomic_collective(na, int(round(2 * f)))["jz"]
    sz = build_stokes_operators(n_ph).sz
    return np.kron(jz, np.eye(n_ph + 1)) + np.kron(np.eye(jz.shape[0]), sz)


def check_bangbang_equivalence(na, f, n_ph, g1, g2):
    """Max-norm deviation between conjugated and polarization-flipped evolutions.

    A pi rotation about the collective Jz leaves Jz untouched and inverts
    Jx, Jy, so U_b^dag U_H U_b must equal evolution under the Hamiltonian
    with Sx -> -Sx, Sy -> -Sy.  Both evolutions keep the Sz + Jz blocks, and
    U_b = exp(i pi Jz) x 1 is diagonal, so the check runs block by block and
    conjugating by U_b is one phase per row and one per column.
    """
    m = _atomic_collective(na, int(round(2 * f)))["jz"].diagonal().real
    flipped = build_heff(na, f, n_ph, g1, -g2)
    deviation = 0.0
    for (a, _, h_b), (_, _, h_flip) in zip(build_heff(na, f, n_ph, g1, g2), flipped):
        p = np.exp(1j * math.pi * m[a])
        diff = p.conj()[:, None] * hermitian_unitary(h_b) * p - hermitian_unitary(h_flip)
        deviation = max(deviation, float(np.max(np.abs(diff))))
    return deviation


def test_joint_dimension_two_atoms():
    h = dense_heff(2, 1.0, 2, 0.3, 0.2)  # spin-1 atoms are one spin 1: 3 * 3
    assert h.shape[0] == 9
    assert h.shape == (9, 9)
    assert dense_heff(2, 1.5, 2, 0.3, 0.2).shape == (48, 48)  # other spins keep 4^2 * 3


def test_single_atom_jz_spectrum():
    # at g1 = 1, g2 = 0, H = Jz (x) Sz, and Sz at n_ph = 2 has spectrum {-1, 0, 1}
    eig = np.unique(np.round(np.linalg.eigvalsh(dense_heff(1, 1.0, 2, 1.0, 0.0)), 12))
    assert np.allclose(eig, [-0.5, 0.0, 0.5])


def test_three_atom_jx_extreme_eigenvalue():
    jx = _atomic_collective(3, 2)["jx"]
    assert np.linalg.eigvalsh(jx).max() == pytest.approx(1.5, abs=1e-10)


def test_dimension_cap_enforced():
    with pytest.raises(ValueError):
        build_heff(6, 2.0, 10, 0.1, 0.1)  # 5^6 * 11 >> 4096
    with pytest.raises(ValueError):
        build_heff(1000, 1.0, 4, 0.1, 0.1)  # 1001 * 5 = 5005 > 4096


def test_product_state_refused_before_density_matrix_is_built():
    # the 3125 x 3125 complex density matrix of 5 spin-2 atoms would take 156 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap"):
            ExactState.from_product_state(single_atom_css(2.0), 5, 2.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_spin_one_state_with_m0_amplitude_refused():
    # |m=0> lies outside the spin-na/2 space; single_atom_css writes an exact 0 there
    assert single_atom_css(1.0, tilt=0.3, phase=0.5)[1] == 0
    single = np.array([0.6, 1e-9, 0.8], dtype=complex)
    single /= np.linalg.norm(single)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="m=0"):
            ExactState.from_product_state(single, 800, 1.0, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000


def test_heff_refused_before_any_operator_is_built():
    # the three Stokes matrices at n_ph = 1400 alone would take 94 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap"):
            build_heff(1, 1.5, 1400, 0.1, 0.1)  # 4 * 1401 = 5604 > 4096
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_exact_run_peaks_below_six_joint_matrices():
    # H is built and exponentiated one Sz + Jz block at a time, so no joint-space
    # matrix exists; four spin-1 atoms are one spin 2, so D = 5 * 5, far below the
    # bound of six complex D x D matrices at the tensor-space D = 81 * 5
    state = ExactState.from_product_state(single_atom_css(1.0), 4, 1.0, 4)
    _atomic_collective(4, 2)  # the cached atomic factors, built outside the traced window
    tracemalloc.start()
    try:
        run_schedule_exact(state, PulseSchedule.decoupled(2), 1e-3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 16 * 405 ** 2


def test_one_pulse_peaks_below_one_dense_joint_matrix():
    # D = 101 * 17 = 1717, so one complex D x D matrix takes 47.2 MB, while the
    # four Kraus stacks of 17 atomic 101 x 101 matrices take 11 MB together
    state = ExactState.from_product_state(single_atom_css(1.0), 100, 1.0, 16)
    _atomic_collective(100, 2)  # the cached atomic factors, built outside the traced window
    tracemalloc.start()
    try:
        run_schedule_exact(state, PulseSchedule.naive(1), 1e-3, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (101 * 17) ** 2


# ----------------------------------------------------------------- Hamiltonian

@pytest.mark.parametrize("f", [0.5, 1.0, 1.5, 2.0])
def test_heff_blocks_partition_the_joint_space_and_equal_the_dense_blocks(f):
    na, n_ph = 2, 3
    h = dense_heff(na, f, n_ph, 0.11, 0.07)
    z = np.diag(total_z(na, f, n_ph)).real
    blocks = build_heff(na, f, n_ph, 0.11, 0.07)
    assert isinstance(blocks, list)
    joint = [a * (n_ph + 1) + s for a, s, _ in blocks]
    assert np.array_equal(np.sort(np.concatenate(joint)), np.arange(h.shape[0]))
    # one Sz + Jz value per block, ascending and distinct across blocks
    assert [len(set(z[idx])) for idx in joint] == [1] * len(blocks)
    assert np.all(np.diff([z[idx[0]] for idx in joint]) > 0)
    for idx, (_, _, h_b) in zip(joint, blocks):
        assert np.array_equal(h_b, h[np.ix_(idx, idx)])


def test_heff_diagonal_when_g2_zero():
    h = dense_heff(2, 1.0, 2, 0.3, 0.0)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


@pytest.mark.parametrize("na,f,n_ph", [(1, 0.5, 2), (2, 1.0, 3), (3, 1.0, 2), (2, 0.5, 6)])
def test_heff_commutes_with_total_z(na, f, n_ph):
    h = dense_heff(na, f, n_ph, 0.11, 0.07)
    z = total_z(na, f, n_ph)
    assert np.max(np.abs(h @ z - z @ h)) < 1e-10
    assert np.array_equal(h, h.conj().T)  # every Kronecker factor is exactly Hermitian


@pytest.mark.parametrize("na,f,n_ph", [(2, 0.5, 3), (5, 1.0, 4), (2, 1.5, 3), (2, 2.0, 2)])
def test_heff_vanishes_off_the_total_z_blocks(na, f, n_ph):
    h = dense_heff(na, f, n_ph, 0.11, 0.07)
    z = np.diag(total_z(na, f, n_ph)).real
    assert np.count_nonzero(h[z[:, None] != z[None, :]]) == 0
    assert np.count_nonzero(h[z[:, None] == z[None, :]]) > 0


@pytest.mark.parametrize("na,f,n_ph", [(3, 1.0, 4), (2, 0.5, 3), (2, 1.5, 2), (1, 2.0, 3)])
def test_block_kraus_stacks_match_dense_propagator(na, f, n_ph):
    g1, g2 = 0.11, 0.07
    state = ExactState.from_product_state(single_atom_css(f), na, f, n_ph)
    dim_a, dim_ph = state.rho.shape[0], n_ph + 1
    u = hermitian_unitary(dense_heff(na, f, n_ph, g1, g2)).reshape(dim_a, dim_ph, dim_a, dim_ph)
    for sign, (e, _) in _kraus_stacks(state, g1, g2).items():
        dense = np.moveaxis(u @ polarized_photon_state(n_ph, sign), 1, 0)
        assert np.max(np.abs(e - dense)) < 1e-13


def test_heff_g2_irrelevant_for_spin_half():
    assert np.max(np.abs(dense_heff(2, 0.5, 3, 0.2, 5.0) - dense_heff(2, 0.5, 3, 0.2, 0.0))) == 0.0


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


def test_polarized_photon_state_matches_binomial_formula():
    for n_ph in range(61):
        for sign in (1, -1):
            binomial = [sign ** i * math.sqrt(math.comb(n_ph, n_ph - i)) / math.sqrt(2.0 ** n_ph)
                        for i in range(n_ph + 1)]
            assert np.abs(polarized_photon_state(n_ph, sign) - binomial).max() <= 1e-13


@pytest.mark.parametrize("n_ph", [1100, 2047])
@pytest.mark.parametrize("sign", [1, -1])
def test_polarized_photon_state_above_float_range_of_binomials(n_ph, sign):
    phi = polarized_photon_state(n_ph, sign)
    assert not phi.imag.any()
    assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-14)
    # <Sx> from sx's superdiagonal <i|sx|i+1> = sqrt((i+1)(n-i))/2, which the dense sx has at n = 8
    j = np.arange(8)
    assert np.allclose(build_stokes_operators(8).sx.diagonal(1), np.sqrt((j + 1) * (8 - j)) / 2)
    i = np.arange(n_ph)
    sx_mean = phi.real[:-1] @ (np.sqrt((i + 1) * (n_ph - i)) * phi.real[1:])
    assert sx_mean == pytest.approx(sign * n_ph / 2, rel=1e-13)


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


@pytest.mark.parametrize("na", [2.0, 7.0, 1e6])
def test_engine_css_is_the_oracle_single_atom_css_times_na(na):
    # the engine's CSS and the oracle's single-atom moments index the same ATOMIC order
    state = init_css(CouplingParams(g1=1e-3, g2=1e-3, photons_per_pulse=100.0, atom_number=na))
    mom = single_atom_moments(single_atom_css(1.0), 1.0)
    assert np.array_equal(state.cov[:M, :M], na * mom["cov"])
    assert state.jx_mean == na * mom["mean_jx"]
    # the oracle's <jz> and <jxy> are rounding, about 1e-16 per atom
    assert np.all(np.abs(na * mom["mean"] - state.mean[:M]) <= 1e-15 * na)


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
    predicted = g2 * (n_ph / 2) * na * mom["mean"][JY]
    assert abs(drift - predicted) < (g2 * n_ph) ** 2


def test_evolve_pulse_norm_preserved_and_checked():
    # decoupled(1) ends with a -45-degree pulse
    state = ExactState.from_product_state(single_atom_css(1.0), 2, 1.0, 3)
    rec = run_schedule_exact(state, PulseSchedule.decoupled(1), 0.05, 0.05)
    assert abs(np.trace(rec.final_state.rho).real - 1.0) < 1e-10
    bad = ExactState(na=2, f=1.0, n_ph=3, rho=0.5 * state.rho)
    with pytest.raises(ArithmeticError):
        run_schedule_exact(bad, PulseSchedule.naive(1), 0.1, 0.0)


def test_nan_density_matrix_fails_normalization():
    state = ExactState.from_product_state(single_atom_css(1.0), 2, 1.0, 3)
    with pytest.raises(ArithmeticError, match="normalization"):
        ExactState(na=2, f=1.0, n_ph=3, rho=state.rho * np.nan).check_normalization()


def test_nan_single_atom_state_refused():
    with pytest.raises(ValueError, match="must be normalized"):
        ExactState.from_product_state(np.array([np.nan, 0.0, 0.0]), 2, 1.0, 3)


def test_spin_half_jz_exactly_conserved_despite_g2():
    single = single_atom_css(0.5, tilt=0.2)
    state = ExactState.from_product_state(single, 2, 0.5, 4)
    atomic = _atomic_collective(2, 1)
    jz0 = state.expect(atomic["jz"])
    rec = run_schedule_exact(state, PulseSchedule.decoupled(2), 0.05, 0.5)  # signs +, -, +, -
    assert abs(rec.final_state.expect(atomic["jz"]) - jz0) < 1e-12


# ------------------------------------------------------------------- bang-bang

@pytest.mark.parametrize("na,f,n_ph", [(2, 1.0, 2), (1, 1.0, 4), (2, 0.5, 3), (3, 1.0, 2),
                                       (200, 1.0, 16)])
def test_bangbang_equivalence(na, f, n_ph):
    assert check_bangbang_equivalence(na, f, n_ph, 0.05, 0.05) < 1e-10


def test_bangbang_trivial_when_g2_zero():
    assert check_bangbang_equivalence(2, 1.0, 2, 0.05, 0.0) < 1e-12


# -------------------------------------------------- cumulative meter statistics

def brute_force_meter(na, f, n_ph, g1, g2, schedule, tilt, phase):
    """Full multi-pulse pure-state meter moments and final <Jz>, <Jy>.

    Every photon sector is kept alive, and H is built on the unreduced
    (2f+1)^na atomic tensor space from single-atom operators.
    """
    ops = build_spin_operators(f)
    stokes = build_stokes_operators(n_ph)
    eye = np.eye(ops.dim)

    def collective(single):
        return sum(reduce(np.kron, [single if i == k else eye for i in range(na)]) for k in range(na))

    jx, jy, jz = collective(ops.jx), collective(ops.jy), collective(ops.jz)
    h = kron_heff(jx, jy, jz, n_ph, g1, g2)
    single = single_atom_css(f, tilt, phase)
    psi_a = reduce(np.kron, [single] * na)
    u = hermitian_unitary(h)
    d_a, d_p = psi_a.size, n_ph + 1
    n = len(schedule)
    signs = schedule.signs.tolist()
    phis = [polarized_photon_state(n_ph, sign) for sign in signs]
    psi = reduce(np.kron, [psi_a] + phis)
    for i in range(n):
        before, after = d_p ** i, d_p ** (n - 1 - i)
        t = psi.reshape(d_a, before, d_p, after)
        t = np.moveaxis(t, 2, 1).reshape(d_a * d_p, before * after)
        t = u @ t
        psi = np.moveaxis(t.reshape(d_a, d_p, before, after), 1, 2).reshape(-1)
    sy = np.asarray(stokes.sy)

    def apply_sy(vec, i):
        before, after = d_p ** i, d_p ** (n - 1 - i)
        t = vec.reshape(d_a * before, d_p, after)
        return np.einsum("ml,alb->amb", sy, t).reshape(-1)

    weighted = [signs[i] * apply_sy(psi, i) for i in range(n)]
    total = sum(weighted)
    mean = (psi.conj() @ total).real
    second = (total.conj() @ total).real
    atoms = psi.reshape(d_a, -1)
    jz_final, jy_final = (np.vdot(atoms, op @ atoms).real for op in (jz, jy))
    return mean, second - mean ** 2, jz_final, jy_final


@pytest.mark.parametrize("na,f,n_ph", [(2, 1.0, 3), (3, 1.0, 2), (2, 0.5, 4), (1, 1.5, 3),
                                       (4, 1.0, 2), (2, 2.0, 2)])
@pytest.mark.parametrize("sched", [PulseSchedule.decoupled(2), PulseSchedule.naive(3)])
def test_meter_correlation_tracking_matches_brute_force(sched, na, f, n_ph):
    g1, g2, tilt, phase = 1e-2, 7e-3, 0.4, 0.3
    state = ExactState.from_product_state(single_atom_css(f, tilt, phase), na, f, n_ph)
    rec = run_schedule_exact(state, sched, g1, g2)
    bf_mean, bf_var, bf_jz, bf_jy = brute_force_meter(na, f, n_ph, g1, g2, sched, tilt, phase)
    assert rec.meter_mean[-1] == pytest.approx(bf_mean, abs=1e-10)
    assert rec.meter_var[-1] == pytest.approx(bf_var, rel=1e-10)
    assert rec.jz_mean[-1] == pytest.approx(bf_jz, abs=1e-12)
    assert rec.jy_mean[-1] == pytest.approx(bf_jy, abs=1e-12)


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


@pytest.mark.parametrize("sched", [PulseSchedule.naive(4), PulseSchedule.decoupled(2)])
def test_first_moment_residual_shrinks_quadratically_at_sixty_atoms(sched):
    # na = 60 is a joint dimension of 61 * 9 = 549 on the spin-30 space
    devs = []
    for g in (1e-4, 5e-5, 2.5e-5):
        rep = oracle_vs_gaussian(60, 1.0, 8, g1=g, g2=g, schedule=sched, tilt=0.4, phase=0.3)
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
