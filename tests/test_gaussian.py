import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qndprobe.gaussian import (
    ATOMIC,
    EVAL_BATCH,
    JXY,
    JY,
    JZ,
    M,
    MEMORY_CAP_BYTES,
    STATE,
    MIXED_VARIANCE,
    PSD_TOL,
    TRAIN_BYTES_PER_PULSE,
    CouplingParams,
    GaussianState,
    PulseSchedule,
    _check_psd,
    css_meter_variance,
    init_css,
    pulse_channel,
    pulse_map,
    run_schedule,
    state_from_atomic_moments,
)
from qndprobe.operators import build_spin_operators


def make_params(**kw):
    base = dict(g1=1e-3, g2=1e-3, photons_per_pulse=100.0, atom_number=1000.0)
    base.update(kw)
    return CouplingParams(**base)


# ---------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(ValueError):
        make_params(g1=float("nan"))
    with pytest.raises(ValueError):
        make_params(photons_per_pulse=0)
    with pytest.raises(ValueError):
        make_params(atom_number=-5)
    with pytest.raises(ValueError):
        make_params(scattering_eps=1.5)
    for name in ("photons_per_pulse", "atom_number"):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="positive and finite"):
                make_params(**{name: value})


# ----------------------------------------------------------------- schedules

def test_naive_schedule_structure():
    sched = PulseSchedule.naive(4)
    assert len(sched) == 4
    assert sched.signs.tolist() == [1, 1, 1, 1]
    assert sched.p is None
    assert sched == PulseSchedule("naive", 4)


def test_decoupled_schedule_structure():
    sched = PulseSchedule.decoupled(3)
    assert len(sched) == 6
    assert sched.signs.tolist() == [1, -1, 1, -1, 1, -1]
    # one sign per pulse, (-1)^(i+1) for 1-based pulse index i: the Sx sign and the meter sign
    assert sched.signs.tolist() == [(-1) ** (i + 1) for i in range(1, 7)]
    assert sched.p == 3
    assert sched == PulseSchedule("decoupled", 6)
    assert np.issubdtype(sched.signs.dtype, np.integer)
    assert not sched.signs.flags.writeable


def test_schedule_rejects_inconsistent_entries():
    with pytest.raises(ValueError, match="unknown schedule mode"):
        PulseSchedule("bang-bang", 2)
    with pytest.raises(ValueError, match="positive integer"):
        PulseSchedule("naive", 0)
    with pytest.raises(ValueError, match="positive integer"):
        PulseSchedule("naive", 4.0)
    with pytest.raises(ValueError, match="even number"):
        PulseSchedule("decoupled", 3)
    with pytest.raises(ValueError):
        PulseSchedule.decoupled(0)


def test_schedule_holds_no_per_pulse_objects():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sched = PulseSchedule.decoupled(10 ** 5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sched) == 2 * 10 ** 5
    assert held < 1024


def test_train_memory_cap_refuses_before_allocating():
    # admits the 2e7-pulse trains that fit in the cap, refuses 2e8 pulses (about 14 GB)
    assert 2 * 10 ** 7 * TRAIN_BYTES_PER_PULSE <= MEMORY_CAP_BYTES < 2 * 10 ** 8 * TRAIN_BYTES_PER_PULSE
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="train cap"):
            PulseSchedule.decoupled(10 ** 8)
        with pytest.raises(ValueError, match="train cap"):
            PulseSchedule.naive(10 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_sweep_refuses_more_atom_numbers_than_one_block():
    params, sched = paper_params("decoupled", p=1)
    grid = np.geomspace(1e4, 2e6, EVAL_BATCH)
    assert css_meter_variance(params, sched, grid)[0].shape == (EVAL_BATCH,)
    with pytest.raises(ValueError, match="atom numbers"):
        css_meter_variance(params, sched, np.geomspace(1e4, 2e6, EVAL_BATCH + 1))


def test_sweep_refuses_an_empty_grid():
    params, sched = paper_params("decoupled", p=1)
    with pytest.raises(ValueError, match="atom numbers, got 0"):
        css_meter_variance(params, sched, [])


@pytest.mark.parametrize("na", [float("nan"), -1e4, float("inf"), 0.0])
def test_sweep_refuses_atom_numbers_that_are_not_positive_and_finite(na):
    params, sched = paper_params("decoupled", p=1)
    with pytest.raises(ValueError, match="positive and finite"):
        css_meter_variance(params, sched, [1e4, na, 2e6])


# ------------------------------------------------------------------ init_css

def test_init_css_projection_noise():
    st = init_css(make_params(atom_number=1e6))
    assert st.cov[JZ, JZ] == pytest.approx(2.5e5)
    assert st.cov[JY, JY] == pytest.approx(2.5e5)
    assert st.jx_mean == pytest.approx(5e5)
    assert np.all(st.mean == 0.0)

    tiny = init_css(make_params(atom_number=2.0))
    assert tiny.cov[JZ, JZ] == pytest.approx(0.5)


def test_init_css_f1_jxy_mirrors_jz():
    st = init_css(make_params(atom_number=1e6))
    assert st.cov[JXY, JXY] == st.cov[JZ, JZ]
    assert st.cov[JXY, JZ] == st.cov[JZ, JZ]
    st.check_psd()


# ------------------------------------------------------------ one-pulse trains

def apply_one_pulse(state, params):
    """The state after one +1 pulse: the final state of a one-pulse train."""
    return run_schedule(params, PulseSchedule.naive(1), initial=state).final_state


def test_pulse_meter_gain_pure_qnd():
    # g2 = 0: the meter mean picks up g1 * (nL/2) * <Jz>, var(Jz) untouched
    params = make_params(g2=0.0)
    state = state_from_atomic_moments([0.0, 30.0, 0.0], np.diag([5.0, 7.0, 3.0]), 500.0)
    out = apply_one_pulse(state, params)
    assert out.mean[M] == pytest.approx(params.g1 * 50.0 * 30.0)
    assert out.cov[JZ, JZ] == pytest.approx(7.0)
    assert out.mean[JZ] == pytest.approx(30.0)


def test_pulse_free_propagation_adds_shot_noise_only():
    params = make_params(g1=0.0, g2=0.0)
    state = init_css(params)
    out = apply_one_pulse(state, params)
    assert np.allclose(out.mean, state.mean)
    assert np.allclose(out.cov[:3, :3], state.cov[:3, :3])
    assert out.cov[M, M] == pytest.approx(params.photons_per_pulse / 4)


def test_pulse_naive_jz_variance_gain_matches_affine_transport():
    # independent oracle: var'(Jz) = var(Jz) + g2^2 Sx^2 var(Jy) + 2 g2 Sx cov(Jz, Jy)
    params = make_params(g1=0.0, g2=2e-3)
    cov = np.array([[9.0, 1.5, 0.0], [1.5, 4.0, 0.0], [0.0, 0.0, 2.0]])
    state = state_from_atomic_moments([0.0, 0.0, 0.0], cov, 500.0)
    sx = params.photons_per_pulse / 2
    expected = 4.0 + params.g2 ** 2 * sx ** 2 * 9.0 + 2 * params.g2 * sx * 1.5
    out = apply_one_pulse(state, params)
    assert out.cov[JZ, JZ] == pytest.approx(expected, rel=1e-12)


def test_pulse_dropped_terms_feed_jz_and_meter():
    params_on = make_params(g2=1e-3, include_dropped_terms=True)
    params_off = make_params(g2=1e-3, include_dropped_terms=False)
    state = init_css(params_on)
    on = apply_one_pulse(state, params_on)
    off = apply_one_pulse(state, params_off)
    shot = params_on.photons_per_pulse / 4
    jx = state.jx_mean
    # -g2 Sy_in Jx adds g2^2 var(Sy) jx^2 to var(Jz), correlated with the meter shot noise
    assert on.cov[JZ, JZ] - off.cov[JZ, JZ] == pytest.approx(params_on.g2 ** 2 * shot * jx ** 2)
    assert on.cov[JZ, M] - off.cov[JZ, M] == pytest.approx(-params_on.g2 * shot * jx)
    # -g2 Sz_in Jy adds g2^2 var(Sz) (var(Jy) + mean(Jy)^2) to var(M)
    assert on.cov[M, M] - off.cov[M, M] == pytest.approx(
        params_on.g2 ** 2 * shot * state.cov[JY, JY]
    )


def test_meter_sign_applies_to_the_shot_noise_of_its_pulse():
    # g1 = 0, dropped terms on: pulse i loads -g2 jx Sy_i into Jz and sign_i Sy_i into M,
    # so cov(Jz, M) sums -sign_i g2 jx var(Sy): zero for (+, -), -2 g2 jx var(Sy) for (+, +)
    params = make_params(g1=0.0, g2=1e-3, include_dropped_terms=True)
    state = init_css(params)
    unit = params.g2 * state.jx_mean * params.photons_per_pulse / 4
    decoupled = run_schedule(params, PulseSchedule.decoupled(1), initial=state).final_state
    naive = run_schedule(params, PulseSchedule.naive(2), initial=state).final_state
    assert abs(decoupled.cov[JZ, M]) <= 1e-12 * unit
    assert naive.cov[JZ, M] == pytest.approx(-2 * unit, rel=1e-12)


# ----------------------------------------------------------------- decoherence
# with g1 = g2 = 0 the atomic block of a one-pulse train sees depolarization only

def test_decoherence_identity_at_zero():
    params = make_params(g1=0.0, g2=0.0)
    state = init_css(params)
    out = apply_one_pulse(state, params)
    assert np.array_equal(out.cov[:3, :3], state.cov[:3, :3])
    assert np.array_equal(out.mean, state.mean)
    assert out.jx_mean == state.jx_mean


def test_decoherence_complete_depolarization():
    params = make_params(g1=0.0, g2=0.0, atom_number=1e4, scattering_eps=1.0)
    state = init_css(params)
    out = apply_one_pulse(state, params)
    assert out.jx_mean == 0.0
    assert out.cov[JY, JY] == pytest.approx(1e4 * MIXED_VARIANCE)
    assert out.cov[JZ, JZ] == pytest.approx(1e4 * MIXED_VARIANCE)
    assert out.cov[JXY, JXY] == pytest.approx(1e4 * MIXED_VARIANCE)
    # f = 1 isotropic single-atom variance f(f+1)/3 scaled by the 1/2 in jz
    assert MIXED_VARIANCE == pytest.approx(1.0 * 2.0 / 12.0)


@pytest.mark.xfail(
    strict=True,
    reason="depolarization is diagonal: eps = 1 leaves cov(Jz, Jxy) = 0, but jxy = jz for f = 1, "
    "so the fully depolarized ensemble has cov(Jz, Jxy) = NA/6; ROADMAP item 2 drops Jxy",
)
def test_complete_depolarization_keeps_the_jz_jxy_covariance():
    ops = build_spin_operators(1.0)
    assert np.trace(ops.jz @ ops.jxy).real / 3 == pytest.approx(MIXED_VARIANCE, abs=1e-15)
    params = make_params(g1=0.0, g2=0.0, atom_number=1e4, scattering_eps=1.0)
    out = apply_one_pulse(init_css(params), params)
    assert out.cov[JZ, JXY] == pytest.approx(1e4 * MIXED_VARIANCE)


def test_mixed_variance_is_the_spin_1_trace():
    ops = build_spin_operators(1.0)
    for op in (ops.jy, ops.jz, ops.jxy):
        mean = np.trace(op).real / 3
        assert np.trace(op @ op).real / 3 - mean ** 2 == MIXED_VARIANCE


def test_decoherence_jx_decay_example():
    params = make_params(g1=0.0, g2=0.0, atom_number=1e6, scattering_eps=0.01)
    out = apply_one_pulse(init_css(params), params)
    assert out.jx_mean == pytest.approx(4.95e5)


def test_decoherence_rejects_bad_eps():
    with pytest.raises(ValueError):
        make_params(g1=0.0, g2=0.0, scattering_eps=1.2)


# ---------------------------------------------------------------- run_schedule

def test_decoupled_pair_conserves_mean_jz():
    params = make_params(g2=5e-3)
    result = run_schedule(params, PulseSchedule.decoupled(1))
    assert result.final_state.mean[JZ] == pytest.approx(0.0, abs=1e-15)


def test_decoupled_meter_noise_closed_form():
    # g2 = 0: 4 var(M)/NL = 1 + g1^2 NL var(Jz)
    params = make_params(g2=0.0, photons_per_pulse=1e5, atom_number=1e5)
    result = run_schedule(params, PulseSchedule.decoupled(5))
    nl_total = params.photons_per_pulse * 10
    lhs = 4 * result.meter_var / nl_total
    rhs = 1 + params.g1 ** 2 * nl_total * params.atom_number / 4
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_naive_meter_pure_shot_noise_when_g1_zero():
    params = make_params(g1=0.0, g2=3e-3)
    result = run_schedule(params, PulseSchedule.naive(4))
    assert result.meter_var == pytest.approx(params.photons_per_pulse * 4 / 4, rel=1e-12)
    assert result.meter_mean == 0.0


# ------------------------------------------------------------------ invariants

def paper_params(mode, p=5, na=1.0e6, **kw):
    from qndprobe.experiment import paper_scale_params
    return paper_scale_params(mode=mode, p=p, na=na, **kw)


@pytest.mark.parametrize("mode,p", [("decoupled", 5), ("naive", 5), ("decoupled", 1)])
def test_covariance_stays_psd_through_schedule(mode, p):
    params, sched = paper_params(mode, p=p)
    run_schedule(params, sched)  # raises on violation


def test_qnd_conservation_residual_shrinks_with_p():
    residuals = []
    for p in (1, 2, 4, 8, 16, 32, 64):
        params, sched = paper_params("decoupled", p=p)
        result = run_schedule(params, sched)
        var0 = init_css(params).cov[JZ, JZ]
        residuals.append(abs(result.final_state.cov[JZ, JZ] - var0) / var0)
        assert abs(result.final_state.mean[JZ]) < 1e-12
    assert all(b < a for a, b in zip(residuals, residuals[1:]))


def test_meter_gain_independent_of_p():
    # mean(M) = g1 (NL/2) mean(Jz_in); the g2 correction enters through the
    # initial <Jxy> and falls off as 1/p, anchored at the empirical p = 64 value
    from qndprobe.experiment import G1_REFERENCE, NL_REFERENCE, g2_from_impact
    jz0 = 1234.0
    na = 1.0e6
    ideal = G1_REFERENCE * (NL_REFERENCE / 2) * jz0

    def meter_mean(p, mean_jxy):
        sched = PulseSchedule.decoupled(p)
        params = CouplingParams(
            g1=G1_REFERENCE, g2=g2_from_impact(), atom_number=na,
            photons_per_pulse=NL_REFERENCE / len(sched),
        )
        cov = np.full((3, 3), 0.0)
        np.fill_diagonal(cov, na / 4)
        initial = state_from_atomic_moments([0.0, jz0, mean_jxy], cov, na / 2)
        return run_schedule(params, sched, initial=initial).meter_mean

    # with <Jxy> = 0 the identity is exact at every order
    for p in (1, 4, 16):
        assert meter_mean(p, 0.0) == pytest.approx(ideal, rel=1e-12)

    # with <Jxy> = jz0 (the f=1 CSS identification) the residual scales ~ 1/p
    r64 = abs(meter_mean(64, jz0) - ideal)
    for p in (1, 2, 8, 32):
        assert abs(meter_mean(p, jz0) - ideal) <= r64 * (64 / p) * 1.05


@pytest.mark.parametrize("mode", ["naive", "decoupled"])
def test_backaction_growth_identical_in_both_modes(mode):
    # cov(Jy,Jy) grows by g1^2 var(Sz_in) jx^2 per pulse, never suppressed
    params, sched = paper_params(mode, p=5, g2=0.0)
    result = run_schedule(params, sched)
    per_pulse = params.g1 ** 2 * (params.photons_per_pulse / 4) * (params.atom_number / 2) ** 2
    expected = params.atom_number / 4 + len(sched) * per_pulse
    assert result.final_state.cov[JY, JY] == pytest.approx(expected, rel=1e-12)


def test_naive_quadratic_exceeds_decoupled_tenfold():
    from qndprobe.experiment import DEFAULT_NA_GRID, sweep_atom_number
    na_grid = list(DEFAULT_NA_GRID)
    params_n, sched_n = paper_params("naive", p=5)
    params_d, sched_d = paper_params("decoupled", p=5)
    c2_naive = sweep_atom_number(params_n, na_grid, sched_n).c2
    c2_dec = sweep_atom_number(params_d, na_grid, sched_d).c2
    assert c2_naive > 0
    assert c2_naive >= 10 * c2_dec


# ---------------------------------------------------------------- pulse channel

@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.2])
def test_pulse_channel_is_the_depolarized_pulse_map(eps, dropped):
    params = make_params(scattering_eps=eps, include_dropped_terms=dropped)
    channel = pulse_channel(params)
    d = np.array([1 - eps, 1 - eps, 1 - eps, 1.0])
    shot = params.photons_per_pulse / 4
    for k, sign in enumerate((1, -1)):
        a = pulse_map(sign, params, 0.0)[0]
        assert np.array_equal(channel.da[k], d[:, None] * a)
        for jx in (0.37 * params.atom_number, 2.0e6):
            b = pulse_map(sign, params, jx)[1]
            np.testing.assert_allclose(channel.db0[k] + jx * channel.db1[k], np.sqrt(shot) * d[:, None] * b,
                                       rtol=1e-15, atol=0)
        assert (channel.q[k] != 0) == dropped
    if dropped:
        np.testing.assert_allclose(channel.q, [-params.g2 * np.sqrt(shot), params.g2 * np.sqrt(shot)], rtol=1e-15)
    assert np.array_equal(channel.depol, eps * np.array([MIXED_VARIANCE] * 3 + [0.0]))
    assert channel.jx_decay == 1 - eps


# ------------------------------------------------------ kernel vs per-pulse fold

def reference_fold(params, signs, state):
    """The per-pulse update, one pulse at a time: pulse_map, dropped terms, depolarization."""
    shot, g2, r = params.photons_per_pulse / 4.0, params.g2, 1.0 - params.scattering_eps
    depol = params.scattering_eps * params.atom_number * MIXED_VARIANCE
    mean, cov, jx = state.mean.copy(), state.cov.copy(), state.jx_mean
    means, meter_var = [], []
    for sign in signs:
        a, b = pulse_map(sign, params, jx)
        if params.include_dropped_terms:
            b[M, 1] = -sign * g2 * mean[JY]
        new = a @ cov @ a.T + shot * (b @ b.T)
        if params.include_dropped_terms:
            new[M, M] += g2 * g2 * shot * cov[JY, JY]
        cov = (new + new.T) / 2
        mean = a @ mean
        mean[:3] *= r
        cov[:3, :3] *= r * r
        cov[:3, M] *= r
        cov[M, :3] *= r
        cov[[JY, JZ, JXY], [JY, JZ, JXY]] += depol
        jx *= r
        means.append(mean.copy())
        meter_var.append(cov[M, M])
    return mean, cov, jx, np.array(means), np.array(meter_var)


@pytest.mark.parametrize("build,layout", [
    (lambda: state_from_atomic_moments([0.0, 0.0], np.eye(3), 1.0), ATOMIC),        # mean of the wrong length
    (lambda: state_from_atomic_moments([0.0, 0.0, 0.0], np.eye(4), 1.0), ATOMIC),   # covariance of the wrong shape
    (lambda: state_from_atomic_moments([0.0, 0.0, 0.0], np.eye(3)[:2], 1.0), ATOMIC),
    (lambda: GaussianState(mean=np.zeros(3), cov=np.eye(4), jx_mean=1.0), STATE),   # state of the wrong size
    (lambda: GaussianState(mean=np.zeros(4), cov=np.eye(5), jx_mean=1.0), STATE),
])
def test_state_refuses_moments_off_the_declared_layout(build, layout):
    with pytest.raises(ValueError, match=re.escape(str(layout))):
        build()


def assert_cov_close(cov, ref, rel=1e-12):
    # relative to the scale of each entry: sqrt(var_i var_j)
    scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))
    assert np.all(np.abs(cov - ref) <= rel * scale)


def tilted_state(na):
    cov = np.array([[na / 4, 0.1 * na, 0.02 * na], [0.1 * na, na / 3, na / 4], [0.02 * na, na / 4, na / 4]])
    return state_from_atomic_moments([0.03 * na, 0.05 * na, 0.04 * na], cov, 0.45 * na)


# naive(10), decoupled(5), decoupled(50), decoupled(1000) and an odd naive(37), each
# plain and with eps = 1e-3 plus the dropped terms; an id names a train by its order p
# (2p pulses).  The kernel's sqrt(n) chunks then run several and can end on a ragged
# one (37 = 4 x 8 + 5, 2000 = 43 x 46 + 22).
KERNEL_CASES = [
    pytest.param(mode, n, eps, dropped, id=f"{mode}-{name}-{eps}-{dropped}")
    for mode, n, name in [("naive", 10, "5"), ("decoupled", 10, "5"), ("decoupled", 100, "50"),
                          ("decoupled", 2000, "1000"), ("naive", 37, "37pulses")]
    for eps, dropped in [(0.0, False), (1e-3, True)]
]


@pytest.mark.parametrize("start", ["css", "tilted"])
@pytest.mark.parametrize("mode,n,eps,dropped", KERNEL_CASES)
def test_run_schedule_matches_per_pulse_fold(mode, n, eps, dropped, start):
    params, sched = paper_params(mode, p=n // 2, num_pulses=n if mode == "naive" else None,
                                 scattering_eps=eps, include_dropped_terms=dropped)
    assert len(sched) == n
    initial = None if start == "css" else tilted_state(params.atom_number)
    result = run_schedule(params, sched, initial=initial)
    mean, cov, jx, means, meter_var = reference_fold(
        params, sched.signs.tolist(), init_css(params) if initial is None else initial
    )
    assert_cov_close(result.final_state.cov, cov)
    np.testing.assert_allclose(result.pulse_meter_var, meter_var, rtol=1e-12, atol=0)
    np.testing.assert_allclose(result.pulse_means, means, rtol=1e-12, atol=1e-12 * np.abs(means).max())
    np.testing.assert_allclose(result.final_state.mean, mean, rtol=1e-12, atol=1e-12 * np.abs(means).max())
    assert result.final_state.jx_mean == pytest.approx(jx, rel=1e-12)
    if start == "tilted" and dropped:
        assert np.abs(means[:, JY]).max() > 0  # the mean loading is exercised


@pytest.mark.parametrize("mode,dropped", [("naive", False), ("decoupled", True)])
def test_sweep_matches_per_point_fold(mode, dropped):
    from qndprobe.experiment import sweep_atom_number
    params, sched = paper_params(mode, p=5, scattering_eps=1e-3, include_dropped_terms=dropped)
    grid = list(np.geomspace(1e4, 2e6, 6))
    sweep = sweep_atom_number(params, grid, sched)
    for na, var in zip(grid, sweep.normalized_meter_var):
        point = replace(params, atom_number=na)
        meter_var = reference_fold(point, sched.signs.tolist(), init_css(point))[1][M, M]
        nl_total = params.photons_per_pulse * len(sched)
        assert var == pytest.approx(4 * meter_var / nl_total, rel=1e-12)
    assert css_meter_variance(params, sched, grid)[0].shape == (6,)


@pytest.mark.parametrize("batch", [None, 12])
def test_every_pulse_checked_at_every_point(monkeypatch, batch):
    # batch 12 splits the train into blocks of 2 pulses (6 points each)
    import qndprobe.gaussian as gaussian
    params, sched = paper_params("decoupled", p=5, scattering_eps=1e-3, include_dropped_terms=True)
    grid = list(np.geomspace(1e4, 2e6, 6))
    whole_sweep = css_meter_variance(params, sched, grid)[0]
    whole_run = run_schedule(params, sched)
    checked = []
    real = gaussian._check_psd

    def spy(covs, *name):
        checked.append(covs.shape[:-2])
        return real(covs, *name)

    monkeypatch.setattr(gaussian, "_check_psd", spy)
    if batch is not None:
        monkeypatch.setattr(gaussian, "EVAL_BATCH", batch)
    assert np.array_equal(css_meter_variance(params, sched, grid)[0], whole_sweep)
    assert sum(n for n, _ in checked) == len(sched) and {k for _, k in checked} == {6}
    checked.clear()
    result = run_schedule(params, sched)
    assert sum(n for n, in checked) == len(sched)  # one (pulses,) stack per block
    assert np.array_equal(result.pulse_meter_var, whole_run.pulse_meter_var)
    assert np.array_equal(result.final_state.cov, whole_run.final_state.cov)

    def no_eigenvalues(*args, **kwargs):
        raise AssertionError("eigenvalues computed on the passing path")

    def no_cholesky(*args, **kwargs):
        raise AssertionError("Cholesky called on the passing path")

    # both check by one stack-wide elimination, with neither a LAPACK Cholesky
    # nor an eigenvalue on the passing path
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
    monkeypatch.setattr(np.linalg, "cholesky", no_cholesky)
    assert np.array_equal(run_schedule(params, sched).final_state.cov, whole_run.final_state.cov)
    assert np.array_equal(css_meter_variance(params, sched, grid)[0], whole_sweep)


@pytest.mark.parametrize("batch", [2, 8, 26, 1 << 20])
def test_results_do_not_depend_on_the_evaluation_block(monkeypatch, batch):
    # the 37-pulse train is scanned as 5 chunks of 8 pulses whatever EVAL_BATCH is;
    # blocks of 1, 2, 4, 5, 8, 13 and 26 pulses cut through them
    import qndprobe.gaussian as gaussian
    params, sched = paper_params("naive", num_pulses=37, scattering_eps=1e-3, include_dropped_terms=True)
    grid = [1e4, 2e6]
    initial = tilted_state(params.atom_number)
    whole_sweep = css_meter_variance(params, sched, grid)
    whole_run = run_schedule(params, sched, initial=initial)
    monkeypatch.setattr(gaussian, "EVAL_BATCH", batch)
    for got, want in zip(css_meter_variance(params, sched, grid), whole_sweep):
        assert np.array_equal(got, want)
    run = run_schedule(params, sched, initial=initial)
    for got, want in [(run.pulse_means, whole_run.pulse_means), (run.pulse_meter_var, whole_run.pulse_meter_var),
                      (run.final_state.cov, whole_run.final_state.cov)]:
        assert np.array_equal(got, want)
    assert run.final_state.jx_mean == whole_run.final_state.jx_mean


def test_run_schedule_raises_on_indefinite_covariance():
    params = make_params(g1=0.0, g2=0.0)
    cov = np.diag([1.0, 1.0, 1.0])
    cov[0, 1] = cov[1, 0] = 5.0  # eigenvalue -4
    initial = state_from_atomic_moments([0.0, 0.0, 0.0], cov, 10.0)
    with pytest.raises(ArithmeticError, match="positive semidefiniteness"):
        run_schedule(params, PulseSchedule.naive(2), initial=initial)


def test_batched_psd_check_covers_every_pulse_and_point():
    rng = np.random.default_rng(5)
    roots = rng.standard_normal((5, 3, 4, 4))
    stack = roots @ roots.swapaxes(-1, -2) + 0.1 * np.eye(4)
    assert np.all(np.linalg.eigvalsh(stack)[..., 0] > 0)
    _check_psd(stack)
    stack[2, 1] = np.diag([1.0, 2.0, 3.0, -1.0])
    with pytest.raises(ArithmeticError, match=r"semidefiniteness at index \(2, 1\)"):
        _check_psd(stack)
    stack[2, 1] = np.diag([np.nan, 1.0, 1.0, 1.0])  # eigvalsh would read [0, -0, 1, 1]
    with pytest.raises(ArithmeticError, match=r"non-finite covariance at index \(2, 1\)"):
        _check_psd(stack)
    # the first failing index is named, whichever way it fails
    stack[1, 0] = stack_with_min_eigenvalue(1.0, 2.0)[1, 0]
    with pytest.raises(ArithmeticError, match=r"semidefiniteness at index \(1, 0\)") as refusal:
        _check_psd(stack)
    assert refusal.value.index == (1, 0)


def stack_with_min_eigenvalue(scale, k, tol=1e-9, d=4, seed=17):
    """(3, 2, d, d) PSD stack, d <= 4, whose entry (1, 0) has smallest eigenvalue -k tol max(1, trace)."""
    rng = np.random.default_rng(seed)
    roots = rng.standard_normal((3, 2, d, d))
    stack = scale * (roots @ roots.swapaxes(-1, -2) + 0.1 * np.eye(d))
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    rest = scale * np.array([0.3, 1.0, 2.5][:d - 1])
    low = -k * tol * max(1.0, rest.sum() / (1.0 + k * tol))  # the trace includes low
    stack[1, 0] = q @ np.diag([low, *rest]) @ q.T
    return stack


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_cholesky_check_agrees_with_margins(scale, monkeypatch):
    inside = stack_with_min_eigenvalue(scale, 0.5)
    assert np.linalg.eigvalsh(inside)[1, 0, 0] < 0  # within tolerance, not PSD
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", None)  # the elimination alone passes it
        _check_psd(inside)
    outside = stack_with_min_eigenvalue(scale, 2.0)
    with pytest.raises(ArithmeticError, match=r"semidefiniteness at index \(1, 0\)"):
        _check_psd(outside)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e12])
@pytest.mark.parametrize("k", [0.5, 2.0])
def test_elimination_verdict_is_the_eigenvalue_verdict(d, scale, k, monkeypatch):
    for seed in range(4):
        stack = stack_with_min_eigenvalue(scale, k, d=d, seed=seed)
        low = np.linalg.eigvalsh((stack + stack.swapaxes(-1, -2)) / 2)[..., 0]
        floor = PSD_TOL * np.maximum(1.0, np.trace(stack, axis1=-2, axis2=-1))
        if np.all(low >= -floor):
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh", None)
                patch.setattr(np.linalg, "cholesky", None)
                _check_psd(stack)
        else:
            first = tuple(map(int, np.argwhere(low < -floor)[0]))
            assert first == (1, 0)
            message = f"semidefiniteness at index {first} (min eigenvalue {low[first]:.3e})"
            with pytest.raises(ArithmeticError, match=re.escape(message)):
                _check_psd(stack)
        assert (k < 1) == np.all(low >= -floor)


def test_singular_css_covariance_passes(monkeypatch):
    # the Jz and Jxy rows of a CSS covariance are equal, so it has an exact zero eigenvalue
    covs = np.array([init_css(make_params(atom_number=na)).cov for na in (1e-3, 1.0, 1e6, 1e12)])
    assert np.array_equal(covs[:, JZ], covs[:, JXY])
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    monkeypatch.setattr(np.linalg, "cholesky", None)
    _check_psd(covs)
    init_css(make_params(atom_number=1e12)).check_psd()


def test_asymmetric_covariance_judged_by_its_symmetric_part():
    spd = np.diag([1.0, 2.0, 3.0, 4.0])
    skew = np.zeros((4, 4))
    skew[0, 3], skew[3, 0] = 50.0, -50.0
    _check_psd((spd + skew)[None])  # sym = spd
    shear = np.eye(4)
    shear[0, 1] = 10.0  # every eigenvalue is 1, but sym has 1 - 5 = -4
    with pytest.raises(ArithmeticError, match=r"index \(1,\) \(min eigenvalue -4.000e\+00\)"):
        _check_psd(np.array([spd, shear]))


def test_cholesky_check_refuses_non_finite():
    stack = stack_with_min_eigenvalue(1.0, 0.5)
    stack[2, 1, 0, 3] = np.nan
    with pytest.raises(ArithmeticError, match=r"non-finite covariance at index \(2, 1\)"):
        _check_psd(stack)
    # the first failing index is named, whichever way it fails
    stack[1, 0] = stack_with_min_eigenvalue(1.0, 2.0)[1, 0]
    with pytest.raises(ArithmeticError, match=r"semidefiniteness at index \(1, 0\)") as refusal:
        _check_psd(stack)
    assert refusal.value.index == (1, 0)


def earliest_refusal(params, sched, grid):
    """(pulse, index into grid) of the first kernel covariance, in pulse order, that is non-finite or not PSD."""
    from qndprobe.gaussian import _covariances, _train
    coeffs = np.empty((len(sched), 3, len(STATE) ** 2))
    for pulses, block in _train(params, sched, init_css(replace(params, atom_number=1.0)), 1.0, len(sched))[2]:
        coeffs[pulses] = block
    for pulse in range(len(sched)):
        covs = _covariances(coeffs[pulse, None], grid)[0]
        finite = np.isfinite(covs).all(axis=(1, 2))
        sym = np.where(finite[:, None, None], covs, 0.0) / 2
        sym += sym.swapaxes(1, 2)
        low = np.linalg.eigvalsh(sym)[:, 0]
        bad = ~finite | (low < -PSD_TOL * np.maximum(1.0, np.trace(sym, axis1=1, axis2=2)))
        if bad.any():
            return pulse, int(np.argmax(bad))
    return None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("batch,points", [(16, 4), (400, 4), (EVAL_BATCH, 1000)],
                         ids=["16", "400", "1000-points"])
def test_refusal_names_the_failing_pulse_and_atom_number(monkeypatch, batch, points):
    # a naive train whose covariance overflows late; blocks of a few chunk
    # positions (of one, with 1000 points) list the pulses chunk-major, so a
    # block index is not a pulse, and a later block can hold an earlier pulse
    import qndprobe.gaussian as gaussian
    monkeypatch.setattr(gaussian, "EVAL_BATCH", batch)
    params, sched = paper_params("naive", num_pulses=2000, g1=1e-3, g2=1e71, nl_total=2e6, na=900.0)
    grid = np.linspace(900.0, 1100.0, points)
    expected = [earliest_refusal(params, sched, grid), earliest_refusal(params, sched, [900.0])]
    assert expected[0][0] == 158  # the earliest failing pulse, on any grid of this range
    refusals = []
    with pytest.raises(ArithmeticError) as sweep_refusal:
        css_meter_variance(params, sched, grid)
    found = re.search(r"at pulse (\d+), atom number \S+ \(index (\d+)\)", str(sweep_refusal.value))
    refusals.append((int(found[1]), int(found[2])))
    with pytest.raises(ArithmeticError) as run_refusal:
        run_schedule(params, sched)
    found = re.search(r"at pulse (\d+) \(atom number 900\)", str(run_refusal.value))
    refusals.append((int(found[1]), 0))
    assert refusals == expected
    for (pulse, _), na in zip(refusals, [grid[refusals[0][1]], 900.0]):
        # the named pulse fails on its own: the train cut just after it is refused
        with pytest.raises(ArithmeticError):
            run_schedule(replace(params, atom_number=na), PulseSchedule.naive(pulse + 1))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_overflowing_run_is_a_numerical_failure():
    params, sched = paper_params("decoupled", p=2, g1=1e200, g2=1e-3)
    with pytest.raises(ArithmeticError, match="non-finite"):
        run_schedule(params, sched)
