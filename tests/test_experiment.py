import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from qndprobe.experiment import (
    DEFAULT_NA_GRID,
    MC_SLICE,
    G1_REFERENCE,
    G2_IMPACT_REFERENCE,
    NL_REFERENCE,
    db_below_projection,
    dropped_terms_impact,
    monte_carlo_sample,
    paper_scale_params,
    projection_noise_line,
    quadratic_suppression_curve,
    sweep_atom_number,
)
from qndprobe.experiment import _dropped_slice, _moments, _monte_carlo_maps, _pooled_squares, _stream
from qndprobe.gaussian import (ATOMIC, DIM, MEMORY_CAP_BYTES, MIXED_VARIANCE, PulseSchedule, css_root, init_css,
                               pulse_map, run_schedule)


# ------------------------------------------------------------------ calibration

def test_impact_reference_is_the_calibrated_value():
    # 8 * Delta_HFS / (d0 * Gamma) at Delta_HFS/Gamma = 30 and d0 = 50, bit for bit
    assert G2_IMPACT_REFERENCE == 4.8


def test_decoupled_train_refuses_a_pulse_count():
    with pytest.raises(ValueError, match="num_pulses sets only a naive train's length"):
        paper_scale_params(mode="decoupled", p=5, num_pulses=7)
    assert len(paper_scale_params(mode="naive", p=5, num_pulses=7)[1]) == 7
    assert len(paper_scale_params(mode="decoupled", p=5)[1]) == 10


# ------------------------------------------------------------ projection line

def test_projection_line_paper_point():
    value = projection_noise_line(G1_REFERENCE, NL_REFERENCE, 1.0e6)
    assert value == pytest.approx(1.0 + G1_REFERENCE ** 2 * NL_REFERENCE * 2.5e5, rel=1e-15)
    assert value == pytest.approx(4.2258, abs=1e-4)


def test_projection_line_edge_cases():
    assert projection_noise_line(G1_REFERENCE, NL_REFERENCE, 0.0) == 1.0
    one = projection_noise_line(G1_REFERENCE, NL_REFERENCE, 5e5) - 1.0
    two = projection_noise_line(G1_REFERENCE, NL_REFERENCE, 1e6) - 1.0
    assert two == pytest.approx(2 * one, rel=1e-12)


# -------------------------------------------------------------- decibel metric

def test_db_below_projection_values():
    assert db_below_projection(G1_REFERENCE, NL_REFERENCE, 1.0e6) == pytest.approx(5.0864, abs=1e-3)
    assert db_below_projection(G1_REFERENCE, NL_REFERENCE, 1.15e6) == pytest.approx(5.7, abs=0.1)
    # unit excess: g1^2 NL var(Jz) = 1 -> 0 dB
    assert db_below_projection(1.0, 1.0, 4.0) == pytest.approx(0.0, abs=1e-12)


def test_db_monotone_in_na_and_nl():
    vals_na = [db_below_projection(G1_REFERENCE, NL_REFERENCE, na) for na in (1e5, 5e5, 1e6, 2e6)]
    assert all(b > a for a, b in zip(vals_na, vals_na[1:]))
    vals_nl = [db_below_projection(G1_REFERENCE, nl, 1e6) for nl in (1e8, 4e8, 8e8, 2e9)]
    assert all(b > a for a, b in zip(vals_nl, vals_nl[1:]))


def test_db_rejects_nonpositive_excess():
    with pytest.raises(ValueError):
        db_below_projection(G1_REFERENCE, NL_REFERENCE, 0.0)


# ----------------------------------------------------------------------- sweeps

def test_sweep_matches_projection_line_when_g2_zero():
    params, sched = paper_scale_params(mode="decoupled", p=5, g2=0.0)
    sweep = sweep_atom_number(params, list(DEFAULT_NA_GRID), sched)
    for na, var in zip(sweep.na, sweep.normalized_meter_var):
        line = projection_noise_line(params.g1, params.photons_per_pulse * len(sched), na)
        assert var == pytest.approx(line, rel=1e-9)


def test_naive_noisier_than_decoupled_at_paper_scale():
    params_n, sched_n = paper_scale_params(mode="naive", p=5, na=1e6)
    params_d, sched_d = paper_scale_params(mode="decoupled", p=5, na=1e6)
    naive = sweep_atom_number(params_n, [1e6], sched_n).normalized_meter_var[0]
    dec = sweep_atom_number(params_d, [1e6], sched_d).normalized_meter_var[0]
    assert naive > dec


def test_sweep_single_row_and_validation():
    params, sched = paper_scale_params(mode="decoupled", p=2)
    sweep = sweep_atom_number(params, [1e5], sched)
    assert len(sweep) == 1 and sweep.na[0] == 1e5 and sweep.normalized_meter_var.shape == (1,)
    with pytest.raises(ValueError):
        sweep_atom_number(params, [], sched)
    with pytest.raises(ValueError):
        sweep_atom_number(params, [2e5, 1e5], sched)


# ------------------------------------------------------------ exact coefficients

def lstsq_coefficients(sweep):
    """Unweighted least-squares c0, c1, c2 of a sweep's rows, as a reader re-fitting its CSV gets them.

    The atom numbers are scaled to at most 1, so that the wide range of NA
    does not degrade the solve.
    """
    scale = sweep.na.max()
    x = sweep.na / scale
    design = np.column_stack([np.ones_like(x), x, x * x])
    coef = np.linalg.lstsq(design, sweep.normalized_meter_var, rcond=None)[0]
    return coef / scale ** np.arange(3)


def test_fit_of_ideal_decoupled_sweep_is_linear():
    params, sched = paper_scale_params(mode="decoupled", p=5, g2=0.0)
    sweep = sweep_atom_number(params, list(DEFAULT_NA_GRID), sched)
    na_max = max(DEFAULT_NA_GRID)
    assert abs(sweep.c2) * na_max ** 2 < 1e-6 * sweep.c1 * na_max


# naive(10), decoupled(5) and decoupled(1000), each plain and at eps = 1e-6 with the
# dropped terms, then the two sweeps whose quadratic vanishes: g2 = 0 and decoupled(1)
EXACT_CASES = [
    (mode, p, None, eps, dropped)
    for mode, p in [("naive", 5), ("decoupled", 5), ("decoupled", 1000)]
    for eps, dropped in [(0.0, False), (1e-6, True)]
] + [("decoupled", 5, 0.0, 0.0, False), ("decoupled", 1, None, 0.0, False)]


@pytest.mark.parametrize("mode,p,g2,eps,dropped", EXACT_CASES)
def test_sweep_coefficients_match_the_fit(mode, p, g2, eps, dropped):
    params, sched = paper_scale_params(mode=mode, p=p, g2=g2, scattering_eps=eps, include_dropped_terms=dropped)
    sweep = sweep_atom_number(params, list(DEFAULT_NA_GRID), sched)
    fit = lstsq_coefficients(sweep)
    vanishes = g2 == 0.0 or sched.num_pulses == 2
    assert (sweep.c2 == 0.0) == vanishes
    pairs = [(sweep.c0, fit[0]), (sweep.c1, fit[1])] + ([] if vanishes else [(sweep.c2, fit[2])])
    for exact, fitted in pairs:
        assert exact != 0.0 and abs(exact - fitted) <= 1e-10 * abs(exact)


def test_naive_fit_has_positive_quadratic_component():
    params, sched = paper_scale_params(mode="naive", p=5)
    sweep = sweep_atom_number(params, list(DEFAULT_NA_GRID), sched)
    assert sweep.c2 > 0
    assert sweep.c2 * max(DEFAULT_NA_GRID) ** 2 > 100  # far above fit noise


# ------------------------------------------------------------------ suppression

def test_suppression_curve_decreasing_beyond_single_pair():
    params, _ = paper_scale_params(mode="decoupled", p=2)
    pts = quadratic_suppression_curve(params, NL_REFERENCE, [2, 4, 8, 16])
    c2s = [pt.c2 for pt in pts]
    assert all(b < a for a, b in zip(c2s, c2s[1:]))


def test_suppression_curve_approaches_ideal_at_large_p():
    params, _ = paper_scale_params(mode="decoupled", p=2)
    c2_small = quadratic_suppression_curve(params, NL_REFERENCE, [2])[0].c2
    c2_large = quadratic_suppression_curve(params, NL_REFERENCE, [64])[0].c2
    assert c2_large < c2_small / 100


def test_suppression_curve_zero_when_g2_zero():
    params, _ = paper_scale_params(mode="decoupled", p=2, g2=0.0)
    for pt in quadratic_suppression_curve(params, NL_REFERENCE, [1, 2, 5]):
        assert abs(pt.c2) * max(DEFAULT_NA_GRID) ** 2 < 1e-6


def test_suppression_requires_ascending_p():
    params, _ = paper_scale_params(mode="decoupled", p=2)
    with pytest.raises(ValueError):
        quadratic_suppression_curve(params, NL_REFERENCE, [5, 2])


# ---------------------------------------------------------------- dropped terms

def test_dropped_terms_zero_impact_without_g2():
    params, sched = paper_scale_params(mode="decoupled", p=5, g2=0.0)
    assert dropped_terms_impact(params, sched) == 0.0


def test_dropped_terms_impact_quadruples_with_doubled_g2():
    # small couplings so the baseline var(Jz) stays essentially fixed
    params, sched = paper_scale_params(mode="decoupled", p=5, g2=1e-10)
    small = dropped_terms_impact(params, sched)
    big = dropped_terms_impact(replace(params, g2=2e-10), sched)
    assert big / small == pytest.approx(4.0, rel=0.01)


def test_dropped_terms_below_two_percent_at_paper_scale():
    params, sched = paper_scale_params(mode="decoupled", p=5, na=1e6)
    assert 0.0 < dropped_terms_impact(params, sched) < 0.02


# ------------------------------------------------------------------ Monte Carlo

# eps > 0 with the dropped terms off is the path whose Sz_in and Jy depolarization
# draws the Monte Carlo merges into one
@pytest.mark.parametrize("eps", [0.0, 1e-4, 0.2])
def test_monte_carlo_matches_analytic_within_three_stderr(eps):
    params, sched = paper_scale_params(mode="decoupled", p=5, g2=0.0, na=1e6, scattering_eps=eps)
    analytic = run_schedule(params, sched).meter_var
    mc = monte_carlo_sample(params, sched, trials=100_000, seed=2024)
    assert mc.analytic_meter_variance == analytic
    assert abs(mc.meter_variance - analytic) <= 3 * mc.stderr


# at eps = 1e-3 depolarization moves var(M) by less than the 3-stderr resolution;
# eps = 0.2 moves it by about 50 stderr, so a sampling error there shows
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.2])
def test_monte_carlo_with_tensor_terms_and_dropped_terms(eps):
    params, sched = paper_scale_params(mode="naive", p=5, na=3e5, include_dropped_terms=True,
                                       scattering_eps=eps)
    analytic = run_schedule(params, sched).meter_var
    mc = monte_carlo_sample(params, sched, trials=100_000, seed=99)
    assert mc.analytic_meter_variance == analytic
    assert abs(mc.meter_variance - analytic) <= 3 * mc.stderr


@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.2])
def test_monte_carlo_keeps_the_kernel_noise(eps, dropped, monkeypatch):
    params, sched = paper_scale_params(mode="decoupled", p=2, na=3e5, scattering_eps=eps,
                                       include_dropped_terms=dropped)
    if not dropped:  # the meter alone, drawn from the kernel's final var(M)
        draws = normal_counter(monkeypatch)
        mc = monte_carlo_sample(params, sched, trials=1_000, seed=5)
        sample = np.concatenate(draws) * np.sqrt(run_schedule(params, sched).meter_var)
        assert mc.meter_variance == pytest.approx(np.var(sample, ddof=1), rel=1e-14, abs=0)
        return
    css = init_css(params).cov
    jx = params.atom_number / 2
    start, qs, ws = _monte_carlo_maps(params, sched)
    shot = params.photons_per_pulse / 4
    d = np.array([1 - eps, 1 - eps, 1 - eps, 1.0])
    depol = np.diag([eps * params.atom_number * MIXED_VARIANCE] * 3 + [0.0])
    signs = sched.signs.tolist()
    pulses = []  # (d a, noise) of each pulse
    for k, sign in enumerate(signs):
        a, b = pulse_map(sign, params, jx * (1 - eps) ** k)
        pulses.append((d[:, None] * a, shot * (d[:, None] * b) @ (d[:, None] * b).T + depol))
    assert len(qs) == len(ws) == len(signs)
    root = start[:, 4:]
    assert not start[:, :4].any()  # the first step draws the CSS start
    assert np.abs(root @ root.T - css).max() <= 1e-12 * np.abs(css).max()
    for k, (sign, q_k, w, (da, noise)) in enumerate(zip(signs, qs, ws, pulses)):
        b = pulse_map(sign, params, jx * (1 - eps) ** k)[1]
        root = w[:, 4:]
        sampled = root @ root.T
        assert q_k == -sign * params.g2 * np.sqrt(shot)
        assert np.array_equal(w[:, :4], da)
        assert np.abs(sampled - noise).max() <= 1e-12 * np.abs(noise).max()
        # Sy_in and Sz_in are the first two draws, as the meter product needs
        np.testing.assert_allclose(root[:, :2], np.sqrt(shot) * d[:, None] * b, rtol=1e-14, atol=0)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_monte_carlo_noise_roots_are_exact(eps):
    # the CSS start is sqrt(NA) css_root, and the depolarization draws are
    # sqrt(NA depol) on each ATOMIC row in STATE order, with no columns at eps = 0
    params, sched = paper_scale_params(mode="decoupled", p=1, na=3e5, scattering_eps=eps,
                                       include_dropped_terms=True)
    start, _, pulses = _monte_carlo_maps(params, sched)
    assert np.array_equal(start[:, DIM:], np.sqrt(params.atom_number) * css_root())
    depol = np.zeros((DIM, len(ATOMIC) if eps else 0))
    depol[range(depol.shape[1]), range(depol.shape[1])] = np.sqrt(eps * params.atom_number * MIXED_VARIANCE)
    for w in pulses:
        assert np.array_equal(w[:, DIM + 2:], depol)


def test_pooled_squares_match_the_variance_of_the_concatenated_slices():
    rng = np.random.default_rng(4)
    slices = [rng.normal(mean, 3.0, size) for mean, size in ((1e6, 5), (-2.0, 8192), (7.5, 1), (1e3, 300))]
    pooled = _pooled_squares(_moments(s.copy()) for s in slices) / (sum(map(len, slices)) - 1)
    assert pooled == pytest.approx(np.var(np.concatenate(slices), ddof=1), rel=1e-12, abs=0)


def normal_counter(monkeypatch):
    """The list that records a copy of every standard-normal draw of the np.random.Generators made from now on."""
    counted = []
    generator = np.random.Generator

    class CountingGenerator:
        def __init__(self, bit_generator):
            self._rng = generator(bit_generator)

        def standard_normal(self, size=None, out=None):
            draw = self._rng.standard_normal(size, out=out)
            counted.append(draw.copy())
            return draw

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    return counted


def count_normals(monkeypatch, params, sched, trials):
    """The number of standard normals monte_carlo_sample draws for a fixed seed."""
    counted = normal_counter(monkeypatch)
    monte_carlo_sample(params, sched, trials=trials, seed=5)
    return sum(draw.size for draw in counted)


def test_monte_carlo_refuses_a_train_before_sampling(monkeypatch):
    # the kernel refuses the overflowing train, so no normal is drawn
    params, sched = paper_scale_params(mode="naive", num_pulses=2000, g2=1e71)
    counted = normal_counter(monkeypatch)
    with pytest.raises(ArithmeticError, match="non-finite covariance at pulse 1 "):
        monte_carlo_sample(params, sched, trials=1_000, seed=5)
    assert counted == []


def test_monte_carlo_draws_only_the_independent_noise(monkeypatch):
    # bench configuration: of the final state, only the meter is drawn
    params, sched = paper_scale_params(mode="decoupled", p=5, scattering_eps=1e-4)
    assert count_normals(monkeypatch, params, sched, 1_000) == 1 * 1_000


def test_monte_carlo_draws_the_same_normals_for_any_train_length(monkeypatch):
    # 2000 pulses, which once drew 2 + 4 + 4 normals per trial, one step per 1024 pulses
    params, sched = paper_scale_params(mode="decoupled", p=1000, scattering_eps=1e-6)
    assert count_normals(monkeypatch, params, sched, 1_000) == 1 * 1_000


# 10 pulses in 3 slices, and 2000 in 2 (fewer trials: every pulse is a step)
@pytest.mark.parametrize("p,eps,trials", [(5, 0.2, 20_000), (1000, 1e-6, 10_000)])
def test_dropped_monte_carlo_builds_its_steps_once(p, eps, trials, monkeypatch):
    # every slice reads the one read-only set of steps and samples as if it had built its own
    import qndprobe.experiment as experiment
    params, sched = paper_scale_params(mode="decoupled", p=p, scattering_eps=eps, include_dropped_terms=True)
    builds = []

    def counted(*args):
        builds.append(_monte_carlo_maps(*args))
        return builds[-1]

    monkeypatch.setattr(experiment, "_monte_carlo_maps", counted)
    mc = monte_carlo_sample(params, sched, trials=trials, seed=2024)
    assert len(builds) == 1
    assert not any(a.flags.writeable for a in builds[0])
    sizes = [min(MC_SLICE, trials - i) for i in range(0, trials, MC_SLICE)]
    own = [_dropped_slice(_monte_carlo_maps(params, sched), _stream(2024, i), n) for i, n in enumerate(sizes)]
    assert mc.meter_variance == _pooled_squares(own) / (trials - 1)


def test_dropped_monte_carlo_steps_are_refused_above_the_cap():
    # the steps (q and a DIM x (DIM + 2 + len(ATOMIC)) map per pulse) live next to the train's
    # arrays, so a train of as many pulses as the steps alone would fill the cap is refused
    params, _ = paper_scale_params(include_dropped_terms=True, scattering_eps=1e-3)
    sched = PulseSchedule.naive(MEMORY_CAP_BYTES // (8 * (1 + DIM * (DIM + 2 + len(ATOMIC)))))
    with pytest.raises(ValueError, match=f"Monte Carlo steps of {len(sched)} pulses need about"):
        _monte_carlo_maps(params, sched)


@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("trials", [2, MC_SLICE + 1, 2 * MC_SLICE + 1])  # 1, 2 and 3 slices
def test_monte_carlo_is_identical_on_any_number_of_cpus(trials, dropped, monkeypatch):
    import qndprobe.experiment as experiment
    params, sched = paper_scale_params(mode="decoupled", p=2, na=1e5, scattering_eps=1e-3,
                                       include_dropped_terms=dropped)
    workers = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", RecordingPool)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
        results.append(monte_carlo_sample(params, sched, trials=trials, seed=17))
    # without the affinity call (not Linux) the CPU count decides, and an unknown count means one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count in (3, None):
        monkeypatch.setattr(os, "cpu_count", lambda n=count: n)
        results.append(monte_carlo_sample(params, sched, trials=trials, seed=17))
    slices = -(-trials // MC_SLICE)
    # the meter alone is drawn in the calling thread, without a pool
    assert workers == ([min(cpus, slices) for cpus in (1, 2, 3, 3, 1)] if dropped else [])
    values = [(mc.meter_variance, mc.stderr) for mc in results]
    assert all(np.array_equal(v, values[0]) for v in values)


def test_monte_carlo_gives_every_slice_its_own_stream(monkeypatch):
    # slices sharing one seed would repeat each other's samples: the variance
    # would look right, but the stderr would be too small by sqrt(slices)
    params, sched = paper_scale_params(mode="decoupled", p=5, scattering_eps=1e-4)
    generator = np.random.Generator
    created = []

    class RecordingGenerator:
        def __init__(self, bit_generator):
            self._rng = generator(bit_generator)
            self.draws = []
            created.append(self)

        def standard_normal(self, size=None, out=None):
            draw = self._rng.standard_normal(size, out=out)
            self.draws.append(draw.copy())
            return draw

    monkeypatch.setattr(np.random, "Generator", RecordingGenerator)
    monte_carlo_sample(params, sched, trials=3 * MC_SLICE, seed=5)
    assert len(created) == 3
    starts = [rng.draws[0] for rng in created]  # each slice's first row of normals
    assert all(s.shape == starts[0].shape for s in starts)
    for i in range(3):
        for j in range(i):
            assert not np.isin(starts[i], starts[j]).any()
    assert sum(d.size for rng in created for d in rng.draws) == 1 * 3 * MC_SLICE


def test_monte_carlo_deterministic_for_fixed_seed():
    params, sched = paper_scale_params(mode="decoupled", p=2, na=1e5)
    a = monte_carlo_sample(params, sched, trials=5_000, seed=7)
    b = monte_carlo_sample(params, sched, trials=5_000, seed=7)
    assert a.meter_variance == b.meter_variance
    c = monte_carlo_sample(params, sched, trials=5_000, seed=8)
    assert c.meter_variance != a.meter_variance


def test_monte_carlo_minimal_trials():
    params, sched = paper_scale_params(mode="decoupled", p=1, na=1e4)
    mc = monte_carlo_sample(params, sched, trials=2, seed=1)
    assert math.isfinite(mc.meter_variance) and math.isfinite(mc.stderr)
    with pytest.raises(ValueError):
        monte_carlo_sample(params, sched, trials=1, seed=1)


def test_linear_monte_carlo_memory_does_not_grow_with_trials():
    # one reused slice of meters and running totals: 16 B per trial at the parent design
    params, sched = paper_scale_params(mode="decoupled", p=5)
    monte_carlo_sample(params, sched, trials=2, seed=3)  # the kernel's one-time set-up
    peaks = []
    for trials in (10 ** 5, 10 ** 6):
        tracemalloc.start()
        try:
            monte_carlo_sample(params, sched, trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * 8 * MC_SLICE, peaks  # the 64 KiB buffer and the small arrays of one run


def test_dropped_monte_carlo_memory_does_not_grow_with_trials(monkeypatch):
    # at most one slice per worker runs, each holding its state, its draws
    # and its step result, 2 DIM + 2 + len(ATOMIC) rows of MC_SLICE; the run holds
    # one shared set of steps and, for the kernel's run and the pool, one more row
    cpus = 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    params, sched = paper_scale_params(mode="decoupled", p=5, scattering_eps=1e-3, include_dropped_terms=True)
    monte_carlo_sample(params, sched, trials=2, seed=3)  # the kernel's one-time set-up
    peaks = []
    for trials in (10 ** 5, 10 ** 6):
        tracemalloc.start()
        try:
            monte_carlo_sample(params, sched, trials=trials, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows = 2 * DIM + 2 + len(ATOMIC)
    steps = len(sched) * (1 + DIM * (DIM + 2 + len(ATOMIC)))
    assert max(peaks) < cpus * 8 * rows * MC_SLICE + 8 * (steps + MC_SLICE), peaks


def test_slice_streams_are_the_seed_sequence_children():
    # SeedSequence(seed, spawn_key=(i,)) is the i-th child of SeedSequence(seed).spawn(n)
    children = np.random.SeedSequence(2024).spawn(5)
    for i, child in enumerate(children):
        spawned = np.random.Generator(np.random.SFC64(child)).standard_normal(16)
        assert np.array_equal(_stream(2024, i).standard_normal(16), spawned)


def test_monte_carlo_stderr_scales_as_inverse_sqrt_trials():
    params, sched = paper_scale_params(mode="decoupled", p=2, na=1e5, g2=0.0)
    e1 = monte_carlo_sample(params, sched, trials=10_000, seed=3).stderr
    e2 = monte_carlo_sample(params, sched, trials=40_000, seed=3).stderr
    assert e1 / e2 == pytest.approx(2.0, rel=0.15)
