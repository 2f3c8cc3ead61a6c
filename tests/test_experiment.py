import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qndprobe.experiment import (
    DEFAULT_NA_GRID,
    MC_BYTES_PER_TRIAL,
    MC_MEMORY_CAP_BYTES,
    G1_REFERENCE,
    NL_REFERENCE,
    PhysicalParams,
    couplings_from_physics,
    db_below_projection,
    dropped_terms_impact,
    fit_linear_quadratic,
    monte_carlo_sample,
    paper_scale_params,
    projection_noise_line,
    quadratic_suppression_curve,
    sweep_atom_number,
)
from qndprobe.experiment import _monte_carlo_maps, _roots
from qndprobe.gaussian import M, pulse_map, run_schedule, single_atom_mixed_variances


# --------------------------------------------------------- physical couplings

def rb_physics(delta_scale=1.0):
    gamma = 2 * math.pi * 6.07e6
    return PhysicalParams(
        sigma0=2.9e-13, gamma=gamma, area_a=5.8e-9,
        delta=delta_scale * 2 * math.pi * 400e6,
        delta_hfs=30 * gamma, na=1.0e6,
    )


def test_impact_ratio_example():
    # Delta_HFS/Gamma = 30 and d0 = 50 give the impact parameter 4.8
    phys = PhysicalParams(sigma0=1.0, gamma=1.0, area_a=1.0, delta=7.0,
                          delta_hfs=30.0, na=50.0)
    est = couplings_from_physics(phys)
    assert est.d0 == pytest.approx(50.0)
    assert est.g2_impact == pytest.approx(4.8)


def test_detuning_scaling():
    base = couplings_from_physics(rb_physics(1.0))
    far = couplings_from_physics(rb_physics(2.0))
    assert far.g1 == pytest.approx(base.g1 / 2, rel=1e-12)
    assert far.g2 == pytest.approx(base.g2 / 4, rel=1e-12)
    assert far.g2_impact == pytest.approx(base.g2_impact, rel=1e-12)


def test_physics_validation():
    with pytest.raises(ValueError):
        PhysicalParams(sigma0=0.0, gamma=1.0, area_a=1.0, delta=1.0, delta_hfs=1.0, na=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(sigma0=1.0, gamma=1.0, area_a=1.0, delta=0.0, delta_hfs=1.0, na=1.0)


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


# ------------------------------------------------------------------------- fit

def test_fit_recovers_exact_quadratic():
    na = np.geomspace(1e4, 2e6, 12)
    c0, c1, c2 = 0.7, 3.1e-6, 4.2e-13
    fit = fit_linear_quadratic((na, c0 + c1 * na + c2 * na ** 2))
    assert fit.c0 == pytest.approx(c0, rel=1e-9)
    assert fit.c1 == pytest.approx(c1, rel=1e-9)
    assert fit.c2 == pytest.approx(c2, rel=1e-9)
    assert fit.residual_rms < 1e-9


def test_fit_of_ideal_decoupled_sweep_is_linear():
    params, sched = paper_scale_params(mode="decoupled", p=5, g2=0.0)
    fit = fit_linear_quadratic(sweep_atom_number(params, list(DEFAULT_NA_GRID), sched))
    na_max = max(DEFAULT_NA_GRID)
    assert abs(fit.c2) * na_max ** 2 < 1e-6 * fit.c1 * na_max


def test_fit_validation():
    na = np.array([1e4, 1e5, 1e6])
    with pytest.raises(ValueError):
        fit_linear_quadratic((na, np.ones(3)))
    same = np.full(5, 2e5)
    with pytest.raises(ValueError):
        fit_linear_quadratic((same, np.ones(5)))


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
    fit = fit_linear_quadratic(sweep)
    vanishes = g2 == 0.0 or sched.num_pulses == 2
    assert (sweep.c2 == 0.0) == vanishes
    pairs = [(sweep.c0, fit.c0), (sweep.c1, fit.c1)] + ([] if vanishes else [(sweep.c2, fit.c2)])
    for exact, fitted in pairs:
        assert exact != 0.0 and abs(exact - fitted) <= 1e-10 * abs(exact)


def test_naive_fit_has_positive_quadratic_component():
    params, sched = paper_scale_params(mode="naive", p=5)
    fit = fit_linear_quadratic(sweep_atom_number(params, list(DEFAULT_NA_GRID), sched))
    assert fit.c2 > 0
    assert fit.c2 * max(DEFAULT_NA_GRID) ** 2 > 100  # far above fit noise


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
    assert abs(mc.meter_variance - analytic) <= 3 * mc.stderr


# at eps = 1e-3 depolarization moves var(M) by less than the 3-stderr resolution;
# eps = 0.2 moves it by about 50 stderr, so a sampling error there shows
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.2])
def test_monte_carlo_with_tensor_terms_and_dropped_terms(eps):
    params, sched = paper_scale_params(mode="naive", p=5, na=3e5, include_dropped_terms=True,
                                       scattering_eps=eps)
    analytic = run_schedule(params, sched).meter_var
    mc = monte_carlo_sample(params, sched, trials=100_000, seed=99)
    assert abs(mc.meter_variance - analytic) <= 3 * mc.stderr


@pytest.mark.parametrize("dropped", [False, True])
@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.2])
def test_monte_carlo_keeps_the_kernel_noise(eps, dropped, monkeypatch):
    import qndprobe.experiment as experiment
    monkeypatch.setattr(experiment, "MC_BLOCK", 3)  # blocks of 3 and 1 pulses
    params, sched = paper_scale_params(mode="decoupled", p=2, na=3e5, scattering_eps=eps,
                                       include_dropped_terms=dropped)
    jx = params.atom_number / 2
    maps = list(_monte_carlo_maps(params, sched, jx))
    shot = params.photons_per_pulse / 4
    d = np.array([1 - eps, 1 - eps, 1 - eps, 1.0])
    depol = np.diag([*(eps * params.atom_number * np.array(single_atom_mixed_variances(1.0))), 0.0])
    assert len(maps) == len(sched)
    for k, (sign, (w, left_over)) in enumerate(zip(sched.signs.tolist(), maps)):
        a, b = pulse_map(sign, params, jx * (1 - eps) ** k)
        noise = shot * (d[:, None] * b) @ (d[:, None] * b).T + depol
        root = w[:, 4:]
        sampled = root @ root.T
        sampled[M, M] += left_over  # the summed Sy_in draw's share
        assert np.array_equal(w[:, :4], d[:, None] * a)
        assert np.abs(sampled - noise).max() <= 1e-12 * np.abs(noise).max()
        if dropped:  # Sy_in and Sz_in are the first two draws, as the meter product needs
            np.testing.assert_allclose(root[:, :2], np.sqrt(shot) * d[:, None] * b, rtol=1e-14, atol=0)


def test_roots_pad_lower_ranks_with_zero_columns():
    covs = np.zeros((2, 3, 3))
    covs[0, 0, 0] = 2.0
    covs[1, 1:, 1:] = [[1.0, 0.5], [0.5, 1.0]]
    roots = _roots(covs)
    assert roots.shape == (2, 3, 2)
    assert np.allclose(roots @ roots.swapaxes(1, 2), covs, rtol=0, atol=1e-15)
    assert _roots(np.zeros((3, 3))).shape == (3, 0)


def test_monte_carlo_draws_only_the_independent_noise(monkeypatch):
    # bench configuration: rank-2 CSS start, per pulse Sz_in merged with the
    # Jy depolarization plus Jz and Jxy depolarization, one summed Sy_in draw
    params, sched = paper_scale_params(mode="decoupled", p=5, scattering_eps=1e-4)
    counted = []

    class CountingGenerator:
        def __init__(self, seed):
            self._rng = np.random.Generator(np.random.PCG64(seed))

        def standard_normal(self, size=None, out=None):
            draw = self._rng.standard_normal(size, out=out)
            counted.append(draw.size)
            return draw

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    monte_carlo_sample(params, sched, trials=1_000, seed=5)
    assert sum(counted) == (2 + 3 * len(sched) + 1) * 1_000 == 33 * 1_000


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


def test_monte_carlo_memory_cap_refuses_before_allocating():
    params, sched = paper_scale_params(mode="decoupled", p=1, na=1e4, scattering_eps=1e-3)
    assert 10 ** 7 * MC_BYTES_PER_TRIAL <= MC_MEMORY_CAP_BYTES < 10 ** 8 * MC_BYTES_PER_TRIAL
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="Monte Carlo cap"):
            monte_carlo_sample(params, sched, trials=10 ** 9, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_monte_carlo_stderr_scales_as_inverse_sqrt_trials():
    params, sched = paper_scale_params(mode="decoupled", p=2, na=1e5, g2=0.0)
    e1 = monte_carlo_sample(params, sched, trials=10_000, seed=3).stderr
    e2 = monte_carlo_sample(params, sched, trials=40_000, seed=3).stderr
    assert e1 / e2 == pytest.approx(2.0, rel=0.15)
