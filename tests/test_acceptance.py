"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines. The case-study configuration is the library default (10000
vehicles, 60 kW charging, 5445 kWh / 545 kW storage, peak-valley tariff),
with feature models fitted from the bundled synthetic survey fixture.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import kstest

from chargecast.cli import write_load_curve_csv
from chargecast.forecast import (
    FleetConfig,
    LoadProfile,
    charge_duration_hours,
    needs_charge,
    run_forecast,
    soc_after_trip,
    station_composite,
)
from chargecast.kde import fit_kde
from chargecast.scheduler import (
    DEFAULT_TARIFF,
    EssParams,
    multi_day_schedule,
    verify_plan,
)
from chargecast.survey import SiteClass
from test_kde import cdf, integral_over_support
from test_scheduler import (
    baseline_cost,
    brute_force_schedule,
    hourly_tariff,
    profile,
    random_instance,
    solve_schedule,
)

PEAK_WINDOW_H = (1020, 1200)   # 17:00..20:00 slot starts, inclusive
PEAK_WINDOW_W = (420, 600)     # 07:00..10:00


@pytest.fixture(scope="module")
def case_study(fixture_models):
    """One full-size default run, shared by several criteria."""
    config = FleetConfig()
    start = time.perf_counter()
    result = run_forecast(config, fixture_models)
    elapsed = time.perf_counter() - start
    return config, result, elapsed


def test_criterion_1_case_study_saving(case_study):
    """3-day schedule on the default case study saves 15..35% of baseline."""
    start = time.perf_counter()
    _, result, forecast_seconds = case_study
    plan = multi_day_schedule([result.bundle.station] * 3, DEFAULT_TARIFF, EssParams())
    total_seconds = forecast_seconds + (time.perf_counter() - start)

    assert 0.15 <= plan.saving_fraction <= 0.35, (
        f"saving {plan.saving_fraction:.2%} outside [15%, 35%] "
        f"(baseline {plan.cost_baseline:.0f}, with ESS {plan.cost_with_ess:.0f})"
    )
    assert total_seconds < 120.0
    print(
        f"ACCEPTANCE 1 PASS: 3-day saving {plan.saving_fraction:.2%} in [15%, 35%] "
        f"({plan.cost_baseline:.0f} -> {plan.cost_with_ess:.0f}, {total_seconds:.1f}s)"
    )


def test_criterion_2_peak_windows(fixture_models):
    """H-site peak near 18:00 and W-site peak near 08:00 over 20 seeds."""
    hits_h = hits_w = 0
    seeds = range(1, 21)
    for seed in seeds:
        bundle = run_forecast(FleetConfig(seed=seed), fixture_models).bundle
        argmax_h = int(bundle.site_profiles[SiteClass.H.index].power_kw.argmax()) * 15
        argmax_w = int(bundle.site_profiles[SiteClass.W.index].power_kw.argmax()) * 15
        hits_h += PEAK_WINDOW_H[0] <= argmax_h <= PEAK_WINDOW_H[1]
        hits_w += PEAK_WINDOW_W[0] <= argmax_w <= PEAK_WINDOW_W[1]

    needed = math.ceil(0.95 * len(seeds))
    assert hits_h >= needed, f"H-site argmax in [17:00, 20:00] only {hits_h}/20"
    assert hits_w >= needed, f"W-site argmax in [07:00, 10:00] only {hits_w}/20"
    print(
        f"ACCEPTANCE 2 PASS: argmax windows hit H {hits_h}/20, W {hits_w}/20 "
        f"(>= {needed} required)"
    )


def test_criterion_3_lp_vs_oracle():
    """200 random small instances: LP <= enumeration + 1e-6, feasible at 1e-9."""
    rng = np.random.default_rng(30338)
    worst_gap = -math.inf
    for _ in range(200):
        p_ev, tariff, ess, levels = random_instance(rng)
        lp = solve_schedule(p_ev, tariff, ess)
        oracle = brute_force_schedule(p_ev, tariff, ess, levels)
        gap = lp.cost_with_ess - oracle.cost_with_ess
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6, f"LP cost above the discrete oracle by {gap}"
        verify_plan(lp, ess)
    print(f"ACCEPTANCE 3 PASS: 200 instances, worst LP-minus-oracle gap {worst_gap:.3e}")


def test_criterion_4_hand_derivable_micro_cases():
    """The arithmetic anchors, each to 1e-9."""
    assert abs((0.4 - 0.2 * 30.0 / 40.0) - 0.25) <= 1e-9
    assert needs_charge(0.4, 30.0, 0.2, 40.0, 0.3)

    soc, _ = soc_after_trip(1.0, 40.0, 0.2, 40.0)
    assert abs(soc - 0.8) <= 1e-9

    assert abs(charge_duration_hours(0.25, 2.0, 40.0, 60.0) - 0.5) <= 1e-9

    flat = LoadProfile(np.arange(96) * 15, np.full(96, 60.0), 15)
    assert abs(baseline_cost(flat, DEFAULT_TARIFF) - 913.176) <= 1e-9

    tariff = hourly_tariff([0.3338, 1.0282, 0.3338])
    ess = EssParams(c_ess_kwh=100.0, p_charge_max_kw=100.0, p_discharge_max_kw=100.0,
                    soc_init=0.0)
    plan = solve_schedule(profile([0.0, 100.0, 0.0]), tariff, ess)
    assert abs(plan.cost_with_ess - 33.38) <= 1e-9

    station = station_composite((0.04, 0.1, 0.2, 0.1, 0.1), np.ones((5, 4)))
    assert np.all(np.abs(station - 0.54) <= 1e-9)
    print("ACCEPTANCE 4 PASS: 0.25 trigger, 0.8 SOC, 0.5 h, 913.176, 33.38, 0.54 at 1e-9")


def test_criterion_5_kde_properties():
    """Normalization of 50 random models at 1e-6; KS of 1e5 draws < 0.01."""
    rng = np.random.default_rng(505)
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 400))
        loc = rng.uniform(-50.0, 800.0)
        scale = rng.uniform(0.5, 60.0)
        samples = rng.normal(loc, scale, size=n)
        kind = i % 3
        if kind == 0:
            support = (-math.inf, math.inf)
        elif kind == 1:
            samples = np.abs(samples)
            support = (0.0, math.inf)
        else:
            lo, hi = samples.min(), samples.max()
            support = (lo - rng.uniform(0, scale), hi + rng.uniform(0, scale))
        model = fit_kde(samples, support)
        err = abs(integral_over_support(model) - 1.0)
        worst = max(worst, err)
        assert err <= 1e-6, f"model {i}: pdf integrates to 1{err:+.2e}"

    reference = fit_kde(
        np.array([420.0, 450.0, 470.0, 480.0, 495.0, 520.0, 560.0, 610.0]),
        support=(0.0, 1440.0),
    )
    draws = reference.sample_many(np.random.default_rng(99), 100_000)
    ks = kstest(draws, lambda x: cdf(reference, x)).statistic
    assert ks < 0.01, f"KS statistic {ks}"
    print(f"ACCEPTANCE 5 PASS: worst normalization error {worst:.2e}, KS {ks:.4f}")


def test_criterion_6_conservation_and_bounds(case_study):
    """10000-vehicle run: SOC in [0,1], energy conserved, exact composite."""
    config, result, _ = case_study
    assert result.n_vehicles == 10000
    assert 0.0 <= result.soc_min and result.soc_max <= 1.0

    site_total = sum(result.site_energy_full_kwh)
    rel = abs(site_total - result.event_energy_kwh) / result.event_energy_kwh
    assert rel <= 1e-9, f"energy mismatch {rel:.2e}"

    bundle = result.bundle
    site_matrix = np.stack([p.power_kw for p in bundle.site_profiles])
    assert np.array_equal(
        bundle.station.power_kw, station_composite(config.q_pro, site_matrix)
    )
    print(
        f"ACCEPTANCE 6 PASS: soc in [{result.soc_min:.3f}, {result.soc_max:.3f}], "
        f"energy residual {rel:.1e}, composite exact"
    )


def test_criterion_7_thread_determinism(fixture_models, tmp_path):
    """Forecast CSV is byte-identical across 1, 2 and 8 worker threads."""
    blobs = []
    for threads in (1, 2, 8):
        result = run_forecast(FleetConfig(seed=4242), fixture_models, threads=threads)
        path = tmp_path / f"curve_{threads}.csv"
        write_load_curve_csv(path, result.bundle)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    print(f"ACCEPTANCE 7 PASS: identical CSV bytes ({len(blobs[0])} B) for 1/2/8 threads")


def test_criterion_8_performance(case_study):
    """10k-vehicle 48 h simulation <= 30 s; 288-slot 3-day LP <= 1 s."""
    _, result, sim_seconds = case_study
    assert sim_seconds <= 30.0, f"simulation took {sim_seconds:.1f}s"

    start = time.perf_counter()
    plan = multi_day_schedule([result.bundle.station] * 3, DEFAULT_TARIFF, EssParams())
    lp_seconds = time.perf_counter() - start
    assert plan.n_slots == 288
    assert lp_seconds <= 1.0, f"LP took {lp_seconds:.2f}s"
    print(f"ACCEPTANCE 8 PASS: simulation {sim_seconds:.1f}s <= 30s, LP {lp_seconds*1000:.0f}ms <= 1s")
