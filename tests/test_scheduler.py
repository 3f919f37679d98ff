"""Storage scheduling: tariff handling, DP vs enumeration and HiGHS, feasibility."""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from chargecast.errors import ConfigurationError, DataError, SolverError
from chargecast.forecast import LoadProfile
from chargecast.scheduler import (
    DEFAULT_TARIFF,
    VERIFY_TOL,
    EssParams,
    SchedulePlan,
    TariffSchedule,
    _make_plan,
    multi_day_schedule,
    solve_schedule_slots,
    verify_plan,
)

VALLEY, SHOULDER, PEAK = 0.3338, 0.6380, 1.0282


def profile(power, slot_minutes=60):
    power = np.asarray(power, dtype=float)
    return LoadProfile(np.arange(len(power)) * slot_minutes, power, slot_minutes)


def hourly_tariff(prices):
    """Tariff whose first len(prices) hours carry the given prices."""
    windows = [(60.0 * i, 60.0 * (i + 1), p) for i, p in enumerate(prices)]
    windows.append((60.0 * len(prices), 1440.0, prices[-1]))
    return TariffSchedule(tuple(windows))


def baseline_cost(p_ev: LoadProfile, tariff: TariffSchedule) -> float:
    """Electricity bill with the ESS idle."""
    prices = tariff.slot_prices(p_ev.slot_minutes, len(p_ev.power_kw))
    return float(np.sum(p_ev.power_kw * prices) * p_ev.slot_minutes / 60.0)


def solve_schedule(p_ev: LoadProfile, tariff: TariffSchedule, ess: EssParams) -> SchedulePlan:
    """Cheapest schedule for one load profile under a tariff."""
    prices = tariff.slot_prices(p_ev.slot_minutes, len(p_ev.power_kw))
    return solve_schedule_slots(
        p_ev.power_kw, prices, p_ev.slot_minutes / 60.0, ess,
        slot_start_min=np.asarray(p_ev.slot_start_min),
    )


def highs_cost(p_ev, prices, dt_hours, ess) -> float:
    """Station bill of the sparse LP over [p_0..p_{n-1}, e_0..e_{n-1}] solved
    by HiGHS: one bidiagonal row e_i - e_{i-1} - dt*p_i = 0 per slot, with
    e_{-1} = soc_init*C on the right-hand side, the second oracle."""
    n = len(p_ev)
    lb = np.full(n, -ess.p_discharge_max_kw)
    if not ess.allow_export:
        lb = np.maximum(lb, -p_ev)
    e_init = ess.soc_init * ess.c_ess_kwh
    eye = sp.eye(n, format="csr")
    a_eq = sp.hstack([-dt_hours * eye, eye - sp.eye(n, k=-1, format="csr")], format="csr")
    b_eq = np.zeros(n)
    b_eq[0] = e_init
    bounds = np.empty((2 * n, 2))
    bounds[:n, 0], bounds[:n, 1] = lb, ess.p_charge_max_kw
    bounds[n:, 0], bounds[n:, 1] = 0.0, ess.c_ess_kwh
    if ess.require_terminal_soc:
        bounds[-1, 0] = e_init
    res = linprog(np.concatenate([prices * dt_hours, np.zeros(n)]), A_eq=a_eq, b_eq=b_eq,
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(np.sum((p_ev + res.x[:n]) * prices) * dt_hours)


def brute_force_schedule(
    p_ev: LoadProfile,
    tariff: TariffSchedule,
    ess: EssParams,
    power_levels,
    max_slots: int = 8,
) -> SchedulePlan:
    """Exhaustive oracle over a discrete ESS power grid (small instances only)."""
    ess.validate()
    n = len(p_ev.power_kw)
    if n > max_slots:
        raise ConfigurationError(f"brute force limited to {max_slots} slots, got {n}")
    levels = sorted({float(v) for v in power_levels})
    if 0.0 not in levels:
        raise ConfigurationError("power_levels must include 0")

    prices = tariff.slot_prices(p_ev.slot_minutes, n)
    dt = p_ev.slot_minutes / 60.0
    load = np.asarray(p_ev.power_kw, dtype=float)

    grid = np.array(list(itertools.product(levels, repeat=n)))  # (L^n, n)

    lb = np.full(n, -ess.p_discharge_max_kw)
    if not ess.allow_export:
        lb = np.maximum(lb, -load)
    ub = np.full(n, ess.p_charge_max_kw)
    eps = VERIFY_TOL * max(1.0, ess.c_ess_kwh)

    feasible = np.all((grid >= lb - eps) & (grid <= ub + eps), axis=1)
    energy = ess.soc_init * ess.c_ess_kwh + dt * np.cumsum(grid, axis=1)
    feasible &= np.all((energy >= -eps) & (energy <= ess.c_ess_kwh + eps), axis=1)
    if ess.require_terminal_soc:
        feasible &= energy[:, -1] >= ess.soc_init * ess.c_ess_kwh - eps
    if not np.any(feasible):
        raise SolverError("no feasible assignment on the discrete grid")

    costs = (grid + load) @ (prices * dt)
    costs[~feasible] = np.inf
    best = grid[int(np.argmin(costs))]
    return _make_plan(load, prices, best, dt, ess, np.asarray(p_ev.slot_start_min))


def random_instance(rng):
    """Small random instance matching the brute-force oracle's domain."""
    n = int(rng.integers(3, 7))
    p_ev = np.round(rng.uniform(0.0, 150.0, n), 3)
    prices = np.round(rng.uniform(0.1, 2.0, n), 4)
    p_max = float(rng.choice([40.0, 80.0, 120.0]))
    ess = EssParams(
        c_ess_kwh=float(rng.choice([0.0, 60.0, 150.0, 400.0])),
        p_charge_max_kw=p_max,
        p_discharge_max_kw=p_max,
        soc_init=float(rng.uniform(0.0, 1.0)),
        require_terminal_soc=bool(rng.integers(0, 2)),
        allow_export=bool(rng.integers(0, 2)),
    )
    levels = [-p_max, -p_max / 2, 0.0, p_max / 2, p_max]
    return profile(p_ev), hourly_tariff(list(prices)), ess, levels


class TestTariff:
    def test_default_covers_day(self):
        minute = DEFAULT_TARIFF.slot_prices(1, 1442)
        assert minute[0] == VALLEY
        assert minute[450] == VALLEY
        assert minute[900] == PEAK
        assert minute[1439] == SHOULDER
        assert minute[1441] == VALLEY  # repeats daily

    def test_slot_prices_15min(self):
        prices = DEFAULT_TARIFF.slot_prices(15, 96)
        assert prices[0] == VALLEY and prices[31] == VALLEY
        assert prices[32] == SHOULDER
        assert (prices == PEAK).sum() == 24  # 6 peak hours

    def test_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            TariffSchedule(((0.0, 400.0, 0.5), (480.0, 1440.0, 0.5)))

    def test_partial_day_rejected(self):
        with pytest.raises(ConfigurationError):
            TariffSchedule(((0.0, 1200.0, 0.5),))

    def test_nonpositive_price_rejected(self):
        with pytest.raises(ConfigurationError):
            TariffSchedule(((0.0, 1440.0, 0.0),))

    def test_straddling_slot_is_grid_mismatch(self):
        with pytest.raises(DataError, match="straddles"):
            DEFAULT_TARIFF.slot_prices(50, 12)


class TestBaselineCost:
    def test_flat_load_day(self):
        # 60 kW around the clock: 8 h valley, 10 h shoulder, 6 h peak.
        assert baseline_cost(profile([60.0] * 96, 15), DEFAULT_TARIFF) == pytest.approx(
            913.176, abs=1e-9
        )

    def test_zero_load(self):
        assert baseline_cost(profile([0.0] * 24), DEFAULT_TARIFF) == 0.0

    def test_single_peak_hour(self):
        assert baseline_cost(profile([100.0]), hourly_tariff([PEAK])) == pytest.approx(
            102.82, abs=1e-9
        )


class TestSolveSchedule:
    def three_slot_instance(self):
        tariff = hourly_tariff([VALLEY, PEAK, VALLEY])
        ess = EssParams(
            c_ess_kwh=100.0, p_charge_max_kw=100.0, p_discharge_max_kw=100.0,
            soc_init=0.0,
        )
        return profile([0.0, 100.0, 0.0]), tariff, ess

    def test_three_slot_arbitrage(self):
        p_ev, tariff, ess = self.three_slot_instance()
        plan = solve_schedule(p_ev, tariff, ess)
        # Charge 100 kWh in the valley slot, serve the peak slot from storage.
        assert plan.cost_with_ess == pytest.approx(33.38, abs=1e-6)
        assert plan.cost_baseline == pytest.approx(102.82, abs=1e-9)

    def test_three_slot_matches_oracle(self):
        p_ev, tariff, ess = self.three_slot_instance()
        lp = solve_schedule(p_ev, tariff, ess)
        bf = brute_force_schedule(p_ev, tariff, ess, [-100, -50, 0, 50, 100])
        assert abs(lp.cost_with_ess - bf.cost_with_ess) <= 1e-6

    def test_zero_capacity_is_exactly_baseline(self):
        p_ev, tariff, _ = self.three_slot_instance()
        plan = solve_schedule(p_ev, tariff, EssParams(c_ess_kwh=0.0, soc_init=0.0))
        assert np.all(plan.p_ess_kw == 0.0)
        assert plan.cost_with_ess == plan.cost_baseline
        assert plan.saving_fraction == 0.0

    def test_flat_price_no_arbitrage(self):
        flat = TariffSchedule(((0.0, 1440.0, 0.71),))
        rng = np.random.default_rng(5)
        p_ev = profile(rng.uniform(10, 200, 96), 15)
        plan = solve_schedule(p_ev, flat, EssParams())
        assert abs(plan.cost_with_ess - plan.cost_baseline) <= 1e-9 * plan.cost_baseline

    def test_infeasible_soc_init(self):
        p_ev, tariff, _ = self.three_slot_instance()
        with pytest.raises(ConfigurationError):
            solve_schedule(p_ev, tariff, EssParams(soc_init=1.5))

    def test_negative_load_rejected(self):
        with pytest.raises(DataError):
            solve_schedule(profile([-1.0, 5.0, 5.0]), hourly_tariff([0.5, 0.5, 0.5]), EssParams())

    @pytest.mark.parametrize("load", [np.nan, np.inf])
    def test_non_finite_load_is_data_error(self, load):
        with pytest.raises(DataError, match="EV load must be finite") as info:
            solve_schedule_slots([10.0, load], [0.5, 1.0], 1.0, EssParams(c_ess_kwh=100.0))
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("ess", [EssParams(), EssParams(c_ess_kwh=0.0, soc_init=0.0)])
    def test_empty_load_is_data_error(self, ess):
        # Exit code 3 (bad input), raised before any LP is built.
        with pytest.raises(DataError, match="no slots") as info:
            solve_schedule_slots([], [], 0.25, ess)
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("price", [0.0, -0.5, np.nan])
    def test_nonpositive_price_is_data_error(self, price):
        with pytest.raises(DataError, match="prices must be positive") as info:
            solve_schedule_slots([10.0, 10.0], [0.5, price], 1.0, EssParams(c_ess_kwh=100.0))
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("dt_hours", [0.0, np.nan, np.inf, -0.25])
    def test_bad_slot_length_is_data_error(self, dt_hours):
        with pytest.raises(DataError, match="slot length") as info:
            solve_schedule_slots([10.0, 10.0], [0.5, 1.0], dt_hours, EssParams(c_ess_kwh=100.0))
        assert info.value.exit_code == 3

    def test_lp_never_worse_than_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            p_ev, tariff, ess, levels = random_instance(rng)
            lp = solve_schedule(p_ev, tariff, ess)
            bf = brute_force_schedule(p_ev, tariff, ess, levels)
            assert lp.cost_with_ess <= bf.cost_with_ess + 1e-6
            verify_plan(lp, ess)

    def test_no_loss_bound_under_terminal_condition(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            p_ev, tariff, ess, _ = random_instance(rng)
            ess.require_terminal_soc = True
            plan = solve_schedule(p_ev, tariff, ess)
            assert plan.cost_with_ess <= plan.cost_baseline + 1e-9

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 6),
        c_ess=st.one_of(st.just(0.0), st.floats(10.0, 500.0)),
        p_charge=st.floats(0.0, 150.0),
        p_discharge=st.floats(0.0, 150.0),
        soc_init=st.floats(0.0, 1.0),
        require_terminal_soc=st.booleans(),
        allow_export=st.booleans(),
    )
    def test_lp_never_worse_than_oracle_property(
        self, data, n, c_ess, p_charge, p_discharge, soc_init, require_terminal_soc,
        allow_export,
    ):
        load = data.draw(st.lists(st.floats(0.0, 150.0), min_size=n, max_size=n))
        prices = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
        ess = EssParams(
            c_ess_kwh=c_ess, p_charge_max_kw=p_charge, p_discharge_max_kw=p_discharge,
            soc_init=soc_init, require_terminal_soc=require_terminal_soc,
            allow_export=allow_export,
        )
        levels = [-p_discharge, -p_discharge / 2, 0.0, p_charge / 2, p_charge]
        p_ev, tariff = profile(load), hourly_tariff(prices)
        lp = solve_schedule(p_ev, tariff, ess)
        bf = brute_force_schedule(p_ev, tariff, ess, levels)
        assert lp.cost_with_ess <= bf.cost_with_ess + 1e-6
        verify_plan(lp, ess)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 60),
        c_ess=st.one_of(st.just(0.0), st.floats(1.0, 500.0)),
        p_charge=st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
        p_discharge=st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
        soc_init=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        require_terminal_soc=st.booleans(),
        allow_export=st.booleans(),
        dt_hours=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_dp_matches_highs_property(
        self, data, n, c_ess, p_charge, p_discharge, soc_init, require_terminal_soc,
        allow_export, dt_hours,
    ):
        """The DP's cost equals the HiGHS LP optimum within 1e-9 relative;
        prices are often repeated, as on a tiled tariff."""
        load = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 150.0)),
                                  min_size=n, max_size=n), label="load")
        levels = data.draw(st.lists(st.floats(0.1, 2.0), min_size=1, max_size=n), label="levels")
        prices = data.draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n),
                           label="prices")
        ess = EssParams(
            c_ess_kwh=c_ess, p_charge_max_kw=p_charge, p_discharge_max_kw=p_discharge,
            soc_init=soc_init, require_terminal_soc=require_terminal_soc,
            allow_export=allow_export,
        )
        p_ev, prices = np.array(load), np.array(prices)
        plan = solve_schedule_slots(p_ev, prices, dt_hours, ess)
        reference = highs_cost(p_ev, prices, dt_hours, ess)
        assert abs(plan.cost_with_ess - reference) <= 1e-9 * max(1.0, abs(reference))
        verify_plan(plan, ess)

    def test_price_scaling_equivariance(self):
        rng = np.random.default_rng(8)
        p_ev = profile(rng.uniform(0, 120, 5))
        prices = [0.3, 1.1, 0.5, 1.7, 0.4]
        ess = EssParams(c_ess_kwh=200.0, p_charge_max_kw=80.0, p_discharge_max_kw=80.0)
        base = solve_schedule(p_ev, hourly_tariff(prices), ess)
        for a in (0.5, 3.0, 42.0):
            scaled = solve_schedule(p_ev, hourly_tariff([a * p for p in prices]), ess)
            assert scaled.cost_with_ess == pytest.approx(a * base.cost_with_ess, rel=1e-9)

    def test_export_allowed_can_go_negative(self):
        # One expensive slot with zero load: discharging pays only if export is on.
        tariff = hourly_tariff([VALLEY, PEAK, VALLEY])
        ess = EssParams(
            c_ess_kwh=100.0, p_charge_max_kw=100.0, p_discharge_max_kw=100.0,
            soc_init=0.0, allow_export=True,
        )
        plan = solve_schedule(profile([0.0, 0.0, 0.0]), tariff, ess)
        assert plan.p_ch_kw.min() < 0
        assert plan.cost_with_ess < 0  # sells at peak what it bought in the valley

    def test_non_export_keeps_station_draw_nonnegative(self):
        tariff = hourly_tariff([VALLEY, PEAK, VALLEY])
        ess = EssParams(
            c_ess_kwh=100.0, p_charge_max_kw=100.0, p_discharge_max_kw=100.0,
            soc_init=0.0,
        )
        plan = solve_schedule(profile([0.0, 40.0, 0.0]), tariff, ess)
        assert plan.p_ch_kw.min() >= -1e-9
        assert plan.cost_with_ess == pytest.approx(40 * VALLEY, abs=1e-6)


class TestVerifyPlan:
    def test_tampered_power_fails(self):
        p_ev = profile([10.0, 10.0])
        plan = solve_schedule(p_ev, hourly_tariff([0.5, 0.5]), EssParams(p_charge_max_kw=5.0))
        plan.p_ess_kw[0] = 50.0
        with pytest.raises(SolverError):
            verify_plan(plan, EssParams(p_charge_max_kw=5.0))

    def test_tampered_soc_fails(self):
        ess = EssParams(c_ess_kwh=100.0)
        plan = solve_schedule(profile([10.0, 10.0]), hourly_tariff([0.5, 0.5]), ess)
        plan.soc_ess[-1] = 0.9
        with pytest.raises(SolverError, match="recursion"):
            verify_plan(plan, ess)


class TestBruteForce:
    def test_slot_cap(self):
        with pytest.raises(ConfigurationError):
            brute_force_schedule(
                profile([1.0] * 9), hourly_tariff([0.5] * 9), EssParams(), [0.0]
            )

    def test_levels_must_include_zero(self):
        with pytest.raises(ConfigurationError):
            brute_force_schedule(
                profile([1.0]), hourly_tariff([0.5]), EssParams(), [10.0]
            )

    def test_zero_only_levels_reproduce_baseline(self):
        p_ev = profile([25.0, 50.0, 10.0])
        plan = brute_force_schedule(p_ev, hourly_tariff([0.4, 0.9, 0.4]), EssParams(), [0.0])
        assert plan.cost_with_ess == plan.cost_baseline

    def test_single_slot_with_empty_store_stays_idle(self):
        ess = EssParams(
            c_ess_kwh=100.0, p_charge_max_kw=100.0, p_discharge_max_kw=100.0,
            soc_init=0.0,
        )
        plan = brute_force_schedule(profile([80.0]), hourly_tariff([PEAK]), ess, [-50, 0, 50])
        assert plan.p_ess_kw.tolist() == [0.0]


class TestCaseStudyShape:
    def test_storage_buys_valley_serves_peak(self, fixture_models):
        """Net ESS energy: bought in the 0.3338 window, discharged at 1.0282."""
        from chargecast.forecast import FleetConfig, run_forecast

        result = run_forecast(FleetConfig(n_ev=2500, seed=2), fixture_models)
        plan = multi_day_schedule([result.bundle.station] * 3, DEFAULT_TARIFF, EssParams())
        energy = plan.p_ess_kw * plan.dt_hours
        assert energy[plan.price == VALLEY].sum() > 0
        assert energy[plan.price == PEAK].sum() < 0


class TestMultiDay:
    def test_one_day_reduces_to_single_solve(self):
        rng = np.random.default_rng(13)
        day = profile(rng.uniform(0, 900, 96), 15)
        ess = EssParams()
        multi = multi_day_schedule([day], DEFAULT_TARIFF, ess)
        single = solve_schedule(day, DEFAULT_TARIFF, ess)
        assert multi.cost_with_ess == pytest.approx(single.cost_with_ess, rel=1e-12)

    def test_interior_day_stable_across_horizons(self):
        # Strictly distinct window prices and a smooth varied load keep the
        # optimum unique, so the interior day must not depend on horizon length.
        tariff = TariffSchedule((
            (0.0, 360.0, 0.21), (360.0, 720.0, 0.55),
            (720.0, 1080.0, 1.31), (1080.0, 1440.0, 0.83),
        ))
        t = np.arange(96) * 15.0
        day = profile(120.0 + 90.0 * np.sin(2 * np.pi * (t - 300.0) / 1440.0) ** 2, 15)
        ess = EssParams(c_ess_kwh=400.0, p_charge_max_kw=100.0, p_discharge_max_kw=100.0)
        plan3 = multi_day_schedule([day] * 3, tariff, ess)
        plan5 = multi_day_schedule([day] * 5, tariff, ess)
        assert plan3.day_costs_with_ess[1] == pytest.approx(
            plan5.day_costs_with_ess[1], abs=1e-6
        )

    def test_day_costs_sum_to_total(self):
        rng = np.random.default_rng(4)
        day = profile(rng.uniform(0, 500, 96), 15)
        plan = multi_day_schedule([day] * 3, DEFAULT_TARIFF, EssParams())
        assert sum(plan.day_costs_with_ess) == pytest.approx(plan.cost_with_ess, rel=1e-12)
        assert sum(plan.day_costs_baseline) == pytest.approx(plan.cost_baseline, rel=1e-12)

    def test_sixty_days_stay_sparse(self):
        # A dense n x n block over 5,760 slots would alone take over 500 MB.
        rng = np.random.default_rng(60)
        days = [profile(rng.uniform(0, 900, 96), 15) for _ in range(60)]
        ess = EssParams()
        tracemalloc.start()
        try:
            plan = multi_day_schedule(days, DEFAULT_TARIFF, ess)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        verify_plan(plan, ess)
        assert plan.n_slots == 60 * 96
        assert peak < 50e6

    def test_mixed_grids_rejected(self):
        a = profile(np.zeros(96), 15)
        b = profile(np.zeros(48), 30)
        with pytest.raises(DataError):
            multi_day_schedule([a, b], DEFAULT_TARIFF, EssParams())

    def test_partial_day_rejected(self):
        with pytest.raises(DataError):
            multi_day_schedule([profile(np.zeros(10), 15)], DEFAULT_TARIFF, EssParams())
