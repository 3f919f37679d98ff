"""Storage scheduling: tariff handling, DP vs enumeration and HiGHS, feasibility."""

import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from chargecast.errors import ConfigurationError, DataError, SolverError
from chargecast.forecast import DAY_MINUTES, LoadProfile
from chargecast.scheduler import (
    DEFAULT_TARIFF,
    MAX_HORIZON_SLOTS,
    VERIFY_TOL,
    EssParams,
    SchedulePlan,
    TariffSchedule,
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


def _reference_slot_prices(tariff: TariffSchedule, slot_minutes, n_slots) -> np.ndarray:
    """Per-slot prices by a loop over slots and windows: the first window that
    holds the whole slot, the day wrapping at 1440 minutes."""
    prices = np.empty(n_slots)
    for i in range(n_slots):
        t0 = (i * slot_minutes) % DAY_MINUTES
        t1 = t0 + slot_minutes
        for start, end, price in tariff.windows:
            if start <= t0 and t1 <= end:
                prices[i] = price
                break
        else:
            raise DataError(
                f"slot starting at minute {i * slot_minutes} straddles a tariff boundary"
            )
    return prices


def baseline_cost(p_ev: LoadProfile, tariff: TariffSchedule) -> float:
    """Electricity bill with the ESS idle."""
    prices = tariff.slot_prices(p_ev.slot_minutes, len(p_ev.power_kw))
    return float(np.sum(p_ev.power_kw * prices) * p_ev.slot_minutes / 60.0)


def solve_schedule(p_ev: LoadProfile, tariff: TariffSchedule, ess: EssParams) -> SchedulePlan:
    """Cheapest schedule for one load profile under a tariff."""
    prices = tariff.slot_prices(p_ev.slot_minutes, len(p_ev.power_kw))
    return solve_schedule_slots(p_ev.power_kw, prices, p_ev.slot_minutes / 60.0, ess)


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
    return SchedulePlan(prices, load, best, dt, ess)


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

    @pytest.mark.parametrize("windows", [
        ((0.0, 1440.0),),
        ((0.0, 1440.0, 0.5, 9.0),),
        ((0.0, 1440.0, np.inf),),
    ], ids=["short_row", "long_row", "infinite_price"])
    def test_malformed_row_is_configuration_error(self, windows):
        with pytest.raises(ConfigurationError, match="tariff"):
            TariffSchedule(windows)

    def test_straddling_slot_is_grid_mismatch(self):
        with pytest.raises(DataError, match="straddles"):
            DEFAULT_TARIFF.slot_prices(50, 12)

    @pytest.mark.parametrize("windows", [
        ((0.0, 2000.0, 0.5), (2000.0, 1440.0, 0.6)),
        ((0.0, 600.0, 0.5), (600.0, 600.0, 9.0), (600.0, 1440.0, 0.6)),
    ], ids=["backward", "zero_width"])
    def test_window_must_run_forward(self, windows):
        with pytest.raises(ConfigurationError, match="run forward"):
            TariffSchedule(windows)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), grain=st.sampled_from([1, 5, 15, 60, 120]),
           slot=st.sampled_from([1, 5, 15, 60, 90, 1440]) | st.integers(1, 1500)
           | st.sampled_from([0.5, 7.5, 22.5, 97.5]))
    def test_slot_prices_match_the_reference_loop(self, data, grain, slot):
        """Any forward partition of the day on integer minutes and any slot
        length price the same, bit for bit, as the loop over slots and
        windows, or raise its error."""
        cuts = data.draw(st.sets(st.integers(1, 1440 // grain - 1), max_size=7), label="cuts")
        bounds = [0, *sorted(grain * c for c in cuts), 1440]
        prices = data.draw(st.lists(st.floats(0.01, 5.0), min_size=len(bounds) - 1,
                                    max_size=len(bounds) - 1), label="prices")
        windows = data.draw(st.permutations(list(zip(bounds, bounds[1:], prices))),
                            label="windows")
        tariff = TariffSchedule(tuple(windows))
        n_slots = data.draw(st.integers(0, int(3 * 1440 / slot) + 3), label="n_slots")
        try:
            expected = _reference_slot_prices(tariff, slot, n_slots)
        except DataError as error:
            with pytest.raises(DataError) as info:
                tariff.slot_prices(slot, n_slots)
            assert str(info.value) == str(error)
        else:
            got = tariff.slot_prices(slot, n_slots)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("field, value", [
        ("p_charge_max_kw", np.inf), ("c_ess_kwh", np.inf), ("c_ess_kwh", np.nan),
    ])
    def test_non_finite_storage_is_configuration_error(self, field, value):
        # Each once gave a plan, with a bill above the baseline, NaN or idle.
        with pytest.raises(ConfigurationError, match="finite"):
            solve_schedule_slots([10.0] * 4, [0.5, 1.0, 0.5, 1.0], 1.0,
                                 EssParams(**{field: value}))

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
            plan = solve_schedule(p_ev, tariff, replace(ess, require_terminal_soc=True))
            assert plan.cost_with_ess <= plan.cost_baseline

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), flat=st.booleans(), no_storage=st.booleans(),
           allow_export=st.booleans())
    def test_plan_never_bills_more_than_idle(self, seed, flat, no_storage, allow_export):
        p_ev, tariff, ess, _ = random_instance(np.random.default_rng(seed))
        if flat:
            tariff = TariffSchedule(((0.0, 1440.0, tariff.windows[0][2]),))
        ess = replace(ess, allow_export=allow_export, c_ess_kwh=0.0 if no_storage else ess.c_ess_kwh)
        plan = solve_schedule(p_ev, tariff, ess)
        assert plan.cost_with_ess <= plan.cost_baseline

    @settings(max_examples=80, deadline=None)
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

    @settings(max_examples=150, deadline=None)
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

    @pytest.mark.parametrize("array", ["p_ess_kw", "soc_ess", "p_ch_kw"])
    def test_nan_fails(self, array):
        """A NaN compares false with every bound, so each check fails on it."""
        ess = EssParams(c_ess_kwh=100.0)
        plan = solve_schedule(profile([10.0, 10.0]), hourly_tariff([0.5, 1.0]), ess)
        getattr(plan, array)[0] = np.nan
        with pytest.raises(SolverError):
            verify_plan(plan, ess)

    @pytest.mark.parametrize("ess, p_ev, p_ess, draw_offset, message", [
        (EssParams(c_ess_kwh=100.0, p_discharge_max_kw=5.0), [10.0, 10.0], [-10.0, 0.0], 0.0,
         "discharging power exceeds its limit"),
        (EssParams(c_ess_kwh=100.0), [0.0, 10.0], [-5.0, 0.0], 0.0,
         "negative while export is disabled"),
        (EssParams(c_ess_kwh=100.0), [10.0, 10.0], [0.0, 0.0], 1.0,
         "does not equal EV load plus ESS power"),
        (EssParams(c_ess_kwh=100.0), [10.0, 10.0], [60.0, 0.0], 0.0, r"out of \[0, 1\]"),
        (EssParams(c_ess_kwh=100.0), [10.0, 10.0], [-10.0, 0.0], 0.0, "below its floor"),
        (EssParams(c_ess_kwh=0.0), [10.0, 10.0], [5.0, 0.0], 0.0, "must stay idle"),
    ], ids=["discharge_limit", "negative_draw", "draw_mismatch", "soc_out_of_range",
            "terminal_soc", "zero_capacity_not_idle"])
    def test_each_check_rejects_its_plan(self, ess, p_ev, p_ess, draw_offset, message):
        """A plan built within every other check fails this one, with its message."""
        plan = SchedulePlan(np.array([0.5, 1.0]), np.array(p_ev), np.array(p_ess), 1.0, ess)
        plan.p_ch_kw[0] += draw_offset
        with pytest.raises(SolverError, match=message):
            verify_plan(plan, ess)


class TestSchedulePlan:
    ESS = EssParams(c_ess_kwh=100.0)

    def test_sequences_build_the_array_plan(self):
        """Lists build the plan that float arrays build, bit for bit."""
        listed = SchedulePlan([0.5, 1.0], [10.0, 10.0], [1.0, 0.0], 1.0, self.ESS)
        arrays = SchedulePlan(np.array([0.5, 1.0]), np.array([10.0, 10.0]), np.array([1.0, 0.0]),
                              1.0, self.ESS)
        for name in ["price", "p_ev_kw", "p_ess_kw", "p_ch_kw", "soc_ess"]:
            got, expected = getattr(listed, name), getattr(arrays, name)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
        for name in ["cost_with_ess", "cost_baseline", "saving_fraction"]:
            assert getattr(listed, name) == getattr(arrays, name), name

    @pytest.mark.parametrize("price, p_ev, p_ess, dt_hours, message", [
        ([], [], [], 1.0, "no slots"),
        ([0.5], [10.0, 10.0], [0.0, 0.0], 1.0, "lengths differ"),
        ([0.5, 1.0], [10.0, 10.0], [0.0], 1.0, "lengths differ"),
        ([0.5, 1.0], [10.0, -1.0], [0.0, 0.0], 1.0, "EV load must be finite"),
        ([0.5, np.inf], [10.0, 10.0], [0.0, 0.0], 1.0, "prices must be positive"),
        ([0.5, 1.0], [10.0, 10.0], [0.0, 0.0], -1.0, "slot length"),
        ([0.5, 1.0], [10.0, 10.0], [np.nan, 0.0], 1.0, "ESS power must be finite"),
        ([0.5, 1.0], [10.0, 10.0], [0.0, np.inf], 1.0, "ESS power must be finite"),
        ([0.5, 1.0], [10.0, 10.0], [0.0, -np.inf], 1.0, "ESS power must be finite"),
        ([[0.5, 1.0]], [[10.0, 10.0]], [[1.0, 0.0]], 1.0, "one-dimensional"),
        (0.5, 10.0, 0.0, 1.0, "one-dimensional"),
        ([[0.5, 1.0], [1.0]], [1.0, 1.0], [0.0, 0.0], 1.0, "arrays of numbers"),
        (["x"], [1.0], [0.0], 1.0, "arrays of numbers"),
        ([0.5], [1.0], [0.0], "1", "slot length must be positive and finite"),
        ([0.5], [1.0], [0.0], None, "slot length must be positive and finite"),
    ], ids=["no_slots", "short_prices", "short_ess_power", "negative_load", "infinite_price",
            "negative_slot_length", "nan_ess_power", "inf_ess_power", "minus_inf_ess_power",
            "nested_lists", "scalars", "ragged_lists", "not_a_number", "string_slot_length",
            "no_slot_length"])
    def test_bad_input_is_data_error(self, price, p_ev, p_ess, dt_hours, message):
        """Every builder of a plan gets the same checks, each raising before any bill."""
        with pytest.raises(DataError, match=message) as info:
            SchedulePlan(price, p_ev, p_ess, dt_hours, self.ESS)
        assert info.value.exit_code == 3

    def test_solver_lengths_differ_is_data_error(self):
        with pytest.raises(DataError, match="lengths differ") as info:
            solve_schedule_slots([10.0, 10.0, 10.0], [0.5, 1.0], 1.0, self.ESS)
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("p_ev, price", [(10.0, [0.5]), ([[10.0, 10.0]], [[0.5, 1.0]])],
                             ids=["scalar_load", "nested_lists"])
    def test_solver_input_that_is_not_one_dimensional_is_data_error(self, p_ev, price):
        with pytest.raises(DataError, match="one-dimensional") as info:
            solve_schedule_slots(p_ev, price, 1.0, self.ESS)
        assert info.value.exit_code == 3


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

    @pytest.mark.parametrize("slot", [1440, 60, 15])
    @pytest.mark.parametrize("n_days", [1, 3, 14])
    def test_day_costs_are_the_day_slice_sums(self, n_days, slot):
        """Each day's bill is bit for bit the np.sum of that day's slots."""
        rng = np.random.default_rng(n_days * slot)
        n = 1440 // slot
        tariff = DEFAULT_TARIFF if slot <= 60 else TariffSchedule(((0.0, 1440.0, 0.7),))
        days = [profile(rng.uniform(0, 900, n), slot) for _ in range(n_days)]
        plan = multi_day_schedule(days, tariff, EssParams())
        day_slices = [slice(d * n, (d + 1) * n) for d in range(n_days)]
        for costs, power in [(plan.day_costs_with_ess, plan.p_ch_kw),
                             (plan.day_costs_baseline, plan.p_ev_kw)]:
            assert costs == [float(np.sum(power[sl] * plan.price[sl]) * plan.dt_hours)
                             for sl in day_slices]

    @pytest.mark.parametrize("n_days", [1, 3, 14])
    def test_prices_are_one_day_tiled(self, n_days):
        """Pricing the whole horizon repeats one day's prices, bit for bit."""
        days = [profile(np.full(96, 100.0), 15)] * n_days
        plan = multi_day_schedule(days, DEFAULT_TARIFF, EssParams())
        one_day = _reference_slot_prices(DEFAULT_TARIFF, 15, 96)
        assert plan.price.tobytes() == np.tile(one_day, n_days).tobytes()

    def test_horizon_is_bounded_in_slots(self):
        """3,660 days of 15 minutes schedule; a day more, or 366 days of one
        minute, are a configuration error."""
        plan = multi_day_schedule([profile(np.full(96, 100.0), 15)] * 3660, DEFAULT_TARIFF,
                                  EssParams())
        assert plan.n_slots == MAX_HORIZON_SLOTS == 3660 * 96
        for days in [[profile(np.zeros(96), 15)] * 3661, [profile(np.zeros(1440), 1)] * 366]:
            with pytest.raises(ConfigurationError, match=f"horizon_days {len(days)} of"):
                multi_day_schedule(days, DEFAULT_TARIFF, EssParams())

    def test_slot_solve_has_no_days(self):
        plan = solve_schedule_slots(np.full(96, 100.0), DEFAULT_TARIFF.slot_prices(15, 96), 0.25,
                                    EssParams())
        assert plan.day_costs_with_ess == plan.day_costs_baseline == []

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

    def test_no_days_rejected(self):
        with pytest.raises(DataError, match="need at least one day of load"):
            multi_day_schedule([], DEFAULT_TARIFF, EssParams())
