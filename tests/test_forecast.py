"""Fleet simulation: battery primitives, vehicle flow, load accumulation."""

import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chargecast.forecast
from chargecast.errors import ConfigurationError, DataError
from chargecast.forecast import (
    _BATCH_BLOCKS,
    _VEHICLE_BLOCK,
    DAY_MINUTES,
    FEATURE_VELOCITY,
    HORIZON_MINUTES,
    SIMULATED_DAYS,
    FleetConfig,
    ModelSet,
    _accumulate_site_power,
    _block_rng,
    _bundle_from_site_power,
    _draw_batch_chains,
    _propagate,
    _simulate_batch,
    charge_duration_hours,
    feature_keys,
    needs_charge,
    run_forecast,
    soc_after_trip,
    station_composite,
)
from chargecast.kde import invert
from chargecast.survey import (
    CHAIN_TYPES,
    FEATURE_DURATION,
    FEATURE_DWELL,
    FEATURE_END_TIME,
    FEATURE_LENGTH,
    ChainFeatureDataset,
    SiteClass,
    chain_type_from_label,
    sample_key,
)
from conftest import point_model_set, rebuilt_models

REPO_ROOT = Path(__file__).resolve().parents[1]
Q_DEFAULT = (0.04, 0.1, 0.2, 0.1, 0.1)


def simulate(config, models, block=0):
    """One block of the fleet simulation, as a batch of one block."""
    return _simulate_batch(config, models, range(block, block + 1))


def per_type_models(models):
    """The fitted models of each chain type with positive probability, keyed
    by chain-type index, each type's in :func:`feature_keys` order."""
    return {
        k: {key: models.get(ctype, *key) for key in feature_keys(ctype)}
        for k, ctype in enumerate(CHAIN_TYPES)
        if models.proportions[k] > 0
    }


# ---------------------------------------------------------------------------
# Per-block oracle: the draws and reductions one 256-vehicle block at a time,
# which the batched ``run_forecast`` must equal bit for bit. It drives and
# charges with ``_propagate``, whose physics the hand-walked vehicles, the
# acceptance criteria and the fleet properties check on their own.
# ---------------------------------------------------------------------------

def _draw_chains(rng, ctype, type_models):
    """``(end1, lengths, velocity, dwells)`` of one block's chains: per chain
    type present, per model, every pick, then one ``invert``."""
    n = ctype.size
    rows = {FEATURE_END_TIME: np.empty((1, n)), FEATURE_LENGTH: np.zeros((3, n)),
            FEATURE_VELOCITY: np.ones((3, n)), FEATURE_DWELL: np.zeros((2, n))}
    targets, picks = [], []
    for k in np.unique(ctype):
        chains = np.flatnonzero(ctype == k)
        for (feature, index), model in type_models[k].items():
            targets.append((rows[feature][index - 1], chains))
            picks.append(model.pick(rng.random((2, chains.size))))
    centre, scale, p, lo, hi = zip(*picks)
    sizes = [c.size for c in centre]
    draws = invert(np.concatenate(centre), np.concatenate(scale), np.concatenate(p),
                   np.repeat(lo, sizes), np.repeat(hi, sizes))
    start = 0
    for target, chains in targets:
        target[chains] = draws[start:start + chains.size]
        start += chains.size
    end1, lengths, velocity, dwells = rows.values()
    return end1[0], lengths, velocity, dwells


def _simulate_block(config, proportions, type_models, block):
    """Vehicles ``256 * block`` up to ``min(256 * (block + 1), n_ev)``, drawn
    from ``_block_rng(seed, block)``."""
    first = block * _VEHICLE_BLOCK
    b = min(first + _VEHICLE_BLOCK, config.n_ev) - first
    rng = _block_rng(config.seed, block)
    owner = rng.random(b) < config.p_own
    soc = np.where(owner, 1.0, 0.5 + 0.5 * rng.random(b))
    uniforms = rng.random((SIMULATED_DAYS + 1) * b)  # a chain type per day and the lookahead
    ctype = np.minimum(np.searchsorted(np.cumsum(proportions), uniforms, side="right"),
                       max(type_models))
    return _propagate(config, owner, soc, ctype, *_draw_chains(rng, ctype, type_models))


def oracle_forecast(config, models):
    """``(site power on the simulated axis, n_events, event_energy_kwh,
    infeasible_trips, clamped_home_stays, soc_min, soc_max)``, reduced block by block."""
    type_models = per_type_models(models)
    n_slots = int(round(HORIZON_MINUTES / config.slot_minutes))
    total_power = np.zeros((5, n_slots))
    n_events = infeasible = clamped = 0
    soc_min, soc_max, event_energy = math.inf, -math.inf, 0.0
    for block in range((config.n_ev + _VEHICLE_BLOCK - 1) // _VEHICLE_BLOCK):
        sim = _simulate_block(config, models.proportions, type_models, block)
        total_power += _accumulate_site_power(sim.site, sim.start_min, sim.duration_min, config)
        end = np.minimum(sim.start_min + sim.duration_min, HORIZON_MINUTES)
        inside = end - np.maximum(0.0, sim.start_min)
        event_energy += config.p_charging_kw * float(inside[inside > 0].sum()) / 60.0
        n_events += sim.site.size
        infeasible += sim.infeasible
        clamped += sim.clamped_home_stays
        soc_min = min(soc_min, sim.soc_min)
        soc_max = max(soc_max, sim.soc_max)
    return total_power, n_events, event_energy, infeasible, clamped, soc_min, soc_max


def vehicle_events(sim, vehicle):
    """(site, start, duration) of one vehicle's charge events, in time order."""
    mine = np.flatnonzero(sim.vehicle == vehicle)
    mine = mine[np.argsort(sim.start_min[mine], kind="stable")]
    return list(zip(sim.site[mine], sim.start_min[mine], sim.duration_min[mine]))


def accumulate(events, config):
    """Reported last-day bundle of (site, start, duration) events on the 48 h
    axis, via the array accumulator."""
    site, start, duration = (np.array(column) for column in zip(*events))
    power = _accumulate_site_power(site, start, duration, config)
    return _bundle_from_site_power(power, config)


class TestSocPrimitives:
    def test_soc_update(self):
        # 40 km at 0.2 kWh/km on a 40 kWh pack: 8 kWh = 0.2 of capacity.
        soc, infeasible = soc_after_trip(1.0, 40.0, 0.2, 40.0)
        assert soc == pytest.approx(0.8, abs=1e-12)
        assert not infeasible

    def test_zero_length_identity(self):
        assert soc_after_trip(0.42, 0.0, 0.2, 40.0) == (0.42, False)

    def test_clamp_and_flag(self):
        soc, infeasible = soc_after_trip(0.1, 40.0, 0.2, 40.0)
        assert soc == 0.0 and infeasible

    def test_trigger_at_boundary(self):
        # 0.4 - 0.15 = 0.25 <= 0.3: charge.
        assert needs_charge(0.4, 30.0, 0.2, 40.0, 0.3)

    def test_full_battery_no_trip(self):
        assert not needs_charge(1.0, 0.0, 0.2, 40.0, 0.3)

    def test_above_reserve_after_trip(self):
        # 0.5 - 0.1 = 0.4 > 0.3: no charge.
        assert not needs_charge(0.5, 20.0, 0.2, 40.0, 0.3)

    def test_charge_duration_capped_by_full(self):
        assert charge_duration_hours(0.25, 2.0, 40.0, 60.0) == pytest.approx(0.5)

    def test_charge_duration_capped_by_stay(self):
        dur = charge_duration_hours(0.25, 0.2, 40.0, 60.0)
        assert dur == pytest.approx(0.2)
        assert 0.25 + dur * 60.0 / 40.0 == pytest.approx(0.55)

    def test_full_battery_zero_duration(self):
        assert charge_duration_hours(1.0, 2.0, 40.0, 60.0) == 0.0


class TestSimulateVehicle:
    """Hand-simulated oracle on near-degenerate densities.

    All draws collapse to a fixed H-W-H chain: trip-1 end 09:00, both legs
    60 km at 40 km/h (90 min), 120 min at work, next-day chains identical.
    With u=0.2, c=40 each leg costs 0.3 SOC; the work-site trigger is
    soc <= 0.6 and the home trigger (next-day 60 km leg) soc <= 0.6.
    """

    CONFIG = FleetConfig(
        p_own=0.0, n_ev=12, p_charging_kw=60.0, c_ev_kwh=40.0,
        u_kwh_per_km=0.2, q_pro=Q_DEFAULT, seed=909,
    )
    MODELS = None

    @classmethod
    def models(cls):
        if cls.MODELS is None:
            cls.MODELS = point_model_set(
                chain_type_from_label("H-W-H"),
                end1=540.0, lengths=(60.0, 60.0), velocities=(40.0, 40.0),
                dwells=(120.0,),
            )
        return cls.MODELS

    def expected_events(self, soc0):
        """Walk the generation flow by hand for one vehicle."""
        if soc0 <= 0.9:
            # Work-site trigger fires on day 0 (soc0-0.3 <= 0.6), charge to
            # full there; next morning soc 0.4 triggers at work again.
            return [
                (SiteClass.W.index, 540.0, (1.3 - soc0) * 2 / 3),
                (SiteClass.W.index, 1440.0 + 540.0, 0.4),
            ]
        # No work charge; the home trigger fires each evening (arrival at
        # 12:30 after the 120 min stay): day 0 from soc0-0.6, day 1 from 0.4
        # after overnight full charge and two more legs.
        return [
            (SiteClass.H.index, 750.0, (1.6 - soc0) * 2 / 3),
            (SiteClass.H.index, 1440.0 + 750.0, 0.4),
        ]

    @pytest.mark.parametrize("vehicle", range(12))
    def test_against_hand_simulation(self, vehicle):
        sim = simulate(self.CONFIG, self.models())

        # Replay the documented block draw order to recover the initial SOC.
        replay = _block_rng(self.CONFIG.seed, 0)
        replay.random(12)  # ownership uniforms (p_own = 0: all non-owners)
        soc0 = 0.5 + 0.5 * replay.random(12)[vehicle]

        expected = self.expected_events(soc0)
        events = vehicle_events(sim, vehicle)
        assert len(events) == len(expected)
        for (site_index, start_min, duration_min), (site, start, dur_h) in zip(events, expected):
            assert site_index == site
            assert start_min == pytest.approx(start, abs=1e-3)
            assert duration_min == pytest.approx(dur_h * 60.0, rel=1e-5)
        assert sim.infeasible == 0
        assert 0.0 <= sim.soc_min <= sim.soc_max <= 1.0

    def test_home_stay_clamped_when_next_day_starts_earlier(self):
        """A chain overrunning the next day's departure leaves no time to
        charge at home: the trigger may fire but no zero-length event is
        emitted."""
        models = point_model_set(
            chain_type_from_label("H-W-H"),
            end1=1380.0, lengths=(80.0, 80.0), velocities=(40.0, 40.0),
            dwells=(1400.0,),  # arrival home ~ 08:05 next day
        )
        config = FleetConfig(
            p_own=0.0, n_ev=1, p_charging_kw=60.0, c_ev_kwh=40.0,
            u_kwh_per_km=0.2, q_pro=Q_DEFAULT, seed=7,
        )
        sim = simulate(config, models)
        events = vehicle_events(sim, 0)
        # Both days trigger at the work site; home dwell is clamped to zero, and counted.
        assert [site for site, _, _ in events] == [SiteClass.W.index] * 2
        assert all(duration > 0 for _, _, duration in events)
        assert sim.clamped_home_stays == 2

    def test_owner_with_zero_legs_never_charges(self):
        models = point_model_set(
            chain_type_from_label("H-W-H"),
            end1=540.0, lengths=(0.0, 0.0), velocities=(40.0, 40.0),
            dwells=(120.0,),
        )
        config = FleetConfig(p_own=1.0, n_ev=1, q_pro=Q_DEFAULT, seed=1)
        sim = simulate(config, models)
        assert sim.site.size == 0
        # "Zero" legs carry the point-model's ~1e-9 kernel jitter.
        assert sim.soc_min == pytest.approx(1.0, abs=1e-9)

    def test_missing_model_is_configuration_error(self, fixture_models):
        proportions = np.zeros(len(CHAIN_TYPES))
        proportions[0] = 1.0
        with pytest.raises(ConfigurationError, match="missing fitted model"):
            ModelSet(proportions, {})
        with pytest.raises(ConfigurationError, match="missing fitted model"):
            ModelSet(proportions, {key: model for key, model in fixture_models.models.items()
                                   if key[0] == CHAIN_TYPES[0] and key[1:] != (FEATURE_DWELL, 1)})
        with pytest.raises(ConfigurationError, match="no positive mass"):
            ModelSet(np.zeros(len(CHAIN_TYPES)), {})
        with pytest.raises(ConfigurationError, match="full chain-type enumeration"):
            ModelSet(np.ones(3), {})


class TestAccumulateLoads:
    def test_single_event_proration(self):
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT)
        events = [(SiteClass.W.index, DAY_MINUTES + 480.0, 30.0)]  # day-2 08:00-08:30
        bundle = accumulate(events, config)
        w = bundle.site_power_kw[SiteClass.W.index]
        assert w[32] == 60.0 and w[33] == 60.0
        assert w.sum() == 120.0
        for site in (SiteClass.H, SiteClass.SE, SiteClass.SR, SiteClass.O):
            assert not bundle.site_power_kw[site.index].any()
        # Station composite: only the W column carries weight here (0.1).
        assert bundle.station.power_kw[32] == pytest.approx(6.0)

    def test_partial_slot_proration(self):
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT)
        events = [(SiteClass.SE.index, DAY_MINUTES + 487.5, 15.0)]  # straddles two slots
        bundle = accumulate(events, config)
        se = bundle.site_power_kw[SiteClass.SE.index]
        assert se[32] == pytest.approx(30.0) and se[33] == pytest.approx(30.0)

    def test_zero_weights_zero_station(self):
        config = FleetConfig(n_ev=0, q_pro=(0.0,) * 5)
        events = [(i, DAY_MINUTES + 600.0, 45.0) for i in range(5)]
        bundle = accumulate(events, config)
        assert not bundle.station.power_kw.any()

    def test_unit_loads_dot_product(self):
        ones = np.ones((5, 96))
        station = station_composite(Q_DEFAULT, ones)
        assert np.all(station == pytest.approx(0.54))

    def test_truncation_at_horizon(self):
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT)
        events = [(SiteClass.H.index, HORIZON_MINUTES - 10.0, 60.0)]
        bundle = accumulate(events, config)
        # 10 of 60 minutes fall inside the axis.
        total_kwh = bundle.site_power_kw[SiteClass.H.index].sum() * config.slot_minutes / 60.0
        assert total_kwh == pytest.approx(60.0 * 10.0 / 60.0)

    def test_event_past_horizon_ignored(self):
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT)
        bundle = accumulate([(0, HORIZON_MINUTES + 5.0, 30.0)], config)
        assert not bundle.site_power_kw[SiteClass.H.index].any()

    @settings(max_examples=60, deadline=None)
    @given(
        events=st.lists(
            st.tuples(st.integers(0, 4), st.floats(-200.0, 3000.0), st.floats(0.0, 600.0)),
            min_size=1, max_size=30,
        ),
        slot_minutes=st.sampled_from([5, 15, 30, 60]),
    )
    def test_matches_per_event_loop(self, events, slot_minutes):
        """The array accumulator adds the same terms in the same order as
        the per-event loop it replaced, so the sums are equal bit for bit."""
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT, slot_minutes=slot_minutes)
        slot = float(slot_minutes)
        n_slots = int(HORIZON_MINUTES / slot)
        reference = np.zeros((5, n_slots))
        for site, start, duration in events:
            a = max(0.0, start)
            b = min(start + duration, HORIZON_MINUTES)
            if b <= a:
                continue
            for i in range(int(a // slot), min(int(np.ceil(b / slot)), n_slots)):
                overlap = min(b, (i + 1) * slot) - max(a, i * slot)
                if overlap > 0:
                    reference[site, i] += config.p_charging_kw * (overlap / slot)
        site, start, duration = (np.array(column) for column in zip(*events))
        power = _accumulate_site_power(site, start, duration, config)
        assert np.array_equal(power, reference)

    def test_reported_window_slicing(self):
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT)
        events = [(SiteClass.W.index, 1440.0 + 480.0, 30.0)]  # day-2 morning
        bundle = accumulate(events, config)
        w = bundle.site_power_kw[SiteClass.W.index]
        assert len(w) == 96
        assert bundle.station.slot_start_min[0] == 0
        assert w[32] == 60.0


class TestRunForecast:
    def test_empty_fleet(self, fixture_models):
        config = FleetConfig(n_ev=0, q_pro=Q_DEFAULT, seed=5)
        result = run_forecast(config, fixture_models)
        assert result.n_events == 0
        assert not result.bundle.station.power_kw.any()
        assert result.soc_min is None

    def test_energy_conservation(self, fixture_models):
        config = FleetConfig(n_ev=1500, q_pro=Q_DEFAULT, seed=21)
        result = run_forecast(config, fixture_models)
        assert sum(result.site_energy_full_kwh) == pytest.approx(
            result.event_energy_kwh, rel=1e-9
        )

    def test_station_is_exact_weighted_sum(self, fixture_models):
        config = FleetConfig(n_ev=800, q_pro=Q_DEFAULT, seed=9)
        bundle = run_forecast(config, fixture_models).bundle
        station = station_composite(Q_DEFAULT, bundle.site_power_kw)
        assert np.array_equal(bundle.station.power_kw, station)

    def test_soc_bounds(self, fixture_models):
        result = run_forecast(FleetConfig(n_ev=2000, q_pro=Q_DEFAULT, seed=3), fixture_models)
        assert 0.0 <= result.soc_min and result.soc_max <= 1.0

    def test_thread_count_does_not_change_output(self, fixture_models):
        curves = []
        for threads in (1, 2, 8):
            config = FleetConfig(n_ev=777, q_pro=Q_DEFAULT, seed=17)
            bundle = run_forecast(config, fixture_models, threads=threads).bundle
            curves.append(bundle.site_power_kw)
        assert np.array_equal(curves[0], curves[1])
        assert np.array_equal(curves[0], curves[2])

    def test_private_posts_never_increase_station_energy(self, fixture_models):
        def total_energy(p_own):
            config = FleetConfig(n_ev=2000, p_own=p_own, q_pro=Q_DEFAULT, seed=31)
            return run_forecast(config, fixture_models).event_energy_kwh
        assert total_energy(1.0) <= total_energy(0.0)

    def test_block_streams_are_stable(self):
        a = _block_rng(99, 7).random(4)
        b = _block_rng(99, 7).random(4)
        c = _block_rng(99, 8).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("sparse", [False, True], ids=["mixed", "sparse"])
    def test_batched_draws_equal_sample_many(self, fixture_models, sparse):
        """A batch's chain features, inverted with one ndtri call per chain
        type, equal one sample_many call per block and model, value for
        value, each block's in its documented order. ``sparse``: one type has
        no chain in the middle block, and another has one chain in the batch."""
        type_models = per_type_models(fixture_models)
        n = 2 * 256 + 100
        block = np.tile(np.arange(n) // 256, 3)  # chains are day-major over the vehicles
        rng = np.random.default_rng(1)
        types = sorted(type_models)
        if sparse:
            ctype = rng.choice(types[2:], 3 * n)
            ctype[(block != 1) & (rng.random(3 * n) < 0.2)] = types[0]
            ctype[n + 300] = types[1]
        else:
            ctype = rng.choice(types, 3 * n)
        rngs = [np.random.default_rng(b) for b in (2, 3, 4)]
        got = _draw_batch_chains(rngs, ctype, block, fixture_models)

        end1 = np.empty(ctype.size)
        lengths, velocity = np.zeros((3, ctype.size)), np.ones((3, ctype.size))
        dwells = np.zeros((2, ctype.size))
        for b, seed in enumerate((2, 3, 4)):
            rng = np.random.default_rng(seed)
            mine = np.flatnonzero(block == b)
            for k in range(len(CHAIN_TYPES)):
                chains = mine[ctype[mine] == k]
                if chains.size == 0:
                    continue
                fitted = type_models[k]
                end1[chains] = fitted[FEATURE_END_TIME, 1].sample_many(rng, chains.size)
                for t in range(CHAIN_TYPES[k].n_trips):
                    lengths[t, chains] = fitted[FEATURE_LENGTH, t + 1].sample_many(rng, chains.size)
                    velocity[t, chains] = fitted[FEATURE_VELOCITY, t + 1].sample_many(
                        rng, chains.size
                    )
                for j in range(CHAIN_TYPES[k].n_trips - 1):
                    dwells[j, chains] = fitted[FEATURE_DWELL, j + 1].sample_many(rng, chains.size)
        for batched, reference in zip(got, (end1, lengths, velocity, dwells)):
            assert np.array_equal(batched, reference)

    def test_warm_run_heap_peak(self, fixture_models):
        """A warm 10,000-vehicle run's traced heap peaks at or below 1.32 MiB:
        two-block batches that hold every chain type's draws at once peak
        there (numpy 2.4.6), and larger batches must hold one type's at a time."""
        config = FleetConfig(n_ev=10_000, q_pro=Q_DEFAULT, seed=20170)
        run_forecast(config, fixture_models)
        tracemalloc.start()
        try:
            run_forecast(config, fixture_models)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.32 * 2**20

    def test_pick_stream_is_sample_many_stream(self, fixture_models):
        """``sample_many`` feeds ``pick`` its next 2 * count uniforms."""
        model = next(m for key, m in fixture_models.models.items() if key[1] == FEATURE_VELOCITY)
        draws = model.sample_many(np.random.default_rng(8), 50)
        uniforms = np.random.default_rng(8).random((2, 50))
        assert np.array_equal(draws, invert(*model.pick(uniforms)))

    def test_committed_artifacts_rebuild_the_forecast_draws(self, fixture_models):
        """The committed case study's manifest and ``models.json`` are enough
        to sample: every model rebuilt from them picks and inverts, for the
        same uniforms, the draws the forecast makes from the fitted models,
        bit for bit. Each velocity model's support starts at 1 km/h."""
        case = REPO_ROOT / "out" / "case_study"
        _, rebuilt = rebuilt_models(case / "ingest", case / "forecast" / "models.json")
        assert list(rebuilt) == [sample_key(*key) for key in fixture_models.models]
        for key in fixture_models.models:
            if key[1] == FEATURE_VELOCITY:
                assert rebuilt[sample_key(*key)].support[0] == 1.0
        type_models = {
            k: {key: rebuilt[sample_key(CHAIN_TYPES[k], *key)] for key in fitted}
            for k, fitted in per_type_models(fixture_models).items()
        }
        # 30 vehicles in one block: 90 chains, 15 of every type in use.
        ctype = np.random.default_rng(3).permutation(np.repeat(sorted(type_models), 15))
        got = _draw_batch_chains([np.random.default_rng(9)], ctype, np.zeros_like(ctype),
                                 fixture_models)
        want = _draw_chains(np.random.default_rng(9), ctype, type_models)
        for forecast, artifacts in zip(got, want):
            assert np.array_equal(forecast, artifacts)
        assert got[2][0].min() >= 1.0

    def test_invalid_config_rejected(self, fixture_models):
        with pytest.raises(ConfigurationError):
            run_forecast(FleetConfig(n_ev=-1), fixture_models)
        with pytest.raises(ConfigurationError):
            run_forecast(FleetConfig(slot_minutes=7), fixture_models)

    def test_nan_charging_power_is_configuration_error(self, fixture_models):
        # It once gave 0 events and a zero load curve.
        with pytest.raises(ConfigurationError, match="p_charging_kw"):
            run_forecast(FleetConfig(n_ev=300, p_charging_kw=math.nan), fixture_models)

    def test_overflowing_fleet_value_is_data_error(self, fixture_models):
        # A trip's energy overflows, where numpy would only warn.
        with pytest.raises(DataError, match="too large"):
            run_forecast(FleetConfig(n_ev=300, u_kwh_per_km=1e308), fixture_models)

    @pytest.mark.parametrize("duration", [5e-324, 1e-310], ids=["zero_divisor", "overflow"])
    def test_tiny_duration_is_data_error_naming_its_model(self, fixture_ingest, duration):
        """A positive duration that dividing by 60 zeroes, or that a length
        divided by overflows, gives an inf velocity, which the fit refuses."""
        _, _, dataset, _ = fixture_ingest
        key = (chain_type_from_label("H-W-H"), FEATURE_DURATION, 2)
        column = dataset.samples[key].copy()
        column[0] = duration
        tiny = ChainFeatureDataset(dataset.counts, {**dataset.samples, key: column})
        with pytest.raises(DataError, match="^H-W-H velocity_kmh #2: "):
            ModelSet.from_dataset(tiny)


class TestFleetProperties:
    """Invariants over generated fleets (deterministic examples, no database)."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_ev=st.integers(1, 600),
        p_own=st.floats(0.0, 1.0),
        c_ev_kwh=st.floats(10.0, 100.0),
        u_kwh_per_km=st.floats(0.05, 0.5),
        p_charging_kw=st.floats(3.0, 150.0),
        soc_reserve=st.floats(0.0, 0.9),
        slot_minutes=st.sampled_from([5, 15, 30, 60]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_soc_bounds_and_energy_conservation(self, fixture_models, **fleet):
        result = run_forecast(FleetConfig(q_pro=Q_DEFAULT, **fleet), fixture_models)
        assert 0.0 <= result.soc_min <= result.soc_max <= 1.0
        residual = abs(sum(result.site_energy_full_kwh) - result.event_energy_kwh)
        assert residual <= 1e-9 * result.event_energy_kwh

    @settings(max_examples=15, deadline=None)
    @given(n_ev=st.integers(257, 1100), seed=st.integers(0, 2**32 - 1))
    def test_block_prefix_matches_smaller_fleet(self, fixture_models, n_ev, seed):
        """The first k blocks of an n-vehicle run equal a k*256-vehicle run."""
        k = n_ev // 256
        config = FleetConfig(n_ev=n_ev, q_pro=Q_DEFAULT, seed=seed)
        power = 0.0
        for block in range(k):
            sim = simulate(config, fixture_models, block)
            power = power + _accumulate_site_power(sim.site, sim.start_min, sim.duration_min, config)
        prefix = run_forecast(FleetConfig(n_ev=k * 256, q_pro=Q_DEFAULT, seed=seed), fixture_models)
        site = prefix.bundle.site_power_kw
        assert np.array_equal(site, power[:, -site.shape[1]:])

    @settings(max_examples=24, deadline=None)
    @given(
        n_ev=st.sampled_from(sorted({1, 255, 256, 257, *(
            m * _BATCH_BLOCKS * _VEHICLE_BLOCK + d for m, d in ((1, -1), (1, 0), (1, 1), (2, 3))
        )})),
        p_own=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**63 - 1),
        batch=st.sampled_from([1, 2, 3, _BATCH_BLOCKS]),
    )
    def test_batched_run_equals_per_block_oracle(self, fixture_models, n_ev, p_own, seed, batch):
        """Batching, at any batch size, changes no bit of any result: the
        curves and counters of ``run_forecast`` equal the per-block oracle's."""
        config = FleetConfig(n_ev=n_ev, p_own=p_own, q_pro=Q_DEFAULT, seed=seed)
        power, n_events, event_energy, infeasible, clamped, soc_min, soc_max = oracle_forecast(
            config, fixture_models
        )
        with mock.patch.object(chargecast.forecast, "_BATCH_BLOCKS", batch):
            result = run_forecast(config, fixture_models)
        expected = _bundle_from_site_power(power, config)
        assert np.array_equal(result.bundle.site_power_kw, expected.site_power_kw)
        assert np.array_equal(result.bundle.station.power_kw, expected.station.power_kw)
        dt_h = config.slot_minutes / 60.0
        assert result.site_energy_full_kwh == tuple(float(row.sum() * dt_h) for row in power)
        assert result.n_events == n_events
        assert result.event_energy_kwh == event_energy
        assert result.infeasible_trips == infeasible
        assert result.clamped_home_stays == clamped
        assert (result.soc_min, result.soc_max) == (soc_min, soc_max)
