"""Monte-Carlo forecast of quick-charge station load from trip-chain models.

Each vehicle simulates ``SIMULATED_DAYS`` chained days on one axis of
``HORIZON_MINUTES`` (the days before the last are warm-up; only the final
24 h are reported). Per day it draws a chain type, trip-1 ending time,
per-trip lengths and average velocities, and midway dwell durations from the
fitted densities, then propagates battery state along the chain. Whenever
the state of charge would drop below the reserve after the next trip, the
vehicle quick-charges at the current site: duration is capped by the stay
and by the time to reach full charge.

Vehicles are simulated as arrays, a batch of fixed 256-vehicle blocks at a
time. A batch draws its chains one chain type at a time, so that it holds
only that type's kernel picks at once; this keeps the heap of a batch of
``_BATCH_BLOCKS`` blocks small. Reproducibility contract: block ``k`` draws
everything from the one RNG stream derived from (master seed, k), in the
order documented on ``_simulate_batch``, and results are reduced per block,
in block order. So they are bit-identical for any batch size and
``threads`` value, and the first k full blocks of a run do not depend on
the fleet size.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .kde import KdeModel, fit_kde, invert, overflow_as_data_error
from .survey import (
    CHAIN_TYPES,
    FEATURE_DURATION,
    FEATURE_DWELL,
    FEATURE_END_TIME,
    FEATURE_LENGTH,
    SITE_CLASSES,
    ChainFeatureDataset,
    ChainType,
    SiteClass,
    chain_type_proportions,
    sample_key,
)
from .survey import feature_keys as column_keys

DAY_MINUTES = 1440.0
SIMULATED_DAYS = 2        # the one owner of the simulated day count
HORIZON_MINUTES = SIMULATED_DAYS * DAY_MINUTES
_VEHICLE_BLOCK = 256      # fixed RNG-stream and reduction granularity
_BATCH_BLOCKS = 5         # blocks simulated with one set of array operations
_MIN_VELOCITY_KMH = 1.0   # lower end of every velocity model's support
FEATURE_VELOCITY = "velocity_kmh"  # derived from the manifest, in ModelSet.from_dataset alone
_MAX_N_EV = 1_000_000     # about 4 s of simulation at the case study's 0.04 s per 10,000 EVs


_KIND = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
         tuple: "a list"}


def convert_like(value, default, name: str):
    """``value`` as the type of ``default``, or else ``ConfigurationError``: a bool takes only a
    bool, an int a Python or numpy integer, a float a Python or numpy integer or float that a float
    holds finitely, a tuple a list, tuple or array of its first element's type, a str a str."""
    kind = type(default)
    if kind is tuple and isinstance(value, list | tuple | np.ndarray) and getattr(value, "ndim", 1):
        return tuple(convert_like(v, default[0], f"{name}[{i}]") for i, v in enumerate(value))
    if kind is bool or isinstance(value, bool | np.bool_):
        if type(value) is kind:  # bool subclasses int: true/false is never a number, nor 1 a bool
            return value
    elif kind is int and isinstance(value, int | np.integer):
        return int(value)
    elif kind is float and isinstance(value, int | float | np.integer | np.floating):
        number = float(value) if isinstance(value, np.generic) else value  # float16 < max overflows
        if abs(number) <= sys.float_info.max:  # not NaN, ±inf or an integer too large for a float
            return float(number)
    elif isinstance(value, kind):
        return kind(value)
    raise ConfigurationError(f"{name} must be {_KIND[kind]}, got {value!r}")


def convert_fields(config) -> None:
    """Convert each field of the frozen dataclass ``config`` that has a default, in place."""
    for f in fields(config):
        if f.default is not MISSING:
            value = convert_like(getattr(config, f.name), f.default, f.name)
            object.__setattr__(config, f.name, value)


@dataclass(frozen=True)
class FleetConfig:
    """Inputs of the fleet simulation, checked once when built; each field
    takes the type of its default (:func:`convert_like`).

    ``q_pro`` weights the five site-class load curves into the station
    composite (share of each site function in the station's service area).
    The fields, less ``seed``, are the config file's ``fleet`` keys.
    """

    p_own: float = 0.5
    n_ev: int = 10000
    p_charging_kw: float = 60.0
    c_ev_kwh: float = 40.0
    u_kwh_per_km: float = 0.2
    q_pro: tuple[float, ...] = (0.04, 0.1, 0.2, 0.1, 0.1)
    soc_reserve: float = 0.3
    slot_minutes: int = 15
    seed: int = 20170

    def __post_init__(self):
        convert_fields(self)
        if not 0 <= self.n_ev <= _MAX_N_EV:
            raise ConfigurationError(f"n_ev must be in [0, {_MAX_N_EV}]")
        for name in ("p_charging_kw", "c_ev_kwh", "u_kwh_per_km"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be > 0 and finite")
        if not 0.0 <= self.p_own <= 1.0:
            raise ConfigurationError("p_own must be in [0, 1]")
        if len(self.q_pro) != len(SITE_CLASSES):
            raise ConfigurationError("q_pro must have one weight per site class")
        if any(not 0.0 <= q <= 1.0 for q in self.q_pro):
            raise ConfigurationError("q_pro entries must be in [0, 1]")
        if not 0.0 <= self.soc_reserve < 1.0:
            raise ConfigurationError("soc_reserve must be in [0, 1)")
        if self.slot_minutes <= 0 or 1440 % self.slot_minutes != 0:
            raise ConfigurationError("slot_minutes must divide 1440")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


@dataclass
class LoadProfile:
    """Average power per uniform slot, in kW."""

    slot_start_min: np.ndarray
    power_kw: np.ndarray
    slot_minutes: int

    def energy_kwh(self) -> float:
        return float(self.power_kw.sum() * self.slot_minutes / 60.0)


@dataclass
class SiteLoadBundle:
    """The reported day's site x slot power in kW, rows in ``SITE_CLASSES``
    order, and the station composite, whose slot grid the rows share."""

    site_power_kw: np.ndarray
    station: LoadProfile


def station_composite(q_pro: Sequence[float], site_power: np.ndarray) -> np.ndarray:
    """Weighted sum of the five site curves, evaluated slot-wise.

    Fixed expression (no BLAS dispatch) so the CSV round-trip of station =
    sum(q_i * site_i) is reproducible bit-for-bit.
    """
    out = q_pro[0] * site_power[0]
    for i in range(1, len(q_pro)):
        out = out + q_pro[i] * site_power[i]
    return out


# ---------------------------------------------------------------------------
# Battery-state primitives
# ---------------------------------------------------------------------------

def soc_after_trip(soc, length_km, u_kwh_per_km: float, c_ev_kwh: float):
    """State of charge after driving ``length_km``; clamps at 0.

    Returns (new_soc, infeasible) where infeasible flags a trip whose
    energy need exceeded the remaining charge. Elementwise on arrays.
    """
    new_soc = soc - u_kwh_per_km * length_km / c_ev_kwh
    return np.maximum(new_soc, 0.0), new_soc < 0.0


def needs_charge(soc, next_length_km, u_kwh_per_km: float, c_ev_kwh: float, reserve: float):
    """True when the next trip would leave less than the reserve fraction."""
    return soc - u_kwh_per_km * next_length_km / c_ev_kwh <= reserve


def charge_duration_hours(soc, t_stay_hours, c_ev_kwh: float, p_charging_kw: float):
    """Charging time: the stay, capped by the time to reach full charge."""
    return np.minimum(t_stay_hours, (1.0 - soc) * c_ev_kwh / p_charging_kw)


# ---------------------------------------------------------------------------
# Fitted model bundle
# ---------------------------------------------------------------------------

def feature_keys(chain_type: ChainType) -> list[tuple[str, int]]:
    """(feature, 1-based index) of each model of a chain type, in draw order: its
    manifest columns, with each trip's average velocity in place of its duration."""
    return [(FEATURE_VELOCITY if feature == FEATURE_DURATION else feature, index)
            for feature, index in column_keys(chain_type)]


def _feature_support(feature: str, index: int, max_value: float) -> tuple[float, float]:
    if feature == FEATURE_END_TIME and index == 1:
        # Trip 1 ends within its day; widen in whole days only if the data
        # itself ran past midnight.
        hi = DAY_MINUTES * math.ceil(max(max_value, 1.0) / DAY_MINUTES)
        return (0.0, hi)
    if feature == FEATURE_VELOCITY:
        return (_MIN_VELOCITY_KMH, math.inf)
    return (0.0, math.inf)


class ModelSet:
    """Fitted densities for every (chain type, feature, index) in use. Some
    chain type has positive probability, and each such type has all of its
    :func:`feature_keys` models, or else ``ConfigurationError``."""

    def __init__(self, proportions: np.ndarray, models: dict[tuple[ChainType, str, int], KdeModel]):
        self.proportions = np.asarray(proportions, dtype=float)
        self.models = models
        if self.proportions.shape != (len(CHAIN_TYPES),):
            raise ConfigurationError("proportions must cover the full chain-type enumeration")
        if not np.any(self.proportions > 0):
            raise ConfigurationError("chain-type proportions have no positive mass")
        for k in np.flatnonzero(self.proportions > 0):
            for key in feature_keys(CHAIN_TYPES[k]):
                self.get(CHAIN_TYPES[k], *key)

    @classmethod
    @np.errstate(divide="ignore", over="ignore")  # fit_kde rejects a tiny duration's inf velocity
    def from_dataset(cls, dataset: ChainFeatureDataset) -> "ModelSet":
        """Fit each counted type's models; this alone derives velocity, trip k's
        as ``length / (duration / 60.0)`` over the chains whose trip k has length > 0."""
        models: dict[tuple[ChainType, str, int], KdeModel] = {}
        for ctype in dataset.counts:
            for feature, index in column_keys(ctype):
                samples = dataset.samples[ctype, feature, index]
                if feature == FEATURE_DURATION:  # the trip's velocity model takes its place
                    length = dataset.samples[ctype, FEATURE_LENGTH, index]
                    moving = length > 0
                    feature, samples = FEATURE_VELOCITY, length[moving] / (samples[moving] / 60.0)
                try:  # an empty array reaches fit_kde, which rejects it
                    support = _feature_support(feature, index, np.max(samples, initial=0.0))
                    models[(ctype, feature, index)] = fit_kde(samples, support)
                except DataError as exc:
                    raise DataError(f"{ctype.label} {feature} #{index}: {exc}") from None
        return cls(chain_type_proportions(dataset), models)

    def get(self, ctype: ChainType, feature: str, index: int) -> KdeModel:
        try:
            return self.models[(ctype, feature, index)]
        except KeyError:
            raise ConfigurationError(
                f"missing fitted model for {ctype.label} {feature} #{index}"
            ) from None

    def save(self, path: str | Path) -> None:
        """Write the bandwidth and support (``null`` for an infinite end) of each
        model under its :func:`sample_key`; the support is the interval every draw
        lies in. The samples and proportions are the dataset manifest's: a reader
        rebuilds a model as ``KdeModel(samples[key], bandwidth, support)``, which
        draws as the forecast does, a velocity model's samples being its trip's
        ``length_km / (duration_min / 60.0)`` over the positive lengths, in column
        order. The file is valid only with the manifest this run read: the
        ``paths.dataset_dir`` that ``forecast/summary.json`` echoes, else ``<out>/ingest``."""
        models = {}
        for key, model in self.models.items():
            support = [float(v) if math.isfinite(v) else None for v in model.support]
            models[sample_key(*key)] = {"bandwidth": float(model.bandwidth), "support": support}
        Path(path).write_text(json.dumps({"schema": "fitted-models/v2", "models": models}))


# ---------------------------------------------------------------------------
# Block simulation
# ---------------------------------------------------------------------------

# Site index of each chain type's midway stops; -1 pads 2-trip types, so
# midway stop t of a chain exists exactly when its entry is >= 0.
_MIDWAY_SITE = np.array(
    [[s.index for s in ct.midway] + [-1] * (2 - len(ct.midway)) for ct in CHAIN_TYPES]
)


def _block_rng(seed: int, block: int) -> np.random.Generator:
    """Independent, reproducible stream of one vehicle block."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))


class _BatchSim(NamedTuple):
    """One batch's charge events (one array entry per event) and counters."""

    vehicle: np.ndarray       # index within the batch; its block is vehicle // 256
    site: np.ndarray          # index into SITE_CLASSES
    start_min: np.ndarray     # absolute minute on the simulation axis
    duration_min: np.ndarray
    infeasible: int
    clamped_home_stays: int   # vehicle-days whose next day departs before they arrive home
    soc_min: float
    soc_max: float


def _draw_batch_chains(rngs: list, ctype: np.ndarray, block: np.ndarray,
                       models: ModelSet) -> tuple:
    """Step 2 of ``_simulate_batch``: ``(end1, lengths, velocity, dwells)``
    of chains of types ``ctype``, chain i from block stream ``rngs[block[i]]``,
    one row per trip or midway stop (length 0, velocity 1 and dwell 0 past a
    chain's last trip). One chain type at a time: each of its models picks
    once for the batch, into one row of ``(models, chains)`` arrays, and one
    ``invert`` call turns the type's picks into draws in place."""
    n = ctype.size
    order = np.argsort(block, kind="stable")  # the chains block by block
    rows = {FEATURE_END_TIME: np.empty((1, n)), FEATURE_LENGTH: np.zeros((3, n)),
            FEATURE_VELOCITY: np.ones((3, n)), FEATURE_DWELL: np.zeros((2, n))}
    for k in np.flatnonzero(np.bincount(ctype)):
        chains = order[ctype[order] == k]
        keys = feature_keys(CHAIN_TYPES[k])
        # Row 2j (2j + 1): model j's kernel-pick (placement) uniforms, per block.
        uniforms = np.hstack([rng.random((2 * len(keys), count)) for rng, count
                              in zip(rngs, np.bincount(block[chains], minlength=len(rngs)))])
        centre, scale, p = np.empty((3, len(keys), chains.size))
        lo, hi = np.empty((2, len(keys), 1))
        for j, (feature, index) in enumerate(keys):
            model = models.get(CHAIN_TYPES[k], feature, index)
            centre[j], scale[j], p[j], lo[j], hi[j] = model.pick(uniforms[2 * j:2 * j + 2])
        del uniforms  # freed before ndtri's temporaries are made
        draws = invert(centre, scale, p, lo, hi)
        for (feature, index), row in zip(keys, draws):
            rows[feature][index - 1, chains] = row
    end1, lengths, velocity, dwells = rows.values()
    return end1[0], lengths, velocity, dwells


def _simulate_batch(config: FleetConfig, models: ModelSet, blocks: range) -> _BatchSim:
    """Draw the vehicles of ``blocks`` as one set of arrays, and :func:`_propagate` them.

    Each vehicle drives ``SIMULATED_DAYS`` days and then a lookahead chain,
    whose first trip settles the last evening's home-charging decision. The
    ``b`` vehicles of block ``k`` draw from ``_block_rng(seed, k)`` in this order:

    1. ``b`` ownership uniforms (below ``p_own``: a private post), ``b`` initial-SOC
       uniforms ``s``, soc0 = 0.5 + 0.5 s for non-owners (drawn for owners too, so that
       ``p_own`` does not shift later draws), then ``(SIMULATED_DAYS + 1) b`` chain-type
       uniforms: day 0 of every vehicle, then each later day's, then the lookahead's;
    2. per chain type present, in enumeration order, per model in draw order
       (trip-1 end time, each trip's length and velocity, then each midway
       dwell; each drawn inside its model's support): a kernel-pick uniform
       per chain of the type, in the order of step 1, then a placement
       uniform per chain.
    """
    rngs = [_block_rng(config.seed, k) for k in blocks]
    step1 = np.hstack([
        rng.random((3 + SIMULATED_DAYS, min(_VEHICLE_BLOCK, config.n_ev - k * _VEHICLE_BLOCK)))
        for rng, k in zip(rngs, blocks)])
    owner = step1[0] < config.p_own
    soc = np.where(owner, 1.0, 0.5 + 0.5 * step1[1])
    # Cumulative rounding can leave the total a hair under 1; a tail draw
    # must still land on a type that actually has models.
    ctype = np.minimum(
        np.searchsorted(np.cumsum(models.proportions), step1[2:].ravel(), side="right"),
        np.flatnonzero(models.proportions > 0)[-1],
    )
    block = np.tile(np.arange(owner.size) // _VEHICLE_BLOCK, SIMULATED_DAYS + 1)
    return _propagate(config, owner, soc, ctype, *_draw_batch_chains(rngs, ctype, block, models))


def _propagate(config: FleetConfig, owner, soc, ctype,
               end1, lengths, velocity, dwells) -> _BatchSim:
    """Drive and charge ``n = owner.size`` vehicles from ``soc``; it draws nothing. Chain
    ``d n + v`` of ``ctype`` and of the ``_draw_batch_chains`` arrays is vehicle v's on
    day d, and day ``SIMULATED_DAYS`` is the lookahead."""
    n = owner.size
    u, c_ev = config.u_kwh_per_km, config.c_ev_kwh
    p_chg, reserve = config.p_charging_kw, config.soc_reserve
    # Trip and dwell rows are zero past a chain's last trip, so those steps
    # below move neither the clock nor the charge.
    drive_min = 60.0 * lengths / velocity
    midway = _MIDWAY_SITE[ctype]
    vehicle = np.arange(n)
    home = np.full(n, SiteClass.H.index)
    soc_min = soc_max = soc
    infeasible = clamped = 0
    events = []

    def charge(trigger, site, start, stay_min):
        nonlocal soc, soc_max
        dur_h = charge_duration_hours(soc, stay_min / 60.0, c_ev, p_chg)
        fire = trigger & (dur_h > 0)
        events.append((vehicle[fire], site[fire], start[fire], dur_h[fire] * 60.0))
        soc = np.where(fire, np.minimum(1.0, soc + dur_h * p_chg / c_ev), soc)
        soc_max = np.maximum(soc_max, soc)

    for day in range(SIMULATED_DAYS):
        cur = slice(day * n, (day + 1) * n)
        nxt = slice((day + 1) * n, (day + 2) * n)
        end_t = DAY_MINUTES * day + end1[cur]
        for t in range(3):
            if t > 0:
                end_t = end_t + dwells[t - 1, cur] + drive_min[t, cur]
            soc, flag = soc_after_trip(soc, lengths[t, cur], u, c_ev)
            infeasible += int(np.count_nonzero(flag))
            soc_min = np.minimum(soc_min, soc)
            if t < 2:
                # Midway site t: arrival at end_t, stay dwells[t].
                stop = midway[cur, t]  # -1 where the chain has no stop t
                trigger = (stop >= 0) & needs_charge(soc, lengths[t + 1, cur], u, c_ev, reserve)
                charge(trigger, stop, end_t, dwells[t, cur])

        # Home arrival; owners recharge overnight off-station, at their post.
        next_start = DAY_MINUTES * (day + 1) + end1[nxt] - drive_min[0, nxt]
        clamped += int(np.count_nonzero(next_start < end_t))
        trigger = ~owner & needs_charge(soc, lengths[0, nxt], u, c_ev, reserve)
        charge(trigger, home, end_t, np.maximum(0.0, next_start - end_t))
        soc = np.where(owner, 1.0, soc)

    return _BatchSim(*(np.concatenate(parts) for parts in zip(*events)),
                     infeasible, clamped, float(soc_min.min()), float(soc_max.max()))


# ---------------------------------------------------------------------------
# Load accumulation
# ---------------------------------------------------------------------------

def _accumulate_site_power(
    site: np.ndarray,
    start_min: np.ndarray,
    duration_min: np.ndarray,
    config: FleetConfig,
    n_rows: int = len(SITE_CLASSES),
) -> np.ndarray:
    """Average power per (row, slot) of the simulated axis, from charge events
    given as arrays, each in row ``site`` (``5 k + site`` in a batch's block k).

    Events are truncated at the axis ends and prorated within partially
    covered slots. Each (row, slot) cell sums its contributions in event
    order.
    """
    slot = float(config.slot_minutes)
    n_slots = int(round(HORIZON_MINUTES / slot))
    a = np.maximum(0.0, start_min)
    b = np.minimum(start_min + duration_min, HORIZON_MINUTES)
    keep = b > a
    site, a, b = site[keep], a[keep], b[keep]
    i0 = (a // slot).astype(np.intp)
    count = np.minimum(np.ceil(b / slot).astype(np.intp), n_slots) - i0
    # One row per (event, covered slot), event-major.
    event = np.repeat(np.arange(a.size), count)
    i = i0[event] + np.arange(event.size) - np.repeat(np.cumsum(count) - count, count)
    overlap = np.minimum(b[event], (i + 1) * slot) - np.maximum(a[event], i * slot)
    hit = overlap > 0
    power = np.bincount(
        site[event[hit]] * n_slots + i[hit],
        weights=config.p_charging_kw * (overlap[hit] / slot),
        minlength=n_rows * n_slots,
    )
    return power.reshape(n_rows, n_slots)


def _bundle_from_site_power(site_power: np.ndarray, config: FleetConfig) -> SiteLoadBundle:
    """The last day of a site x slot power matrix and its station composite,
    with slot labels counted from that day's start."""
    slot = config.slot_minutes
    site_power = site_power[:, site_power.shape[1] - int(DAY_MINUTES) // slot:]
    starts = np.arange(site_power.shape[1], dtype=int) * slot
    station = LoadProfile(starts, station_composite(config.q_pro, site_power), slot)
    return SiteLoadBundle(site_power, station)


# ---------------------------------------------------------------------------
# Fleet run
# ---------------------------------------------------------------------------

@dataclass
class ForecastResult:
    """A run's counters and reported bundle. Of the :meth:`summary` keys, ``n_events``,
    ``infeasible_trips``, ``clamped_home_stays``, ``event_energy_kwh``,
    ``site_energy_full_horizon_kwh``, ``soc_min`` and ``soc_max`` count every simulated
    day; ``reported_window`` and ``station_energy_kwh`` cover the reported (last) day only."""

    bundle: SiteLoadBundle
    n_vehicles: int
    n_events: int
    infeasible_trips: int
    clamped_home_stays: int
    soc_min: float | None
    soc_max: float | None
    event_energy_kwh: float
    site_energy_full_kwh: tuple[float, ...]

    def summary(self) -> dict:
        slot = self.bundle.station.slot_minutes
        reported = {  # in LoadProfile.energy_kwh's operation order, to the last bit
            f"site_energy_{site.value}_kwh": float(row.sum() * slot / 60.0)
            for site, row in zip(SITE_CLASSES, self.bundle.site_power_kw)
        }
        return {
            "n_vehicles": self.n_vehicles,
            "n_events": self.n_events,
            "infeasible_trips": self.infeasible_trips,
            "clamped_home_stays": self.clamped_home_stays,
            "soc_min": self.soc_min,
            "soc_max": self.soc_max,
            "event_energy_kwh": self.event_energy_kwh,
            "site_energy_full_horizon_kwh": {
                site.value: e for site, e in zip(SITE_CLASSES, self.site_energy_full_kwh)
            },
            "reported_window": reported,
            "station_energy_kwh": self.bundle.station.energy_kwh(),
        }


@overflow_as_data_error("a sample or fleet value is too large for the forecast")
def run_forecast(
    config: FleetConfig,
    models: ModelSet,
    threads: int = 1,
) -> ForecastResult:
    """Simulate the fleet over ``SIMULATED_DAYS`` days and report the last day's load bundle.
    Neither ``config`` nor ``models`` is checked again: each checked itself when built.

    The vehicles run in batches of ``_BATCH_BLOCKS`` blocks. A larger batch
    repeats the per-batch work (each model's pick, each type's RNG calls, the
    SOC loop's array passes) less often but holds more heap, about 0.23 MB
    per block on the fixture models, which a test in
    ``tests/test_forecast.py`` caps. The RNG streams and the reductions stay
    per 256-vehicle block, in block order. ``threads`` is accepted for
    compatibility and ignored: the vectorized batches run in the calling
    thread, because a thread pool over blocks measured no gain.
    """
    n_blocks = (config.n_ev + _VEHICLE_BLOCK - 1) // _VEHICLE_BLOCK
    n_sites = len(SITE_CLASSES)
    total_power = np.zeros((n_sites, int(round(HORIZON_MINUTES / config.slot_minutes))))
    n_events = infeasible = clamped = 0
    soc_min, soc_max, event_energy = math.inf, -math.inf, 0.0
    for first in range(0, n_blocks, _BATCH_BLOCKS):
        blocks = range(first, min(first + _BATCH_BLOCKS, n_blocks))
        sim = _simulate_batch(config, models, blocks)
        block = sim.vehicle // _VEHICLE_BLOCK
        power = _accumulate_site_power(block * n_sites + sim.site, sim.start_min,
                                       sim.duration_min, config, len(blocks) * n_sites)
        end = np.minimum(sim.start_min + sim.duration_min, HORIZON_MINUTES)
        inside = end - np.maximum(0.0, sim.start_min)
        for k in range(len(blocks)):
            total_power += power[k * n_sites:(k + 1) * n_sites]
            in_block = inside[(block == k) & (inside > 0)]
            event_energy += config.p_charging_kw * float(in_block.sum()) / 60.0
        n_events += sim.site.size
        infeasible += sim.infeasible
        clamped += sim.clamped_home_stays
        soc_min = min(soc_min, sim.soc_min)
        soc_max = max(soc_max, sim.soc_max)

    dt_h = config.slot_minutes / 60.0
    return ForecastResult(
        bundle=_bundle_from_site_power(total_power, config),
        n_vehicles=config.n_ev,
        n_events=n_events,
        infeasible_trips=infeasible,
        clamped_home_stays=clamped,
        soc_min=None if math.isinf(soc_min) else soc_min,
        soc_max=None if math.isinf(soc_max) else soc_max,
        event_energy_kwh=float(event_energy),
        site_energy_full_kwh=tuple(float(row.sum() * dt_h) for row in total_power),
    )
