"""Household travel-survey ingestion: trip records, trip chains, feature samples.

Pipeline: ``parse_records`` reads a trip CSV (NHTS-style column layout) into
validated :class:`TripRecord` rows, ``build_chains`` walks each vehicle-day
once, unwrapping midnight and cutting home-closed chains of 2..3 trips, and
``extract_features`` builds the per-chain-type sample arrays the density
models fit: trip-1 ending time, per-trip length and average velocity, and
per-midway dwell duration. ``save_dataset`` and ``load_dataset`` keep the
counts and those arrays in one JSON manifest, keyed by :func:`sample_key`.

Rejected rows and dropped trip sequences are never silently discarded; they
are counted in an :class:`IngestDiagnostics` summary.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import ConfigurationError, DataError

MILES_TO_KM = 1.609344  # exact statute-mile definition

# Tolerance (minutes) when deciding that an end-before-start row is a
# genuine past-midnight trip: reported duration must match the wrapped gap.
_WRAP_DURATION_TOL_MIN = 2.0


class SiteClass(Enum):
    """Destination class of a trip. Order is fixed and used for vector indexing."""

    H = "H"    # home
    W = "W"    # work
    SE = "SE"  # shopping & errands
    SR = "SR"  # social & recreation
    O = "O"    # other

    @property
    def index(self) -> int:
        return SITE_CLASSES.index(self)


SITE_CLASSES: tuple[SiteClass, ...] = (
    SiteClass.H, SiteClass.W, SiteClass.SE, SiteClass.SR, SiteClass.O,
)

# Site classes that can appear as a midway stop of a home-closed chain.
MIDWAY_CLASSES: tuple[SiteClass, ...] = (
    SiteClass.W, SiteClass.SE, SiteClass.SR, SiteClass.O,
)


@dataclass(frozen=True)
class ChainType:
    """A home-closed chain shape, identified by its midway site classes.

    One midway site means a simple 2-trip chain (H-X-H), two midway sites a
    complex 3-trip chain (H-X-Y-H). The taxonomy is closed: 4 + 16 types.
    """

    midway: tuple[SiteClass, ...]

    def __post_init__(self):
        if not 1 <= len(self.midway) <= 2:
            raise ValueError("chain type must have 1 or 2 midway sites")
        if any(s is SiteClass.H for s in self.midway):
            raise ValueError("H cannot be a midway site")

    @property
    def n_trips(self) -> int:
        return len(self.midway) + 1

    @property
    def label(self) -> str:
        return "-".join(["H", *[s.value for s in self.midway], "H"])

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.label


def _enumerate_chain_types() -> tuple[ChainType, ...]:
    simple = [ChainType((x,)) for x in MIDWAY_CLASSES]
    complex_ = [ChainType((x, y)) for x in MIDWAY_CLASSES for y in MIDWAY_CLASSES]
    return tuple(simple + complex_)


#: Fixed enumeration of the 20 chain types; index order is the canonical
#: order of every proportion vector in the toolkit.
CHAIN_TYPES: tuple[ChainType, ...] = _enumerate_chain_types()
CHAIN_TYPE_INDEX: dict[ChainType, int] = {t: i for i, t in enumerate(CHAIN_TYPES)}
_CHAIN_TYPE_BY_LABEL: dict[str, ChainType] = {t.label: t for t in CHAIN_TYPES}
_CHAIN_TYPE_BY_MIDWAY: dict[tuple[SiteClass, ...], ChainType] = {t.midway: t for t in CHAIN_TYPES}


def chain_type_from_label(label: str) -> ChainType:
    try:
        return _CHAIN_TYPE_BY_LABEL[label]
    except KeyError:
        raise DataError(f"unknown chain type label: {label!r}") from None


@dataclass(frozen=True, slots=True)
class TripRecord:
    """One validated trip row from the survey file.

    Times are minutes since midnight in [0, 1440); a trip that crosses
    midnight keeps its raw clock times and is unwrapped during chain
    assembly. Length is kilometres (converted from survey miles).
    """

    household_id: str
    vehicle_id: str
    travel_day: int
    start_time: float
    end_time: float
    duration: float
    length_km: float
    destination: SiteClass

    @property
    def crosses_midnight(self) -> bool:
        return self.end_time < self.start_time


@dataclass(frozen=True, slots=True)
class TripChain:
    """An ordered home-closed sequence of 2..3 trips.

    ``end_times_min`` holds the unwrapped per-trip arrival times: monotone
    within the chain and allowed to exceed 1440 when the chain runs past
    midnight. ``dwell_minutes[k]`` is the stay at midway site k (one entry
    per trip gap).
    """

    trips: tuple[TripRecord, ...]
    chain_type: ChainType
    end_times_min: tuple[float, ...]
    dwell_minutes: tuple[float, ...]


def validate_chain(chain: TripChain) -> None:
    """Re-check every TripChain invariant; raises DataError on violation."""
    n = len(chain.trips)
    if not 2 <= n <= 3:
        raise DataError(f"chain has {n} trips, expected 2..3")
    if chain.trips[-1].destination is not SiteClass.H:
        raise DataError("chain does not end at home")
    midway = tuple(t.destination for t in chain.trips[:-1])
    if midway != chain.chain_type.midway:
        raise DataError("chain_type does not match midway destinations")
    if len(chain.dwell_minutes) != n - 1:
        raise DataError("dwell count must be trips - 1")
    if any(d < 0 for d in chain.dwell_minutes):
        raise DataError("negative dwell duration")
    if any(b <= a for a, b in zip(chain.end_times_min, chain.end_times_min[1:])):
        raise DataError("trip end times not strictly increasing")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

#: Default source-column names for each TripRecord field (NHTS trip table
#: layout). Override through the config file for other survey exports.
DEFAULT_COLUMN_MAP: dict[str, str] = {
    "household_id": "HOUSEID",
    "vehicle_id": "VEHID",
    "travel_day": "TRAVDAY",
    "start_time": "STRTTIME",
    "end_time": "ENDTIME",
    "duration": "TRVLCMIN",
    "length_miles": "TRPMILES",
    "destination": "WHYTO",
}

#: Default mapping from survey trip-purpose codes to the five site classes.
#: Codes follow the NHTS 2017 WHYTO codebook; anything unmapped falls back
#: to O. This table is configuration, not a fixed property of the model.
DEFAULT_DESTINATION_MAP: dict[int, SiteClass] = {
    1: SiteClass.H,    # regular home activities
    2: SiteClass.H,    # work from home
    3: SiteClass.W,    # work
    4: SiteClass.W,    # work-related meeting / trip
    11: SiteClass.SE,  # buy goods
    12: SiteClass.SE,  # buy services
    13: SiteClass.SE,  # buy meals
    14: SiteClass.SE,  # other general errands
    15: SiteClass.SR,  # recreational activities
    16: SiteClass.SR,  # exercise
    17: SiteClass.SR,  # visit friends or relatives
    19: SiteClass.SR,  # religious or community activities
}


@dataclass
class IngestDiagnostics:
    """Counts of everything the ingest stage rejected or dropped."""

    rows_total: int = 0
    rows_accepted: int = 0
    reject_reasons: Counter = field(default_factory=Counter)
    rejected_rows: list[tuple[int, str]] = field(default_factory=list)
    chains_emitted: int = 0
    drop_reasons: Counter = field(default_factory=Counter)

    @property
    def rows_rejected(self) -> int:
        return sum(self.reject_reasons.values())

    @property
    def sequences_dropped(self) -> int:
        return sum(self.drop_reasons.values())

    def reject_row(self, line_no: int, reason: str) -> None:
        self.reject_reasons[reason] += 1
        self.rejected_rows.append((line_no, reason))

    def as_dict(self) -> dict:
        return {
            "rows_total": self.rows_total,
            "rows_accepted": self.rows_accepted,
            "rows_rejected": self.rows_rejected,
            "reject_reasons": dict(self.reject_reasons),
            "rejected_rows": [
                {"line": line, "reason": reason} for line, reason in self.rejected_rows
            ],
            "chains_emitted": self.chains_emitted,
            "sequences_dropped": self.sequences_dropped,
            "drop_reasons": dict(self.drop_reasons),
        }


def _parse_hhmm(raw: str) -> float:
    """HHMM integer text ('0830' or '830') to minutes since midnight."""
    value = int(raw)
    hours, minutes = divmod(value, 100)
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ValueError(f"not a valid HHMM time: {raw!r}")
    return float(hours * 60 + minutes)


def parse_records(
    csv_stream: TextIO,
    column_map: dict[str, str] | None = None,
    dest_map: dict[int, SiteClass] | None = None,
    diagnostics: IngestDiagnostics | None = None,
) -> list[TripRecord]:
    """Read and validate trip rows from an open CSV stream.

    Distances are converted miles -> km with the exact factor 1.609344 and
    times from HHMM integers to minutes since midnight. Invalid rows are
    skipped and counted in ``diagnostics`` with their line number (a missing
    cell, a blank ID, or a non-finite number or implied velocity is an
    ``unparseable_field``); a missing mapped column is a ConfigurationError.
    """
    columns = dict(DEFAULT_COLUMN_MAP)
    if column_map:
        columns.update(column_map)
    dest_map = DEFAULT_DESTINATION_MAP if dest_map is None else dest_map
    diag = diagnostics if diagnostics is not None else IngestDiagnostics()

    reader = csv.DictReader(csv_stream)
    if reader.fieldnames is None:
        raise DataError("input CSV is empty (no header row)")
    missing = [src for src in columns.values() if src not in reader.fieldnames]
    if missing:
        raise ConfigurationError(
            f"mapped column(s) not present in input CSV: {', '.join(sorted(missing))}"
        )

    records: list[TripRecord] = []
    for row in reader:
        diag.rows_total += 1
        line_no = reader.line_num
        try:
            start = _parse_hhmm(row[columns["start_time"]])
            end = _parse_hhmm(row[columns["end_time"]])
            duration = float(row[columns["duration"]])
            length_km = float(row[columns["length_miles"]]) * MILES_TO_KM
            # Velocity is length_km / (duration / 60); a subnormal duration zeroes the divisor.
            if not (math.isfinite(duration) and math.isfinite(length_km)) or (
                    duration > 0 and not math.isfinite(length_km / (duration / 60.0))):
                raise ValueError("non-finite duration, length or velocity")
            travel_day = int(row[columns["travel_day"]])
            dest_code = int(row[columns["destination"]])
            household = row[columns["household_id"]].strip()
            vehicle = row[columns["vehicle_id"]].strip()
            if not (household and vehicle):
                raise ValueError("blank ID")
        except (ValueError, TypeError, AttributeError, ZeroDivisionError):
            # AttributeError: a short row lacks a mapped ID cell (None).
            diag.reject_row(line_no, "unparseable_field")
            continue

        if duration <= 0:
            diag.reject_row(line_no, "nonpositive_duration")
            continue
        if length_km < 0:
            diag.reject_row(line_no, "negative_length")
            continue
        if end == start:
            # Equal clock times put a positive duration nowhere on the day.
            diag.reject_row(line_no, "zero_clock_duration")
            continue
        if end < start:
            # Accept only if the reported duration matches a past-midnight
            # interpretation of the clock times.
            wrapped_gap = end + 1440.0 - start
            if abs(duration - wrapped_gap) > _WRAP_DURATION_TOL_MIN:
                diag.reject_row(line_no, "end_before_start")
                continue

        records.append(
            TripRecord(
                household_id=household,
                vehicle_id=vehicle,
                travel_day=travel_day,
                start_time=start,
                end_time=end,
                duration=duration,
                length_km=length_km,
                destination=dest_map.get(dest_code, SiteClass.O),
            )
        )
        diag.rows_accepted += 1
    return records


# ---------------------------------------------------------------------------
# Chain assembly
# ---------------------------------------------------------------------------

def build_chains(
    records: Iterable[TripRecord],
    diagnostics: IngestDiagnostics | None = None,
) -> list[TripChain]:
    """Cut home-closed chains of 2..3 trips out of per-vehicle-day trips.

    Records are grouped by (household, vehicle, travel day) and sorted by
    start time; the day's first trip is taken to depart from home (the
    survey schema carries destinations only). Each arrival at H closes a
    segment; segments of 1 trip, of 4+ trips, with overlapping trips, or
    that never return home are dropped and counted.
    """
    diag = diagnostics if diagnostics is not None else IngestDiagnostics()

    groups: dict[tuple[str, str, int], list[TripRecord]] = {}
    for rec in records:
        groups.setdefault((rec.household_id, rec.vehicle_id, rec.travel_day), []).append(rec)

    chains: list[TripChain] = []
    for key in sorted(groups):
        # Clock times are unwrapped onto a monotone axis as the day is
        # walked: a trip crossing midnight pushes every later time of the
        # same day forward by 24 h.
        offset = 0.0
        segment, ends, dwells = [], [], []
        for trip in sorted(groups[key], key=lambda r: r.start_time):
            start, end = trip.start_time + offset, trip.end_time + offset
            if trip.crosses_midnight:
                end += 1440.0
                offset += 1440.0
            if ends:
                dwells.append(start - ends[-1])
            segment.append(trip)
            ends.append(end)
            if trip.destination is not SiteClass.H:
                continue
            if len(segment) < 2:
                diag.drop_reasons["too_few_trips"] += 1
            elif len(segment) > 3:
                diag.drop_reasons["too_many_trips"] += 1
            elif any(gap < 0 for gap in dwells):
                diag.drop_reasons["overlapping_trips"] += 1
            else:
                midway = tuple(t.destination for t in segment[:-1])
                chains.append(TripChain(
                    tuple(segment), _CHAIN_TYPE_BY_MIDWAY[midway], tuple(ends), tuple(dwells),
                ))
                diag.chains_emitted += 1
            segment, ends, dwells = [], [], []
        if segment:
            diag.drop_reasons["never_returned_home"] += 1

    return chains


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

FEATURE_END_TIME = "end_time_min"
FEATURE_LENGTH = "length_km"
FEATURE_VELOCITY = "velocity_kmh"
FEATURE_DWELL = "dwell_min"


@dataclass
class ChainFeatureDataset:
    """Per-chain-type sample arrays for density fitting.

    ``samples`` is keyed by (chain type, feature name, 1-based index): the
    trip-1 ending time (index 1 only; later ending times follow from it),
    the length and average velocity of each trip, and the dwell at each
    midway site. Trips with zero length or duration are excluded from
    velocity arrays so that velocity samples stay strictly positive.
    """

    counts: dict[ChainType, int] = field(default_factory=dict)
    samples: dict[tuple[ChainType, str, int], np.ndarray] = field(default_factory=dict)

    @property
    def total_chains(self) -> int:
        return sum(self.counts.values())

    def count(self, chain_type: ChainType) -> int:
        return self.counts.get(chain_type, 0)

    def get(self, chain_type: ChainType, feature: str, index: int) -> np.ndarray | None:
        return self.samples.get((chain_type, feature, index))


def extract_features(chains: Iterable[TripChain]) -> ChainFeatureDataset:
    """Per-(type, feature, index) sample arrays, in chain order within each.

    Every type present gets exactly the keys its density model fits; a
    velocity array may be shorter than the type's count.
    """
    by_type: dict[ChainType, list[TripChain]] = {}
    for chain in chains:
        by_type.setdefault(chain.chain_type, []).append(chain)

    samples: dict[tuple[ChainType, str, int], np.ndarray] = {}
    for ctype, group in by_type.items():
        samples[ctype, FEATURE_END_TIME, 1] = np.array([c.end_times_min[0] for c in group])
        for k in range(ctype.n_trips):
            trips = [c.trips[k] for c in group]
            samples[ctype, FEATURE_LENGTH, k + 1] = np.array([t.length_km for t in trips])
            samples[ctype, FEATURE_VELOCITY, k + 1] = np.array([
                t.length_km / (t.duration / 60.0) for t in trips if t.duration > 0 and t.length_km > 0
            ])
        for m in range(ctype.n_trips - 1):
            samples[ctype, FEATURE_DWELL, m + 1] = np.array([c.dwell_minutes[m] for c in group])
    return ChainFeatureDataset({t: len(g) for t, g in by_type.items()}, samples)


def chain_type_proportions(dataset: ChainFeatureDataset) -> np.ndarray:
    """Probability vector over CHAIN_TYPES, ordered by the fixed enumeration."""
    total = dataset.total_chains
    if total <= 0:
        raise DataError("zero usable chains: cannot derive chain-type proportions")
    vec = np.zeros(len(CHAIN_TYPES), dtype=float)
    for ctype, count in dataset.counts.items():
        vec[CHAIN_TYPE_INDEX[ctype]] = count / total
    return vec


# ---------------------------------------------------------------------------
# Dataset serialization (one JSON manifest holding counts and sample arrays)
# ---------------------------------------------------------------------------

_MANIFEST_NAME = "manifest.json"
_FEATURES = (FEATURE_END_TIME, FEATURE_LENGTH, FEATURE_VELOCITY, FEATURE_DWELL)


def sample_key(chain_type: ChainType, feature: str, index: int) -> str:
    """Name of one sample array, in the ingest manifest and in ``models.json``."""
    return f"{chain_type.label}__{feature}__{index}"


# Every name a manifest may hold: a chain type, a feature and one of its trips.
_SAMPLE_KEYS: dict[str, tuple[ChainType, str, int]] = {
    sample_key(t, f, i): (t, f, i)
    for t in CHAIN_TYPES for f in _FEATURES for i in range(1, t.n_trips + 1)
}


def save_dataset(
    dataset: ChainFeatureDataset,
    out_dir: str | Path,
    diagnostics: IngestDiagnostics | None = None,
    provenance: dict | None = None,
) -> Path:
    """Write the counts and every sample array into one JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    proportions = (
        chain_type_proportions(dataset) if dataset.total_chains > 0
        else np.zeros(len(CHAIN_TYPES))
    )
    order = sorted(dataset.samples, key=lambda k: (CHAIN_TYPE_INDEX[k[0]], k[1], k[2]))
    manifest = {
        "schema": "chain-feature-dataset/v1",
        "chain_type_order": [t.label for t in CHAIN_TYPES],
        "counts": {t.label: dataset.count(t) for t in CHAIN_TYPES},
        "total_chains": dataset.total_chains,
        "proportions": [float(p) for p in proportions],
        "samples": {sample_key(*key): dataset.samples[key] for key in order},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics.as_dict()
    if provenance is not None:
        manifest["provenance"] = provenance
    with open(out / _MANIFEST_NAME, "w") as fh:
        # Each array becomes a list only when the encoder reaches it.
        json.dump(manifest, fh, indent=2, default=np.ndarray.tolist)
    return out / _MANIFEST_NAME


def load_dataset(in_dir: str | Path) -> ChainFeatureDataset:
    """Load a dataset written by :func:`save_dataset`.

    A manifest that is not JSON, lacks ``counts`` or ``samples``, names an
    unknown chain type or array, or holds an array that is not a flat list
    of finite numbers is a DataError naming the file.
    """
    path = Path(in_dir) / _MANIFEST_NAME
    if not path.is_file():
        raise DataError(f"no dataset manifest at {path}")
    try:
        with open(path) as fh:
            manifest = json.load(fh)
        if not (isinstance(manifest, dict)
                and all(isinstance(manifest.get(k), dict) for k in ("counts", "samples"))):
            raise ValueError("expected an object with 'counts' and 'samples' objects")
        counts = {chain_type_from_label(label): n for label, n in manifest["counts"].items()}
        if not all(type(n) is int and n >= 0 for n in counts.values()):
            raise ValueError("a chain-type count is not a non-negative integer")
        counts = {ctype: n for ctype, n in counts.items() if n}
        samples: dict[tuple[ChainType, str, int], np.ndarray] = {}
        for name, values in manifest["samples"].items():
            if name not in _SAMPLE_KEYS:
                raise ValueError(f"unknown sample array {name!r}")
            if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
                raise ValueError(f"sample array {name} is not a flat list of numbers")
            array = np.array(values, dtype=float)
            if not np.isfinite(array).all():
                raise ValueError(f"sample array {name} has a non-finite value")
            samples[_SAMPLE_KEYS[name]] = array
    except (ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed dataset manifest {path}: {exc}") from None
    return ChainFeatureDataset(counts=counts, samples=samples)
