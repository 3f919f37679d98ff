"""Household travel-survey ingestion: trip table, chain table, feature samples.

Every stage works on numpy columns. ``parse_records`` reads a trip CSV
(NHTS-style column layout) in chunks into a :class:`TripTable` of validated
trips; ``build_chains`` orders each vehicle-day, unwraps midnight and cuts
home-closed chains of 2..3 trips into a :class:`ChainTable`; and
``extract_features`` gathers each chain type's columns, one observed value per
chain: trip-1 ending time, per-trip length and duration, and per-midway dwell.
``save_dataset`` and ``load_dataset`` keep the counts, the proportions and
those columns in one JSON manifest, keyed by :func:`sample_key`. It is their
one artifact: ``forecast/models.json`` adds each fitted model's bandwidth and
support under the same keys, a trip's velocity model in place of its duration.

Rejected rows and dropped trip sequences are never silently discarded; they
are counted in an :class:`IngestDiagnostics` summary.
"""

from __future__ import annotations

import csv
import gc
import json
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, product, repeat
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import TextIO

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


SITE_CLASSES: tuple[SiteClass, ...] = tuple(SiteClass)


@dataclass(frozen=True)
class ChainType:
    """A home-closed chain shape, identified by its midway site classes.

    One midway site means a simple 2-trip chain (H-X-H), two midway sites a
    complex 3-trip chain (H-X-Y-H). The taxonomy is closed: 4 + 16 types.
    """

    midway: tuple[SiteClass, ...]

    def __post_init__(self):
        if not 1 <= len(self.midway) <= 2:
            raise ConfigurationError("chain type must have 1 or 2 midway sites")
        if any(s is SiteClass.H for s in self.midway):
            raise ConfigurationError("H cannot be a midway site")

    @property
    def n_trips(self) -> int:
        return len(self.midway) + 1

    @property
    def label(self) -> str:
        return "-".join(["H", *[s.value for s in self.midway], "H"])


#: Fixed enumeration of the 20 chain types: the 4 simple ones, then the 16
#: complex ones, each over the midway sites W, SE, SR, O in order. Index
#: order is the canonical order of every proportion vector in the toolkit.
CHAIN_TYPES: tuple[ChainType, ...] = tuple(
    ChainType(midway) for n in (1, 2) for midway in product(SITE_CLASSES[1:], repeat=n)
)
CHAIN_TYPE_INDEX: dict[ChainType, int] = {t: i for i, t in enumerate(CHAIN_TYPES)}
_CHAIN_TYPE_BY_LABEL: dict[str, ChainType] = {t.label: t for t in CHAIN_TYPES}


def chain_type_from_label(label: str) -> ChainType:
    try:
        return _CHAIN_TYPE_BY_LABEL[label]
    except KeyError:
        raise DataError(f"unknown chain type label: {label!r}") from None


@dataclass(frozen=True)
class TripTable:
    """Validated survey trips as columns, in file order.

    ``vehicle_day`` numbers each trip's (household, vehicle, travel day) in
    key order. Times are minutes since midnight in [0, 1440); a trip with
    ``end < start`` crosses midnight. Lengths are km; ``site`` indexes SITE_CLASSES.
    """

    vehicle_day: np.ndarray
    start: np.ndarray
    end: np.ndarray
    duration: np.ndarray
    length_km: np.ndarray
    site: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


@dataclass(frozen=True)
class ChainTable:
    """Home-closed chains of 2..3 trips, one row per chain, in vehicle-day order.

    ``chain_type`` indexes CHAIN_TYPES. Column k of ``trip`` is the row in
    ``trips`` of trip k, and of ``end_time`` its arrival, unwrapped: monotone
    and past 1440 when the chain runs past midnight. Column m of ``dwell`` is
    the stay at midway site m. A 2-trip chain pads with -1 or NaN.
    """

    trips: TripTable
    chain_type: np.ndarray
    trip: np.ndarray      # (chains, 3)
    end_time: np.ndarray  # (chains, 3)
    dwell: np.ndarray     # (chains, 2)

    def __len__(self) -> int:
        return len(self.chain_type)


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------

#: Default source-column names for each trip field (NHTS trip table
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


#: Survey rows converted per step: parsing never holds every raw row at once.
CHUNK_ROWS = 2048

# Reject reasons in the order they are checked; code 0 accepts the row.
_REJECT_REASONS = ("", "unparseable_field", "nonpositive_duration", "negative_length",
                   "zero_clock_duration", "end_before_start")


def _encode(cells: tuple, convert, missing, dtype):
    """A column's ``cells`` as ``(values, codes)``: a ``dtype`` array of its distinct
    cells in first-occurrence order, each converted once by ``convert``, and each
    cell's intp index into it. One dict lookup per cell notes the position where
    its value first occurs, and one scatter and gather make those positions dense
    codes. A cell ``convert`` rejects, or ``None`` (a short row's missing cell),
    reads as ``missing``. ``convert`` is a builtin, or built on one: they accept
    what a survey writes (whitespace, '_', any Unicode digits), and numpy's
    parsers do not."""
    n = len(cells)
    first: dict = {}
    at = np.fromiter(map(first.setdefault, cells, range(n)), np.intp, n)
    code = np.empty(n, np.intp)
    code[np.fromiter(first.values(), np.intp, len(first))] = np.arange(len(first))
    for text in first:
        try:
            first[text] = convert(text)
        except (ValueError, TypeError):
            first[text] = missing
    return np.fromiter(first.values(), dtype, len(first)), code[at]


def _column(*args) -> np.ndarray:
    """:func:`_encode`'s column, one value per row."""
    return np.take(*_encode(*args))


_ID_DTYPE = np.dtypes.StringDType()


def _id(cell: str) -> str:
    """A stripped ID. A StringDType column, which sorts as ``str`` does and keeps a
    trailing NUL, holds UTF-8 only, so an ID with a lone surrogate raises (a
    ValueError), which rejects its row."""
    cell = str.strip(cell)
    cell.encode()
    return cell


def _minutes(hhmm: str) -> float:
    """An HHMM cell (0830 or 830) as minutes since midnight, NaN if no clock time."""
    hours, minutes = divmod(int(hhmm), 100)
    return hours * 60.0 + minutes if 0 <= hours < 24 and minutes < 60 else np.nan


def _rank(key: np.ndarray) -> np.ndarray:
    """Each value's int64 rank among the distinct values of ``key``, in sorted order."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    rank = np.empty(len(key), np.int64)
    rank[order] = np.cumsum(np.append(False, ordered[1:] != ordered[:-1]))
    return rank


def parse_records(
    csv_stream: TextIO,
    column_map: dict[str, str] | None = None,
    dest_map: dict[int, SiteClass] | None = None,
    diagnostics: IngestDiagnostics | None = None,
) -> TripTable:
    """Read and validate trip rows, CHUNK_ROWS at a time, into a TripTable.

    Miles become km (exact factor 1.609344) and HHMM times minutes since
    midnight. Each mapped column of a chunk is picked out of its rows in one
    pass of an ``itemgetter`` (a chunk that holds a row too short for the
    last mapped cell first pads its rows with None), and :func:`_encode`
    hashes each of its cells once and converts each distinct cell once, with
    Python's builtins, straight to its column value: a stripped ID, a travel
    day (a Python int, so a day past int64 stays exact), a float, minutes
    or a site index. A cell that does not convert, or is missing (None),
    reads as "" (an ID), -inf (a day: no int equals it), NaN (a time or
    number) or -1 (a site), which the first reject condition catches. An
    invalid row is counted in ``diagnostics`` with its line number under the
    first of ``_REJECT_REASONS`` it fails (a missing cell, blank ID, ID with
    a lone surrogate, or non-finite number or velocity is an
    ``unparseable_field``). Each chunk writes its accepted rows into numpy
    columns that grow in place, each key (household, vehicle, travel day) as
    its code into the chunk's distinct keys (an array it keeps: StringDType
    for an ID, object for a day), and its rejects as arrays of line numbers
    and reason codes, which enter ``diagnostics`` after the last chunk, so
    that no Python object a chunk makes outlives it. Then one stable argsort
    of each key column's distinct keys ranks them, each row takes its key's
    int64 rank by code, and one lexsort of the ranks numbers the vehicle-days
    in key order. The cyclic garbage collector is paused meanwhile, since the
    rows form no cycles and reference counting frees them; the caller's
    collector state is restored on return.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        columns = {**DEFAULT_COLUMN_MAP, **(column_map or {})}
        dest_map = DEFAULT_DESTINATION_MAP if dest_map is None else dest_map
        site_of = {code: site.index for code, site in dest_map.items()}
        diag = diagnostics if diagnostics is not None else IngestDiagnostics()

        reader = csv.reader(csv_stream)
        header = next(reader, None)
        if header is None:
            raise DataError("input CSV is empty (no header row)")
        missing = [src for src in columns.values() if src not in header]
        if missing:
            raise ConfigurationError("mapped column(s) not present in input CSV: "
                                     + ", ".join(sorted(missing)))
        position = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
        pick = {name: itemgetter(position[src]) for name, src in columns.items()}
        width = 1 + max(position[src] for src in columns.values())

        # Per key column (household, vehicle, travel day), each chunk's distinct
        # keys, and how many came before.
        seen, n_seen = [[np.empty(0, dtype)] for dtype in (_ID_DTYPE, _ID_DTYPE, object)], [0] * 3
        # The accepted rows' keys (codes into ``seen``) and TripTable columns,
        # each grown in place by a quarter when full; and per chunk, the
        # rejected rows' line numbers and reason codes.
        kept = [*(np.empty(0, np.int64) for _ in range(3)), *(np.empty(0) for _ in range(4)),
                np.empty(0, np.int64)]
        rejects = [(np.empty(0, np.int64), np.empty(0, np.int64))]
        accepted = 0
        # Non-blank rows numbered as csv.DictReader numbers them: by the
        # reader's line after the row, which its fieldnames property re-reads.
        # zip pulls each row before it reads the line number.
        numbered = filter(itemgetter(0), zip(reader, map(attrgetter("line_num"), repeat(reader))))
        for chunk in iter(lambda: list(islice(numbered, CHUNK_ROWS)), []):
            rows, lines = zip(*chunk)
            if min(map(len, rows)) < width:  # a short row's missing cells read as None
                rows = [row + [None] * (width - len(row)) for row in rows]
            households, household = _encode(tuple(map(pick["household_id"], rows)), _id, "",
                                            _ID_DTYPE)
            vehicles, vehicle = _encode(tuple(map(pick["vehicle_id"], rows)), _id, "", _ID_DTYPE)
            days, day = _encode(tuple(map(pick["travel_day"], rows)), int, -np.inf, object)
            start = _column(tuple(map(pick["start_time"], rows)), _minutes, np.nan, float)
            end = _column(tuple(map(pick["end_time"], rows)), _minutes, np.nan, float)
            duration = _column(tuple(map(pick["duration"], rows)), float, np.nan, float)
            miles = _column(tuple(map(pick["length_miles"], rows)), float, np.nan, float)
            site = _column(tuple(map(pick["destination"], rows)),
                           lambda c: site_of.get(int(c), SiteClass.O.index), -1, np.int64)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                length_km = miles * MILES_TO_KM
                velocity = length_km / (duration / 60.0)  # a subnormal duration zeroes the divisor
                reason = np.select([
                    (site < 0) | np.isnan(start) | np.isnan(end) | ~np.isfinite(duration)
                    | ~np.isfinite(length_km) | ((duration > 0) & ~np.isfinite(velocity))
                    | (households == "")[household] | (vehicles == "")[vehicle]
                    | (days == -np.inf)[day],
                    duration <= 0,
                    length_km < 0,
                    # Equal clock times put a positive duration nowhere on the day.
                    end == start,
                    # A past-midnight trip must report the wrapped duration.
                    (end < start) & (np.abs(duration - (end + 1440.0 - start)) > _WRAP_DURATION_TOL_MIN),
                ], range(1, len(_REJECT_REASONS)))
            diag.rows_total += len(rows)
            rejected = np.flatnonzero(reason)
            rejects.append((np.take(lines, rejected), reason[rejected]))
            keep = reason == 0
            for i, (code, distinct) in enumerate(((household, households), (vehicle, vehicles),
                                                  (day, days))):
                code += n_seen[i]  # now a code into the key column's distinct keys of every chunk
                n_seen[i] += len(distinct)
                seen[i].append(distinct)
            filled = accepted + len(rows) - len(rejected)
            if filled > len(kept[0]):
                for column in kept:
                    column.resize(filled + filled // 4, refcheck=False)
            for column, values in zip(kept, (household, vehicle, day, start, end, duration,
                                             length_km, site)):
                column[accepted:filled] = values[keep]
            accepted = filled
            # Free this chunk's rows and columns before the next one is read.
            del chunk, rows, lines, household, vehicle, code, day, start, end, duration, miles, site
        diag.rows_accepted += accepted
        lines, codes = map(np.concatenate, zip(*rejects))
        names = np.take(_REJECT_REASONS, codes).tolist()
        diag.reject_reasons.update(names)  # a new reason enters at its first row
        diag.rejected_rows.extend(zip(lines.tolist(), names))

        for column in kept:
            column.resize(accepted, refcheck=False)
        # Number the vehicle-days in key order: one integer lexsort of the
        # keys' ranks, and a count of key changes. Each key is dropped once ranked.
        keys = [_rank(np.concatenate(seen[i]))[kept.pop(i)] for i in (2, 1, 0)]
        order = np.lexsort(keys)
        changed = np.zeros(accepted, bool)
        while keys:
            key = keys.pop()[order]
            changed[1:] |= key[1:] != key[:-1]
        number = np.empty(accepted, np.int64)
        number[order] = np.cumsum(changed)
        return TripTable(number, *kept)
    finally:
        if collecting:
            gc.enable()


# ---------------------------------------------------------------------------
# Chain assembly
# ---------------------------------------------------------------------------

_DROP_REASONS = ("", "too_few_trips", "too_many_trips", "overlapping_trips", "never_returned_home")


def build_chains(
    trips: TripTable,
    diagnostics: IngestDiagnostics | None = None,
) -> ChainTable:
    """Cut home-closed chains of 2..3 trips out of per-vehicle-day trips.

    One stable lexsort orders the trips by vehicle-day and start time (a tie
    keeps file order). The trips that start before 04:00 (the NHTS travel-day
    boundary) lead a day in clock order. They sort after the rest, as the
    small hours that follow that night, on a day that holds a trip across
    midnight, and on a day whose small hours end at home while the rest of it
    does not: a dwell across midnight, whose small-hours trips are unwrapped
    by 24 h. Every other day keeps its clock order. The day's first trip is
    taken to depart from home (the survey schema carries destinations
    only). Each arrival at H closes a segment; segments of 1 trip, of 4+
    trips, with overlapping trips, or that never return home are dropped
    and counted. Each trip-length temporary is dropped, or overwritten in
    place, once it is used.
    """
    diag = diagnostics if diagnostics is not None else IngestDiagnostics()
    n = len(trips)
    day, small = trips.vehicle_day, trips.start < 240
    # The trips of each day that holds small-hours trips, in clock order: its
    # small hours at [head, split), the rest of it at [split, tail].
    clock = np.flatnonzero(np.isin(day, day[small]))
    clock = clock[np.lexsort((trips.start[clock], day[clock]))]
    head = np.flatnonzero(np.diff(day[clock], prepend=-1))
    split = head + np.add.reduceat(small[clock], head)
    tail = np.append(head, len(clock))[1:] - 1
    home = trips.site[clock] == SiteClass.H.index
    night = np.logical_or.reduceat((trips.end < trips.start)[clock], head)
    overnight = ~night & (split <= tail) & home[split - 1] & ~home[tail]  # a dwell across midnight
    late = small & np.isin(day, day[clock[head[night | overnight]]])
    jump = small & np.isin(day, day[clock[head[overnight]]])
    del small, clock, head, split, tail, home, night, overnight
    order = np.lexsort((trips.start, late, day))
    site, start, end = trips.site[order], trips.start[order], trips.end[order]
    new_day = np.diff(day[order], prepend=-1) != 0
    del late
    # Clock times are unwrapped onto a monotone axis: a trip crossing
    # midnight pushes every later time of the same day forward by 24 h, as
    # does a dwell crossing it.
    crossing = end < start
    crossed = np.cumsum(crossing)
    crossed -= crossing
    crossed -= crossed[new_day][np.cumsum(new_day) - 1]
    crossed += jump[order]
    offset = 1440.0 * crossed
    del crossed, jump
    start += offset
    end += offset
    end += 1440.0 * crossing
    del offset, crossing

    # A segment starts a day or follows an arrival home.
    home = site == SiteClass.H.index
    opens = new_day | np.append(False, home[:-1])
    first = np.flatnonzero(opens)
    size = np.diff(np.append(first, n))
    gap = np.concatenate(([0.0], start[1:] - end[:-1]))  # dwell before each trip
    del start
    reason = np.select([~home[first + size - 1], size < 2, size > 3,
                        np.logical_or.reduceat((gap < 0) & ~opens, first)], [4, 1, 2, 3], 0)
    diag.drop_reasons.update(np.take(_DROP_REASONS, reason[reason > 0]).tolist())
    first, size = first[reason == 0], size[reason == 0]
    del home, opens, reason
    diag.chains_emitted += len(first)
    at = np.minimum(first[:, None] + np.arange(3), n - 1)  # a 2-trip chain's pad is masked
    unused = np.arange(3) >= size[:, None]
    del first, size
    # CHAIN_TYPES holds the 4 simple types, then the 16 complex ones, in
    # midway order W, SE, SR, O: site indices 1..4, and H (0) ends a chain.
    first_stop, second_stop = site[at[:, 0]] - 1, site[at[:, 1]] - 1
    chain_type = np.where(second_stop < 0, first_stop, 4 + 4 * first_stop + second_stop)
    del site, first_stop, second_stop
    trip, end_time, dwell = order[at], end[at], gap[at[:, 1:]]
    trip[unused], end_time[unused], dwell[unused[:, 1:]] = -1, np.nan, np.nan
    return ChainTable(trips, chain_type, trip, end_time, dwell)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

FEATURE_END_TIME = "end_time_min"
FEATURE_LENGTH = "length_km"
FEATURE_DURATION = "duration_min"
FEATURE_DWELL = "dwell_min"


def feature_keys(chain_type: ChainType) -> list[tuple[str, int]]:
    """(feature, 1-based index) of every manifest column a chain type has:
    the trip-1 ending time, each trip's length and duration, then each
    midway dwell."""
    keys = [(FEATURE_END_TIME, 1)]
    for t in range(1, chain_type.n_trips + 1):
        keys += [(FEATURE_LENGTH, t), (FEATURE_DURATION, t)]
    return keys + [(FEATURE_DWELL, m) for m in range(1, chain_type.n_trips)]


@dataclass
class ChainFeatureDataset:
    """A chain table: per chain type, one column of observed values per feature.

    ``samples`` is keyed by (chain type, feature name, 1-based index), over
    :func:`feature_keys` of each counted type: the trip-1 ending time (later
    ending times follow from it), the length and duration of each trip, and
    the dwell at each midway site. Each column holds the type's ``counts``
    values, entry i from its chain i, and every duration is positive.
    """

    counts: dict[ChainType, int] = field(default_factory=dict)
    samples: dict[tuple[ChainType, str, int], np.ndarray] = field(default_factory=dict)

    @property
    def total_chains(self) -> int:
        return sum(self.counts.values())


def extract_features(chains: ChainTable) -> ChainFeatureDataset:
    """Per-(type, feature, index) columns, in chain order within each.

    Types enter ``counts`` in CHAIN_TYPES order, as ``load_dataset`` returns
    them. Every type present gets exactly its :func:`feature_keys`, each
    column one value per chain. A chain trip whose duration is not positive
    is a ``DataError``.
    """
    counts: dict[ChainType, int] = {}
    samples: dict[tuple[ChainType, str, int], np.ndarray] = {}
    for i, ctype in enumerate(CHAIN_TYPES):
        of_type = np.flatnonzero(chains.chain_type == i)
        if not len(of_type):
            continue
        counts[ctype] = len(of_type)
        samples[ctype, FEATURE_END_TIME, 1] = chains.end_time[of_type, 0]
        for k in range(ctype.n_trips):
            rows = chains.trip[of_type, k]
            samples[ctype, FEATURE_LENGTH, k + 1] = chains.trips.length_km[rows]
            samples[ctype, FEATURE_DURATION, k + 1] = duration = chains.trips.duration[rows]
            if not (duration > 0).all():
                raise DataError(f"{ctype.label} chain trip {k + 1}: duration is not positive")
        for m in range(ctype.n_trips - 1):
            samples[ctype, FEATURE_DWELL, m + 1] = chains.dwell[of_type, m]
    return ChainFeatureDataset(counts, samples)


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
_SCHEMA = "chain-feature-dataset/v2"

# Sample values written per step: a step's floats and their reprs are the only
# Python objects the manifest's arrays make.
_WRITE_VALUES = 1024


def sample_key(chain_type: ChainType, feature: str, index: int) -> str:
    """Name of one sample array, in the ingest manifest and in ``models.json``."""
    return f"{chain_type.label}__{feature}__{index}"


def save_dataset(
    dataset: ChainFeatureDataset,
    out_dir: str | Path,
    diagnostics: IngestDiagnostics | None = None,
    provenance: dict | None = None,
) -> Path:
    """Write the counts and every sample array into one JSON manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    total = dataset.total_chains
    proportions = chain_type_proportions(dataset) if total > 0 else np.zeros(len(CHAIN_TYPES))
    manifest = {
        "schema": _SCHEMA,
        "chain_type_order": [t.label for t in CHAIN_TYPES],
        "counts": {t.label: dataset.counts.get(t, 0) for t in CHAIN_TYPES},
        "total_chains": total,
        "proportions": [float(p) for p in proportions],
        "samples": {},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics.as_dict()
    if provenance is not None:
        manifest["provenance"] = provenance
    # json.dump(indent=2)'s text, with each array streamed in place of the
    # empty "samples" object as json writes it: a finite float as its repr,
    # _WRITE_VALUES at a time.
    head, samples, tail = json.dumps(manifest, indent=2).partition('\n  "samples": {}')
    order = sorted(dataset.samples, key=lambda k: (CHAIN_TYPE_INDEX[k[0]], k[1], k[2]))
    with open(out / _MANIFEST_NAME, "w") as fh:
        fh.write(head + samples[:-1])
        for n, key in enumerate(order):
            values = dataset.samples[key]
            fh.write(f'{"," if n else ""}\n    "{sample_key(*key)}": ')
            for at in range(0, len(values), _WRITE_VALUES):
                text = ",\n      ".join(map(repr, values[at:at + _WRITE_VALUES].tolist()))
                fh.write(("," if at else "[") + "\n      " + text)
            fh.write("\n    ]" if len(values) else "[]")
        fh.write(("\n  }" if order else "}") + tail)
    return out / _MANIFEST_NAME


def load_dataset(in_dir: str | Path) -> ChainFeatureDataset:
    """Load a dataset written by :func:`save_dataset`.

    A manifest that is not JSON of schema ``chain-feature-dataset/v2`` with
    ``counts`` and ``samples``, names an unknown chain type, lacks one of a
    counted type's :func:`feature_keys` columns or holds any other array, or
    has a column that is not ``count`` finite numbers or a duration that is
    not positive, is a DataError naming the file and the schema or array.
    """
    path = Path(in_dir) / _MANIFEST_NAME
    if not path.is_file():
        raise DataError(f"no dataset manifest at {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        if not (isinstance(manifest, dict)
                and all(isinstance(manifest.get(k), dict) for k in ("counts", "samples"))):
            raise ValueError("expected an object with 'counts' and 'samples' objects")
        if manifest.get("schema") != _SCHEMA:
            raise ValueError(f"schema {manifest.get('schema')!r} is not {_SCHEMA!r}")
        counts = {chain_type_from_label(label): n for label, n in manifest["counts"].items()}
        if not all(type(n) is int and n >= 0 for n in counts.values()):
            raise ValueError("a chain-type count is not a non-negative integer")
        counts = {ctype: n for ctype, n in counts.items() if n}
        columns = manifest["samples"]
        samples: dict[tuple[ChainType, str, int], np.ndarray] = {}
        for ctype, count in counts.items():
            for feature, index in feature_keys(ctype):
                name = sample_key(ctype, feature, index)
                values = columns.pop(name, None)
                if not (isinstance(values, list) and all(type(v) in (int, float) for v in values)):
                    raise ValueError(f"sample array {name} is missing or not a flat list of numbers")
                array = samples[ctype, feature, index] = np.array(values, dtype=float)
                if len(array) != count or not np.isfinite(array).all():
                    raise ValueError(f"sample array {name} does not hold {count} finite numbers")
                if feature == FEATURE_DURATION and not (array > 0).all():
                    raise ValueError(f"sample array {name} holds a duration that is not positive")
        if columns:
            raise ValueError(f"sample array {next(iter(columns))!r} is not of a counted chain type")
    except (ValueError, OverflowError, DataError) as exc:
        raise DataError(f"malformed dataset manifest {path}: {exc}") from None
    return ChainFeatureDataset(counts=counts, samples=samples)
