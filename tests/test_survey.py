"""Survey ingestion: parsing, chain building, feature extraction."""

import csv
import gc
import io
import json
import math
import random
import re
import runpy
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from chargecast import forecast, survey
from chargecast.errors import ConfigurationError, DataError
from chargecast.forecast import FEATURE_VELOCITY, ModelSet
from chargecast.survey import (
    CHAIN_TYPE_INDEX,
    CHAIN_TYPES,
    DEFAULT_COLUMN_MAP,
    DEFAULT_DESTINATION_MAP,
    FEATURE_DURATION,
    FEATURE_DWELL,
    FEATURE_END_TIME,
    FEATURE_LENGTH,
    MILES_TO_KM,
    SITE_CLASSES,
    ChainFeatureDataset,
    ChainType,
    IngestDiagnostics,
    SiteClass,
    TripTable,
    build_chains,
    chain_type_from_label,
    chain_type_proportions,
    extract_features,
    feature_keys,
    load_dataset,
    parse_records,
    sample_key,
    save_dataset,
)
from conftest import FIXTURE_CHAIN_COUNTS, FIXTURE_TOTAL_CHAINS, FIXTURE_ROWS

HEADER = "HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES,WHYTO"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _parse(rows, header=HEADER, **kwargs):
    diag = IngestDiagnostics()
    text = "\n".join([header, *rows])
    trips = parse_records(io.StringIO(text), diagnostics=diag, **kwargs)
    return trips, diag


def trip(house="A", veh="1", day=1, start=480, end=540, dur=None, km=10.0, dest=SiteClass.W):
    """One trip: its vehicle-day key, then the TripTable fields."""
    return ((house, veh, day), float(start), float(end),
            float(dur if dur is not None else end - start), km, dest.index)


def table(*trips) -> TripTable:
    """TripTable of ``trip`` tuples, vehicle-days numbered in key order."""
    keys = sorted({t[0] for t in trips})
    columns = list(zip(*trips)) or [()] * 6
    return TripTable(
        np.array([keys.index(t[0]) for t in trips], dtype=np.int64),
        *(np.array(c, dtype=float) for c in columns[1:5]),
        np.array(columns[5], dtype=np.int64),
    )


def validate_chain(chains) -> None:
    """Re-check every chain invariant of a ChainTable, chain by chain;
    raises DataError on violation."""
    for c, ctype in enumerate(CHAIN_TYPES[i] for i in chains.chain_type):
        n = int(np.count_nonzero(chains.trip[c] >= 0))
        if not 2 <= n <= 3 or chains.trip[c, 1] < 0:
            raise DataError(f"chain has {n} trips, expected 2..3")
        if n != ctype.n_trips:
            raise DataError("chain trip count does not match its type")
        sites = [SITE_CLASSES[chains.trips.site[r]] for r in chains.trip[c, :n]]
        if sites[-1] is not SiteClass.H:
            raise DataError("chain does not end at home")
        if tuple(sites[:-1]) != ctype.midway:
            raise DataError("chain_type does not match midway destinations")
        dwells, ends = chains.dwell[c], chains.end_time[c, :n]
        if np.isnan(dwells[:n - 1]).any() or not np.isnan(dwells[n - 1:]).all():
            raise DataError("dwell count must be trips - 1")
        if np.any(dwells < 0):
            raise DataError("negative dwell duration")
        if np.any(np.diff(ends) <= 0):
            raise DataError("trip end times not strictly increasing")


def labels(chains) -> list[str]:
    return [CHAIN_TYPES[i].label for i in chains.chain_type]


def dwell_minutes(chains, c) -> tuple:
    return tuple(d for d in chains.dwell[c].tolist() if not math.isnan(d))


def end_times_min(chains, c) -> tuple:
    return tuple(e for e in chains.end_time[c].tolist() if not math.isnan(e))


# ---------------------------------------------------------------------------
# parse_records
# ---------------------------------------------------------------------------

class TestParseRecords:
    def test_hhmm_and_mile_conversion(self):
        trips, diag = _parse(["A,1,1,0830,0900,30,10,3"])
        assert len(trips) == 1
        assert trips.start[0] == 510.0
        assert trips.end[0] == 540.0
        assert trips.length_km[0] == 10 * 1.609344  # exact statute-mile factor
        assert SITE_CLASSES[trips.site[0]] is SiteClass.W
        assert diag.rows_rejected == 0

    def test_negative_duration_rejected(self):
        trips, diag = _parse(["A,1,1,0830,0900,-5,10,3"])
        assert len(trips) == 0
        assert diag.rows_rejected == 1
        assert diag.reject_reasons["nonpositive_duration"] == 1
        assert diag.rejected_rows[0][0] == 2  # line number of the bad row

    def test_empty_file_with_header(self):
        trips, diag = _parse([])
        assert len(trips) == 0
        assert diag.rows_total == 0 and diag.rows_rejected == 0

    def test_missing_mapped_column_is_fatal(self):
        text = "HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES\nA,1,1,0800,0810,10,1"
        with pytest.raises(ConfigurationError, match="WHYTO"):
            parse_records(io.StringIO(text))

    def test_midnight_wrap_accepted_when_duration_matches(self):
        trips, _ = _parse(["A,1,1,2345,0030,45,5,1"])
        assert len(trips) == 1
        assert trips.end[0] < trips.start[0]  # crosses midnight

    def test_end_before_start_without_wrap_rejected(self):
        trips, diag = _parse(["A,1,1,1400,1300,30,5,1"])
        assert len(trips) == 0
        assert diag.reject_reasons["end_before_start"] == 1

    def test_zero_clock_duration_rejected(self):
        # Equal clock times with a positive duration: the arrival would tie
        # the previous trip's and break the chain's increasing end times.
        trips, diag = _parse(["A,1,1,0800,0830,30,5,3", "A,1,1,0830,0830,30,5,1"])
        assert len(trips) == 1
        assert diag.reject_reasons == {"zero_clock_duration": 1}

    def test_unmapped_purpose_code_defaults_to_other(self):
        trips, _ = _parse(["A,1,1,0800,0830,30,5,42"])
        assert SITE_CLASSES[trips.site[0]] is SiteClass.O

    @pytest.mark.parametrize("chunk_rows", [1, survey.CHUNK_ROWS], ids=["chunk1", "default"])
    @pytest.mark.parametrize("hhmm, minutes", [
        ("2400", None), ("2360", None), ("-5", None), ("0875", None),
        ("99999999999999999999", None),  # past int64
        ("0", 0), ("2359", 1439), (" 830 ", 510), ("\u0660\u0668\u0663\u0660", 510),
    ], ids=["2400", "2360", "minus5", "0875", "past_int64", "0", "2359", "spaced", "arabic_indic"])
    def test_hhmm_cell(self, hhmm, minutes, chunk_rows):
        """A clock time is an integer that int() reads, HHMM with HH < 24 and MM < 60."""
        # The trip arrives at 00:01, past midnight unless it departs then.
        duration = 30 if minutes is None else (1 - minutes) % 1440
        with mock.patch.object(survey, "CHUNK_ROWS", chunk_rows):
            trips, diag = _parse(["A,1,1,0800,0830,30,5,3", f"A,1,1,{hhmm},0001,{duration},5,1"])
        if minutes is None:
            assert diag.rejected_rows == [(3, "unparseable_field")]
            assert trips.start.tolist() == [480.0]
        else:
            assert diag.rows_rejected == 0
            assert trips.start.tolist() == [480.0, minutes]

    @pytest.mark.parametrize("chunk_rows", [1, survey.CHUNK_ROWS], ids=["chunk1", "default"])
    def test_destination_cell(self, chunk_rows):
        """A purpose code is an integer that int() reads, and one the map lacks is O;
        any other cell, or none, rejects its row."""
        rows = ["A,1,1,0800,0830,30,5,3.0", "A,1,1,0800,0830,30,5,x", "A,1,1,0800,0830,30,5,",
                "A,1,1,0800,0830,30,5", "A,1,1,0900,0930,30,5, 3 ", "A,1,1,1000,1030,30,5,42"]
        with mock.patch.object(survey, "CHUNK_ROWS", chunk_rows):
            trips, diag = _parse(rows)
        assert diag.rejected_rows == [(line, "unparseable_field") for line in (2, 3, 4, 5)]
        assert [SITE_CLASSES[s] for s in trips.site] == [SiteClass.W, SiteClass.O]
        assert trips.site.min() >= 0

    @pytest.mark.parametrize("row", [
        "A,1,1,0800,0830,nan,5,3", "A,1,1,0800,0830,inf,5,3", "A,1,1,0800,0830,30,inf,3",
        "A,1,1,0800,0830,30,nan,3", "A,1,1,0800,0830,30,-inf,3", "A,1,1,0800,0830,30,1.5e308,3",
    ], ids=["nan_duration", "inf_duration", "inf_miles", "nan_miles", "minus_inf_miles",
            "km_overflow"])
    def test_non_finite_number_is_unparseable(self, row):
        trips, diag = _parse([row])
        assert len(trips) == 0
        assert diag.reject_reasons == {"unparseable_field": 1}

    @pytest.mark.parametrize("row", ["1,0800,0830,30,5,3,A", "1,0800,0830,30,5,3"],
                             ids=["no_vehicle_id", "no_ids"])
    def test_short_row_without_id_cell_is_unparseable(self, row):
        diag = IngestDiagnostics()
        text = "TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES,WHYTO,HOUSEID,VEHID\n" + row
        assert len(parse_records(io.StringIO(text), diagnostics=diag)) == 0
        assert diag.reject_reasons == {"unparseable_field": 1}

    @pytest.mark.parametrize("rows", [
        [",1,1,0800,0830,30,5,3", ",1,1,0900,0930,30,5,1"],
        ["A,  ,1,0800,0830,30,5,3", "B, ,1,0900,0930,30,5,1"],
    ], ids=["blank_household", "all_space_vehicle"])
    def test_blank_id_is_unparseable(self, rows):
        # Blank IDs of different households must not chain together.
        trips, diag = _parse(rows)
        assert len(trips) == 0
        assert diag.reject_reasons == {"unparseable_field": 2}
        assert len(build_chains(trips, diag)) == 0

    def test_id_with_a_lone_surrogate_is_unparseable(self):
        # Text decoded from a file holds no lone surrogate, but a library
        # caller's stream may. The ID columns hold UTF-8, which cannot.
        trips, diag = _parse(["h\ud800,1,1,0800,0830,30,5,3", "\U0001f600,1,1,0800,0830,30,5,3",
                              "A,\udfff,1,0900,0930,30,5,1"])
        assert len(trips) == 1
        assert diag.rejected_rows == [(2, "unparseable_field"), (4, "unparseable_field")]

    def test_id_recurring_in_chunks_far_apart_is_one_key(self):
        # Each chunk codes a key column into that chunk's distinct keys, so a
        # key seen again chunks later must take the same rank; "h1\x00" stays
        # its own ID, a day past int64 stays exact, and table() numbers the
        # keys in tuple order. A blank ID, or a day that is not an integer, is
        # rejected at its line.
        inputs = [
            (["h1", "h10", "é", "h2", " h1 ", "h1\x00", "h10", "", "h2", "h1"], ["1"] * 10, 9),
            (["h1"] * 10, ["1", str(2**64), "-3", "x", " 1 ", "2", str(2**64), "١", "-3", "1"], 5),
        ]
        for houses, days, rejected_line in inputs:
            rows = [f"{house},{2 - i % 2},{day},{8 + i:02d}00,{8 + i:02d}30,30,5,3"
                    for i, (house, day) in enumerate(zip(houses, days))]
            with mock.patch.object(survey, "CHUNK_ROWS", 2):
                trips, diag = _parse(rows)
            expected = table(*(trip(house.strip(), str(2 - i % 2), int(day), 480 + 60 * i,
                                    510 + 60 * i, km=5 * MILES_TO_KM)
                               for i, (house, day) in enumerate(zip(houses, days))
                               if house and day != "x"))
            for name in ("vehicle_day", "start", "end", "duration", "length_km", "site"):
                assert np.array_equal(getattr(trips, name), getattr(expected, name)), name
            assert diag.rejected_rows == [(rejected_line, "unparseable_field")]

    def test_custom_column_map(self):
        text = "hh,vid,day,dep,arr,mins,mi,why\nA,1,1,0800,0820,20,2,3"
        trips = parse_records(io.StringIO(text), column_map={
            "household_id": "hh", "vehicle_id": "vid", "travel_day": "day",
            "start_time": "dep", "end_time": "arr", "duration": "mins",
            "length_miles": "mi", "destination": "why",
        })
        assert len(trips) == 1

    def test_reader_edge_cases_match_dict_reader(self):
        # Blank lines are skipped and not counted; a repeated header name
        # reads its last column; a quoted line break moves every later line
        # number; a row without the last WHYTO cell is unparseable.
        text = (
            "HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES,WHYTO,NOTE,WHYTO\n"
            "A,1,1,0800,0830,30,5,x,,3\n"
            "\n\n"
            "A,1,1,0900,0930,-1,5,x,,3\n"
            'A,1,1,1000,1030,30,5,x,"two\nlines",1\n'
            "A,1,1,1100,1130,30,5,3,\n"
        )
        diag = IngestDiagnostics()
        trips = parse_records(io.StringIO(text), diagnostics=diag)
        assert diag.rows_total == 4
        assert [SITE_CLASSES[s] for s in trips.site] == [SiteClass.W, SiteClass.H]
        assert diag.rejected_rows == [(5, "nonpositive_duration"), (8, "unparseable_field")]
        # csv.DictReader numbers a row by its last line, even after blank lines.
        reader = csv.DictReader(io.StringIO(text))
        assert [reader.line_num for _ in reader] == [2, 5, 7, 8]
        assert _manifest(text) == _reference_ingest(text)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_short_row_among_long_rows(self, chunk_rows):
        # Line 3 lacks its WHYTO cell, and line 6 all but two cells; line 5
        # lacks only the unmapped NOTE. A chunk holding a short row pads its
        # rows, and only the rows short of a mapped cell are unparseable.
        rows = ["A,1,1,0800,0830,30,5,3,n", "A,1,1,0900,0930,30,5", "A,1,1,1000,1030,-1,5,1,n",
                "A,1,1,1100,1130,30,5,1", "A,1", "A,1,1,1200,1230,30,5,1,n"]
        with mock.patch.object(survey, "CHUNK_ROWS", chunk_rows):
            trips, diag = _parse(rows, header=HEADER + ",NOTE")
        assert diag.rows_total == 6
        assert diag.rejected_rows == [(3, "unparseable_field"), (4, "nonpositive_duration"),
                                      (6, "unparseable_field")]
        assert trips.start.tolist() == [480.0, 660.0, 720.0]
        assert [SITE_CLASSES[s] for s in trips.site] == [SiteClass.W, SiteClass.H, SiteClass.H]

    def test_wide_survey_parses_like_narrow(self, fixture_csv_path):
        # 100 unmapped columns before, between and after the mapped ones, in
        # a shuffled header order.
        with open(fixture_csv_path, newline="") as fh:
            header, *body = list(csv.reader(fh))
        names = header + [f"X{i}" for i in range(100)]
        random.Random(3).shuffle(names)
        mapped = sorted(names.index(name) for name in header)
        assert 0 < mapped[0] and mapped[-1] < len(names) - 1
        assert mapped[-1] - mapped[0] > len(header)
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(names)
        for k, row in enumerate(body):
            cells = dict(zip(header, row))
            writer.writerow([cells.get(name, f"{name}-{k}") for name in names])

        def parse(stream):
            diag = IngestDiagnostics()
            return parse_records(stream, diagnostics=diag), diag.as_dict()

        with open(fixture_csv_path, newline="") as fh:
            narrow, narrow_diag = parse(fh)
        wide, wide_diag = parse(io.StringIO(out.getvalue()))
        for name in ("vehicle_day", "start", "end", "duration", "length_km", "site"):
            a, b = getattr(narrow, name), getattr(wide, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert wide_diag == narrow_diag


# ---------------------------------------------------------------------------
# build_chains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("midway", [(), (SiteClass.H,), (SiteClass.W,) * 3],
                         ids=["no_site", "home", "three_sites"])
def test_bad_chain_type_is_configuration_error(midway):
    with pytest.raises(ConfigurationError):
        ChainType(midway)


class TestBuildChains:
    def test_simple_commute_chain(self):
        trips = table(
            trip(start=510, end=540, dest=SiteClass.W),
            trip(start=1050, end=1080, dest=SiteClass.H),
        )
        chains = build_chains(trips)
        assert len(chains) == 1
        assert labels(chains) == ["H-W-H"]
        assert dwell_minutes(chains, 0) == (510.0,)  # 09:00 arrival to 17:30 departure
        validate_chain(chains)

    def test_complex_chain_has_two_dwells(self):
        trips = table(
            trip(start=510, end=540, dest=SiteClass.W),
            trip(start=1020, end=1040, dest=SiteClass.SE),
            trip(start=1100, end=1130, dest=SiteClass.H),
        )
        chains = build_chains(trips)
        assert len(chains) == 1
        assert labels(chains) == ["H-W-SE-H"]
        assert dwell_minutes(chains, 0) == (480.0, 60.0)

    def test_too_many_trips_dropped(self):
        dests = [SiteClass.W, SiteClass.SE, SiteClass.SR, SiteClass.O, SiteClass.H]
        trips = table(*(
            trip(start=400 + 120 * i, end=460 + 120 * i, dest=d)
            for i, d in enumerate(dests)
        ))
        diag = IngestDiagnostics()
        assert len(build_chains(trips, diag)) == 0
        assert diag.drop_reasons["too_many_trips"] == 1

    def test_never_home_dropped(self):
        diag = IngestDiagnostics()
        chains = build_chains(
            table(trip(dest=SiteClass.W), trip(start=600, end=630, dest=SiteClass.SE)), diag
        )
        assert len(chains) == 0
        assert diag.drop_reasons["never_returned_home"] == 1

    def test_overlap_invalidates_chain(self):
        diag = IngestDiagnostics()
        trips = table(
            trip(start=480, end=540, dest=SiteClass.W),
            trip(start=530, end=570, dest=SiteClass.H),
        )
        assert len(build_chains(trips, diag)) == 0
        assert diag.drop_reasons["overlapping_trips"] == 1

    def test_single_trip_home_dropped(self):
        diag = IngestDiagnostics()
        assert len(build_chains(table(trip(dest=SiteClass.H)), diag)) == 0
        assert diag.drop_reasons["too_few_trips"] == 1

    def test_midnight_wrap_unwraps_monotonically(self):
        trips = table(
            trip(start=1320, end=1365, dest=SiteClass.SR),
            trip(start=1420, end=20, dur=40, dest=SiteClass.H),
        )
        chains = build_chains(trips)
        assert len(chains) == 1
        assert end_times_min(chains, 0) == (1365.0, 1460.0)
        validate_chain(chains)

    def test_small_hours_follow_a_midnight_crossing(self):
        # 22:00-22:30 SR, 23:50-00:10 SE, 00:30-01:00 H: clock order would
        # put the trip home first.
        trips = table(
            trip(start=1320, end=1350, dest=SiteClass.SR),
            trip(start=1430, end=10, dur=20, dest=SiteClass.SE),
            trip(start=30, end=60, dest=SiteClass.H),
        )
        chains = build_chains(trips)
        assert labels(chains) == ["H-SR-SE-H"]
        assert end_times_min(chains, 0) == (1350.0, 1450.0, 1500.0)
        validate_chain(chains)

    @pytest.mark.parametrize("home_after_midnight", [False, True])
    def test_commuter_day_keeps_its_work_chain(self, home_after_midnight):
        # 07:00 to W, 17:00 to H, 23:50-00:10 to SE: the work dwell is the
        # day's longest idle gap, and the day still starts in the morning.
        rows = [trip(start=420, end=450, dest=SiteClass.W),
                trip(start=1020, end=1050, dest=SiteClass.H),
                trip(start=1430, end=10, dur=20, dest=SiteClass.SE)]
        if home_after_midnight:
            rows.append(trip(start=30, end=60, dest=SiteClass.H))
        diag = IngestDiagnostics()
        chains = build_chains(table(*rows), diag)
        if home_after_midnight:
            assert labels(chains) == ["H-W-H", "H-SE-H"]
            assert end_times_min(chains, 1) == (1450.0, 1500.0)
        else:
            assert labels(chains) == ["H-W-H"]
            assert dict(diag.drop_reasons) == {"never_returned_home": 1}
        assert end_times_min(chains, 0) == (450.0, 1050.0)
        validate_chain(chains)

    def test_dwell_across_midnight_keeps_its_chain(self):
        # 23:00-23:50 to W, 00:10-00:40 home: clock order would put the trip
        # home first, and the work dwell runs 23:50-00:10.
        diag = IngestDiagnostics()
        chains = build_chains(table(trip(start=1380, end=1430, dest=SiteClass.W),
                                    trip(start=10, end=40, dest=SiteClass.H)), diag)
        assert labels(chains) == ["H-W-H"]
        assert dwell_minutes(chains, 0) == (20.0,)
        assert end_times_min(chains, 0) == (1430.0, 1480.0)
        assert not diag.drop_reasons
        validate_chain(chains)

    def test_small_hours_that_leave_home_start_the_day(self, fixture_csv_path):
        # The fixture's H0010: 03:41-06:08 to work, 13:46-16:00 home.
        rows = [line for line in fixture_csv_path.read_text().splitlines()
                if line.startswith("H0010,")]
        trips, diag = _parse(rows)
        chains = build_chains(trips, diag)
        assert labels(chains) == ["H-W-H"]
        assert end_times_min(chains, 0) == (368.0, 960.0)
        assert not diag.drop_reasons

    def test_two_chains_same_day(self):
        trips = table(
            trip(start=480, end=510, dest=SiteClass.W),
            trip(start=700, end=730, dest=SiteClass.H),
            trip(start=800, end=830, dest=SiteClass.SE),
            trip(start=900, end=930, dest=SiteClass.H),
        )
        assert labels(build_chains(trips)) == ["H-W-H", "H-SE-H"]

    def test_tied_starts_keep_file_order(self):
        # Taken the other way round, the first trip would overlap the second.
        trips = table(
            trip(start=480, end=480, dest=SiteClass.W),
            trip(start=480, end=500, dest=SiteClass.SE),
            trip(start=900, end=930, dest=SiteClass.H),
        )
        assert labels(build_chains(trips)) == ["H-W-SE-H"]

    @pytest.mark.parametrize("column, c, k, value, message", [
        ("end_time", 0, 1, 500.0, "not strictly increasing"),
        ("dwell", 1, 1, -1.0, "negative dwell"),
        ("dwell", 0, 1, 5.0, "dwell count"),
        ("chain_type", 0, None, CHAIN_TYPE_INDEX[ChainType((SiteClass.SE,))], "midway"),
        ("chain_type", 1, None, CHAIN_TYPE_INDEX[ChainType((SiteClass.W,))], "trip count"),
        ("trip", 0, 1, 2, "end at home"),
    ])
    def test_validate_chain_flags_each_violation(self, column, c, k, value, message):
        trips = table(
            trip(start=480, end=510, dest=SiteClass.W),
            trip(start=700, end=730, dest=SiteClass.H),
            trip(start=800, end=830, dest=SiteClass.SE),
            trip(start=840, end=850, dest=SiteClass.W),
            trip(start=900, end=930, dest=SiteClass.H),
        )
        chains = build_chains(trips)
        validate_chain(chains)
        cells = getattr(chains, column)
        cells[(c, k) if k is not None else c] = value
        with pytest.raises(DataError, match=message):
            validate_chain(chains)


# ---------------------------------------------------------------------------
# extract_features / proportions
# ---------------------------------------------------------------------------

class TestExtractFeatures:
    def test_velocity_sample(self):
        """The dataset holds the trip's duration; the fit derives its velocity."""
        trips = table(
            trip(start=510, end=540, dur=30, km=30.0, dest=SiteClass.W),
            trip(start=1050, end=1080, dest=SiteClass.H),
        )
        ds = extract_features(build_chains(trips))
        ctype = chain_type_from_label("H-W-H")
        assert ds.samples[ctype, FEATURE_DURATION, 1].tolist() == [30.0]
        assert ModelSet.from_dataset(ds).get(ctype, FEATURE_VELOCITY, 1).samples.tolist() == [60.0]
        assert ds.samples[ctype, FEATURE_END_TIME, 1].tolist() == [540.0]
        assert ds.samples[ctype, FEATURE_DWELL, 1].tolist() == [510.0]

    @pytest.mark.parametrize("dur", [0.0, -30.0, math.nan])
    def test_trip_without_duration_is_data_error(self, dur):
        """A chain trip whose duration is not positive has no velocity, so its
        positive length would leave a manifest that ``load_dataset`` rejects."""
        trips = table(
            trip(start=480, end=510, dur=dur, km=10.0, dest=SiteClass.W),
            trip(start=1020, end=1050, km=10.0, dest=SiteClass.H),
        )
        with pytest.raises(DataError, match="H-W-H chain trip 1: duration is not positive"):
            extract_features(build_chains(trips))

    def test_empty_chain_list(self):
        ds = extract_features(build_chains(table()))
        assert ds.total_chains == 0
        assert ds.samples == {}

    def test_counts_by_type(self):
        def commute(house):
            return [
                trip(house=house, start=510, end=540, dest=SiteClass.W),
                trip(house=house, start=1050, end=1080, dest=SiteClass.H),
            ]
        trips = table(*commute("A"), *commute("B"),
                      trip(house="C", start=600, end=630, dest=SiteClass.SE),
                      trip(house="C", start=700, end=730, dest=SiteClass.H))
        ds = extract_features(build_chains(trips))
        assert ds.counts[chain_type_from_label("H-W-H")] == 2
        assert ds.counts[chain_type_from_label("H-SE-H")] == 1

    def test_counts_follow_chain_type_order(self):
        # load_dataset returns this order, and models.json is written in it.
        trips = table(
            trip(house="A", start=600, end=630, dest=SiteClass.SE),
            trip(house="A", start=700, end=730, dest=SiteClass.H),
            trip(house="B", start=510, end=540, dest=SiteClass.W),
            trip(house="B", start=1050, end=1080, dest=SiteClass.H),
        )
        assert [t.label for t in extract_features(build_chains(trips)).counts] == ["H-W-H", "H-SE-H"]

    def test_proportions(self):
        def chain(house, dest):
            return [
                trip(house=house, start=510, end=540, dest=dest),
                trip(house=house, start=700, end=730, dest=SiteClass.H),
            ]
        trips = sum([chain(f"A{i}", SiteClass.W) for i in range(3)], [])
        trips += chain("B", SiteClass.SE)
        ds = extract_features(build_chains(table(*trips)))
        vec = chain_type_proportions(ds)
        assert vec[0] == 0.75 and vec[1] == 0.25
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_proportions(self):
        trips = table(
            trip(start=510, end=540, dest=SiteClass.W),
            trip(start=700, end=730, dest=SiteClass.H),
        )
        vec = chain_type_proportions(extract_features(build_chains(trips)))
        assert vec[0] == 1.0 and vec.sum() == 1.0

    def test_zero_chains_is_an_error(self):
        with pytest.raises(DataError, match="zero usable chains"):
            chain_type_proportions(extract_features(build_chains(table())))


# ---------------------------------------------------------------------------
# Fixture-level invariants
# ---------------------------------------------------------------------------

class TestFixtureInvariants:
    def test_fixture_counts(self, fixture_ingest):
        _, chains, dataset, diag = fixture_ingest
        assert diag.rows_total == FIXTURE_ROWS
        assert dataset.total_chains == FIXTURE_TOTAL_CHAINS
        for label, expected in FIXTURE_CHAIN_COUNTS.items():
            assert dataset.counts[chain_type_from_label(label)] == expected
        assert diag.reject_reasons == {"nonpositive_duration": 1, "end_before_start": 1}
        assert diag.drop_reasons == {
            "too_many_trips": 1, "never_returned_home": 1, "overlapping_trips": 1,
        }

    def test_every_chain_revalidates(self, fixture_ingest):
        _, chains, _, _ = fixture_ingest
        validate_chain(chains)

    def test_count_sum_matches_emitted_chains(self, fixture_ingest):
        _, chains, dataset, diag = fixture_ingest
        assert dataset.total_chains == len(chains) == diag.chains_emitted

    def test_keys_are_the_fitted_ones(self, fixture_ingest):
        _, _, dataset, _ = fixture_ingest
        assert set(dataset.samples) == {
            (ctype, *key) for ctype in dataset.counts for key in feature_keys(ctype)
        }

    def test_sample_array_lengths_match_counts(self, fixture_ingest):
        _, _, dataset, _ = fixture_ingest
        for (ctype, feature, index), values in dataset.samples.items():
            assert len(values) == dataset.counts[ctype], (ctype.label, feature, index)

    def test_generator_reproduces_fixture(self, tmp_path, fixture_csv_path):
        # The script writes relative to its own location, so it runs as a copy.
        script = tmp_path / "scripts" / "make_fixture.py"
        script.parent.mkdir()
        shutil.copy(REPO_ROOT / "scripts" / "make_fixture.py", script)
        subprocess.run([sys.executable, str(script)], check=True, capture_output=True)
        regenerated = tmp_path / "src" / "chargecast" / "data" / "survey_fixture.csv"
        assert regenerated.read_bytes() == fixture_csv_path.read_bytes()

    def test_dwell_across_midnight_adds_one_chain(self, fixture_ingest, fixture_csv_path):
        # Q1's work dwell runs 23:50-00:10: its day is one more H-W-H chain,
        # and every other count stays the fixture's.
        _, _, _, fixture_diag = fixture_ingest
        text = fixture_csv_path.read_text() + "Q1,1,1,2300,2350,50,5,3\nQ1,1,1,0010,0040,30,5,1\n"
        diag = IngestDiagnostics()
        chains = build_chains(parse_records(io.StringIO(text), diagnostics=diag), diag)
        assert len(chains) == FIXTURE_TOTAL_CHAINS + 1
        assert labels(chains)[-1] == "H-W-H"  # Q1 sorts after every H household
        assert dwell_minutes(chains, len(chains) - 1) == (20.0,)
        assert diag.rows_total == FIXTURE_ROWS + 2
        assert diag.reject_reasons == fixture_diag.reject_reasons
        assert diag.drop_reasons == fixture_diag.drop_reasons

    def test_benchmark_survey_counts(self, tmp_path, fixture_csv_path):
        # The survey_100k benchmark checks these counts exactly, per copy of
        # the fixture that perfbench/survey_gen.py writes.
        generator = runpy.run_path(str(REPO_ROOT / "perfbench" / "survey_gen.py"))
        path = tmp_path / "survey.csv"
        generator["write_survey"](fixture_csv_path, path, 3, 1)
        diag = IngestDiagnostics()
        with open(path, newline="") as fh:
            build_chains(parse_records(fh, diagnostics=diag), diag)
        counts = {"rows": diag.rows_total, "chains": diag.chains_emitted,
                  "rejects": diag.rows_rejected, "dropped": diag.sequences_dropped}
        assert counts == generator["expected_counts"](3)
        assert counts == {"rows": 600, "chains": 273, "rejects": 6, "dropped": 9}

    def test_pipeline_is_deterministic(self, fixture_csv_path):
        def run():
            with open(fixture_csv_path, newline="") as fh:
                ds = extract_features(build_chains(parse_records(fh)))
            return {k: v.tolist() for k, v in ds.samples.items()}, ds.counts
        assert run() == run()


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestDatasetSerialization:
    def test_round_trip(self, fixture_ingest, tmp_path):
        _, _, dataset, diag = fixture_ingest
        save_dataset(dataset, tmp_path, diagnostics=diag)
        loaded = load_dataset(tmp_path)
        assert loaded.counts == dataset.counts
        assert list(loaded.counts) == list(dataset.counts)
        for key, values in dataset.samples.items():
            assert np.array_equal(loaded.samples[key], values)

    def test_manifest_contents(self, fixture_ingest, tmp_path):
        _, _, dataset, diag = fixture_ingest
        manifest_path = save_dataset(dataset, tmp_path, diagnostics=diag)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["total_chains"] == FIXTURE_TOTAL_CHAINS
        assert manifest["counts"]["H-W-H"] == FIXTURE_CHAIN_COUNTS["H-W-H"]
        assert len(manifest["proportions"]) == len(CHAIN_TYPES)
        assert sum(manifest["proportions"]) == pytest.approx(1.0, abs=1e-12)
        assert manifest["diagnostics"]["rows_total"] == FIXTURE_ROWS

    @pytest.mark.parametrize("tail", [{}, {"provenance": {"seed": 3, "path": "é"}}],
                             ids=["no_tail", "provenance_only"])
    def test_manifest_is_json_dump_text(self, fixture_ingest, tmp_path, tail):
        _, _, dataset, _ = fixture_ingest
        for ds in (dataset, ChainFeatureDataset()):
            path = save_dataset(ds, tmp_path, **tail)
            assert path.read_text() == _reference_manifest(ds, **tail)

    @pytest.mark.parametrize("values_per_write", [1, 7])
    def test_manifest_written_in_slices_is_json_dump_text(self, fixture_ingest, tmp_path,
                                                         values_per_write):
        _, _, dataset, diag = fixture_ingest
        assert max(map(len, dataset.samples.values())) > 3 * values_per_write
        with mock.patch.object(survey, "_WRITE_VALUES", values_per_write):
            path = save_dataset(dataset, tmp_path, diagnostics=diag)
        assert path.read_text() == _reference_manifest(dataset, diagnostics=diag)

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(tmp_path / "nope")

    @pytest.mark.parametrize("name, edit", [
        ("H-W-H__length_km__1", lambda values: values[:3]),
        ("H-W-H__duration_min__2", lambda values: values * 3),
        ("H-W-H__duration_min__1", lambda values: values[1:]),
    ], ids=["short_length", "long_duration", "short_duration"])
    def test_arrays_must_line_up_with_the_counts(self, fixture_ingest, tmp_path, name, edit):
        """Each array holds one number per counted chain; a manifest that
        breaks this names its file and the array."""
        _, _, dataset, _ = fixture_ingest
        path = save_dataset(dataset, tmp_path)
        manifest = json.loads(path.read_text())
        manifest["samples"][name] = edit(manifest["samples"][name])
        path.write_text(json.dumps(manifest))
        message = re.escape(f"{path}: sample array {name} does not hold")
        with pytest.raises(DataError, match=message) as info:
            load_dataset(tmp_path)
        assert info.value.exit_code == 3

    @pytest.mark.parametrize("duration", [0.0, -30.0])
    def test_durations_must_be_positive(self, fixture_ingest, tmp_path, duration):
        _, _, dataset, _ = fixture_ingest
        path = save_dataset(dataset, tmp_path)
        manifest = json.loads(path.read_text())
        manifest["samples"]["H-SE-H__duration_min__2"][3] = duration
        path.write_text(json.dumps(manifest))
        message = re.escape(f"{path}: sample array H-SE-H__duration_min__2 holds a duration")
        with pytest.raises(DataError, match=message) as info:
            load_dataset(tmp_path)
        assert info.value.exit_code == 3

    def test_v1_manifest_is_data_error(self, fixture_ingest, tmp_path):
        """A v1 manifest held each trip's velocities, one per positive length,
        and no durations; it names its file and schema."""
        _, _, dataset, _ = fixture_ingest
        path = save_dataset(dataset, tmp_path)
        manifest = json.loads(path.read_text())
        manifest["schema"] = "chain-feature-dataset/v1"
        for name in [name for name in manifest["samples"] if "__duration_min__" in name]:
            length = np.array(manifest["samples"][name.replace("duration_min", "length_km")])
            duration = np.array(manifest["samples"].pop(name))
            velocity = length[length > 0] / (duration[length > 0] / 60.0)
            manifest["samples"][name.replace("duration_min", "velocity_kmh")] = velocity.tolist()
        path.write_text(json.dumps(manifest))
        message = re.escape(f"{path}: schema 'chain-feature-dataset/v1' is not")
        with pytest.raises(DataError, match=message) as info:
            load_dataset(tmp_path)
        assert info.value.exit_code == 3


# ---------------------------------------------------------------------------
# Chunked reading
# ---------------------------------------------------------------------------

def _manifest(text: str, chunk_rows: int = survey.CHUNK_ROWS) -> tuple[str, IngestDiagnostics]:
    diag = IngestDiagnostics()
    with mock.patch.object(survey, "CHUNK_ROWS", chunk_rows), tempfile.TemporaryDirectory() as tmp:
        trips = parse_records(io.StringIO(text), diagnostics=diag)
        path = save_dataset(extract_features(build_chains(trips, diag)), tmp, diagnostics=diag)
        return path.read_text(), diag


def test_seven_row_chunks_give_the_same_manifest(fixture_csv_path):
    lines = fixture_csv_path.read_text().splitlines()
    # Rejects and blank lines at the edges of 7-row chunks: rows 7, 8, 14
    # and 15 are bad, and two blank lines follow row 21.
    bad = "Z,1,1,0800,0830,-5,5,3"
    text = "\n".join([
        lines[0], *lines[1:7], bad, bad, *lines[7:12], bad, bad,
        *lines[12:18], "", "", *lines[18:], "",
    ])
    one_chunk, diag = _manifest(text)
    seven, _ = _manifest(text, 7)
    assert seven == one_chunk
    assert diag.rejected_rows[:4] == [(line, "nonpositive_duration") for line in (8, 9, 15, 16)]
    assert json.loads(seven)["diagnostics"] == _reference_diagnostics(text)


def _hundred_copies(fixture_csv_path, copies=100):
    """The fixture's rows 100 times over (20,000 rows), or ``copies`` times,
    each copy under its own household IDs."""
    body = fixture_csv_path.read_text().splitlines()[1:]
    return io.StringIO("\n".join(
        [HEADER, *(row.replace(",", f"-{k},", 1) for k in range(copies) for row in body)]
    ))


def _traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory that tracemalloc traced meanwhile."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parsing_holds_one_chunk_of_rows(fixture_csv_path):
    # 20,000 rows: 2,048-row chunks peak near 3.4 MB, 8,192-row chunks near
    # 7.7 MB, and all rows at once (CHUNK_ROWS above the row count) near 17.0 MB.
    stream = _hundred_copies(fixture_csv_path)
    tracemalloc.start()
    try:
        trips = parse_records(stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trips) == 100 * (FIXTURE_ROWS - 2)
    assert peak < 6e6


def test_parsing_grows_its_columns_in_place(fixture_csv_path):
    # 100,000 rows: per-chunk parts joined by np.concatenate and gathered
    # string keys peaked near 16.3 MB; columns grown in place and per-row
    # string keys ranked near 13.1 MB; ID codes into each chunk's distinct
    # IDs, of which only the distinct IDs are ranked, near 10.6 MB. The
    # returned table is 4.8 MB of these.
    stream = _hundred_copies(fixture_csv_path, 500)
    trips, peak = _traced_peak(parse_records, stream)
    assert len(trips) == 500 * (FIXTURE_ROWS - 2)
    assert peak < 12e6


def test_chain_building_drops_its_temporaries(fixture_csv_path):
    # 19,800 trips: with every temporary alive to the last line, the build
    # peaked near 2.64 MB; dropping each once used, near 1.49 MB.
    trips = parse_records(_hundred_copies(fixture_csv_path))
    chains, peak = _traced_peak(build_chains, trips)
    assert len(chains) == 100 * FIXTURE_TOTAL_CHAINS
    assert peak < 2e6


def _collections():
    return [generation["collections"] for generation in gc.get_stats()]


def test_parsing_pauses_the_cyclic_collector(fixture_csv_path):
    # With the collector running, this parse makes some 80 young and 7
    # middle collections, each one rescanning the live chunk of rows.
    stream = _hundred_copies(fixture_csv_path)
    gc.collect()
    before = _collections()
    parse_records(stream)
    young, middle, old = (a - b for a, b in zip(_collections(), before))
    assert young <= 1 and middle == old == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_parsing_restores_the_collector_state(enabled):
    try:
        (gc.enable if enabled else gc.disable)()
        _parse(["A,1,1,0800,0830,30,5,1"])
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def test_csv_error_in_the_paused_loop_restores_the_collector():
    too_long = "5" * (csv.field_size_limit() + 1)
    rows = ["A,1,1,0800,0830,30,5,1"] * 3 + [f"A,1,1,0800,0830,30,{too_long},1"]
    with pytest.raises(csv.Error):
        _parse(rows)
    assert gc.isenabled()


def test_parsing_leaves_no_cyclic_garbage(fixture_csv_path):
    stream = _hundred_copies(fixture_csv_path)
    gc.collect()
    parse_records(stream)
    assert gc.collect() == 0


# ---------------------------------------------------------------------------
# Reference: the row-by-row ingest the columnar one replaced
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Record:
    household_id: str
    vehicle_id: str
    travel_day: int
    start_time: float
    end_time: float
    duration: float
    length_km: float
    destination: SiteClass


def _reference_parse(csv_stream, diag):
    """One validated record per DictReader row, rejects counted in order."""
    columns = DEFAULT_COLUMN_MAP
    reader = csv.DictReader(csv_stream)
    records = []
    for row in reader:
        diag.rows_total += 1
        line_no = reader.line_num
        reason = None
        try:
            start = _reference_hhmm(row[columns["start_time"]])
            end = _reference_hhmm(row[columns["end_time"]])
            duration = float(row[columns["duration"]])
            length_km = float(row[columns["length_miles"]]) * MILES_TO_KM
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
            reason = "unparseable_field"
        else:
            if duration <= 0:
                reason = "nonpositive_duration"
            elif length_km < 0:
                reason = "negative_length"
            elif end == start:
                reason = "zero_clock_duration"
            elif end < start and abs(duration - (end + 1440.0 - start)) > 2.0:
                reason = "end_before_start"
        if reason:
            diag.reject_reasons[reason] += 1
            diag.rejected_rows.append((line_no, reason))
            continue
        records.append(_Record(household, vehicle, travel_day, start, end, duration, length_km,
                               DEFAULT_DESTINATION_MAP.get(dest_code, SiteClass.O)))
        diag.rows_accepted += 1
    return records


def _reference_hhmm(raw: str) -> float:
    hours, minutes = divmod(int(raw), 100)
    if not (0 <= hours < 24 and 0 <= minutes < 60):
        raise ValueError(f"not a valid HHMM time: {raw!r}")
    return float(hours * 60 + minutes)


def _reference_chains(records, diag):
    """(type, trips, end times, dwells) per chain, walking each sorted vehicle-day.
    Trips before 04:00 come last on a day with a trip across midnight, and on a
    day whose trips before 04:00 end at home while its later ones do not: there
    a dwell crosses midnight, and the trips before 04:00 are 24 h later."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.household_id, rec.vehicle_id, rec.travel_day), []).append(rec)
    chains = []
    for key in sorted(groups):
        day = sorted(groups[key], key=lambda r: r.start_time)
        small = [t for t in day if t.start_time < 240]
        rest = [t for t in day if t.start_time >= 240]
        night = any(t.end_time < t.start_time for t in day)
        dwell = (not night and small and rest and small[-1].destination is SiteClass.H
                 and rest[-1].destination is not SiteClass.H)
        if night or dwell:
            day = rest + small
        offset = 0.0
        segment, ends, dwells = [], [], []
        for t in day:
            if dwell and t is small[0]:
                offset += 1440.0
            start, end = t.start_time + offset, t.end_time + offset
            if t.end_time < t.start_time:
                end += 1440.0
                offset += 1440.0
            if ends:
                dwells.append(start - ends[-1])
            segment.append(t)
            ends.append(end)
            if t.destination is not SiteClass.H:
                continue
            if len(segment) < 2:
                diag.drop_reasons["too_few_trips"] += 1
            elif len(segment) > 3:
                diag.drop_reasons["too_many_trips"] += 1
            elif any(gap < 0 for gap in dwells):
                diag.drop_reasons["overlapping_trips"] += 1
            else:
                ctype = ChainType(tuple(s.destination for s in segment[:-1]))
                chains.append((ctype, segment, ends, dwells))
                diag.chains_emitted += 1
            segment, ends, dwells = [], [], []
        if segment:
            diag.drop_reasons["never_returned_home"] += 1
    return chains


def _reference_features(chains) -> tuple[ChainFeatureDataset, dict]:
    """The chain table, and the velocity samples of each (type, trip) as ingest
    derived them before the manifest held durations."""
    by_type = {}
    for chain in chains:
        by_type.setdefault(chain[0], []).append(chain)
    samples, velocities = {}, {}
    for ctype, group in by_type.items():
        samples[ctype, FEATURE_END_TIME, 1] = np.array([ends[0] for _, _, ends, _ in group])
        for k in range(ctype.n_trips):
            trips = [c[1][k] for c in group]
            samples[ctype, FEATURE_LENGTH, k + 1] = np.array([t.length_km for t in trips])
            samples[ctype, FEATURE_DURATION, k + 1] = np.array([t.duration for t in trips])
            velocities[ctype, FEATURE_VELOCITY, k + 1] = np.array([
                t.length_km / (t.duration / 60.0) for t in trips if t.duration > 0 and t.length_km > 0
            ])
        for m in range(ctype.n_trips - 1):
            samples[ctype, FEATURE_DWELL, m + 1] = np.array([c[3][m] for c in group])
    return ChainFeatureDataset({t: len(g) for t, g in by_type.items()}, samples), velocities


def _reference_manifest(dataset, diagnostics=None, provenance=None) -> str:
    """The manifest text as one json.dump of the whole document."""
    proportions = (chain_type_proportions(dataset) if dataset.total_chains > 0
                   else np.zeros(len(CHAIN_TYPES)))
    order = sorted(dataset.samples, key=lambda k: (CHAIN_TYPE_INDEX[k[0]], k[1], k[2]))
    manifest = {
        "schema": "chain-feature-dataset/v2",
        "chain_type_order": [t.label for t in CHAIN_TYPES],
        "counts": {t.label: dataset.counts.get(t, 0) for t in CHAIN_TYPES},
        "total_chains": dataset.total_chains,
        "proportions": [float(p) for p in proportions],
        "samples": {sample_key(*key): dataset.samples[key] for key in order},
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics.as_dict()
    if provenance is not None:
        manifest["provenance"] = provenance
    out = io.StringIO()
    json.dump(manifest, out, indent=2, default=np.ndarray.tolist)
    return out.getvalue()


def _reference_ingest(text: str) -> tuple[str, IngestDiagnostics]:
    diag = IngestDiagnostics()
    chains = _reference_chains(_reference_parse(io.StringIO(text), diag), diag)
    dataset, _ = _reference_features(chains)
    return _reference_manifest(dataset, diagnostics=diag), diag


def _reference_diagnostics(text: str) -> dict:
    return _reference_ingest(text)[1].as_dict()


# ---------------------------------------------------------------------------
# Parse -> chains -> features on generated surveys
# ---------------------------------------------------------------------------

# One trip: gap after the previous arrival (negative overlaps it), minutes on
# the road, reported duration (None: the clock's), miles, purpose code, and
# whether the length cell is garbage.
_TRIPS = st.tuples(
    st.just(0) | st.integers(-30, 300),
    st.just(0) | st.integers(0, 240),
    st.one_of(st.none(), st.integers(-5, 300)),
    st.one_of(st.just(0.0), st.floats(0.1, 60.0)),
    st.sampled_from([1, 1, 3, 11, 15, 97, 42]),
    st.sampled_from([False] * 9 + [True]),
)
_VEHICLE_DAYS = st.lists(
    st.tuples(st.integers(0, 1439), st.lists(_TRIPS, min_size=1, max_size=5)),
    min_size=1, max_size=8,
)


def _survey_rows(vehicle_days) -> list[list]:
    """Survey rows of the generated ``(key, first start, trips)`` vehicle-days."""
    rows = []
    for (house, vehicle, day), first_start, trips in vehicle_days:
        arrival = first_start
        for k, (gap, road, duration, miles, purpose, garbage) in enumerate(trips):
            start = arrival + (gap if k else 0)
            arrival = start + road
            rows.append([
                house, vehicle, day, _hhmm(start), _hhmm(arrival),
                road if duration is None else duration,
                "x" if garbage else round(miles, 3), purpose,
            ])
    return rows


def _survey_csv(vehicle_days) -> str:
    """One household per generated vehicle-day."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(HEADER.split(","))
    writer.writerows(_survey_rows(
        ((f"h{house}", "1", 1), first_start, trips)
        for house, (first_start, trips) in enumerate(vehicle_days)
    ))
    return out.getvalue()


def _hhmm(minute: int) -> str:
    minute %= 1440
    return f"{minute // 60:02d}{minute % 60:02d}"


@settings(max_examples=100, deadline=None)
@given(vehicle_days=_VEHICLE_DAYS)
def test_parse_chains_features_property(vehicle_days):
    text = _survey_csv(vehicle_days)
    diag = IngestDiagnostics()
    trips = parse_records(io.StringIO(text), diagnostics=diag)
    assert diag.rows_total == sum(len(trips) for _, trips in vehicle_days)
    assert diag.rows_total == diag.rows_accepted + diag.rows_rejected == len(trips) + diag.rows_rejected

    chains = build_chains(trips, diag)
    assert diag.chains_emitted == len(chains)
    validate_chain(chains)

    dataset = extract_features(chains)
    assert dataset.total_chains == len(chains)
    assert set(dataset.samples) == {
        (ctype, *key) for ctype in dataset.counts for key in feature_keys(ctype)
    }
    for (ctype, _, _), values in dataset.samples.items():
        assert len(values) == dataset.counts[ctype]

    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, tmp, diagnostics=diag)
        loaded = load_dataset(tmp)
    assert list(loaded.counts.items()) == list(dataset.counts.items())
    assert loaded.samples.keys() == dataset.samples.keys()
    for key, values in dataset.samples.items():
        assert np.array_equal(loaded.samples[key], values), key

    # The velocities the fit derives from the manifest are those ingest used to write.
    _, velocities = _reference_features(_reference_chains(
        _reference_parse(io.StringIO(text), IngestDiagnostics()), IngestDiagnostics()))
    if loaded.counts:
        with mock.patch.object(forecast, "fit_kde", lambda samples, support: samples):
            derived = ModelSet.from_dataset(loaded).models
        assert {key for key in derived if key[1] == FEATURE_VELOCITY} == velocities.keys()
        for key, values in velocities.items():
            assert np.array_equal(derived[key], values), key


# Vehicle-day keys whose string and tuple orders differ, so that a key may
# repeat and interleave its trips with another generated vehicle-day's; a
# trailing NUL, which csv keeps, a spaced spelling of "h1", and a travel day
# above int64.
_MESSY_DAYS = st.lists(
    st.tuples(
        st.tuples(st.sampled_from(["h1", "h10", "h2", "é", "h1\x00", " h1 "]),
                  st.sampled_from(["1", "2"]), st.sampled_from([1, 2, 9, 10, 2**64])),
        st.integers(0, 1439) | st.integers(1200, 1439),
        st.lists(st.tuples(
            st.integers(-30, 300),
            st.integers(1, 240),
            st.sampled_from([None] * 5 + [-5, 0, 90]),
            st.floats(0.0, 60.0),
            st.sampled_from([1, 1, 3, 11, 15, 97, 42]),
            st.just(False),
        ), min_size=1, max_size=7),
    ),
    min_size=1, max_size=10,
)
# Cell spellings: the builtins read the first five as the number itself.
_INT_SPELLINGS = st.sampled_from(["{}", " {} ", "0_{}", "{}\t", "٠{}", "{}.0", "", "x"])
_FLOAT_SPELLINGS = st.sampled_from(
    ["{}", " {} ", "{}_0", "5e-324", "1e-310", "-{}", "nan", "inf", "-inf", "", "x"]
)


@st.composite
def _messy_survey(draw) -> str:
    """Generated survey text with the reader edge cases of csv.DictReader:
    blank lines, a repeated header name, short and long rows and quoted
    multi-line cells; and spaced or underscored numerals, non-finite and
    subnormal numbers, blank IDs, past-midnight trips and tied starts."""
    header = HEADER.split(",") + ["NOTE"]
    repeated = draw(st.sampled_from([None, *range(8)]))
    if repeated is not None:
        header.append(header[repeated])  # DictReader reads this last copy
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    rows = _survey_rows(draw(_MESSY_DAYS))
    for i, row in enumerate(rows):
        if i and draw(st.integers(0, 9)) == 0:
            row[3] = rows[i - 1][3]  # a tied start time
        mess = draw(st.integers(0, 23))
        if mess < 4:
            row[(2, 3, 4, 7)[mess]] = draw(_INT_SPELLINGS).format(row[(2, 3, 4, 7)[mess]])
        elif mess < 6:
            row[mess + 1] = draw(_FLOAT_SPELLINGS).format(row[mess + 1])
        elif mess == 6:
            row[draw(st.sampled_from([0, 1]))] = draw(st.sampled_from(["", "  "]))
        row.append(draw(st.sampled_from(["", "note", "two\nlines", "a,\n\nb"])))
        if repeated is not None:
            row.append(row[repeated])
            row[repeated] = "decoy"
        if mess == 7:
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif mess == 8:
            row += ["extra", "cells"]
        out.write("\n" * draw(st.sampled_from([0] * 6 + [1, 2])))
        writer.writerow(row)
    out.write("\n" * draw(st.integers(0, 2)))
    return out.getvalue()


# No shrink phase: shrinking a failing survey text took about 5 minutes.
@settings(max_examples=100, deadline=None,
          phases=[phase for phase in Phase if phase is not Phase.shrink])
@given(text=_messy_survey(), chunk_rows=st.sampled_from([1, 2, 3, 8192]))
def test_columnar_ingest_matches_reference(text, chunk_rows):
    reference, expected = _reference_ingest(text)
    manifest, diag = _manifest(text, chunk_rows)
    assert list(diag.as_dict().items()) == list(expected.as_dict().items())
    assert list(diag.reject_reasons) == list(expected.reject_reasons)
    assert list(diag.drop_reasons) == list(expected.drop_reasons)
    assert manifest == reference
    with mock.patch.object(survey, "CHUNK_ROWS", chunk_rows):
        validate_chain(build_chains(parse_records(io.StringIO(text))))
