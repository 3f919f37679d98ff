"""Survey ingestion: parsing, chain building, feature extraction."""

import csv
import io
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargecast.errors import ConfigurationError, DataError
from chargecast.forecast import _required_keys
from chargecast.survey import (
    CHAIN_TYPES,
    FEATURE_DWELL,
    FEATURE_END_TIME,
    FEATURE_VELOCITY,
    IngestDiagnostics,
    SiteClass,
    TripRecord,
    build_chains,
    chain_type_from_label,
    chain_type_proportions,
    extract_features,
    load_dataset,
    parse_records,
    save_dataset,
    validate_chain,
)
from conftest import FIXTURE_CHAIN_COUNTS, FIXTURE_TOTAL_CHAINS, FIXTURE_ROWS

HEADER = "HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES,WHYTO"
REPO_ROOT = Path(__file__).resolve().parents[1]


def _parse(rows, **kwargs):
    diag = IngestDiagnostics()
    text = "\n".join([HEADER, *rows])
    records = parse_records(io.StringIO(text), diagnostics=diag, **kwargs)
    return records, diag


def trip(house="A", veh="1", day=1, start=480, end=540, dur=None, km=10.0,
         dest=SiteClass.W) -> TripRecord:
    return TripRecord(
        household_id=house, vehicle_id=veh, travel_day=day,
        start_time=float(start), end_time=float(end),
        duration=float(dur if dur is not None else end - start),
        length_km=km, destination=dest,
    )


# ---------------------------------------------------------------------------
# parse_records
# ---------------------------------------------------------------------------

class TestParseRecords:
    def test_hhmm_and_mile_conversion(self):
        records, diag = _parse(["A,1,1,0830,0900,30,10,3"])
        assert len(records) == 1
        rec = records[0]
        assert rec.start_time == 510.0
        assert rec.end_time == 540.0
        assert rec.length_km == 10 * 1.609344  # exact statute-mile factor
        assert rec.destination is SiteClass.W
        assert diag.rows_rejected == 0

    def test_negative_duration_rejected(self):
        records, diag = _parse(["A,1,1,0830,0900,-5,10,3"])
        assert records == []
        assert diag.rows_rejected == 1
        assert diag.reject_reasons["nonpositive_duration"] == 1
        assert diag.rejected_rows[0][0] == 2  # line number of the bad row

    def test_empty_file_with_header(self):
        records, diag = _parse([])
        assert records == []
        assert diag.rows_total == 0 and diag.rows_rejected == 0

    def test_missing_mapped_column_is_fatal(self):
        text = "HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES\nA,1,1,0800,0810,10,1"
        with pytest.raises(ConfigurationError, match="WHYTO"):
            parse_records(io.StringIO(text))

    def test_midnight_wrap_accepted_when_duration_matches(self):
        records, _ = _parse(["A,1,1,2345,0030,45,5,1"])
        assert len(records) == 1
        assert records[0].crosses_midnight

    def test_end_before_start_without_wrap_rejected(self):
        records, diag = _parse(["A,1,1,1400,1300,30,5,1"])
        assert records == []
        assert diag.reject_reasons["end_before_start"] == 1

    def test_zero_clock_duration_rejected(self):
        # Equal clock times with a positive duration: the arrival would tie
        # the previous trip's and break the chain's increasing end times.
        records, diag = _parse(["A,1,1,0800,0830,30,5,3", "A,1,1,0830,0830,30,5,1"])
        assert len(records) == 1
        assert diag.reject_reasons == {"zero_clock_duration": 1}

    def test_unmapped_purpose_code_defaults_to_other(self):
        records, _ = _parse(["A,1,1,0800,0830,30,5,42"])
        assert records[0].destination is SiteClass.O

    def test_invalid_hhmm_rejected(self):
        records, diag = _parse(["A,1,1,0875,0900,25,5,3"])
        assert records == []
        assert diag.reject_reasons["unparseable_field"] == 1

    @pytest.mark.parametrize("row", [
        "A,1,1,0800,0830,nan,5,3", "A,1,1,0800,0830,inf,5,3", "A,1,1,0800,0830,30,inf,3",
        "A,1,1,0800,0830,30,nan,3", "A,1,1,0800,0830,30,-inf,3", "A,1,1,0800,0830,30,1.5e308,3",
    ], ids=["nan_duration", "inf_duration", "inf_miles", "nan_miles", "minus_inf_miles",
            "km_overflow"])
    def test_non_finite_number_is_unparseable(self, row):
        records, diag = _parse([row])
        assert records == []
        assert diag.reject_reasons == {"unparseable_field": 1}

    @pytest.mark.parametrize("row", ["1,0800,0830,30,5,3,A", "1,0800,0830,30,5,3"],
                             ids=["no_vehicle_id", "no_ids"])
    def test_short_row_without_id_cell_is_unparseable(self, row):
        diag = IngestDiagnostics()
        text = "TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES,WHYTO,HOUSEID,VEHID\n" + row
        assert parse_records(io.StringIO(text), diagnostics=diag) == []
        assert diag.reject_reasons == {"unparseable_field": 1}

    @pytest.mark.parametrize("rows", [
        [",1,1,0800,0830,30,5,3", ",1,1,0900,0930,30,5,1"],
        ["A,  ,1,0800,0830,30,5,3", "B, ,1,0900,0930,30,5,1"],
    ], ids=["blank_household", "all_space_vehicle"])
    def test_blank_id_is_unparseable(self, rows):
        # Blank IDs of different households must not chain together.
        records, diag = _parse(rows)
        assert records == []
        assert diag.reject_reasons == {"unparseable_field": 2}
        assert build_chains(records, diag) == []

    def test_custom_column_map(self):
        text = "hh,vid,day,dep,arr,mins,mi,why\nA,1,1,0800,0820,20,2,3"
        records = parse_records(io.StringIO(text), column_map={
            "household_id": "hh", "vehicle_id": "vid", "travel_day": "day",
            "start_time": "dep", "end_time": "arr", "duration": "mins",
            "length_miles": "mi", "destination": "why",
        })
        assert len(records) == 1


# ---------------------------------------------------------------------------
# build_chains
# ---------------------------------------------------------------------------

class TestBuildChains:
    def test_simple_commute_chain(self):
        records = [
            trip(start=510, end=540, dest=SiteClass.W),
            trip(start=1050, end=1080, dest=SiteClass.H),
        ]
        chains = build_chains(records)
        assert len(chains) == 1
        chain = chains[0]
        assert chain.chain_type.label == "H-W-H"
        assert chain.dwell_minutes == (510.0,)  # 09:00 arrival to 17:30 departure
        validate_chain(chain)

    def test_complex_chain_has_two_dwells(self):
        records = [
            trip(start=510, end=540, dest=SiteClass.W),
            trip(start=1020, end=1040, dest=SiteClass.SE),
            trip(start=1100, end=1130, dest=SiteClass.H),
        ]
        chains = build_chains(records)
        assert len(chains) == 1
        assert chains[0].chain_type.label == "H-W-SE-H"
        assert chains[0].dwell_minutes == (480.0, 60.0)

    def test_too_many_trips_dropped(self):
        dests = [SiteClass.W, SiteClass.SE, SiteClass.SR, SiteClass.O, SiteClass.H]
        records = [
            trip(start=400 + 120 * i, end=460 + 120 * i, dest=d)
            for i, d in enumerate(dests)
        ]
        diag = IngestDiagnostics()
        assert build_chains(records, diag) == []
        assert diag.drop_reasons["too_many_trips"] == 1

    def test_never_home_dropped(self):
        diag = IngestDiagnostics()
        chains = build_chains([trip(dest=SiteClass.W), trip(start=600, end=630, dest=SiteClass.SE)], diag)
        assert chains == []
        assert diag.drop_reasons["never_returned_home"] == 1

    def test_overlap_invalidates_chain(self):
        diag = IngestDiagnostics()
        records = [
            trip(start=480, end=540, dest=SiteClass.W),
            trip(start=530, end=570, dest=SiteClass.H),
        ]
        assert build_chains(records, diag) == []
        assert diag.drop_reasons["overlapping_trips"] == 1

    def test_single_trip_home_dropped(self):
        diag = IngestDiagnostics()
        assert build_chains([trip(dest=SiteClass.H)], diag) == []
        assert diag.drop_reasons["too_few_trips"] == 1

    def test_midnight_wrap_unwraps_monotonically(self):
        records = [
            trip(start=1320, end=1365, dest=SiteClass.SR),
            trip(start=1420, end=20, dur=40, dest=SiteClass.H),
        ]
        chains = build_chains(records)
        assert len(chains) == 1
        assert chains[0].end_times_min == (1365.0, 1460.0)
        validate_chain(chains[0])

    def test_two_chains_same_day(self):
        records = [
            trip(start=480, end=510, dest=SiteClass.W),
            trip(start=700, end=730, dest=SiteClass.H),
            trip(start=800, end=830, dest=SiteClass.SE),
            trip(start=900, end=930, dest=SiteClass.H),
        ]
        chains = build_chains(records)
        assert [c.chain_type.label for c in chains] == ["H-W-H", "H-SE-H"]


# ---------------------------------------------------------------------------
# extract_features / proportions
# ---------------------------------------------------------------------------

class TestExtractFeatures:
    def test_velocity_sample(self):
        records = [
            trip(start=510, end=540, dur=30, km=30.0, dest=SiteClass.W),
            trip(start=1050, end=1080, dest=SiteClass.H),
        ]
        ds = extract_features(build_chains(records))
        ctype = chain_type_from_label("H-W-H")
        assert ds.get(ctype, FEATURE_VELOCITY, 1).tolist() == [60.0]
        assert ds.get(ctype, FEATURE_END_TIME, 1).tolist() == [540.0]
        assert ds.get(ctype, FEATURE_DWELL, 1).tolist() == [510.0]

    def test_empty_chain_list(self):
        ds = extract_features([])
        assert ds.total_chains == 0
        assert ds.samples == {}

    def test_counts_by_type(self):
        def commute(house):
            return [
                trip(house=house, start=510, end=540, dest=SiteClass.W),
                trip(house=house, start=1050, end=1080, dest=SiteClass.H),
            ]
        records = commute("A") + commute("B") + [
            trip(house="C", start=600, end=630, dest=SiteClass.SE),
            trip(house="C", start=700, end=730, dest=SiteClass.H),
        ]
        ds = extract_features(build_chains(records))
        assert ds.count(chain_type_from_label("H-W-H")) == 2
        assert ds.count(chain_type_from_label("H-SE-H")) == 1

    def test_proportions(self):
        def chain(house, dest):
            return [
                trip(house=house, start=510, end=540, dest=dest),
                trip(house=house, start=700, end=730, dest=SiteClass.H),
            ]
        records = sum([chain(f"A{i}", SiteClass.W) for i in range(3)], [])
        records += chain("B", SiteClass.SE)
        ds = extract_features(build_chains(records))
        vec = chain_type_proportions(ds)
        assert vec[0] == 0.75 and vec[1] == 0.25
        assert vec.sum() == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_proportions(self):
        records = [
            trip(start=510, end=540, dest=SiteClass.W),
            trip(start=700, end=730, dest=SiteClass.H),
        ]
        vec = chain_type_proportions(extract_features(build_chains(records)))
        assert vec[0] == 1.0 and vec.sum() == 1.0

    def test_zero_chains_is_an_error(self):
        with pytest.raises(DataError, match="zero usable chains"):
            chain_type_proportions(extract_features([]))


# ---------------------------------------------------------------------------
# Fixture-level invariants
# ---------------------------------------------------------------------------

class TestFixtureInvariants:
    def test_fixture_counts(self, fixture_ingest):
        _, chains, dataset, diag = fixture_ingest
        assert diag.rows_total == FIXTURE_ROWS
        assert dataset.total_chains == FIXTURE_TOTAL_CHAINS
        for label, expected in FIXTURE_CHAIN_COUNTS.items():
            assert dataset.count(chain_type_from_label(label)) == expected
        assert diag.reject_reasons == {"nonpositive_duration": 1, "end_before_start": 1}
        assert diag.drop_reasons == {
            "too_many_trips": 1, "never_returned_home": 1, "overlapping_trips": 1,
        }

    def test_every_chain_revalidates(self, fixture_ingest):
        _, chains, _, _ = fixture_ingest
        for chain in chains:
            validate_chain(chain)

    def test_count_sum_matches_emitted_chains(self, fixture_ingest):
        _, chains, dataset, diag = fixture_ingest
        assert dataset.total_chains == len(chains) == diag.chains_emitted

    def test_keys_are_the_fitted_ones(self, fixture_ingest):
        _, _, dataset, _ = fixture_ingest
        assert set(dataset.samples) == {
            (ctype, *key) for ctype in dataset.counts for key in _required_keys(ctype)
        }

    def test_sample_array_lengths_match_counts(self, fixture_ingest):
        _, _, dataset, _ = fixture_ingest
        for (ctype, feature, index), values in dataset.samples.items():
            assert len(values) == dataset.count(ctype), (ctype.label, feature, index)

    def test_generator_reproduces_fixture(self, tmp_path, fixture_csv_path):
        # The script writes relative to its own location, so it runs as a copy.
        script = tmp_path / "scripts" / "make_fixture.py"
        script.parent.mkdir()
        shutil.copy(REPO_ROOT / "scripts" / "make_fixture.py", script)
        subprocess.run([sys.executable, str(script)], check=True, capture_output=True)
        regenerated = tmp_path / "src" / "chargecast" / "data" / "survey_fixture.csv"
        assert regenerated.read_bytes() == fixture_csv_path.read_bytes()

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
        for key, values in dataset.samples.items():
            assert np.array_equal(loaded.samples[key], values)

    def test_manifest_contents(self, fixture_ingest, tmp_path):
        import json

        _, _, dataset, diag = fixture_ingest
        manifest_path = save_dataset(dataset, tmp_path, diagnostics=diag)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["total_chains"] == FIXTURE_TOTAL_CHAINS
        assert manifest["counts"]["H-W-H"] == FIXTURE_CHAIN_COUNTS["H-W-H"]
        assert len(manifest["proportions"]) == len(CHAIN_TYPES)
        assert sum(manifest["proportions"]) == pytest.approx(1.0, abs=1e-12)
        assert manifest["diagnostics"]["rows_total"] == FIXTURE_ROWS

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(DataError, match="manifest"):
            load_dataset(tmp_path / "nope")


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


def _survey_csv(vehicle_days) -> str:
    """Survey rows of the generated vehicle-days, one household each."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(HEADER.split(","))
    for house, (first_start, trips) in enumerate(vehicle_days):
        arrival = first_start
        for k, (gap, road, duration, miles, purpose, garbage) in enumerate(trips):
            start = arrival + (gap if k else 0)
            arrival = start + road
            writer.writerow([
                f"h{house}", "1", 1, _hhmm(start), _hhmm(arrival),
                road if duration is None else duration,
                "x" if garbage else round(miles, 3), purpose,
            ])
    return out.getvalue()


def _hhmm(minute: int) -> str:
    minute %= 1440
    return f"{minute // 60:02d}{minute % 60:02d}"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(vehicle_days=_VEHICLE_DAYS)
def test_parse_chains_features_property(vehicle_days):
    diag = IngestDiagnostics()
    records = parse_records(io.StringIO(_survey_csv(vehicle_days)), diagnostics=diag)
    assert diag.rows_total == sum(len(trips) for _, trips in vehicle_days)
    assert diag.rows_total == diag.rows_accepted + diag.rows_rejected == len(records) + diag.rows_rejected

    chains = build_chains(records, diag)
    assert diag.chains_emitted == len(chains)
    for chain in chains:
        validate_chain(chain)

    dataset = extract_features(chains)
    assert dataset.total_chains == len(chains)
    assert set(dataset.samples) == {
        (ctype, *key) for ctype in dataset.counts for key in _required_keys(ctype)
    }
    for (ctype, feature, _), values in dataset.samples.items():
        if feature == FEATURE_VELOCITY:
            assert len(values) <= dataset.count(ctype)
            assert np.all(values > 0)
        else:
            assert len(values) == dataset.count(ctype)

    with tempfile.TemporaryDirectory() as tmp:
        save_dataset(dataset, tmp, diagnostics=diag)
        loaded = load_dataset(tmp)
    assert loaded.counts == dataset.counts
    assert loaded.samples.keys() == dataset.samples.keys()
    for key, values in dataset.samples.items():
        assert np.array_equal(loaded.samples[key], values), key
