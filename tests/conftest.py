"""Shared fixtures: the bundled survey fixture and models fitted from it, and the
`hypothesis` profile of every property test."""

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from chargecast.forecast import FEATURE_VELOCITY, ModelSet
from chargecast.kde import KdeModel
from chargecast.survey import (
    CHAIN_TYPE_INDEX,
    FEATURE_DURATION,
    FEATURE_LENGTH,
    IngestDiagnostics,
    build_chains,
    extract_features,
    load_dataset,
    parse_records,
    sample_key,
)

# Every property test draws the same examples on each run and keeps no example database.
settings.register_profile("chargecast", derandomize=True, database=None)
settings.load_profile("chargecast")

# Chain counts baked into the bundled fixture (see scripts/make_fixture.py).
FIXTURE_CHAIN_COUNTS = {
    "H-W-H": 44,
    "H-SE-H": 20,
    "H-SR-H": 8,
    "H-O-H": 11,
    "H-W-SE-H": 6,
    "H-SE-SR-H": 2,
}
FIXTURE_TOTAL_CHAINS = sum(FIXTURE_CHAIN_COUNTS.values())
FIXTURE_ROWS = 200

# Vehicle-days that close the fixture's only H-O-W-H chain with a first trip that
# fits no velocity model of its own: its length is 0, or it averages 0.016 km/h,
# below the 1 km/h support. Appended to the fixture survey, each is still forecast.
SLOW_FIRST_TRIP_DAYS = tuple(
    first + "H9999,1,1,1000,1030,30,5,3\nH9999,1,1,1700,1730,30,5,1\n"
    for first in ("H9999,1,1,0900,0910,10,0,20\n", "H9999,1,1,0900,1000,60,0.01,20\n")
)


@pytest.fixture(scope="session")
def fixture_csv_path() -> Path:
    with resources.as_file(
        resources.files("chargecast").joinpath("data/survey_fixture.csv")
    ) as path:
        return Path(path)


@pytest.fixture(scope="session")
def fixture_ingest(fixture_csv_path):
    """(records, chains, dataset, diagnostics) parsed from the bundled CSV."""
    diag = IngestDiagnostics()
    with open(fixture_csv_path, newline="") as fh:
        records = parse_records(fh, diagnostics=diag)
    chains = build_chains(records, diag)
    dataset = extract_features(chains)
    return records, chains, dataset, diag


@pytest.fixture(scope="session")
def fixture_models(fixture_ingest) -> ModelSet:
    _, _, dataset, _ = fixture_ingest
    return ModelSet.from_dataset(dataset)


def rebuilt_models(dataset_dir, models_json) -> tuple[dict, dict[str, KdeModel]]:
    """The ``models.json`` document and each model in it, rebuilt as a reader
    does: the samples from the manifest under ``dataset_dir`` (a velocity
    model's as its trip's length over duration / 60, where the length is
    positive, and a pooled one's as the velocities of its trip index over
    every counted type, in CHAIN_TYPES order), the bandwidth and support from
    the model's entry (``null`` for an infinite end)."""
    columns = load_dataset(dataset_dir).samples
    samples = {sample_key(*key): values for key, values in columns.items()}
    pools = {}  # trip index -> each counted type's velocities, in CHAIN_TYPES order
    for (ctype, feature, index), length in sorted(columns.items(),
                                                  key=lambda item: CHAIN_TYPE_INDEX[item[0][0]]):
        if feature == FEATURE_LENGTH:
            duration = columns[ctype, FEATURE_DURATION, index]
            velocity = length[length > 0] / (duration[length > 0] / 60.0)
            samples[sample_key(ctype, FEATURE_VELOCITY, index)] = velocity
            pools.setdefault(index, []).append(velocity)
    doc = json.loads(Path(models_json).read_text())
    models = {}
    for key, entry in doc["models"].items():
        lo, hi = entry["support"]
        support = (-math.inf if lo is None else lo, math.inf if hi is None else hi)
        pooled = entry.get("pooled", False)
        values = np.concatenate(pools[int(key.rsplit("__", 1)[1])]) if pooled else samples[key]
        models[key] = KdeModel(values, entry["bandwidth"], support)
    return doc, models


def point_model(value: float, support=(0.0, math.inf)) -> KdeModel:
    """Near-degenerate density: every draw lands within ~1e-9 of ``value``."""
    return KdeModel(samples=np.array([value]), bandwidth=1e-9, support=support)


def point_model_set(chain_type, end1, lengths, velocities, dwells) -> ModelSet:
    """ModelSet whose every draw reproduces one fixed chain realization."""
    from chargecast.survey import CHAIN_TYPES, FEATURE_DWELL, FEATURE_END_TIME

    proportions = np.zeros(len(CHAIN_TYPES))
    proportions[CHAIN_TYPE_INDEX[chain_type]] = 1.0
    models = {(chain_type, FEATURE_END_TIME, 1): point_model(end1, (0.0, 1440.0))}
    for t, (length, velocity) in enumerate(zip(lengths, velocities), start=1):
        models[(chain_type, FEATURE_LENGTH, t)] = point_model(length)
        models[(chain_type, FEATURE_VELOCITY, t)] = point_model(velocity)
    for m, dwell in enumerate(dwells, start=1):
        models[(chain_type, FEATURE_DWELL, m)] = point_model(dwell)
    return ModelSet(proportions, models)
