"""Seeded survey generator for the ``survey_100k`` workload.

Copies every household of the bundled 200-row fixture ``copies`` times.
Copy ``k`` suffixes each ``HOUSEID`` with ``-k`` and multiplies every
parseable ``TRPMILES`` by one factor drawn from the workload seed. Times,
purposes and row order inside a copy are untouched, so each copy keeps the
fixture's chain structure and the ingest counts scale exactly:
``copies`` x (200 rows, 91 chains, 2 parse rejects, 3 dropped sequences).
"""

from __future__ import annotations

import csv
import random
from pathlib import Path

#: Ingest counts of one copy of the bundled fixture (see scripts/make_fixture.py).
FIXTURE_COUNTS = {"rows": 200, "chains": 91, "rejects": 2, "dropped": 3}

# Per-copy trip-length factors stay in a band where every fitted density
# keeps the fixture's shape; the bounds are arbitrary but fixed.
_SCALE_LO, _SCALE_HI = 0.8, 1.25


def expected_counts(copies: int) -> dict[str, int]:
    return {key: copies * value for key, value in FIXTURE_COUNTS.items()}


def write_survey(fixture: Path, out: Path, copies: int, seed: int) -> None:
    """Write ``copies`` seeded copies of ``fixture`` to ``out``."""
    with open(fixture, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        header = list(reader.fieldnames or [])
        rows = list(reader)
    rng = random.Random(seed)
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        for k in range(copies):
            scale = rng.uniform(_SCALE_LO, _SCALE_HI)
            for row in rows:
                row = dict(row, HOUSEID=f"{row['HOUSEID']}-{k}")
                try:
                    row["TRPMILES"] = repr(float(row["TRPMILES"]) * scale)
                except ValueError:
                    pass  # an unparseable length stays a parse reject
                writer.writerow(row)
