"""End-to-end CLI: artifacts, exit codes, determinism."""

import copy
import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chargecast import __main__ as entry
from chargecast.cli import main, read_load_curve, write_schedule_csv
from chargecast.config import load_config
from chargecast.forecast import station_composite
from chargecast.scheduler import DEFAULT_TARIFF, EssParams, SchedulePlan, solve_schedule_slots
from chargecast.survey import sample_key
from conftest import FIXTURE_CHAIN_COUNTS, SLOW_FIRST_TRIP_DAYS, rebuilt_models

Q_DEFAULT = [0.04, 0.1, 0.2, 0.1, 0.1]
REPO_ROOT = Path(__file__).resolve().parents[1]
_ARRAY = "H-W-H__length_km__1"
_DURATION_2 = "H-W-H__duration_min__2"


def _edit(change):
    """Manifest-text corruption that applies ``change`` to the parsed document."""
    def apply(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return apply


def write_config(tmp_path, fixture_csv_path, **overrides):
    data = {
        "paths": {"input_csv": str(fixture_csv_path), "out_dir": str(tmp_path / "out")},
        "fleet": {"n_ev": 400, "q_pro": Q_DEFAULT},
        "seed": 11,
        "horizon_days": 3,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(data.get(key), dict):
            data[key].update(value)
        else:
            data[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_readme_library_example_runs(monkeypatch, capsys):
    """The README's "Library use" block runs from the repository root."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(REPO_ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert re.fullmatch(r"saving: \d+\.\d%\n", capsys.readouterr().out)


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI loads no scipy module."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = "import sys, chargecast.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_pipeline_run_loads_no_numpy_ma(tmp_path, fixture_csv_path):
    """A pipeline run imports no ``numpy.ma``: in numpy 2.4 ``np.percentile``
    and ``np.unique`` would, at some 20 ms of CPU and 0.9 MB."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = ("import sys; from chargecast.cli import main; "
            "assert main(['pipeline', '--config', sys.argv[1]]) == 0; "
            "print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, str(write_config(tmp_path, fixture_csv_path))],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_package_import_loads_no_numpy():
    """The package root imports nothing, so the entry module runs before numpy loads."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = "import sys, chargecast; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")], ids=["unset", "kept"])
def test_entry_defaults_openblas_to_one_thread(monkeypatch, capsys, tmp_path, preset, expected):
    # setenv first, so that teardown also removes a value the entry module set.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert entry.main(["ingest", "--config", str(tmp_path / "missing.json")]) == 2
    assert os.environ["OPENBLAS_NUM_THREADS"] == expected
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"


def test_console_script_target_is_callable():
    """The ``[project.scripts]`` entry names a function that imports."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["chargecast"]
    module, _, name = target.partition(":")
    assert callable(getattr(importlib.import_module(module), name))


class TestIngestCommand:
    def test_fixture_ingest(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["ingest", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out/ingest/manifest.json").read_text())
        nonzero = {k: v for k, v in manifest["counts"].items() if v > 0}
        assert len(nonzero) >= 2
        assert nonzero == FIXTURE_CHAIN_COUNTS
        assert manifest["provenance"]["seed"] == 11

    def test_header_only_csv(self, tmp_path, fixture_csv_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES,WHYTO\n")
        config = write_config(tmp_path, empty)
        assert main(["ingest", "--config", str(config)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert "zero usable chains" in err["message"]

    @pytest.mark.parametrize("trip", [
        "Z,1,1,0800,0830,5e-324,5,3",      # duration / 60 is 0.0
        "Z,1,1,0800,0830,1e-300,1e300,3",  # velocity overflows to inf
    ], ids=["zero_division", "infinite_velocity"])
    def test_non_finite_velocity_is_unparseable(self, tmp_path, fixture_csv_path, trip):
        survey = tmp_path / "survey.csv"
        survey.write_text(fixture_csv_path.read_text() + f"{trip}\nZ,1,1,1700,1730,30,5,1\n")
        config = write_config(tmp_path, survey)
        assert main(["ingest", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out/ingest/manifest.json").read_text())
        assert manifest["diagnostics"]["reject_reasons"]["unparseable_field"] == 1
        assert all(math.isfinite(v) for values in manifest["samples"].values() for v in values)
        assert main(["forecast", "--config", str(config)]) == 0

    def test_over_long_cell_is_data_error(self, tmp_path, fixture_csv_path, capsys):
        # 200,000 characters: over csv.field_size_limit(), 131,072 by default.
        survey = tmp_path / "survey.csv"
        survey.write_text(fixture_csv_path.read_text() + f"Z,1,1,0800,0830,30,{'5' * 200_000},3\n")
        config = write_config(tmp_path, survey)
        assert main(["ingest", "--config", str(config)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DataError" and str(survey) in error["message"]
        assert not (tmp_path / "out").exists()

    def test_missing_column(self, tmp_path, fixture_csv_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES\nA,1,1,0800,0810,10,1\n")
        config = write_config(tmp_path, bad)
        assert main(["ingest", "--config", str(config)]) == 2
        assert "WHYTO" in json.loads(capsys.readouterr().err)["message"]


_SURVEY = (REPO_ROOT / "src/chargecast/data/survey_fixture.csv").read_bytes()
_BAD_NUMBERS = ("1e400", "-1e400", "inf", "-inf", "nan", "Infinity", "1e308", "-1e308", "5e-324",
                "9" * 400, "9" * 5000, "9" * 200_000, "0x1A", "1_0")
_BAD_UTF8 = (b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf4\x90\x80\x80")
# A bad number is drawn most often: the other kinds mostly stop ingest early.
_MUTATIONS = ("number", "number", "number", "drop_cell", "blank_id", "flip", "truncate", "bad_utf8",
              "repeat_header")


@st.composite
def mutated_surveys(draw):
    """The fixture survey with one to three byte- or cell-level mutations."""
    blob = _SURVEY
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        at = draw(st.integers(0, len(blob)))
        if kind == "flip" and at < len(blob):
            blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
        elif kind == "truncate":
            blob = blob[:at]
        elif kind == "bad_utf8":
            blob = blob[:at] + draw(st.sampled_from(_BAD_UTF8)) + blob[at:]
        else:
            lines = blob.split(b"\n")
            row = 0 if kind == "repeat_header" else draw(st.integers(1, max(len(lines) - 1, 1)))
            cells = lines[row].split(b",") if row < len(lines) else []
            # A numeric cell is TRAVDAY to TRPMILES, an ID HOUSEID or VEHID.
            column = draw(st.integers(*{"number": (2, 6), "blank_id": (0, 1)}.get(kind, (0, 7))))
            if column < len(cells):
                if kind == "number":
                    cells[column] = draw(st.sampled_from(_BAD_NUMBERS)).encode()
                elif kind == "drop_cell":
                    del cells[column]
                elif kind == "blank_id":
                    cells[column] = draw(st.sampled_from([b"", b"  "]))
                else:
                    cells[column] = cells[draw(st.integers(0, len(cells) - 1))]
                lines[row] = b",".join(cells)
                blob = b"\n".join(lines)
    return blob


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_exits_0_2_or_3(argv, stage_dir, artifact):
    """``main(argv)`` exits 0 and ``stage_dir / artifact`` is strict JSON, or it
    exits 2 or 3 with one JSON error object on stderr and no ``stage_dir``."""
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert json.loads(err.getvalue())["exit_code"] == code
        assert not stage_dir.exists()
    else:
        json.loads((stage_dir / artifact).read_text(encoding="utf-8"), parse_constant=_reject_constant)


@settings(max_examples=120, deadline=None)
@given(survey=mutated_surveys())
def test_mutated_survey_ingest_exits_0_2_or_3(survey):
    """A damaged survey exits 0 with a strict-JSON manifest, or 2 or 3 with
    one JSON error object and no ingest output; never 4."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "survey.csv"
        path.write_bytes(survey)
        config = write_config(tmp, path)
        _assert_exits_0_2_or_3(["ingest", "--config", str(config)], tmp / "out/ingest", "manifest.json")


# WHYTO codes of a midway stop: work, shopping & errands, social & recreation, other.
_MIDWAY_PURPOSES = (3, 11, 15, 20)


def _hhmm(minute: int) -> str:
    return f"{minute // 60 % 24:02d}{minute % 60:02d}"


@st.composite
def home_closed_days(draw, household: str) -> list[str]:
    """Rows of one vehicle-day of 2 or 3 trips that ends at home: lengths may be
    zero or slow, and one trip, or the dwell before one, may cross midnight."""
    n = draw(st.integers(2, 3))
    miles = st.sampled_from([0.0, 0.001, 0.01]) | st.floats(0.0, 40.0)
    start = draw(st.integers(240, 1439))  # on a day from 04:00, the NHTS day boundary
    rows = []
    for k in range(n):
        if k:
            start = end + draw(st.integers(0, 300))
        end = start + draw(st.integers(1, 120))
        purpose = 1 if k == n - 1 else draw(st.sampled_from(_MIDWAY_PURPOSES))
        rows.append(f"{household},1,1,{_hhmm(start)},{_hhmm(end)},{end - start},"
                    f"{draw(miles)!r},{purpose}")
    # A day that runs past midnight, within a trip or a dwell, ends its small hours by 04:00.
    assume(end < 1440 + 240)
    return rows


@settings(max_examples=40, deadline=None)
@given(days=st.integers(1, 5).flatmap(
    lambda n: st.tuples(*(home_closed_days(f"Q{i}") for i in range(n)))))
def test_every_valid_survey_is_forecast(days):
    """The fixture with 1 to 5 more home-closed vehicle-days, each one chain,
    goes through the whole pipeline, whatever the new chains' trip lengths."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "survey.csv"
        path.write_bytes(_SURVEY + "".join(row + "\n" for rows in days for row in rows).encode())
        config = write_config(tmp, path, fleet={"n_ev": 300})
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            assert main(["pipeline", "--config", str(config)]) == 0, err.getvalue()
        manifest = json.loads((tmp / "out/ingest/manifest.json").read_text())
        assert manifest["total_chains"] == sum(FIXTURE_CHAIN_COUNTS.values()) + len(days)


_CASE_STUDY = REPO_ROOT / "out/case_study"
_CURVE = (_CASE_STUDY / "forecast/load_curve.csv").read_bytes()
_BAD_CELLS = ("1e308", "9" * 400, "nan", "inf", "-inf", "-300.5", "-0.0", "", "  ", "1_0",
              "\u0661\u0662", "\uff13.5")
# A bad cell is drawn most often: every other kind stops schedule early.
_CURVE_MUTATIONS = ("cell", "cell", "cell", "flip", "truncate", "bad_utf8", "drop_line",
                    "duplicate_line")


@st.composite
def mutated_load_curves(draw):
    """The case-study load curve with one or two byte-, cell- or line-level mutations."""
    blob = _CURVE
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(_CURVE_MUTATIONS))
        at = draw(st.integers(0, len(blob)))
        if kind == "flip" and at < len(blob):
            blob = blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
        elif kind == "truncate":
            blob = blob[:at]
        elif kind == "bad_utf8":
            blob = blob[:at] + draw(st.sampled_from(_BAD_UTF8)) + blob[at:]
        else:
            lines = blob.split(b"\n")
            row = draw(st.integers(0, len(lines) - 1))
            if kind == "drop_line":
                del lines[row]
            elif kind == "duplicate_line":
                lines.insert(row, lines[row])
            elif row > 0:  # a data row's cell in columns 1 to 6, the loads
                cells = lines[row].split(b",")
                column = draw(st.integers(1, 6))
                if column < len(cells):
                    cells[column] = draw(st.sampled_from(_BAD_CELLS)).encode()
                    lines[row] = b",".join(cells)
            blob = b"\n".join(lines)
    return blob


@settings(max_examples=100, deadline=None)
@given(curve=mutated_load_curves())
def test_mutated_load_curve_schedule_exits_0_2_or_3(curve):
    """A damaged load curve exits 0 with a strict-JSON schedule summary, or 2
    or 3 with one JSON error object and no schedule output; never 4."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "curve.csv").write_bytes(curve)
        config = tmp / "config.json"
        config.write_text(json.dumps({"paths": {"out_dir": str(tmp / "out")}}))
        argv = ["schedule", "--config", str(config), "--load", str(tmp / "curve.csv")]
        _assert_exits_0_2_or_3(argv, tmp / "out/schedule", "summary.json")


_MANIFEST = json.loads((_CASE_STUDY / "ingest/manifest.json").read_text(encoding="utf-8"))
_CONFIG = json.loads((REPO_ROOT / "configs/case_study.json").read_text(encoding="utf-8"))
_CONFIG["fleet"]["n_ev"] = 300
# json.dumps writes NaN and Infinity as such, and 10**400 as its digits.
_ODD_VALUES = (None, True, False, 0, -1, 1.5, 1e308, -1e308, 10**400, "", "H-W-H", "1.0", [], {},
               [[1.0]], [[], [None]], 2**63, -0.0, 5e-324, math.nan, math.inf, -math.inf)


@st.composite
def _json_edit(draw, doc, roots):
    """``doc`` with the value at one random path under one of ``roots`` (top-level
    keys) swapped for an odd value, or deleted."""
    roots = [key for key in roots if key in doc]  # an earlier edit may have deleted one
    if not roots:
        return doc
    doc = copy.deepcopy(doc)
    node, key = doc, draw(st.sampled_from(roots))
    while isinstance(node[key], dict | list) and node[key] and draw(st.booleans()):
        node = node[key]
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
    if draw(st.integers(0, 3)):
        node[key] = draw(st.sampled_from(_ODD_VALUES))
    else:
        del node[key]
    return doc


@st.composite
def mutated_forecast_inputs(draw):
    """The case-study manifest and config, as text, after one or two edits.
    The manifest is edited three times as often as the config, whose edits
    mostly exit 2 before the manifest is read, and only under ``counts`` and
    ``samples``, the keys the forecast reads."""
    manifest, config = _MANIFEST, _CONFIG
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 3)):
            manifest = draw(_json_edit(manifest, ["counts", "samples"]))
        else:
            config = draw(_json_edit(config, list(config)))
    if isinstance(config.get("fleet", {}), dict):
        # A dropped n_ev would default to 10,000 vehicles: keep each run small.
        config = {**config, "fleet": {"n_ev": 300, **config.get("fleet", {})}}
    return json.dumps(manifest), json.dumps(config)


@settings(max_examples=100, deadline=None)
@given(inputs=mutated_forecast_inputs())
def test_mutated_manifest_or_config_forecast_exits_0_2_or_3(inputs):
    """A damaged manifest or config exits 0 with a strict-JSON forecast summary,
    or 2 or 3 with one JSON error object and no forecast output; never 4."""
    manifest, config = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "out/ingest").mkdir(parents=True)
        (tmp / "out/ingest/manifest.json").write_text(manifest, encoding="utf-8")
        (tmp / "config.json").write_text(config, encoding="utf-8")
        argv = ["forecast", "--config", str(tmp / "config.json"), "--out", str(tmp / "out")]
        _assert_exits_0_2_or_3(argv, tmp / "out/forecast", "summary.json")


_LOAD_HEADER = "slot_start_min,load_H_kW,load_W_kW,load_SE_kW,load_SR_kW,load_O_kW,load_station_kW\n"
_UNKNOWN_TYPE_MANIFEST = json.dumps({**_MANIFEST, "counts": {**_MANIFEST["counts"], "H-Q-H": 1}})


@pytest.mark.parametrize("argv, config, files, code, error", [
    (["ingest"], {"paths": {"input_csv": None}}, {}, 2, "ConfigurationError"),
    (["ingest"], {"paths": {"input_csv": "missing.csv"}}, {}, 3, "DataError"),
    (["schedule", "--load", "missing.csv"], {}, {}, 3, "DataError"),
    (["schedule", "--load", "curve.csv"], {}, {"curve.csv": _LOAD_HEADER}, 3, "DataError"),
    (["ingest"], [], {}, 2, "ConfigurationError"),
    (["ingest"], {"threads": 0}, {}, 2, "ConfigurationError"),
    (["ingest"], {"column_map": []}, {}, 2, "ConfigurationError"),
    (["forecast"], {}, {"out/ingest/manifest.json": _UNKNOWN_TYPE_MANIFEST}, 3, "DataError"),
    (["ingest"], {"fleet": {"q_pro": [0.1] * 4}}, {}, 2, "ConfigurationError"),
], ids=["no_input_csv", "missing_input_csv", "missing_load_curve", "header_only_load_curve",
        "list_config", "zero_threads", "list_column_map", "unknown_chain_type", "four_q_pro"])
def test_bad_input_exits_with_its_typed_code(tmp_path, monkeypatch, capsys, argv, config, files,
                                             code, error):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main([argv[0], "--config", "config.json", *argv[1:]]) == code
    assert json.loads(capsys.readouterr().err)["error"] == error


class TestForecastCommand:
    def run_pipeline_stages(self, tmp_path, fixture_csv_path, **overrides):
        config = write_config(tmp_path, fixture_csv_path, **overrides)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["forecast", "--config", str(config)]) == 0
        return config, tmp_path / "out/forecast/load_curve.csv"

    def test_one_day_report_has_96_rows(self, tmp_path, fixture_csv_path):
        _, curve = self.run_pipeline_stages(tmp_path, fixture_csv_path)
        lines = curve.read_text().strip().splitlines()
        assert len(lines) == 97  # header + 96 slots
        assert lines[0] == (
            "slot_start_min,load_H_kW,load_W_kW,load_SE_kW,load_SR_kW,load_O_kW,load_station_kW"
        )

    def test_station_column_is_exact_dot_product(self, tmp_path, fixture_csv_path):
        _, curve = self.run_pipeline_stages(tmp_path, fixture_csv_path)
        _, site, station, _ = read_load_curve(curve)
        recomputed = station_composite(Q_DEFAULT, site)
        assert np.array_equal(station, recomputed)

    def test_zero_fleet_zero_curve(self, tmp_path, fixture_csv_path):
        _, curve = self.run_pipeline_stages(tmp_path, fixture_csv_path, fleet={"n_ev": 0, "q_pro": Q_DEFAULT})
        _, site, station, _ = read_load_curve(curve)
        assert not site.any() and not station.any()

    def test_rerun_is_byte_identical(self, tmp_path, fixture_csv_path):
        _, curve = self.run_pipeline_stages(tmp_path, fixture_csv_path)
        first = curve.read_bytes()
        config = tmp_path / "config.json"
        assert main(["forecast", "--config", str(config)]) == 0
        assert curve.read_bytes() == first

    def test_thread_flag_does_not_change_bytes(self, tmp_path, fixture_csv_path):
        config, curve = self.run_pipeline_stages(tmp_path, fixture_csv_path, fleet={"n_ev": 600, "q_pro": Q_DEFAULT})
        single = curve.read_bytes()
        assert main(["forecast", "--config", str(config), "--threads", "4"]) == 0
        assert curve.read_bytes() == single

    def test_missing_dataset(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["forecast", "--config", str(config)]) == 3

    @pytest.mark.parametrize("corrupt", [
        _edit(lambda m: m["samples"].pop(_ARRAY)),
        _edit(lambda m: m["samples"][_ARRAY].append("abc")),
        _edit(lambda m: m["samples"][_ARRAY].insert(1, None)),
        lambda text: text[:-2],
        _edit(lambda m: m.pop("counts")),
        _edit(lambda m: m.pop("samples")),
        _edit(lambda m: m["samples"].update({"H-Q-H__length_km__1": [1.0]})),
        _edit(lambda m: m["samples"][_ARRAY].append(math.inf)),
        _edit(lambda m: m["samples"][_ARRAY].append(10 ** 400)),
        _edit(lambda m: m["counts"].update({"H-W-H": "44"})),
        lambda text: "[" + text + "]",
        _edit(lambda m: m["samples"].update({"H-W-H__end_time_min__2": [1.0]})),
        _edit(lambda m: m["samples"].update({"H-W-H__dwell_min__2": [1.0]})),
        _edit(lambda m: m["samples"].update({"H-W-W-H__length_km__1": [1.0]})),
        _edit(lambda m: m["samples"].update({_ARRAY: m["samples"][_ARRAY][:3]})),
        _edit(lambda m: m["samples"].update({_DURATION_2: m["samples"][_DURATION_2][1:]})),
        _edit(lambda m: m["samples"][_DURATION_2].__setitem__(0, 0.0)),
        # Positive, but zero once divided by 60: the derived velocity is inf.
        _edit(lambda m: m["samples"][_DURATION_2].__setitem__(0, 5e-324)),
    ], ids=[
        "missing_array", "non_numeric_value", "null_value", "not_json", "no_counts",
        "no_samples", "unknown_label", "non_finite_value", "huge_integer", "string_count",
        "not_an_object", "end_time_2", "dwell_past_last_midway", "uncounted_type",
        "fewer_samples_than_chains", "fewer_durations_than_chains", "nonpositive_duration",
        "tiny_duration",
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, fixture_csv_path, capsys, corrupt):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["ingest", "--config", str(config)]) == 0
        manifest = tmp_path / "out/ingest/manifest.json"
        manifest.write_text(corrupt(manifest.read_text()))
        capsys.readouterr()
        assert main(["forecast", "--config", str(config)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"

    @pytest.mark.parametrize("sample, fleet", [
        (1e300, {}),                        # the bandwidth's squared deviations overflow
        (None, {"u_kwh_per_km": 1e308}),    # a trip's energy overflows
        (None, {"c_ev_kwh": 5e-324}),       # a trip's share of the battery overflows
    ], ids=["huge_sample", "huge_consumption", "tiny_battery"])
    def test_overflowing_forecast_is_data_error(self, tmp_path, fixture_csv_path, capsys, sample,
                                                fleet):
        config = write_config(tmp_path, fixture_csv_path, fleet={"n_ev": 300, **fleet})
        assert main(["ingest", "--config", str(config)]) == 0
        if sample is not None:
            manifest = tmp_path / "out/ingest/manifest.json"
            # In place of a positive length, so that the arrays still line up.
            replace = _edit(lambda m: m["samples"][_ARRAY].__setitem__(0, sample))
            manifest.write_text(replace(manifest.read_text()))
        capsys.readouterr()
        assert main(["forecast", "--config", str(config)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DataError" and "too large" in error["message"]
        assert not (tmp_path / "out/forecast").exists()


class TestScheduleCommand:
    def run_all(self, tmp_path, fixture_csv_path, **overrides):
        config = write_config(tmp_path, fixture_csv_path, **overrides)
        assert main(["pipeline", "--config", str(config)]) == 0
        return json.loads((tmp_path / "out/schedule/summary.json").read_text())

    def test_defaults_save_money(self, tmp_path, fixture_csv_path):
        summary = self.run_all(tmp_path, fixture_csv_path, fleet={"n_ev": 1500, "q_pro": Q_DEFAULT})
        assert summary["saving_fraction"] > 0
        assert summary["cost_with_ess"] < summary["cost_baseline"]
        assert len(summary["per_day"]["with_ess"]) == 3

    def test_zero_storage_zero_saving(self, tmp_path, fixture_csv_path):
        summary = self.run_all(
            tmp_path, fixture_csv_path,
            fleet={"n_ev": 800, "q_pro": Q_DEFAULT}, ess={"c_ess_kwh": 0.0},
        )
        assert summary["saving_fraction"] == 0.0

    def test_flat_tariff_no_saving(self, tmp_path, fixture_csv_path):
        # On both inputs the storage DP bills a hair more than the baseline:
        # the store stays idle instead, and the bill is the baseline's.
        for n_ev, price in [(800, 0.7), (300, 0.5)]:
            run_dir = tmp_path / f"{n_ev}"
            run_dir.mkdir()
            summary = self.run_all(
                run_dir, fixture_csv_path,
                fleet={"n_ev": n_ev, "q_pro": Q_DEFAULT}, tariff=[[0, 1440, price]],
            )
            assert summary["saving_fraction"] == 0.0
            assert summary["cost_with_ess"] == summary["cost_baseline"]
            assert summary["per_day"]["with_ess"] == summary["per_day"]["baseline"]

    def test_schedule_csv_columns(self, tmp_path, fixture_csv_path):
        self.run_all(tmp_path, fixture_csv_path)
        lines = (tmp_path / "out/schedule/schedule.csv").read_text().strip().splitlines()
        assert lines[0] == "slot_start_min,price,p_ev_kw,p_ess_kw,p_ch_kw,soc_ess"
        assert len(lines) == 1 + 3 * 96

    def test_load_flag_is_read_and_echoed(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["forecast", "--config", str(config)]) == 0
        moved = tmp_path / "moved.csv"
        (tmp_path / "out/forecast/load_curve.csv").rename(moved)
        assert main(["schedule", "--config", str(config), "--load", str(moved)]) == 0
        summary = json.loads((tmp_path / "out/schedule/summary.json").read_text())
        assert summary["config"]["paths"]["load_curve"] == str(moved)

    @pytest.mark.parametrize("row, cells", [
        (1, "15,1,1,1"),
        (1, "15,1,1,1,1,1,abc"),
        (3, "50,1,1,1,1,1,1"),
        (1, "15,1,1,1,1,1,nan"),
        (1, "15,1,1,1,1,1,inf"),
        (1, "15,1,1,1,1,1,1e400"),
    ], ids=["short_row", "non_numeric_cell", "off_grid_start", "nan_station", "inf_station",
            "overflowing_station"])
    def test_malformed_load_curve_is_data_error(self, tmp_path, fixture_csv_path, capsys, row, cells):
        lines = ["slot_start_min,load_H_kW,load_W_kW,load_SE_kW,load_SR_kW,load_O_kW,load_station_kW"]
        lines += [f"{15 * i},0.0,0.0,0.0,0.0,0.0,0.0" for i in range(96)]
        lines[1 + row] = cells
        curve = tmp_path / "curve.csv"
        curve.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["schedule", "--config", str(config), "--load", str(curve)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"

    def test_overflowing_bill_is_data_error(self, tmp_path, capsys):
        # Both the price and the load are finite, but their product is not.
        curve = REPO_ROOT / "out/case_study/forecast/load_curve.csv"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"paths": {"out_dir": str(tmp_path / "out")},
                                      "tariff": [[0, 1440, 1e308]]}))
        assert main(["schedule", "--config", str(config), "--load", str(curve)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"
        assert not (tmp_path / "out").exists()

    def test_nine_minute_grid_labels(self, tmp_path):
        # 160 slots of 9 min: each start is 9 * i, though i * (9/60 * 60) is not.
        rng = np.random.default_rng(9)
        plan = solve_schedule_slots(rng.uniform(0.0, 300.0, 160), rng.uniform(0.3, 1.0, 160),
                                    9 / 60, EssParams())
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, plan)
        starts = [line.split(",")[0] for line in path.read_text().splitlines()[1:]]
        assert starts == [str(9 * i) for i in range(160)]

    @pytest.mark.parametrize("ess", [
        EssParams(c_ess_kwh=0.0),
        EssParams(p_charge_max_kw=0.0, p_discharge_max_kw=0.0),
    ], ids=["no_capacity", "no_power"])
    def test_zero_storage_prints_exact_zeros(self, tmp_path, ess):
        # The DP would give -0.0 in slots with no load, whose floor is -0.0 kW.
        load = np.random.default_rng(5).uniform(0.0, 300.0, 96)
        load[:24] = 0.0
        plan = solve_schedule_slots(load, DEFAULT_TARIFF.slot_prices(15, 96), 0.25, ess)
        path = tmp_path / "schedule.csv"
        write_schedule_csv(path, plan)
        assert {line.split(",")[3] for line in path.read_text().splitlines()[1:]} == {"0.0"}

    def test_one_minute_horizon_above_the_slot_bound_writes_nothing(self, tmp_path,
                                                                   fixture_csv_path, capsys):
        # 366 days of a 1,440-row curve are 527,040 slots, above the scheduler's 351,360.
        lines = ["slot_start_min,load_H_kW,load_W_kW,load_SE_kW,load_SR_kW,load_O_kW,load_station_kW"]
        lines += [f"{i},0.0,0.0,0.0,0.0,0.0,1.0" for i in range(1440)]
        curve = tmp_path / "curve.csv"
        curve.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, fixture_csv_path, horizon_days=366)
        assert main(["schedule", "--config", str(config), "--load", str(curve)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and "horizon_days 366" in error["message"]
        assert not (tmp_path / "out/schedule").exists()

    def test_one_slot_day_schedules(self, tmp_path, fixture_csv_path):
        # The slot length comes from the row count: one row is one 1440-min slot.
        summary = self.run_all(
            tmp_path, fixture_csv_path,
            fleet={"slot_minutes": 1440}, tariff=[[0, 1440, 0.7]],
        )
        assert len(summary["per_day"]["with_ess"]) == 3
        lines = (tmp_path / "out/schedule/schedule.csv").read_text().strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1440", "2880"]


class TestPipelineCommand:
    def test_all_artifacts_present(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        for artifact in [
            "ingest/manifest.json", "forecast/load_curve.csv", "forecast/models.json",
            "forecast/summary.json", "schedule/schedule.csv", "schedule/summary.json",
        ]:
            assert (out / artifact).is_file(), artifact

    def test_models_json_rebuilds_the_fitted_models(self, tmp_path, fixture_csv_path, fixture_models):
        """models.json holds each fitted model's bandwidth and support, and the
        manifest its samples; together they rebuild models that draw as the fitted ones."""
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        doc, rebuilt = rebuilt_models(out / "ingest", out / "forecast" / "models.json")
        assert set(doc) == {"schema", "models"}
        assert all(set(entry) == {"bandwidth", "support"} for entry in doc["models"].values())
        assert list(rebuilt) == [sample_key(*key) for key in fixture_models.models]
        for key, model in fixture_models.models.items():
            draws = rebuilt[sample_key(*key)].sample_many(np.random.default_rng(5), 200)
            assert np.array_equal(draws, model.sample_many(np.random.default_rng(5), 200)), key

    def test_fit_error_names_its_model(self, tmp_path, fixture_csv_path):
        """The only H-O-W-H chain's first trip has zero length, so its own
        velocity samples are empty, or averages 0.016 km/h, so its density has
        no mass above the 1 km/h support. Either way the model is fitted on
        the pooled trip-1 velocities, and the run says so."""
        for vehicle_day in SLOW_FIRST_TRIP_DAYS:
            survey = tmp_path / "survey.csv"
            survey.write_text(fixture_csv_path.read_text() + vehicle_day)
            config = write_config(tmp_path, survey, fleet={"n_ev": 300})
            assert main(["pipeline", "--config", str(config)]) == 0
            out = tmp_path / "out/forecast"
            summary = json.loads((out / "summary.json").read_text())
            assert summary["pooled_models"] == ["H-O-W-H__velocity_kmh__1"]
            models = json.loads((out / "models.json").read_text())["models"]
            assert [key for key, entry in models.items() if entry.pop("pooled", False)] == \
                ["H-O-W-H__velocity_kmh__1"]
            assert all(set(entry) == {"bandwidth", "support"} for entry in models.values())

    def test_rerun_byte_identical_artifacts(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        out = tmp_path / "out"
        files = sorted(p for p in out.rglob("*") if p.is_file())
        snapshots = {p: p.read_bytes() for p in files}
        assert main(["pipeline", "--config", str(config)]) == 0
        for p, blob in snapshots.items():
            assert p.read_bytes() == blob, p

    def test_broken_config_fails_before_writing(self, tmp_path, fixture_csv_path, capsys):
        config = write_config(tmp_path, fixture_csv_path, fleet={"n_ev": -5})
        assert main(["pipeline", "--config", str(config)]) == 2
        assert not (tmp_path / "out").exists()
        capsys.readouterr()

    @pytest.mark.parametrize("flag", [False, True])
    def test_negative_seed_fails_before_writing(self, tmp_path, fixture_csv_path, capsys, flag):
        config = write_config(tmp_path, fixture_csv_path, **({} if flag else {"seed": -1}))
        argv = ["pipeline", "--config", str(config), *(["--seed", "-1"] if flag else [])]
        assert main(argv) == 2
        assert not (tmp_path / "out").exists()
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and "seed" in error["message"]

    @pytest.mark.parametrize("days", [10**20, 3661])
    def test_horizon_above_maximum_fails_before_writing(self, tmp_path, fixture_csv_path, capsys,
                                                        days):
        config = write_config(tmp_path, fixture_csv_path, horizon_days=days)
        assert main(["pipeline", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and "horizon_days" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n_ev", [10**20, 1_000_001])
    def test_fleet_above_maximum_fails_before_writing(self, tmp_path, fixture_csv_path, capsys,
                                                      n_ev):
        config = write_config(tmp_path, fixture_csv_path, fleet={"n_ev": n_ev})
        assert main(["pipeline", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and "n_ev" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides", [
        {"tariff": [[0, 487, 0.5], [487, 1440, 0.6]], "fleet": {"n_ev": 300}},
        {"fleet": {"slot_minutes": 1440}},
    ], ids=["off_grid_tariff", "one_slot_day"])
    def test_tariff_off_the_forecast_grid_fails_before_writing(self, tmp_path, fixture_csv_path,
                                                              capsys, overrides):
        config = write_config(tmp_path, fixture_csv_path, **overrides)
        assert main(["pipeline", "--config", str(config)]) == 3
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "DataError" and "straddles a tariff boundary" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_one_minute_horizon_above_the_slot_bound_fails_before_writing(
            self, tmp_path, fixture_csv_path, capsys):
        config = write_config(tmp_path, fixture_csv_path, fleet={"slot_minutes": 1},
                              horizon_days=366)
        assert main(["pipeline", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and "horizon_days" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tariff", [
        [[0, 2000, 0.5], [2000, 1440, 0.6]],
        [[0, 600, 0.5], [600, 600, 9.0], [600, 1440, 0.6]],
    ], ids=["backward", "zero_width"])
    def test_tariff_window_running_backward_fails_before_writing(self, tmp_path,
                                                                 fixture_csv_path, capsys, tariff):
        config = write_config(tmp_path, fixture_csv_path, tariff=tariff, fleet={"n_ev": 300})
        assert main(["pipeline", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and "run forward" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path, fixture_csv_path, capsys):
        config = write_config(tmp_path, fixture_csv_path, horizonn_days=3)
        assert main(["pipeline", "--config", str(config)]) == 2
        assert "horizonn_days" in json.loads(capsys.readouterr().err)["message"]

    def test_unknown_fleet_key_rejected(self, tmp_path, fixture_csv_path, capsys):
        config = write_config(tmp_path, fixture_csv_path, fleet={"p_charging": 60})
        assert main(["pipeline", "--config", str(config)]) == 2
        assert "p_charging" in json.loads(capsys.readouterr().err)["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"horizon_days": "three"},
        {"threads": "two"},
        {"paths": {"input_csv": 5}},
        {"ess": {"require_terminal_soc": "false"}},
        {"fleet": {"n_ev": 2.7}},
        {"currency": None},
        {"tariff": [[0, 1440, True]]},
        {"tariff": [[0, 1440, "0.5"]]},
        {"ess": {"c_ess_kwh": math.nan}},
        {"fleet": {"p_charging_kw": math.inf}},
        {"tariff": [[0, 1440, math.inf]]},
        {"ess": {"c_ess_kwh": 10**400}},
        {"column_map": {"vehicle": "VEHID"}},
    ], ids=[
        "horizon_days", "threads", "input_csv", "require_terminal_soc", "n_ev",
        "currency_null", "tariff_bool", "tariff_string", "nan_capacity", "infinite_power",
        "infinite_price", "huge_integer", "column_map_unknown_field",
    ])
    def test_malformed_value_exits_2(self, tmp_path, fixture_csv_path, capsys, override):
        config = write_config(tmp_path, fixture_csv_path, **override)
        assert main(["ingest", "--config", str(config)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_malformed_json_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["ingest", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("bad, command, code", [
        ("survey.csv", "ingest", 3), ("curve.csv", "schedule", 3), ("config.json", "ingest", 2),
    ], ids=["survey_latin1_id", "load_curve_ff_byte", "config_latin1_currency"])
    def test_undecodable_file_exits_with_its_code(self, tmp_path, fixture_csv_path, capsys,
                                                  bad, command, code):
        # Each command stops at its own bad file: config before survey, and
        # schedule reads no survey.
        survey = tmp_path / "survey.csv"
        survey.write_bytes(fixture_csv_path.read_bytes().replace(b"\nH0001,", b"\nH\xe9001,", 1))
        curve = tmp_path / "curve.csv"
        curve.write_bytes(b"slot_start_min,load_H_kW\n0,\xff\n")
        config = write_config(tmp_path, survey)
        if bad == "config.json":
            config.write_bytes(config.read_bytes()[:-1] + b', "currency": "\xa5"}')
        args = [command, "--config", str(config)]
        if command == "schedule":
            args += ["--load", str(curve)]
        assert main(args) == code
        assert str(tmp_path / bad) in json.loads(capsys.readouterr().err)["message"]

    def test_out_override(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        alt = tmp_path / "elsewhere"
        assert main(["ingest", "--config", str(config), "--out", str(alt)]) == 0
        assert (alt / "ingest/manifest.json").is_file()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("occupied", ["out", "out/forecast"], ids=["out_dir", "stage_dir"])
    def test_output_path_that_is_a_file_exits_2(self, tmp_path, fixture_csv_path, capsys, occupied):
        # A file at --out stops ingest; one at <out>/forecast stops the
        # forecast after ingest has written its output.
        config = write_config(tmp_path, fixture_csv_path)
        blocker = tmp_path / occupied
        blocker.parent.mkdir(exist_ok=True)
        blocker.write_bytes(b"not a directory\n")
        assert main(["pipeline", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigurationError" and str(blocker) in error["message"]
        assert blocker.read_bytes() == b"not a directory\n"
        assert (tmp_path / "out/ingest/manifest.json").is_file() == (occupied == "out/forecast")
        assert not (tmp_path / "out/schedule").exists()

    def test_bom_in_input_csv(self, tmp_path, fixture_csv_path):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + fixture_csv_path.read_bytes())
        config = write_config(tmp_path, bom_csv)
        assert main(["ingest", "--config", str(config)]) == 0

    def test_bad_destination_map_rejected(self, tmp_path, fixture_csv_path, capsys):
        config = write_config(tmp_path, fixture_csv_path, destination_map={"3": "WORK"})
        assert main(["ingest", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_destination_map_override_applies(self, tmp_path, fixture_csv_path):
        # Map the work purpose code to SE: no H-W-H chains remain.
        config = write_config(
            tmp_path, fixture_csv_path,
            destination_map={"1": "H", "3": "SE", "11": "SE", "15": "SR", "97": "O", "8": "O"},
        )
        assert main(["ingest", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out/ingest/manifest.json").read_text())
        assert manifest["counts"]["H-W-H"] == 0
        assert manifest["counts"]["H-SE-H"] > 0

    def test_seed_override_changes_output(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["pipeline", "--config", str(config)]) == 0
        curve = tmp_path / "out/forecast/load_curve.csv"
        base = curve.read_bytes()
        assert main(["forecast", "--config", str(config), "--seed", "999"]) == 0
        assert curve.read_bytes() != base
        summary = json.loads((tmp_path / "out/forecast/summary.json").read_text())
        assert summary["seed"] == 999

    def test_pipeline_ignores_standalone_stage_inputs(self, tmp_path, fixture_csv_path):
        # Decoys: a valid dataset with no H-W-H chains and an all-zero load curve.
        plain = write_config(tmp_path, fixture_csv_path)
        assert main(["pipeline", "--config", str(plain)]) == 0
        decoy = tmp_path / "decoy"
        config = write_config(
            tmp_path, fixture_csv_path,
            destination_map={"1": "H", "3": "SE", "11": "SE", "15": "SR", "97": "O", "8": "O"},
        )
        assert main(["ingest", "--config", str(config), "--out", str(decoy)]) == 0
        curve = (tmp_path / "out/forecast/load_curve.csv").read_text().splitlines()
        zero_rows = [row.split(",")[0] + ",0.0" * 6 for row in curve[1:]]
        (decoy / "load_curve.csv").write_text("\n".join([curve[0], *zero_rows]) + "\n")

        config = write_config(tmp_path, fixture_csv_path, paths={
            "dataset_dir": str(decoy / "ingest"),
            "load_curve": str(decoy / "load_curve.csv"),
            "out_dir": str(tmp_path / "chained"),
        })
        assert main(["pipeline", "--config", str(config)]) == 0
        for artifact in ["forecast/load_curve.csv", "forecast/models.json", "schedule/schedule.csv"]:
            assert (tmp_path / "chained" / artifact).read_bytes() == (
                tmp_path / "out" / artifact
            ).read_bytes(), artifact
        # The echoes name the inputs the run read: none of the decoys.
        for artifact in ["ingest/manifest.json", "forecast/summary.json", "schedule/summary.json"]:
            document = json.loads((tmp_path / "chained" / artifact).read_text())
            paths = document.get("provenance", document)["config"]["paths"]
            assert paths["dataset_dir"] is None and paths["load_curve"] is None, artifact

    def test_in_memory_hand_off_matches_separate_stages(self, tmp_path, fixture_csv_path):
        # The stages read ingest's manifest back; the pipeline hands the
        # dataset over in memory, and ModelSet.save keeps its count order.
        config = write_config(tmp_path, fixture_csv_path)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(config)]) == 0
        piped = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        shutil.rmtree(out)
        for stage in ("ingest", "forecast", "schedule"):
            assert main([stage, "--config", str(config)]) == 0
        staged = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert piped == staged, sorted(str(p) for p in piped if piped[p] != staged.get(p))

    def test_traced_benchmark_run_writes_the_pipeline_bytes(self, tmp_path, fixture_csv_path):
        """perfbench/traced.py makes the calls the pipeline makes, so it writes
        the same artifacts, up to the out_dir echo."""
        config = write_config(tmp_path, fixture_csv_path, fleet={"n_ev": 300}, horizon_days=1)
        cli, traced = tmp_path / "cli", tmp_path / "traced"
        assert main(["pipeline", "--config", str(config), "--out", str(cli)]) == 0
        run = subprocess.run(
            [sys.executable, str(REPO_ROOT / "perfbench" / "traced.py"), str(tmp_path / "trace.json"),
             "--config", str(config), "--out", str(traced)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        echo = b'"out_dir": ' + json.dumps(str(traced)).encode()
        cli_echo = b'"out_dir": ' + json.dumps(str(cli)).encode()
        for rel in ["ingest/manifest.json", "forecast/models.json", "forecast/load_curve.csv",
                    "schedule/schedule.csv"]:
            assert (traced / rel).read_bytes().replace(echo, cli_echo) == (cli / rel).read_bytes(), rel


class TestGoldenCaseStudy:
    @staticmethod
    def assert_golden(out):
        """Every file under out/case_study, byte for byte, up to the out_dir echo."""
        def tree(root):
            return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

        assert tree(out) == tree(_CASE_STUDY)
        echo = b'"out_dir": ' + json.dumps(str(out)).encode()
        committed_echo = b'"out_dir": ' + json.dumps("out/case_study").encode()
        for rel in tree(_CASE_STUDY):
            got = (out / rel).read_bytes().replace(echo, committed_echo)
            assert got == (_CASE_STUDY / rel).read_bytes(), rel

    def test_pipeline_reproduces_committed_artifacts(self, tmp_path, monkeypatch):
        out = tmp_path / "case_study"
        monkeypatch.chdir(REPO_ROOT)
        assert main(["pipeline", "--config", "configs/case_study.json", "--out", str(out)]) == 0
        self.assert_golden(out)

    def test_committed_forecast_counters_add_up(self):
        """The case study's events by site and vehicles by charge count account for its
        10,685 events and 10,000 vehicles, and its last simulated day is the reported one."""
        summary = json.loads((_CASE_STUDY / "forecast/summary.json").read_text(encoding="utf-8"))
        vehicles = summary["vehicles_by_charge_count"]
        assert sum(summary["events_by_site"].values()) == summary["n_events"] == 10685
        assert sum(vehicles) == summary["n_vehicles"] == 10000
        assert sum(k * n for k, n in enumerate(vehicles)) == summary["n_events"]
        assert summary["station_energy_by_day_kwh"][-1] == summary["station_energy_kwh"]
        curve = (_CASE_STUDY / "forecast/load_curve.csv").read_text().splitlines()[1:]
        peak = max(float(row.split(",")[-1]) for row in curve)
        assert summary["station_peak_by_day_kw"][-1] == peak

    def test_committed_schedule_rebuilds_its_own_bill(self):
        """A plan built from the committed schedule's powers gives back its draw,
        SOC and bill, bit for bit, with the per-day split summed as
        ``multi_day_schedule`` sums it."""
        rows = (_CASE_STUDY / "schedule/schedule.csv").read_text().splitlines()[1:]
        _, price, p_ev, p_ess, p_ch, soc = np.array([[float(c) for c in r.split(",")] for r in rows]).T
        summary = json.loads((_CASE_STUDY / "schedule/summary.json").read_text(encoding="utf-8"))
        ess = load_config(REPO_ROOT / "configs/case_study.json").ess
        plan = SchedulePlan(price, p_ev, p_ess, 0.25, ess)
        assert plan.p_ch_kw.tobytes() == p_ch.tobytes()
        assert plan.soc_ess.tobytes() == soc.tobytes()
        bill = ["cost_with_ess", "cost_baseline", "saving_fraction"]
        assert [getattr(plan, key) for key in bill] == [summary[key] for key in bill]
        for key, power in [("with_ess", plan.p_ch_kw), ("baseline", plan.p_ev_kw)]:
            per_day = (power * plan.price).reshape(3, -1).sum(axis=1) * plan.dt_hours
            assert per_day.tolist() == summary["per_day"][key]

    def test_baseline_simd_dispatch_reproduces_committed_artifacts(self, tmp_path):
        """With every SIMD loop that numpy dispatches on this CPU disabled, so
        that its ufuncs run their baseline loops (``np.log`` then differs in
        the last ulp of some values), the pipeline writes the committed bytes."""
        dispatched = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
        if not dispatched:
            pytest.skip("numpy dispatches no SIMD loop beyond its baseline on this CPU")
        out = tmp_path / "case_study"
        code = ("import sys, numpy as np\n"
                "from chargecast.cli import main\n"
                "assert 'found' not in np.show_config(mode='dicts')['SIMD Extensions']\n"
                "sys.exit(main(sys.argv[1:]))\n")
        run = subprocess.run(
            [sys.executable, "-c", code, "pipeline", "--config", "configs/case_study.json",
             "--out", str(out)],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
                 "NPY_DISABLE_CPU_FEATURES": " ".join(dispatched)},
        )
        assert run.returncode == 0, run.stderr
        self.assert_golden(out)

    def test_python_m_chargecast_reproduces_committed_artifacts(self, tmp_path):
        """``python -m chargecast`` writes the committed bytes, and on Linux its
        process ends with one thread: OpenBLAS started no worker."""
        out = tmp_path / "case_study"
        code = ("import os, runpy\n"
                "try:\n"
                "    runpy.run_module('chargecast', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as exc:\n"
                "    assert exc.code == 0, exc.code\n"
                "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else -1)\n")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        run = subprocess.run(
            [sys.executable, "-c", code, "pipeline", "--config", "configs/case_study.json",
             "--out", str(out)],
            cwd=REPO_ROOT, env={**env, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        self.assert_golden(out)
        if not sys.platform.startswith("linux"):
            pytest.skip("/proc/self/task is Linux-only")
        assert run.stdout.splitlines()[-1] == "1"
