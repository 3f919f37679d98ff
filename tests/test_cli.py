"""End-to-end CLI: artifacts, exit codes, determinism."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chargecast.cli import main, read_load_curve
from chargecast.forecast import station_composite
from conftest import FIXTURE_CHAIN_COUNTS

Q_DEFAULT = [0.04, 0.1, 0.2, 0.1, 0.1]
REPO_ROOT = Path(__file__).resolve().parents[1]
_ARRAY = "H-W-H__length_km__1"


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


def test_cli_import_loads_no_scipy():
    """The runtime needs numpy only: importing the CLI loads no scipy module."""
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    code = "import sys, chargecast.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


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

    def test_missing_column(self, tmp_path, fixture_csv_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("HOUSEID,VEHID,TRAVDAY,STRTTIME,ENDTIME,TRVLCMIN,TRPMILES\nA,1,1,0800,0810,10,1\n")
        config = write_config(tmp_path, bad)
        assert main(["ingest", "--config", str(config)]) == 2
        assert "WHYTO" in json.loads(capsys.readouterr().err)["message"]


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
    ], ids=[
        "missing_array", "non_numeric_value", "null_value", "not_json", "no_counts",
        "no_samples", "unknown_label", "non_finite_value", "huge_integer", "string_count",
        "not_an_object", "end_time_2", "dwell_past_last_midway", "uncounted_type",
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, fixture_csv_path, capsys, corrupt):
        config = write_config(tmp_path, fixture_csv_path)
        assert main(["ingest", "--config", str(config)]) == 0
        manifest = tmp_path / "out/ingest/manifest.json"
        manifest.write_text(corrupt(manifest.read_text()))
        capsys.readouterr()
        assert main(["forecast", "--config", str(config)]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "DataError"


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
        summary = self.run_all(
            tmp_path, fixture_csv_path,
            fleet={"n_ev": 800, "q_pro": Q_DEFAULT}, tariff=[[0, 1440, 0.7]],
        )
        assert abs(summary["saving_fraction"]) <= 1e-9

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

    def test_out_override(self, tmp_path, fixture_csv_path):
        config = write_config(tmp_path, fixture_csv_path)
        alt = tmp_path / "elsewhere"
        assert main(["ingest", "--config", str(config), "--out", str(alt)]) == 0
        assert (alt / "ingest/manifest.json").is_file()
        assert not (tmp_path / "out").exists()

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
    def test_pipeline_reproduces_committed_artifacts(self, tmp_path, monkeypatch):
        """Every file under out/case_study, byte for byte, up to the out_dir echo."""
        golden = REPO_ROOT / "out" / "case_study"
        out = tmp_path / "case_study"
        monkeypatch.chdir(REPO_ROOT)
        assert main(["pipeline", "--config", "configs/case_study.json", "--out", str(out)]) == 0

        def tree(root):
            return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())

        assert tree(out) == tree(golden)
        echo = b'"out_dir": ' + json.dumps(str(out)).encode()
        committed_echo = b'"out_dir": ' + json.dumps("out/case_study").encode()
        for rel in tree(golden):
            got = (out / rel).read_bytes().replace(echo, committed_echo)
            assert got == (golden / rel).read_bytes(), rel
