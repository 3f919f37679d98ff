"""Command-line pipeline: ingest -> forecast -> schedule.

Each stage writes auditable artifacts (CSV data + JSON summary carrying the
config echo and seed) into its own subdirectory of the output directory.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 solver or
internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import PipelineConfig, load_config
from .errors import ChargecastError, ConfigurationError, DataError
from .forecast import DAY_MINUTES, LoadProfile, ModelSet, run_forecast
from .scheduler import SchedulePlan, multi_day_schedule
from .survey import (
    SITE_CLASSES,
    ChainFeatureDataset,
    IngestDiagnostics,
    build_chains,
    extract_features,
    load_dataset,
    parse_records,
    save_dataset,
)

_LOAD_CURVE_COLUMNS = [
    "slot_start_min", "load_H_kW", "load_W_kW", "load_SE_kW",
    "load_SR_kW", "load_O_kW", "load_station_kW",
]
_SCHEDULE_COLUMNS = ["slot_start_min", "price", "p_ev_kw", "p_ess_kw", "p_ch_kw", "soc_ess"]


# ---------------------------------------------------------------------------
# Artifact writers / readers
# ---------------------------------------------------------------------------

def _write_slot_table(path: Path, columns: list[str], starts, values) -> None:
    """One row per slot: the integer start, then shortest round-trip floats."""
    rows = zip(np.asarray(starts).tolist(), *(np.asarray(v, dtype=float).tolist() for v in values))
    lines = [",".join(columns)]
    lines.extend(",".join([str(int(start)), *map(repr, cells)]) for start, *cells in rows)
    path.write_text("\n".join(lines) + "\n")


def write_load_curve_csv(path: Path, bundle) -> None:
    """Load-curve CSV; floats use shortest round-trip formatting so the
    station column re-derives exactly from the site columns after reading."""
    _write_slot_table(path, _LOAD_CURVE_COLUMNS, bundle.station.slot_start_min,
                      [*(p.power_kw for p in bundle.site_profiles), bundle.station.power_kw])


def read_load_curve(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Read a one-day load-curve CSV: (slot starts, 5xN site matrix, station,
    slot minutes). The slot length is the day over the row count, and row i
    must start at minute i * slot."""
    if not path.is_file():
        raise DataError(f"load curve not found: {path}")
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].split(",") != _LOAD_CURVE_COLUMNS:
        raise DataError(f"unexpected load-curve header in {path}")
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise DataError(f"load curve {path} has no data rows")
    if any(len(r) != len(_LOAD_CURVE_COLUMNS) for r in rows):
        raise DataError(f"load curve {path} has a row without {len(_LOAD_CURVE_COLUMNS)} cells")
    try:
        table = np.array([[float(cell) for cell in r] for r in rows])
    except ValueError:
        raise DataError(f"load curve {path} has a non-numeric cell") from None
    if not np.isfinite(table).all():
        raise DataError(f"load curve {path} has a non-finite cell")
    slot_minutes = int(DAY_MINUTES) // len(rows)
    starts = np.arange(len(rows)) * slot_minutes
    if slot_minutes * len(rows) != DAY_MINUTES or not np.array_equal(table[:, 0], starts):
        raise DataError(f"load curve {path} is not one day of uniform slots starting at 0")
    return starts, table[:, 1:1 + len(SITE_CLASSES)].T, table[:, -1], slot_minutes


def write_schedule_csv(path: Path, plan: SchedulePlan) -> None:
    _write_slot_table(path, _SCHEDULE_COLUMNS, plan.slot_start_min,
                      [plan.price, plan.p_ev_kw, plan.p_ess_kw, plan.p_ch_kw, plan.soc_ess])


def _write_summary(path: Path, config: PipelineConfig, payload: dict) -> None:
    payload = {"seed": config.seed, **payload, "config": config.echo()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_ingest(config: PipelineConfig) -> dict:
    if config.input_csv is None:
        raise ConfigurationError("paths.input_csv is required for ingest")
    if not config.input_csv.is_file():
        raise DataError(f"input CSV not found: {config.input_csv}")

    diag = IngestDiagnostics()
    # utf-8-sig tolerates the BOM some survey exports carry.
    with open(config.input_csv, newline="", encoding="utf-8-sig") as fh:
        trips = parse_records(fh, config.column_map, config.destination_map, diag)
    dataset = extract_features(build_chains(trips, diag))
    if dataset.total_chains == 0:
        raise DataError("zero usable chains in input data")

    out = config.out_dir / "ingest"
    manifest = save_dataset(
        dataset, out, diagnostics=diag,
        provenance={"seed": config.seed, "config": config.echo()},
    )
    print(f"ingest: {dataset.total_chains} chains from {diag.rows_accepted} rows -> {out}")
    return {"dataset_dir": out, "manifest": manifest, "dataset": dataset}


def cmd_forecast(config: PipelineConfig, dataset: ChainFeatureDataset | None = None) -> dict:
    """Fit and simulate from ``dataset``, or else from the manifest under
    ``paths.dataset_dir`` (by default the ingest output directory)."""
    if dataset is None:
        dataset = load_dataset(config.dataset_dir or (config.out_dir / "ingest"))
    models = ModelSet.from_dataset(dataset)

    result = run_forecast(config.fleet, models, threads=config.threads)

    out = config.out_dir / "forecast"
    out.mkdir(parents=True, exist_ok=True)
    models.save(out / "models.json")
    curve_path = out / "load_curve.csv"
    write_load_curve_csv(curve_path, result.bundle)
    _write_summary(out / "summary.json", config, result.summary())
    print(
        f"forecast: {result.n_events} charge events, "
        f"station energy {result.bundle.station.energy_kwh():.1f} kWh -> {curve_path}"
    )
    return {"load_curve": curve_path, "summary": out / "summary.json", "result": result}


def cmd_schedule(config: PipelineConfig, load_csv: Path | None = None) -> dict:
    curve_path = load_csv or config.load_curve or (config.out_dir / "forecast" / "load_curve.csv")
    starts, site, station, slot_minutes = read_load_curve(Path(curve_path))

    day = LoadProfile(starts, station, slot_minutes)
    plan = multi_day_schedule([day] * config.horizon_days, config.tariff, config.ess)

    out = config.out_dir / "schedule"
    out.mkdir(parents=True, exist_ok=True)
    schedule_path = out / "schedule.csv"
    write_schedule_csv(schedule_path, plan)
    _write_summary(out / "summary.json", config, {
        "currency": config.currency,
        "horizon_days": config.horizon_days,
        "cost_with_ess": plan.cost_with_ess,
        "cost_baseline": plan.cost_baseline,
        "saving_fraction": plan.saving_fraction,
        "per_day": {
            "with_ess": plan.day_costs_with_ess,
            "baseline": plan.day_costs_baseline,
        },
    })
    print(
        f"schedule: cost {plan.cost_with_ess:.2f} vs baseline {plan.cost_baseline:.2f} "
        f"{config.currency} ({plan.saving_fraction:.2%} saving) -> {schedule_path}"
    )
    return {"schedule": schedule_path, "summary": out / "summary.json", "plan": plan}


def cmd_pipeline(config: PipelineConfig) -> dict:
    """Each stage consumes what the previous one just produced, never the
    standalone-stage inputs ``paths.dataset_dir`` / ``paths.load_curve``.
    Forecast takes ingest's dataset in memory: the arrays and count order
    ``load_dataset`` would read back from the manifest just written."""
    artifacts = cmd_ingest(config)
    artifacts.update(cmd_forecast(config, dataset=artifacts["dataset"]))
    artifacts.update(cmd_schedule(config, load_csv=artifacts["load_curve"]))
    return artifacts


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chargecast",
        description="Forecast quick-charge station load and schedule its storage.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("ingest", "parse the travel survey and extract chain features"),
        ("forecast", "fit densities and simulate the fleet's charging load"),
        ("schedule", "optimize the storage schedule against the tariff"),
        ("pipeline", "run ingest, forecast and schedule in sequence"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--threads", type=int, default=None, help="accepted for compatibility; ignored")
        if name == "schedule":
            p.add_argument("--load", default=None, help="load-curve CSV (defaults to the forecast artifact)")
    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "forecast": cmd_forecast,
    "schedule": cmd_schedule,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(
            args.config,
            seed_override=args.seed,
            out_override=args.out,
            threads_override=args.threads,
        )
        if getattr(args, "load", None):
            config.load_curve = Path(args.load)
        _COMMANDS[args.command](config)
    except Exception as exc:  # a ChargecastError carries its exit code; anything else is internal
        code = exc.exit_code if isinstance(exc, ChargecastError) else 4
        json.dump({"error": type(exc).__name__, "message": str(exc), "exit_code": code}, sys.stderr)
        sys.stderr.write("\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
