"""Traced in-process run of ``chargecast pipeline``, timed layer by layer.

Usage: python3 perfbench/traced.py RESULT_JSON --config CFG --out DIR [--seed N]

Calls the public functions that ``cli.cmd_pipeline`` calls, in the same
order and with the same arguments, and records a span around each call:
name, start, end and parent. The spans are kept in memory and written to
RESULT_JSON with the per-layer metrics at the end. Stage summaries are not
written, because their code is private to ``cli``; every other artifact is
written where the CLI writes it, so the caller can compare the bytes.

After the pipeline span, and outside it, three extra measurements run:
``verify_plan`` on the plan, a fixed number of draws from the H-W-H trip-1
end-time density, and ``run_forecast`` again with one thread per available
CPU, whose curve must equal the pipeline's byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from chargecast.cli import read_load_curve, write_load_curve_csv, write_schedule_csv
from chargecast.config import load_config
from chargecast.forecast import LoadProfile, ModelSet, run_forecast
from chargecast.scheduler import multi_day_schedule, verify_plan
from chargecast.survey import (
    FEATURE_END_TIME,
    ChainType,
    IngestDiagnostics,
    SiteClass,
    build_chains,
    extract_features,
    load_dataset,
    parse_records,
    save_dataset,
)

KDE_DRAWS = 20_000
LAYERS = ("cli", "survey", "io", "kde", "forecast", "scheduler")


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def duration(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus the time children cover.

        Children of one span run one after another, so their durations do
        not overlap and can be summed.
        """
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for s, covered in zip(self.spans, child_time):
            out[s["name"].split(".")[0]] += s["end"] - s["start"] - covered
        return out


def run_pipeline(tracer: Tracer, config) -> dict:
    """The body of ``cli.cmd_pipeline`` with a span around each layer call."""
    span = tracer.span
    with span("cli.pipeline"):
        with span("cli.ingest"):
            diag = IngestDiagnostics()
            with span("survey.parse"):
                with open(config.input_csv, newline="", encoding="utf-8-sig") as fh:
                    records = parse_records(fh, config.column_map, config.destination_map, diag)
            with span("survey.chains"):
                chains = build_chains(records, diag)
            with span("survey.features"):
                dataset = extract_features(chains)
            with span("io.dataset_save"):
                save_dataset(
                    dataset, config.out_dir / "ingest", diagnostics=diag,
                    provenance={"seed": config.seed, "config": config.echo()},
                )
        with span("cli.forecast"):
            with span("io.dataset_load"):
                dataset = load_dataset(config.out_dir / "ingest")
            with span("kde.fit"):
                models = ModelSet.from_dataset(dataset)
            with span("forecast.simulate"):
                result = run_forecast(config.fleet, models, threads=config.threads)
            out = config.out_dir / "forecast"
            out.mkdir(parents=True, exist_ok=True)
            with span("io.models_save"):
                models.save(out / "models.json")
            curve_path = out / "load_curve.csv"
            with span("io.curve_write"):
                write_load_curve_csv(curve_path, result.bundle)
        with span("cli.schedule"):
            with span("io.curve_read"):
                starts, _, station, slot_minutes = read_load_curve(curve_path)
            day = LoadProfile(starts, station, slot_minutes)
            with span("scheduler.lp"):
                plan = multi_day_schedule([day] * config.horizon_days, config.tariff, config.ess)
            out = config.out_dir / "schedule"
            out.mkdir(parents=True, exist_ok=True)
            with span("io.schedule_write"):
                write_schedule_csv(out / "schedule.csv", plan)
    return {"diag": diag, "models": models, "result": result, "plan": plan,
            "curve_path": curve_path}


def thread_speedup(config, models, t_one: float, curve_path: Path, threads: int) -> float:
    """``run_forecast`` at ``threads``; its curve must match the pipeline's."""
    start = time.perf_counter()
    result = run_forecast(config.fleet, models, threads=threads)
    t_many = time.perf_counter() - start
    other = curve_path.with_name(f"load_curve.threads{threads}.csv")
    write_load_curve_csv(other, result.bundle)
    same = other.read_bytes() == curve_path.read_bytes()
    other.unlink()
    if not same:
        raise SystemExit(f"load curve at threads={threads} differs from threads=1")
    return t_one / t_many


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("result")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    config = load_config(args.config, seed_override=args.seed, out_override=args.out)
    tracer = Tracer()
    run = run_pipeline(tracer, config)
    diag, models, result, plan = run["diag"], run["models"], run["result"], run["plan"]
    # Taken before the extra spans, so the self times add up to the pipeline's.
    self_times = tracer.self_times()

    with tracer.span("scheduler.verify"):
        verify_plan(plan, config.ess)
    model = models.get(ChainType((SiteClass.W,)), FEATURE_END_TIME, 1)
    rng = np.random.default_rng(config.seed)
    with tracer.span("kde.draws"):
        model.sample_many(rng, KDE_DRAWS)

    d = tracer.duration
    n_ev = config.fleet.n_ev
    metrics = {
        "survey.parse_s": d("survey.parse"),
        "survey.rows_per_s": diag.rows_total / d("survey.parse"),
        "survey.accept_ratio": diag.rows_accepted / diag.rows_total,
        "survey.chains_s": d("survey.chains"),
        "survey.chain_yield": diag.chains_emitted / (diag.chains_emitted + diag.sequences_dropped),
        "survey.features_s": d("survey.features"),
        "io.dataset_save_s": d("io.dataset_save"),
        "io.dataset_load_s": d("io.dataset_load"),
        "io.models_save_s": d("io.models_save"),
        "io.curve_write_s": d("io.curve_write"),
        "io.curve_read_s": d("io.curve_read"),
        "io.schedule_write_s": d("io.schedule_write"),
        "io.bytes_written": sum(
            p.stat().st_size for p in Path(args.out).rglob("*") if p.is_file()
        ),
        "kde.fit_s": d("kde.fit"),
        "kde.models": len(models.models),
        "kde.draws_per_s": KDE_DRAWS / d("kde.draws"),
        "forecast.simulate_s": d("forecast.simulate"),
        "forecast.vehicles_per_s": n_ev / d("forecast.simulate"),
        "forecast.events": result.n_events,
        "forecast.events_per_vehicle": result.n_events / n_ev,
        "forecast.infeasible_trips": result.infeasible_trips,
        "scheduler.lp_s": d("scheduler.lp"),
        "scheduler.slots": plan.n_slots,
        "scheduler.slots_per_s": plan.n_slots / d("scheduler.lp"),
        "scheduler.verify_s": d("scheduler.verify"),
        "trace.pipeline_s": d("cli.pipeline"),
    }
    for layer, seconds in self_times.items():
        metrics[f"self.{layer}_s"] = seconds
    metrics["forecast.thread_speedup"] = thread_speedup(
        config, models, d("forecast.simulate"), run["curve_path"], len(os.sched_getaffinity(0))
    )

    with open(args.result, "w") as fh:
        json.dump({"metrics": metrics, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
