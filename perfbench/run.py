"""Benchmark of ``chargecast pipeline``: end-to-end runs and a per-layer trace.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn. Every
run is a fresh ``chargecast`` CLI process (perfbench/child.py) with its
output in a scratch directory under perfbench/.work, checked after it ends.
Its CPU times are scaled to a reference vCPU speed by a probe that shares
its vCPU (see ``tick``), because a shared host's speed drifts.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the traced
pipeline (perfbench/traced.py) next to untraced CLI runs and reports the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A result file with the
samples, the checks that failed, the spans and the machine's provenance is
written to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from survey_gen import expected_counts, write_survey

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = SRC / "chargecast" / "data" / "survey_fixture.csv"
CASE_CONFIG = ROOT / "configs" / "case_study.json"
GOLDEN_DIR = ROOT / "out" / "case_study"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REQUIRED = (SRC / "chargecast" / "cli.py", FIXTURE, CASE_CONFIG)
# Metric names and units: {"end_to_end": {name: unit}, "per_layer": {name: unit}}.
SPEC = {
    kind: {m["name"]: m["unit"] for m in metrics}
    for kind, metrics in json.loads((ROOT / "BENCHMARK.json").read_text()).items()
    if kind in ("end_to_end", "per_layer")
}

# Raw twins of cpu_s and setup_s: printed and kept in the result file, but not
# in the result line, because the shared host's speed moves them by far more
# than any bound (see README.md, "Steadiness").
UNGATED = ("cpu_raw_s", "wall_s", "setup_wall_s")

# Host-speed probe. While a child runs, the benchmark process, pinned to the
# child's vCPU, times one tick of fixed work every TICK_PERIOD_S: an integer
# loop and the parsing of PROBE_ROWS, two kinds of interpreter work whose
# slowdowns on a contended vCPU bracket the pipeline's. The child's CPU time
# is scaled by REF_TICK_S / (mean tick CPU time over the child's interval):
# seconds on a vCPU that runs one tick in REF_TICK_S, about a tick's time on
# a 2-vCPU Xeon VM.
TICK_LOOP = 10_000
PROBE_ROWS = [f"{i},{i * 0.25},x{i % 13}" for i in range(1500)]
TICK_PERIOD_S = 0.025
REF_TICK_S = 0.002

SETUP_SPAWNS = 3        # import-only processes per run, after one warm-up spawn
MIN_RUNS = 2            # pipeline runs (pairs, when traced) per measurement
CHILD_TIMEOUT_S = 150.0
ENERGY_TOL = 1e-9       # relative; the same bound as acceptance criterion 6
ESS_SOC_TOL = 1e-9      # the scheduler's own VERIFY_TOL for soc_ess bounds
# Directories that running the benchmark may change: left out of the check
# that the rest of the checkout is untouched.
UNTRACKED = {".git", "__pycache__", ".bench_build", ".work", "results"}


@dataclass(frozen=True)
class Workload:
    name: str
    copies: int                 # copies of the 200-row fixture in the survey
    n_ev: int | None = None     # None keeps the committed case-study value
    horizon_days: int | None = None


WORKLOADS = {
    w.name: w for w in (
        Workload("case_study", copies=1),
        Workload("survey_100k", copies=500, n_ev=1000, horizon_days=1),
        Workload("horizon_14d", copies=1, n_ev=1000, horizon_days=14),
    )
}


def median(values):
    return statistics.median(values) if values else None


def tree_digest(root: Path, out_echo: str | None = None) -> dict[str, str]:
    """sha256 of every file under ``root``; with ``out_echo``, the JSON echo
    of ``root`` as ``out_dir`` is rewritten to ``out_echo`` before hashing."""
    digests = {}
    old = b'"out_dir": ' + json.dumps(str(root)).encode()
    new = b'"out_dir": ' + json.dumps(out_echo).encode()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if out_echo is not None:
            data = data.replace(old, new)
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def checkout_snapshot() -> dict[str, tuple[int, int]]:
    snap = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in UNTRACKED]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            snap[os.path.join(dirpath, name)] = (st.st_size, st.st_mtime_ns)
    return snap


def output_problems(out: Path, counts: dict[str, int]) -> list[str]:
    """Invariants every pipeline run must hold, and its exact ingest counts."""
    problems = []
    diag = json.loads((out / "ingest" / "manifest.json").read_text())["diagnostics"]
    got = {"rows": diag["rows_total"], "chains": diag["chains_emitted"],
           "rejects": diag["rows_rejected"], "dropped": diag["sequences_dropped"]}
    if got != counts:
        problems.append(f"ingest counts {got} != expected {counts}")

    forecast = json.loads((out / "forecast" / "summary.json").read_text())
    event_kwh = forecast["event_energy_kwh"]
    site_kwh = sum(forecast["site_energy_full_horizon_kwh"].values())
    residual = abs(site_kwh - event_kwh) / event_kwh if event_kwh else site_kwh
    if not residual <= ENERGY_TOL:
        problems.append(f"energy residual {residual:.3e} > {ENERGY_TOL}")
    if not 0.0 <= forecast["soc_min"] <= forecast["soc_max"] <= 1.0:
        problems.append(f"forecast SOC [{forecast['soc_min']}, {forecast['soc_max']}] not in [0, 1]")

    schedule = json.loads((out / "schedule" / "summary.json").read_text())
    if not schedule["cost_with_ess"] <= schedule["cost_baseline"]:
        problems.append(f"cost {schedule['cost_with_ess']} above baseline {schedule['cost_baseline']}")
    lines = (out / "schedule" / "schedule.csv").read_text().splitlines()
    column = lines[0].split(",").index("soc_ess")
    soc = [float(line.split(",")[column]) for line in lines[1:]]
    if not (-ESS_SOC_TOL <= min(soc) and max(soc) <= 1.0 + ESS_SOC_TOL):
        problems.append(f"soc_ess range [{min(soc)}, {max(soc)}] not in [0, 1]")
    return problems


class Bench:
    """One benchmark run of one workload: spawns, samples and failures."""

    def __init__(self, workload: Workload, seed: int, work: Path, probe: bool):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.reference: dict[str, str] | None = None  # artifact digests of the first run
        self.probe = probe
        self.ticks: list[tuple[float, float]] = []  # the last child's probe ticks
        self.counts = expected_counts(workload.copies)
        self.out = work / "out"
        self.config = self._prepare()

    def _prepare(self) -> Path:
        """Write the workload's inputs; returns the config to run."""
        w = self.workload
        if w.name == "case_study":
            return CASE_CONFIG
        config = json.loads(CASE_CONFIG.read_text())
        survey = FIXTURE
        if w.copies > 1:
            survey = self.work / "survey.csv"
            write_survey(FIXTURE, survey, w.copies, self.seed)
        config["paths"]["input_csv"] = str(survey)
        config["fleet"]["n_ev"] = w.n_ev
        config["horizon_days"] = w.horizon_days
        path = self.work / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return path

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failures.append(f"{what}: " + "; ".join(problems))

    def spawn(self, argv: list[str]) -> tuple[float, int, float, str]:
        """Run one child to its end: (spawn instant, exit code, peak RSS MB, log).

        With the probe on, ``self.ticks`` becomes the ticks taken while it ran.
        """
        log_path = self.work / "child.log"
        self.ticks = []
        with open(log_path, "w") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            pid = 0
            try:
                # wait4 reports this child's own peak RSS; poll so that a
                # hung child is killed after CHILD_TIMEOUT_S.
                while not pid and time.perf_counter() - start < CHILD_TIMEOUT_S:
                    if self.probe:
                        self.ticks.append(tick())
                    time.sleep(TICK_PERIOD_S)
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            finally:
                if not pid:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, proc.returncode, usage.ru_maxrss / 1024, log_path.read_text()[-2000:]

    def timed_child(self, cli_args: list[str]) -> tuple[dict | None, float, str]:
        timing = self.work / "timing.json"
        timing.unlink(missing_ok=True)
        start, code, rss_mb, log = self.spawn(
            [sys.executable, str(BENCH / "child.py"), str(timing), *cli_args])
        if code != 0 or not timing.is_file():
            return None, rss_mb, f"exit code {code}: {log.strip()}"
        t = json.loads(timing.read_text())
        cpu = t["done_cpu"] - t["ready_cpu"]
        return {"setup_s": t["ready_cpu"] * self.speed(start, t["ready"]),
                "cpu_s": cpu * self.speed(t["ready"], t["done"]), "cpu_raw_s": cpu,
                "setup_wall_s": t["ready"] - start, "wall_s": t["done"] - t["ready"]}, rss_mb, ""

    def speed(self, begin: float, end: float) -> float:
        """REF_TICK_S over the mean probe tick in [begin, end]; 1 unprobed."""
        if not self.probe:
            return 1.0
        window = [cpu for at, cpu in self.ticks if begin <= at <= end]
        return REF_TICK_S / statistics.fmean(window or [cpu for _, cpu in self.ticks])

    def setup_samples(self) -> None:
        self.timed_child([])  # warm-up: bytecode and page cache, not recorded
        for _ in range(SETUP_SPAWNS):
            timing, _, error = self.timed_child([])
            if timing is None:
                raise SystemExit(f"chargecast.cli does not import: {error}")
            self.add("setup_s", timing["setup_s"])
            self.add("setup_wall_s", timing["setup_wall_s"])

    def pipeline(self, out: Path, seed: int | None) -> tuple[dict | None, float, list[str]]:
        shutil.rmtree(out, ignore_errors=True)
        args = ["pipeline", "--config", str(self.config), "--out", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        self.attempted += 1
        timing, rss_mb, error = self.timed_child(args)
        if timing is None:
            return None, rss_mb, [error]
        try:
            return timing, rss_mb, output_problems(out, self.counts)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            return timing, rss_mb, [f"unreadable output: {exc!r}"]

    def check_golden(self) -> None:
        """The committed config at its own seed must reproduce out/case_study."""
        out = self.work / "golden"
        _, _, problems = self.pipeline(out, seed=None)
        if not problems:
            echo = json.loads(CASE_CONFIG.read_text())["paths"]["out_dir"]
            got, want = tree_digest(out, out_echo=echo), tree_digest(GOLDEN_DIR)
            differ = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
            if differ:
                problems = [f"differs from out/case_study in {differ}"]
        if problems:
            self.fail("golden case_study run", problems)

    def cli_run(self) -> None:
        timing, rss_mb, problems = self.pipeline(self.out, self.seed)
        if not problems:
            digests = tree_digest(self.out)
            self.reference = self.reference or digests
            if digests != self.reference:
                problems = ["artifacts differ from the first run of the same inputs"]
        if problems:
            self.fail(f"pipeline run {self.attempted}", problems)
            return
        for metric in ("cpu_s", "cpu_raw_s", "wall_s", "setup_s", "setup_wall_s"):
            self.add(metric, timing[metric])
        self.add("peak_rss_mb", rss_mb)

    def traced_run(self) -> dict | None:
        shutil.rmtree(self.out, ignore_errors=True)
        result = self.work / "traced.json"
        result.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "traced.py"), str(result), "--config",
                str(self.config), "--out", str(self.out), "--seed", str(self.seed)]
        self.attempted += 1
        _, code, _, log = self.spawn(argv)
        if code != 0 or not result.is_file():
            self.fail("traced run", [f"exit code {code}: {log.strip()}"])
            return None
        got = tree_digest(self.out)
        differ = sorted(k for k in got if got[k] != (self.reference or {}).get(k))
        if differ:
            self.fail("traced run", [f"artifacts differ from the CLI run's in {differ}"])
            return None
        traced = json.loads(result.read_text())
        for name, value in traced["metrics"].items():
            self.add(name, value)
        return traced

    def measure(self, seconds: float, step) -> None:
        """Repeat ``step`` while another one fits in ``seconds``, at least MIN_RUNS times."""
        start = time.perf_counter()
        durations = []
        while True:
            t = time.perf_counter()
            step()
            durations.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - start
            if len(durations) >= MIN_RUNS and elapsed + median(durations) > seconds:
                return


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or commit
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def tick() -> tuple[float, float]:
    """One probe tick: (instant, CPU seconds of the tick's fixed work)."""
    at, cpu = time.perf_counter(), time.thread_time()
    acc = 0.0
    for i in range(TICK_LOOP):
        acc += i * i % 7
    for row in PROBE_ROWS:
        count, value, _ = row.split(",")
        acc += float(value) + int(count)
    return at, time.thread_time() - cpu


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    cpus = os.sched_getaffinity(0)
    if not trace:
        # Children inherit the pin, so the probe shares the child's vCPU.
        # Traced runs stay unpinned: they time run_forecast at nproc threads.
        os.sched_setaffinity(0, {max(cpus)})
    try:
        bench = Bench(workload, seed, work, probe=not trace)
        before = checkout_snapshot()
        if not trace:
            bench.setup_samples()
        if workload.name == "case_study":
            bench.check_golden()
        spans = None
        if trace:
            def pair():
                nonlocal spans
                bench.cli_run()
                traced = bench.traced_run()
                if traced is not None and spans is None:
                    spans = traced["spans"]
            bench.measure(seconds, pair)
        else:
            bench.measure(seconds, bench.cli_run)
        if checkout_snapshot() != before:
            bench.fail("hygiene", ["the run changed files of the checkout outside its scratch"])
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(work, ignore_errors=True)

    s = bench.samples
    failed = min(len(bench.failures), bench.attempted)
    if trace:
        traced, untraced = median(s.get("trace.pipeline_s")), median(s.get("wall_s"))
        if traced is not None and untraced is not None:
            s["trace.overhead_s"] = [traced - untraced]
    else:
        s["success_rate"] = [1 - failed / bench.attempted]
    metrics = {name: median(s.get(name)) for name in SPEC["per_layer" if trace else "end_to_end"]}
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": provenance(), "attempted": bench.attempted, "failed": failed,
        "failures": bench.failures, "metrics": metrics, "samples": s, "spans": spans,
    }


def report(result: dict) -> dict[str, dict]:
    """Print the run in human form; returns its metrics as name -> {value, unit}."""
    metrics = {}
    units = SPEC["per_layer" if result["trace"] else "end_to_end"]
    name = result["workload"]
    print(f"# {name} seed={result['seed']} trace={result['trace']} "
          f"runs={result['attempted']} failed={result['failed']} "
          f"error_rate={result['failed'] / result['attempted']:.4f}")
    for metric, value in result["metrics"].items():
        n = len(result["samples"].get(metric, []))
        print(f"  {metric:32s} {value!s:>22} {units[metric]:6s} (median of {n})")
        metrics[metric] = {"value": value, "unit": units[metric]}
    for metric in UNGATED:
        values = result["samples"].get(metric)
        if values:
            print(f"  {metric:32s} {median(values)!s:>22} s      (median of {len(values)}, not gated)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  provenance {json.dumps(result['provenance'])}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"perfbench: not a chargecast checkout, missing {missing}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    RESULTS.mkdir(exist_ok=True)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        path = RESULTS / f"{name}_seed{args.seed}_trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        shown = report(result)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in shown.items()})
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
