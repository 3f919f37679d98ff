"""Pipeline configuration: one JSON document drives every subcommand.

The bundled defaults reproduce the case-study setup (10000-vehicle fleet,
60 kW quick charging, 5445 kWh storage, Guangzhou-style peak-valley
tariff), so a config file only needs the paths section to run end to end.
The ``fleet`` and ``ess`` sections are the fields of :class:`FleetConfig`
and :class:`EssParams`, read, converted and echoed from the dataclasses
themselves. The configuration's own checks run when it is built, and the
tariff's fit to the forecast grid and the horizon's slot bound first thing in
``pipeline``: all before any stage writes a file. Checks on the data (the
survey, the fitted densities, the load curve) run as a stage reads it, so a
later stage can fail after an earlier one has written its artifacts.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigurationError
from .forecast import FleetConfig, store_integers
from .scheduler import DEFAULT_TARIFF, MAX_HORIZON_SLOTS, EssParams, TariffSchedule
from .survey import DEFAULT_COLUMN_MAP, DEFAULT_DESTINATION_MAP, SiteClass

_TOP_LEVEL_KEYS = {
    "paths", "column_map", "destination_map", "fleet", "ess", "tariff",
    "horizon_days", "seed", "currency", "threads",
}
_PATH_KEYS = {"input_csv", "out_dir", "dataset_dir", "load_curve"}
_KIND = {
    bool: "true or false", int: "an integer", float: "a finite number", str: "a string",
    tuple: "a list",
}


@dataclass(frozen=True)
class PipelineConfig:
    """The run's inputs, checked once when built, ``replace`` included."""
    input_csv: Path | None
    out_dir: Path
    dataset_dir: Path | None
    load_curve: Path | None
    column_map: dict[str, str]
    destination_map: dict[int, SiteClass]
    fleet: FleetConfig
    ess: EssParams
    tariff: TariffSchedule
    horizon_days: int = 3
    currency: str = "¥"
    threads: int = 1  # accepted for compatibility; the forecast ignores it

    def __post_init__(self):
        store_integers(self, "horizon_days", "threads")
        if not 1 <= self.horizon_days <= MAX_HORIZON_SLOTS:  # a day has a slot; the scheduler bounds slots
            raise ConfigurationError(f"horizon_days must be in [1, {MAX_HORIZON_SLOTS}]")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")

    @property
    def seed(self) -> int:
        return self.fleet.seed

    def echo(self) -> dict:
        """Resolved configuration for artifact provenance."""
        return {
            "paths": {
                "input_csv": str(self.input_csv) if self.input_csv else None,
                "out_dir": str(self.out_dir),
                "dataset_dir": str(self.dataset_dir) if self.dataset_dir else None,
                "load_curve": str(self.load_curve) if self.load_curve else None,
            },
            "column_map": dict(self.column_map),
            "destination_map": {str(k): v.value for k, v in self.destination_map.items()},
            "fleet": _section_echo(self.fleet),
            "ess": _section_echo(self.ess),
            "tariff": [list(window) for window in self.tariff.windows],
            "horizon_days": self.horizon_days,
            "seed": self.seed,
            "currency": self.currency,
            "threads": self.threads,
        }


def _require_mapping(value, name: str, known_keys: set[str] | None = None) -> dict:
    if not isinstance(value, dict):
        raise ConfigurationError(f"config section {name!r} must be an object")
    if known_keys is not None:
        unknown = set(value) - known_keys
        if unknown:
            raise ConfigurationError(
                f"unknown {name} key(s): {', '.join(sorted(unknown))}"
            )
    return value


def _coerce(value, default, name: str):
    """``value`` as the type of ``default``, with no lossy conversion: a bool
    takes only true/false, an int an integral number, a float any finite
    number, a tuple a list of its first element's type."""
    kind = type(default)
    if kind is tuple:
        if isinstance(value, list | tuple):
            return tuple(_coerce(v, default[0], f"{name}[{i}]") for i, v in enumerate(value))
    elif kind is bool or isinstance(value, bool):
        # bool subclasses int: true/false is never a number, nor 1 a bool.
        if type(value) is kind:
            return value
    elif kind is int and isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif isinstance(value, (int, float) if kind is float else kind):
        # JSON's NaN and Infinity fail this, and so does an integer too large for a float.
        if kind is not float or abs(value) <= sys.float_info.max:
            return kind(value)
    raise ConfigurationError(f"{name} must be {_KIND[kind]}, got {value!r}")


def _section(data: dict, name: str, cls):
    """A ``cls`` from section ``name`` of ``data``, one key per dataclass
    field, which checks itself when built. A field that is also a top-level
    key (the fleet's ``seed``) is read from the top level instead."""
    defaults = {f.name: f.default for f in fields(cls)}
    section = _require_mapping(data.get(name, {}), name, defaults.keys() - _TOP_LEVEL_KEYS)
    values = {}
    for key, default in defaults.items():
        source, label = (data, key) if key in _TOP_LEVEL_KEYS else (section, f"{name}.{key}")
        if key in source:
            values[key] = _coerce(source[key], default, label)
    return cls(**values)


def _section_echo(obj) -> dict:
    return {k: v for k, v in asdict(obj).items() if k not in _TOP_LEVEL_KEYS}


def parse_config_dict(data: dict) -> PipelineConfig:
    """Build and fully validate a PipelineConfig from a plain dict."""
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    paths = _require_mapping(data.get("paths", {}), "paths", _PATH_KEYS)
    for key, value in paths.items():
        if value is not None and not isinstance(value, str):
            raise ConfigurationError(f"paths.{key} must be a string or null, got {value!r}")

    dest_map = dict(DEFAULT_DESTINATION_MAP)
    if "destination_map" in data:
        dest_map = {}
        for code, label in _require_mapping(data["destination_map"], "destination_map").items():
            try:
                dest_map[int(code)] = SiteClass(label)
            except (ValueError, KeyError):
                raise ConfigurationError(
                    f"destination_map entry {code!r}: {label!r} is not a purpose code -> "
                    f"site class pair"
                ) from None

    fleet = _section(data, "fleet", FleetConfig)
    ess = _section(data, "ess", EssParams)

    tariff = TariffSchedule(_coerce(data.get("tariff", DEFAULT_TARIFF.windows),
                                    DEFAULT_TARIFF.windows, "tariff"))

    column_map = data.get("column_map", {})
    if not isinstance(column_map, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in column_map.items()
    ):
        raise ConfigurationError("column_map must map field names to column names")
    _require_mapping(column_map, "column_map", set(DEFAULT_COLUMN_MAP))

    return PipelineConfig(
        input_csv=Path(paths["input_csv"]) if paths.get("input_csv") else None,
        out_dir=Path("out" if paths.get("out_dir") is None else paths["out_dir"]),
        dataset_dir=Path(paths["dataset_dir"]) if paths.get("dataset_dir") else None,
        load_curve=Path(paths["load_curve"]) if paths.get("load_curve") else None,
        column_map=dict(column_map),
        destination_map=dest_map,
        fleet=fleet,
        ess=ess,
        tariff=tariff,
        **{f.name: _coerce(data[f.name], f.default, f.name) for f in fields(PipelineConfig)
           if f.default is not MISSING and f.name in data},  # horizon_days, currency, threads
    )


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    out_override: str | None = None,
    threads_override: int | None = None,
) -> PipelineConfig:
    """Read, validate and resolve a config file with CLI overrides applied."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON text is UTF-8
            data = json.load(fh)
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise ConfigurationError(f"config file {path} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")

    if seed_override is not None:
        data["seed"] = seed_override
    if threads_override is not None:
        data["threads"] = threads_override
    if out_override is not None:
        paths = _require_mapping(data.get("paths", {}), "paths")
        data["paths"] = {**paths, "out_dir": out_override}
    return parse_config_dict(data)
