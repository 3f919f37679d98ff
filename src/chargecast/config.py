"""Pipeline configuration: one JSON document drives every subcommand.

The bundled defaults reproduce the case-study setup (10000-vehicle fleet,
60 kW quick charging, 5445 kWh storage, Guangzhou-style peak-valley
tariff), so a config file only needs the paths section to run end to end.
:class:`PipelineConfig` and its sections check every field when they are
built; :func:`parse_config_dict` only maps the JSON onto their fields (the
``fleet`` and ``ess`` keys are those of :class:`FleetConfig` and
:class:`EssParams`), adding JSON's ``300.0`` for an integer, the section
labels of the messages and the ``"out"`` default of ``paths.out_dir``. The
tariff's fit to the forecast grid and the horizon's slot bound are checked
first thing in ``pipeline``: all before any stage writes a file. Checks on
the data (the survey, the fitted densities, the load curve) run as a stage
reads it, so a later stage can fail after an earlier one has written its
artifacts.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import ConfigurationError
from .forecast import FleetConfig, convert_fields, convert_like
from .scheduler import DEFAULT_TARIFF, MAX_HORIZON_SLOTS, EssParams, TariffSchedule
from .survey import DEFAULT_COLUMN_MAP, DEFAULT_DESTINATION_MAP, SiteClass

_TOP_LEVEL_KEYS = {
    "paths", "column_map", "destination_map", "fleet", "ess", "tariff",
    "horizon_days", "seed", "currency", "threads",
}
_PATH_KEYS = ("input_csv", "out_dir", "dataset_dir", "load_curve")


@dataclass(frozen=True)
class PipelineConfig:
    """The run's inputs, checked once when built, ``replace`` included. A field
    with a default takes its type (``convert_like``); a path, a ``str`` or
    ``os.PathLike``, becomes a ``Path``, and ``None`` or ``""`` an absent one; a
    section must be of its class; each map is stored read-only, ``destination_map``
    as ``{int: SiteClass}``. ``parse_config_dict`` only maps a config file onto it."""
    input_csv: Path | None
    out_dir: Path
    dataset_dir: Path | None
    load_curve: Path | None
    column_map: Mapping[str, str]
    destination_map: Mapping[int, SiteClass]
    fleet: FleetConfig
    ess: EssParams
    tariff: TariffSchedule
    horizon_days: int = 3
    currency: str = "¥"
    threads: int = 1  # accepted for compatibility; the forecast ignores it

    def __post_init__(self):
        convert_fields(self)
        for name in _PATH_KEYS:
            path = getattr(self, name)
            if not isinstance(path, str | os.PathLike) and (path is not None or name == "out_dir"):
                raise ConfigurationError(f"{name} must be a str or os.PathLike, got {path!r}")
            object.__setattr__(self, name, Path(path) if path or name == "out_dir" else None)
        if not 1 <= self.horizon_days <= MAX_HORIZON_SLOTS:  # a day has a slot; the scheduler bounds slots
            raise ConfigurationError(f"horizon_days must be in [1, {MAX_HORIZON_SLOTS}]")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        for name, cls in (("fleet", FleetConfig), ("ess", EssParams), ("tariff", TariffSchedule)):
            if not isinstance(section := getattr(self, name), cls):
                raise ConfigurationError(f"{name} must be a {cls.__name__}, got {section!r}")
        columns = _require_mapping(self.column_map, "column_map", set(DEFAULT_COLUMN_MAP))
        if not all(isinstance(column, str) for column in columns.values()):
            raise ConfigurationError("column_map must map field names to column names")
        purposes = _require_mapping(self.destination_map, "destination_map")
        sites = dict(map(_purpose, purposes.items()))
        if len(sites) < len(purposes):  # keys such as "3" and "03" that int() reads alike
            codes = Counter(map(int, purposes))
            same = ", ".join(repr(key) for key in purposes if codes[int(key)] > 1)
            raise ConfigurationError(f"destination_map keys {same} name the same purpose code")
        object.__setattr__(self, "column_map", MappingProxyType(dict(columns)))
        object.__setattr__(self, "destination_map", MappingProxyType(sites))

    @property
    def seed(self) -> int:
        return self.fleet.seed

    def echo(self) -> dict:
        """Resolved configuration for artifact provenance."""
        return {
            "paths": {key: None if getattr(self, key) is None else str(getattr(self, key))
                      for key in _PATH_KEYS},
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


def _require_mapping(value, name: str, known_keys: set[str] | None = None) -> Mapping:
    if not isinstance(value, Mapping):
        raise ConfigurationError(f"config section {name!r} must be an object")
    if known_keys is not None and (unknown := set(value) - known_keys):
        raise ConfigurationError(f"unknown {name} key(s): {', '.join(sorted(map(str, unknown)))}")
    return value


def _purpose(entry) -> tuple[int, SiteClass]:
    """A purpose code (an integer, or a string ``int()`` reads) and a ``SiteClass`` or its label."""
    code, label = entry
    try:
        if isinstance(code, str | int | np.integer) and not isinstance(code, bool):
            return int(code), SiteClass(label)
    except ValueError:
        pass
    raise ConfigurationError(
        f"destination_map entry {code!r}: {label!r} is not a purpose code -> site class pair")


def _coerce(value, default, name: str):
    """:func:`convert_like`, which also takes JSON's integral number (``300.0``) for an int."""
    if type(default) is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    return convert_like(value, default, name)


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
    """The PipelineConfig of a config file's JSON object, which checks itself when built."""
    _require_mapping(data, "config", _TOP_LEVEL_KEYS)
    paths = _require_mapping(data.get("paths", {}), "paths", set(_PATH_KEYS))
    return PipelineConfig(
        input_csv=paths.get("input_csv"),
        out_dir="out" if paths.get("out_dir") is None else paths["out_dir"],
        dataset_dir=paths.get("dataset_dir"),
        load_curve=paths.get("load_curve"),
        column_map=data.get("column_map", {}),
        destination_map=data.get("destination_map", DEFAULT_DESTINATION_MAP),
        fleet=_section(data, "fleet", FleetConfig),
        ess=_section(data, "ess", EssParams),
        tariff=TariffSchedule(data.get("tariff", DEFAULT_TARIFF.windows)),
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
