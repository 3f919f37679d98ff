"""Pipeline configuration: one JSON document drives every subcommand.

The bundled defaults reproduce the case-study setup (10000-vehicle fleet,
60 kW quick charging, 5445 kWh storage, Guangzhou-style peak-valley
tariff), so a config file only needs the paths section to run end to end.
All validation happens at load time, before any stage writes a file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigurationError
from .forecast import FleetConfig
from .scheduler import DEFAULT_TARIFF, EssParams, TariffSchedule
from .survey import DEFAULT_DESTINATION_MAP, SiteClass

_TOP_LEVEL_KEYS = {
    "paths", "column_map", "destination_map", "fleet", "ess", "tariff",
    "horizon_days", "seed", "currency", "threads",
}
_PATH_KEYS = {"input_csv", "out_dir", "dataset_dir", "load_curve"}
_FLEET_KEYS = {
    "p_own", "n_ev", "p_charging_kw", "c_ev_kwh", "u_kwh_per_km", "q_pro",
    "soc_reserve", "slot_minutes",
}
_ESS_KEYS = {
    "c_ess_kwh", "p_charge_max_kw", "p_discharge_max_kw", "soc_init",
    "require_terminal_soc", "allow_export",
}


@dataclass
class PipelineConfig:
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
            "fleet": {
                "p_own": self.fleet.p_own,
                "n_ev": self.fleet.n_ev,
                "p_charging_kw": self.fleet.p_charging_kw,
                "c_ev_kwh": self.fleet.c_ev_kwh,
                "u_kwh_per_km": self.fleet.u_kwh_per_km,
                "q_pro": list(self.fleet.q_pro),
                "soc_reserve": self.fleet.soc_reserve,
                "slot_minutes": self.fleet.slot_minutes,
            },
            "ess": {
                "c_ess_kwh": self.ess.c_ess_kwh,
                "p_charge_max_kw": self.ess.p_charge_max_kw,
                "p_discharge_max_kw": self.ess.p_discharge_max_kw,
                "soc_init": self.ess.soc_init,
                "require_terminal_soc": self.ess.require_terminal_soc,
                "allow_export": self.ess.allow_export,
            },
            "tariff": self.tariff.to_list(),
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


def parse_config_dict(data: dict) -> PipelineConfig:
    """Build and fully validate a PipelineConfig from a plain dict."""
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")

    paths = _require_mapping(data.get("paths", {}), "paths", _PATH_KEYS)

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

    fleet_data = _require_mapping(data.get("fleet", {}), "fleet", _FLEET_KEYS)
    fleet_defaults = FleetConfig()
    try:
        fleet = FleetConfig(
            p_own=float(fleet_data.get("p_own", fleet_defaults.p_own)),
            n_ev=int(fleet_data.get("n_ev", fleet_defaults.n_ev)),
            p_charging_kw=float(fleet_data.get("p_charging_kw", fleet_defaults.p_charging_kw)),
            c_ev_kwh=float(fleet_data.get("c_ev_kwh", fleet_defaults.c_ev_kwh)),
            u_kwh_per_km=float(fleet_data.get("u_kwh_per_km", fleet_defaults.u_kwh_per_km)),
            q_pro=tuple(float(q) for q in fleet_data.get("q_pro", fleet_defaults.q_pro)),
            soc_reserve=float(fleet_data.get("soc_reserve", fleet_defaults.soc_reserve)),
            slot_minutes=int(fleet_data.get("slot_minutes", fleet_defaults.slot_minutes)),
            seed=int(data.get("seed", fleet_defaults.seed)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid fleet settings: {exc}") from None
    fleet.validate()

    ess_data = _require_mapping(data.get("ess", {}), "ess", _ESS_KEYS)
    ess_defaults = EssParams()
    try:
        ess = EssParams(
            c_ess_kwh=float(ess_data.get("c_ess_kwh", ess_defaults.c_ess_kwh)),
            p_charge_max_kw=float(ess_data.get("p_charge_max_kw", ess_defaults.p_charge_max_kw)),
            p_discharge_max_kw=float(
                ess_data.get("p_discharge_max_kw", ess_defaults.p_discharge_max_kw)
            ),
            soc_init=float(ess_data.get("soc_init", ess_defaults.soc_init)),
            require_terminal_soc=bool(
                ess_data.get("require_terminal_soc", ess_defaults.require_terminal_soc)
            ),
            allow_export=bool(ess_data.get("allow_export", ess_defaults.allow_export)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"invalid ess settings: {exc}") from None
    ess.validate()

    tariff = DEFAULT_TARIFF
    if "tariff" in data:
        try:
            tariff = TariffSchedule.from_list(data["tariff"])
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"invalid tariff: {exc}") from None

    horizon_days = int(data.get("horizon_days", 3))
    if horizon_days < 1:
        raise ConfigurationError("horizon_days must be >= 1")
    threads = int(data.get("threads", 1))
    if threads < 1:
        raise ConfigurationError("threads must be >= 1")

    column_map = data.get("column_map", {})
    if not isinstance(column_map, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in column_map.items()
    ):
        raise ConfigurationError("column_map must map field names to column names")

    return PipelineConfig(
        input_csv=Path(paths["input_csv"]) if paths.get("input_csv") else None,
        out_dir=Path(paths.get("out_dir", "out")),
        dataset_dir=Path(paths["dataset_dir"]) if paths.get("dataset_dir") else None,
        load_curve=Path(paths["load_curve"]) if paths.get("load_curve") else None,
        column_map=dict(column_map),
        destination_map=dest_map,
        fleet=fleet,
        ess=ess,
        tariff=tariff,
        horizon_days=horizon_days,
        currency=str(data.get("currency", "¥")),
        threads=threads,
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
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")

    if seed_override is not None:
        data = {**data, "seed": int(seed_override)}
    config = parse_config_dict(data)
    if out_override is not None:
        config.out_dir = Path(out_override)
    if threads_override is not None:
        if threads_override < 1:
            raise ConfigurationError("threads must be >= 1")
        config.threads = threads_override
    return config
