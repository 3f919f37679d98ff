"""Config schema: the fleet and ess sections are the dataclass fields."""

import json
from dataclasses import dataclass, fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargecast import config as config_module
from chargecast.config import load_config, parse_config_dict
from chargecast.errors import ConfigurationError
from chargecast.forecast import FleetConfig
from chargecast.scheduler import EssParams

REPO_ROOT = Path(__file__).resolve().parents[1]


def echo_round_trip(config):
    return parse_config_dict(json.loads(json.dumps(config.echo()))).echo()


@pytest.mark.parametrize("name, cls", [("fleet", FleetConfig), ("ess", EssParams)])
def test_section_keys_are_the_dataclass_fields(name, cls):
    keys = [f.name for f in fields(cls) if f.name != "seed"]
    config = parse_config_dict({name: {f.name: f.default for f in fields(cls) if f.name in keys}})
    assert list(config.echo()[name]) == keys
    with pytest.raises(ConfigurationError, match=f"unknown {name} key"):
        parse_config_dict({name: {"seed": 1}})


def test_new_dataclass_field_is_a_config_key(monkeypatch):
    @dataclass
    class WiderEss(EssParams):
        reserve_kwh: float = 0.0

    monkeypatch.setattr(config_module, "EssParams", WiderEss)
    config = parse_config_dict({"ess": {"reserve_kwh": 3}})
    assert config.ess.reserve_kwh == 3.0
    assert config.echo()["ess"]["reserve_kwh"] == 3.0
    with pytest.raises(ConfigurationError, match="ess.reserve_kwh"):
        parse_config_dict({"ess": {"reserve_kwh": "3"}})


def test_case_study_echo_round_trips():
    config = load_config(REPO_ROOT / "configs" / "case_study.json")
    assert echo_round_trip(config) == config.echo()


unit = st.floats(0.0, 1.0) | st.integers(0, 1)
positive = st.floats(0.01, 1e4) | st.integers(1, 10_000)
nonnegative = st.floats(0.0, 1e4) | st.integers(0, 10_000)
optional_path = st.none() | st.text(alphabet="ab/._-", max_size=8)


@settings(derandomize=True, database=None, max_examples=100)
@given(
    fleet=st.fixed_dictionaries({}, optional={
        "p_own": unit,
        "n_ev": st.integers(0, 10**6) | st.integers(0, 10**6).map(float),
        "p_charging_kw": positive,
        "c_ev_kwh": positive,
        "u_kwh_per_km": positive,
        "q_pro": st.lists(unit, min_size=5, max_size=5),
        "soc_reserve": st.floats(0.0, 1.0, exclude_max=True) | st.just(0),
        "slot_minutes": st.sampled_from([1, 5, 15, 30, 60, 1440]),
    }),
    ess=st.fixed_dictionaries({}, optional={
        "c_ess_kwh": nonnegative,
        "p_charge_max_kw": nonnegative,
        "p_discharge_max_kw": nonnegative,
        "soc_init": unit,
        "require_terminal_soc": st.booleans(),
        "allow_export": st.booleans(),
    }),
    paths=st.fixed_dictionaries({}, optional={
        key: optional_path for key in ["input_csv", "out_dir", "dataset_dir", "load_curve"]
    }),
    top=st.fixed_dictionaries({}, optional={
        "seed": st.integers(0, 2**63 - 1),
        "horizon_days": st.integers(1, 400),
        "threads": st.integers(1, 64),
    }),
)
def test_echo_round_trips_property(fleet, ess, paths, top):
    config = parse_config_dict({"fleet": fleet, "ess": ess, "paths": paths, **top})
    assert echo_round_trip(config) == config.echo()
