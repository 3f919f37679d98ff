"""Config schema: the fleet and ess sections are the dataclass fields."""

import json
import math
import re
from dataclasses import FrozenInstanceError, dataclass, fields, replace
from pathlib import Path

import numpy as np
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
    @dataclass(frozen=True)
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


@pytest.mark.parametrize("field, value", [
    ("horizon_days", 0), ("horizon_days", 10**9), ("horizon_days", 2.5), ("horizon_days", True),
    ("threads", 0), ("threads", 1.5),
])
def test_pipeline_config_checks_itself_when_built(field, value):
    """A library caller's ``replace`` gets the checks a config file gets, and
    a built config takes no assignment."""
    config = load_config(REPO_ROOT / "configs" / "case_study.json")
    with pytest.raises(ConfigurationError, match=field):
        replace(config, **{field: value})
    assert getattr(replace(config, **{field: np.int64(2)}), field) == 2
    for name in [f.name for f in fields(config)]:
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, getattr(config, name))


def test_readme_configuration_table_lists_every_key():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
    expected = {
        *config_module._TOP_LEVEL_KEYS - {"paths", "fleet", "ess"},
        *(f"paths.{key}" for key in config_module._PATH_KEYS),
        *(f"fleet.{f.name}" for f in fields(FleetConfig) if f.name != "seed"),
        "ess.*",
    }
    assert expected <= documented, sorted(expected - documented)


unit = st.floats(0.0, 1.0) | st.integers(0, 1)
positive = st.floats(0.01, 1e4) | st.integers(1, 10_000)
nonnegative = st.floats(0.0, 1e4) | st.integers(0, 10_000)
optional_path = st.none() | st.text(alphabet="ab/._-", max_size=8)


@settings(max_examples=100)
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


finite_positive = st.floats(0.0, exclude_min=True, allow_infinity=False)
finite_nonnegative = st.floats(0.0, allow_infinity=False)


def integers(lo, hi):
    """Python ints in [lo, hi], or numpy int64s where they fit."""
    return st.integers(lo, hi) | st.integers(lo, min(hi, 2**63 - 1)).map(np.int64)


_IN_RANGE = {
    FleetConfig: {
        "p_own": st.floats(0.0, 1.0),
        "n_ev": integers(0, 10**6),
        "p_charging_kw": finite_positive,
        "c_ev_kwh": finite_positive,
        "u_kwh_per_km": finite_positive,
        "q_pro": st.tuples(*[st.floats(0.0, 1.0)] * 5),
        "soc_reserve": st.floats(0.0, 1.0, exclude_max=True),
        "slot_minutes": st.sampled_from([d for d in range(1, 1441) if 1440 % d == 0]).flatmap(
            lambda d: st.sampled_from([d, np.int64(d)])),
        "seed": integers(0, 2**64),
    },
    EssParams: {
        "c_ess_kwh": finite_nonnegative,
        "p_charge_max_kw": finite_nonnegative,
        "p_discharge_max_kw": finite_nonnegative,
        "soc_init": st.floats(0.0, 1.0),
        "require_terminal_soc": st.booleans(),
        "allow_export": st.booleans(),
    },
}
# Values of the wrong type for an int or a bool field, beside the non-finite ones.
_WRONG_TYPE = {"int": [300.5, 1.5, 7.5, 15.0, True], "bool": ["false", "true", 0, 1, None]}


_FIELDS = [(cls, f) for cls in (FleetConfig, EssParams) for f in fields(cls)]


@pytest.mark.parametrize("cls, field", _FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in _FIELDS])
@settings(max_examples=40)
@given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_parameters_check_themselves_when_built(cls, field, data, bad):
    """In-range finite values build, with Python or numpy integers; a
    non-finite number in every field (or ``q_pro`` entry), a float or bool in
    an integer field and a non-bool in a bool field fail when built; a built
    object takes no assignment."""
    params = cls(**data.draw(st.fixed_dictionaries(_IN_RANGE[cls]), label="values"))
    name = field.name
    values = [bad, *_WRONG_TYPE.get(field.type, [])]
    if name == "q_pro":
        value = list(params.q_pro)
        value[data.draw(st.integers(0, 4), label="entry")] = bad
        values = [value]
    for value in values:
        with pytest.raises(ConfigurationError):
            replace(params, **{name: value})
    with pytest.raises(FrozenInstanceError):
        setattr(params, name, getattr(params, name))


def test_q_pro_needs_one_weight_per_site_class():
    with pytest.raises(ConfigurationError, match="one weight per site class"):
        FleetConfig(q_pro=(0.1,) * 4)
