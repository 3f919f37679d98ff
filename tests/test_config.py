"""Config schema: the fleet and ess sections are the dataclass fields."""

import json
import math
import re
from dataclasses import MISSING, FrozenInstanceError, dataclass, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargecast import config as config_module
from chargecast.config import PipelineConfig, load_config, parse_config_dict
from chargecast.errors import ConfigurationError
from chargecast.forecast import FleetConfig
from chargecast.scheduler import EssParams
from chargecast.survey import DEFAULT_COLUMN_MAP, SiteClass

REPO_ROOT = Path(__file__).resolve().parents[1]
_CASE_STUDY = REPO_ROOT / "configs" / "case_study.json"


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


def test_numpy_integers_are_stored_as_python_ints():
    """A config built from numpy integers echoes JSON."""
    config = load_config(REPO_ROOT / "configs" / "case_study.json")
    fleet = replace(config.fleet, n_ev=np.int64(300), slot_minutes=np.int16(15), seed=np.uint64(7))
    config = replace(config, horizon_days=np.int64(2), threads=np.int32(1), fleet=fleet)
    for value in (config.horizon_days, config.threads, fleet.n_ev, fleet.slot_minutes, fleet.seed):
        assert type(value) is int
    assert echo_round_trip(config) == config.echo()


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
# Values of the wrong type for each kind of field, beside the non-finite ones.
_WRONG_TYPE = {
    "int": [300.5, 1.5, 7.5, 15.0, True],
    "bool": ["false", "true", 0, 1, None],
    "float": ["0.5", None, True],
    "tuple[float, ...]": ["0.04, 0.1, 0.2, 0.1, 0.1", None],
    "str": [None, 5, b"\xa5"],
}

# Values of the right type that are out of range, each with its message.
_OUT_OF_RANGE = {
    "p_own": [(1.5, "p_own must be in [0, 1]"), (-0.5, "p_own must be in [0, 1]")],
    "n_ev": [(-1, "n_ev must be in [0, 1000000]"), (10**6 + 1, "n_ev must be in [0, 1000000]")],
    "p_charging_kw": [(0.0, "p_charging_kw must be > 0")],
    "c_ev_kwh": [(0, "c_ev_kwh must be > 0")],
    "u_kwh_per_km": [(-1, "u_kwh_per_km must be > 0")],
    "soc_reserve": [(1.0, "soc_reserve must be in [0, 1)"), (-0.1, "soc_reserve must be in [0, 1)")],
    "slot_minutes": [(7, "slot_minutes must divide 1440"), (0, "slot_minutes must divide 1440")],
    "seed": [(-1, "seed must be >= 0")],
    "c_ess_kwh": [(-1, "c_ess_kwh must be >= 0")],
    "p_charge_max_kw": [(-1, "ESS power limits must be >= 0")],
    "p_discharge_max_kw": [(-1, "ESS power limits must be >= 0")],
    "soc_init": [(1.5, "soc_init must be in [0, 1]")],
}


_FIELDS = [(cls, f) for cls in (FleetConfig, EssParams) for f in fields(cls)]


@pytest.mark.parametrize("cls, field", _FIELDS, ids=[f"{c.__name__}.{f.name}" for c, f in _FIELDS])
@settings(max_examples=40)
@given(data=st.data(), bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_parameters_check_themselves_when_built(cls, field, data, bad):
    """In-range finite values build, with Python or numpy integers; a
    non-finite number in every field (or ``q_pro`` entry), a float or bool in
    an integer field, a non-bool in a bool field, a string, None or bool in a
    float field and a string ``q_pro`` or entry fail when built, and so does
    each value of the right type out of its field's range, with its own
    message; a built object takes no assignment."""
    params = cls(**data.draw(st.fixed_dictionaries(_IN_RANGE[cls]), label="values"))
    name = field.name
    values = [bad, *_WRONG_TYPE[field.type]]
    out_of_range = _OUT_OF_RANGE.get(name, [])
    if name == "q_pro":
        i = data.draw(st.integers(0, 4), label="entry")
        values += [[*params.q_pro[:i], wrong, *params.q_pro[i + 1:]] for wrong in (bad, "0.1")]
        out_of_range = [([*params.q_pro[:i], 1.5, *params.q_pro[i + 1:]],
                         "q_pro entries must be in [0, 1]")]
    for value in values:
        with pytest.raises(ConfigurationError):
            replace(params, **{name: value})
    for value, message in out_of_range:
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            replace(params, **{name: value})
    with pytest.raises(FrozenInstanceError):
        setattr(params, name, getattr(params, name))


def test_q_pro_needs_one_weight_per_site_class():
    with pytest.raises(ConfigurationError, match="one weight per site class"):
        FleetConfig(q_pro=(0.1,) * 4)


def test_every_parameter_field_is_converted_by_its_default():
    """A field without a default would skip the shared type rule: only
    PipelineConfig's paths (which it converts itself), maps and sections
    have none."""
    for cls in (FleetConfig, EssParams):
        assert all(f.default is not MISSING for f in fields(cls)), cls
    no_default = {f.name for f in fields(PipelineConfig) if f.default is MISSING}
    assert no_default == {
        *config_module._PATH_KEYS, "column_map", "destination_map", "fleet", "ess", "tariff",
    }


_DAY_DIVISORS = [d for d in range(1, 1441) if 1440 % d == 0]
_NUMPY_FLOATS = [np.float16, np.float32, np.float64]
_NUMPY_INTS = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


def numpy_floats(lo, hi=None, **kwargs):
    """A float in [lo, hi], as a numpy scalar of a width that holds it exactly."""
    return st.sampled_from(_NUMPY_FLOATS).flatmap(lambda kind: st.floats(
        lo, hi, width=np.finfo(kind).bits, allow_infinity=False, **kwargs).map(kind))


def numpy_ints(values):
    """Each of the integers ``values`` draws, as a numpy scalar of a width that holds it."""
    def widths(value):
        return [k for k in _NUMPY_INTS if np.iinfo(k).min <= value <= np.iinfo(k).max]
    return values.flatmap(lambda value: st.sampled_from(widths(value)).map(lambda k: k(value)))


_NUMPY_VALUES = {
    FleetConfig: {
        "p_own": numpy_floats(0.0, 1.0),
        "n_ev": numpy_ints(st.integers(0, 10**6)),
        "p_charging_kw": numpy_floats(0.0, exclude_min=True),
        "c_ev_kwh": numpy_floats(0.0, exclude_min=True),
        "u_kwh_per_km": numpy_floats(0.0, exclude_min=True),
        "q_pro": st.sampled_from(_NUMPY_FLOATS).flatmap(lambda kind: st.lists(
            st.floats(0.0, 1.0, width=np.finfo(kind).bits), min_size=5, max_size=5,
        ).map(lambda qs: np.array(qs, dtype=kind))),
        "soc_reserve": numpy_floats(0.0, 1.0, exclude_max=True),
        "slot_minutes": numpy_ints(st.sampled_from(_DAY_DIVISORS)),
        "seed": numpy_ints(st.integers(0, 2**64 - 1)),
    },
    EssParams: {
        "c_ess_kwh": numpy_floats(0.0),
        "p_charge_max_kw": numpy_floats(0.0),
        "p_discharge_max_kw": numpy_floats(0.0),
        "soc_init": numpy_floats(0.0, 1.0),
        "require_terminal_soc": st.booleans(),  # a bool field takes only a Python bool
        "allow_export": st.booleans(),
    },
}


@settings(max_examples=100)
@given(fleet=st.fixed_dictionaries(_NUMPY_VALUES[FleetConfig]),
       ess=st.fixed_dictionaries(_NUMPY_VALUES[EssParams]))
def test_numpy_scalars_are_stored_as_python_numbers(fleet, ess):
    """Numpy scalars of any width build every parameter, stored as the
    Python number of the same value: the config hashes and echoes JSON that
    reads back to the same echo."""
    config = replace(load_config(_CASE_STUDY), fleet=FleetConfig(**fleet), ess=EssParams(**ess))
    for params, given_values in [(config.fleet, fleet), (config.ess, ess)]:
        for f in fields(params):
            stored, value = getattr(params, f.name), given_values[f.name]
            if f.name == "q_pro":
                assert all(type(q) is float for q in stored) and stored == tuple(value.tolist())
            else:
                assert type(stored) is type(f.default) and stored == value, f.name
        hash(params)
    assert echo_round_trip(config) == config.echo()


def rebuilt(section, changes):
    """The case-study config with ``changes`` to one section, or to the config itself."""
    config = load_config(_CASE_STUDY)
    if section == "config":
        return replace(config, **changes)
    return replace(config, **{section: replace(getattr(config, section), **changes)})


@pytest.mark.parametrize("section, changes, stored", [
    ("fleet", {"p_charging_kw": np.float32(60.0)}, 60.0),
    ("ess", {"c_ess_kwh": np.float32(5445.0)}, 5445.0),
    ("fleet", {"q_pro": [np.float32(0.5)] * 5}, (0.5,) * 5),
    ("fleet", {"q_pro": [0.5] * 5}, (0.5,) * 5),
    ("fleet", {"q_pro": np.full(5, 0.5)}, (0.5,) * 5),
    ("config", {"out_dir": "x"}, Path("x")),
])
def test_library_values_are_converted(section, changes, stored):
    """A value built in Python is stored as the value a config file gives,
    so the config hashes and its echo reads back to itself."""
    config = rebuilt(section, changes)
    [(name, _)] = changes.items()
    assert getattr(config if section == "config" else getattr(config, section), name) == stored
    hash((config.fleet, config.ess, config.tariff))
    assert echo_round_trip(config) == config.echo()


@pytest.mark.parametrize("section, changes", [
    ("fleet", {"p_own": "0.5"}),
    ("fleet", {"p_own": True}),
    ("ess", {"soc_init": "0.5"}),
    *[("config", {"currency": value}) for value in _WRONG_TYPE["str"]],
])
def test_library_values_of_the_wrong_type_raise(section, changes):
    with pytest.raises(ConfigurationError, match=next(iter(changes))):
        rebuilt(section, changes)


def test_pipeline_config_converts_its_paths():
    """A path is stored as a Path from a str or os.PathLike, an optional one
    as None from None or ""; any other value fails when built."""
    config = load_config(_CASE_STUDY)
    config = replace(config, out_dir="x", input_csv=Path("survey.csv"), dataset_dir="",
                     load_curve=None)
    assert (config.out_dir, config.input_csv) == (Path("x"), Path("survey.csv"))
    assert config.dataset_dir is None and config.load_curve is None
    assert replace(config, out_dir="").out_dir == Path("")
    assert echo_round_trip(config) == config.echo()
    for name, value in [("out_dir", None), ("out_dir", 5), ("input_csv", 5),
                        ("dataset_dir", b"ingest"), ("load_curve", ["curve.csv"])]:
        with pytest.raises(ConfigurationError, match=name):
            replace(config, **{name: value})


@pytest.mark.parametrize("changes", [
    {"tariff": None}, {"fleet": {}}, {"ess": None},
    {"destination_map": {3: "WORK"}}, {"destination_map": {True: "W"}},
    {"destination_map": {3.5: "W"}}, {"destination_map": {"x": "W"}},
    {"column_map": {"vehicle": "VEHID"}}, {"column_map": {5: "VEHID", "x": "VEHID"}},
    {"column_map": {"vehicle_id": 5}}, {"column_map": []},
], ids=repr)
def test_library_sections_and_maps_are_checked_when_built(changes):
    """A section of the wrong class, a purpose code that is not an integer
    (or a string of one) or a label that is not a site class, and a column
    map with an unknown field (of any type) or a non-string column fail
    when built, as they do in a config file, not when a stage first reads them."""
    with pytest.raises(ConfigurationError, match=next(iter(changes))):
        rebuilt("config", changes)


def test_maps_are_stored_read_only():
    """Purpose codes are stored as ints and their labels as site classes; a
    built config's maps take no assignment."""
    config = rebuilt("config", {"destination_map": {np.int16(3): "W", "4": SiteClass.H}})
    assert dict(config.destination_map) == {3: SiteClass.W, 4: SiteClass.H}
    assert config.echo()["destination_map"] == {"3": "W", "4": "H"}
    assert echo_round_trip(config) == config.echo()
    for mapping, key in [(config.destination_map, 3), (config.column_map, "vehicle_id")]:
        with pytest.raises(TypeError):
            mapping[key] = "junk"
    assert replace(config, horizon_days=2).destination_map == config.destination_map


@pytest.mark.parametrize("build", [
    parse_config_dict, lambda maps: replace(load_config(_CASE_STUDY), **maps),
], ids=["file", "replace"])
def test_purpose_codes_read_alike_raise(build):
    """Keys that int() reads as one purpose code are refused, not merged with the last one winning."""
    maps = {"destination_map": {"3": "W", "4": "W", "03": "H", " 3": "SE"}}
    with pytest.raises(ConfigurationError, match="keys '3', '03', ' 3' name the same purpose code"):
        build(maps)


@pytest.mark.parametrize("name", [f.name for f in fields(PipelineConfig)])
def test_every_pipeline_config_field_is_checked(name):
    """A field added later cannot skip the checks: each refuses a value of no known type."""
    with pytest.raises(ConfigurationError, match=name):
        rebuilt("config", {name: object()})


def built_maps(build):
    """The two maps of the config ``build()`` returns, or None if it raises ConfigurationError."""
    try:
        config = build()
    except ConfigurationError:
        return None
    return dict(config.column_map), dict(config.destination_map)


_CODES = st.sampled_from(["1", "3", " 4", "-2", "03", "3.5", "x", "", "True"]) | st.text(max_size=3)
_LABELS = st.sampled_from([*SiteClass.__members__, "WORK", "h", "", None, 3])


@settings(max_examples=200)
@given(
    destination_map=st.dictionaries(_CODES, _LABELS, max_size=4) | st.sampled_from([[], None, "W"]),
    column_map=st.dictionaries(
        st.sampled_from([*DEFAULT_COLUMN_MAP, "vehicle", "HOUSEID"]),
        st.text(max_size=4) | st.none() | st.integers(),
        max_size=3,
    ) | st.sampled_from([[], None, "VEHID"]),
)
def test_file_and_library_accept_the_same_maps(destination_map, column_map):
    """A config file and a ``replace`` of a loaded config accept and reject
    the same maps, and store the same maps when they accept."""
    maps = {"destination_map": destination_map, "column_map": column_map}
    from_file = built_maps(lambda: parse_config_dict(json.loads(json.dumps(maps))))
    assert from_file == built_maps(lambda: replace(load_config(_CASE_STUDY), **maps))
