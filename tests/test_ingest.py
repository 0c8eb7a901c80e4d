import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from tariffkit import demand as dm
from tariffkit import ingest
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


PRICES_OK = """date,period_index,price_usd_per_mwh
2021-07-01,0,40
2021-07-01,1,55.5
2021-07-02,0,38.25
2021-07-02,1,61
"""


def test_load_prices_converts_mwh_to_kwh(tmp_path):
    days = ingest.load_prices(write(tmp_path / "p.csv", PRICES_OK))
    assert len(days) == 2
    np.testing.assert_allclose(days[0], [0.040, 0.0555], rtol=0, atol=0)
    np.testing.assert_allclose(days[1], [0.03825, 0.061], rtol=0, atol=0)


def test_days_sorted_by_date(tmp_path):
    text = """date,period_index,price_usd_per_mwh
2021-07-02,0,2
2021-07-01,0,1
"""
    days = ingest.load_prices(write(tmp_path / "p.csv", text))
    assert days[0][0] == 0.001 and days[1][0] == 0.002


def test_header_mismatch_rejected(tmp_path):
    bad = PRICES_OK.replace("price_usd_per_mwh", "price")
    with pytest.raises(ingest.DataError, match="header"):
        ingest.load_prices(write(tmp_path / "p.csv", bad))


def test_bad_period_index_names_line(tmp_path):
    bad = PRICES_OK.replace("2021-07-01,1,", "2021-07-01,one,", 1)
    with pytest.raises(ingest.DataError, match=r"p\.csv:3"):
        ingest.load_prices(write(tmp_path / "p.csv", bad))


def test_duplicate_period_rejected(tmp_path):
    bad = PRICES_OK.replace("2021-07-01,1,55.5", "2021-07-01,0,55.5")
    with pytest.raises(ingest.DataError, match="duplicate"):
        ingest.load_prices(write(tmp_path / "p.csv", bad))


def test_incomplete_day_names_the_date(tmp_path):
    # day 2 has the right row count but skips period 1
    bad = PRICES_OK.replace("2021-07-02,1,61", "2021-07-02,2,61")
    with pytest.raises(ingest.DataError, match="2021-07-02"):
        ingest.load_prices(write(tmp_path / "p.csv", bad))
    # a short day trips the uniform-horizon check instead
    short = PRICES_OK.replace("2021-07-02,1,61\n", "")
    with pytest.raises(ingest.DataError, match="differing period counts"):
        ingest.load_prices(write(tmp_path / "p.csv", short))


def test_non_numeric_and_non_finite_values_rejected(tmp_path):
    with pytest.raises(ingest.DataError, match="not a number"):
        ingest.load_prices(write(tmp_path / "p.csv", PRICES_OK.replace("55.5", "n/a")))
    with pytest.raises(ingest.DataError, match="non-finite"):
        ingest.load_prices(write(tmp_path / "p.csv", PRICES_OK.replace("55.5", "inf")))


def test_solar_normalized_by_system_size(tmp_path):
    text = """date,period_index,kwh
2021-07-01,0,0
2021-07-01,1,4.0
"""
    days = ingest.load_profile(write(tmp_path / "s.csv", text), "solar", system_kw=5.0)
    np.testing.assert_allclose(days[0], [0.0, 0.8], rtol=0, atol=0)
    with pytest.raises(ingest.DataError, match="negative solar"):
        ingest.load_profile(write(tmp_path / "s2.csv", text.replace("4.0", "-1.0")),
                            "solar", system_kw=5.0)
    with pytest.raises(ValueError, match="kind"):
        ingest.load_profile(tmp_path / "s.csv", "wind")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        ingest.load_prices(tmp_path / "nope.csv")


def test_config_defaults_match_nominal_study():
    config = ingest.StudyConfig()
    assert config.nominal_price == 0.172
    assert config.nominal_connection_charge == 0.53
    assert config.customer_count == 2.2e6
    assert config.elasticity == -0.3
    assert config.pv_unit_kw == 5.0
    assert config.storage_capacity_kwh == 6.4
    assert config.storage_power_kw == 3.3
    assert config.storage_efficiency == 0.96
    assert config.storage_per_pv_kwh_per_kw == 0.5
    assert config.horizon == 24


def test_storage_period_follows_horizon():
    # a 48-period day has half-hour periods: 3.3 kW moves 1.65 kWh per period
    spec = ingest.storage_unit_spec(ingest.StudyConfig(horizon=48))
    assert spec.period_hours == 0.5
    charge_cap, discharge_cap = st.rate_caps(spec, 48)
    np.testing.assert_allclose(charge_cap, 1.65, rtol=1e-15)
    np.testing.assert_allclose(discharge_cap, 1.65, rtol=1e-15)
    assert ingest.storage_unit_spec(ingest.StudyConfig()).period_hours == 1.0


def test_config_validation_errors():
    with pytest.raises(ingest.ConfigError, match="elasticity"):
        ingest.StudyConfig(elasticity=0.3)
    with pytest.raises(ingest.ConfigError, match="scenario_mode"):
        ingest.StudyConfig(scenario_mode="bootstrap")
    with pytest.raises(ingest.ConfigError, match="class_counts"):
        ingest.StudyConfig(customer_classes=2, class_counts=(1.0,))
    with pytest.raises(ingest.ConfigError, match="explicit"):
        ingest.StudyConfig(fixed_cost_mode="explicit")
    with pytest.raises(ingest.ConfigError, match="kind"):
        ingest.StudyConfig(family_kinds=("optimal-three-part",))
    with pytest.raises(ingest.ConfigError, match="efficiency"):
        ingest.StudyConfig(storage_efficiency=1.5)
    with pytest.raises(ingest.ConfigError, match="square"):
        ingest.StudyConfig(horizon=2, slope_override=((1.0,),))


def test_config_mapping_round_trip():
    config = ingest.StudyConfig(
        horizon=2,
        customer_classes=2,
        class_counts=(10.0, 20.0),
        customer_count=30.0,
        slope_override=((2.0, 0.5), (0.5, 2.0)),
        fixed_cost_mode="explicit",
        fixed_cost_value=123.0,
        fixed_connection_charges=(0.53, 1.0),
        fixed_cost_grid=(7.0, 9.0),
        prices_path="p.csv",
        load_path="l.csv",
        solar_path="s.csv",
    )
    optional = [f.name for f in fields(config) if f.type.endswith("| None")]
    assert all(getattr(config, name) is not None for name in optional)
    back = ingest.config_from_mapping(ingest.config_to_mapping(config))
    assert back == config


# one value breaking each field rule, by the entry's section.key
RULE_BREAKERS = {
    "study.horizon": 0,
    "study.scenario_mode": "bootstrap",
    "customers.count": 0.0,
    "customers.classes": 0,
    "customers.sigma_rule": "bogus",
    "customers.class_counts": [4.4e5, 4.4e5, 4.4e5, 4.4e5, -1.0],
    "demand.elasticity": 0.3,
    "nominal_tariff.price_usd_per_kwh": 0.0,
    "fixed_cost.mode": "guess",
    "families.kinds": ["optimal-three-part"],
    "der.pv_unit_kw": -5.0,
    "der.storage_capacity_kwh": -6.4,
    "der.storage_power_kw": 0.0,
    "der.storage_efficiency": 1.5,
    "der.storage_per_pv_kwh_per_kw": -0.5,
    "der.allocation": "random",
    "grids.capacity_kw": [0.0, -1.0],
    "inputs.solar_system_kw": 0.0,
}
RULED_KEYS = [f.metadata["key"] for f in fields(ingest.StudyConfig) if f.metadata["rule"]]


@pytest.mark.parametrize("key", RULED_KEYS)
def test_field_rule_failure_names_the_entry(key):
    section, entry = key.split(".")
    with pytest.raises(ingest.ConfigError, match=f"^{re.escape(key)} "):
        ingest.config_from_mapping({section: {entry: RULE_BREAKERS[key]}})


def test_readme_study_file_table_lists_every_entry():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Study file\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \|", section, flags=re.MULTILINE)
    assert listed == [f.metadata["key"] for f in fields(ingest.StudyConfig)]


def test_unknown_section_and_key_rejected():
    with pytest.raises(ingest.ConfigError, match="section"):
        ingest.config_from_mapping({"weather": {}})
    with pytest.raises(ingest.ConfigError, match="key"):
        ingest.config_from_mapping({"study": {"horizont": 24}})


def test_type_errors_are_named():
    with pytest.raises(ingest.ConfigError, match="study.horizon"):
        ingest.config_from_mapping({"study": {"horizon": "twenty-four"}})
    with pytest.raises(ingest.ConfigError, match="customers.count"):
        ingest.config_from_mapping({"customers": {"count": "many"}})


def test_load_config_resolves_relative_paths(tmp_path):
    (tmp_path / "inner").mkdir()
    cfg = ingest.StudyConfig(prices_path="p.csv", load_path="l.csv", solar_path="s.csv")
    ingest.write_config(cfg, tmp_path / "inner" / "study.yaml")
    loaded = ingest.load_config(tmp_path / "inner" / "study.yaml")
    assert loaded.prices_path == str(tmp_path / "inner" / "p.csv")


def test_yaml_loaders_give_the_same_mapping(tmp_path, monkeypatch):
    # load_config parses with libyaml when PyYAML has it; the pure-Python
    # SafeLoader must read the generated study file the same way
    loader = getattr(yaml, "CSafeLoader", None)
    if loader is None:
        pytest.skip("PyYAML built without libyaml")
    path = Path(ingest.write_synthetic_dataset(tmp_path)["config"])
    text = path.read_text(encoding="utf-8")
    assert yaml.load(text, Loader=loader) == yaml.load(text, Loader=yaml.SafeLoader)
    configs = []
    for each in (loader, yaml.SafeLoader):
        monkeypatch.setattr(ingest, "_YAML_LOADER", each)
        configs.append(ingest.load_config(path))
    assert configs[0] == configs[1]


def test_build_model_calibrates_to_mean_day():
    config = ingest.StudyConfig(horizon=3, customer_classes=2, customer_count=10.0)
    load_days = [np.array([9.0, 11.0, 10.0]), np.array([11.0, 13.0, 14.0])]
    model = ingest.build_model(config, load_days)
    got = dm.aggregate_demand(model, model.calibration_price)
    np.testing.assert_allclose(got, [10.0, 12.0, 12.0], rtol=1e-12)
    assert model.customers == 10.0


def test_build_model_slope_override():
    override = ((10.0, -1.0), (-1.0, 8.0))
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=4.0,
                                slope_override=override)
    load_days = [np.array([5.0, 6.0])]
    model = ingest.build_model(config, load_days)
    np.testing.assert_allclose(model.slope, np.array(override))
    # sales anchor still holds after the refit
    got = dm.aggregate_demand(model, model.calibration_price)
    np.testing.assert_allclose(got, [5.0, 6.0], rtol=1e-12)
    # a non-positive-definite override propagates the model's error
    config2 = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=4.0,
                                 slope_override=((1.0, 0.0), (0.0, -1.0)))
    with pytest.raises(ValueError, match="positive definite"):
        ingest.build_model(config2, load_days)


def test_build_scenarios_paired_mode():
    config = ingest.StudyConfig(horizon=2, customer_classes=2, customer_count=10.0)
    prices = [np.array([0.04, 0.05]), np.array([0.03, 0.06]), np.array([0.05, 0.05])]
    loads = [np.array([9.0, 10.0]), np.array([10.0, 11.0]), np.array([11.0, 12.0])]
    solars = [np.full(2, 0.1), np.full(2, 0.2), np.full(2, 0.3)]
    model = ingest.build_model(config, loads)
    ss = ingest.build_scenarios(config, prices, loads, solars, model=model)
    assert len(ss) == 3
    np.testing.assert_allclose(ss.probabilities, [1 / 3] * 3)
    # the population disturbance reproduces each day's deviation exactly
    mean_load = np.mean(np.stack(loads), axis=0)
    for s, load in zip(ss, loads):
        pop = model.class_counts @ s.disturbances
        np.testing.assert_allclose(pop, load - mean_load, rtol=0, atol=1e-12)
    assert ss.has_solar_unit


def test_build_scenarios_product_mode():
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=10.0,
                                scenario_mode="product-of-marginals")
    prices = [np.array([0.04, 0.05]), np.array([0.03, 0.06]), np.array([0.05, 0.05])]
    loads = [np.array([9.0, 10.0]), np.array([10.0, 11.0]), np.array([11.0, 12.0])]
    solars = [np.full(2, 0.1), np.full(2, 0.2), np.full(2, 0.3)]
    ss = ingest.build_scenarios(config, prices, loads, solars)
    assert len(ss) == 9
    assert ss.independent


def test_build_scenarios_length_mismatch():
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=10.0)
    with pytest.raises(ingest.DataError, match="equal day counts"):
        ingest.build_scenarios(config, [np.zeros(2)], [np.zeros(2)] * 2, [np.zeros(2)] * 2)


def test_derive_fixed_cost_modes():
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=10.0)
    loads = [np.array([5.0, 6.0])]
    prices = [np.array([0.04, 0.05])]
    solars = [np.zeros(2)]
    model = ingest.build_model(config, loads)
    ss = ingest.build_scenarios(config, prices, loads, solars, model=model)
    f = ingest.derive_fixed_cost(config, model, ss)
    # single scenario: F = M A + (pi - lambda)^T D(pi)
    pi = np.full(2, config.nominal_price)
    q = dm.aggregate_demand(model, pi)
    want = 10.0 * config.nominal_connection_charge + float((pi - prices[0]) @ q)
    assert f == pytest.approx(want, rel=1e-12)

    explicit = replace(config, fixed_cost_mode="explicit", fixed_cost_value=123.0)
    assert ingest.derive_fixed_cost(explicit, model, ss) == 123.0


def test_configured_families_labels():
    config = ingest.StudyConfig()
    labels = [label for label, _ in ingest.configured_families(config)]
    assert labels == list(tf.FAMILY_KINDS)
    config2 = replace(config, fixed_connection_charges=(0.53, 1.0))
    labels2 = [label for label, _ in ingest.configured_families(config2)]
    assert "flat-fixed-A@0.53" in labels2 and "flat-fixed-A@1" in labels2
    assert labels2.count("optimal-two-part") == 1


def test_resolve_fixed_cost_grid():
    config = ingest.StudyConfig()
    grid = ingest.resolve_fixed_cost_grid(config, 100.0)
    assert grid == (25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0)
    pinned = replace(config, fixed_cost_grid=(7.0, 9.0))
    assert ingest.resolve_fixed_cost_grid(pinned, 100.0) == (7.0, 9.0)


def test_storage_unit_spec():
    spec = ingest.storage_unit_spec(ingest.StudyConfig())
    assert spec.capacity_kwh == 6.4
    assert spec.charge_rate_kw == 3.3
    assert spec.efficiency == 0.96


def test_synthetic_days_deterministic_and_scaled():
    a = ingest.synthetic_days(seed=3, n_days=4, horizon=24)
    b = ingest.synthetic_days(seed=3, n_days=4, horizon=24)
    for days_a, days_b in zip(a, b):
        for va, vb in zip(days_a, days_b):
            np.testing.assert_array_equal(va, vb)
    prices, loads, solars = a
    for lam in prices:
        assert lam.min() >= 0.008  # $8/MWh floor
        assert lam.max() < 0.2
    for load in loads:
        assert 25e6 < load.sum() < 45e6
    for solar in solars:
        assert solar.min() == 0.0  # night
        assert 0.5 < solar.sum() < 8.0  # kWh per kW per day


def test_synthetic_variants_differ_in_correlation():
    def corr(correlated):
        prices, loads, _ = ingest.synthetic_days(seed=0, n_days=40, correlated=correlated)
        p = np.array([v.mean() for v in prices])
        q = np.array([v.sum() for v in loads])
        return float(np.corrcoef(p, q)[0, 1])

    assert corr(True) > 0.5
    assert abs(corr(False)) < 0.45


def test_write_synthetic_dataset_round_trip(tmp_path):
    paths = ingest.write_synthetic_dataset(tmp_path, seed=1, n_days=3, horizon=12)
    config = ingest.load_config(paths["config"])
    assert config.horizon == 12
    study = ingest.build_study(config)
    assert len(study.scenario_set) == 3
    assert study.model.customers == 2.2e6
    # the files round-trip the generated vectors through %.12g
    prices, loads, solars = ingest.synthetic_days(seed=1, n_days=3, horizon=12)
    got = ingest.load_prices(paths["prices"])
    for want, vec in zip(prices, got):
        np.testing.assert_allclose(vec, want, rtol=1e-11)
    got_solar = ingest.load_profile(paths["solar"], "solar", system_kw=5.0)
    for want, vec in zip(solars, got_solar):
        np.testing.assert_allclose(vec, want, rtol=1e-11, atol=1e-15)


def test_write_synthetic_dataset_independent_mode(tmp_path):
    paths = ingest.write_synthetic_dataset(tmp_path, seed=0, n_days=3, correlated=False)
    config = ingest.load_config(paths["config"])
    assert config.scenario_mode == "product-of-marginals"
    study = ingest.build_study(config)
    assert len(study.scenario_set) == 9
    assert study.scenario_set.independent


def test_build_study_requires_input_paths():
    with pytest.raises(ingest.ConfigError, match="missing input"):
        ingest.build_study(ingest.StudyConfig())
