import ast
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from tariffkit import demand as dm
from tariffkit import ingest
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf
from tariffkit import welfare as wf


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


PRICES_OK = """date,period_index,price_usd_per_mwh
2021-07-01,0,40
2021-07-01,1,55.5
2021-07-02,0,38.25
2021-07-02,1,61
"""


def read_prices(path):
    return ingest._read_day_table(path, "price_usd_per_mwh")


def study_files(tmp_path, prices=PRICES_OK, load=None, solar=None):
    """A StudyConfig over three files; load and solar default to the price file's days."""
    profile = prices.replace("price_usd_per_mwh", "kwh")
    paths = {}
    for name, text in (("prices", prices), ("load", load or profile), ("solar", solar or profile)):
        paths[f"{name}_path"] = str(write(tmp_path / f"{name}.csv", text))
    return ingest.StudyConfig(horizon=2, **paths)


def test_load_inputs_converts_mwh_to_kwh(tmp_path):
    prices, load, solar = ingest.load_inputs(study_files(tmp_path))
    assert prices.shape == load.shape == solar.shape == (2, 2)
    np.testing.assert_allclose(prices, [[0.040, 0.0555], [0.03825, 0.061]], rtol=0, atol=0)
    np.testing.assert_array_equal(load, [[40.0, 55.5], [38.25, 61.0]])
    for matrix in (prices, load, solar):
        assert not matrix.flags.writeable


def test_days_sorted_by_date(tmp_path):
    text = """date,period_index,price_usd_per_mwh
2021-07-02,0,2
2021-07-01,0,1
"""
    dates, values = read_prices(write(tmp_path / "p.csv", text))
    assert dates == ["2021-07-01", "2021-07-02"]
    np.testing.assert_array_equal(values, [[1.0], [2.0]])


def test_header_mismatch_rejected(tmp_path):
    bad = PRICES_OK.replace("price_usd_per_mwh", "price")
    with pytest.raises(ingest.DataError, match="header"):
        read_prices(write(tmp_path / "p.csv", bad))


def test_bad_period_index_names_line(tmp_path):
    bad = PRICES_OK.replace("2021-07-01,1,", "2021-07-01,one,", 1)
    with pytest.raises(ingest.DataError, match=r"p\.csv:3"):
        read_prices(write(tmp_path / "p.csv", bad))


def test_duplicate_period_rejected(tmp_path):
    bad = PRICES_OK.replace("2021-07-01,1,55.5", "2021-07-01,0,55.5")
    with pytest.raises(ingest.DataError, match="duplicate"):
        read_prices(write(tmp_path / "p.csv", bad))


def test_incomplete_day_names_the_date(tmp_path):
    # day 2 has the right row count but skips period 1
    bad = PRICES_OK.replace("2021-07-02,1,61", "2021-07-02,2,61")
    with pytest.raises(ingest.DataError, match="2021-07-02"):
        read_prices(write(tmp_path / "p.csv", bad))
    # a short day trips the uniform-horizon check instead
    short = PRICES_OK.replace("2021-07-02,1,61\n", "")
    with pytest.raises(ingest.DataError, match="differing period counts"):
        read_prices(write(tmp_path / "p.csv", short))


def test_non_numeric_and_non_finite_values_rejected(tmp_path):
    with pytest.raises(ingest.DataError, match="not a number"):
        read_prices(write(tmp_path / "p.csv", PRICES_OK.replace("55.5", "n/a")))
    with pytest.raises(ingest.DataError, match="non-finite"):
        read_prices(write(tmp_path / "p.csv", PRICES_OK.replace("55.5", "inf")))


def test_solar_normalized_by_system_size(tmp_path):
    text = """date,period_index,kwh
2021-07-01,0,0
2021-07-01,1,4.0
2021-07-02,0,0
2021-07-02,1,4.0
"""
    config = replace(study_files(tmp_path, solar=text), solar_system_kw=5.0)
    _, _, solar = ingest.load_inputs(config)
    np.testing.assert_allclose(solar[0], [0.0, 0.8], rtol=0, atol=0)
    write(tmp_path / "solar.csv", text.replace("4.0", "-1.0", 1))
    with pytest.raises(ingest.DataError, match="negative solar"):
        ingest.load_inputs(config)


def test_negative_profile_cell_named_by_line(tmp_path):
    # load and solar are energies and must be >= 0; prices stay signed
    text = """date,period_index,kwh
2021-07-01,0,1000
2021-07-01,1,-500000
"""
    path = write(tmp_path / "l.csv", text)
    for kind in ("load", "solar"):
        with pytest.raises(ingest.DataError,
                           match=re.escape(f"{path}:3: negative {kind} value -500000")):
            ingest._read_day_table(path, "kwh", nonnegative=kind)
    zero = write(tmp_path / "z.csv", text.replace("-500000", "0"))
    _, values = ingest._read_day_table(zero, "kwh", nonnegative="load")
    np.testing.assert_array_equal(values[0], [1000.0, 0.0])
    _, prices = read_prices(write(tmp_path / "p.csv", PRICES_OK.replace("55.5", "-12")))
    assert prices[0][1] == -12.0


def test_input_dates_must_align(tmp_path):
    # row k of every matrix is one date: a file whose dates differ from the
    # price file's is named with the first date that differs
    profile = PRICES_OK.replace("price_usd_per_mwh", "kwh")
    shifted = profile.replace("2021-07-02", "2021-07-03")
    for name in ("load", "solar"):
        config = study_files(tmp_path, **{name: shifted})
        with pytest.raises(ingest.DataError,
                           match=re.escape(f"{name}.csv: day 2 is 2021-07-03, but in "
                                           f"{config.prices_path} it is 2021-07-02")):
            ingest.load_inputs(config)
    short = profile.replace("2021-07-02,0,38.25\n2021-07-02,1,61\n", "")
    with pytest.raises(ingest.DataError, match="day 2 is missing, but in .* it is 2021-07-02"):
        ingest.load_inputs(study_files(tmp_path, load=short))


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_prices(tmp_path / "nope.csv")


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
    "grids.capacity_kw": [0.0, -1.0],
    "inputs.solar_system_kw": 0.0,
}
RULED_KEYS = [f.metadata["key"] for f in fields(ingest.StudyConfig) if f.metadata["rule"]]


@pytest.mark.parametrize("key", RULED_KEYS)
def test_field_rule_failure_names_the_entry(key):
    section, entry = key.split(".")
    with pytest.raises(ingest.ConfigError, match=f"^{re.escape(key)} "):
        ingest.config_from_mapping({section: {entry: RULE_BREAKERS[key]}})


# the entries that list a study table's rows, each with one allowed element
TABLE_ENTRIES = {
    "families.kinds": "flat-zero-A",
    "families.fixed_connection_charges_usd_per_day": 0.53,
    "grids.capacity_kw": 550e3,
    "grids.fixed_cost_usd_per_day": 7.0,
    "grids.fixed_cost_multipliers": 1.0,
}


def test_table_entries_are_declared_distinct():
    declared = {f.metadata["key"] for f in fields(ingest.StudyConfig) if f.metadata["distinct"]}
    assert declared == set(TABLE_ENTRIES)


@pytest.mark.parametrize("shape", ["empty", "repeated"])
@pytest.mark.parametrize("key", TABLE_ENTRIES)
def test_table_entry_is_nonempty_without_repeats(key, shape):
    section, entry = key.split(".")
    value = [] if shape == "empty" else [TABLE_ENTRIES[key]] * 2
    with pytest.raises(ingest.ConfigError,
                       match=f"^{re.escape(key)} must be a non-empty list without repeats$"):
        ingest.config_from_mapping({section: {entry: value}})
    # one element is a table of one row
    ingest.config_from_mapping({section: {entry: [TABLE_ENTRIES[key]]}})


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
    # der.allocation named a rule no code read; it is no longer an entry
    with pytest.raises(ingest.ConfigError, match="unknown config key der.allocation"):
        ingest.config_from_mapping({"der": {"allocation": "largest-first"}})


def _attribute_loads(tree):
    # a record's own __post_init__ only validates its fields: a read there is no use
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_config_field_is_read():
    # a field the library never reads as an attribute outside validation is
    # an entry (or an input-record value) that changes nothing; declare only
    # what some code uses
    read = {attr
            for path in Path(ingest.__file__).parent.glob("*.py")
            for attr in _attribute_loads(ast.parse(path.read_text(encoding="utf-8")))}
    records = (ingest.StudyConfig, sc.ScenarioSet, st.StorageSpec, tf.IntegrationCase,
               tf.TariffFamily, dm.DemandModel, tf.TwoPartTariff)
    unread = [f"{record.__name__}.{f.name}"
              for record in records for f in fields(record) if f.name not in read]
    assert unread == []


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


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
def test_load_config_reads_crlf_and_cr_line_endings(synthetic_dir, tmp_path, newline):
    # a study file saved on Windows, or checked out with core.autocrlf
    text = (synthetic_dir / "study.yaml").read_bytes()
    assert b"\r" not in text
    (tmp_path / "lf.yaml").write_bytes(text)
    (tmp_path / "other.yaml").write_bytes(text.replace(b"\n", newline))
    assert ingest.load_config(tmp_path / "other.yaml") == ingest.load_config(tmp_path / "lf.yaml")


def test_build_model_calibrates_to_mean_day():
    config = ingest.StudyConfig(horizon=3, customer_classes=2, customer_count=10.0)
    load = np.array([[9.0, 11.0, 10.0], [11.0, 13.0, 14.0]])
    model = ingest.build_model(config, load)
    got = dm.aggregate_demand(model, np.full(config.horizon, config.nominal_price))
    np.testing.assert_allclose(got, [10.0, 12.0, 12.0], rtol=1e-12)
    assert model.customers == 10.0


def test_build_model_slope_override():
    override = ((10.0, -1.0), (-1.0, 8.0))
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=4.0,
                                slope_override=override)
    load = np.array([[5.0, 6.0]])
    model = ingest.build_model(config, load)
    np.testing.assert_allclose(model.slope, np.array(override))
    # sales anchor still holds after the refit
    got = dm.aggregate_demand(model, np.full(config.horizon, config.nominal_price))
    np.testing.assert_allclose(got, [5.0, 6.0], rtol=1e-12)
    # a non-positive-definite override propagates the model's error
    config2 = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=4.0,
                                 slope_override=((1.0, 0.0), (0.0, -1.0)))
    with pytest.raises(ValueError, match="positive definite"):
        ingest.build_model(config2, load)


PRICES = np.array([[0.04, 0.05], [0.03, 0.06], [0.05, 0.05]])
LOAD = np.array([[9.0, 10.0], [10.0, 11.0], [11.0, 12.0]])
SOLAR = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])


def test_build_scenarios_paired_mode():
    config = ingest.StudyConfig(horizon=2, customer_classes=2, customer_count=10.0)
    model = ingest.build_model(config, LOAD)
    ss = ingest.build_scenarios(config, model, PRICES, LOAD, SOLAR)
    assert len(ss) == 3
    np.testing.assert_allclose(ss.probabilities, [1 / 3] * 3)
    # the population disturbance reproduces each day's deviation exactly
    pop = np.einsum("c,scn->sn", model.class_counts, ss.disturbance_tensor)
    np.testing.assert_allclose(pop, LOAD - LOAD.mean(axis=0), rtol=0, atol=1e-12)
    np.testing.assert_array_equal(ss.solar_unit_matrix, SOLAR)


def test_build_scenarios_product_mode():
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=10.0,
                                scenario_mode="product-of-marginals")
    model = ingest.build_model(config, LOAD)
    ss = ingest.build_scenarios(config, model, PRICES, LOAD, SOLAR)
    assert len(ss) == 9


def test_build_scenarios_length_mismatch():
    config = ingest.StudyConfig(horizon=2, customer_classes=1, customer_count=10.0)
    model = ingest.build_model(config, LOAD)
    with pytest.raises(ingest.DataError, match="matrices of one shape"):
        ingest.build_scenarios(config, model, PRICES[:1], LOAD, SOLAR)
    with pytest.raises(ingest.DataError, match=r"study\.horizon"):
        ingest.build_scenarios(config, model, PRICES[:, :1], LOAD, SOLAR)


def test_fixed_cost_value_requires_explicit_mode():
    # derived mode would ignore the value, so setting it is an error naming both keys
    with pytest.raises(ingest.ConfigError,
                       match=r"fixed_cost\.value_usd_per_day .* fixed_cost\.mode is derived"):
        ingest.StudyConfig(fixed_cost_value=1000.0)
    ingest.StudyConfig(fixed_cost_mode="explicit", fixed_cost_value=1000.0)  # the mode reading it


def test_build_study_fixed_cost_modes(tmp_path):
    one_day = "date,period_index,price_usd_per_mwh\n2021-07-01,0,40\n2021-07-01,1,50\n"
    config = replace(study_files(tmp_path, prices=one_day), customer_classes=1,
                     customer_count=10.0)
    study = ingest.build_study(config)
    # single scenario: F = M A + (pi - lambda)^T D(pi)
    pi = np.full(2, config.nominal_price)
    q = dm.aggregate_demand(study.model, pi)
    want = 10.0 * config.nominal_connection_charge + float((pi - [0.04, 0.05]) @ q)
    assert study.fixed_cost == pytest.approx(want, rel=1e-12)
    # F is the retailer surplus of the one nominal settlement whose anchors the study keeps
    assert study.fixed_cost == study.anchors.retailer_surplus
    nominal = ingest.nominal_tariff(config)
    settled = wf.base_anchors(study.model, study.scenario_set, nominal)

    explicit = ingest.build_study(replace(config, fixed_cost_mode="explicit",
                                          fixed_cost_value=123.0))
    assert explicit.fixed_cost == 123.0
    for field in fields(tf.SurplusReport):
        anchor = getattr(study.anchors, field.name)
        np.testing.assert_array_equal(anchor, getattr(settled, field.name))
        np.testing.assert_array_equal(getattr(explicit.anchors, field.name), anchor)


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
    for matrix_a, matrix_b in zip(a, b):
        assert matrix_a.shape == (4, 24) and not matrix_a.flags.writeable
        np.testing.assert_array_equal(matrix_a, matrix_b)
    prices, loads, solars = a
    assert prices.min() >= 0.008  # $8/MWh floor
    assert prices.max() < 0.2
    assert np.all((25e6 < loads.sum(axis=1)) & (loads.sum(axis=1) < 45e6))
    assert np.all(solars.min(axis=1) == 0.0)  # night
    daily = solars.sum(axis=1)  # kWh per kW per day
    assert np.all((0.5 < daily) & (daily < 8.0))


def test_synthetic_variants_differ_in_correlation():
    def corr(correlated):
        prices, loads, _ = ingest.synthetic_days(seed=0, n_days=40, correlated=correlated)
        return float(np.corrcoef(prices.mean(axis=1), loads.sum(axis=1))[0, 1])

    assert corr(True) > 0.5
    assert abs(corr(False)) < 0.45


def test_write_synthetic_dataset_round_trip(tmp_path):
    paths = ingest.write_synthetic_dataset(tmp_path, seed=1, n_days=3, horizon=12)
    config = ingest.load_config(paths["config"])
    assert config.horizon == 12
    study = ingest.build_study(config)
    assert len(study.scenario_set) == 3
    assert study.model.customers == 2.2e6
    # the files round-trip the generated matrices through %.12g
    want = ingest.synthetic_days(seed=1, n_days=3, horizon=12)
    for got, matrix in zip(ingest.load_inputs(config), want):
        np.testing.assert_allclose(got, matrix, rtol=1e-11, atol=1e-15)


def test_inputs_with_a_byte_order_mark_load_the_same(tmp_path):
    # spreadsheets' "CSV UTF-8" export starts each file with a byte-order mark
    paths = ingest.write_synthetic_dataset(tmp_path / "plain", n_days=3, horizon=4)
    (tmp_path / "bom").mkdir()
    for name in ("prices", "load", "solar"):
        text = Path(paths[name]).read_text(encoding="utf-8")
        (tmp_path / "bom" / f"{name}.csv").write_text(text, encoding="utf-8-sig")
        assert (tmp_path / "bom" / f"{name}.csv").read_bytes().startswith(b"\xef\xbb\xbf")
    plain = ingest.load_config(paths["config"])
    bom = replace(plain, **{attr: str(tmp_path / "bom" / Path(getattr(plain, attr)).name)
                            for attr in ("prices_path", "load_path", "solar_path")})
    for got, want in zip(ingest.load_inputs(bom), ingest.load_inputs(plain)):
        np.testing.assert_array_equal(got, want)


def test_write_synthetic_dataset_independent_mode(tmp_path):
    paths = ingest.write_synthetic_dataset(tmp_path, seed=0, n_days=3, correlated=False)
    config = ingest.load_config(paths["config"])
    assert config.scenario_mode == "product-of-marginals"
    study = ingest.build_study(config)
    assert len(study.scenario_set) == 9


def test_build_study_requires_input_paths():
    with pytest.raises(ingest.ConfigError, match="missing input"):
        ingest.build_study(ingest.StudyConfig())
