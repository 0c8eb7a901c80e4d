"""Data loading, study configuration, and the bundled synthetic dataset.

Input files are small delimited-text tables, one row per period
(``date,period_index,value``, header required).  Wholesale prices arrive in
$/MWh and are converted to $/kWh on load; solar profiles are normalized to
per-kW-of-capacity units.  The study configuration is a two-level YAML
document whose defaults describe a NYC-like residential study; unknown keys
are hard errors.

Because the real price, sales, and solar extracts behind such studies are
not redistributable, a seeded generator produces a 20-day summer-like
synthetic dataset (diurnal shapes, correlated or independent price/load
draws) that the test suite and the example configs run against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import yaml

from . import demand as dm
from . import storage as st
from . import tariff as tf
from .scenario import ScenarioSet, split_marginals

MWH_PER_KWH = 1e-3

SCENARIO_MODES = ("paired-days", "product-of-marginals")
FIXED_COST_MODES = ("derived-from-nominal", "explicit")
ALLOCATION_RULES = ("largest-first",)


class DataError(ValueError):
    """A data file failed schema or sanity validation."""


class ConfigError(ValueError):
    """The study configuration is malformed."""


# ---------------------------------------------------------------------------
# file loading


def _read_day_table(path, value_column: str) -> dict[str, dict[int, float]]:
    path = Path(path)
    days: dict[str, dict[int, float]] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        expected = ["date", "period_index", value_column]
        if header is None or [h.strip() for h in header] != expected:
            raise DataError(f"{path}: header must be {','.join(expected)!r}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            date = row[0].strip()
            try:
                period = int(row[1])
            except ValueError:
                raise DataError(f"{path}:{lineno}: period_index {row[1]!r} is not an integer")
            try:
                value = float(row[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: value {row[2]!r} is not a number")
            if not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: non-finite value")
            periods = days.setdefault(date, {})
            if period in periods:
                raise DataError(f"{path}:{lineno}: duplicate period {period} for {date}")
            periods[period] = value
    if not days:
        raise DataError(f"{path}: no data rows")
    return days


def _to_day_vectors(days: dict[str, dict[int, float]], path) -> list[np.ndarray]:
    horizons = {len(v) for v in days.values()}
    if len(horizons) != 1:
        raise DataError(f"{path}: days have differing period counts {sorted(horizons)}")
    n = horizons.pop()
    vectors = []
    for date in sorted(days):
        periods = days[date]
        if sorted(periods) != list(range(n)):
            raise DataError(
                f"{path}: day {date} has periods {sorted(periods)}, expected 0..{n - 1}"
            )
        vec = np.array([periods[k] for k in range(n)])
        vec.setflags(write=False)
        vectors.append(vec)
    return vectors


def load_prices(path) -> list[np.ndarray]:
    """Read a `date,period_index,price_usd_per_mwh` file as $/kWh day vectors.

    Days are returned in ascending date order; every day must cover periods
    0..N-1 for a common N.
    """
    days = _read_day_table(path, "price_usd_per_mwh")
    return [MWH_PER_KWH * vec for vec in _to_day_vectors(days, path)]


def load_profile(path, kind: str, *, system_kw: float = 1.0) -> list[np.ndarray]:
    """Read a `date,period_index,kwh` file as per-day kWh vectors.

    ``kind`` is "load" (population consumption) or "solar" (production of a
    reference system, divided by ``system_kw`` into per-kW units).  Solar
    values must be nonnegative.
    """
    if kind not in ("load", "solar"):
        raise ValueError(f"profile kind must be 'load' or 'solar', got {kind!r}")
    days = _to_day_vectors(_read_day_table(path, "kwh"), path)
    if kind == "solar":
        if system_kw <= 0.0:
            raise DataError(f"{path}: solar system size must be positive, got {system_kw}")
        for vec in days:
            if vec.min() < 0.0:
                raise DataError(f"{path}: negative solar production")
        days = [vec / system_kw for vec in days]
    return days


# ---------------------------------------------------------------------------
# study configuration


@dataclass(frozen=True)
class StudyConfig:
    """Validated study parameters; defaults describe the nominal study.

    The nominal tariff, customer count, elasticity, and DER unit sizes
    default to a NYC-like residential setting: a 17.2 cents/kWh flat price
    with a 0.53 $/day connection charge over 2.2 million customers, a total
    daily own-price elasticity of -0.3, 5 kW-DC PV units, and a
    6.4 kWh / 3.3 kW / 0.96 round-trip battery.
    """

    horizon: int = 24
    scenario_mode: str = "paired-days"
    output_dir: str = "out"
    customer_count: float = 2.2e6
    customer_classes: int = 5
    sigma_rule: str = "linear"
    class_counts: tuple[float, ...] | None = None
    elasticity: float = -0.3
    slope_override: tuple[tuple[float, ...], ...] | None = None
    nominal_price: float = 0.172
    nominal_connection_charge: float = 0.53
    fixed_cost_mode: str = "derived-from-nominal"
    fixed_cost_value: float | None = None
    family_kinds: tuple[str, ...] = tf.FAMILY_KINDS
    fixed_connection_charges: tuple[float, ...] = (0.53,)
    pv_unit_kw: float = 5.0
    storage_capacity_kwh: float = 6.4
    storage_power_kw: float = 3.3
    storage_efficiency: float = 0.96
    storage_per_pv_kwh_per_kw: float = 0.5
    allocation: str = "largest-first"
    capacity_grid_kw: tuple[float, ...] = (0.0, 550e3, 1100e3, 1650e3, 2200e3)
    fixed_cost_grid: tuple[float, ...] | None = None
    fixed_cost_multipliers: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)
    prices_path: str | None = None
    load_path: str | None = None
    solar_path: str | None = None
    solar_system_kw: float = 5.0

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("study.horizon must be >= 1")
        if self.scenario_mode not in SCENARIO_MODES:
            raise ConfigError(f"study.scenario_mode must be one of {SCENARIO_MODES}")
        if self.customer_count <= 0.0:
            raise ConfigError("customers.count must be positive")
        if self.customer_classes < 1:
            raise ConfigError("customers.classes must be >= 1")
        if self.class_counts is not None:
            if len(self.class_counts) != self.customer_classes:
                raise ConfigError("customers.class_counts length must equal customers.classes")
            if any(c <= 0.0 for c in self.class_counts):
                raise ConfigError("customers.class_counts must be positive")
            total = math.fsum(self.class_counts)
            if abs(total - self.customer_count) > 1e-6 * self.customer_count:
                raise ConfigError("customers.class_counts must sum to customers.count")
        if self.elasticity >= 0.0:
            raise ConfigError(
                f"demand.elasticity must be negative (demand slopes down), got {self.elasticity}"
            )
        if self.slope_override is not None:
            rows = self.slope_override
            if any(len(r) != len(rows) for r in rows) or len(rows) != self.horizon:
                raise ConfigError(
                    "demand.slope_override must be a square horizon-sized matrix"
                )
        if self.nominal_price <= 0.0:
            raise ConfigError("nominal_tariff.price_usd_per_kwh must be positive")
        if self.fixed_cost_mode not in FIXED_COST_MODES:
            raise ConfigError(f"fixed_cost.mode must be one of {FIXED_COST_MODES}")
        if self.fixed_cost_mode == "explicit" and self.fixed_cost_value is None:
            raise ConfigError("fixed_cost.value_usd_per_day required when mode is explicit")
        for kind in self.family_kinds:
            if kind not in tf.FAMILY_KINDS:
                raise ConfigError(f"families.kinds: unknown kind {kind!r}")
        if not self.fixed_connection_charges:
            raise ConfigError("families.fixed_connection_charges_usd_per_day must be non-empty")
        for name in (
            "pv_unit_kw",
            "storage_capacity_kwh",
            "storage_power_kw",
            "storage_per_pv_kwh_per_kw",
            "solar_system_kw",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("pv_unit_kw", "storage_capacity_kwh", "storage_power_kw"):
            if getattr(self, name) == 0.0:
                raise ConfigError(f"der.{name} must be positive")
        if not 0.0 < self.storage_efficiency <= 1.0:
            raise ConfigError("der.storage_efficiency must be in (0, 1]")
        if self.allocation not in ALLOCATION_RULES:
            raise ConfigError(f"der.allocation must be one of {ALLOCATION_RULES}")
        if any(c < 0.0 for c in self.capacity_grid_kw):
            raise ConfigError("grids.capacity_kw must be >= 0")


# maps config-file (section, key) entries onto StudyConfig attributes
_CONFIG_SCHEMA: dict[str, dict[str, str]] = {
    "study": {
        "horizon": "horizon",
        "scenario_mode": "scenario_mode",
        "output_dir": "output_dir",
    },
    "customers": {
        "count": "customer_count",
        "classes": "customer_classes",
        "sigma_rule": "sigma_rule",
        "class_counts": "class_counts",
    },
    "demand": {"elasticity": "elasticity", "slope_override": "slope_override"},
    "nominal_tariff": {
        "price_usd_per_kwh": "nominal_price",
        "connection_charge_usd_per_day": "nominal_connection_charge",
    },
    "fixed_cost": {"mode": "fixed_cost_mode", "value_usd_per_day": "fixed_cost_value"},
    "families": {
        "kinds": "family_kinds",
        "fixed_connection_charges_usd_per_day": "fixed_connection_charges",
    },
    "der": {
        "pv_unit_kw": "pv_unit_kw",
        "storage_capacity_kwh": "storage_capacity_kwh",
        "storage_power_kw": "storage_power_kw",
        "storage_efficiency": "storage_efficiency",
        "storage_per_pv_kwh_per_kw": "storage_per_pv_kwh_per_kw",
        "allocation": "allocation",
    },
    "grids": {
        "capacity_kw": "capacity_grid_kw",
        "fixed_cost_usd_per_day": "fixed_cost_grid",
        "fixed_cost_multipliers": "fixed_cost_multipliers",
    },
    "inputs": {
        "prices": "prices_path",
        "load": "load_path",
        "solar": "solar_path",
        "solar_system_kw": "solar_system_kw",
    },
}

_INT_FIELDS = {"horizon", "customer_classes"}
_STR_FIELDS = {
    "scenario_mode",
    "output_dir",
    "sigma_rule",
    "fixed_cost_mode",
    "allocation",
    "prices_path",
    "load_path",
    "solar_path",
}
_STR_TUPLE_FIELDS = {"family_kinds"}
_NUMBER_TUPLE_FIELDS = {"class_counts", "fixed_connection_charges", "capacity_grid_kw",
                        "fixed_cost_grid", "fixed_cost_multipliers"}
_OPTIONAL_FIELDS = {"class_counts", "fixed_cost_value", "fixed_cost_grid",
                    "prices_path", "load_path", "solar_path", "slope_override"}


def _number(value, where: str, allow_inf: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    number = float(value)
    if math.isnan(number) or (math.isinf(number) and not allow_inf):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _coerce(attr: str, value, where: str):
    if value is None:
        if attr in _OPTIONAL_FIELDS:
            return None
        raise ConfigError(f"{where}: value may not be null")
    if attr == "slope_override":
        if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
            raise ConfigError(f"{where}: expected a list of rows, got {value!r}")
        return tuple(tuple(_number(v, where) for v in row) for row in value)
    if attr in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if attr in _STR_FIELDS:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if attr in _STR_TUPLE_FIELDS:
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ConfigError(f"{where}: expected a list of strings, got {value!r}")
        return tuple(value)
    if attr in _NUMBER_TUPLE_FIELDS:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list of numbers, got {value!r}")
        return tuple(_number(v, where) for v in value)
    # an infinite storage power is an unrated unit, the one number that may be infinite
    return _number(value, where, allow_inf=attr == "storage_power_kw")


def config_from_mapping(mapping: dict) -> StudyConfig:
    """Build a StudyConfig from a two-level mapping; unknown keys are errors."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config root must be a mapping, got {type(mapping).__name__}")
    kwargs = {}
    for section, entries in mapping.items():
        if section not in _CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if entries is None:
            continue
        if not isinstance(entries, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        schema = _CONFIG_SCHEMA[section]
        for key, value in entries.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {section}.{key}")
            attr = schema[key]
            kwargs[attr] = _coerce(attr, value, f"{section}.{key}")
    return StudyConfig(**kwargs)


def config_to_mapping(config: StudyConfig) -> dict:
    """Inverse of config_from_mapping, with sections and keys in schema order."""
    out: dict[str, dict] = {}
    by_attr = {attr: (section, key) for section, entries in _CONFIG_SCHEMA.items()
               for key, attr in entries.items()}
    for f in fields(config):
        section, key = by_attr[f.name]
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            value = [list(v) if isinstance(v, tuple) else v for v in value]
        out.setdefault(section, {})[key] = value
    return out


def load_config(path) -> StudyConfig:
    """Parse a YAML study file; input paths become absolute relative to it."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        mapping = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    config = config_from_mapping(mapping or {})
    resolved = {}
    for attr in ("prices_path", "load_path", "solar_path"):
        value = getattr(config, attr)
        if value is not None and not Path(value).is_absolute():
            resolved[attr] = str((path.parent / value).resolve())
    if resolved:
        config = replace_config(config, **resolved)
    return config


def replace_config(config: StudyConfig, **changes) -> StudyConfig:
    values = {f.name: getattr(config, f.name) for f in fields(config)}
    values.update(changes)
    return StudyConfig(**values)


def write_config(config: StudyConfig, path) -> None:
    Path(path).write_text(
        yaml.safe_dump(config_to_mapping(config), sort_keys=False), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# model and scenario construction


def nominal_tariff(config: StudyConfig) -> tf.TwoPartTariff:
    return tf.flat_tariff(config.nominal_connection_charge, config.nominal_price, config.horizon)


def build_model(config: StudyConfig, load_days) -> dm.DemandModel:
    """Calibrate the demand system so mean-day sales match the load data.

    A configured slope override replaces the calibrated price response.
    """
    target = np.mean(np.stack(load_days), axis=0)
    if target.size != config.horizon:
        raise DataError(
            f"load data has {target.size} periods per day, config expects {config.horizon}"
        )
    return dm.calibrate(
        target_sales=target,
        target_price=np.full(config.horizon, config.nominal_price),
        elasticity=config.elasticity,
        n_classes=config.customer_classes,
        sigma_rule=config.sigma_rule,
        total_customers=config.customer_count,
        class_counts=config.class_counts,
        slope=config.slope_override,
    )


def build_scenarios(
    config: StudyConfig, prices, load_days, solar_days, *, model: dm.DemandModel | None = None
) -> ScenarioSet:
    """Turn per-day inputs into a weighted scenario set.

    Paired mode keeps day k's price, load, and solar together with weight
    1/K; product mode crosses the price marginal with the joint
    (load, solar) marginal, which makes prices independent of local states
    by construction.  Day-k load enters as per-customer disturbances
    sigma_i * (load_k - mean load) / sigma_total, so the population
    disturbance reproduces the day's deviation exactly and larger customers
    absorb proportionally more of it.
    """
    k = len(prices)
    if k < 1:
        raise DataError("need at least one day of data")
    if len(load_days) != k or len(solar_days) != k:
        raise DataError(
            f"paired construction needs equal day counts, got prices={k}, "
            f"load={len(load_days)}, solar={len(solar_days)}"
        )
    if model is None:
        model = build_model(config, load_days)
    if {vec.size for vec in (*prices, *load_days, *solar_days)} != {config.horizon}:
        raise DataError("input day length does not match study.horizon")
    loads = np.stack(load_days)
    deviation = (loads - np.mean(loads, axis=0)) / model.sigma_total  # (K, N)
    built = ScenarioSet.from_tensors(
        np.full(k, 1.0 / k),
        np.stack(prices),
        model.sigma[None, :, None] * deviation[:, None, :],
        np.zeros((k, model.n_classes, config.horizon)),
        np.zeros((k, config.horizon)),
        np.stack(solar_days),
    )
    if config.scenario_mode == "product-of-marginals":
        return split_marginals(built)
    return built


def derive_fixed_cost(config: StudyConfig, model: dm.DemandModel, scenario_set: ScenarioSet) -> float:
    """The study's required revenue F.

    Explicit mode returns the configured dollar value; derived mode returns
    the nominal tariff's expected retailer surplus with no DERs, making the
    nominal tariff revenue-adequate by construction.
    """
    if config.fixed_cost_mode == "explicit":
        return float(config.fixed_cost_value)
    return tf.expected_retailer_surplus(nominal_tariff(config), model, scenario_set, tf.no_der())


def configured_families(config: StudyConfig) -> list[tuple[str, tf.TariffFamily]]:
    """Instantiate (label, family) pairs; fixed-A kinds once per charge."""
    out = []
    for kind in config.family_kinds:
        if kind in (tf.FLAT_FIXED_A, tf.DYNAMIC_FIXED_A):
            for charge in config.fixed_connection_charges:
                label = kind if len(config.fixed_connection_charges) == 1 else f"{kind}@{charge:g}"
                out.append((label, tf.TariffFamily(kind=kind, fixed_connection_charge=charge)))
        else:
            out.append((kind, tf.TariffFamily(kind=kind)))
    return out


def storage_unit_spec(config: StudyConfig) -> st.StorageSpec:
    """The configured storage unit; a period lasts 24 / horizon hours."""
    return st.StorageSpec(
        capacity_kwh=config.storage_capacity_kwh,
        charge_rate_kw=config.storage_power_kw,
        discharge_rate_kw=config.storage_power_kw,
        efficiency=config.storage_efficiency,
        period_hours=24.0 / config.horizon,
    )


@dataclass(frozen=True)
class Study:
    """Everything a subcommand needs, loaded and built once."""

    config: StudyConfig
    model: dm.DemandModel
    scenario_set: ScenarioSet
    fixed_cost: float


def build_study(config: StudyConfig) -> Study:
    """Load the configured inputs and assemble model, scenarios, and F."""
    missing = [name for name, attr in
               (("inputs.prices", "prices_path"), ("inputs.load", "load_path"),
                ("inputs.solar", "solar_path"))
               if getattr(config, attr) is None]
    if missing:
        raise ConfigError(f"missing input paths: {', '.join(missing)}")
    prices = load_prices(config.prices_path)
    load_days = load_profile(config.load_path, "load")
    solar_days = load_profile(config.solar_path, "solar", system_kw=config.solar_system_kw)
    model = build_model(config, load_days)
    scenario_set = build_scenarios(config, prices, load_days, solar_days, model=model)
    fixed_cost = derive_fixed_cost(config, model, scenario_set)
    return Study(config=config, model=model, scenario_set=scenario_set, fixed_cost=fixed_cost)


def resolve_fixed_cost_grid(config: StudyConfig, fixed_cost: float) -> tuple[float, ...]:
    if config.fixed_cost_grid is not None:
        return config.fixed_cost_grid
    return tuple(m * fixed_cost for m in config.fixed_cost_multipliers)


# ---------------------------------------------------------------------------
# synthetic dataset


def synthetic_days(
    seed: int = 0, n_days: int = 20, horizon: int = 24, *, correlated: bool = True
):
    """Generate (price, load, solar) day vectors with summer diurnal shapes.

    Prices are in $/kWh, load in population kWh per period (about 35 GWh a
    day), solar in kWh per kW of capacity.  In the correlated variant one
    heat index drives both the price peak and the load level; the
    independent variant draws them from separate streams.  Deterministic in
    (seed, n_days, horizon, correlated).
    """
    if n_days < 1 or horizon < 1:
        raise ValueError("need n_days >= 1 and horizon >= 1")
    rng = np.random.default_rng(seed)
    hours = np.arange(horizon) * (24.0 / horizon)

    # diurnal base shapes
    price_base = 25.0 + 18.0 * np.exp(-0.5 * ((hours - 18.0) / 4.0) ** 2) + 6.0 * np.exp(
        -0.5 * ((hours - 8.5) / 2.5) ** 2
    )  # $/MWh
    peak_shape = np.exp(-0.5 * ((hours - 17.0) / 3.0) ** 2)
    load_shape = (
        1.0
        + 0.55 * np.exp(-0.5 * ((hours - 18.5) / 3.5) ** 2)
        + 0.18 * np.exp(-0.5 * ((hours - 9.0) / 3.0) ** 2)
        - 0.35 * np.exp(-0.5 * ((hours - 4.0) / 3.0) ** 2)
    )
    load_shape = load_shape / load_shape.sum()
    daylight = (hours >= 6.0) & (hours <= 19.0)
    clear_sky = np.where(
        daylight, 0.72 * np.sin(np.pi * (hours - 6.0) / 13.0) ** 2, 0.0
    ) * (24.0 / horizon)

    prices, loads, solars = [], [], []
    for _ in range(n_days):
        heat_price = rng.normal()
        heat_load = heat_price if correlated else rng.normal()
        clearness = float(np.clip(0.8 + 0.15 * rng.normal(), 0.35, 1.0))
        lam = price_base * (1.0 + 0.5 * max(heat_price, 0.0) * peak_shape)
        lam = lam * (1.0 + 0.05 * rng.normal(size=horizon))
        lam = np.maximum(lam, 8.0) * MWH_PER_KWH
        total = 35e6 * (1.0 + 0.07 * heat_load + 0.015 * rng.normal())
        shape = load_shape * (1.0 + 0.02 * rng.normal(size=horizon))
        load = total * shape / shape.sum()
        solar = clearness * clear_sky
        for vec in (lam, load, solar):
            vec.setflags(write=False)
        prices.append(lam)
        loads.append(load)
        solars.append(solar)
    return prices, loads, solars


def _write_day_table(path, days, value_column: str, scale: float = 1.0) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "period_index", value_column])
        for d, vec in enumerate(days):
            date = f"2021-07-{d + 1:02d}" if d < 31 else f"2021-08-{d - 30:02d}"
            for k, value in enumerate(vec):
                writer.writerow([date, k, f"{value * scale:.12g}"])


def write_synthetic_dataset(
    out_dir,
    seed: int = 0,
    n_days: int = 20,
    horizon: int = 24,
    *,
    correlated: bool = True,
    system_kw: float = 5.0,
) -> dict[str, str]:
    """Write prices.csv, load.csv, solar.csv and a ready study.yaml.

    The solar file records production of one reference ``system_kw`` system
    (loaders divide it back out).  Returns the written paths.
    """
    if n_days > 62:
        raise ValueError("synthetic calendar supports at most 62 days")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prices, loads, solars = synthetic_days(seed, n_days, horizon, correlated=correlated)
    paths = {
        "prices": out / "prices.csv",
        "load": out / "load.csv",
        "solar": out / "solar.csv",
        "config": out / "study.yaml",
    }
    _write_day_table(paths["prices"], prices, "price_usd_per_mwh", scale=1.0 / MWH_PER_KWH)
    _write_day_table(paths["load"], loads, "kwh")
    _write_day_table(paths["solar"], [vec * system_kw for vec in solars], "kwh")
    config = replace_config(
        StudyConfig(),
        horizon=horizon,
        prices_path="prices.csv",
        load_path="load.csv",
        solar_path="solar.csv",
        solar_system_kw=system_kw,
        scenario_mode="paired-days" if correlated else "product-of-marginals",
    )
    write_config(config, paths["config"])
    return {name: str(p) for name, p in paths.items()}
