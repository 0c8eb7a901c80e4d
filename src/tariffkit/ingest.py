"""Data loading, study configuration, and the bundled synthetic dataset.

Input files are small delimited-text tables, one row per period
(``date,period_index,value``, header required), read as (K, N) day-by-period
matrices; the three files must list the same dates.  Wholesale prices arrive
in $/MWh and are converted to $/kWh on load; solar profiles are normalized
to per-kW-of-capacity units.  The study configuration is a two-level YAML
document whose defaults describe a NYC-like residential study; unknown keys
are hard errors.  Each entry is declared once, on its ``StudyConfig`` field:
the field's ``section.key`` and rule live in its metadata, and its
annotation names the type the file value is coerced to.  Reading and writing
study files, validation and the CLI number options
(``StudyConfig.check_field``) all work from those declarations.

Because the real price, sales, and solar extracts behind such studies are
not redistributable, a seeded generator produces a 20-day summer-like
synthetic dataset (diurnal shapes, correlated or independent price/load
draws) that the test suite and the example configs run against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace
from datetime import date, timedelta
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


class DataError(ValueError):
    """A data file failed schema or sanity validation."""


class ConfigError(ValueError):
    """The study configuration is malformed."""


# ---------------------------------------------------------------------------
# file loading


def _read_day_table(path, value_column: str,
                    nonnegative: str | None = None) -> tuple[list[str], np.ndarray]:
    """Parse a `date,period_index,<value_column>` file into (dates, values).

    ``dates`` are the file's days in ascending order and ``values`` is the
    read-only (K, N) matrix whose row k holds day k's periods 0..N-1; every
    day must cover the same N periods.  Values are signed unless
    ``nonnegative`` names the quantity (``"load"``, ``"solar"``); then a
    value below zero is a :class:`DataError` naming the file, line and value.
    """
    path = Path(path)
    days: dict[str, dict[int, float]] = {}
    # utf-8-sig drops the byte-order mark that spreadsheets' "CSV UTF-8" writes
    with open(path, newline="", encoding="utf-8-sig") as handle:
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
            if nonnegative is not None and value < 0.0:
                raise DataError(f"{path}:{lineno}: negative {nonnegative} value {row[2].strip()}")
            periods = days.setdefault(date, {})
            if period in periods:
                raise DataError(f"{path}:{lineno}: duplicate period {period} for {date}")
            periods[period] = value
    if not days:
        raise DataError(f"{path}: no data rows")
    horizons = {len(v) for v in days.values()}
    if len(horizons) != 1:
        raise DataError(f"{path}: days have differing period counts {sorted(horizons)}")
    n = horizons.pop()
    dates = sorted(days)
    for date in dates:
        periods = days[date]
        if sorted(periods) != list(range(n)):
            raise DataError(
                f"{path}: day {date} has periods {sorted(periods)}, expected 0..{n - 1}"
            )
    values = np.array([[days[date][k] for k in range(n)] for date in dates])
    values.setflags(write=False)
    return dates, values


def load_inputs(config: StudyConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the configured inputs as date-aligned read-only (K, N) matrices.

    Returns (prices in $/kWh, population load in kWh, solar in kWh per kW of
    capacity), row k of each being the k-th date in ascending order.  The
    load and solar files must list the price file's dates; the first date
    that differs is a DataError naming the file.
    """
    missing = [_declared(attr)["key"] for attr in _INPUT_PATHS if getattr(config, attr) is None]
    if missing:
        raise ConfigError(f"missing input paths: {', '.join(missing)}")
    dates, prices = _read_day_table(config.prices_path, "price_usd_per_mwh")
    profiles = []
    for path, kind in ((config.load_path, "load"), (config.solar_path, "solar")):
        got, values = _read_day_table(path, "kwh", nonnegative=kind)
        if got != dates:
            k, mine, theirs = next((k, a, b) for k, (a, b) in
                                   enumerate(zip(got + [None], dates + [None])) if a != b)
            raise DataError(f"{path}: day {k + 1} is {mine or 'missing'}, but in "
                            f"{config.prices_path} it is {theirs or 'missing'}")
        profiles.append(values)
    load, solar = profiles
    prices = prices * MWH_PER_KWH
    solar = solar / config.solar_system_kw
    prices.setflags(write=False)
    solar.setflags(write=False)
    return prices, load, solar


# ---------------------------------------------------------------------------
# study configuration


def _positive(x):
    return None if x > 0.0 else "must be positive"


def _nonnegative(x):
    return None if x >= 0.0 else "must be >= 0"


def _at_least_one(x):
    return None if x >= 1 else "must be >= 1"


def _slopes_down(x):
    return None if x < 0.0 else f"must be negative (demand slopes down), got {x}"


def _efficiency(x):
    return None if 0.0 < x <= 1.0 else "must be in (0, 1]"


def _one_of(choices):
    return lambda x: None if x in choices else f"must be one of {choices}"


def _entry(default, key: str, rule=None, *, allow_inf: bool = False, distinct: bool = False):
    """A study-file entry: the field's default, its ``section.key`` and its rule.

    A rule maps one value (one element, for a tuple field) to None when it
    holds and to a failure phrase when it does not.  Numbers must be finite
    unless ``allow_inf``.  A ``distinct`` entry lists the rows of a study
    table, so it must be a non-empty list without repeats.
    """
    return field(default=default, metadata={"key": key, "rule": rule, "allow_inf": allow_inf,
                                            "distinct": distinct})


@dataclass(frozen=True)
class StudyConfig:
    """Validated study parameters; defaults describe the nominal study.

    The nominal tariff, customer count, elasticity, and DER unit sizes
    default to a NYC-like residential setting: a 17.2 cents/kWh flat price
    with a 0.53 $/day connection charge over 2.2 million customers, a total
    daily own-price elasticity of -0.3, 5 kW-DC PV units, and the
    battery of ``storage.powerwall()``.
    """

    horizon: int = _entry(24, "study.horizon", _at_least_one)
    scenario_mode: str = _entry("paired-days", "study.scenario_mode", _one_of(SCENARIO_MODES))
    output_dir: str = _entry("out", "study.output_dir")
    customer_count: float = _entry(2.2e6, "customers.count", _positive)
    customer_classes: int = _entry(5, "customers.classes", _at_least_one)
    sigma_rule: str = _entry("linear", "customers.sigma_rule", _one_of(dm.SIGMA_RULES))
    class_counts: tuple[float, ...] | None = _entry(None, "customers.class_counts", _positive)
    elasticity: float = _entry(-0.3, "demand.elasticity", _slopes_down)
    slope_override: tuple[tuple[float, ...], ...] | None = _entry(None, "demand.slope_override")
    nominal_price: float = _entry(0.172, "nominal_tariff.price_usd_per_kwh", _positive)
    nominal_connection_charge: float = _entry(0.53, "nominal_tariff.connection_charge_usd_per_day")
    fixed_cost_mode: str = _entry("derived-from-nominal", "fixed_cost.mode",
                                  _one_of(FIXED_COST_MODES))
    fixed_cost_value: float | None = _entry(None, "fixed_cost.value_usd_per_day")
    family_kinds: tuple[str, ...] = _entry(tf.FAMILY_KINDS, "families.kinds",
                                           _one_of(tf.FAMILY_KINDS), distinct=True)
    fixed_connection_charges: tuple[float, ...] = _entry(
        (0.53,), "families.fixed_connection_charges_usd_per_day", distinct=True)
    pv_unit_kw: float = _entry(5.0, "der.pv_unit_kw", _positive)
    storage_capacity_kwh: float = _entry(st.POWERWALL_CAPACITY_KWH, "der.storage_capacity_kwh",
                                         _positive)
    # an infinite power is an unrated unit, the one number that may be infinite
    storage_power_kw: float = _entry(st.POWERWALL_RATE_KW, "der.storage_power_kw", _positive,
                                     allow_inf=True)
    storage_efficiency: float = _entry(st.POWERWALL_EFFICIENCY, "der.storage_efficiency",
                                       _efficiency)
    storage_per_pv_kwh_per_kw: float = _entry(0.5, "der.storage_per_pv_kwh_per_kw", _nonnegative)
    capacity_grid_kw: tuple[float, ...] = _entry(
        (0.0, 550e3, 1100e3, 1650e3, 2200e3), "grids.capacity_kw", _nonnegative, distinct=True)
    fixed_cost_grid: tuple[float, ...] | None = _entry(None, "grids.fixed_cost_usd_per_day",
                                                       distinct=True)
    fixed_cost_multipliers: tuple[float, ...] = _entry(
        (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75), "grids.fixed_cost_multipliers", distinct=True)
    prices_path: str | None = _entry(None, "inputs.prices")
    load_path: str | None = _entry(None, "inputs.load")
    solar_path: str | None = _entry(None, "inputs.solar")
    solar_system_kw: float = _entry(5.0, "inputs.solar_system_kw", _positive)

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("tuple") and not isinstance(value, (tuple, type(None))):
                raise ConfigError(f"{f.metadata['key']}: expected a tuple, got {value!r}")
            self.check_field(f.name, value)
        # cross-field checks
        if self.class_counts is not None:
            if len(self.class_counts) != self.customer_classes:
                raise ConfigError("customers.class_counts length must equal customers.classes")
            total = math.fsum(self.class_counts)
            if abs(total - self.customer_count) > 1e-6 * self.customer_count:
                raise ConfigError("customers.class_counts must sum to customers.count")
        if self.slope_override is not None:
            rows = self.slope_override
            if any(len(r) != len(rows) for r in rows) or len(rows) != self.horizon:
                raise ConfigError(
                    "demand.slope_override must be a square horizon-sized matrix"
                )
        if self.fixed_cost_mode == "explicit" and self.fixed_cost_value is None:
            raise ConfigError("fixed_cost.value_usd_per_day required when mode is explicit")
        labels = {_charge_label(c) for c in self.fixed_connection_charges}
        if len(labels) < len(self.fixed_connection_charges):
            raise ConfigError(
                "families.fixed_connection_charges_usd_per_day must differ in their first "
                "12 significant digits, which label a fixed-A family"
            )

    @staticmethod
    def check_field(name: str, value):
        """Return ``value`` if it keeps the declaration of field ``name``.

        A number must be finite (unless the field allows infinity) and keep
        the field's rule; a tuple is checked element by element, and as a
        whole when the field is ``distinct``.  None, an unset optional
        field, passes.  A failure raises ConfigError naming the field's
        ``section.key``.
        """
        if isinstance(value, tuple):
            for item in value:
                StudyConfig.check_field(name, item)
            meta = _declared(name)
            if meta["distinct"] and (not value or len(set(value)) < len(value)):
                raise ConfigError(f"{meta['key']} must be a non-empty list without repeats")
            return value
        if value is None:
            return value
        meta = _declared(name)
        if isinstance(value, float) and not (
            math.isfinite(value) or (math.isinf(value) and meta["allow_inf"])
        ):
            raise ConfigError(f"{meta['key']}: expected a finite number")
        failure = meta["rule"](value) if meta["rule"] else None
        if failure:
            raise ConfigError(f"{meta['key']} {failure}")
        return value


# the fields naming input files, resolved against the study file's directory
_INPUT_PATHS = ("prices_path", "load_path", "solar_path")


def _declared(name: str):
    """The declaration (key, rule, allow_inf) of StudyConfig field ``name``."""
    return StudyConfig.__dataclass_fields__[name].metadata


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {value!r}")
    return value


def _list(value, where: str, noun: str, element) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list of {noun}, got {value!r}")
    return tuple(element(v, where) for v in value)


def _numbers(value, where: str) -> tuple:
    return _list(value, where, "numbers", _number)


# a field's annotation, less any " | None", names the coercer of its file value
_COERCERS = {
    "int": _integer,
    "float": _number,
    "str": _string,
    "tuple[str, ...]": lambda value, where: _list(value, where, "strings", _string),
    "tuple[float, ...]": _numbers,
    "tuple[tuple[float, ...], ...]": lambda value, where: _list(value, where, "rows", _numbers),
}


def config_from_mapping(mapping: dict) -> StudyConfig:
    """Build a StudyConfig from a two-level mapping; unknown keys are errors."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config root must be a mapping, got {type(mapping).__name__}")
    by_key = {f.metadata["key"]: f for f in fields(StudyConfig)}
    sections = {key.split(".")[0] for key in by_key}
    kwargs = {}
    for section, entries in mapping.items():
        if section not in sections:
            raise ConfigError(f"unknown config section {section!r}")
        if entries is None:
            continue
        if not isinstance(entries, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in entries.items():
            where = f"{section}.{key}"
            if where not in by_key:
                raise ConfigError(f"unknown config key {where}")
            f = by_key[where]
            if value is None:
                if not f.type.endswith(" | None"):
                    raise ConfigError(f"{where}: value may not be null")
                kwargs[f.name] = None
            else:
                kwargs[f.name] = _COERCERS[f.type.removesuffix(" | None")](value, where)
    return StudyConfig(**kwargs)


def config_to_mapping(config: StudyConfig) -> dict:
    """Inverse of config_from_mapping, with sections and keys in field order."""
    out: dict[str, dict] = {}
    for f in fields(config):
        section, key = f.metadata["key"].split(".")
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
    for attr in _INPUT_PATHS:
        value = getattr(config, attr)
        if value is not None and not Path(value).is_absolute():
            resolved[attr] = str((path.parent / value).resolve())
    if resolved:
        config = replace(config, **resolved)
    return config


def write_config(config: StudyConfig, path) -> None:
    Path(path).write_text(
        yaml.safe_dump(config_to_mapping(config), sort_keys=False), encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# model and scenario construction


def nominal_tariff(config: StudyConfig) -> tf.TwoPartTariff:
    return tf.flat_tariff(config.nominal_connection_charge, config.nominal_price, config.horizon)


def build_model(config: StudyConfig, load: np.ndarray) -> dm.DemandModel:
    """Calibrate the demand system so mean-day sales match the (K, N) load.

    A configured slope override replaces the calibrated price response.
    """
    target = load.mean(axis=0)
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


def build_scenarios(config: StudyConfig, model: dm.DemandModel, prices: np.ndarray,
                    load: np.ndarray, solar: np.ndarray) -> ScenarioSet:
    """Turn date-aligned (K, N) inputs into a weighted scenario set.

    Paired mode keeps day k's price, load, and solar together with weight
    1/K; product mode couples the price marginal with the joint
    (load, solar) marginal as their product (``scenario.split_marginals``),
    which makes prices independent of local states by construction.  The
    product set has K^2 scenarios but stores the K days once, with the two
    weight vectors.  Day-k load enters as per-customer disturbances
    sigma_i * (load_k - mean load) / sigma_total, so the population
    disturbance reproduces the day's deviation exactly and larger customers
    absorb proportionally more of it.
    """
    k = len(prices)
    if not k or {m.shape for m in (prices, load, solar)} != {(k, config.horizon)}:
        raise DataError(
            f"inputs must be (days, {_declared('horizon')['key']}) matrices of one shape, "
            f"got prices {prices.shape}, load {load.shape}, solar {solar.shape}"
        )
    deviation = (load - load.mean(axis=0)) / model.sigma_total  # (K, N)
    built = ScenarioSet(
        np.full(k, 1.0 / k),
        prices,
        model.sigma[None, :, None] * deviation[:, None, :],
        solar_unit_matrix=solar,
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


def _charge_label(charge: float) -> str:
    """A fixed-A family's charge as its label prints it, at the tables' 12 digits."""
    return f"{charge:.12g}"


def configured_families(config: StudyConfig) -> list[tuple[str, tf.TariffFamily]]:
    """Instantiate (label, family) pairs; fixed-A kinds once per charge."""
    out = []
    for kind in config.family_kinds:
        if kind in (tf.FLAT_FIXED_A, tf.DYNAMIC_FIXED_A):
            for charge in config.fixed_connection_charges:
                label = kind if len(config.fixed_connection_charges) == 1 else \
                    f"{kind}@{_charge_label(charge)}"
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
    prices, load, solar = load_inputs(config)
    model = build_model(config, load)
    scenario_set = build_scenarios(config, model, prices, load, solar)
    fixed_cost = derive_fixed_cost(config, model, scenario_set)
    return Study(config=config, model=model, scenario_set=scenario_set, fixed_cost=fixed_cost)


def resolve_fixed_cost_grid(config: StudyConfig, fixed_cost: float) -> tuple[float, ...]:
    """The Pareto F grid: the configured one, else the multipliers times F.

    Each F is one row per family, so a grid with repeats (every multiplier
    at F = 0) is a ConfigError.
    """
    if config.fixed_cost_grid is not None:
        return config.fixed_cost_grid
    grid = tuple(m * fixed_cost for m in config.fixed_cost_multipliers)
    if len(set(grid)) < len(grid):
        raise ConfigError(
            f"grids.fixed_cost_multipliers give repeated F values at F = {fixed_cost!r}; "
            "set grids.fixed_cost_usd_per_day"
        )
    return grid


# ---------------------------------------------------------------------------
# synthetic dataset


def synthetic_days(
    seed: int = 0, n_days: int = 20, horizon: int = 24, *, correlated: bool = True
):
    """Generate (price, load, solar) day-by-period matrices with summer shapes.

    Each is a read-only (n_days, horizon) matrix, one row per day.  Prices
    are in $/kWh, load in population kWh per period (about 35 GWh a day),
    solar in kWh per kW of capacity.  In the correlated variant one
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

    prices, loads, solars = (np.empty((n_days, horizon)) for _ in range(3))
    for k in range(n_days):
        heat_price = rng.normal()
        heat_load = heat_price if correlated else rng.normal()
        clearness = float(np.clip(0.8 + 0.15 * rng.normal(), 0.35, 1.0))
        lam = price_base * (1.0 + 0.5 * max(heat_price, 0.0) * peak_shape)
        lam = lam * (1.0 + 0.05 * rng.normal(size=horizon))
        prices[k] = np.maximum(lam, 8.0) * MWH_PER_KWH
        total = 35e6 * (1.0 + 0.07 * heat_load + 0.015 * rng.normal())
        shape = load_shape * (1.0 + 0.02 * rng.normal(size=horizon))
        loads[k] = total * shape / shape.sum()
        solars[k] = clearness * clear_sky
    for matrix in (prices, loads, solars):
        matrix.setflags(write=False)
    return prices, loads, solars


def _write_day_table(path, days, value_column: str, scale: float = 1.0) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["date", "period_index", value_column])
        for d, vec in enumerate(days):
            day = (date(2021, 7, 1) + timedelta(days=d)).isoformat()
            for k, value in enumerate(vec):
                writer.writerow([day, k, f"{value * scale:.12g}"])


def write_synthetic_dataset(
    out_dir,
    seed: int = 0,
    n_days: int = 20,
    horizon: int = 24,
    *,
    correlated: bool = True,
) -> dict[str, str]:
    """Write prices.csv, load.csv, solar.csv and a ready study.yaml.

    The solar file records production of one reference system of the
    default ``inputs.solar_system_kw`` (loaders divide it back out).
    Day d is dated 2021-07-01 plus d days.  Returns the written paths.
    """
    # drawn first, so that a bad size raises before the directory exists
    prices, loads, solars = synthetic_days(seed, n_days, horizon, correlated=correlated)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "prices": out / "prices.csv",
        "load": out / "load.csv",
        "solar": out / "solar.csv",
        "config": out / "study.yaml",
    }
    _write_day_table(paths["prices"], prices, "price_usd_per_mwh", scale=1.0 / MWH_PER_KWH)
    _write_day_table(paths["load"], loads, "kwh")
    config = replace(
        StudyConfig(),
        horizon=horizon,
        prices_path="prices.csv",
        load_path="load.csv",
        solar_path="solar.csv",
        scenario_mode="paired-days" if correlated else "product-of-marginals",
    )
    _write_day_table(paths["solar"], solars * config.solar_system_kw, "kwh")
    write_config(config, paths["config"])
    return {name: str(p) for name, p in paths.items()}
