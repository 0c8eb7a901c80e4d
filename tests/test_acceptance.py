"""End-to-end acceptance checks, one numbered criterion per test.

Each test drives the toolkit at the shipped study scale (20 synthetic
days, 24 periods, five customer classes) and asserts the documented
tolerances.  The terminal summary hook in conftest.py prints one
PASS/FAIL line per criterion at the end of the run.
"""

import csv
import math
import time

import numpy as np

from tariffkit import cli
from tariffkit import demand as dm
from tariffkit import ingest
from tariffkit import oracle
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf
from tariffkit import welfare as wf


def _read_csv(path):
    """(rows as dicts, comment lines) of one toolkit output table."""
    comments = []
    with open(path, newline="") as fh:
        data = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                data.append(line)
    rows = list(csv.DictReader(data))
    return rows, comments


def test_criterion_01_decentralized_prices_and_charge(independent_study):
    study = independent_study
    case = tf.no_der()
    lam_bar = sc.expect_price(study.scenario_set)

    t0 = time.perf_counter()
    tariff = tf.optimal_decentralized(
        study.model, study.scenario_set, case, study.fixed_cost
    )
    # closed form: M A* = F + tr cov(lambda, D_agg(lam_bar, .))
    demand_cov = sc.cov_trace(
        study.scenario_set,
        lambda s: dm.aggregate_demand(study.model, lam_bar, s.disturbances),
        lambda s: s.prices,
    )
    a_closed = (study.fixed_cost + demand_cov) / study.model.customers
    a_root = oracle.connection_charge_root_find(
        tariff.prices, study.model, study.scenario_set, case, study.fixed_cost
    )
    elapsed = time.perf_counter() - t0

    assert np.max(np.abs(tariff.prices - lam_bar)) <= 1e-12
    scale = max(1.0, abs(tariff.connection_charge))
    assert abs(tariff.connection_charge - a_closed) <= 1e-8 * scale
    assert abs(tariff.connection_charge - a_root) <= 1e-8 * scale
    assert elapsed < 5.0


def test_criterion_02_centralized_offset_by_differencing(study):
    config = study.config
    spec = ingest.storage_unit_spec(config)
    capacity_kw = 1.1e6
    units_total = config.storage_per_pv_kwh_per_kw * capacity_kw / spec.capacity_kwh
    swept = wf.with_pv_capacity(study.scenario_set, retailer_kw=capacity_kw)

    t0 = time.perf_counter()
    base = tf.optimal_centralized(
        study.model, study.scenario_set, tf.centralized_case(spec, 0.0), study.fixed_cost
    )
    integrated = tf.optimal_centralized(
        study.model, swept, tf.centralized_case(spec, units_total), study.fixed_cost
    )
    elapsed = time.perf_counter() - t0

    # linear demand: the price correction vanishes identically
    lam_bar = sc.expect_price(study.scenario_set)
    assert np.array_equal(base.prices, lam_bar)
    assert np.array_equal(integrated.prices, lam_bar)

    unit_value, _ = st.arbitrage_value(spec, lam_bar)
    solar_value = math.fsum(
        s.probability * float(s.prices @ s.renewable_retailer) for s in swept
    )
    drop_closed = (units_total * unit_value + solar_value) / study.model.customers
    drop_observed = base.connection_charge - integrated.connection_charge
    assert abs(drop_observed - drop_closed) <= 1e-9
    assert elapsed < 5.0


def test_criterion_03_welfare_identities_and_f_invariance(study):
    config = study.config
    spec = ingest.storage_unit_spec(config)
    owner_kw, _ = wf.allocate_pv(study.model, 1.1e6, config.pv_unit_kw)
    units = config.storage_per_pv_kwh_per_kw * owner_kw / spec.capacity_kwh
    dec_set = wf.with_pv_capacity(study.scenario_set, customer_kw=owner_kw)
    cen_set = wf.with_pv_capacity(study.scenario_set, retailer_kw=1.1e6)
    fixtures = [
        (study.scenario_set, tf.no_der()),
        (dec_set, tf.decentralized_case(spec, units)),
        (cen_set, tf.centralized_case(spec, float(units.sum()))),
    ]
    for sset, case in fixtures:
        report = wf.welfare_identities(study.model, sset, case, study.fixed_cost)
        assert report.passed
        assert report.identity_rel_error <= 1e-8
        assert report.consumer_identity_rel_error <= 1e-8

    # welfare at the family optimum does not move with the revenue target
    sset, case = fixtures[1]
    welfare_by_f = []
    for multiplier in (0.5, 0.75, 1.0, 1.25, 1.5):
        tariff = tf.optimal_two_part(study.model, sset, case, multiplier * study.fixed_cost)
        welfare_by_f.append(wf.evaluate(tariff, study.model, sset, case).social_welfare)
    spread = max(welfare_by_f) - min(welfare_by_f)
    assert spread <= 1e-9 * abs(welfare_by_f[0])


def test_criterion_04_planner_bound(independent_study):
    study = independent_study
    spec = ingest.storage_unit_spec(study.config)
    owner_kw, _ = wf.allocate_pv(study.model, 1.1e6, study.config.pv_unit_kw)
    units = study.config.storage_per_pv_kwh_per_kw * owner_kw / spec.capacity_kwh
    case = tf.decentralized_case(spec, units)
    swept = wf.with_pv_capacity(study.scenario_set, customer_kw=owner_kw)

    bound = wf.planner_bound(study.model, swept, case)
    optimum = tf.optimal_decentralized(study.model, swept, case, study.fixed_cost)
    attained = wf.evaluate(optimum, study.model, swept, case).social_welfare
    assert abs(bound - attained) <= 1e-8 * abs(bound)

    rng = np.random.default_rng(20210701)
    for _ in range(10):
        tariff = tf.TwoPartTariff(
            float(rng.uniform(-1.0, 1.0)),
            rng.uniform(0.01, 0.4, swept.horizon),
        )
        other = wf.evaluate(tariff, study.model, swept, case).social_welfare
        assert bound - other >= -1e-9


def test_criterion_05_storage_routes_agree():
    t0 = time.perf_counter()
    grid_steps = 10
    rng = np.random.default_rng(64)
    for _ in range(50):
        horizon = int(rng.integers(2, 5))
        spec = st.idealized(float(rng.uniform(0.5, 8.0)))
        prices = rng.uniform(0.0, 1.0, horizon)
        lp_value, _ = st.arbitrage_value(spec, prices)
        dp_value = oracle.storage_brute_force(spec, prices, grid_steps=grid_steps)
        assert lp_value >= dp_value - 1e-12
        gap_cap = spec.capacity_kwh * float(np.abs(prices).sum()) / grid_steps
        assert lp_value - dp_value <= gap_cap + 1e-12

    # buy the whole unit in the trough, sell at the peak
    spec = st.idealized(1.0)
    prices = np.array([1.0, 3.0, 2.0])
    lp_value, _ = st.arbitrage_value(spec, prices)
    assert lp_value == 2.0
    assert oracle.storage_brute_force(spec, prices, grid_steps=grid_steps) == 2.0
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_pareto_slope_and_flat_points(synthetic_dir, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    assert cli.main(["pareto", str(synthetic_dir / "study.yaml")]) == 0
    rows, _ = _read_csv(tmp_path / "pareto.csv")

    optimal = [r for r in rows if r["family"] == "optimal-two-part"]
    assert len(optimal) == 7 and all(r["reason"] == "" for r in optimal)
    rs_gain = np.array([float(r["rs_gain"]) for r in optimal])
    cs_gain = np.array([float(r["cs_gain"]) for r in optimal])
    slope = np.polyfit(rs_gain, cs_gain, 1)[0]
    assert abs(slope - (-1.0)) <= 1e-6

    cs_optimal_by_f = {r["fixed_cost_usd_per_day"]: float(r["cs_gain"]) for r in optimal}
    flat = [r for r in rows if r["family"].startswith("flat") and r["reason"] == ""]
    assert flat
    for row in flat:
        deficit = cs_optimal_by_f[row["fixed_cost_usd_per_day"]] - float(row["cs_gain"])
        assert deficit >= -1e-9


def test_criterion_07_revenue_adequacy_resimulated(study, anchors):
    config = study.config
    families = ingest.configured_families(config)
    grid = ingest.resolve_fixed_cost_grid(config, study.fixed_cost)
    checked = 0

    def assert_adequate(resim_revenue, fixed_cost):
        nonlocal checked
        assert abs(resim_revenue - fixed_cost) <= 1e-7 * max(1.0, abs(fixed_cost))
        checked += 1

    for _, family in families:
        front = wf.pareto_front(
            family, study.model, study.scenario_set, tf.no_der(), grid, anchors
        )
        for point in front.points:
            report = oracle.settlement_resim(
                point.tariff, study.model, study.scenario_set, tf.no_der()
            )
            assert_adequate(report.retailer_surplus, point.fixed_cost)

    spec = ingest.storage_unit_spec(config)
    for mode in (tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED):
        cells = wf.der_sweep(
            [family for _, family in families],
            study.model,
            study.scenario_set,
            mode,
            config.capacity_grid_kw,
            config.storage_per_pv_kwh_per_kw,
            study.fixed_cost,
            anchors,
            pv_unit_kw=config.pv_unit_kw,
            storage_unit=spec,
        )
        for cell in cells:
            if not cell.feasible:
                continue
            swept, case = wf.sweep_fixture(
                study.model, study.scenario_set, mode, cell.capacity_kw,
                config.storage_per_pv_kwh_per_kw, spec, config.pv_unit_kw,
            )
            report = oracle.settlement_resim(cell.tariff, study.model, swept, case)
            assert_adequate(report.retailer_surplus, study.fixed_cost)

    by_label = dict(families)
    for family in (by_label["optimal-two-part"], by_label["flat-fixed-A"]):
        cells = wf.cross_subsidy(
            family,
            study.model,
            study.scenario_set,
            config.capacity_grid_kw,
            study.fixed_cost,
            pv_unit_kw=config.pv_unit_kw,
        )
        for cell in cells:
            if not cell.feasible:
                continue
            owner_kw, _ = wf.allocate_pv(study.model, cell.capacity_kw, config.pv_unit_kw)
            swept = wf.with_pv_capacity(study.scenario_set, customer_kw=owner_kw)
            nm = oracle.settlement_resim(
                cell.net_metering_tariff,
                study.model,
                swept,
                tf.IntegrationCase(mode=tf.MODE_DECENTRALIZED),
            )
            assert_adequate(nm.retailer_surplus, study.fixed_cost)
            # separated settlement credits generation at the expected price,
            # which adds the constant tr cov(lambda, r) to expected revenue
            generation_cov = sc.cov_trace(
                swept,
                lambda s: s.renewable_customer.sum(axis=0),
                lambda s: s.prices,
            )
            sep = oracle.settlement_resim(
                cell.separated_tariff, study.model, swept, tf.no_der()
            )
            assert_adequate(sep.retailer_surplus + generation_cov, study.fixed_cost)

    assert checked >= 60


def test_criterion_08_cross_subsidy_shapes(study, independent_study):
    config = study.config
    families = dict(ingest.configured_families(config))

    # net metering shifts nothing when prices already equal expected cost
    cells = wf.cross_subsidy(
        families["optimal-two-part"],
        independent_study.model,
        independent_study.scenario_set,
        config.capacity_grid_kw,
        independent_study.fixed_cost,
        pv_unit_kw=config.pv_unit_kw,
    )
    assert all(cell.feasible for cell in cells)
    assert cells[0].capacity_kw == 0.0 and cells[0].subsidy_norm == 0.0
    assert all(abs(cell.subsidy_norm) <= 1e-8 for cell in cells)

    cells = wf.cross_subsidy(
        families["flat-fixed-A"],
        study.model,
        study.scenario_set,
        config.capacity_grid_kw,
        study.fixed_cost,
        pv_unit_kw=config.pv_unit_kw,
    )
    assert all(cell.feasible for cell in cells)
    subsidies = [cell.subsidy_norm for cell in cells]
    assert subsidies[0] == 0.0
    assert all(s > 0.0 for s in subsidies[1:])
    assert all(b >= a - 1e-12 for a, b in zip(subsidies, subsidies[1:]))


def test_criterion_09_der_sweep_shapes(study, anchors):
    config = study.config
    spec = ingest.storage_unit_spec(config)
    families = ingest.configured_families(config)
    caps = np.asarray(config.capacity_grid_kw, dtype=float)

    dec_cells = wf.der_sweep(
        [dict(families)["optimal-two-part"]],
        study.model,
        study.scenario_set,
        tf.MODE_DECENTRALIZED,
        config.capacity_grid_kw,
        config.storage_per_pv_kwh_per_kw,
        study.fixed_cost,
        anchors,
        pv_unit_kw=config.pv_unit_kw,
        storage_unit=spec,
    )
    assert all(cell.feasible for cell in dec_cells)
    gains = np.array([cell.cs_gain for cell in dec_cells])
    slope, intercept = np.polyfit(caps, gains, 1)
    residual = np.max(np.abs(gains - (slope * caps + intercept)))
    assert residual <= 1e-9 * np.max(np.abs(gains))
    assert np.all(np.diff(gains) > 0.0)

    # gains per kW decompose into exported energy value plus arbitrage value
    lam_bar = sc.expect_price(study.scenario_set)
    solar_value = math.fsum(
        s.probability * float(s.prices @ s.solar_unit) for s in study.scenario_set
    )
    unit_value, _ = st.arbitrage_value(spec, lam_bar)
    slope_closed = (
        solar_value
        + config.storage_per_pv_kwh_per_kw / spec.capacity_kwh * unit_value
    ) / anchors.revenue
    assert abs(slope - slope_closed) <= 1e-9 * abs(slope_closed)

    cen_cells = wf.der_sweep(
        [family for _, family in families],
        study.model,
        study.scenario_set,
        tf.MODE_CENTRALIZED,
        config.capacity_grid_kw,
        config.storage_per_pv_kwh_per_kw,
        study.fixed_cost,
        anchors,
        pv_unit_kw=config.pv_unit_kw,
        storage_unit=spec,
    )
    assert all(cell.feasible for cell in cen_cells)
    for _, family in families:
        sequence = [c.cs_gain for c in cen_cells if c.family_kind == family.kind]
        assert len(sequence) == caps.size
        assert all(b >= a - 1e-12 for a, b in zip(sequence, sequence[1:]))


def test_criterion_10_calibration_and_defaults(study, synthetic_dir):
    config = study.config
    nominal = ingest.nominal_tariff(config)

    # the model reproduces the mean observed day at the nominal tariff
    totals = {}
    with open(synthetic_dir / "load.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            period = int(row["period_index"])
            totals[period] = totals.get(period, 0.0) + float(row["kwh"])
    n_days = len(study.scenario_set)
    target = np.array([totals[t] / n_days for t in sorted(totals)])
    modeled = dm.aggregate_demand(study.model, nominal.prices)
    assert np.allclose(modeled, target, rtol=1e-9)

    # total daily own-price elasticity at the calibration point
    h = 1e-6
    base = float(modeled.sum())
    up = float(dm.aggregate_demand(study.model, (1.0 + h) * nominal.prices).sum())
    down = float(dm.aggregate_demand(study.model, (1.0 - h) * nominal.prices).sum())
    elasticity = (up - down) / (2.0 * h * base)
    assert abs(elasticity - config.elasticity) <= 1e-9 * abs(config.elasticity)

    defaults = ingest.StudyConfig()
    assert defaults.nominal_price == 0.172
    assert defaults.nominal_connection_charge == 0.53
    assert defaults.customer_count == 2.2e6
    assert defaults.elasticity == -0.3
    assert defaults.horizon == 24
    assert defaults.pv_unit_kw == 5.0
    assert defaults.solar_system_kw == 5.0
    assert defaults.storage_capacity_kwh == 6.4
    assert defaults.storage_power_kw == 3.3
    assert defaults.storage_efficiency == 0.96
    assert defaults.storage_per_pv_kwh_per_kw == 0.5
    assert defaults.capacity_grid_kw == (0.0, 550e3, 1100e3, 1650e3, 2200e3)
    assert defaults.fixed_cost_multipliers == (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)


def test_criterion_11_repeated_runs_byte_identical(tmp_path, monkeypatch):
    datasets = []
    for name in ("data_a", "data_b"):
        target = tmp_path / name
        assert cli.main(["gen-synthetic", "--out", str(target), "--seed", "0"]) == 0
        datasets.append(target)
    for filename in ("prices.csv", "load.csv", "solar.csv", "study.yaml"):
        assert (datasets[0] / filename).read_bytes() == (datasets[1] / filename).read_bytes()

    config = str(datasets[0] / "study.yaml")
    outputs = []
    for name in ("out_a", "out_b"):
        out = tmp_path / name
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
        assert cli.main(["optimize", config]) == 0
        assert cli.main(["pareto", config]) == 0
        assert cli.main(["sweep", config, "--mode", "decentralized"]) == 0
        assert cli.main(["xsub", config]) == 0
        outputs.append(out)

    names_a = sorted(p.name for p in outputs[0].iterdir())
    names_b = sorted(p.name for p in outputs[1].iterdir())
    assert names_a == names_b and len(names_a) == 8
    for name in names_a:
        first = (outputs[0] / name).read_bytes()
        assert first and first == (outputs[1] / name).read_bytes()
