import ast
import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from tariffkit import demand as dm
from tariffkit import ingest
from tariffkit import oracle
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf
from tariffkit import welfare as wf
from test_storage import _counting_solves


def small_model(rng, horizon, n_classes):
    """The 50-customer demand model of the small random study, its sales drawn from ``rng``."""
    return dm.calibrate(
        target_sales=rng.uniform(8.0, 16.0, size=horizon),
        target_price=0.2,
        elasticity=-0.4,
        n_classes=n_classes,
        sigma_rule="linear",
        total_customers=50.0,
    )


def fixture(correlated=True, n_classes=3, horizon=6, seed=2, solar_max=0.6):
    """Small correlated or independent scenario study."""
    rng = np.random.default_rng(seed)
    model = small_model(rng, horizon, n_classes)
    prices, disturbances, solar = [], [], []
    k = 5
    for _ in range(k):
        shock = rng.normal()
        prices.append(np.clip(0.05 + 0.03 * rng.normal(size=horizon) + 0.04 * shock, 0.005, None))
        load_dev = 0.8 * shock + 0.3 * rng.normal(size=horizon) if correlated else rng.normal(size=horizon)
        disturbances.append(np.outer(model.sigma, load_dev / model.sigma_total))
        solar.append(rng.uniform(0.0, solar_max, size=horizon))
    built = sc.ScenarioSet(np.full(k, 1.0 / k), prices, disturbances, solar_unit_matrix=solar)
    if not correlated:
        built = sc.split_marginals(built)
    return model, built


def test_two_part_tariff_basics():
    t = tf.flat_tariff(0.5, 0.2, 4)
    assert np.ptp(t.prices) == 0
    assert t.prices.shape == (4,)
    with pytest.raises(ValueError):
        tf.TwoPartTariff(math.nan, [0.1, 0.2])


def test_family_validation():
    with pytest.raises(ValueError, match="unknown"):
        tf.TariffFamily(kind="banded")
    with pytest.raises(ValueError, match="requires"):
        tf.TariffFamily(kind=tf.FLAT_FIXED_A)
    with pytest.raises(ValueError, match="does not take"):
        tf.TariffFamily(kind=tf.FLAT_ZERO_A, fixed_connection_charge=1.0)
    assert tf.TariffFamily(kind=tf.DYNAMIC_ZERO_A).connection_charge == 0.0


def test_integration_case_validation():
    with pytest.raises(ValueError, match="mode"):
        tf.IntegrationCase(mode="sideways")
    with pytest.raises(ValueError, match="together"):
        tf.IntegrationCase(mode=tf.MODE_DECENTRALIZED, storage=st.powerwall())
    with pytest.raises(ValueError, match="decentralized"):
        tf.IntegrationCase(storage=st.powerwall(), storage_units=[1.0])
    with pytest.raises(ValueError, match="centralized"):
        tf.IntegrationCase(mode=tf.MODE_NONE, storage_units=2.0)
    case = tf.decentralized_case(st.powerwall(), [1.0, 2.0])
    assert case.uses_customer_der and not case.uses_retailer_der


def test_integration_case_unit_counts_follow_the_side():
    with pytest.raises(ValueError, match="one per class"):
        tf.IntegrationCase(tf.MODE_CENTRALIZED, st.powerwall(), [1.0, 2.0])
    with pytest.raises(ValueError, match=">= 0"):
        tf.decentralized_case(st.powerwall(), [1.0, -2.0])
    units = np.array([1.0, 2.0])
    case = tf.decentralized_case(st.powerwall(), units)
    assert not case.storage_units.flags.writeable
    assert units.flags.writeable  # the caller's array is copied, not frozen
    assert tf.centralized_case(st.powerwall(), 2.5).storage_units.ndim == 0
    assert tf.centralized_case().storage is None


def test_optimal_prices_equal_expected_wholesale():
    model, ss = fixture()
    case = tf.no_der()
    tariff = tf.optimal_decentralized(model, ss, case, fixed_cost=20.0)
    np.testing.assert_allclose(tariff.prices, sc.expect_price(ss), rtol=0, atol=1e-12)


def test_optimal_connection_charge_closed_form():
    model, ss = fixture()
    f = 20.0
    tariff = tf.optimal_decentralized(model, ss, tf.no_der(), f)
    lam_bar = sc.expect_price(ss)
    demand_cov = sc.cov_trace(
        ss,
        lambda s: dm.aggregate_demand(model, lam_bar, s.disturbances),
        lambda s: s.prices,
    )
    want = (f + demand_cov) / model.customers
    assert tariff.connection_charge == pytest.approx(want, rel=1e-10)
    # and it settles exactly
    rs = tf.expected_retailer_surplus(tariff, model, ss, tf.no_der())
    assert rs == pytest.approx(f, abs=1e-9 * max(1.0, f))


def test_optimal_charge_drops_with_behind_meter_pv():
    model, ss = fixture()
    f = 20.0
    swept = sc.with_pv_capacity(ss, customer_kw=np.full(model.n_classes, 2.0))
    base = tf.optimal_decentralized(model, ss, tf.no_der(), f)
    case = tf.decentralized_case()
    with_pv = tf.optimal_decentralized(model, swept, case, f)
    renewable_cov = sc.cov_trace(
        swept, lambda s: s.renewable_customer.sum(axis=0), lambda s: s.prices
    )
    got_drop = base.connection_charge - with_pv.connection_charge
    assert got_drop == pytest.approx(renewable_cov / model.customers, rel=1e-9, abs=1e-12)


def test_centralized_prices_uncorrected_and_offset_in_charge():
    model, ss = fixture()
    f = 20.0
    spec = st.powerwall()
    case = tf.centralized_case(spec, storage_units=3.0)
    swept = sc.with_pv_capacity(ss, retailer_kw=5.0)
    tariff = tf.optimal_centralized(model, swept, case, f)
    lam_bar = sc.expect_price(swept)
    np.testing.assert_allclose(tariff.prices, lam_bar, rtol=0, atol=1e-12)

    # two-run differencing: the DER offset moves only the connection charge
    plain = tf.optimal_centralized(model, swept, tf.centralized_case(spec, 0.0), f)
    plain_no_pv = tf.optimal_centralized(
        model, sc.with_pv_capacity(ss, retailer_kw=0.0), tf.centralized_case(spec, 0.0), f
    )
    fleet = 3.0 * st.arbitrage_value(spec, lam_bar)[0]
    renew = float(sc.expect_vector(swept, lambda s: float(s.prices @ s.renewable_retailer)))
    drop = plain_no_pv.connection_charge - tariff.connection_charge
    assert drop == pytest.approx((fleet + renew) / model.customers, rel=1e-9, abs=1e-12)
    assert plain.connection_charge == pytest.approx(
        plain_no_pv.connection_charge - renew / model.customers, rel=1e-9
    )


def test_optimal_centralized_requires_centralized_case():
    model, ss = fixture()
    with pytest.raises(ValueError):
        tf.optimal_centralized(model, ss, tf.no_der(), 5.0)
    with pytest.raises(ValueError):
        tf.optimal_decentralized(model, ss, tf.centralized_case(), 5.0)


def test_optimal_two_part_dispatches_on_mode():
    model, ss = fixture()
    swept = sc.with_pv_capacity(ss, retailer_kw=1.0)
    a = tf.optimal_two_part(model, swept, tf.centralized_case(), 5.0)
    b = tf.optimal_centralized(model, swept, tf.centralized_case(), 5.0)
    assert a.connection_charge == b.connection_charge


@pytest.mark.parametrize("mode", tf.MODES)
def test_disagreeing_charge_routes_raise(monkeypatch, mode):
    # a closed-form charge that drifts from the generic solve is caught in every mode
    model, ss = fixture()
    swept, case = {
        tf.MODE_NONE: (ss, tf.no_der()),
        tf.MODE_DECENTRALIZED: (
            sc.with_pv_capacity(ss, customer_kw=np.full(model.n_classes, 2.0)),
            tf.decentralized_case(st.powerwall(), np.full(model.n_classes, 0.5)),
        ),
        tf.MODE_CENTRALIZED: (
            sc.with_pv_capacity(ss, retailer_kw=5.0),
            tf.centralized_case(st.powerwall(), 3.0),
        ),
    }[mode]
    tf.optimal_two_part(model, swept, case, 20.0)
    cov_trace = tf.cov_trace
    monkeypatch.setattr(tf, "cov_trace", lambda *fields: cov_trace(*fields) + 1.0)
    with pytest.raises(tf.RevenueAdequacyError, match="disagree"):
        tf.optimal_two_part(model, swept, case, 20.0)


def _flat_ray_roots(family, model, ss, fixed_cost):
    """The flat solver's two roots along p * 1, and the fleet (none) at the lower."""
    n = model.horizon
    return tf._ray_roots(family, model, ss, tf.no_der(), fixed_cost, np.zeros(n), np.ones(n),
                         np.zeros((model.n_classes, n)))


def test_flat_family_settles_and_picks_surplus_maximizing_root():
    model, ss = fixture()
    family = tf.TariffFamily(kind=tf.FLAT_FIXED_A, fixed_connection_charge=0.3)
    report = tf.optimize_family_report(family, model, ss, tf.no_der(), 20.0)
    lo, hi, _ = _flat_ray_roots(family, model, ss, 20.0)
    assert lo <= hi
    # both roots settle at F; the returned one has the larger surplus
    roots = [tf.settle(tf.flat_tariff(0.3, p, model.horizon), model, ss, tf.no_der())
             for p in (lo, hi)]
    for root in roots:
        assert root.retailer_surplus == pytest.approx(20.0, abs=1e-8 * 20.0)
    assert max(root.consumer_surplus for root in roots) == pytest.approx(
        tf.settle(report.tariff, model, ss, tf.no_der()).consumer_surplus, rel=1e-12
    )
    # low root charges less and is the consumer-preferred one
    assert report.tariff.prices[0] == pytest.approx(lo)


def _settles_per_tariff(monkeypatch):
    """Count settle calls by the tariff's prices and charge; returns the counter."""
    settle, counts = tf.settle, {}

    def counting(tariff, *args):
        key = (tariff.connection_charge, tariff.prices.tobytes())
        counts[key] = counts.get(key, 0) + 1
        return settle(tariff, *args)

    monkeypatch.setattr(tf, "settle", counting)
    return counts


def _assert_settled_once(report, counts, *args):
    tariff = report.tariff
    assert counts[(tariff.connection_charge, tariff.prices.tobytes())] == 1
    fresh = tf.settle(tariff, *args)
    for field in dataclasses.fields(fresh):
        np.testing.assert_array_equal(getattr(report.settlement, field.name),
                                      getattr(fresh, field.name))


@pytest.mark.parametrize("kind", [tf.FLAT_ZERO_A, tf.FLAT_FIXED_A])
def test_flat_solve_settles_its_tariff_once(monkeypatch, kind):
    # the flat solve settles both roots to pick one; the report carries the
    # winner's settlement instead of settling it again
    model, ss = fixture()
    counts = _settles_per_tariff(monkeypatch)
    charge = 0.3 if kind == tf.FLAT_FIXED_A else None
    family = tf.TariffFamily(kind=kind, fixed_connection_charge=charge)
    report = tf.optimize_family_report(family, model, ss, tf.no_der(), 10.0)
    _assert_settled_once(report, counts, model, ss, tf.no_der())


def test_flat_family_infeasible_above_revenue_peak():
    model, ss = fixture()
    family = tf.TariffFamily(kind=tf.FLAT_ZERO_A)
    with pytest.raises(tf.InfeasibleFamilyError) as excinfo:
        tf.optimize_family_report(family, model, ss, tf.no_der(), 1e9)
    assert excinfo.value.attainable_max < 1e9
    # the reported peak is attainable
    f_ok = 0.999 * excinfo.value.attainable_max
    tariff = tf.optimize_family_report(family, model, ss, tf.no_der(), f_ok).tariff
    rs = tf.expected_retailer_surplus(tariff, model, ss, tf.no_der())
    assert rs == pytest.approx(f_ok, abs=1e-8 * abs(f_ok))


def test_flat_roots_merge_at_tangency():
    model, ss = fixture()
    family = tf.TariffFamily(kind=tf.FLAT_ZERO_A)
    try:
        tf.optimize_family_report(family, model, ss, tf.no_der(), 1e9)
    except tf.InfeasibleFamilyError as exc:
        peak = exc.attainable_max
    tf.optimize_family_report(family, model, ss, tf.no_der(), peak)
    lo, hi, _ = _flat_ray_roots(family, model, ss, peak)
    assert hi - lo == pytest.approx(0.0, abs=1e-4 * max(1.0, abs(hi)))


def test_dynamic_family_settles_and_orders_surplus():
    model, ss = fixture()
    f = 20.0
    case = tf.no_der()
    flat = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.FLAT_FIXED_A, fixed_connection_charge=0.3), model, ss, case, f
    ).tariff
    dyn = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.DYNAMIC_FIXED_A, fixed_connection_charge=0.3), model, ss, case, f
    ).tariff
    opt = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, case, f
    ).tariff
    rs = tf.expected_retailer_surplus(dyn, model, ss, case)
    assert rs == pytest.approx(f, abs=1e-8 * f)
    cs_flat = tf.settle(flat, model, ss, case).consumer_surplus
    cs_dyn = tf.settle(dyn, model, ss, case).consumer_surplus
    cs_opt = tf.settle(opt, model, ss, case).consumer_surplus
    # freeing the price shape helps; freeing the connection charge helps more
    assert cs_flat <= cs_dyn + 1e-9
    assert cs_dyn <= cs_opt + 1e-9


def test_dynamic_zero_charge_below_fixed_charge():
    # zero connection charge forces a larger volumetric markup, costing surplus
    model, ss = fixture()
    f = 10.0  # below the zero-A family's revenue peak
    zero = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.FLAT_ZERO_A), model, ss, tf.no_der(), f
    ).tariff
    fixed = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.FLAT_FIXED_A, fixed_connection_charge=0.3),
        model, ss, tf.no_der(), f,
    ).tariff
    cs_zero = tf.settle(zero, model, ss, tf.no_der()).consumer_surplus
    cs_fixed = tf.settle(fixed, model, ss, tf.no_der()).consumer_surplus
    assert cs_zero < cs_fixed


def test_dynamic_family_with_customer_storage_self_consistent():
    model, ss = fixture()
    case = tf.decentralized_case(st.powerwall(), np.full(model.n_classes, 0.5))
    family = tf.TariffFamily(kind=tf.DYNAMIC_FIXED_A, fixed_connection_charge=0.3)
    report = tf.optimize_family_report(family, model, ss, case, 20.0)
    # the fleet seen by the solver equals the fleet the tariff induces
    rs = tf.expected_retailer_surplus(report.tariff, model, ss, case)
    assert rs == pytest.approx(20.0, abs=1e-8 * 20.0)


def test_negative_connection_charge_flagged():
    model, ss = fixture()
    # tiny required revenue with positive demand covariance drives A below zero
    tariff = tf.optimal_decentralized(model, ss, tf.no_der(), fixed_cost=-50.0)
    report = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, tf.no_der(), -50.0
    )
    assert tariff.connection_charge < 0.0
    assert "negative connection charge" in report.notes


def test_non_finite_residual_raises(monkeypatch):
    # abs(nan) > tol is False: the adequacy test must reject NaN explicitly
    model, ss = fixture()
    optimum = tf.optimal_two_part(model, ss, tf.no_der(), 20.0)
    settle = tf.settle

    def nan_at_optimum(tariff, *args):
        # only the returned tariff's settlement; the generic route's, at A = 0, stays finite
        report = settle(tariff, *args)
        if tariff.connection_charge == optimum.connection_charge:
            report = dataclasses.replace(report, retailer_surplus=math.nan)
        return report

    monkeypatch.setattr(tf, "settle", nan_at_optimum)
    with pytest.raises(tf.RevenueAdequacyError, match="nan"):
        tf.optimize_family_report(tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, tf.no_der(), 20.0)


@pytest.mark.parametrize("kind", tf.FAMILY_KINDS)
def test_non_finite_consumer_surplus_raises(monkeypatch, kind):
    # the solve's settlement is the one the tables read, so the solve
    # rejects a non-finite consumer surplus as it rejects a residual
    model, ss = fixture()
    settle = tf.settle
    monkeypatch.setattr(tf, "settle", lambda *args: dataclasses.replace(
        settle(*args), consumer_surplus=math.inf))
    charge = 0.3 if kind in tf.FIXED_A_KINDS else None
    family = tf.TariffFamily(kind=kind, fixed_connection_charge=charge)
    with pytest.raises(tf.RevenueAdequacyError, match="consumer surplus inf"):
        tf.optimize_family_report(family, model, ss, tf.no_der(), 10.0)


def test_only_the_meter_nets_customer_pv():
    # every closed form reads the customer renewables through tariff._metered;
    # the other readers value the renewables, make the S-sized check, or
    # settle PV owners separately, a different meter
    readers = {
        "tariff.py": {"_metered", "renewable_value", "_metered_disturbance"},
        "welfare.py": {"_owner_contributions", "cross_subsidy"},
    }
    for module, allowed in readers.items():
        tree = ast.parse((Path(tf.__file__).parent / module).read_text(encoding="utf-8"))
        found = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, ast.Attribute) and node.attr in {"customer_kw", "mean_solar", "solar_cov"}
        }
        assert found == allowed, module


def test_fleet_value_linear_in_units():
    prices = np.array([0.02, 0.09, 0.01, 0.2, 0.05, 0.11])
    case1 = tf.centralized_case(st.powerwall(), 1.0)
    case_frac = tf.centralized_case(st.powerwall(), 2.5)
    v1 = tf.fleet_value(case1, prices)
    v_frac = tf.fleet_value(case_frac, prices)
    assert v_frac == pytest.approx(2.5 * v1, rel=1e-12)


def _swept(study, capacity_kw):
    config = study.config
    return wf.sweep_fixture(
        study.model, study.scenario_set, tf.MODE_DECENTRALIZED, capacity_kw,
        config.storage_per_pv_kwh_per_kw, ingest.storage_unit_spec(config), config.pv_unit_kw,
    )


def test_dynamic_fleet_cycle_returns_best_member(study):
    # on the shipped 20-day study the customer fleet alternates between two
    # schedules at 0.55 GW; the loop stops at the first repeat
    swept, case = _swept(study, 550e3)
    model, fixed_cost = study.model, study.fixed_cost
    family = tf.TariffFamily(kind=tf.DYNAMIC_ZERO_A)
    report = tf.optimize_family_report(family, model, swept, case, fixed_cost)
    assert report.cycle_length == 2
    assert report.fleet_rounds <= 4
    assert report.notes == ("storage fixed point cycles with period 2",)

    # walk the cycle from the returned member and back
    lam_bar = sc.expect_price(swept)
    members = [report.tariff.prices]
    for _ in range(report.cycle_length):
        fleet = tf.customer_fleet_meter(case, model.n_classes, members[-1])
        direction = tf._choke_prices(model, swept, case, fleet) - lam_bar
        t, _, _ = tf._ray_roots(family, model, swept, case, fixed_cost, lam_bar, direction, fleet)
        members.append(lam_bar + t * direction)
    np.testing.assert_array_equal(members[-1], members[0])
    assert not np.array_equal(members[1], members[0])
    best = tf.settle(report.tariff, model, swept, case).consumer_surplus
    for prices in members[1:-1]:
        member = tf.TwoPartTariff(0.0, prices)
        assert best >= tf.settle(member, model, swept, case).consumer_surplus
        residual = tf.expected_retailer_surplus(member, model, swept, case) - fixed_cost
        assert abs(residual) <= tf.ADEQUACY_RTOL * fixed_cost


def test_dynamic_fleet_cycle_settles_the_returned_member_once(study, monkeypatch):
    swept, case = _swept(study, 550e3)
    counts = _settles_per_tariff(monkeypatch)
    family = tf.TariffFamily(kind=tf.DYNAMIC_ZERO_A)
    report = tf.optimize_family_report(family, study.model, swept, case, study.fixed_cost)
    assert report.cycle_length == 2
    _assert_settled_once(report, counts, study.model, swept, case)


def test_dynamic_fleet_without_storage_converges_without_lp(study):
    # at zero capacity every class holds zero storage units
    swept, case = _swept(study, 0.0)
    st.clear_caches()
    report = tf.optimize_family_report(
        tf.TariffFamily(kind=tf.DYNAMIC_ZERO_A), study.model, swept, case, study.fixed_cost
    )
    assert st._solve.cache_info().misses == 0
    assert report.cycle_length == 1
    assert report.fleet_rounds == 1
    assert report.notes == ()


def test_dynamic_solve_work_is_bounded(study, monkeypatch):
    # one ray solve per choke round keeps the distinct storage prices in the
    # tens, and each one costs at most one dynamic-program solve
    swept, case = _swept(study, 1100e3)
    calls = _counting_solves(monkeypatch)
    st.clear_caches()
    tf.optimize_family_report(
        tf.TariffFamily(kind=tf.DYNAMIC_ZERO_A), study.model, swept, case, study.fixed_cost
    )
    misses = st._solve.cache_info().misses
    assert misses <= 40
    assert len(calls) <= misses


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    correlated=hst.booleans(),
    n_classes=hst.integers(1, 4),
    horizon=hst.integers(2, 8),
    mode=hst.sampled_from([tf.MODE_NONE, tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED]),
)
def test_ray_quadratic_reproduces_settled_revenue(seed, correlated, n_classes, horizon, mode):
    model, ss = fixture(correlated=correlated, n_classes=n_classes, horizon=horizon, seed=seed)
    case = {
        tf.MODE_NONE: tf.no_der(),
        tf.MODE_DECENTRALIZED: tf.decentralized_case(),
        tf.MODE_CENTRALIZED: tf.centralized_case(st.powerwall(), 3.0),
    }[mode]
    rng = np.random.default_rng(seed)
    charge = float(rng.uniform(-1.0, 1.0))
    origin = rng.uniform(-0.1, 0.4, size=horizon)
    direction = rng.normal(size=horizon)
    no_fleet = np.zeros((n_classes, horizon))
    coeffs = tf._ray_quadratic(model, ss, case, charge, no_fleet, origin, direction)
    for x in rng.uniform(-2.0, 2.0, size=3):
        rs = tf.expected_retailer_surplus(
            tf.TwoPartTariff(charge, origin + x * direction), model, ss, case
        )
        assert np.polyval(coeffs, x) == pytest.approx(rs, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    correlated=hst.booleans(),
    n_classes=hst.integers(1, 4),
    horizon=hst.integers(3, 8),
    kind=hst.sampled_from([tf.FLAT_FIXED_A, tf.FLAT_ZERO_A, tf.DYNAMIC_FIXED_A, tf.DYNAMIC_ZERO_A]),
    revenue_share=hst.floats(0.2, 1.5),
)
def test_restricted_families_settle_with_customer_fleet(
    seed, correlated, n_classes, horizon, kind, revenue_share
):
    model, ss = fixture(correlated=correlated, n_classes=n_classes, horizon=horizon, seed=seed)
    rng = np.random.default_rng(seed)
    spec = st.StorageSpec(
        capacity_kwh=float(rng.uniform(1.0, 10.0)),
        charge_rate_kw=float(rng.uniform(0.5, 5.0)),
        discharge_rate_kw=float(rng.uniform(0.5, 5.0)),
        efficiency=float(rng.uniform(0.85, 0.99)),
    )
    case = tf.decentralized_case(spec, rng.uniform(0.0, 3.0, size=n_classes))
    family = tf.TariffFamily(
        kind=kind, fixed_connection_charge=0.3 if kind.endswith("fixed-A") else None
    )
    margin = tf.settle(tf.flat_tariff(0.0, 0.2, horizon), model, ss, tf.no_der()).retailer_surplus
    f = model.customers * family.connection_charge + revenue_share * margin
    try:
        report = tf.optimize_family_report(family, model, ss, case, f)
    except tf.InfeasibleFamilyError:
        return
    # at a non-positive flat price the storage optimum is degenerate, and
    # alternate schedules settle differently scenario by scenario
    assume(np.all(report.tariff.prices > 0.0))
    settled = oracle.settlement_resim(report.tariff, model, ss, case).retailer_surplus
    assert abs(settled - f) <= 1e-7 * max(1.0, abs(f))
    if report.multiplier_t is not None:
        assert report.multiplier_t <= 0.5


def _metered_by_scenario(model, ss, case):
    metered = np.einsum("c,scn->sn", model.class_counts, ss.disturbance_tensor)
    if case.uses_customer_der:
        metered = metered - ss.customer_renewable_tensor.sum(axis=1)
    return metered


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    correlated=hst.booleans(),
    n_classes=hst.integers(1, 4),
    horizon=hst.integers(2, 8),
    mode=hst.sampled_from(tf.MODES),
)
def test_closed_forms_match_scenario_sums(seed, correlated, n_classes, horizon, mode):
    # the closed forms read the set's cached moments; the references below
    # sum over every scenario instead
    model, base = fixture(correlated=correlated, n_classes=n_classes, horizon=horizon, seed=seed)
    base.moments  # the rescaled set shares these: the moments hold no capacity
    rng = np.random.default_rng(seed)
    ss = sc.with_pv_capacity(
        base, customer_kw=rng.uniform(0.0, 20.0, size=n_classes), retailer_kw=float(rng.uniform(0.0, 50.0))
    )
    case = {
        tf.MODE_NONE: tf.no_der(),
        tf.MODE_DECENTRALIZED: tf.decentralized_case(st.powerwall(), rng.uniform(0.0, 3.0, size=n_classes)),
        tf.MODE_CENTRALIZED: tf.centralized_case(st.powerwall(), 3.0),
    }[mode]
    probs, lam = ss.probabilities, ss.price_matrix
    lam_bar = probs @ lam
    metered = _metered_by_scenario(model, ss, case)
    offset = 0.0
    if case.uses_retailer_der:
        offset = probs @ np.einsum("sn,sn->s", lam, ss.retailer_renewable_matrix)
        offset += tf.fleet_value(case, lam_bar)

    def close(value, reference, *terms):
        scale = max(1.0, *(float(np.abs(t).max()) for t in terms))
        assert value == pytest.approx(reference, rel=1e-9, abs=1e-9 * scale)

    prices = rng.uniform(0.0, 0.4, size=horizon)
    live = tf.customer_fleet_meter(case, model.n_classes, prices).sum(axis=0)
    net = dm.aggregate_demand(model, prices) + metered - live
    gaps = prices - lam
    margin = probs @ np.einsum("sn,sn->s", gaps, net)
    settled = tf.settle(tf.TwoPartTariff(0.0, prices), model, ss, case)
    close(settled.retailer_surplus, margin + offset, gaps * net, offset)

    # any frozen per-class fleet, not only a response
    fleet = rng.normal(scale=5.0, size=(n_classes, horizon))
    origin, direction = rng.uniform(-0.1, 0.4, size=horizon), rng.normal(size=horizon)
    charge = float(rng.uniform(-1.0, 1.0))
    demand = dm.aggregate_demand(model, origin) + metered - fleet.sum(axis=0)
    gaps = origin - lam
    b_dir = model.slope @ direction
    reference = (
        -model.sigma_total * direction @ b_dir,
        probs @ (demand @ direction) - model.sigma_total * probs @ (gaps @ b_dir),
        probs @ np.einsum("sn,sn->s", gaps, demand) + model.customers * charge + offset,
    )
    coeffs = tf._ray_quadratic(model, ss, case, charge, fleet, origin, direction)
    for value, ref in zip(coeffs, reference):
        close(value, ref, demand * direction, gaps * demand, model.customers * charge, offset)

    choke = np.linalg.solve(
        model.slope, model.base + (probs @ metered - fleet.sum(axis=0)) / model.sigma_total
    )
    np.testing.assert_allclose(tf._choke_prices(model, ss, case, fleet), choke, rtol=1e-9, atol=1e-12)

    tariff = tf.TwoPartTariff(charge, prices)
    v = model.sigma[None, :, None] * model.base + ss.disturbance_tensor
    quad = np.einsum("scn,nm,scm->sc", v, model.slope_inverse, v) @ (model.class_counts / (2 * model.sigma))
    billed = model.sigma_total * model.base + probs @ metered - live
    surplus = (
        probs @ quad
        + 0.5 * model.sigma_total * prices @ model.slope @ prices
        - prices @ billed
        - model.customers * charge
    )
    close(tf.settle(tariff, model, ss, case).consumer_surplus, surplus, quad)


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(0, 2**16),
    correlated=hst.booleans(),
    n_classes=hst.integers(1, 4),
    horizon=hst.integers(2, 8),
    mode=hst.sampled_from(tf.MODES),
)
def test_der_value_matches_scenario_sums(seed, correlated, n_classes, horizon, mode):
    # der_value reads the set's moments and one unit LP; the references sum
    # E[lambda^T r] over every scenario and scale the unit value by the count
    model, base = fixture(correlated=correlated, n_classes=n_classes, horizon=horizon, seed=seed)
    rng = np.random.default_rng(seed)
    ss = sc.with_pv_capacity(
        base, customer_kw=rng.uniform(0.0, 20.0, size=n_classes), retailer_kw=float(rng.uniform(0.0, 50.0))
    )
    spec = st.StorageSpec(
        capacity_kwh=float(rng.uniform(0.5, 10.0)),
        charge_rate_kw=float(rng.uniform(0.5, 5.0)),
        discharge_rate_kw=float(rng.uniform(0.5, 5.0)),
        efficiency=float(rng.uniform(0.8, 1.0)),
    )
    units = rng.uniform(0.0, 3.0, size=n_classes) * (rng.uniform() < 0.8)  # sometimes no fleet
    case, renewable = {
        tf.MODE_NONE: (tf.no_der(), np.zeros_like(ss.price_matrix)),
        tf.MODE_DECENTRALIZED: (tf.decentralized_case(spec, units), ss.customer_renewable_tensor.sum(axis=1)),
        tf.MODE_CENTRALIZED: (tf.centralized_case(spec, units.sum()), ss.retailer_renewable_matrix),
    }[mode]
    probs, lam = ss.probabilities, ss.price_matrix
    count = 0.0 if mode == tf.MODE_NONE else units.sum()
    for prices in (rng.uniform(-0.05, 0.4, size=horizon), probs @ lam):
        fleet_ref = st.arbitrage_value(spec, prices)[0] * count
        assert tf.fleet_value(case, prices) == pytest.approx(fleet_ref, rel=1e-9, abs=1e-12)
    # fleet_ref is now the fleet's value at the expected price
    terms = np.einsum("sn,sn->s", lam, renewable)
    renewable_ref = probs @ terms
    tol = 1e-9 * max(1.0, float(np.abs(terms).max()))
    assert tf.renewable_value(case, ss) == pytest.approx(renewable_ref, rel=1e-9, abs=tol)
    assert tf.der_value(case, ss) == pytest.approx(fleet_ref + renewable_ref, rel=1e-9, abs=tol)
    fixed_cost = float(rng.uniform(1.0, 50.0))
    report = wf.welfare_identities(model, ss, case, fixed_cost)
    assert report.passed, report


def test_optimum_check_holds_no_renewable_tensor(independent_study):
    # the closed-form A check nets total customer kW x solar from the metered
    # disturbance, an (S, N) product: a decentralized optimum on a PV-rescaled
    # product set never holds an (S, C, N) renewable tensor
    study = independent_study
    ss = study.scenario_set
    ss.moments
    config = study.config
    swept, case = wf.sweep_fixture(study.model, ss, tf.MODE_DECENTRALIZED, 1.1e6,
                                   config.storage_per_pv_kwh_per_kw,
                                   ingest.storage_unit_spec(config), config.pv_unit_kw)
    tracemalloc.start()
    try:
        tf.optimal_two_part(study.model, swept, case, study.fixed_cost)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ss) == 400
    assert peak < ss.disturbance_tensor.nbytes, peak


def test_sweep_cell_reduces_each_set_once(study, anchors, monkeypatch):
    # one decentralized sweep cell: every family's probes read the swept
    # set's moments, which are the study set's, so no swept set is
    # reduced; only the optimum's independent check sums the metered
    # disturbance over scenarios
    study.scenario_set.moments  # the study's one reduction
    calls = {"moments": [], "metered": 0, "optimal": 0, "probes": 0}
    reduce_moments = sc._reduced_moments
    metered, optimal, probe = tf._metered_disturbance, tf.optimal_two_part, tf.expected_retailer_surplus

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(sc, "_reduced_moments", lambda s: calls["moments"].append(s) or reduce_moments(s))
    monkeypatch.setattr(tf, "_metered_disturbance", counted("metered", metered))
    monkeypatch.setattr(tf, "optimal_two_part", counted("optimal", optimal))
    monkeypatch.setattr(tf, "expected_retailer_surplus", counted("probes", probe))
    config = study.config
    families = [family for _, family in ingest.configured_families(config)]
    cells = wf.der_sweep(
        families, study.model, study.scenario_set, tf.MODE_DECENTRALIZED, [1100e3],
        config.storage_per_pv_kwh_per_kw, study.fixed_cost, anchors,
        pv_unit_kw=config.pv_unit_kw, storage_unit=ingest.storage_unit_spec(config),
    )
    assert len(cells) == len(families)
    assert calls["moments"] == []
    assert calls["optimal"] == 1
    assert calls["metered"] == calls["optimal"]
    assert calls["probes"] >= len(families)
