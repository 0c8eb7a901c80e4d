import dataclasses
import math

import numpy as np
import pytest

from tariffkit import demand as dm
from tariffkit import ingest
from tariffkit import oracle
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf
from tariffkit import welfare as wf
from test_tariff import fixture


# the DER units of the sweeps below: 5 kW PV systems and the Powerwall-like
# battery, whose 1-hour periods make the fixture's 6 periods a 6-hour day
DER_UNITS = {"pv_unit_kw": 5.0, "storage_unit": st.powerwall()}


@pytest.mark.parametrize("mode", tf.MODES)
def test_evaluate_matches_closed_form_surpluses(mode):
    model, ss = fixture()
    flat = tf.flat_tariff(0.4, 0.21, model.horizon)
    swept, case, tariff = {
        tf.MODE_NONE: (ss, tf.no_der(), flat),
        tf.MODE_DECENTRALIZED: (
            sc.with_pv_capacity(ss, customer_kw=np.full(3, 1.0)),
            tf.decentralized_case(st.powerwall(), np.full(3, 0.2)),
            flat,
        ),
        tf.MODE_CENTRALIZED: (
            sc.with_pv_capacity(ss, retailer_kw=5.0),
            tf.centralized_case(st.powerwall(), 3.0),
            tf.TwoPartTariff(-0.3, np.linspace(0.1, 0.3, model.horizon)),
        ),
    }[mode]
    report = wf.evaluate(tariff, model, swept, case)
    settled = oracle.settlement_resim(tariff, model, swept, case)
    rs, cs = settled.retailer_surplus, settled.consumer_surplus
    assert report.retailer_surplus == pytest.approx(rs, rel=1e-10, abs=1e-10)
    assert report.consumer_surplus == pytest.approx(cs, rel=1e-10, abs=1e-10)
    assert report.social_welfare == report.consumer_surplus + report.retailer_surplus
    assert report.revenue - report.energy_cost == pytest.approx(
        report.retailer_surplus, rel=1e-10, abs=1e-10
    )


def test_per_class_surplus_sums_to_total():
    model, ss = fixture()
    report = wf.evaluate(tf.flat_tariff(0.4, 0.21, 6), model, ss, tf.no_der())
    assert report.per_class_consumer_surplus.shape == (3,)
    assert report.per_class_consumer_surplus.sum() == pytest.approx(
        report.consumer_surplus, rel=1e-12
    )


def test_larger_classes_get_more_surplus():
    model, ss = fixture()
    opt = tf.optimal_two_part(model, ss, tf.no_der(), 20.0)
    report = wf.evaluate(opt, model, ss, tf.no_der())
    per_customer = report.per_class_consumer_surplus / model.class_counts
    assert np.all(np.diff(per_customer) > 0.0)  # sigma rises with class index


def test_negative_demand_diagnostic_counts_pairs():
    model, ss = fixture()
    absurd = tf.flat_tariff(0.0, 50.0, model.horizon)  # way past choke
    report = oracle.settlement_resim(absurd, model, ss, tf.no_der())
    assert report.negative_demand_pairs == len(ss) * model.n_classes
    sane = oracle.settlement_resim(tf.flat_tariff(0.0, 0.2, 6), model, ss, tf.no_der())
    assert sane.negative_demand_pairs == 0


def test_welfare_identities_pass_with_and_without_der():
    model, ss = fixture()
    for case in (
        tf.no_der(),
        tf.decentralized_case(st.powerwall(), np.full(3, 0.4)),
        tf.centralized_case(st.powerwall(), 1.2),
    ):
        if case.uses_customer_der:
            swept = sc.with_pv_capacity(ss, customer_kw=np.full(3, 1.5))
        elif case.uses_retailer_der:
            swept = sc.with_pv_capacity(ss, retailer_kw=4.5)
        else:
            swept = ss
        report = wf.welfare_identities(model, swept, case, fixed_cost=20.0)
        assert report.passed, report
        assert report.identity_rel_error <= 1e-10
        assert report.lump_sum_sw_error <= 1e-10


def test_lump_sum_shift_moves_cs_one_for_one():
    model, ss = fixture()
    f, delta = 20.0, 7.0
    base = wf.evaluate(tf.optimal_two_part(model, ss, tf.no_der(), f), model, ss, tf.no_der())
    shifted = wf.evaluate(
        tf.optimal_two_part(model, ss, tf.no_der(), f + delta), model, ss, tf.no_der()
    )
    assert shifted.consumer_surplus - base.consumer_surplus == pytest.approx(-delta, rel=1e-9)
    assert shifted.retailer_surplus - base.retailer_surplus == pytest.approx(delta, rel=1e-9)
    assert shifted.social_welfare == pytest.approx(base.social_welfare, rel=1e-12)


def test_efficient_welfare_is_no_der_optimum():
    model, ss = fixture()
    f = 20.0
    sw0 = wf.efficient_welfare(model, ss)
    report = wf.evaluate(tf.optimal_two_part(model, ss, tf.no_der(), f), model, ss, tf.no_der())
    assert report.social_welfare == pytest.approx(sw0, rel=1e-10)


def test_planner_bound_attained_under_independence():
    model, ss = fixture(correlated=False)
    case = tf.decentralized_case(st.powerwall(), np.full(3, 0.5))
    swept = sc.with_pv_capacity(ss, customer_kw=np.full(3, 2.0))
    bound = wf.planner_bound(model, swept, case)
    report = wf.evaluate(tf.optimal_two_part(model, swept, case, 20.0), model, swept, case)
    assert report.social_welfare == pytest.approx(bound, rel=1e-10)


def test_planner_bound_strict_margin_when_correlated():
    model, ss = fixture(correlated=True)
    case = tf.decentralized_case(st.powerwall(), np.full(3, 0.5))
    swept = sc.with_pv_capacity(ss, customer_kw=np.full(3, 2.0))
    bound = wf.planner_bound(model, swept, case)
    report = wf.evaluate(tf.optimal_two_part(model, swept, case, 20.0), model, swept, case)
    assert bound >= report.social_welfare - 1e-9
    # correlation gives the informed planner a real edge on this fixture
    assert bound > report.social_welfare + 1e-6


def test_planner_bound_reads_the_coupling():
    # dependent paired sets and the products of their marginals: the bound
    # conditions on each local row through the coupling, so it beats the
    # optimal tariff on the joint law and is attained on the product law.
    # Loads that fall with prices make the covariance term negative, so a
    # bound that priced every row at lam_bar would fall below the optimum
    # there and fail the first check, though it would pass the second
    model, joint = fixture(correlated=True)
    case = tf.decentralized_case(st.powerwall(), np.full(3, 0.5))
    kw = np.full(3, 2.0)
    for sign in (1.0, -1.0):
        dependent = sc.ScenarioSet(joint.probabilities, joint.price_matrix,
                                   sign * joint.disturbance_tensor, joint.solar_unit_matrix)
        for ss, is_dependent in ((dependent, True), (sc.split_marginals(dependent), False)):
            swept = sc.with_pv_capacity(ss, customer_kw=kw)
            bound = wf.planner_bound(model, swept, case)
            optimum = wf.evaluate(tf.optimal_decentralized(model, swept, case, 20.0), model, swept, case)
            if is_dependent:
                assert bound > optimum.social_welfare + 1e-6 * abs(bound), sign
            else:
                assert abs(bound - optimum.social_welfare) <= 1e-8 * abs(bound), sign


def test_planner_bound_dominates_random_tariffs():
    model, ss = fixture(correlated=False)
    bound = wf.planner_bound(model, ss, tf.no_der())
    rng = np.random.default_rng(17)
    for _ in range(10):
        tariff = tf.TwoPartTariff(rng.normal(), rng.uniform(0.01, 0.4, size=6))
        sw = wf.evaluate(tariff, model, ss, tf.no_der()).social_welfare
        assert bound >= sw - 1e-9


def test_planner_bound_rejects_centralized():
    model, ss = fixture()
    with pytest.raises(ValueError):
        wf.planner_bound(model, ss, tf.centralized_case())


def test_base_anchors_freeze_nominal_run():
    model, ss = fixture()
    nominal = tf.flat_tariff(0.4, 0.21, 6)
    anchors = wf.base_anchors(model, ss, nominal)
    report = wf.evaluate(nominal, model, ss, tf.no_der())
    for field in dataclasses.fields(tf.SurplusReport):
        np.testing.assert_array_equal(getattr(anchors, field.name), getattr(report, field.name))


def test_pareto_front_slope_minus_one_for_optimal_family():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    grid = [10.0, 15.0, 20.0, 25.0, 30.0]
    front = wf.pareto_front(
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, tf.no_der(), grid, anchors
    )
    assert [cell.fixed_cost for cell in front.cells] == grid
    assert all(cell.feasible and not cell.reason for cell in front.cells)
    cs = np.array([cell.cs_gain for cell in front.cells])
    rs = np.array([cell.rs_gain for cell in front.cells])
    slope = np.polyfit(rs, cs, 1)[0]
    assert slope == pytest.approx(-1.0, abs=1e-9)


def test_pareto_front_records_infeasible_grid_points():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    front = wf.pareto_front(
        tf.TariffFamily(kind=tf.FLAT_ZERO_A), model, ss, tf.no_der(), [10.0, 1e9], anchors
    )
    # an unreachable F keeps its grid place: no tariff, NaN gains, the solver's reason
    reached, unreached = front.cells
    assert reached.feasible and reached.fixed_cost == 10.0 and not reached.reason
    assert not unreached.feasible and unreached.fixed_cost == 1e9
    assert math.isnan(unreached.cs_gain) and math.isnan(unreached.rs_gain)
    assert "attain" in unreached.reason
    assert front.points == (reached,)


def test_flat_points_weakly_inside_optimal_front():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    grid = [8.0, 10.0, 12.0, 14.0]
    opt = wf.pareto_front(
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, tf.no_der(), grid, anchors
    )
    flat = wf.pareto_front(
        tf.TariffFamily(kind=tf.FLAT_ZERO_A), model, ss, tf.no_der(), grid, anchors
    )
    by_f = {p.fixed_cost: p for p in opt.points}
    for p in flat.points:
        assert by_f[p.fixed_cost].cs_gain - p.cs_gain >= -1e-9


def test_allocate_pv_fills_largest_classes_first():
    model, _ = fixture()  # counts 50/3 each, sigma increasing
    unit = 5.0
    kw, owners = wf.allocate_pv(model, 20 * unit, unit_kw=unit)
    # class 2 (largest sigma) fills first: 50/3 = 16.67 customers, then class 1
    assert kw[2] == pytest.approx(model.class_counts[2] * unit)
    assert kw[1] == pytest.approx(20 * unit - kw[2])
    assert kw[0] == 0.0
    assert owners[2] == math.ceil(model.class_counts[2])
    assert kw.sum() == pytest.approx(100.0)


def test_allocate_pv_fractional_tail_single_owner():
    model, _ = fixture()
    kw, owners = wf.allocate_pv(model, 12.5, unit_kw=5.0)
    assert kw[2] == pytest.approx(12.5)
    assert owners[2] == 3  # two full systems and one 2.5 kW remainder
    assert owners.sum() == 3


def test_allocate_pv_capacity_cap():
    model, _ = fixture()
    with pytest.raises(ValueError, match="exceeds"):
        wf.allocate_pv(model, model.customers * 5.0 + 10.0, unit_kw=5.0)
    kw, owners = wf.allocate_pv(model, 0.0, unit_kw=5.0)
    assert kw.sum() == 0.0 and owners.sum() == 0.0


def test_der_sweep_decentralized_gains_affine():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    f = 20.0
    grid = [0.0, 30.0, 60.0, 90.0]
    cells = wf.der_sweep(
        [tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART)],
        model, ss, tf.MODE_DECENTRALIZED, grid, 0.5, f, anchors, **DER_UNITS,
    )
    assert all(c.feasible for c in cells)
    gains = np.array([c.cs_gain for c in cells])
    fitted = np.polyval(np.polyfit(grid, gains, 1), grid)
    scale = max(1.0, np.abs(gains).max())
    assert np.max(np.abs(gains - fitted)) / scale <= 1e-9
    assert gains[-1] > gains[0]  # PV helps


def test_der_sweep_centralized_monotone_all_families():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    families = [
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART),
        tf.TariffFamily(kind=tf.FLAT_FIXED_A, fixed_connection_charge=0.4),
        tf.TariffFamily(kind=tf.DYNAMIC_FIXED_A, fixed_connection_charge=0.4),
    ]
    grid = [0.0, 25.0, 50.0, 75.0]
    cells = wf.der_sweep(
        families, model, ss, tf.MODE_CENTRALIZED, grid, 0.5, 20.0, anchors, **DER_UNITS
    )
    for fam in families:
        gains = [c.cs_gain for c in cells if c.family_kind == fam.kind and c.feasible]
        assert len(gains) == len(grid)
        assert all(b >= a - 1e-9 for a, b in zip(gains, gains[1:]))


def test_der_sweep_cells_carry_their_tariffs():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    cells = wf.der_sweep(
        [tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART)],
        model, ss, tf.MODE_DECENTRALIZED, [0.0, 40.0], 0.5, 20.0, anchors, **DER_UNITS,
    )
    for cell in cells:
        assert cell.tariff is not None


def test_der_sweep_marks_infeasible_cells():
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    cells = wf.der_sweep(
        [tf.TariffFamily(kind=tf.FLAT_ZERO_A)],
        model, ss, tf.MODE_DECENTRALIZED, [0.0, 30.0], 0.5, 14.0, anchors, **DER_UNITS,
    )
    assert cells[0].feasible
    assert not cells[1].feasible  # heavy PV guts volumetric revenue
    assert math.isnan(cells[1].cs_gain)
    assert "attain" in cells[1].reason


def test_cross_subsidy_zero_without_pv_and_for_optimal_family():
    model, ss = fixture(correlated=False)
    f = 20.0
    cells = wf.cross_subsidy(
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, [0.0, 40.0, 80.0], f, pv_unit_kw=5.0
    )
    assert cells[0].subsidy_norm == 0.0
    for cell in cells:
        assert cell.feasible
        assert abs(cell.subsidy_norm) <= 1e-8


def test_cross_subsidy_positive_increasing_for_flat_family():
    model, ss = fixture()
    f = 12.0
    # capacities up to ~50% of daily sales; beyond that net demand collapses
    cells = wf.cross_subsidy(
        tf.TariffFamily(kind=tf.FLAT_FIXED_A, fixed_connection_charge=0.2),
        model, ss, [0.0, 5.0, 10.0, 15.0, 20.0], f, pv_unit_kw=5.0,
    )
    subs = [c.subsidy_norm for c in cells]
    assert subs[0] == 0.0
    assert all(s > 0.0 for s in subs[1:])
    assert all(b >= a - 1e-12 for a, b in zip(subs, subs[1:]))


def test_cross_subsidy_owner_counts_follow_allocation():
    model, ss = fixture()
    cells = wf.cross_subsidy(
        tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART), model, ss, [0.0, 12.5], 20.0, pv_unit_kw=5.0
    )
    assert cells[0].owner_count == 0.0
    assert cells[1].owner_count == 3.0


def test_cross_subsidy_infeasible_cells_are_marked():
    model, ss = fixture()
    cells = wf.cross_subsidy(
        tf.TariffFamily(kind=tf.FLAT_ZERO_A), model, ss, [0.0, 30.0], 14.0, pv_unit_kw=5.0
    )
    assert cells[0].feasible
    assert not cells[1].feasible
    assert math.isnan(cells[1].subsidy_norm)
    assert cells[1].net_metering_tariff is None


def test_grid_cells_make_no_scenario_pass(study, anchors, monkeypatch):
    # every grid cell reads the study set's cached moments, which its PV
    # sets share: no demand kernel over scenarios and no reduction per
    # cell; only the optimal tariff's independent check sums over the scenarios
    ss, config = study.scenario_set, study.config
    ss.moments  # the study's one pass, E[w w^T] included
    calls = {"kernel": 0, "mean_row": 0, "reduced": 0, "metered": 0, "optimal": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    kernel = dm.demand

    def demand(model, sigma, prices, disturbances):
        # a (C, N) block is the one expected-demand row of the set's moments
        calls["kernel" if np.ndim(disturbances) == 3 else "mean_row"] += 1
        return kernel(model, sigma, prices, disturbances)

    monkeypatch.setattr(dm, "demand", demand)
    monkeypatch.setattr(dm, "gross_benefit", counted("kernel", dm.gross_benefit))
    monkeypatch.setattr(sc, "_reduced_moments", counted("reduced", sc._reduced_moments))
    monkeypatch.setattr(tf, "_metered_disturbance", counted("metered", tf._metered_disturbance))
    monkeypatch.setattr(tf, "optimal_two_part", counted("optimal", tf.optimal_two_part))
    families = [family for _, family in ingest.configured_families(config)]
    grid = config.capacity_grid_kw[:3]
    for family in families:
        wf.pareto_front(
            family, study.model, ss, tf.no_der(), [0.5 * study.fixed_cost, study.fixed_cost], anchors
        )
        wf.cross_subsidy(family, study.model, ss, grid, study.fixed_cost, pv_unit_kw=config.pv_unit_kw)
    for mode in (tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED):
        wf.der_sweep(
            families, study.model, ss, mode, grid, config.storage_per_pv_kwh_per_kw,
            study.fixed_cost, anchors, pv_unit_kw=config.pv_unit_kw,
            storage_unit=ingest.storage_unit_spec(config),
        )
    assert calls["kernel"] == 0
    # cross_subsidy's owner contributions: at most two rows per cell
    assert calls["mean_row"] <= 2 * len(families) * len(grid)
    # a rescaled set's moments, E[w w^T] included, are its source's, updated
    assert calls["reduced"] == 0
    assert calls["optimal"] > 0
    assert calls["metered"] == calls["optimal"]


@pytest.mark.parametrize("kind", [tf.OPTIMAL_TWO_PART, tf.DYNAMIC_ZERO_A])
def test_pareto_cell_settles_its_tariff_once(monkeypatch, kind):
    # the solve settles its tariff once, and the cell reads that settlement
    model, ss = fixture()
    anchors = wf.base_anchors(model, ss, tf.flat_tariff(0.4, 0.21, 6))
    settle, settled = tf.settle, []
    monkeypatch.setattr(tf, "settle", lambda tariff, *args: settled.append(tariff) or settle(tariff, *args))
    front = wf.pareto_front(tf.TariffFamily(kind=kind), model, ss, tf.no_der(), [10.0], anchors)
    (cell,) = front.points
    returned = [t for t in settled if t.connection_charge == cell.tariff.connection_charge
                and np.array_equal(t.prices, cell.tariff.prices)]
    assert len(returned) == 1
    report = settle(cell.tariff, model, ss, tf.no_der())
    assert cell.cs_gain == (report.consumer_surplus - anchors.consumer_surplus) / anchors.revenue


@pytest.mark.parametrize("mode", [tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED])
def test_evaluate_is_one_settlement(study, monkeypatch, mode):
    # one evaluate fetches the fleet's unit schedule once and meters once
    config = study.config
    swept, case = wf.sweep_fixture(
        study.model, study.scenario_set, mode, 1100e3, config.storage_per_pv_kwh_per_kw,
        ingest.storage_unit_spec(config), config.pv_unit_kw,
    )
    tariff = tf.optimal_two_part(study.model, swept, case, study.fixed_cost)
    calls = {"arbitrage_value": 0, "metered": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(st, "arbitrage_value", counted("arbitrage_value", st.arbitrage_value))
    monkeypatch.setattr(tf, "_metered", counted("metered", tf._metered))
    wf.evaluate(tariff, study.model, swept, case)
    assert calls == {"arbitrage_value": 1, "metered": 1}
