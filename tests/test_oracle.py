import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tariffkit import oracle
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf
from tariffkit import welfare as wf
from test_tariff import fixture as small_study, small_model


def fixture(seed, horizon=6, n_classes=3):
    return small_study(seed=seed, horizon=horizon, n_classes=n_classes, solar_max=0.3)


def assert_reports_agree(a: tf.SurplusReport, b: tf.SurplusReport, rtol=1e-9):
    for field in dataclasses.fields(tf.SurplusReport):
        got = getattr(a, field.name)
        want = getattr(b, field.name)
        if field.name == "per_class_consumer_surplus":
            np.testing.assert_allclose(got, want, rtol=rtol, atol=1e-12)
        elif field.name == "negative_demand_pairs":
            assert got == want
        else:
            assert got == pytest.approx(want, rel=rtol, abs=1e-12), field.name


def test_resim_agrees_with_evaluate_across_cases():
    for seed in (2, 3, 4):
        model, ss = fixture(seed)
        rng = np.random.default_rng(seed + 100)
        tariff = tf.TwoPartTariff(rng.uniform(-1, 1), rng.uniform(0.05, 0.3, size=6))

        cases = [
            (tf.no_der(), ss),
            (
                tf.decentralized_case(st.powerwall(), rng.uniform(0.0, 1.0, size=3)),
                sc.with_pv_capacity(ss, customer_kw=rng.uniform(0.0, 3.0, size=3)),
            ),
            (
                tf.centralized_case(st.powerwall(), rng.uniform(0.0, 2.0)),
                sc.with_pv_capacity(ss, retailer_kw=rng.uniform(0.0, 6.0)),
            ),
        ]
        for case, swept in cases:
            main = wf.evaluate(tariff, model, swept, case)
            resim = oracle.settlement_resim(tariff, model, swept, case)
            assert_reports_agree(resim, main)


def test_resim_connection_charge_shift_is_lump_sum():
    model, ss = fixture(5)
    delta = 0.37
    pi = np.full(6, 0.2)
    a = oracle.settlement_resim(tf.TwoPartTariff(0.5, pi), model, ss, tf.no_der())
    b = oracle.settlement_resim(tf.TwoPartTariff(0.5 + delta, pi), model, ss, tf.no_der())
    assert b.consumer_surplus - a.consumer_surplus == pytest.approx(
        -model.customers * delta, rel=1e-12
    )
    assert b.retailer_surplus - a.retailer_surplus == pytest.approx(
        model.customers * delta, rel=1e-12
    )


def test_resim_storage_neutral_at_constant_prices():
    # with one constant price day and the tariff pinned to it, any storage
    # cycling is value-neutral for the retailer
    model, _ = fixture(6)
    flat = np.full(6, 0.08)
    ss = sc.ScenarioSet([1.0], [flat], np.zeros((1, 3, 6)), np.zeros((1, 6)))
    tariff = tf.TwoPartTariff(0.4, flat)
    none = oracle.settlement_resim(tariff, model, ss, tf.no_der())
    fleet = oracle.settlement_resim(
        tariff, model, ss, tf.decentralized_case(st.powerwall(), np.full(3, 2.0))
    )
    assert fleet.retailer_surplus == pytest.approx(none.retailer_surplus, rel=1e-12)
    assert fleet.fleet_value == pytest.approx(0.0, abs=1e-10)


def test_root_find_matches_closed_form_charge():
    model, ss = fixture(7)
    f = 20.0
    tariff = tf.optimal_decentralized(model, ss, tf.no_der(), f)
    a_root = oracle.connection_charge_root_find(tariff.prices, model, ss, tf.no_der(), f)
    assert a_root == pytest.approx(tariff.connection_charge, rel=1e-10)

    # with behind-the-meter resources too
    case = tf.decentralized_case(st.idealized(1.0), np.full(3, 0.5))
    swept = sc.with_pv_capacity(ss, customer_kw=np.full(3, 1.0))
    tariff2 = tf.optimal_decentralized(model, swept, case, f)
    a_root2 = oracle.connection_charge_root_find(tariff2.prices, model, swept, case, f)
    assert a_root2 == pytest.approx(tariff2.connection_charge, rel=1e-10)


def test_planner_direct_deterministic_set():
    model, _ = fixture(8)
    lam = np.array([0.02, 0.09, 0.04, 0.07, 0.03, 0.05])
    ss = sc.ScenarioSet([1.0], [lam], np.zeros((1, 3, 6)), np.zeros((1, 6)))
    got = oracle.planner_direct(model, ss, tf.no_der())
    want = wf.planner_bound(model, ss, tf.no_der())
    assert got == pytest.approx(want, rel=1e-12)
    # deterministic world: the planner just prices at the spot vector
    sw = wf.evaluate(tf.TwoPartTariff(0.0, lam), model, ss, tf.no_der()).social_welfare
    assert got == pytest.approx(sw, rel=1e-12)


def test_planner_direct_independent_two_by_two():
    model, _ = fixture(9)
    lam_days = [np.full(6, 0.04), np.full(6, 0.09)]
    dist_days = [0.4, -0.4]
    prices = [lam for lam in lam_days for _ in dist_days]
    disturbances = [
        np.outer(model.sigma, np.full(6, d) / model.sigma_total) for _ in lam_days for d in dist_days
    ]
    ss = sc.ScenarioSet(np.full(4, 0.25), prices, disturbances, np.zeros((4, 6)))
    case = tf.decentralized_case(st.idealized(0.8), np.full(3, 0.5))
    got = oracle.planner_direct(model, ss, case)
    want = wf.planner_bound(model, ss, case)
    assert got == pytest.approx(want, rel=1e-8)


def test_planner_direct_correlated_set():
    model, ss = fixture(10)
    swept = sc.with_pv_capacity(ss, customer_kw=np.full(3, 1.0))
    case = tf.decentralized_case(st.idealized(0.8), np.full(3, 0.5))
    got = oracle.planner_direct(model, swept, case)
    want = wf.planner_bound(model, swept, case)
    assert got == pytest.approx(want, rel=1e-8)


def test_planner_direct_rejects_centralized_and_caps_support():
    model, ss = fixture(11)
    with pytest.raises(ValueError):
        oracle.planner_direct(model, ss, tf.centralized_case())
    rng = np.random.default_rng(0)
    days = [(rng.uniform(0.01, 0.1, size=6), rng.normal(size=(3, 6))) for _ in range(17)]
    many = sc.ScenarioSet(
        np.full(17, 1.0 / 17), [lam for lam, _ in days], [dist for _, dist in days],
        np.zeros((17, 6)),
    )
    with pytest.raises(ValueError, match="cap"):
        oracle.planner_direct(model, many, tf.no_der())


def test_storage_brute_force_validation():
    with pytest.raises(ValueError, match="grid_steps"):
        oracle.storage_brute_force(st.idealized(1.0), [1.0, 2.0], grid_steps=0)


@settings(max_examples=25, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    n_days=hst.integers(min_value=1, max_value=6),
    n_classes=hst.integers(min_value=1, max_value=4),
)
def test_product_sets_settle_like_the_oracle(seed, n_days, n_classes):
    horizon = 6
    rng = np.random.default_rng(seed)
    model = small_model(rng, horizon, n_classes)
    price_days = np.clip(0.05 + 0.03 * rng.normal(size=(n_days, horizon)), 0.005, None)
    load_days = rng.normal(size=(n_days, horizon))
    solar_days = rng.uniform(0.0, 0.3, size=(n_days, horizon))
    # joint days draw their price and local day independently, with repeats
    price_pick = rng.integers(0, n_days, size=n_days)
    local_pick = rng.integers(0, n_days, size=n_days)
    weights = rng.uniform(0.1, 1.0, size=n_days)
    weights /= weights.sum()
    tensors = (
        price_days[price_pick],
        model.sigma[None, :, None] * (load_days[local_pick] / model.sigma_total)[:, None, :],
        solar_days[local_pick],
    )
    joint = sc.ScenarioSet(weights, *tensors)

    # iteration returns the rows of the tensors the set was built from, with no PV
    assert len(joint) == n_days
    for k, got in enumerate(joint):
        assert got.probability == weights[k]
        for name, tensor in zip(("prices", "disturbances", "solar_unit"), tensors):
            assert np.array_equal(getattr(got, name), tensor[k])
        assert not (got.renewable_customer.any() or got.renewable_retailer.any())

    product = sc.split_marginals(joint)

    tariff = tf.TwoPartTariff(rng.uniform(-1, 1), rng.uniform(0.05, 0.3, size=horizon))
    cases = [
        (tf.no_der(), product),
        (
            tf.decentralized_case(st.powerwall(), rng.uniform(0.0, 1.0, size=n_classes)),
            sc.with_pv_capacity(product, customer_kw=rng.uniform(0.0, 3.0, size=n_classes)),
        ),
        (
            tf.centralized_case(st.powerwall(), rng.uniform(0.0, 2.0)),
            sc.with_pv_capacity(product, retailer_kw=rng.uniform(0.0, 6.0)),
        ),
    ]
    for case, swept in cases:
        main = wf.evaluate(tariff, model, swept, case)
        resim = oracle.settlement_resim(tariff, model, swept, case)
        assert_reports_agree(resim, main)


@settings(max_examples=30, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    n_days=hst.integers(min_value=1, max_value=5),
    n_classes=hst.integers(min_value=1, max_value=4),
    horizon=hst.integers(min_value=2, max_value=6),
    product=hst.booleans(),
    mode=hst.sampled_from(tf.MODES),
)
def test_evaluate_matches_settlement(seed, n_days, n_classes, horizon, product, mode):
    # evaluate reads the set's moments; the oracle settles every (scenario, class) pair
    rng = np.random.default_rng(seed)
    model = small_model(rng, horizon, n_classes)
    shock = rng.normal(size=(n_days, 1))
    weights = rng.dirichlet(np.ones(n_days))
    days = [
        (
            np.clip(0.05 + 0.03 * rng.normal(size=horizon) + 0.04 * shock[k], 0.005, None),
            np.outer(model.sigma, (0.8 * shock[k] + 0.3 * rng.normal(size=horizon)) / model.sigma_total),
            rng.uniform(0.0, 0.3, size=horizon),
        )
        for k in range(n_days)
    ]
    prices, disturbances, solar = zip(*days)
    ss = sc.ScenarioSet(weights, prices, disturbances, solar_unit_matrix=solar)
    if product:
        ss = sc.split_marginals(ss)
    lossy = st.StorageSpec(
        capacity_kwh=float(rng.uniform(0.5, 8.0)),
        charge_rate_kw=float(rng.uniform(0.5, 4.0)),
        discharge_rate_kw=float(rng.uniform(0.5, 4.0)),
        efficiency=float(rng.uniform(0.7, 0.99)),
    )
    case = {
        tf.MODE_NONE: tf.no_der(),
        tf.MODE_DECENTRALIZED: tf.decentralized_case(lossy, rng.uniform(0.0, 2.0, size=n_classes)),
        tf.MODE_CENTRALIZED: tf.centralized_case(lossy, float(rng.uniform(0.0, 3.0))),
    }[mode]
    swept = sc.with_pv_capacity(
        ss, customer_kw=rng.uniform(0.0, 4.0, size=n_classes), retailer_kw=float(rng.uniform(0.0, 8.0))
    )
    tariff = tf.TwoPartTariff(-rng.uniform(0.01, 2.0), rng.uniform(0.05, 0.3, size=horizon))
    assert_reports_agree(oracle.settlement_resim(tariff, model, swept, case),
                         wf.evaluate(tariff, model, swept, case))

    # the moments hold no capacity: scaled by the kW on each side, the
    # per-kW solar moments give the renewable terms summed over every
    # scenario, and each class's meter is its scenario sum
    probs, lam = swept.probabilities, swept.price_matrix
    fleet = rng.normal(scale=5.0, size=(n_classes, horizon))  # any per-class fleet
    served = model.sigma[:, None] * (model.base - model.slope @ tariff.prices)  # (C, N) per customer
    for side in tf.MODES:
        side_case = tf.IntegrationCase(mode=side)
        renewables = {tf.MODE_NONE: np.zeros_like(lam),
                      tf.MODE_DECENTRALIZED: swept.customer_renewable_tensor.sum(axis=1),
                      tf.MODE_CENTRALIZED: swept.retailer_renewable_matrix}[side]
        np.testing.assert_allclose(tf.renewable_value(side_case, swept),
                                   probs @ np.einsum("sn,sn->s", lam, renewables), rtol=1e-12, atol=1e-14)
        energy, cov = tf._metered(model, swept, side_case, tariff.prices, fleet)
        for c in range(n_classes):
            metered = model.class_counts[c] * (served[c] + swept.disturbance_tensor[:, c, :]) - fleet[c]
            if side_case.uses_customer_der:
                metered = metered - swept.customer_renewable_tensor[:, c, :]
            centred = np.einsum("sn,sn->s", lam - probs @ lam, metered - probs @ metered)
            scale = float(np.abs(metered).max())
            np.testing.assert_allclose(energy[c], probs @ metered, rtol=1e-12, atol=1e-12 * scale,
                                       err_msg=side)
            np.testing.assert_allclose(cov[c], probs @ centred, rtol=1e-12, atol=1e-14, err_msg=side)


def test_oracle_shares_no_settlement_code():
    # the oracle's settlement must stay independent of the library's: it
    # imports nothing from welfare and reads only the tariff module's
    # records and mode constants
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
            if node.module == "tariff":
                read |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "tf":
            read.add(node.attr)
    assert not any("welfare" in name for name in imported), imported
    forbidden = {"settle", "_metered", "expected_retailer_surplus", "customer_fleet_meter", "fleet_value"}
    assert not read & forbidden
    allowed = {"TwoPartTariff", "IntegrationCase", "SurplusReport"}
    assert {name for name in read if not name.startswith("MODE_")} <= allowed, read


def test_oracle_builds_product_rows_from_the_blocks(monkeypatch):
    # the engines build a product set's rows from its two blocks and their
    # weights: with the set's row view and joint tensors disabled they still
    # agree with the library's moment route
    model, joint = fixture(5, horizon=4, n_classes=2)
    product = sc.with_pv_capacity(sc.split_marginals(joint), customer_kw=[1.5, 0.5])
    case = tf.decentralized_case(st.idealized(2.0), np.array([0.5, 1.0]))
    tariff = tf.TwoPartTariff(0.2, np.linspace(0.05, 0.25, model.horizon))
    main = wf.evaluate(tariff, model, product, case)
    bound = wf.planner_bound(model, product, case)

    def disabled(*args):
        raise AssertionError("the oracle read the library's joint rows")

    monkeypatch.setattr(sc.ScenarioSet, "__iter__", disabled)
    for name in ("probabilities", "price_matrix", "disturbance_tensor", "solar_unit_matrix",
                 "customer_renewable_tensor", "retailer_renewable_matrix"):
        monkeypatch.setattr(sc.ScenarioSet, name, property(disabled))
    assert_reports_agree(oracle.settlement_resim(tariff, model, product, case), main)
    assert oracle.planner_direct(model, product, case) == pytest.approx(bound, rel=1e-9)
