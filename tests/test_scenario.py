import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tariffkit import scenario as sc


def three_day_set():
    # three joint days: prices and local states move together
    prices = [np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([3.0, 3.0])]
    dist = [np.array([[0.5, -0.5]]), np.array([[-0.5, 0.5]]), np.array([[0.0, 0.0]])]
    solar = [np.array([0.2, 0.0]), np.array([0.4, 0.1]), np.array([0.0, 0.0])]
    return sc.ScenarioSet(np.full(3, 1.0 / 3.0), prices, dist, solar_unit_matrix=solar)


def test_probabilities_must_sum_to_one():
    good = sc.from_prices([[1.0, 2.0], [2.0, 1.0]])
    assert abs(good.probabilities.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="sum"):
        sc.from_prices([[1.0, 2.0], [2.0, 1.0]], probabilities=[0.6, 0.6])


def test_probability_tolerance_is_tight():
    eps = 1e-10  # just past tolerance
    with pytest.raises(ValueError):
        sc.from_prices([[1.0], [2.0]], probabilities=[0.5, 0.5 + eps])
    # within tolerance passes
    sc.from_prices([[1.0], [2.0]], probabilities=[0.5, 0.5 + 1e-13])


def test_scenario_shape_validation():
    with pytest.raises(ValueError):
        sc.ScenarioSet(
            probabilities=[1.0],
            price_matrix=[[1.0, 2.0]],
            disturbance_tensor=np.zeros((1, 1, 3)),
            customer_renewable_tensor=np.zeros((1, 1, 3)),
            retailer_renewable_matrix=np.zeros((1, 3)),
        )
    with pytest.raises(ValueError, match="probabilities"):
        sc.ScenarioSet([1.5], [[1.0, 2.0]], np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        sc.ScenarioSet([1.0], [[1.0, np.nan]], np.zeros((1, 1, 2)))


def test_renewables_must_be_nonnegative():
    with pytest.raises(ValueError):
        sc.ScenarioSet(
            probabilities=[1.0],
            price_matrix=[[1.0, 2.0]],
            disturbance_tensor=np.zeros((1, 1, 2)),
            customer_renewable_tensor=[[[0.1, -0.1]]],
            retailer_renewable_matrix=np.zeros((1, 2)),
        )


def test_arrays_are_frozen():
    (s,) = sc.ScenarioSet([1.0], [[1.0, 2.0]], np.zeros((1, 1, 2)))
    with pytest.raises(ValueError):
        s.prices[0] = 5.0


def test_expectations_are_exact_weighted_sums():
    ss = sc.from_prices([[1.0, 4.0], [3.0, 0.0]], probabilities=[0.25, 0.75])
    np.testing.assert_allclose(sc.expect_price(ss), [2.5, 1.0], rtol=0, atol=0)
    assert sc.expect_scalar(ss, lambda s: s.prices[0]) == 2.5
    np.testing.assert_allclose(
        sc.expect_vector(ss, lambda s: 2.0 * s.prices), [5.0, 2.0], rtol=0, atol=0
    )


def test_cov_trace_matches_moment_identity():
    # population covariance: E[a b] - E[a] E[b], summed over periods
    rng = np.random.default_rng(7)
    k, n = 6, 4
    prices = rng.uniform(0.5, 3.0, size=(k, n))
    weights = rng.uniform(0.1, 1.0, size=k)
    weights /= weights.sum()
    ss = sc.from_prices(list(prices), probabilities=list(weights))

    def sel_a(s):
        return s.prices

    def sel_b(s):
        return s.prices ** 2

    got = sc.cov_trace(ss, sel_a, sel_b)
    mean_a = weights @ prices
    mean_b = weights @ prices ** 2
    want = float(np.sum(weights @ (prices * prices ** 2) - mean_a * mean_b))
    assert got == pytest.approx(want, rel=1e-12)


def test_cov_trace_zero_on_constant_field():
    ss = sc.from_prices([[1.0, 2.0], [5.0, 1.0]])
    got = sc.cov_trace(ss, lambda s: s.prices, lambda s: np.ones(2))
    assert got == pytest.approx(0.0, abs=1e-15)


def test_split_marginals_crosses_supports():
    ss = three_day_set()
    product = sc.split_marginals(ss)
    assert len(product) == 9
    assert product.independent
    assert abs(product.probabilities.sum() - 1.0) <= 1e-12
    # marginals preserved
    np.testing.assert_allclose(
        sc.expect_price(product), sc.expect_price(ss), rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(
        sc.expect_vector(product, lambda s: s.disturbances[0]),
        sc.expect_vector(ss, lambda s: s.disturbances[0]),
        rtol=0,
        atol=1e-15,
    )
    # independence: price and local-state fields decorrelate
    got = sc.cov_trace(product, lambda s: s.prices, lambda s: s.disturbances[0])
    assert got == pytest.approx(0.0, abs=1e-12)
    # the original joint set is correlated, so the split changed something
    joint = sc.cov_trace(ss, lambda s: s.prices, lambda s: s.disturbances[0])
    assert abs(joint) > 1e-3


def test_split_marginals_keeps_solar_with_local_block():
    # solar is part of the local state: the product must pair each load
    # deviation with its own solar day, not cross them
    ss = three_day_set()
    product = sc.split_marginals(ss)
    pairs = {(s.disturbances[0].tobytes(), s.solar_unit.tobytes()) for s in product}
    original = {(s.disturbances[0].tobytes(), s.solar_unit.tobytes()) for s in ss}
    assert pairs == original


def test_split_marginals_idempotent():
    product = sc.split_marginals(three_day_set())
    again = sc.split_marginals(product)
    assert len(again) == len(product)
    np.testing.assert_allclose(
        np.sort(again.probabilities), np.sort(product.probabilities), rtol=0, atol=1e-15
    )


def test_split_marginals_merges_repeated_days():
    # duplicate price days accumulate marginal weight instead of splitting support
    joint = sc.ScenarioSet([0.5, 0.5], [[1.0, 2.0], [1.0, 2.0]], [[[1.0, 0.0]], [[-1.0, 0.0]]])
    product = sc.split_marginals(joint)
    assert len(product) == 2  # one price point x two local states


def test_with_pv_capacity_scales_solar():
    ss = three_day_set()
    swept = sc.with_pv_capacity(ss, customer_kw=[3.0], retailer_kw=2.0)
    for before, after in zip(ss, swept):
        np.testing.assert_allclose(
            after.renewable_customer[0], 3.0 * before.solar_unit, rtol=0, atol=0
        )
        np.testing.assert_allclose(
            after.renewable_retailer, 2.0 * before.solar_unit, rtol=0, atol=0
        )
    # original untouched
    assert ss.customer_renewable_tensor.max() == 0.0


def test_with_pv_capacity_requires_solar_profile():
    ss = sc.from_prices([[1.0, 2.0]])
    with pytest.raises(ValueError, match="solar"):
        sc.with_pv_capacity(ss, retailer_kw=1.0)
    with pytest.raises(ValueError):
        sc.with_pv_capacity(three_day_set(), customer_kw=[-1.0])


@settings(max_examples=50, deadline=None)
@given(
    hst.lists(
        hst.lists(hst.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    )
)
def test_expectation_linear_in_fields(price_rows):
    ss = sc.from_prices([np.array(r) for r in price_rows])
    a = sc.expect_vector(ss, lambda s: s.prices)
    b = sc.expect_vector(ss, lambda s: 3.0 * s.prices + 1.0)
    np.testing.assert_allclose(b, 3.0 * a + 1.0, rtol=0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(hst.integers(min_value=1, max_value=4), hst.integers(min_value=1, max_value=4))
def test_split_marginals_size_is_support_product(n_prices, n_locals):
    rng = np.random.default_rng(n_prices * 10 + n_locals)
    k = n_prices * n_locals
    price_days = rng.uniform(1.0, 2.0, size=(n_prices, 3))
    local_days = rng.uniform(-1.0, 1.0, size=(n_locals, 3))
    joint = sc.ScenarioSet(
        np.full(k, 1.0 / k),
        np.repeat(price_days, n_locals, axis=0),
        np.tile(local_days, (n_prices, 1))[:, None, :],
    )
    product = sc.split_marginals(joint)
    assert len(product) == k
