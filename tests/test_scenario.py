import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from tariffkit import ingest
from tariffkit import scenario as sc
from tariffkit import tariff as tf
from test_tariff import small_model


def three_day_set():
    # three joint days: prices and local states move together
    prices = [np.array([1.0, 2.0]), np.array([2.0, 1.0]), np.array([3.0, 3.0])]
    dist = [np.array([[0.5, -0.5]]), np.array([[-0.5, 0.5]]), np.array([[0.0, 0.0]])]
    solar = [np.array([0.2, 0.0]), np.array([0.4, 0.1]), np.array([0.0, 0.0])]
    return sc.ScenarioSet(np.full(3, 1.0 / 3.0), prices, dist, solar_unit_matrix=solar)


def price_set(price_rows, probabilities=None):
    # price uncertainty only: zero local states and a zero solar profile
    prices = np.array(price_rows, dtype=float)
    s, n = prices.shape
    if probabilities is None:
        probabilities = np.full(s, 1.0 / s)
    return sc.ScenarioSet(probabilities, prices, np.zeros((s, 1, n)), np.zeros((s, n)))


def test_probabilities_must_sum_to_one():
    good = price_set([[1.0, 2.0], [2.0, 1.0]])
    assert abs(good.probabilities.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="sum"):
        price_set([[1.0, 2.0], [2.0, 1.0]], probabilities=[0.6, 0.6])


def test_probability_tolerance_is_tight():
    eps = 1e-10  # just past tolerance
    with pytest.raises(ValueError):
        price_set([[1.0], [2.0]], probabilities=[0.5, 0.5 + eps])
    # within tolerance passes
    price_set([[1.0], [2.0]], probabilities=[0.5, 0.5 + 1e-13])


def test_scenario_shape_validation():
    with pytest.raises(ValueError):
        sc.ScenarioSet(
            probabilities=[1.0],
            price_matrix=[[1.0, 2.0]],
            disturbance_tensor=np.zeros((1, 1, 3)),
            solar_unit_matrix=np.zeros((1, 2)),
        )
    with pytest.raises(ValueError, match="probabilities"):
        sc.ScenarioSet([1.5], [[1.0, 2.0]], np.zeros((1, 1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        sc.ScenarioSet([1.0], [[1.0, np.nan]], np.zeros((1, 1, 2)), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="solar_unit has shape"):
        sc.ScenarioSet([1.0], [[1.0, 2.0]], np.zeros((1, 1, 2)), np.zeros((1, 3)))


def test_solar_profile_is_required():
    # every set carries its per-kW solar profile; a set without solar passes zeros
    with pytest.raises(TypeError):
        sc.ScenarioSet([1.0], [[1.0, 2.0]], np.zeros((1, 1, 2)))


def test_renewables_must_be_nonnegative():
    # renewables are capacity x solar profile, so both factors are checked
    with pytest.raises(ValueError, match="solar_unit must be non-negative"):
        sc.ScenarioSet(
            probabilities=[1.0],
            price_matrix=[[1.0, 2.0]],
            disturbance_tensor=np.zeros((1, 1, 2)),
            solar_unit_matrix=[[0.1, -0.1]],
        )
    with pytest.raises(ValueError, match="non-negative"):
        sc.with_pv_capacity(three_day_set(), retailer_kw=-1.0)
    with pytest.raises(ValueError, match="non-negative"):
        sc.with_pv_capacity(three_day_set(), customer_kw=[-1.0])


def test_arrays_are_frozen():
    (s,) = price_set([[1.0, 2.0]])
    with pytest.raises(ValueError):
        s.prices[0] = 5.0


def test_expectations_are_exact_weighted_sums():
    ss = price_set([[1.0, 4.0], [3.0, 0.0]], probabilities=[0.25, 0.75])
    np.testing.assert_allclose(sc.expect_price(ss), [2.5, 1.0], rtol=0, atol=0)
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
    ss = price_set(prices, probabilities=weights)

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
    ss = price_set([[1.0, 2.0], [5.0, 1.0]])
    got = sc.cov_trace(ss, lambda s: s.prices, lambda s: np.ones(2))
    assert got == pytest.approx(0.0, abs=1e-15)


def test_split_marginals_crosses_supports():
    ss = three_day_set()
    product = sc.split_marginals(ss)
    assert len(product) == 9
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
    # renewables are capacity x solar: the product of a PV set keeps its capacities
    swept = sc.split_marginals(sc.with_pv_capacity(ss, customer_kw=[3.0], retailer_kw=2.0))
    assert swept.customer_kw.tolist() == [3.0] and swept.retailer_kw == 2.0
    np.testing.assert_array_equal(swept.retailer_renewable_matrix, 2.0 * product.solar_unit_matrix)


# the four joint tensors of a paired set, which are its stored blocks and
# which a with_pv_capacity set shares with its input
STORED_TENSORS = ("probabilities", "price_matrix", "disturbance_tensor", "solar_unit_matrix")
# the blocks every set stores; a product set's coupling adds two weight vectors
STORED_BLOCKS = ("price_block", "disturbance_block", "solar_block")


def test_split_marginals_holds_one_copy():
    # a product set is the K-row blocks of its source under a new coupling:
    # building it copies nothing, and reducing its moments holds transients
    # of the K-row blocks only, never of its K^2 joint rows (NumPy reports
    # its buffers to tracemalloc)
    rng = np.random.default_rng(0)
    k, c, n = 20, 3, 24
    joint = sc.ScenarioSet(np.full(k, 1.0 / k), rng.uniform(0.02, 0.08, (k, n)),
                           rng.normal(size=(k, c, n)),
                           solar_unit_matrix=rng.uniform(0.0, 1.0, (k, n)))
    blocks = sum(getattr(joint, name).nbytes for name in STORED_BLOCKS)
    tracemalloc.start()
    try:
        product = sc.split_marginals(joint)
        _, split_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        product.moments
        _, moments_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(product) == k * k
    for name in STORED_BLOCKS:
        assert getattr(product, name) is getattr(joint, name)
    assert split_peak <= 0.1 * blocks, (split_peak, blocks)
    assert moments_peak <= 3 * blocks, (moments_peak, blocks)


def test_study_set_stores_only_its_data(independent_study):
    # renewables are PV capacity x solar profile: the shipped product study's
    # set stores its K-row price, disturbance and solar blocks and its two
    # marginal weight vectors, holds no array with a row per scenario, and
    # reads its (zero) renewable tensors as views that allocate nothing
    ss = independent_study.scenario_set
    ss.moments
    tracemalloc.start()
    try:
        renewables = (ss.customer_renewable_tensor, ss.retailer_renewable_matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(ss), peak  # less than one float per scenario
    assert not any(tensor.any() for tensor in renewables)
    assert all(len(tensor) == len(ss) for tensor in renewables)
    assert len(ss) == 20 * 20  # the study's 20 days are both blocks' rows
    arrays = {name: value for name, value in vars(ss).items() if isinstance(value, np.ndarray)}
    arrays.update(vars(ss.coupling))
    assert not any(len(value) == len(ss) for value in arrays.values())
    assert {name for name, value in arrays.items() if len(value) == 20} == {
        *STORED_BLOCKS, "price_weights", "local_weights"}
    # the joint tensors are built on read, for tests, demos and benchmark checks
    assert ss.price_matrix.shape == (len(ss), ss.horizon)
    assert "price_matrix" not in vars(ss)


def test_product_study_memory_is_linear_in_days(tmp_path):
    # 200 days make 40 000 product scenarios; their joint rows alone would
    # take tens of MB, but the set and its moments hold only the K-row blocks
    ingest.write_synthetic_dataset(tmp_path, seed=0, n_days=200, horizon=24, correlated=False)
    config = ingest.load_config(tmp_path / "study.yaml")
    tracemalloc.start()
    try:
        study = ingest.build_study(config)
        study.scenario_set.moments
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(study.scenario_set) == 40_000
    assert peak < 4e6, peak


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


def test_pv_set_shares_its_source_moments():
    # the moments hold no capacity: a PV set, and a PV set of a PV set,
    # share the tensors and the one reduction of the set they were made from
    ss = three_day_set()
    swept = sc.with_pv_capacity(ss, customer_kw=[3.0], retailer_kw=2.0)
    again = sc.with_pv_capacity(swept, customer_kw=[1.0])
    assert swept.moments is ss.moments
    assert again.moments is ss.moments
    assert again.customer_kw.tolist() == [1.0] and again.retailer_kw == 0.0
    for name in STORED_TENSORS:
        assert getattr(again, name) is getattr(ss, name)


@settings(max_examples=50, deadline=None)
@given(
    hst.lists(
        hst.lists(hst.floats(min_value=-5.0, max_value=5.0), min_size=3, max_size=3),
        min_size=2,
        max_size=5,
    )
)
def test_expectation_linear_in_fields(price_rows):
    ss = price_set(price_rows)
    a = sc.expect_vector(ss, lambda s: s.prices)
    b = sc.expect_vector(ss, lambda s: 3.0 * s.prices + 1.0)
    np.testing.assert_allclose(b, 3.0 * a + 1.0, rtol=0, atol=1e-12)


def _row_keys(ss):
    # (price row, local row) of each scenario, as hashable bytes
    return [(row.prices.tobytes(), row.disturbances.tobytes() + row.solar_unit.tobytes())
            for row in ss]


@settings(max_examples=50, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    n_days=hst.integers(min_value=1, max_value=6),
    n_classes=hst.integers(min_value=1, max_value=3),
    solar=hst.booleans(),
)
def test_split_marginals_crosses_rows_with_the_marginal_law(seed, n_days, n_classes, solar):
    # joint days draw their price and local rows from pools of three, so
    # rows repeat on either side and the two blocks are dependent
    rng = np.random.default_rng(seed)
    horizon = 3
    price_pick = rng.integers(0, 3, size=n_days)
    local_pick = rng.integers(0, 3, size=n_days)
    solar_pool = rng.uniform(0.0, 1.0, size=(3, horizon))
    joint = sc.ScenarioSet(
        rng.dirichlet(np.ones(n_days)),
        rng.uniform(0.02, 0.08, size=(3, horizon))[price_pick],
        rng.normal(size=(3, n_classes, horizon))[local_pick],
        solar_unit_matrix=solar_pool[local_pick] if solar else np.zeros((n_days, horizon)),
    )
    product = sc.split_marginals(joint)

    # S^2 rows, price-major: row a S + b is price row a with local row b
    s = n_days
    a, b = np.divmod(np.arange(s * s), s)
    assert len(product) == s * s
    np.testing.assert_array_equal(product.price_matrix, joint.price_matrix[a])
    np.testing.assert_array_equal(product.disturbance_tensor, joint.disturbance_tensor[b])
    np.testing.assert_array_equal(product.solar_unit_matrix, joint.solar_unit_matrix[b])

    # summed per distinct (price row, local row), the weights are p(a) q(b)
    p, q, law = {}, {}, {}
    for (x, y), w in zip(_row_keys(joint), joint.probabilities):
        p[x] = p.get(x, 0.0) + w
        q[y] = q.get(y, 0.0) + w
    for key, w in zip(_row_keys(product), product.probabilities):
        law[key] = law.get(key, 0.0) + w
    assert law.keys() == {(x, y) for x in p for y in q}
    for (x, y), w in law.items():
        assert w == pytest.approx(p[x] * q[y], rel=1e-12)

    # the marginal means are kept and prices no longer covary with the disturbances
    np.testing.assert_allclose(product.moments.mean_price, joint.moments.mean_price, rtol=0, atol=1e-12)
    np.testing.assert_allclose(product.moments.mean_disturbance, joint.moments.mean_disturbance,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(product.moments.disturbance_cov, 0.0, rtol=0, atol=1e-12)


def _explicit_product(joint):
    # the product law written out as S^2 paired rows, price-major, without
    # the library's coupling: the reference a product set must reproduce
    s = len(joint)
    price_rows, local_rows = np.divmod(np.arange(s * s), s)
    weights = joint.probabilities
    return sc.ScenarioSet(weights[price_rows] * weights[local_rows], joint.price_block[price_rows],
                          joint.disturbance_block[local_rows], joint.solar_block[local_rows])


@settings(max_examples=40, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2**32 - 1),
    n_days=hst.integers(min_value=1, max_value=6),
    n_classes=hst.integers(min_value=1, max_value=3),
    pv=hst.booleans(),
)
def test_product_coupling_matches_explicit_rows(seed, n_days, n_classes, pv):
    # a product set reduces its moments from its marginals; the same law
    # as K^2 explicit paired rows must give the same moments and tariffs
    rng = np.random.default_rng(seed)
    horizon = 4
    model = small_model(rng, horizon, n_classes)
    price_pick = rng.integers(0, 3, size=n_days)
    local_pick = rng.integers(0, 3, size=n_days)
    joint = sc.ScenarioSet(
        rng.dirichlet(np.ones(n_days)),
        rng.uniform(0.02, 0.08, size=(3, horizon))[price_pick],
        np.outer(model.sigma, np.ones(horizon))[None] * rng.normal(size=(3, 1, horizon))[local_pick],
        solar_unit_matrix=rng.uniform(0.0, 1.0, size=(3, horizon))[local_pick],
    )
    product, explicit = sc.split_marginals(joint), _explicit_product(joint)
    case = tf.no_der()
    if pv:
        kw = rng.uniform(0.0, 3.0, size=n_classes)
        product, explicit = (sc.with_pv_capacity(ss, customer_kw=kw) for ss in (product, explicit))
        case = tf.decentralized_case()
    assert len(product) == len(explicit) == n_days**2
    assert isinstance(product.coupling, sc.Product) and isinstance(explicit.coupling, sc.Paired)

    # the centred cross moments are rounding noise on both routes: compare
    # them on the scale of the uncentred products they are differences of
    got, want = product.moments, explicit.moments
    cross_scale = horizon * 0.08 * max(1.0, float(np.abs(joint.disturbance_block).max()))
    for name in ("mean_price", "mean_disturbance", "disturbance_second_moment", "mean_solar",
                 "solar_value"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=1e-15,
                                   err_msg=name)
    for name in ("disturbance_cov", "solar_cov"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12,
                                   atol=1e-12 * cross_scale, err_msg=name)

    # the optimum, and the fixed-A restricted families, to 12 digits
    fixed_cost = 0.8 * tf.settle(tf.flat_tariff(0.0, 0.2, horizon), model, explicit, case).retailer_surplus
    optima = [tf.optimal_two_part(model, ss, case, fixed_cost) for ss in (product, explicit)]
    assert optima[0].connection_charge == pytest.approx(optima[1].connection_charge, rel=5e-12)
    np.testing.assert_allclose(optima[0].prices, optima[1].prices, rtol=5e-12, atol=0)
    for kind in tf.FIXED_A_KINDS:
        family = tf.TariffFamily(kind=kind, fixed_connection_charge=0.3)
        solved = []
        for ss in (product, explicit):
            try:
                solved.append(tf.optimize_family_report(family, model, ss, case, fixed_cost).tariff.prices)
            except tf.InfeasibleFamilyError:
                solved.append(None)
        assert (solved[0] is None) == (solved[1] is None), kind
        if solved[0] is not None:
            np.testing.assert_allclose(solved[0], solved[1], rtol=5e-12, atol=0, err_msg=kind)
