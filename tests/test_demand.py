import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from tariffkit import demand as dm


CALIBRATION_PRICE = 0.2  # small_model's flat calibration price, $/kWh


def small_model(n_classes=3, horizon=4):
    sales = np.array([10.0, 14.0, 18.0, 12.0][:horizon])
    return dm.calibrate(
        target_sales=sales,
        target_price=CALIBRATION_PRICE,
        elasticity=-0.3,
        n_classes=n_classes,
        sigma_rule="linear",
        total_customers=30.0,
    )


def class_demand(model, i, prices, w=None):
    """Class i's per-customer demand (N,) through the batched kernel."""
    w = np.zeros(model.horizon) if w is None else np.asarray(w, dtype=float)
    return dm.demand(model, model.sigma[i : i + 1], np.asarray(prices), w[None, None, :])[0, 0]


def class_benefits(model, i, bundles, w=None):
    """Class i's gross benefit of each bundle in ``bundles`` (G, N), as (G,)."""
    q = np.atleast_2d(np.asarray(bundles, dtype=float))[:, None, :]
    w = np.zeros(model.horizon) if w is None else np.asarray(w, dtype=float)
    return dm.gross_benefit(model, model.sigma[i : i + 1], q, np.broadcast_to(w, q.shape))[:, 0]


def test_class_sigmas_population_mean_one():
    counts = np.array([5.0, 3.0, 2.0])
    for rule in ("constant", "linear"):
        sig = dm.class_sigmas(3, rule, counts)
        assert float(counts @ sig) == pytest.approx(counts.sum(), rel=1e-12)
    with pytest.raises(ValueError, match="sigma_rule"):
        dm.class_sigmas(3, "quadratic", counts)
    with pytest.raises(ValueError):
        dm.class_sigmas(2, "constant", counts)


def test_linear_rule_orders_classes():
    sig = dm.class_sigmas(4, "linear", np.ones(4))
    assert np.all(np.diff(sig) > 0.0)
    assert sig[3] / sig[0] == pytest.approx(4.0, rel=1e-12)


def test_model_validation():
    good = small_model()
    with pytest.raises(ValueError, match="symmetric"):
        dm.DemandModel(
            sigma=good.sigma,
            base=good.base,
            slope=good.slope + np.triu(np.ones_like(good.slope), k=1),
            class_counts=good.class_counts,
        )
    with pytest.raises(ValueError, match="positive definite"):
        dm.DemandModel(
            sigma=good.sigma,
            base=good.base,
            slope=-good.slope,
            class_counts=good.class_counts,
        )
    with pytest.raises(ValueError, match="sigma"):
        dm.DemandModel(
            sigma=np.array([1.0, -1.0, 1.0]),
            base=good.base,
            slope=good.slope,
            class_counts=good.class_counts,
        )


def test_calibration_reproduces_target_sales():
    model = small_model()
    sales = np.array([10.0, 14.0, 18.0, 12.0])
    got = dm.aggregate_demand(model, np.full(model.horizon, CALIBRATION_PRICE))
    np.testing.assert_allclose(got, sales, rtol=1e-12)


def test_calibration_reproduces_elasticity():
    # numeric elasticity of total daily energy under a uniform price scaling
    model = small_model()
    pi = np.full(model.horizon, CALIBRATION_PRICE)
    eps = 1e-6
    up = dm.aggregate_demand(model, (1.0 + eps) * pi).sum()
    dn = dm.aggregate_demand(model, (1.0 - eps) * pi).sum()
    base = dm.aggregate_demand(model, pi).sum()
    elasticity = (up - dn) / (2.0 * eps * base)
    assert elasticity == pytest.approx(-0.3, rel=1e-6)


def test_calibration_input_validation():
    with pytest.raises(ValueError, match="elasticity"):
        dm.calibrate([1.0, 2.0], 0.2, elasticity=0.3)
    with pytest.raises(ValueError, match="target_sales"):
        dm.calibrate([1.0, -2.0], 0.2, elasticity=-0.3)
    with pytest.raises(ValueError, match="prices"):
        dm.calibrate([1.0, 2.0], -0.2, elasticity=-0.3)


def test_aggregate_is_count_weighted_sum_of_classes():
    model = small_model()
    rng = np.random.default_rng(5)
    pi = rng.uniform(0.1, 0.4, size=4)
    w = rng.normal(size=(3, 4))
    total = np.zeros(4)
    for i in range(3):
        total += model.class_counts[i] * class_demand(model, i, pi, w[i])
    agg = dm.aggregate_demand(model, pi, w)
    np.testing.assert_allclose(agg, total, rtol=1e-12)


def test_demand_slopes_down_in_every_period():
    model = small_model()
    pi = np.full(model.horizon, CALIBRATION_PRICE)
    q0 = class_demand(model, 1, pi)
    pi2 = pi.copy()
    pi2[2] += 0.05
    q1 = class_demand(model, 1, pi2)
    assert q1[2] < q0[2]


def test_gross_benefit_conjugate_foc():
    # the benefit gradient at the demanded bundle equals the price vector
    model = small_model()
    rng = np.random.default_rng(9)
    h = 0.25
    for _ in range(5):
        pi = rng.uniform(0.05, 0.5, size=4)
        w = rng.normal(scale=0.5, size=4)
        for i in range(model.n_classes):
            q = class_demand(model, i, pi, w)
            # central differences are exact for a quadratic up to rounding
            steps = h * np.eye(q.size)
            values = class_benefits(model, i, np.concatenate([q + steps, q - steps]), w)
            grad = (values[: q.size] - values[q.size :]) / (2.0 * h)
            np.testing.assert_allclose(grad, pi, rtol=1e-9, atol=1e-12)


def test_demand_maximizes_net_benefit():
    # perturbing the bundle away from D(pi, w) lowers S(q) - pi q
    model = small_model()
    rng = np.random.default_rng(13)
    pi = rng.uniform(0.1, 0.3, size=4)
    w = rng.normal(scale=0.3, size=4)
    i = 2
    q_star = class_demand(model, i, pi, w)
    best = float(class_benefits(model, i, q_star, w)[0]) - float(pi @ q_star)
    for _ in range(20):
        q = q_star + rng.normal(scale=0.5, size=4)
        value = float(class_benefits(model, i, q, w)[0]) - float(pi @ q)
        assert value <= best + 1e-12


def test_sigma_scales_demand_and_benefit():
    model = small_model()
    pi = np.array([0.1, 0.2, 0.15, 0.25])
    q1 = class_demand(model, 0, pi)
    q3 = class_demand(model, 2, pi)
    np.testing.assert_allclose(
        q3, model.sigma[2] / model.sigma[0] * q1, rtol=1e-12
    )
    # benefit is homogeneous alongside: S_i(sigma q) = sigma S_1(q) at w = 0
    b1 = float(class_benefits(model, 0, q1)[0])
    b3 = float(class_benefits(model, 2, q3)[0])
    assert b3 == pytest.approx(model.sigma[2] / model.sigma[0] * b1, rel=1e-12)


# within the 1e-12 symmetry tolerance, and its lower triangle (all that
# eigvalsh of the slope itself reads) is positive definite, but its
# symmetric part has eigenvalues -3e-13 and 5e-13
NEAR_SYMMETRIC_INDEFINITE = np.array([[1e-13, 8e-13], [0.0, 1e-13]])


def model_with_slope(slope):
    n = slope.shape[0]
    # sigma_total = 8, a power of two, so scaling the slope rounds nothing
    return dm.DemandModel(sigma=np.array([1.0, 3.0]), base=np.ones(n), slope=slope,
                          class_counts=np.array([2.0, 2.0]))


@hst.composite
def slopes(draw):
    """Square slopes at every scale: an eigenbasis, eigenvalues of either
    sign bounded away from zero, and an asymmetric part near the 1e-12
    symmetry tolerance."""
    n = draw(hst.integers(min_value=1, max_value=3))
    entries = hst.lists(hst.floats(min_value=-1.0, max_value=1.0), min_size=n * n, max_size=n * n)
    basis, _ = np.linalg.qr(np.reshape(draw(entries), (n, n)) + 4.0 * np.eye(n))
    eigs = [draw(hst.floats(min_value=0.01, max_value=1.0)) * draw(hst.sampled_from((-1.0, 1.0)))
            for _ in range(n)]
    scale = 10.0 ** draw(hst.integers(min_value=-14, max_value=1))
    skew = 2e-12 * np.reshape(draw(entries), (n, n))
    return scale * (basis * eigs) @ basis.T + skew, scale


@settings(max_examples=100, deadline=None)
@given(slopes())
@example((NEAR_SYMMETRIC_INDEFINITE, 1e-13))
def test_accepted_models_satisfy_assumption1(drawn):
    # Assumption 1: the aggregate price Jacobian -sigma_total B has a negative
    # definite symmetric part for every model the constructor accepts, and a
    # slope whose symmetric part is clearly indefinite is rejected by name
    slope, scale = drawn
    within_tolerance = np.allclose(slope, slope.T, rtol=0.0, atol=1e-12)  # the constructor's
    if within_tolerance and np.linalg.eigvalsh((slope + slope.T) / 2.0).min() <= -0.01 * scale:
        with pytest.raises(ValueError, match="min eig"):
            model_with_slope(slope)
        return
    try:
        model = model_with_slope(slope)
    except ValueError:
        return
    jac = -model.sigma_total * model.slope
    assert np.linalg.eigvalsh((jac + jac.T) / 2.0).max() < 0.0


def test_slope_failure_names_offending_eigenvalue():
    bad = np.diag([1.0, -2.0])
    with pytest.raises(ValueError) as excinfo:
        dm.DemandModel(
            sigma=np.array([1.0]),
            base=np.array([1.0, 1.0]),
            slope=bad,
            class_counts=np.array([1.0]),
        )
    assert "-2" in str(excinfo.value)
    # the symmetric part decides, even for a slope within the symmetry tolerance
    with pytest.raises(ValueError, match="positive definite, min eig -3"):
        model_with_slope(NEAR_SYMMETRIC_INDEFINITE)


@pytest.mark.parametrize(
    "field, value",
    [
        ("slope", [[np.inf, 0.0], [0.0, 1.0]]),
        ("slope", [[np.nan, 0.0], [0.0, 1.0]]),
        ("slope", [[1.0, -np.inf], [-np.inf, 1.0]]),
        ("base", [np.inf, 1.0]),
        ("base", [1.0, np.nan]),
    ],
)
def test_non_finite_base_or_slope_rejected(field, value):
    # an infinite slope has a Cholesky factor (with infinite entries), so
    # finiteness is checked on its own, and names the offending field
    fields = {"sigma": np.array([1.0]), "base": np.ones(2), "slope": np.eye(2),
              "class_counts": np.array([1.0])}
    fields[field] = np.array(value)
    with pytest.raises(ValueError, match=f"^{field} entries must be finite"):
        dm.DemandModel(**fields)


@settings(max_examples=40, deadline=None)
@given(
    hst.floats(min_value=-2.0, max_value=-0.01),
    hst.floats(min_value=0.05, max_value=1.0),
)
def test_calibration_anchors_property(elasticity, price):
    sales = np.array([3.0, 7.0, 5.0])
    model = dm.calibrate(sales, price, elasticity=elasticity, n_classes=2,
                         sigma_rule="linear", total_customers=10.0)
    calibration = np.full(sales.size, price)
    got = dm.aggregate_demand(model, calibration)
    np.testing.assert_allclose(got, sales, rtol=1e-9)
    eps = 1e-7
    up = dm.aggregate_demand(model, (1.0 + eps) * calibration).sum()
    dn = dm.aggregate_demand(model, (1.0 - eps) * calibration).sum()
    numeric = (up - dn) / (2.0 * eps * sales.sum())
    assert numeric == pytest.approx(elasticity, rel=1e-5)
