import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as hst

from tariffkit import simplex
from tariffkit import storage as st


def scipy_max(c, G, h):
    res = scipy.optimize.linprog(-np.asarray(c, dtype=float), A_ub=G, b_ub=h,
                                 bounds=[(0, None)] * len(c), method="highs")
    assert res.status == 0
    return -res.fun


def test_small_known_lp():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6
    x, value, *_ = simplex.maximize([1.0, 1.0], [[1.0, 2.0], [3.0, 1.0]], [4.0, 6.0])
    assert value == pytest.approx(2.8, rel=1e-12)
    np.testing.assert_allclose(x, [1.6, 1.2], rtol=1e-12, atol=1e-12)


def test_solution_is_feasible_vertex():
    G = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
    h = np.array([2.0, 3.0, 1.5])
    x, value, *_ = simplex.maximize([2.0, 1.0, 3.0], G, h)
    assert np.all(x >= -1e-12)
    assert np.all(G @ x <= h + 1e-9)
    assert value == pytest.approx(float(np.array([2.0, 1.0, 3.0]) @ x), rel=1e-12)


def test_zero_objective():
    x, value, *_ = simplex.maximize([0.0, 0.0], [[1.0, 1.0]], [1.0])
    assert value == 0.0


def test_unbounded_detected():
    with pytest.raises(simplex.UnboundedError):
        simplex.maximize([1.0, 0.0], [[0.0, 1.0]], [1.0])


def test_dimension_and_sign_validation():
    with pytest.raises(ValueError):
        simplex.maximize([1.0], [[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError):
        simplex.maximize([1.0, 2.0], [[1.0, 2.0]], [-1.0])


def test_degenerate_problem_terminates():
    # many redundant constraints through the same vertex
    G = np.array([
        [1.0, 0.0], [1.0, 0.0], [1.0, 0.0],
        [0.0, 1.0], [0.0, 1.0],
        [1.0, 1.0], [1.0, 1.0],
    ])
    h = np.array([1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    x, value, *_ = simplex.maximize([1.0, 1.0], G, h)
    assert value == pytest.approx(2.0, rel=1e-12)


def test_matches_scipy_on_random_instances():
    rng = np.random.default_rng(11)
    for _ in range(40):
        m = rng.integers(2, 8)
        n = rng.integers(2, 6)
        G = rng.uniform(0.05, 1.0, size=(m, n))  # positive rows keep it bounded
        h = rng.uniform(0.5, 3.0, size=m)
        c = rng.uniform(-1.0, 2.0, size=n)
        _, value, *_ = simplex.maximize(c, G, h)
        assert value == pytest.approx(scipy_max(c, G, h), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    hst.integers(min_value=0, max_value=2 ** 32 - 1),
    hst.integers(min_value=1, max_value=5),
    hst.integers(min_value=1, max_value=6),
)
def test_agrees_with_scipy_property(seed, n, m):
    rng = np.random.default_rng(seed)
    G = rng.uniform(0.1, 1.0, size=(m, n))
    h = rng.uniform(0.0, 2.0, size=m)
    c = rng.uniform(-1.0, 1.0, size=n)
    _, value, *_ = simplex.maximize(c, G, h)
    assert value == pytest.approx(scipy_max(c, G, h), rel=1e-8, abs=1e-8)


def dense_pivot_reference(c, G, h):
    """The earlier pivot loop: every row updated, list basis, key-function ties."""
    m, n = G.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = G
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = h
    T[m, :n] = -c
    basis = list(range(n, n + m))
    bland = False
    stalled = 0
    last_objective = 0.0
    for _ in range(simplex.MAX_ITERATIONS):
        obj = T[m, : n + m]
        if bland:
            candidates = np.nonzero(obj < -simplex.PIVOT_TOL)[0]
            if candidates.size == 0:
                break
            j = int(candidates[0])
        else:
            j = int(np.argmin(obj))
            if obj[j] >= -simplex.PIVOT_TOL:
                break
        col = T[:m, j]
        eligible = np.nonzero(col > simplex.PIVOT_TOL)[0]
        ratios = T[eligible, -1] / col[eligible]
        best = np.min(ratios)
        ties = eligible[ratios <= best + simplex.PIVOT_TOL * max(1.0, abs(best))]
        row = int(min(ties, key=lambda i: basis[i]))
        pivot = T[row, j]
        T[row] /= pivot
        factors = T[:, j].copy()
        factors[row] = 0.0
        T -= np.outer(factors, T[row])
        basis[row] = j
        objective = T[m, -1]
        if objective <= last_objective + simplex.PIVOT_TOL:
            stalled += 1
            if stalled >= simplex.DEGENERATE_STREAK:
                bland = True
        else:
            stalled = 0
        last_objective = objective
    x = np.zeros(n + m)
    for i, var in enumerate(basis):
        x[var] = T[i, -1]
    return x[:n], float(T[m, -1])


STORAGE_SPECS = (
    st.idealized(6.4),
    st.powerwall(),
    st.StorageSpec(capacity_kwh=10.0, charge_rate_kw=2.5, discharge_rate_kw=4.0, efficiency=0.9),
)


def storage_lp(spec, n):
    """(G, h) of one storage unit's arbitrage LP over x = (charge, discharge):
    the running state of charge in [0, capacity] and the rate caps."""
    c_cap, d_cap = st.rate_caps(spec, n)
    lower = np.tri(n)  # prefix-sum operator
    soc_step = np.hstack([spec.efficiency * lower, -lower / spec.efficiency])
    G = np.vstack([soc_step, -soc_step, np.eye(2 * n)])
    h = np.concatenate([np.full(n, spec.capacity_kwh), np.zeros(n), c_cap, d_cap])
    return G, h


@settings(max_examples=40, deadline=None)
@given(
    hst.integers(min_value=0, max_value=2 ** 32 - 1),
    hst.sampled_from(STORAGE_SPECS),
    hst.sampled_from([2, 3, 6]),
)
def test_pivot_matches_dense_reference_on_storage_lps(seed, spec, decimals):
    # bit-identical, since fleet cycles are detected by comparing bytes;
    # rounded prices make ratio and objective ties common
    rng = np.random.default_rng(seed)
    prices = np.round(rng.uniform(-0.05, 0.4, size=24), decimals)
    G, h = storage_lp(spec, 24)
    c = np.concatenate([-prices, prices])
    x, value, *_ = simplex.maximize(c, G, h)
    x_ref, value_ref = dense_pivot_reference(c, G, h)
    assert x.tobytes() == x_ref.tobytes()
    assert value == value_ref
