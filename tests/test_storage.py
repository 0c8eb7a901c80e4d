import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from tariffkit import oracle
from tariffkit import storage as st


def test_spec_validation():
    with pytest.raises(ValueError):
        st.StorageSpec(capacity_kwh=-1.0)
    with pytest.raises(ValueError):
        st.StorageSpec(capacity_kwh=1.0, efficiency=0.0)
    with pytest.raises(ValueError):
        st.StorageSpec(capacity_kwh=1.0, efficiency=1.2)
    with pytest.raises(ValueError):
        st.StorageSpec(capacity_kwh=1.0, charge_rate_kw=0.0)


def test_powerwall_constants():
    spec = st.powerwall()
    assert spec.capacity_kwh == 6.4
    assert spec.charge_rate_kw == 3.3
    assert spec.discharge_rate_kw == 3.3
    assert spec.efficiency == 0.96


def test_hand_instance_value_two():
    # buy one unit at 1, sell it at 3
    value, schedule = st.arbitrage_value(st.idealized(1.0), [1.0, 3.0, 2.0])
    assert value == 2.0
    np.testing.assert_allclose(schedule.meter_energy, [-1.0, 1.0, 0.0], atol=1e-12)
    assert oracle.storage_brute_force(st.idealized(1.0), [1.0, 3.0, 2.0]) == 2.0


def test_zero_capacity_unit_is_inert():
    value, schedule = st.arbitrage_value(st.idealized(0.0), [1.0, 9.0])
    assert value == 0.0
    assert schedule.meter_energy.max() == 0.0


def test_value_nonnegative_and_zero_on_flat_prices():
    for spec in (st.idealized(2.0), st.powerwall()):
        value, _ = st.arbitrage_value(spec, np.full(5, 3.0))
        assert value == pytest.approx(0.0, abs=1e-9)
        value, _ = st.arbitrage_value(spec, [4.0, 1.0, 0.5])  # falling prices
        assert value >= -1e-12


def test_value_homogeneous_in_prices():
    prices = np.array([1.0, 3.0, 0.5, 2.5])
    v1, _ = st.arbitrage_value(st.powerwall(), prices)
    v3, _ = st.arbitrage_value(st.powerwall(), 3.0 * prices)
    assert v3 == pytest.approx(3.0 * v1, rel=1e-12)


def test_efficiency_losses_enter_both_ways():
    # eta = 0.5: 2 grid-kWh fill a 1 kWh unit, which then meters out 0.5 kWh
    spec = st.StorageSpec(capacity_kwh=1.0, efficiency=0.5)
    value, schedule = st.arbitrage_value(spec, [1.0, 5.0])
    assert value == pytest.approx(0.5, rel=1e-12)
    np.testing.assert_allclose(schedule.charge, [2.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(schedule.discharge, [0.0, 0.5], atol=1e-9)


def test_rate_caps_bind():
    spec = st.StorageSpec(capacity_kwh=10.0, charge_rate_kw=1.0, discharge_rate_kw=1.0)
    value, schedule = st.arbitrage_value(spec, [1.0, 2.0, 10.0])
    # at most 1 kWh can move per hour-long period
    assert schedule.charge.max() <= 1.0 + 1e-9
    assert schedule.discharge.max() <= 1.0 + 1e-9
    # only one kWh fits through the final period: buy at 1, sell at 10
    assert value == pytest.approx(9.0, rel=1e-12)


def test_schedule_is_feasible_and_prices_out():
    rng = np.random.default_rng(3)
    for _ in range(10):
        prices = rng.uniform(0.0, 4.0, size=6)
        spec = st.powerwall()
        value, s = st.arbitrage_value(spec, prices)
        c_cap, d_cap = st.rate_caps(spec, 6)
        assert np.all(s.charge <= c_cap + 1e-9)
        assert np.all(s.discharge <= d_cap + 1e-9)
        assert s.state_of_charge.min() >= -1e-9
        assert s.state_of_charge.max() <= spec.capacity_kwh + 1e-9
        np.testing.assert_allclose(s.meter_energy, s.discharge - s.charge, atol=1e-12)
        assert value == pytest.approx(float(prices @ s.meter_energy), abs=1e-8)


def test_rate_caps_helper():
    c_cap, d_cap = st.rate_caps(st.StorageSpec(capacity_kwh=4.0, charge_rate_kw=2.0,
                                               discharge_rate_kw=3.0), 3)
    np.testing.assert_allclose(c_cap, 2.0)
    np.testing.assert_allclose(d_cap, 3.0)
    # unrated units fall back to one-period fill/drain
    c_cap, d_cap = st.rate_caps(st.StorageSpec(capacity_kwh=4.0, efficiency=0.8), 2)
    np.testing.assert_allclose(c_cap, 5.0)
    np.testing.assert_allclose(d_cap, 3.2)


def test_dp_oracle_horizon_cap():
    with pytest.raises(ValueError, match="cap"):
        oracle.storage_brute_force(st.idealized(1.0), np.ones(7))


def test_dp_is_lower_bound_with_grid_gap():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = rng.integers(2, 5)
        theta = rng.uniform(0.5, 3.0)
        prices = rng.uniform(0.0, 4.0, size=n)
        lp, _ = st.arbitrage_value(st.idealized(theta), prices)
        dp = oracle.storage_brute_force(st.idealized(theta), prices, grid_steps=10)
        gap = lp - dp
        assert gap >= -1e-9
        assert gap <= theta * np.abs(prices).sum() / 10 + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    hst.lists(hst.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=4),
    hst.floats(min_value=0.1, max_value=2.0),
)
def test_single_cycle_lower_bound(prices, theta):
    # one full charge/discharge cycle across the best price pair is feasible
    prices = np.array(prices)
    best = 0.0
    for t in range(prices.size):
        for u in range(t + 1, prices.size):
            best = max(best, prices[u] - prices[t])
    value, _ = st.arbitrage_value(st.idealized(theta), prices)
    assert value >= theta * best - 1e-9


@settings(max_examples=30, deadline=None)
@given(hst.integers(min_value=0, max_value=2 ** 32 - 1))
def test_dp_tight_on_idealized_units(seed):
    # every LP vertex of the idealized unit has soc in {0, theta}, which
    # the lattice contains, so DP with any grid matches the LP exactly
    rng = np.random.default_rng(seed)
    prices = rng.uniform(0.0, 4.0, size=4)
    theta = rng.uniform(0.5, 2.0)
    lp, _ = st.arbitrage_value(st.idealized(theta), prices)
    dp = oracle.storage_brute_force(st.idealized(theta), prices, grid_steps=1)
    assert dp == pytest.approx(lp, rel=1e-10, abs=1e-10)


def _counting_solves(monkeypatch):
    """The argument tuples of every storage dynamic-program solve from here on."""
    calls = []
    original = st._dynamic_program

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(st, "_dynamic_program", counted)
    return calls


@settings(max_examples=60, deadline=None)
@given(
    start=hst.floats(min_value=0.0, max_value=5.0),
    steps=hst.lists(hst.floats(min_value=0.0, max_value=1.0), max_size=23),
    efficiency=hst.sampled_from([1.0, 0.96, 0.8]),
    rated=hst.booleans(),
)
def test_idle_unit_skips_lp_with_the_lp_schedule(start, steps, efficiency, rated):
    # each price is at most the running minimum grossed up by the round-trip
    # loss, so no schedule beats holding still; the solve the idle check skips
    # picks the zero schedule too
    prices = [start]
    for step in steps:
        prices.append(step * min(prices) / efficiency**2)
    prices = np.array(prices)
    spec = st.StorageSpec(
        capacity_kwh=6.4,
        charge_rate_kw=3.3 if rated else math.inf,
        discharge_rate_kw=3.3 if rated else math.inf,
        efficiency=efficiency,
    )
    assume(st._idle(spec, prices))
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _counting_solves(monkeypatch)
        st.clear_caches()
        value, schedule = st.arbitrage_value(spec, prices)
    assert calls == []

    solved = st._dynamic_program(spec, prices)
    assert value == solved.value == 0.0
    for name in ("charge", "discharge", "meter_energy", "state_of_charge"):
        np.testing.assert_array_equal(getattr(schedule, name), getattr(solved, name))
        assert not getattr(solved, name).any()


def test_profitable_unit_still_solves(monkeypatch):
    calls = _counting_solves(monkeypatch)
    st.clear_caches()
    # 0.96^2 * 1.1 exceeds the earlier price 1.0, so one cycle pays
    prices = [1.0, 1.1]
    assert not st._idle(st.powerwall(), np.array(prices))
    value, _ = st.arbitrage_value(st.powerwall(), prices)
    assert len(calls) == 1
    assert value > 0.0
    # a unit facing a negative price is never idle
    assert not st._idle(st.idealized(2.0), np.array([1.0, -0.5]))


def _price_vector(kind, rng, n):
    """Prices of one kind: uniform (general position), shifted below zero,
    rounded to two digits (tied), or constant over blocks of 1 to 6 periods."""
    if kind == "uniform":
        return rng.uniform(0.0, 0.5, size=n)
    if kind == "negative":
        return rng.uniform(-0.2, 0.3, size=n)
    if kind == "rounded":
        return np.round(rng.uniform(-0.05, 0.4, size=n), 2)
    block = int(rng.integers(1, 7))
    return np.repeat(rng.uniform(-0.05, 0.4, size=n // block + 1), block)[:n]


@settings(max_examples=80, deadline=None)
@given(
    seed=hst.integers(min_value=0, max_value=2 ** 32 - 1),
    n=hst.integers(min_value=2, max_value=96),
    efficiency=hst.floats(min_value=0.5, max_value=1.0),
    rates=hst.sampled_from([(math.inf, math.inf), (3.3, 3.3), (0.7, 2.5), (4.0, 0.9)]),
    kind=hst.sampled_from(["uniform", "negative", "rounded", "block"]),
)
def test_dynamic_program_matches_scipy(seed, n, efficiency, rates, kind):
    rng = np.random.default_rng(seed)
    prices = _price_vector(kind, rng, n)
    spec = st.StorageSpec(capacity_kwh=float(rng.uniform(0.5, 10.0)), charge_rate_kw=rates[0],
                          discharge_rate_kw=rates[1], efficiency=efficiency)
    schedule = st._dynamic_program(spec, prices)
    value, meter = oracle._linprog_schedule(spec, prices)
    tolerance = 1e-12 * max(1.0, abs(value))
    # HiGHS stops within its 1e-7 optimality tolerance, which can miss burn
    # cycles (at efficiency just below 1 they earn about 2 (1 - eta) |p| per
    # kWh); a feasible schedule cannot beat the optimum, so there the
    # reference bounds the value from below only
    assert schedule.value >= value - tolerance
    if not 1.0 - 1e-4 < efficiency < 1.0:
        assert schedule.value <= value + tolerance

    c_cap, d_cap = st.rate_caps(spec, n)
    soc = np.cumsum(efficiency * schedule.charge - schedule.discharge / efficiency)
    assert soc.min() >= -1e-12 * spec.capacity_kwh
    assert soc.max() <= spec.capacity_kwh * (1.0 + 1e-12)
    assert np.all((schedule.charge >= 0.0) & (schedule.charge <= c_cap))
    assert np.all((schedule.discharge >= 0.0) & (schedule.discharge <= d_cap))
    np.testing.assert_array_equal(schedule.meter_energy, schedule.discharge - schedule.charge)
    if kind == "uniform":  # no ties, so the optimum is unique
        np.testing.assert_allclose(schedule.meter_energy, meter, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("prices, charge, discharge", [
    # equal sale prices: sell in the first, holding the energy the shortest time
    ([0.2, 0.3, 0.3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
    # equal purchase prices: buy in the last
    ([0.2, 0.2, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]),
    # every cycle is worth zero, so none starts
    ([0.2] * 4, [0.0] * 4, [0.0] * 4),
])
def test_ties_hold_energy_the_shortest_time(prices, charge, discharge):
    schedule = st._dynamic_program(st.idealized(1.0), np.array(prices))
    np.testing.assert_array_equal(schedule.charge, charge)
    np.testing.assert_array_equal(schedule.discharge, discharge)
    assert schedule.value == pytest.approx(0.1 if prices[-1] == 0.3 else 0.0, abs=1e-15)
