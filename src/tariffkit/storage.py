"""Storage arbitrage against a known price vector.

The unit problem is a small LP: split the meter-side action into charge and
discharge streams, track the state of charge through a one-way efficiency,
and maximize the value of energy sold minus energy bought.  Every unit
starts empty.  With unit efficiency and unlimited rates this reduces exactly
to maximizing pi^T s over the set of schedules whose running withdrawals
stay inside [0, capacity].

Only the objective depends on the prices.  The constraint matrix and
right-hand side are built once per (spec, horizon) and cached as read-only
arrays; solved schedules are cached per (spec, price bytes).  A unit with
no capacity, or one that no schedule can profit from (see ``_idle``), gets
the zero schedule without an LP solve.

Each (spec, horizon) also keeps its ``VERTEX_STORE_SIZE`` most recently
used optimal vertices: the final basis of a simplex solve, its nonbasic
reduced costs as a linear map of the prices (read off the final tableau)
and its schedule.  A new price vector reuses a stored vertex when every
nonbasic reduced cost at those prices exceeds ``simplex.PIVOT_TOL``.  That
certifies the vertex as the unique optimum, so a cold solve would end there
too (LP sensitivity analysis; Bertsimas and Tsitsiklis 1997, section 5.1).
A reused vertex shares its schedule arrays and gets the value at the new
prices; a vertex is stored only when its own prices certify it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import simplex
from .scenario import as_price_vector

POWERWALL_CAPACITY_KWH = 6.4
POWERWALL_RATE_KW = 3.3
POWERWALL_EFFICIENCY = 0.96

_ZERO_TOL = 1e-11
VERTEX_STORE_SIZE = 2


@dataclass(frozen=True)
class StorageSpec:
    """Physical parameters of one storage unit.

    ``capacity_kwh`` bounds the state of charge, which starts at zero;
    ``efficiency`` applies one way on each of charge and discharge; rates
    are meter-side kW limits and may be infinite.
    """

    capacity_kwh: float
    charge_rate_kw: float = math.inf
    discharge_rate_kw: float = math.inf
    efficiency: float = 1.0
    period_hours: float = 1.0

    def __post_init__(self):
        if not (self.capacity_kwh >= 0.0 and math.isfinite(self.capacity_kwh)):
            raise ValueError(f"capacity_kwh must be finite and >= 0, got {self.capacity_kwh}")
        if not (self.charge_rate_kw > 0.0 and self.discharge_rate_kw > 0.0):
            raise ValueError("rates must be positive (may be infinite)")
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if not (self.period_hours > 0.0 and math.isfinite(self.period_hours)):
            raise ValueError("period_hours must be finite and positive")


def idealized(capacity_kwh: float) -> StorageSpec:
    """Lossless, rate-unlimited unit starting empty."""
    return StorageSpec(capacity_kwh=capacity_kwh)


def powerwall() -> StorageSpec:
    return StorageSpec(
        capacity_kwh=POWERWALL_CAPACITY_KWH,
        charge_rate_kw=POWERWALL_RATE_KW,
        discharge_rate_kw=POWERWALL_RATE_KW,
        efficiency=POWERWALL_EFFICIENCY,
    )


@dataclass(frozen=True)
class StorageSchedule:
    """One unit's optimal response to a price vector.

    ``meter_energy`` is the net meter-side energy per period, kWh,
    positive for discharge; ``state_of_charge`` has length N+1 and starts
    at zero.  Only the value is contract-bearing: when the LP optimum is
    degenerate the schedule is one optimal vertex among several.
    """

    meter_energy: np.ndarray
    charge: np.ndarray
    discharge: np.ndarray
    state_of_charge: np.ndarray
    value: float


def rate_caps(spec: StorageSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-period charge and discharge energy caps, capacity-capped if unrated.

    Infinite rates are replaced by one-period fill/drain caps, an exact
    reformulation at unit efficiency (a period cannot usefully move more
    than the capacity).
    """
    h = spec.period_hours
    eta = spec.efficiency
    c_cap = spec.charge_rate_kw * h
    d_cap = spec.discharge_rate_kw * h
    if not math.isfinite(c_cap):
        c_cap = spec.capacity_kwh / eta
    if not math.isfinite(d_cap):
        d_cap = spec.capacity_kwh * eta
    return np.full(n, c_cap), np.full(n, d_cap)


@lru_cache(maxsize=64)
def _constraints(spec: StorageSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (G, h) of the unit LP; they do not depend on the prices."""
    theta = spec.capacity_kwh
    eta = spec.efficiency
    c_cap, d_cap = rate_caps(spec, n)
    # variables x = (charge_1..N, discharge_1..N)
    lower = np.tri(n)  # prefix-sum operator
    soc_step = np.hstack([eta * lower, -lower / eta])
    G = np.vstack(
        [
            soc_step,  # soc_k <= theta
            -soc_step,  # -soc_k <= 0
            np.hstack([np.eye(n), np.zeros((n, n))]),
            np.hstack([np.zeros((n, n)), np.eye(n)]),
        ]
    )
    h = np.concatenate([np.full(n, theta), np.zeros(n), c_cap, d_cap])
    G.setflags(write=False)
    h.setflags(write=False)
    return G, h


def _idle(spec: StorageSpec, prices: np.ndarray) -> bool:
    """Whether no schedule beats holding still: no price is negative, and no
    price net of the round-trip loss exceeds an earlier price,
    eta^2 p_j <= min_{i<j} p_i.

    Every discharged kWh then costs at least its sale value to have
    charged, so the LP optimum is the zero schedule, which the simplex
    reaches from x = 0 through degenerate pivots only.
    """
    if prices.min() < 0.0:
        return False
    earlier_min = np.minimum.accumulate(prices)[:-1]
    return bool(np.all(spec.efficiency**2 * prices[1:] <= earlier_min))


@dataclass(frozen=True, eq=False)
class _Vertex:
    """An optimal basis of the unit LP, kept for reuse at other prices.

    ``basis[i]`` is the column basic in tableau row i.  Its nonbasic reduced
    costs are linear in the objective, ``obj @ pricing``, and ``x`` is the
    LP solution (charge, discharge) behind ``schedule``.
    """

    basis: np.ndarray
    pricing: np.ndarray
    x: np.ndarray
    schedule: StorageSchedule


def _vertex(basis: np.ndarray, rows: np.ndarray, x: np.ndarray, schedule: StorageSchedule) -> _Vertex:
    """The vertex of a final tableau whose constraint block is ``rows``.

    A column's reduced cost is c_B^T B^-1 a_j - c_j; slacks cost nothing, so
    only rows with a structural basic column and the -c_j of structural
    columns enter ``pricing``.
    """
    k = x.size
    nonbasic = np.ones(rows.shape[1], dtype=bool)
    nonbasic[basis] = False
    columns = nonbasic.nonzero()[0]
    structural = basis < k
    pricing = np.zeros((k, columns.size))
    pricing[basis[structural]] = rows[np.ix_(structural, nonbasic)]
    # a nonbasic column's own row above is zero, so -c_j is a plain -1
    own = columns < k
    pricing[columns[own], own.nonzero()[0]] = -1.0
    return _Vertex(basis, pricing, x, schedule)


def _certified(vertex: _Vertex, obj: np.ndarray) -> bool:
    """Whether every nonbasic reduced cost of ``vertex`` under objective
    ``obj`` exceeds the pivot tolerance, so the vertex is the unique optimum."""
    return bool((obj @ vertex.pricing).min() > simplex.PIVOT_TOL)


@lru_cache(maxsize=64)
def _vertex_store(spec: StorageSpec, n: int) -> list[_Vertex]:
    """The mutable vertex store of one (spec, horizon), most recently used first."""
    return []


@lru_cache(maxsize=1024)
def _solve(spec: StorageSpec, price_bytes: bytes, n: int) -> StorageSchedule:
    prices = np.frombuffer(price_bytes, dtype=float)
    theta = spec.capacity_kwh
    eta = spec.efficiency

    if theta <= 0.0 or _idle(spec, prices):
        zero = np.zeros(n)
        zero.setflags(write=False)
        soc = np.zeros(n + 1)
        soc.setflags(write=False)
        return StorageSchedule(zero, zero, zero, soc, 0.0)

    obj = np.concatenate([-prices, prices])
    store = _vertex_store(spec, n)
    for k, vertex in enumerate(store):
        if _certified(vertex, obj):
            store.insert(0, store.pop(k))
            return replace(vertex.schedule, value=float(obj @ vertex.x))

    G, h = _constraints(spec, n)
    x, value, basis, rows = simplex.maximize(obj, G, h)

    charge = np.where(np.abs(x[:n]) < _ZERO_TOL, 0.0, x[:n])
    discharge = np.where(np.abs(x[n:]) < _ZERO_TOL, 0.0, x[n:])
    meter = discharge - charge
    soc = np.concatenate([[0.0], np.cumsum(eta * charge - discharge / eta)])
    if soc.min() < -1e-7 or soc.max() > theta + 1e-7:
        raise ArithmeticError("storage LP produced an out-of-bounds state of charge")
    soc = np.clip(soc, 0.0, theta)
    for arr in (charge, discharge, meter, soc):
        arr.setflags(write=False)
    schedule = StorageSchedule(meter, charge, discharge, soc, value)
    vertex = _vertex(basis, rows, x, schedule)
    if _certified(vertex, obj):
        store.insert(0, vertex)
        del store[VERTEX_STORE_SIZE:]
    return schedule


def clear_caches() -> None:
    """Forget every cached schedule and stored vertex: the next call solves its LP."""
    _solve.cache_clear()
    _vertex_store.cache_clear()


def arbitrage_value(spec: StorageSpec, prices) -> tuple[float, StorageSchedule]:
    """Optimal arbitrage value of one unit and an achieving schedule.

    The zero schedule is always feasible, so the value is never negative.
    """
    prices = as_price_vector(prices)
    schedule = _solve(spec, prices.tobytes(), prices.size)
    return schedule.value, schedule

