"""Storage arbitrage against a known price vector.

A unit splits its meter-side action into charge and discharge streams,
tracks its state of charge through a one-way efficiency, and maximizes the
value of energy sold minus energy bought.  Every unit starts empty.  With
unit efficiency and unlimited rates this reduces exactly to maximizing
pi^T s over the set of schedules whose running withdrawals stay inside
[0, capacity].

The unit has a single state, and the best value of the energy it holds is
concave and piecewise linear in that state, so a forward pass over slopes
solves it exactly (Bellman 1957; Veinott 1964): see ``_dynamic_program``.
Solved schedules are cached per (spec, price bytes).  A unit with no
capacity, or one that no schedule can profit from (see ``_idle``), gets the
zero schedule without a solve.

Where several schedules are optimal, energy is held for the shortest time:
on equal slopes a period's own pieces come before energy carried from
earlier periods, and a period gives up discharge before it charges.  The
final state of charge is the smallest optimal one, so a tie never starts a
zero-value cycle.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scenario import as_price_vector

POWERWALL_CAPACITY_KWH = 6.4
POWERWALL_RATE_KW = 3.3
POWERWALL_EFFICIENCY = 0.96

_ZERO_TOL = 1e-11


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
    at zero.  Where several schedules are optimal, this is the one the
    module's tie rule picks: energy is held for the shortest time, and the
    final state of charge is the smallest optimal one.
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


def _idle(spec: StorageSpec, prices: np.ndarray) -> bool:
    """Whether no schedule beats holding still: no price is negative, and no
    price net of the round-trip loss exceeds an earlier price,
    eta^2 p_j <= min_{i<j} p_i.

    Every discharged kWh then costs at least its sale value to have
    charged, so the zero schedule is optimal, and it is the one
    ``_dynamic_program`` picks under the tie rule.
    """
    if prices.min() < 0.0:
        return False
    earlier_min = np.minimum.accumulate(prices)[:-1]
    return bool(np.all(spec.efficiency**2 * prices[1:] <= earlier_min))


def _dynamic_program(spec: StorageSpec, prices: np.ndarray) -> StorageSchedule:
    """The optimal schedule under the module's tie rule, by one forward pass.

    Measured from full discharge, a period's reward is concave in the kWh of
    state it adds: each kWh of discharge given up costs p eta, over d / eta,
    and each kWh charged costs p / eta, over eta c.  The value of the energy
    held after a period is every piece so far merged by cost (a
    sup-convolution of concave functions), after the d / eta that full
    discharge owes is bought from its cheapest end and with the rest cut to
    the capacity.  The pieces bought by those debts, and at the end every
    piece of negative cost, make the schedule.  On equal costs a piece's
    key (-period, kind) puts newer periods first and, within a period,
    giving up discharge before charging: the module's tie rule.
    """
    n = prices.size
    eta = spec.efficiency
    c_cap, d_cap = rate_caps(spec, n)
    bought = [[0.0, 0.0] for _ in range(n)]  # kWh of state per period: discharge given up, charge
    # [cost per kWh of state, -period, kind: 0 gives up discharge, 1 charges, kWh], cheapest first
    pieces: list[list] = []
    for t, (p, c, d) in enumerate(zip(prices.tolist(), c_cap.tolist(), d_cap.tolist())):
        bisect.insort(pieces, [p * eta, -t, 0, d / eta])
        bisect.insort(pieces, [p / eta, -t, 1, eta * c])
        owed = d / eta  # full discharge leaves the state this far below zero
        while owed > 0.0:
            piece = pieces[0]
            step = min(owed, piece[3])
            bought[-piece[1]][piece[2]] += step
            owed -= step
            piece[3] -= step
            if piece[3] <= 0.0:
                del pieces[0]
        room = spec.capacity_kwh
        for k, piece in enumerate(pieces):
            if piece[3] >= room:
                piece[3] = room
                del pieces[k + 1:]
                break
            room -= piece[3]
    for cost, minus_t, kind, kwh in pieces:
        if cost >= 0.0:
            break
        bought[-minus_t][kind] += kwh

    given_up, charged = np.array(bought).T
    # summed parts of a piece can pass its whole by rounding
    charge = np.minimum(charged / eta, c_cap)
    discharge = np.maximum(d_cap - eta * given_up, 0.0)
    charge[charge < _ZERO_TOL] = 0.0
    discharge[discharge < _ZERO_TOL] = 0.0
    meter = discharge - charge
    soc = np.concatenate([[0.0], np.cumsum(eta * charge - discharge / eta)])
    if soc.min() < -1e-7 or soc.max() > spec.capacity_kwh + 1e-7:
        raise ArithmeticError("storage dynamic program produced an out-of-bounds state of charge")
    soc = np.clip(soc, 0.0, spec.capacity_kwh)
    for arr in (charge, discharge, meter, soc):
        arr.setflags(write=False)
    return StorageSchedule(meter, charge, discharge, soc, float(prices @ meter))


@lru_cache(maxsize=1024)
def _solve(spec: StorageSpec, price_bytes: bytes, n: int) -> StorageSchedule:
    prices = np.frombuffer(price_bytes, dtype=float)
    if spec.capacity_kwh <= 0.0 or _idle(spec, prices):
        zero = np.zeros(n)
        zero.setflags(write=False)
        soc = np.zeros(n + 1)
        soc.setflags(write=False)
        return StorageSchedule(zero, zero, zero, soc, 0.0)
    return _dynamic_program(spec, prices)


def clear_caches() -> None:
    """Forget every cached schedule: the next call solves again."""
    _solve.cache_clear()


def arbitrage_value(spec: StorageSpec, prices) -> tuple[float, StorageSchedule]:
    """Optimal arbitrage value of one unit and an achieving schedule.

    The zero schedule is always feasible, so the value is never negative.
    """
    prices = as_price_vector(prices)
    schedule = _solve(spec, prices.tobytes(), prices.size)
    return schedule.value, schedule

