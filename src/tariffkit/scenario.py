"""Finite weighted scenario sets over wholesale prices and local demand states.

Every expectation in the tariff formulas is an exact probability-weighted sum
over one of these sets, so the structural identities checked by the test suite
hold to floating-point accuracy rather than Monte Carlo accuracy.

A :class:`ScenarioSet` stores its data once, as read-only stacked tensors
with the scenario index first; every library computation is a reduction over
that leading axis.  The price-independent reductions that the tariff closed
forms need (:class:`SetMoments`) are made once per set and cached on it.
They are capacity-free: a reader scales a solar moment by the PV capacity on
its case's side, so a PV set (:func:`with_pv_capacity`) shares its source's.
A set is built from its tensors only; :class:`Scenario` is the read-only
row view it yields when iterated, for the oracle, tests and demos.

Conventions
-----------
* prices are in $/kWh, energies in kWh, money in $.
* ``disturbances`` are per-customer demand shifts, one N-vector per class
  (all customers in a class are identical copies).
* ``solar_unit`` is the per-kW-of-capacity solar profile; every set carries
  one, and a set without solar carries zeros.
* renewables are PV capacity times that profile: ``renewable_customer`` is
  class c's behind-the-meter output ``customer_kw[c] * solar_unit`` in kWh
  (installations come in discrete units allocated to classes), and
  ``renewable_retailer`` the retailer-side ``retailer_kw * solar_unit``.
  Capacities are zero at construction; :func:`with_pv_capacity` sets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

PROBABILITY_TOL = 1e-12


def as_price_vector(values, horizon: int | None = None) -> np.ndarray:
    """Validate ``values`` as a finite 1-D price vector in $/kWh.

    Negative entries are allowed (wholesale prices can clear below zero);
    non-finite entries and empty vectors are not.
    """
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"price vector must be 1-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("price vector must have at least one period")
    if not np.all(np.isfinite(arr)):
        raise ValueError("price vector contains non-finite entries")
    if horizon is not None and arr.size != horizon:
        raise ValueError(f"price vector has {arr.size} periods, expected {horizon}")
    arr.setflags(write=False)
    return arr


def _frozen(values, shape: tuple[int, ...], name: str, nonneg: bool = False) -> np.ndarray:
    # read-only float arrays are immutable already and are shared, not copied
    if isinstance(values, np.ndarray) and values.dtype == float and not values.flags.writeable:
        arr = values
    else:
        arr = np.array(values, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if nonneg and np.any(arr < 0.0):
        raise ValueError(f"{name} must be non-negative")
    arr.setflags(write=False)
    return arr


# the tensors a Scenario row views, in Scenario field order
_SET_FIELDS = ("price_matrix", "disturbance_tensor", "customer_renewable_tensor",
               "retailer_renewable_matrix", "solar_unit_matrix")


@dataclass(frozen=True)
class Scenario:
    """One joint realization of the global state (prices, local demand states).

    The read-only row view of a :class:`ScenarioSet`, which yields one per
    scenario when iterated; its arrays are views of the set's tensors (the
    renewables of a set without PV are zero views).

    probability : weight in [0, 1]
    prices : (N,) wholesale prices, $/kWh
    disturbances : (C, N) per-customer additive demand shifts, kWh
    renewable_customer : (C, N) class-aggregate behind-the-meter output, kWh
    renewable_retailer : (N,) retailer-side renewable output, kWh
    solar_unit : (N,) per-kW solar profile, kWh/kW
    """

    probability: float
    prices: np.ndarray
    disturbances: np.ndarray
    renewable_customer: np.ndarray
    renewable_retailer: np.ndarray
    solar_unit: np.ndarray


@dataclass(frozen=True)
class SetMoments:
    """Price-independent first and cross moments of a scenario set.

    mean_price : (N,) lam_bar = E[lambda]
    mean_disturbance : (C, N) E[w_c], per customer of class c
    disturbance_cov : (C,) tr cov(lambda, w_c)
    disturbance_second_moment : (C, N, N) E[w_c w_c^T]
    mean_solar : (N,) E[solar], per kW of PV
    solar_cov : tr cov(lambda, solar), per kW
    solar_value : E[lambda^T solar], per kW

    They hold no PV capacity.  Renewables are capacity times the solar
    profile, so each renewable moment is a capacity times a solar moment,
    and its reader scales it by the kW on its case's side: class c's meter
    (``tariff._metered``) nets ``customer_kw[c] * mean_solar`` and its
    covariance ``customer_kw[c] * solar_cov``; E[lambda^T r] is ``kW * solar_value``.

    The cross moments are stored centred, E[lambda^T w_c] - lam_bar^T
    E[w_c], because every closed form reads them in that form and centring
    both factors keeps the large uncentred terms from cancelling.
    """

    mean_price: np.ndarray
    mean_disturbance: np.ndarray
    disturbance_cov: np.ndarray
    disturbance_second_moment: np.ndarray
    mean_solar: np.ndarray
    solar_cov: float
    solar_value: float


def _reduced_moments(ss: ScenarioSet) -> SetMoments:
    """One S-sized pass over a set's tensors (see :class:`SetMoments`)."""
    probs = ss.probabilities
    mean_price = expect_price(ss)
    lam_dev = ss.price_matrix - mean_price
    mean_dist = np.tensordot(probs, ss.disturbance_tensor, axes=1)
    dist_cov = probs @ np.einsum("sn,scn->sc", lam_dev, ss.disturbance_tensor - mean_dist)
    by_class = ss.disturbance_tensor.transpose(1, 0, 2)  # (C, S, N)
    second = (by_class.transpose(0, 2, 1) * probs) @ by_class
    solar = ss.solar_unit_matrix
    mean_solar = probs @ solar
    for arr in (mean_dist, dist_cov, second, mean_solar):
        arr.setflags(write=False)
    return SetMoments(
        mean_price=mean_price,
        mean_disturbance=mean_dist,
        disturbance_cov=dist_cov,
        disturbance_second_moment=second,
        mean_solar=mean_solar,
        solar_cov=float(probs @ np.einsum("sn,sn->s", lam_dev, solar - mean_solar)),
        solar_value=float(probs @ np.einsum("sn,sn->s", ss.price_matrix, solar)),
    )


@dataclass(frozen=True, eq=False, init=False)
class ScenarioSet:
    """Immutable weighted collection of scenarios on a common horizon.

    Stored once, as read-only tensors over S scenarios, C classes and N
    periods: ``probabilities`` (S,), ``price_matrix`` (S, N),
    ``disturbance_tensor`` (S, C, N) and ``solar_unit_matrix`` (S, N).  The
    constructor requires all four (a set without solar passes a zero
    profile) and shares read-only float inputs instead of copying them;
    iterating a set yields its :class:`Scenario` rows.  Renewables are PV
    capacity times the solar profile: ``customer_kw`` (C,) and
    ``retailer_kw`` are zero at construction, and a
    :func:`with_pv_capacity` set shares its source's tensors with new
    capacities.  The renewable tensors are read-only zero views at zero
    capacity and are otherwise built on each read; the closed forms read
    only the set's moments and its capacities.

    Probabilities must sum to 1 within ``PROBABILITY_TOL``; a violation is a
    construction error, never silently renormalized.

    The set's price-independent statistics, :attr:`moments` (a
    :class:`SetMoments`), are computed once, on first use, and cached on the
    set.  They depend on no demand model, integration case or PV
    capacity, and a set never changes, so they cannot go stale.  A set
    built from data reduces them in one pass over its scenarios; a
    :func:`with_pv_capacity` set shares its source's.
    """

    probabilities: np.ndarray
    price_matrix: np.ndarray
    disturbance_tensor: np.ndarray
    solar_unit_matrix: np.ndarray
    customer_kw: np.ndarray
    retailer_kw: float

    def __init__(self, probabilities, price_matrix, disturbance_tensor, solar_unit_matrix):
        probabilities = _frozen(probabilities, np.shape(probabilities), "probabilities")
        if probabilities.ndim != 1 or probabilities.size == 0:
            raise ValueError("scenario set must contain at least one scenario")
        if np.any((probabilities < 0.0) | (probabilities > 1.0)):
            raise ValueError("scenario probabilities must lie in [0, 1]")
        total = math.fsum(probabilities)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"scenario probabilities sum to {total!r}, not 1")
        s = probabilities.size
        prices = np.asarray(price_matrix, dtype=float)
        if prices.ndim != 2 or prices.shape[1] == 0:
            raise ValueError(f"prices have shape {prices.shape}, expected ({s}, N) with N >= 1")
        n = prices.shape[1]
        disturbances = np.asarray(disturbance_tensor, dtype=float)
        c = disturbances.shape[1] if disturbances.ndim == 3 else 0
        # frozen: fields are set through the instance dict, as cached_property does
        vars(self).update(
            probabilities=probabilities,
            price_matrix=_frozen(prices, (s, n), "prices"),
            disturbance_tensor=_frozen(disturbances, (s, c, n), "disturbances"),
            solar_unit_matrix=_frozen(solar_unit_matrix, (s, n), "solar_unit", nonneg=True),
            customer_kw=np.broadcast_to(0.0, (c,)),  # a read-only zero view
            retailer_kw=0.0,
        )

    def __len__(self) -> int:
        return self.probabilities.size

    def __iter__(self):
        """Scenario rows, in set order."""
        tensors = [getattr(self, name) for name in _SET_FIELDS]
        for k, probability in enumerate(self.probabilities):
            yield Scenario(float(probability), *(t[k] for t in tensors))

    @property
    def horizon(self) -> int:
        return self.price_matrix.shape[1]

    @property
    def n_classes(self) -> int:
        return self.disturbance_tensor.shape[1]

    @property
    def customer_renewable_tensor(self) -> np.ndarray:
        """(S, C, N) class-aggregate customer renewables ``customer_kw[c] * solar``, kWh."""
        if not self.customer_kw.any():
            return np.broadcast_to(0.0, self.disturbance_tensor.shape)
        tensor = self.customer_kw[:, None] * self.solar_unit_matrix[:, None, :]
        tensor.setflags(write=False)
        return tensor

    @property
    def retailer_renewable_matrix(self) -> np.ndarray:
        """(S, N) retailer-side renewables ``retailer_kw * solar``, kWh."""
        if self.retailer_kw == 0.0:
            return np.broadcast_to(0.0, self.price_matrix.shape)
        matrix = self.retailer_kw * self.solar_unit_matrix
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def moments(self) -> SetMoments:
        """The set's moments (see :class:`SetMoments`), computed once."""
        return _reduced_moments(self)


# A per-scenario field: an (S, ...) array, or a callback evaluated on each row.
Field = Union[np.ndarray, Callable[[Scenario], np.ndarray]]


def _stacked(scenario_set: ScenarioSet, field: Field) -> np.ndarray:
    if callable(field):
        return np.stack([np.asarray(field(s), dtype=float) for s in scenario_set])
    return np.asarray(field, dtype=float)


def expect_price(scenario_set: ScenarioSet) -> np.ndarray:
    """Probability-weighted mean price vector, $/kWh."""
    mean = scenario_set.probabilities @ scenario_set.price_matrix
    mean.setflags(write=False)
    return mean


def expect_vector(scenario_set: ScenarioSet, field: Field) -> np.ndarray:
    """Probability-weighted mean of a per-scenario field over the leading axis."""
    return np.tensordot(scenario_set.probabilities, _stacked(scenario_set, field), axes=1)


def cov_trace(scenario_set: ScenarioSet, field_a: Field, field_b: Field) -> float:
    """Sum over periods of the population covariance of two vector fields.

    Computed in centered form: sum_t E[(a_t - E a_t)(b_t - E b_t)] under the
    scenario weights.  Each field is an (S, N) array or a per-scenario callback.
    """
    a = _stacked(scenario_set, field_a)
    b = _stacked(scenario_set, field_b)
    da = a - expect_vector(scenario_set, a)
    db = b - expect_vector(scenario_set, b)
    return float(scenario_set.probabilities @ np.einsum("sn,sn->s", da, db))


def split_marginals(scenario_set: ScenarioSet) -> ScenarioSet:
    """Product-of-marginals reconstruction of a scenario set.

    Crosses the set's S price rows with its S local-state rows
    (disturbances and solar profile), price-major, each pair weighted by
    the product of the two rows' probabilities, and keeps the input's PV
    capacities.  The product has the law of the marginals, with prices
    independent of local states, in S^2 rows: repeated rows are not merged.
    """
    ss = scenario_set
    s = len(ss)
    local_rows = np.tile(np.arange(s), s)
    tensors = [
        np.repeat(ss.price_matrix, s, axis=0),
        ss.disturbance_tensor[local_rows],
        ss.solar_unit_matrix[local_rows],
    ]
    # the built tensors are fresh and unshared: read-only, they are kept by
    # the constructor instead of copied, so the set is built with one copy
    for tensor in tensors:
        tensor.setflags(write=False)
    product = ScenarioSet(np.outer(ss.probabilities, ss.probabilities).reshape(-1), *tensors)
    if ss.customer_kw.any() or ss.retailer_kw:
        return with_pv_capacity(product, ss.customer_kw, ss.retailer_kw)
    return product


def with_pv_capacity(
    scenario_set: ScenarioSet,
    customer_kw=None,
    retailer_kw: float = 0.0,
) -> ScenarioSet:
    """The set with new PV capacities on its per-kW solar profile.

    ``customer_kw`` is a per-class capacity vector (kW) and ``retailer_kw``
    a scalar capacity: class c's renewables become ``customer_kw[c] *
    solar`` and the retailer's ``retailer_kw * solar``.  The moments hold
    no capacity, so the input's are reduced (once, if not yet cached) and
    the new set shares them and every tensor with ``scenario_set``:
    ``with_pv_capacity(ss, ...).moments is ss.moments``.
    """
    c = scenario_set.n_classes
    customer_kw = np.zeros(c) if customer_kw is None else np.array(customer_kw, dtype=float)
    if customer_kw.shape != (c,):
        raise ValueError(f"customer_kw has shape {customer_kw.shape}, expected ({c},)")
    retailer_kw = float(retailer_kw)
    if not (np.all(np.isfinite(customer_kw)) and math.isfinite(retailer_kw)):
        raise ValueError("PV capacities must be finite")
    if np.any(customer_kw < 0.0) or retailer_kw < 0.0:
        raise ValueError("PV capacities must be non-negative")
    customer_kw.setflags(write=False)
    scenario_set.moments  # cached in the instance dict, which the new set copies
    derived = ScenarioSet.__new__(ScenarioSet)
    vars(derived).update(vars(scenario_set), customer_kw=customer_kw, retailer_kw=retailer_kw)
    return derived
