"""Finite weighted scenario sets over wholesale prices and local demand states.

Every expectation in the tariff formulas is an exact probability-weighted sum
over one of these sets, so the structural identities checked by the test suite
hold to floating-point accuracy rather than Monte Carlo accuracy.

A :class:`ScenarioSet` stores its data once, as read-only stacked tensors
with the scenario index first; every library computation is a reduction over
that leading axis.  The price-independent reductions that the tariff closed
forms need (:class:`SetMoments`) are made once per set and cached on it; a
PV-rescaled set (:func:`with_pv_capacity`) updates its source's instead.
A set is built from its tensors only; :class:`Scenario` is the read-only
row view it yields when iterated, for the oracle, tests and demos.

Conventions
-----------
* prices are in $/kWh, energies in kWh, money in $.
* ``disturbances`` are per-customer demand shifts, one N-vector per class
  (all customers in a class are identical copies).
* ``renewable_customer`` is the class-aggregate behind-the-meter renewable
  output in kWh (installations come in discrete units allocated to classes).
* ``renewable_retailer`` is the retailer-side renewable output in kWh.
* ``solar_unit`` optionally carries the per-kW-of-capacity solar profile the
  renewable columns were built from, so capacity sweeps can rescale a set
  without re-ingesting data.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence, Union

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


# the tensors of a ScenarioSet, in constructor order
_SET_FIELDS = ("price_matrix", "disturbance_tensor", "customer_renewable_tensor",
               "retailer_renewable_matrix", "solar_unit_matrix")


@dataclass(frozen=True)
class Scenario:
    """One joint realization of the global state (prices, local demand states).

    The read-only row view of a :class:`ScenarioSet`, which yields one per
    scenario when iterated; its arrays are views of the set's tensors.

    probability : weight in [0, 1]
    prices : (N,) wholesale prices, $/kWh
    disturbances : (C, N) per-customer additive demand shifts, kWh
    renewable_customer : (C, N) class-aggregate behind-the-meter output, kWh
    renewable_retailer : (N,) retailer-side renewable output, kWh
    solar_unit : optional (N,) per-kW solar profile, kWh/kW
    """

    probability: float
    prices: np.ndarray
    disturbances: np.ndarray
    renewable_customer: np.ndarray
    renewable_retailer: np.ndarray
    solar_unit: np.ndarray | None


@dataclass(frozen=True)
class SetMoments:
    """Price-independent first and cross moments of a scenario set.

    mean_price : (N,) lam_bar = E[lambda]
    mean_disturbance : (C, N) E[w_c], per customer of class c
    disturbance_cov : (C,) tr cov(lambda, w_c)
    mean_class_renewable : (C, N) E[R_c], the class-aggregate customer
        renewables of class c
    mean_customer_renewable : (N,) E[R], R = sum_c R_c
    customer_renewable_cov : tr cov(lambda, R)
    retailer_renewable_value : E[lambda^T r_retailer]
    mean_solar : (N,) E[solar], per kW of PV
    solar_cov : tr cov(lambda, solar), per kW
    solar_value : E[lambda^T solar], per kW

    The three solar moments are None for a set without a per-kW solar
    profile.  The cross moments are stored centred, E[lambda^T w_c] -
    lam_bar^T E[w_c], because every closed form reads them in that form and
    centring both factors keeps the large uncentred terms from cancelling.
    """

    mean_price: np.ndarray
    mean_disturbance: np.ndarray
    disturbance_cov: np.ndarray
    mean_class_renewable: np.ndarray
    mean_customer_renewable: np.ndarray
    customer_renewable_cov: float
    retailer_renewable_value: float
    mean_solar: np.ndarray | None
    solar_cov: float | None
    solar_value: float | None

    def with_pv(self, customer_kw: np.ndarray, retailer_kw: float) -> SetMoments:
        """Moments of the set with its renewables rebuilt from the solar profile.

        Every renewable moment is linear in capacity, and the price and
        disturbance moments do not change, so this costs O(C N).
        """
        if self.mean_solar is None:
            raise ValueError("scenario set has no solar_unit profile to scale")
        total_kw = float(customer_kw.sum())
        class_renewable = np.outer(customer_kw, self.mean_solar)
        mean_renewable = total_kw * self.mean_solar
        for arr in (class_renewable, mean_renewable):
            arr.setflags(write=False)
        return dataclasses.replace(
            self,
            mean_class_renewable=class_renewable,
            mean_customer_renewable=mean_renewable,
            customer_renewable_cov=total_kw * self.solar_cov,
            retailer_renewable_value=retailer_kw * self.solar_value,
        )


def _reduced_moments(ss: ScenarioSet) -> SetMoments:
    """One S-sized pass over a set's tensors (see :class:`SetMoments`)."""
    probs = ss.probabilities
    mean_price = expect_price(ss)
    lam_dev = ss.price_matrix - mean_price

    def centred_cov(field: np.ndarray, mean: np.ndarray) -> float:
        return float(probs @ np.einsum("sn,sn->s", lam_dev, field - mean))

    mean_dist = np.tensordot(probs, ss.disturbance_tensor, axes=1)
    dist_cov = probs @ np.einsum("sn,scn->sc", lam_dev, ss.disturbance_tensor - mean_dist)
    class_renewable = np.tensordot(probs, ss.customer_renewable_tensor, axes=1)
    mean_renewable = class_renewable.sum(axis=0)
    mean_solar = solar_cov = solar_value = None
    if ss.has_solar_unit:
        mean_solar = probs @ ss.solar_unit_matrix
        solar_cov = centred_cov(ss.solar_unit_matrix, mean_solar)
        solar_value = float(probs @ np.einsum("sn,sn->s", ss.price_matrix, ss.solar_unit_matrix))
    for arr in (mean_dist, dist_cov, class_renewable, mean_renewable, mean_solar):
        if arr is not None:
            arr.setflags(write=False)
    return SetMoments(
        mean_price=mean_price,
        mean_disturbance=mean_dist,
        disturbance_cov=dist_cov,
        mean_class_renewable=class_renewable,
        mean_customer_renewable=mean_renewable,
        customer_renewable_cov=centred_cov(ss.customer_renewable_tensor.sum(axis=1), mean_renewable),
        retailer_renewable_value=float(
            probs @ np.einsum("sn,sn->s", ss.price_matrix, ss.retailer_renewable_matrix)
        ),
        mean_solar=mean_solar,
        solar_cov=solar_cov,
        solar_value=solar_value,
    )


@dataclass(frozen=True, eq=False, init=False)
class ScenarioSet:
    """Immutable weighted collection of scenarios on a common horizon.

    Stored once, as read-only tensors over S scenarios, C classes and N
    periods: ``probabilities`` (S,), ``price_matrix`` (S, N),
    ``disturbance_tensor`` and ``customer_renewable_tensor`` (S, C, N),
    ``retailer_renewable_matrix`` (S, N) and ``solar_unit_matrix`` (S, N) or
    None.  The constructor takes these tensors (omitted renewables are
    zero) and shares read-only float inputs instead of copying them;
    iterating a set yields its :class:`Scenario` rows.  A
    :func:`with_pv_capacity` set shares its source's tensors and builds its
    two renewable tensors only when first read.

    Probabilities must sum to 1 within ``PROBABILITY_TOL``; a violation is a
    construction error, never silently renormalized.  ``independent`` marks
    sets whose price block is statistically independent of the local state
    block by construction (see :func:`split_marginals`).

    The set's price-independent statistics are computed once, on first use,
    and cached on the set: :attr:`moments` (a :class:`SetMoments`) and
    :attr:`disturbance_second_moment`.  They depend on no demand model or
    integration case, and a set never changes, so they cannot go stale.  A
    set built from data reduces them in one pass over its scenarios; a
    :func:`with_pv_capacity` set takes them from its source's in O(C N).
    """

    probabilities: np.ndarray
    price_matrix: np.ndarray
    disturbance_tensor: np.ndarray
    solar_unit_matrix: np.ndarray | None
    independent: bool
    # (source set, customer kW (C,), retailer kW) of a with_pv_capacity set, else None
    _pv: tuple[ScenarioSet, np.ndarray, float] | None = dataclasses.field(repr=False)

    def __init__(self, probabilities, price_matrix, disturbance_tensor,
                 customer_renewable_tensor=None, retailer_renewable_matrix=None,
                 solar_unit_matrix=None, independent: bool = False):
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
        if customer_renewable_tensor is None:
            customer_renewable_tensor = np.zeros((s, c, n))
        if retailer_renewable_matrix is None:
            retailer_renewable_matrix = np.zeros((s, n))
        tensors = (
            _frozen(prices, (s, n), "prices"),
            _frozen(disturbances, (s, c, n), "disturbances"),
            _frozen(customer_renewable_tensor, (s, c, n), "renewable_customer", nonneg=True),
            _frozen(retailer_renewable_matrix, (s, n), "renewable_retailer", nonneg=True),
            None if solar_unit_matrix is None
            else _frozen(solar_unit_matrix, (s, n), "solar_unit", nonneg=True),
        )
        # the renewable tensors land in the instance dict, ahead of their cached properties
        for name, value in zip(("probabilities", *_SET_FIELDS, "independent", "_pv"),
                               (probabilities, *tensors, bool(independent), None)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.probabilities.size

    def __iter__(self):
        """Scenario rows, in set order."""
        tensors = [getattr(self, name) for name in _SET_FIELDS]
        for k, probability in enumerate(self.probabilities):
            yield Scenario(float(probability), *(None if t is None else t[k] for t in tensors))

    @property
    def horizon(self) -> int:
        return self.price_matrix.shape[1]

    @property
    def n_classes(self) -> int:
        return self.disturbance_tensor.shape[1]

    @property
    def has_solar_unit(self) -> bool:
        return self.solar_unit_matrix is not None

    @cached_property
    def customer_renewable_tensor(self) -> np.ndarray:
        """(S, C, N) class-aggregate customer renewables, kWh."""
        _, customer_kw, _ = self._pv
        tensor = customer_kw[None, :, None] * self.solar_unit_matrix[:, None, :]
        tensor.setflags(write=False)
        return tensor

    @cached_property
    def retailer_renewable_matrix(self) -> np.ndarray:
        """(S, N) retailer-side renewables, kWh."""
        _, _, retailer_kw = self._pv
        matrix = retailer_kw * self.solar_unit_matrix
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def moments(self) -> SetMoments:
        """The set's moments (see :class:`SetMoments`), computed once."""
        if self._pv is None:
            return _reduced_moments(self)
        source, customer_kw, retailer_kw = self._pv
        return source.moments.with_pv(customer_kw, retailer_kw)

    @cached_property
    def disturbance_second_moment(self) -> np.ndarray:
        """E[w_c w_c^T] per class, (C, N, N), computed once."""
        if self._pv is not None:
            return self._pv[0].disturbance_second_moment
        by_class = self.disturbance_tensor.transpose(1, 0, 2)  # (C, S, N)
        second = (by_class.transpose(0, 2, 1) * self.probabilities) @ by_class
        second.setflags(write=False)
        return second


def from_prices(price_vectors: Sequence, probabilities=None, n_classes: int = 1) -> ScenarioSet:
    """Scenario set with only price uncertainty (zero local states)."""
    prices = np.array(price_vectors, dtype=float)
    if prices.ndim != 2:
        raise ValueError(f"price vectors must form an (S, N) matrix, got shape {prices.shape}")
    s, n = prices.shape
    if probabilities is None:
        probabilities = [1.0 / s] * s
    return ScenarioSet(probabilities, prices, np.zeros((s, n_classes, n)))


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


def expect_scalar(scenario_set: ScenarioSet, field: Field) -> float:
    """Probability-weighted mean of a per-scenario scalar field."""
    return float(expect_vector(scenario_set, field))


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


def _first_appearance_groups(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of ``block`` in order of first appearance.

    Returns (index of each distinct row's first appearance, group of each row).
    """
    _, first, inverse = np.unique(block, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


def split_marginals(scenario_set: ScenarioSet) -> ScenarioSet:
    """Product-of-marginals reconstruction of a scenario set.

    Identifies the support of the price block and of the local-state block
    (disturbances, renewables and solar profile) by row equality,
    accumulates marginal weights, and returns the product distribution
    (price support x local support, price-major, each in order of first
    appearance) with ``independent=True``.  Idempotent on sets that are
    already products.
    """
    ss = scenario_set
    s = len(ss)
    probs = ss.probabilities
    local_parts = [
        ss.disturbance_tensor.reshape(s, -1),
        ss.customer_renewable_tensor.reshape(s, -1),
        ss.retailer_renewable_matrix,
    ]
    if ss.has_solar_unit:
        local_parts.append(ss.solar_unit_matrix)
    price_reps, price_group = _first_appearance_groups(ss.price_matrix)
    local_reps, local_group = _first_appearance_groups(np.concatenate(local_parts, axis=1))
    p_price = np.bincount(price_group, weights=probs, minlength=price_reps.size)
    p_local = np.bincount(local_group, weights=probs, minlength=local_reps.size)

    n_price, n_local = price_reps.size, local_reps.size
    price_rows = np.repeat(price_reps, n_local)
    local_rows = np.tile(local_reps, n_price)
    return ScenarioSet(
        np.outer(p_price, p_local).reshape(-1),
        ss.price_matrix[price_rows],
        ss.disturbance_tensor[local_rows],
        ss.customer_renewable_tensor[local_rows],
        ss.retailer_renewable_matrix[local_rows],
        ss.solar_unit_matrix[local_rows] if ss.has_solar_unit else None,
        independent=True,
    )


def with_pv_capacity(
    scenario_set: ScenarioSet,
    customer_kw=None,
    retailer_kw: float = 0.0,
) -> ScenarioSet:
    """The set with its renewables rebuilt from the per-kW solar profile.

    ``customer_kw`` is a per-class capacity vector (kW) and ``retailer_kw``
    a scalar capacity: class c's renewables become ``customer_kw[c] *
    solar`` and the retailer's ``retailer_kw * solar``.  Requires
    ``solar_unit`` on the set.  The new set shares every other tensor with
    ``scenario_set`` and costs O(C N): its moments come from the source's
    (:meth:`SetMoments.with_pv`), and its renewable tensors are built only
    when first read.
    """
    if not scenario_set.has_solar_unit:
        raise ValueError("scenario set has no solar_unit profile to scale")
    c = scenario_set.n_classes
    if customer_kw is None:
        customer_kw = np.zeros(c)
    customer_kw = np.array(customer_kw, dtype=float)
    if customer_kw.shape != (c,):
        raise ValueError(f"customer_kw has shape {customer_kw.shape}, expected ({c},)")
    retailer_kw = float(retailer_kw)
    if not (np.all(np.isfinite(customer_kw)) and math.isfinite(retailer_kw)):
        raise ValueError("PV capacities must be finite")
    if np.any(customer_kw < 0.0) or retailer_kw < 0.0:
        raise ValueError("PV capacities must be non-negative")
    customer_kw.setflags(write=False)
    source = scenario_set if scenario_set._pv is None else scenario_set._pv[0]
    derived = ScenarioSet.__new__(ScenarioSet)
    for name in ("probabilities", "price_matrix", "disturbance_tensor", "solar_unit_matrix",
                 "independent"):
        object.__setattr__(derived, name, getattr(source, name))
    object.__setattr__(derived, "_pv", (source, customer_kw, retailer_kw))
    return derived
