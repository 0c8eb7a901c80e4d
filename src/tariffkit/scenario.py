"""Finite weighted scenario sets over wholesale prices and local demand states.

Every expectation in the tariff formulas is an exact probability-weighted sum
over one of these sets, so the structural identities checked by the test suite
hold to floating-point accuracy rather than Monte Carlo accuracy.

A :class:`ScenarioSet` stores its data once, as two read-only blocks with
the row index first: a price block (Kp, N) and a local block, the class
disturbances (Kl, C, N) with the per-kW solar profile (Kl, N).  A coupling
joins them into the set's S scenarios: a :class:`Paired` set pairs price
row s with local row s (S = Kp = Kl, each pair weighted), and a
:class:`Product` set, the product of two marginals, pairs every price row
with every local row (S = Kp Kl) and stores only the two marginal weight
vectors, so it costs O(Kp + Kl) memory, not O(S).  The price-independent
reductions that the tariff closed forms need (:class:`SetMoments`) are made
once per set, through the coupling, and cached on it.  They are
capacity-free: a reader scales a solar moment by the PV capacity on its
case's side, so a PV set (:func:`with_pv_capacity`) shares its source's.

The joint per-scenario tensors (``probabilities``, ``price_matrix``,
``disturbance_tensor``, ``solar_unit_matrix``) are the stored blocks of a
paired set; a product set builds them on each read, price-major, for the
tests, demos and benchmark checks.  No study computation reads them.
:class:`Scenario` is the read-only row view a set yields when iterated.

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
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class Scenario:
    """One joint realization of the global state (prices, local demand states).

    The read-only row view of a :class:`ScenarioSet`, which yields one per
    scenario when iterated; its arrays are views of the set's blocks (the
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


# The couplings and BlockField are plain classes: every command imports this
# module, and a dataclass takes about a millisecond to build at import.


class Paired:
    """The coupling of a joint sample: scenario s is price row s with local
    row s, at weight ``weights[s]`` (S = Kp = Kl)."""

    def __init__(self, weights: np.ndarray):
        self.weights = weights

    @property
    def price_weights(self) -> np.ndarray:
        """(Kp,) marginal weight of each price row."""
        return self.weights

    @property
    def local_weights(self) -> np.ndarray:
        """(Kl,) marginal weight of each local row."""
        return self.weights

    @property
    def size(self) -> int:
        return self.weights.size

    def joint_weights(self) -> np.ndarray:
        return self.weights

    def rows(self):
        """(weight, price row, local row) of each scenario, in set order."""
        for s, weight in enumerate(self.weights):
            yield float(weight), s, s

    def joint(self, block: np.ndarray, local: bool) -> np.ndarray:
        """A block read per scenario: a paired set's blocks are its scenarios."""
        return block

    def expect_dot(self, price_field: np.ndarray, local_field: np.ndarray) -> np.ndarray:
        """E[a^T b] for a price-block field a (Kp, N) and a local-block field
        b (Kl, ..., N), one value per index between b's first and last axes."""
        return self.weights @ np.einsum("sn,s...n->s...", price_field, local_field)

    def conditional_prices(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coupling column l: local row l's weight (Kl,) and E[lambda | row l] (Kl, N)."""
        return self.weights, prices


class Product:
    """The coupling of two independent marginals: scenario k Kl + l is price
    row k with local row l, at weight ``price_weights[k] * local_weights[l]``
    (S = Kp Kl, price-major).  Only the two weight vectors are stored."""

    def __init__(self, price_weights: np.ndarray, local_weights: np.ndarray):
        self.price_weights = price_weights
        self.local_weights = local_weights

    @property
    def size(self) -> int:
        return self.price_weights.size * self.local_weights.size

    def joint_weights(self) -> np.ndarray:
        weights = np.outer(self.price_weights, self.local_weights).reshape(-1)
        weights.setflags(write=False)
        return weights

    def rows(self):
        """(weight, price row, local row) of each scenario, in set order."""
        for k, p in enumerate(self.price_weights):
            for j, q in enumerate(self.local_weights):
                yield float(p * q), k, j

    def joint(self, block: np.ndarray, local: bool) -> np.ndarray:
        """A block read per scenario, built: price rows repeat, local rows
        tile, and a zero view (one row broadcast) stays a view."""
        if block.strides[0] == 0:
            return np.broadcast_to(block[:1], (self.size,) + block.shape[1:])
        if local:
            joint = np.tile(block, (self.price_weights.size,) + (1,) * (block.ndim - 1))
        else:
            joint = np.repeat(block, self.local_weights.size, axis=0)
        joint.setflags(write=False)
        return joint

    def expect_dot(self, price_field: np.ndarray, local_field: np.ndarray) -> np.ndarray:
        """:meth:`Paired.expect_dot` as the factorized sum E[a]^T E[b]."""
        return np.einsum("n,...n->...", self.price_weights @ price_field,
                         np.tensordot(self.local_weights, local_field, axes=1))

    def conditional_prices(self, prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`Paired.conditional_prices`: under independence every
        column's conditional price is the mean price."""
        weights = self.local_weights
        return weights, np.broadcast_to(self.price_weights @ prices, (weights.size, prices.shape[1]))


Coupling = Union[Paired, Product]


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
    """One pass over each block, joined by the coupling (see :class:`SetMoments`).

    The local moments, E[w w^T] included, read the local block only; the
    cross moments are the coupling's :meth:`~Paired.expect_dot`, a sum over
    the pairs of a paired set and the factorized sum of a product set.
    """
    coupling = ss.coupling
    weights = coupling.local_weights
    mean_price = expect_price(ss)
    lam_dev = ss.price_block - mean_price
    local = ss.disturbance_block
    mean_dist = np.tensordot(weights, local, axes=1)
    dist_cov = coupling.expect_dot(lam_dev, local - mean_dist)
    by_class = local.transpose(1, 0, 2)  # (C, Kl, N)
    second = (by_class.transpose(0, 2, 1) * weights) @ by_class
    solar = ss.solar_block
    mean_solar = weights @ solar
    for arr in (mean_dist, dist_cov, second, mean_solar):
        arr.setflags(write=False)
    return SetMoments(
        mean_price=mean_price,
        mean_disturbance=mean_dist,
        disturbance_cov=dist_cov,
        disturbance_second_moment=second,
        mean_solar=mean_solar,
        solar_cov=float(coupling.expect_dot(lam_dev, solar - mean_solar)),
        solar_value=float(coupling.expect_dot(ss.price_block, solar)),
    )


@dataclass(frozen=True, eq=False, init=False)
class ScenarioSet:
    """Immutable weighted collection of scenarios on a common horizon.

    Stored once, as read-only blocks over N periods and C classes: the
    ``price_block`` (Kp, N) and the local block, ``disturbance_block``
    (Kl, C, N) with ``solar_block`` (Kl, N), joined into S scenarios by
    ``coupling``, a :class:`Paired` or a :class:`Product`.  The constructor
    builds a paired set from S joint rows, ``probabilities`` (S,),
    ``price_matrix`` (S, N), ``disturbance_tensor`` (S, C, N) and
    ``solar_unit_matrix`` (S, N), and requires all four (a set without solar
    passes a zero profile); it shares read-only float inputs instead of
    copying them.  :func:`split_marginals` makes the product of a set's
    marginals by swapping its coupling.  ``len`` counts the S scenarios and
    iterating yields their :class:`Scenario` rows, in set order.  The joint
    tensors named as the constructor's arguments are a paired set's blocks,
    and a product set builds them on each read.

    Renewables are PV capacity times the solar profile: ``customer_kw``
    (C,) and ``retailer_kw`` are zero at construction, and a
    :func:`with_pv_capacity` set shares its source's blocks with new
    capacities.  The renewable tensors are read-only zero views at zero
    capacity and are otherwise built on each read; the closed forms read
    only the set's moments and its capacities.

    Probabilities must sum to 1 within ``PROBABILITY_TOL``; a violation is a
    construction error, never silently renormalized.

    The set's price-independent statistics, :attr:`moments` (a
    :class:`SetMoments`), are computed once, on first use, and cached on the
    set.  They depend on no demand model, integration case or PV
    capacity, and a set never changes, so they cannot go stale.  A set
    reduces them in one pass over each block; a :func:`with_pv_capacity`
    set shares its source's.
    """

    coupling: Coupling
    price_block: np.ndarray
    disturbance_block: np.ndarray
    solar_block: np.ndarray
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
            coupling=Paired(probabilities),
            price_block=_frozen(prices, (s, n), "prices"),
            disturbance_block=_frozen(disturbances, (s, c, n), "disturbances"),
            solar_block=_frozen(solar_unit_matrix, (s, n), "solar_unit", nonneg=True),
            customer_kw=np.broadcast_to(0.0, (c,)),  # a read-only zero view
            retailer_kw=0.0,
        )

    def __len__(self) -> int:
        return self.coupling.size

    def __iter__(self):
        """Scenario rows, in set order."""
        prices, disturbances, solar = self.price_block, self.disturbance_block, self.solar_block
        customer, retailer = self.customer_renewable_block, self.retailer_renewable_block
        for weight, k, j in self.coupling.rows():
            yield Scenario(weight, prices[k], disturbances[j], customer[j], retailer[j], solar[j])

    @property
    def horizon(self) -> int:
        return self.price_block.shape[1]

    @property
    def n_classes(self) -> int:
        return self.disturbance_block.shape[1]

    @property
    def probabilities(self) -> np.ndarray:
        """(S,) scenario weights."""
        return self.coupling.joint_weights()

    @property
    def price_matrix(self) -> np.ndarray:
        """(S, N) wholesale prices per scenario, $/kWh."""
        return self.coupling.joint(self.price_block, local=False)

    @property
    def disturbance_tensor(self) -> np.ndarray:
        """(S, C, N) per-customer disturbances per scenario, kWh."""
        return self.coupling.joint(self.disturbance_block, local=True)

    @property
    def solar_unit_matrix(self) -> np.ndarray:
        """(S, N) per-kW solar profile per scenario, kWh/kW."""
        return self.coupling.joint(self.solar_block, local=True)

    @property
    def customer_renewable_block(self) -> np.ndarray:
        """(Kl, C, N) class-aggregate customer renewables ``customer_kw[c] *
        solar`` per local row, kWh."""
        if not self.customer_kw.any():
            return np.broadcast_to(0.0, self.disturbance_block.shape)
        block = self.customer_kw[:, None] * self.solar_block[:, None, :]
        block.setflags(write=False)
        return block

    @property
    def retailer_renewable_block(self) -> np.ndarray:
        """(Kl, N) retailer-side renewables ``retailer_kw * solar`` per local row, kWh."""
        if self.retailer_kw == 0.0:
            return np.broadcast_to(0.0, self.solar_block.shape)
        block = self.retailer_kw * self.solar_block
        block.setflags(write=False)
        return block

    @property
    def customer_renewable_tensor(self) -> np.ndarray:
        """(S, C, N) :attr:`customer_renewable_block` per scenario."""
        return self.coupling.joint(self.customer_renewable_block, local=True)

    @property
    def retailer_renewable_matrix(self) -> np.ndarray:
        """(S, N) :attr:`retailer_renewable_block` per scenario."""
        return self.coupling.joint(self.retailer_renewable_block, local=True)

    @cached_property
    def moments(self) -> SetMoments:
        """The set's moments (see :class:`SetMoments`), computed once."""
        return _reduced_moments(self)


# A per-scenario field: an (S, ...) array, or a callback evaluated on each row.
Field = Union[np.ndarray, Callable[[Scenario], np.ndarray]]


class BlockField:
    """A field that reads one block of its set only, stored once per block
    row: ``values`` is (Kl, N) over the local rows when ``local``, else
    (Kp, N) over the price rows."""

    def __init__(self, values: np.ndarray, local: bool):
        self.values = values
        self.local = local


def _stacked(scenario_set: ScenarioSet, field: Field) -> np.ndarray:
    if callable(field):
        return np.stack([np.asarray(field(s), dtype=float) for s in scenario_set])
    return np.asarray(field, dtype=float)


def expect_price(scenario_set: ScenarioSet) -> np.ndarray:
    """Probability-weighted mean price vector, $/kWh."""
    mean = scenario_set.coupling.price_weights @ scenario_set.price_block
    mean.setflags(write=False)
    return mean


def expect_vector(scenario_set: ScenarioSet, field: Field) -> np.ndarray:
    """Probability-weighted mean of a per-scenario field over the leading axis."""
    return np.tensordot(scenario_set.probabilities, _stacked(scenario_set, field), axes=1)


def cov_trace(scenario_set: ScenarioSet, field_a: Field | BlockField,
              field_b: Field | BlockField) -> float:
    """Sum over periods of the population covariance of two vector fields.

    Computed in centered form: sum_t E[(a_t - E a_t)(b_t - E b_t)] under the
    scenario weights.  Each field is an (S, N) array or a per-scenario
    callback, or the two are a local-block and a price-block
    :class:`BlockField`, in either order: each is centred on its own block
    and they covary through the set's coupling, without its S joint rows.
    """
    if isinstance(field_a, BlockField):
        local, price = (field_a, field_b) if field_a.local else (field_b, field_a)
        coupling = scenario_set.coupling
        price_dev = price.values - np.tensordot(coupling.price_weights, price.values, axes=1)
        local_dev = local.values - np.tensordot(coupling.local_weights, local.values, axes=1)
        return float(coupling.expect_dot(price_dev, local_dev))
    a = _stacked(scenario_set, field_a)
    b = _stacked(scenario_set, field_b)
    da = a - expect_vector(scenario_set, a)
    db = b - expect_vector(scenario_set, b)
    return float(scenario_set.probabilities @ np.einsum("sn,sn->s", da, db))


def split_marginals(scenario_set: ScenarioSet) -> ScenarioSet:
    """Product-of-marginals reconstruction of a scenario set.

    The set's blocks and PV capacities under the :class:`Product` coupling
    of its two marginal weight vectors: price row k pairs with every local
    row l (disturbances with their own solar profile) at weight p_k q_l, so
    prices are independent of local states.  O(Kp + Kl): nothing is copied
    and no joint row is built.  The product of a paired set of S scenarios
    has S^2, price-major; repeated rows are not merged.
    """
    coupling = scenario_set.coupling
    product = ScenarioSet.__new__(ScenarioSet)
    # the declared fields only: the moments depend on the coupling
    vars(product).update({f.name: getattr(scenario_set, f.name) for f in fields(ScenarioSet)},
                         coupling=Product(coupling.price_weights, coupling.local_weights))
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
    the new set shares them, its coupling and every block with ``scenario_set``:
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
