"""Revenue-adequate two-part tariff design under scenario uncertainty.

The retailer recovers a fixed cost F from M customers through an ex-ante
tariff T(q) = A + pi^T q, with expected revenue pinned to F (revenue
adequacy) and prices chosen to maximize expected consumer surplus.  In
every integration mode the surplus-maximizing prices equal the expected
wholesale price and the connection charge has one closed form,

    A = (F + tr cov(lambda, D_metered) - retailer DER value) / M,

where D_metered is the aggregate class disturbance, less customer
renewables when they sit behind the meter.  Distributed resources shift A
but never the prices.

An :class:`IntegrationCase` holds at most one storage fleet, on the side
its mode names.  Its response and the DERs' welfare contribution,
:func:`der_value` (fleet value at the expected price plus E[lambda^T r] of
the case's renewables, the same in both DER modes), are each defined once;
the retailer DER value above is der_value when centralized, else zero.

The restricted families pin A and price along a ray: flat prices p * 1,
dynamic prices on the Ramsey line from the expected price toward the
expected net-demand choke price.  While the customer storage fleet holds
one schedule, expected revenue is exactly quadratic along either ray, so
both families share one root solver that re-freezes the fleet at its live
response until that response settles.

Accounting in this module is the closed-form expectation path.  Demand is
linear with a state-independent price Jacobian, so every settlement, ray
quadratic and choke price sees the scenario set only through its cached
moments (``ScenarioSet.moments``), in O(C N^2) per call, and the modes
differ only in what one function, :func:`_metered`, nets from each class's
meter: its PV and its (C, N) storage fleet energy, when behind it.  One
function, :func:`settle`, settles a tariff: it fetches the fleet's schedule
once, meters once, and fills the one :class:`SurplusReport` that the
solvers' revenue probes and surplus comparisons, a solve's record
(:attr:`FamilyReport.settlement`) and ``welfare.evaluate`` read.  Only
:func:`optimal_two_part`'s independent check sums over data rows: the
local block's Kl rows.  ``oracle.settlement_resim`` re-derives every quantity by
simulating settlement per (scenario, class), sharing none of this
accounting code, and the test suite holds the two to each other.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import demand as dm
from . import storage as st
from .scenario import BlockField, ScenarioSet, as_price_vector, cov_trace

MODE_NONE = "none"
MODE_DECENTRALIZED = "decentralized"
MODE_CENTRALIZED = "centralized"
MODES = (MODE_NONE, MODE_DECENTRALIZED, MODE_CENTRALIZED)

OPTIMAL_TWO_PART = "optimal-two-part"
FLAT_FIXED_A = "flat-fixed-A"
FLAT_ZERO_A = "flat-zero-A"
DYNAMIC_FIXED_A = "dynamic-fixed-A"
DYNAMIC_ZERO_A = "dynamic-zero-A"
FAMILY_KINDS = (OPTIMAL_TWO_PART, FLAT_FIXED_A, FLAT_ZERO_A, DYNAMIC_FIXED_A, DYNAMIC_ZERO_A)
# the kinds that pin A to a given fixed_connection_charge
FIXED_A_KINDS = (FLAT_FIXED_A, DYNAMIC_FIXED_A)

# dual-route agreement required of the two connection-charge computations
A_AGREEMENT_RTOL = 1e-8
# settled-revenue residual accepted when solving a family for E[rs] = F,
# relative to the largest term the residual sums (_adequacy_tolerance)
ADEQUACY_RTOL = 1e-9

# rounds of re-freezing the storage fleet within one ray solve
_RAY_ROUNDS = 10
# rounds of the dynamic solver's choke-point fixed point
_DYNAMIC_FLEET_ROUNDS = 20


class TariffError(Exception):
    """Base class for tariff-design failures."""


class RevenueAdequacyError(TariffError):
    """The two connection-charge routes disagree beyond tolerance."""


class InfeasibleFamilyError(TariffError):
    """No member of the family attains the required expected revenue."""

    def __init__(self, message: str, attainable_max: float):
        super().__init__(message)
        self.attainable_max = attainable_max


@dataclass(frozen=True)
class TwoPartTariff:
    """Ex-ante tariff: connection charge A ($/customer) plus prices ($/kWh)."""

    connection_charge: float
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prices", as_price_vector(self.prices))
        if not math.isfinite(self.connection_charge):
            raise ValueError("connection charge must be finite")


def flat_tariff(connection_charge: float, price: float, horizon: int) -> TwoPartTariff:
    return TwoPartTariff(connection_charge, np.full(horizon, float(price)))


@dataclass(frozen=True)
class TariffFamily:
    """A restricted tariff menu to optimize over.

    ``optimal-two-part`` frees both A and the price vector; the flat and
    dynamic kinds pin A (to ``fixed_connection_charge`` or zero) and search
    prices only.
    """

    kind: str
    fixed_connection_charge: float | None = None

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind in FIXED_A_KINDS:
            if self.fixed_connection_charge is None:
                raise ValueError(f"{self.kind} requires fixed_connection_charge")
        elif self.fixed_connection_charge is not None:
            raise ValueError(f"{self.kind} does not take fixed_connection_charge")

    @property
    def connection_charge(self) -> float:
        """The pinned A for non-optimal kinds."""
        if self.kind in (FLAT_ZERO_A, DYNAMIC_ZERO_A):
            return 0.0
        if self.fixed_connection_charge is None:
            raise ValueError("optimal-two-part has no pinned connection charge")
        return float(self.fixed_connection_charge)

    @property
    def is_flat(self) -> bool:
        return self.kind in (FLAT_FIXED_A, FLAT_ZERO_A)


@dataclass(frozen=True)
class IntegrationCase:
    """How distributed resources participate in settlement.

    ``decentralized``: customers own the resources behind the meter and are
    billed on net withdrawals; their renewables are the scenario set's
    customer PV capacities times its solar profile, storage responds to the
    tariff prices.  ``centralized``: the retailer owns the resources;
    customers are billed on gross consumption, the retailer nets the set's
    retailer PV capacity times its solar profile and a storage fleet
    committed ex ante against the expected price.

    ``storage`` is the fleet's unit and ``storage_units`` its read-only
    unit counts, on the side the mode names: one count per class when
    decentralized, the retailer's single count when centralized.  Counts
    may be fractional (fleet value is exactly linear in the count).  A
    ``none`` case holds no storage.
    """

    mode: str = MODE_NONE
    storage: st.StorageSpec | None = None
    storage_units: np.ndarray | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown integration mode {self.mode!r}")
        if self.mode == MODE_NONE and (self.storage is not None or self.storage_units is not None):
            raise ValueError("storage requires a decentralized or centralized mode, not 'none'")
        if (self.storage is None) != (self.storage_units is None):
            raise ValueError("storage spec and unit counts must be given together")
        if self.storage_units is not None:
            per_class = int(self.mode == MODE_DECENTRALIZED)
            units = np.array(self.storage_units, dtype=float, ndmin=per_class)
            if units.ndim != per_class or np.any(units < 0.0) or not np.all(np.isfinite(units)):
                raise ValueError("storage unit counts must be finite and >= 0: one per class "
                                 "when decentralized, one when centralized")
            units.setflags(write=False)
            object.__setattr__(self, "storage_units", units)

    @property
    def uses_customer_der(self) -> bool:
        return self.mode == MODE_DECENTRALIZED

    @property
    def uses_retailer_der(self) -> bool:
        return self.mode == MODE_CENTRALIZED


def no_der() -> IntegrationCase:
    return IntegrationCase()


def decentralized_case(storage_spec: st.StorageSpec | None = None, storage_units=None) -> IntegrationCase:
    return IntegrationCase(MODE_DECENTRALIZED, storage_spec, storage_units)


def centralized_case(storage_spec: st.StorageSpec | None = None, storage_units: float = 0.0) -> IntegrationCase:
    units = None if storage_spec is None else float(storage_units)
    return IntegrationCase(MODE_CENTRALIZED, storage_spec, units)


# ---------------------------------------------------------------------------
# the fleet and the DER value


def _unit_schedule(case: IntegrationCase, prices: np.ndarray) -> st.StorageSchedule | None:
    """One unit's optimal schedule at the prices; None, with no solve, for an empty fleet."""
    if case.storage is None or not case.storage_units.any():
        return None
    return st.arbitrage_value(case.storage, prices)[1]


def _fleet_meter(case: IntegrationCase, n_classes: int, schedule: st.StorageSchedule) -> np.ndarray:
    """Per-class meter-side energy (C, N) of a customer fleet whose units follow ``schedule``."""
    units = case.storage_units
    if units.size != n_classes:
        raise ValueError(f"storage units for {units.size} classes, model has {n_classes}")
    return np.outer(units, schedule.meter_energy)


def customer_fleet_meter(case: IntegrationCase, n_classes: int, prices) -> np.ndarray:
    """Per-class meter-side storage energy (C, N) at the given prices."""
    prices = as_price_vector(prices)
    schedule = _unit_schedule(case, prices) if case.uses_customer_der else None
    if schedule is None:
        return np.zeros((n_classes, prices.size))
    return _fleet_meter(case, n_classes, schedule)


def fleet_value(case: IntegrationCase, prices) -> float:
    """Arbitrage value of the case's storage fleet at the given prices, $ per day."""
    schedule = _unit_schedule(case, as_price_vector(prices))
    if schedule is None:
        return 0.0
    return float(case.storage_units.sum()) * schedule.value


def renewable_value(case: IntegrationCase, scenario_set: ScenarioSet) -> float:
    """E[lambda^T r] of the renewables on the case's side: its PV kW times
    the set's per-kW E[lambda^T solar]."""
    if case.uses_customer_der:
        kw = float(scenario_set.customer_kw.sum())
    elif case.uses_retailer_der:
        kw = scenario_set.retailer_kw
    else:
        return 0.0
    return kw * scenario_set.moments.solar_value


def der_value(case: IntegrationCase, scenario_set: ScenarioSet) -> float:
    """Welfare the DERs add: fleet value at the expected price plus :func:`renewable_value`."""
    return fleet_value(case, scenario_set.moments.mean_price) + renewable_value(case, scenario_set)


def _retailer_der_value(case: IntegrationCase, scenario_set: ScenarioSet) -> float:
    """:func:`der_value` when the retailer holds the resources, else zero."""
    return der_value(case, scenario_set) if case.uses_retailer_der else 0.0


# ---------------------------------------------------------------------------
# expectation accounting (closed-form path)


def _metered_disturbance(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
) -> np.ndarray:
    """Price-independent part of metered aggregate demand, per local row (Kl, N).

    The class disturbances summed over customers, less the customers' total
    PV capacity times the solar profile when it sits behind the meter.
    It is :func:`optimal_two_part`'s independent route, which aggregates
    before ``cov_trace`` covaries it with the price block through the
    set's coupling, and so checks the connection charge that :func:`settle`
    gives through :func:`_metered`; nothing else reads it.
    """
    metered = np.einsum("c,scn->sn", model.class_counts, scenario_set.disturbance_block)
    if case.uses_customer_der and scenario_set.customer_kw.any():
        metered -= scenario_set.customer_kw.sum() * scenario_set.solar_block
    return metered


def _metered(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    prices: np.ndarray,
    fleet: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """Each class's expected metered energy (C, N) and its tr cov(lambda, .) (C,).

    The energy is M_c sigma_c (b0 - B pi) + M_c E[w_c] less the class's
    storage fleet energy ``fleet`` (C, N) and, behind the meter, its PV kW
    times the per-kW E[solar]; only the disturbance and solar covary.
    """
    moments = scenario_set.moments
    counts = model.class_counts
    energy = (
        np.outer(counts * model.sigma, model.base - model.slope @ prices)
        + counts[:, None] * moments.mean_disturbance
        - fleet
    )
    cov = counts * moments.disturbance_cov
    if case.uses_customer_der:
        kw = scenario_set.customer_kw
        energy = energy - np.outer(kw, moments.mean_solar)
        cov = cov - kw * moments.solar_cov
    return energy, cov


@dataclass(frozen=True)
class SurplusReport:
    """Expected surpluses of one tariff under one integration case, $ per day.

    Every figure is an expectation.  ``social_welfare`` is always the
    computed sum cs + rs, and ``revenue - energy_cost`` is rs up to rounding.
    ``fleet_value`` and ``renewable_value`` value the DERs on the case's
    side: the fleet at the prices it answers, and E[lambda^T r].
    """

    consumer_surplus: float
    retailer_surplus: float
    social_welfare: float
    per_class_consumer_surplus: np.ndarray
    revenue: float
    energy_cost: float
    fleet_value: float
    renewable_value: float


def settle(
    tariff: TwoPartTariff,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
) -> SurplusReport:
    """Expected settlement of a tariff under a case, from the set's cached moments.

    The storage fleet's unit schedule is fetched once, at the prices the
    fleet answers: the tariff prices pi behind the meter, the expected price
    lam_bar when the retailer commits it ex ante.  One customer meter
    (:func:`_metered`) then gives every figure.  Only the metered
    disturbance covaries with lambda, so the margin is (pi - lam_bar)^T
    E[metered energy] - tr cov(lambda, metered energy), and retailer
    surplus is M A + margin + the retailer's DER value (:func:`der_value`
    when it holds the resources, else zero).

    Consumer surplus uses the quadratic identity S(D) = v^T B^{-1} v /
    (2 sigma) - sigma pi^T B pi / 2 at the demand D = v - sigma B pi, with
    v = sigma b0 + w per customer, instead of evaluating S at the
    consumption bundle (only ``oracle.settlement_resim`` does the latter;
    the tests hold the two to each other).  Its expectation needs only the
    set's disturbance moments,

        E[v^T B^{-1} v] = sigma^2 b0^T B^{-1} b0 + 2 sigma b0^T B^{-1} E[w]
                          + tr(B^{-1} E[w w^T]),

    and, summed over a class's customers, the bill term is pi^T times the
    class's expected metered energy.  O(C N^2) per call.
    """
    pi = as_price_vector(tariff.prices, model.horizon)
    sigma, counts = model.sigma, model.class_counts
    moments = scenario_set.moments
    lam_bar = moments.mean_price

    schedule = _unit_schedule(case, lam_bar if case.uses_retailer_der else pi)
    storage_value, fleet = 0.0, 0.0
    if schedule is not None:
        storage_value = float(case.storage_units.sum()) * schedule.value
        if case.uses_customer_der:
            fleet = _fleet_meter(case, model.n_classes, schedule)
    energy, cov = _metered(model, scenario_set, case, pi, fleet)
    metered = energy.sum(axis=0)

    renewable = renewable_value(case, scenario_set)
    retailer_der = storage_value + renewable if case.uses_retailer_der else 0.0
    margin = float((pi - lam_bar) @ metered) - float(cov.sum())
    retailer_surplus = model.customers * tariff.connection_charge + margin + retailer_der

    binv_b0 = model.slope_inverse @ model.base
    quad_w = np.einsum("nm,cmn->c", model.slope_inverse, moments.disturbance_second_moment)
    quad_v = (  # E[v^T B^-1 v] per customer, (C,)
        sigma**2 * float(model.base @ binv_b0)
        + 2.0 * sigma * (moments.mean_disturbance @ binv_b0)
        + quad_w
    )
    per_class_cs = (
        counts * quad_v / (2.0 * sigma)
        - 0.5 * counts * sigma * float(pi @ (model.slope @ pi))
        - energy @ pi
        - counts * tariff.connection_charge
    )
    consumer_surplus = float(per_class_cs.sum())

    return SurplusReport(
        consumer_surplus=consumer_surplus,
        retailer_surplus=retailer_surplus,
        social_welfare=consumer_surplus + retailer_surplus,
        per_class_consumer_surplus=per_class_cs,
        revenue=model.customers * tariff.connection_charge + float(pi @ metered),
        energy_cost=float(lam_bar @ metered) + float(cov.sum()) - retailer_der,
        fleet_value=storage_value,
        renewable_value=renewable,
    )


def expected_retailer_surplus(
    tariff: TwoPartTariff,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
) -> float:
    """Expected retailer surplus of a tariff, $ per day: :func:`settle`'s.

    Kept as a name of its own because the benchmark's tracer counts its
    calls as ``tariff.revenue_probes``: :func:`_ray_roots`' peak probe
    calls it, while a solve's residual check and ``welfare.evaluate`` read
    the whole settlement.
    """
    return settle(tariff, model, scenario_set, case).retailer_surplus


# ---------------------------------------------------------------------------
# optimal two-part tariffs


def optimal_two_part(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
) -> TwoPartTariff:
    """Surplus-maximizing revenue-adequate two-part tariff, any integration mode.

    The price Jacobian -sigma_total B of this demand family is
    state-independent, so the optimal prices are the expected wholesale
    price lam_bar in every mode.  The connection charge is computed twice:
    by the closed form

        A = (F + tr cov(lambda, D_metered) - retailer DER value) / M,

    in which only the metered disturbance covaries with lambda, and by the
    generic revenue-adequacy solve (F - rs(0, lam_bar)) / M, exact because
    expected revenue is linear in A, with rs from :func:`settle`;
    disagreement beyond ``A_AGREEMENT_RTOL`` raises
    :class:`RevenueAdequacyError`.
    """
    pi = scenario_set.moments.mean_price
    metered_cov = cov_trace(
        scenario_set,
        BlockField(_metered_disturbance(model, scenario_set, case), local=True),
        BlockField(scenario_set.price_block, local=False),
    )
    a_closed = (fixed_cost + metered_cov - _retailer_der_value(case, scenario_set)) / model.customers
    uncharged = settle(TwoPartTariff(0.0, pi), model, scenario_set, case)
    a_generic = (fixed_cost - uncharged.retailer_surplus) / model.customers
    if abs(a_closed - a_generic) > A_AGREEMENT_RTOL * max(1.0, abs(a_closed), abs(a_generic)):
        raise RevenueAdequacyError(
            f"connection-charge routes disagree: closed form {a_closed!r}, generic {a_generic!r}"
        )
    return TwoPartTariff(a_generic, pi)


def optimal_decentralized(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
) -> TwoPartTariff:
    """:func:`optimal_two_part` for resources behind the meter (or none)."""
    if case.mode == MODE_CENTRALIZED:
        raise ValueError("use optimal_centralized for retailer-integrated resources")
    return optimal_two_part(model, scenario_set, case, fixed_cost)


def optimal_centralized(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
) -> TwoPartTariff:
    """:func:`optimal_two_part` for retailer-integrated resources."""
    if case.mode != MODE_CENTRALIZED:
        raise ValueError("optimal_centralized requires a centralized integration case")
    return optimal_two_part(model, scenario_set, case, fixed_cost)


# ---------------------------------------------------------------------------
# restricted families


@dataclass(frozen=True)
class FamilyReport:
    """Solution record for one family optimization.

    ``settlement`` is the returned tariff's one settlement (:func:`settle`),
    which the study tables read, and ``residual`` its retailer surplus
    less F; ``multiplier_t`` is the dynamic price's coordinate on the
    Ramsey line t * choke + (1-t) * expected price, the lower root of the
    revenue quadratic along that line.  For the dynamic kinds,
    ``fleet_rounds`` counts the choke-point rounds solved and
    ``cycle_length`` is the period of the fleet cycle that ended them: 1
    when the fixed point converged, 2 or more when the fleet alternated
    between schedules, 0 when the round cap was hit with no repeat; both
    are 0 for the other kinds.  ``notes`` flags a negative connection
    charge, a fleet cycle longer than 1, and a round cap hit.
    """

    tariff: TwoPartTariff
    multiplier_t: float | None = None
    settlement: SurplusReport | None = None
    residual: float = 0.0
    notes: tuple[str, ...] = ()
    fleet_rounds: int = 0
    cycle_length: int = 0


def _adequacy_tolerance(model: dm.DemandModel, scenario_set: ScenarioSet, case: IntegrationCase,
                        tariff: TwoPartTariff, fixed_cost: float) -> float:
    """Settled-revenue residual accepted at a tariff, $ per day.

    ``ADEQUACY_RTOL`` times the largest term the residual sums, max(1, |F|,
    M |A|, |pi|^T |E[metered energy]|) with no fleet (it would cost a storage solve),
    so that rounding alone cannot fail a solve at F = 0.
    """
    energy, _ = _metered(model, scenario_set, case, tariff.prices, 0.0)
    billed = float(np.abs(tariff.prices) @ np.abs(energy.sum(axis=0)))
    charged = model.customers * abs(tariff.connection_charge)
    return ADEQUACY_RTOL * max(1.0, abs(fixed_cost), charged, billed)


def _ray_quadratic(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    charge: float,
    frozen_fleet: np.ndarray,
    origin: np.ndarray,
    direction: np.ndarray,
) -> tuple[float, float, float]:
    """Coefficients of E[rs](origin + x direction) = a2 x^2 + a1 x + a0.

    The customer storage response is frozen at ``frozen_fleet`` (the
    per-class meter-side fleet energy), so demand is affine in x and revenue
    exactly quadratic; a2 < 0 because the price response is monotone.
    """
    s_tot = model.sigma_total
    b_dir = model.slope @ direction
    energy, cov = _metered(model, scenario_set, case, origin, frozen_fleet)
    demand = energy.sum(axis=0)  # E[net demand] at the origin
    gap = origin - scenario_set.moments.mean_price  # E[pi - lambda] at the origin

    a2 = -s_tot * float(direction @ b_dir)
    a1 = float(demand @ direction) - s_tot * float(gap @ b_dir)
    a0 = float(gap @ demand) - float(cov.sum())
    a0 += model.customers * charge + _retailer_der_value(case, scenario_set)
    return a2, a1, a0


def _ray_roots(
    family: TariffFamily,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
    origin: np.ndarray,
    direction: np.ndarray,
    fleet: np.ndarray,
) -> tuple[float, float, np.ndarray]:
    """Both roots x_lo <= x_hi of E[rs](origin + x direction) = F, and the fleet at x_lo.

    Starting from ``fleet`` (C, N), the customer fleet is frozen, the quadratic
    solved, and the fleet re-frozen at its live response at the lower root
    until that response stops changing; revenue at the lower root is then
    settled exactly, and that live response is returned.  Raises
    :class:`InfeasibleFamilyError` when settled revenue at the quadratic's
    vertex falls short of F, and
    :class:`RevenueAdequacyError` when the response has not settled within
    ``_RAY_ROUNDS``.
    """
    label = "flat" if family.is_flat else "dynamic"
    charge = family.connection_charge
    for _ in range(_RAY_ROUNDS):
        a2, a1, a0 = _ray_quadratic(model, scenario_set, case, charge, fleet, origin, direction)
        vertex = -a1 / (2.0 * a2)
        top = TwoPartTariff(charge, origin + vertex * direction)
        peak = expected_retailer_surplus(top, model, scenario_set, case)
        if fixed_cost > peak + _adequacy_tolerance(model, scenario_set, case, top, fixed_cost):
            raise InfeasibleFamilyError(
                f"{label} family cannot attain expected revenue {fixed_cost:.12g}; "
                f"maximum attainable is {peak:.12g}",
                attainable_max=peak,
            )
        # a tangency within tolerance of the peak merges the roots at the vertex
        half_width = math.sqrt(max(0.0, a1 * a1 - 4.0 * a2 * (a0 - fixed_cost))) / (-2.0 * a2)
        lo = vertex - half_width
        live = customer_fleet_meter(case, model.n_classes, origin + lo * direction)
        if np.array_equal(live, fleet):
            return lo, vertex + half_width, live
        fleet = live
    raise RevenueAdequacyError(
        f"{label}-family storage response did not settle after {_RAY_ROUNDS} rounds"
    )


def _solve_flat(
    family: TariffFamily,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
) -> FamilyReport:
    """Revenue-adequate flat prices p * 1; returns the root with more surplus."""
    n = model.horizon
    no_fleet = np.zeros((model.n_classes, n))
    lo, hi, _ = _ray_roots(family, model, scenario_set, case, fixed_cost, np.zeros(n), np.ones(n), no_fleet)
    candidates = [flat_tariff(family.connection_charge, p, n) for p in (lo, hi)]
    settlements = [settle(t, model, scenario_set, case) for t in candidates]
    best = int(np.argmax([s.consumer_surplus for s in settlements]))
    return FamilyReport(tariff=candidates[best], settlement=settlements[best])


def _choke_prices(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    frozen_fleet: np.ndarray,
) -> np.ndarray:
    """Price vector at which expected net demand vanishes (frozen storage)."""
    energy, _ = _metered(model, scenario_set, case, np.zeros(model.horizon), frozen_fleet)
    return np.linalg.solve(model.slope, energy.sum(axis=0) / model.sigma_total)


def _solve_dynamic(
    family: TariffFamily,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
) -> FamilyReport:
    """Ramsey prices for a pinned connection charge.

    The first-order conditions put the optimum on the line
    pi(t) = lam_bar + t * (choke - lam_bar), where choke is the expected
    net-demand choke price.  With the fleet frozen at the one the choke
    point assumes, settled revenue along the line is a quadratic peaking at
    t = 1/2, and the revenue-adequate member is its lower root
    (:func:`_ray_roots`).  The choke point is refreshed in an outer loop
    that stops as soon as the fleet response at that root repeats a fleet
    an earlier round assumed.  The rounds from that one on form a cycle;
    each member is revenue-adequate (its fleet is settled at its own root),
    and the one with the most expected consumer surplus is returned, the
    earliest on a tie.  A cycle of length 1 is a converged fixed point.
    When the loop ends at its round cap with no repeat, the last round's
    tariff is returned and the report carries a note.
    """
    charge = family.connection_charge
    lam_bar = scenario_set.moments.mean_price
    fleet = customer_fleet_meter(case, model.n_classes, lam_bar)
    # fleet bytes -> round that assumed it; + 0.0 folds -0.0 into 0.0
    assumed = {}
    rounds = []  # (t, prices) per round
    cycle_start = None
    for _ in range(_DYNAMIC_FLEET_ROUNDS):
        assumed[(fleet + 0.0).tobytes()] = len(rounds)
        direction = _choke_prices(model, scenario_set, case, fleet) - lam_bar
        t, _, fleet = _ray_roots(family, model, scenario_set, case, fixed_cost, lam_bar, direction, fleet)
        rounds.append((t, lam_bar + t * direction))
        cycle_start = assumed.get((fleet + 0.0).tobytes())
        if cycle_start is not None:
            break
    notes = []
    if cycle_start is None:
        cycle = rounds[-1:]
        cycle_length = 0
        notes.append(f"storage fixed point not converged after {_DYNAMIC_FLEET_ROUNDS} rounds")
    else:
        cycle = rounds[cycle_start:]
        cycle_length = len(cycle)
    best, settlement = 0, None
    if len(cycle) > 1:
        settlements = [settle(TwoPartTariff(charge, pi), model, scenario_set, case)
                       for _, pi in cycle]
        best = int(np.argmax([s.consumer_surplus for s in settlements]))
        settlement = settlements[best]
        notes.append(f"storage fixed point cycles with period {cycle_length}")
    t_star, pi_star = cycle[best]
    return FamilyReport(
        tariff=TwoPartTariff(charge, pi_star),
        multiplier_t=t_star,
        settlement=settlement,
        notes=tuple(notes),
        fleet_rounds=len(rounds),
        cycle_length=cycle_length,
    )


def optimize_family_report(
    family: TariffFamily,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: IntegrationCase,
    fixed_cost: float,
) -> FamilyReport:
    """Solve one family for E[rs] = F; returns the solution with diagnostics.

    The report carries the tariff's one settlement: the one the solve made
    when it compared candidates (the flat roots, a dynamic fleet cycle's
    members), else one made here.  A residual beyond
    :func:`_adequacy_tolerance`, a non-finite one, or a non-finite consumer
    surplus raises :class:`RevenueAdequacyError`.
    """
    if family.kind == OPTIMAL_TWO_PART:
        report = FamilyReport(tariff=optimal_two_part(model, scenario_set, case, fixed_cost))
    elif family.is_flat:
        report = _solve_flat(family, model, scenario_set, case, fixed_cost)
    else:
        report = _solve_dynamic(family, model, scenario_set, case, fixed_cost)
    settlement = report.settlement
    if settlement is None:
        settlement = settle(report.tariff, model, scenario_set, case)
    residual = settlement.retailer_surplus - fixed_cost
    if not abs(residual) <= _adequacy_tolerance(model, scenario_set, case, report.tariff, fixed_cost):
        raise RevenueAdequacyError(f"{family.kind} revenue residual {residual!r} exceeds tolerance")
    cs = settlement.consumer_surplus
    if not math.isfinite(cs):
        raise RevenueAdequacyError(f"{family.kind} consumer surplus {cs!r} is not finite")
    notes = report.notes
    if report.tariff.connection_charge < 0.0:
        notes += ("negative connection charge",)
    return dataclasses.replace(report, settlement=settlement, residual=residual, notes=notes)

