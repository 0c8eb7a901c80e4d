"""Welfare accounting on the scenario set's moments, and the study analyses.

Every surplus figure is the expectation of a quadratic in the scenario, so
``evaluate`` reports it exactly from the set's cached moments
(``ScenarioSet.moments``): it is the tariff module's one settlement,
``tariff.settle``, plus a finiteness check, in O(C N^2) per call whatever
the number of scenarios.  The per-(scenario,
class) settlement that these expectations summarize lives only in
``oracle.settlement_resim``, the independent route the tests hold
``evaluate`` to.  The decomposition identities verified by
``welfare_identities`` stay genuine cross-checks: ``efficient_welfare`` and
``planner_bound`` price every local row's demand through the batched
kernels ``demand.demand`` and ``demand.gross_benefit``, at the price the
set's coupling conditions on that row, in one pass per call.

Analyses built on top: planner (ex-post efficient) upper bound, Pareto
fronts between consumer surplus and collected revenue, sweeps over
installed DER capacity, and the cross-subsidy comparison between
net-metered and separated settlement.  A swept capacity's scenario set is a
:func:`~tariffkit.scenario.with_pv_capacity` set, which shares the study
set's moments, so no grid cell makes a pass over the scenarios except the
optimal tariff's independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import demand as dm
from . import storage as st
from . import tariff as tf
from .scenario import ScenarioSet, expect_price, with_pv_capacity

IDENTITY_RTOL = 1e-8


def evaluate(
    tariff: tf.TwoPartTariff,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
) -> tf.SurplusReport:
    """Expected surpluses of a tariff under a case: its ``tariff.settle``.

    O(C N^2) per call.  A non-finite consumer or retailer surplus raises
    ``ArithmeticError``.
    """
    report = tf.settle(tariff, model, scenario_set, case)
    if not (math.isfinite(report.consumer_surplus) and math.isfinite(report.retailer_surplus)):
        raise ArithmeticError(
            f"non-finite surplus: cs {report.consumer_surplus!r}, rs {report.retailer_surplus!r}"
        )
    return report


def efficient_welfare(model: dm.DemandModel, scenario_set: ScenarioSet) -> float:
    """Expected welfare of pricing consumption at the expected wholesale price.

    sw*_0 = sum_i M_i E[S_i(D_i(lam_bar, w)) - lambda^T D_i(lam_bar, w)];
    the benchmark all DER welfare gains are measured against.  Demand depends
    on the local state only, so each local row l is priced once and its
    energy cost read at E[lambda | l], the coupling's column l.
    """
    dist = scenario_set.disturbance_block
    weights, lam_cond = scenario_set.coupling.conditional_prices(scenario_set.price_block)
    q = dm.demand(model, model.sigma, expect_price(scenario_set), dist)
    value = dm.gross_benefit(model, model.sigma, q, dist) - np.einsum("scn,sn->sc", q, lam_cond)
    return float(weights @ (value @ model.class_counts))


@dataclass(frozen=True)
class IdentityReport:
    """Cross-check of the optimal tariff's welfare against closed forms.

    ``identity_value`` is sw*_0 + ``tariff.der_value``, against which the
    simulated sw(T*) is compared; ``lump_sum`` checks that moving F by
    0.1 max(1, |F|) moves cs and rs one for one and leaves sw unchanged.
    """

    tariff: tf.TwoPartTariff
    social_welfare: float
    identity_value: float
    identity_rel_error: float
    consumer_surplus: float
    consumer_identity_value: float
    consumer_identity_rel_error: float
    lump_sum_sw_error: float
    lump_sum_cs_error: float
    lump_sum_rs_error: float
    passed: bool


def welfare_identities(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
    fixed_cost: float,
) -> IdentityReport:
    """Verify the welfare decomposition of the optimal two-part tariff."""
    tariff = tf.optimal_two_part(model, scenario_set, case, fixed_cost)
    report = evaluate(tariff, model, scenario_set, case)
    identity_value = efficient_welfare(model, scenario_set) + tf.der_value(case, scenario_set)
    scale = max(1.0, abs(identity_value), abs(report.social_welfare))
    identity_err = abs(report.social_welfare - identity_value) / scale

    cs_identity = identity_value - fixed_cost
    cs_scale = max(1.0, abs(cs_identity), abs(report.consumer_surplus))
    cs_err = abs(report.consumer_surplus - cs_identity) / cs_scale

    delta = 0.1 * max(1.0, abs(fixed_cost))
    shifted = tf.optimal_two_part(model, scenario_set, case, fixed_cost + delta)
    shifted_report = evaluate(shifted, model, scenario_set, case)
    sw_err = abs(shifted_report.social_welfare - report.social_welfare) / scale
    cs_shift_err = abs(
        (shifted_report.consumer_surplus - report.consumer_surplus) + delta
    ) / scale
    rs_shift_err = abs(
        (shifted_report.retailer_surplus - report.retailer_surplus) - delta
    ) / scale

    passed = all(
        err <= IDENTITY_RTOL
        for err in (identity_err, cs_err, sw_err, cs_shift_err, rs_shift_err)
    )
    return IdentityReport(
        tariff=tariff,
        social_welfare=report.social_welfare,
        identity_value=identity_value,
        identity_rel_error=identity_err,
        consumer_surplus=report.consumer_surplus,
        consumer_identity_value=cs_identity,
        consumer_identity_rel_error=cs_err,
        lump_sum_sw_error=sw_err,
        lump_sum_cs_error=cs_shift_err,
        lump_sum_rs_error=rs_shift_err,
        passed=passed,
    )


def planner_bound(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
) -> float:
    """Expected welfare of the ex-post efficient planner (upper bound).

    The planner observes each customer's local state and prices consumption
    at the conditional expected wholesale price E[lambda | w_i], pooled from
    the coupling's columns over the local rows that share the state;
    flexible resources are likewise operated against the conditional
    expectation.
    When prices and local states are independent every conditional
    expectation collapses to the expected price and the bound is attained
    by the optimal decentralized tariff.
    """
    if case.mode == tf.MODE_CENTRALIZED:
        raise ValueError("planner bound is defined for customer-side integration")
    counts = model.class_counts
    use_der = case.uses_customer_der
    # coupling column l: local row l's weight and E[lambda | row l]
    probs, lam = scenario_set.coupling.conditional_prices(scenario_set.price_block)
    renewables = scenario_set.customer_renewable_block
    total = 0.0
    for i in range(model.n_classes):
        local = scenario_set.disturbance_block[:, i, :]
        if use_der:
            local = np.concatenate([local, renewables[:, i, :]], axis=1)
        _, first, group = np.unique(local, axis=0, return_index=True, return_inverse=True)
        group = group.reshape(-1)
        weight = np.bincount(group, weights=probs, minlength=first.size)
        keep = weight > 0.0
        weighted_prices = np.zeros((first.size, model.horizon))
        np.add.at(weighted_prices, group, probs[:, None] * lam)
        lam_cond = weighted_prices[keep] / weight[keep, None]  # E[lambda | w_i], (G, N)
        w_i = scenario_set.disturbance_block[first[keep], i : i + 1, :]  # (G, 1, N)
        sigma = model.sigma[i : i + 1]
        q = dm.demand(model, sigma, lam_cond, w_i)
        benefit = dm.gross_benefit(model, sigma, q, w_i)[:, 0]
        value = benefit - np.einsum("gn,gn->g", lam_cond, q[:, 0])
        total += counts[i] * float(weight[keep] @ value)
        if use_der and case.storage is not None:
            unit_values = [st.arbitrage_value(case.storage, p)[0] for p in lam_cond]
            total += case.storage_units[i] * float(weight[keep] @ unit_values)
    return total + tf.renewable_value(case, scenario_set)


# ---------------------------------------------------------------------------
# normalization anchors and the study analyses


@dataclass(frozen=True)
class BaseAnchors:
    """Frozen base-case quantities all gains are normalized against."""

    revenue: float
    consumer_surplus: float
    retailer_surplus: float


def base_anchors(
    model: dm.DemandModel, scenario_set: ScenarioSet, nominal_tariff: tf.TwoPartTariff
) -> BaseAnchors:
    """Evaluate the nominal tariff with no DERs and freeze the anchors."""
    report = evaluate(nominal_tariff, model, scenario_set, tf.no_der())
    return BaseAnchors(
        revenue=report.expected_revenue,
        consumer_surplus=report.consumer_surplus,
        retailer_surplus=report.retailer_surplus,
    )


@dataclass(frozen=True)
class ParetoPoint:
    """One F grid value of a Pareto front.

    A value the family cannot reach has no tariff, NaN gains and the
    solver's reason.
    """

    fixed_cost: float
    cs_gain: float = math.nan
    rs_gain: float = math.nan
    tariff: tf.TwoPartTariff | None = None
    reason: str = ""

    @property
    def feasible(self) -> bool:
        return self.tariff is not None


@dataclass(frozen=True)
class ParetoFront:
    """One family's cells, one per F grid value, in grid order."""

    cells: tuple[ParetoPoint, ...]

    @property
    def points(self) -> tuple[ParetoPoint, ...]:
        """The feasible cells, in grid order."""
        return tuple(cell for cell in self.cells if cell.feasible)


def pareto_front(
    family: tf.TariffFamily,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
    fixed_cost_grid,
    anchors: BaseAnchors,
) -> ParetoFront:
    """Trade-off between consumer surplus and collected revenue.

    Each grid value of F is solved within the family; gains are
    (cs - cs_base) / revenue_base and (F - rs_base) / revenue_base.
    """
    cells = []
    for f in fixed_cost_grid:
        f = float(f)
        try:
            tariff = tf.optimize_family_report(family, model, scenario_set, case, f).tariff
        except tf.InfeasibleFamilyError as exc:
            cells.append(ParetoPoint(f, reason=str(exc)))
            continue
        report = evaluate(tariff, model, scenario_set, case)
        cells.append(
            ParetoPoint(
                fixed_cost=f,
                cs_gain=(report.consumer_surplus - anchors.consumer_surplus) / anchors.revenue,
                rs_gain=(f - anchors.retailer_surplus) / anchors.revenue,
                tariff=tariff,
            )
        )
    return ParetoFront(tuple(cells))


def allocate_pv(
    model: dm.DemandModel, capacity_kw: float, unit_kw: float
) -> tuple[np.ndarray, np.ndarray]:
    """Assign PV systems to the largest consumers first, in whole units.

    Returns (per-class capacity kW, per-class owner counts).  Classes are
    filled in decreasing order of sigma, one unit per customer; when the
    capacity is not a whole number of units the last owner gets the
    fractional remainder, keeping the allocated total exact.
    """
    if capacity_kw < 0.0 or unit_kw <= 0.0:
        raise ValueError("capacity must be >= 0 and unit size positive")
    kw = np.zeros(model.n_classes)
    owners = np.zeros(model.n_classes)
    remaining_units = capacity_kw / unit_kw
    order = np.argsort(-model.sigma, kind="stable")
    for i in order:
        if remaining_units <= 0.0:
            break
        take = min(float(model.class_counts[i]), remaining_units)
        kw[i] = take * unit_kw
        owners[i] = math.ceil(take - 1e-12)
        remaining_units -= take
    if remaining_units > 1e-9:
        raise ValueError(
            f"PV capacity {capacity_kw} kW exceeds one unit per customer "
            f"({model.customers * unit_kw} kW)"
        )
    return kw, owners


@dataclass(frozen=True)
class SweepCell:
    """One (capacity, family) cell of a DER sweep.

    A cell whose family cannot reach F has no tariff, NaN gains and the
    solver's reason.
    """

    capacity_kw: float
    family_kind: str
    cs_gain: float = math.nan
    sw_gain: float = math.nan
    tariff: tf.TwoPartTariff | None = None
    reason: str = ""

    @property
    def feasible(self) -> bool:
        return self.tariff is not None


def sweep_fixture(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    mode: str,
    capacity_kw: float,
    storage_ratio: float,
    storage_unit: st.StorageSpec,
    pv_unit_kw: float,
) -> tuple[ScenarioSet, tf.IntegrationCase]:
    """Scenario set and integration case for one installed PV capacity.

    Storage is sized at ``storage_ratio`` kWh per kW of PV and integrated
    as (possibly fractional) counts of ``storage_unit``.  Decentralized PV
    goes to the largest consumers first (:func:`allocate_pv`) and the fleet
    is spread over classes in proportion to allocated PV; centralized PV
    and storage sit with the retailer.  ``MODE_NONE`` installs nothing, so
    it accepts only a zero capacity.
    """
    if mode == tf.MODE_NONE:
        if capacity_kw != 0.0:
            raise ValueError(
                f"mode {tf.MODE_NONE!r} installs no DER; capacity must be 0, got {capacity_kw} kW"
            )
        return scenario_set, tf.no_der()
    units_total = storage_ratio * capacity_kw / storage_unit.capacity_kwh
    if mode == tf.MODE_DECENTRALIZED:
        kw, _ = allocate_pv(model, capacity_kw, pv_unit_kw)
        share = kw / capacity_kw if capacity_kw > 0.0 else np.zeros(model.n_classes)
        case = tf.decentralized_case(storage_unit, units_total * share)
        return with_pv_capacity(scenario_set, customer_kw=kw), case
    if mode == tf.MODE_CENTRALIZED:
        case = tf.centralized_case(storage_unit, units_total)
        return with_pv_capacity(scenario_set, retailer_kw=capacity_kw), case
    raise ValueError(f"unknown integration mode {mode!r}")


def der_sweep(
    families,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    mode: str,
    capacity_grid_kw,
    storage_ratio: float,
    fixed_cost: float,
    anchors: BaseAnchors,
    *,
    pv_unit_kw: float,
    storage_unit: st.StorageSpec,
) -> list[SweepCell]:
    """Re-solve each family at each installed PV capacity and report gains.

    Each capacity's scenario set and integration case come from
    :func:`sweep_fixture`.
    """
    if mode not in (tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED):
        raise ValueError(f"sweep mode must be decentralized or centralized, got {mode!r}")
    base_sw = anchors.consumer_surplus + anchors.retailer_surplus
    cells = []
    for capacity in capacity_grid_kw:
        capacity = float(capacity)
        swept, case = sweep_fixture(
            model, scenario_set, mode, capacity, storage_ratio, storage_unit, pv_unit_kw
        )
        for family in families:
            try:
                tariff = tf.optimize_family_report(family, model, swept, case, fixed_cost).tariff
            except tf.InfeasibleFamilyError as exc:
                cells.append(SweepCell(capacity, family.kind, reason=str(exc)))
                continue
            report = evaluate(tariff, model, swept, case)
            cells.append(
                SweepCell(
                    capacity_kw=capacity,
                    family_kind=family.kind,
                    cs_gain=(report.consumer_surplus - anchors.consumer_surplus)
                    / anchors.revenue,
                    sw_gain=(report.social_welfare - base_sw) / anchors.revenue,
                    tariff=tariff,
                )
            )
    return cells


@dataclass(frozen=True)
class CrossSubsidyCell:
    """PV-owner settlement comparison at one installed capacity.

    ``subsidy_norm`` is (owner contribution under separated settlement
    minus owner contribution under net metering) / F: the share of the
    fixed cost shifted from PV owners onto other customers by net metering.
    A cell where either settlement's solve cannot reach F has no tariffs,
    NaN figures and the solver's reason.
    """

    capacity_kw: float
    owner_count: float
    contribution_net_metering: float = math.nan
    contribution_separated: float = math.nan
    subsidy_norm: float = math.nan
    net_metering_tariff: tf.TwoPartTariff | None = None
    separated_tariff: tf.TwoPartTariff | None = None
    reason: str = ""

    @property
    def feasible(self) -> bool:
        return self.net_metering_tariff is not None


def _owner_contributions(
    tariff: tf.TwoPartTariff,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    owner_kw: np.ndarray,
    owners: np.ndarray,
    separated: bool,
) -> float:
    """E[sum over PV owners of (payment - lambda^T physical net demand)].

    Under net metering owners are billed on q - r at the tariff prices;
    under separated settlement consumption pays the tariff prices while
    generation is credited at the expected wholesale price.  Demand is
    linear in the disturbance, so from the set's moments an owner in class
    c contributes A + (pi - lam_bar)^T E[q_c] - tr cov(lambda, w_c), and
    each owned kW of PV E[lambda^T solar] - credit^T E[solar].
    """
    if not owners.any():
        return 0.0
    moments = scenario_set.moments
    pi, lam_bar = tariff.prices, moments.mean_price
    mean_demand = dm.demand(model, model.sigma, pi, moments.mean_disturbance)
    per_owner = tariff.connection_charge + mean_demand @ (pi - lam_bar) - moments.disturbance_cov
    credit_price = lam_bar if separated else pi
    per_kw = moments.solar_value - float(credit_price @ moments.mean_solar)
    return float(owners @ per_owner) + float(owner_kw.sum()) * per_kw


def cross_subsidy(
    family: tf.TariffFamily,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    capacity_grid_kw,
    fixed_cost: float,
    *,
    pv_unit_kw: float,
) -> list[CrossSubsidyCell]:
    """Fixed-cost contribution shifted to non-owners by net metering.

    For each capacity, PV is allocated to the largest consumers and the
    family is solved twice at the same required revenue: once under net
    metering and once under separated settlement (consumption at the tariff
    prices, generation credited at the expected wholesale price).  Under
    separated settlement the customer response is unchanged while the
    generation credit enters expected revenue as the constant
    tr cov(lambda, r), so the counterpart solve is the no-DER solve at
    F - tr cov(lambda, r).  Raises ValueError at F = 0, where the
    normalized subsidy is undefined.
    """
    if fixed_cost == 0.0:
        raise ValueError("subsidy_norm is normalized by F and is undefined at F = 0")
    cells = []
    for capacity in capacity_grid_kw:
        capacity = float(capacity)
        owner_kw, owners = allocate_pv(model, capacity, pv_unit_kw)
        swept = with_pv_capacity(scenario_set, customer_kw=owner_kw)
        nm_case = tf.IntegrationCase(mode=tf.MODE_DECENTRALIZED)
        separated_cost = fixed_cost - float(owner_kw.sum()) * swept.moments.solar_cov
        try:
            nm_tariff = tf.optimize_family_report(family, model, swept, nm_case, fixed_cost).tariff
            sep_tariff = tf.optimize_family_report(
                family, model, swept, tf.no_der(), separated_cost
            ).tariff
        except tf.InfeasibleFamilyError as exc:
            cells.append(CrossSubsidyCell(capacity, float(owners.sum()), reason=str(exc)))
            continue

        contribution_nm = _owner_contributions(
            nm_tariff, model, swept, owner_kw, owners, separated=False
        )
        contribution_sep = _owner_contributions(
            sep_tariff, model, swept, owner_kw, owners, separated=True
        )
        cells.append(
            CrossSubsidyCell(
                capacity_kw=capacity,
                owner_count=float(owners.sum()),
                contribution_net_metering=contribution_nm,
                contribution_separated=contribution_sep,
                subsidy_norm=(contribution_sep - contribution_nm) / fixed_cost,
                net_metering_tariff=nm_tariff,
                separated_tariff=sep_tariff,
            )
        )
    return cells
