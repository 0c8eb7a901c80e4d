"""Brute-force verification engines for the test suite.

Each engine re-derives a result the library computes elsewhere, using a
different optimization routine and a different accumulation order, so that
agreement between the two paths is evidence of correctness rather than
repetition: a lattice dynamic program checks the storage LP, a
``scipy.optimize.linprog`` settlement re-simulation checks the expectation
accounting, a scalar root find checks connection charges, and a direct
per-(class, local-state) maximization checks the planner bound.

Nothing here is used by the library's own computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import demand as dm
from . import storage as st
from . import tariff as tf
from .scenario import Product, Scenario, ScenarioSet, as_price_vector

STORAGE_HORIZON_CAP = 6
PLANNER_SUPPORT_CAP = 16


def storage_brute_force(spec: st.StorageSpec, prices, grid_steps: int = 10) -> float:
    """Lattice dynamic program over the state of charge.

    States are capacity * j / grid_steps, starting from empty.  Transitions
    charge or discharge (never both), respecting rate caps.  The result is
    a lower bound on the LP value; for the idealized unit every LP vertex
    has its state of charge in {0, capacity}, which the lattice contains,
    so the bound is tight there.
    """
    prices = as_price_vector(prices)
    n = prices.size
    if n > STORAGE_HORIZON_CAP:
        raise ValueError(f"oracle horizon cap is {STORAGE_HORIZON_CAP}, got {n}")
    if grid_steps < 1:
        raise ValueError("grid_steps must be >= 1")
    theta = spec.capacity_kwh
    if theta <= 0.0:
        return 0.0
    eta = spec.efficiency
    c_cap, d_cap = st.rate_caps(spec, n)
    lattice = [theta * j / grid_steps for j in range(grid_steps + 1)]

    values = {0.0: 0.0}
    for t in range(n):
        nxt: dict[float, float] = {}
        for soc, val in values.items():
            for target in lattice:
                delta = target - soc
                if delta >= 0.0:
                    c = delta / eta
                    if c > c_cap[t] + 1e-12:
                        continue
                    reward = -prices[t] * c
                else:
                    d = -delta * eta
                    if d > d_cap[t] + 1e-12:
                        continue
                    reward = prices[t] * d
                cand = val + reward
                if cand > nxt.get(target, -math.inf):
                    nxt[target] = cand
        values = nxt
    return max(values.values())


def _linprog_schedule(spec: st.StorageSpec, prices: np.ndarray) -> tuple[float, np.ndarray]:
    """Arbitrage value and meter schedule via scipy's LP solver.

    Same feasible set as the library's storage model (running state of
    charge in [0, capacity], rate caps, one-way efficiency, no terminal
    constraint), solved by an unrelated code path.
    """
    n = prices.size
    theta = spec.capacity_kwh
    if theta <= 0.0:
        return 0.0, np.zeros(n)
    eta = spec.efficiency
    c_cap, d_cap = st.rate_caps(spec, n)
    prefix = np.tril(np.ones((n, n)))
    # soc_k = sum_{t<=k} (eta c_t - d_t / eta) in [0, theta]
    a_ub = np.block([[prefix * eta, -prefix / eta], [-prefix * eta, prefix / eta]])
    b_ub = np.concatenate([np.full(n, theta), np.zeros(n)])
    cost = np.concatenate([prices, -prices])  # minimize pi^T c - pi^T d
    bounds = [(0.0, c_cap[t]) for t in range(n)] + [(0.0, d_cap[t]) for t in range(n)]
    result = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise RuntimeError(f"reference LP failed: {result.message}")
    charge, discharge = result.x[:n], result.x[n:]
    return -float(result.fun), discharge - charge


def _rows(scenario_set: ScenarioSet) -> list[Scenario]:
    """The set's scenarios, built here from its blocks and weights.

    A product set's rows pair every price row k with every local row l at
    weight p_k q_l, price-major; a paired set's pair row s with row s.  The
    renewables are recomputed as capacity times the solar row, so the
    engines never read the library's row view or joint tensors.
    """
    ss = scenario_set
    coupling = ss.coupling
    if isinstance(coupling, Product):
        pairs = [(p * q, k, j) for k, p in enumerate(coupling.price_weights)
                 for j, q in enumerate(coupling.local_weights)]
    else:
        pairs = [(p, s, s) for s, p in enumerate(coupling.weights)]
    return [
        Scenario(float(weight), ss.price_block[k], ss.disturbance_block[j],
                 ss.customer_kw[:, None] * ss.solar_block[j], ss.retailer_kw * ss.solar_block[j],
                 ss.solar_block[j])
        for weight, k, j in pairs
    ]


@dataclass(frozen=True)
class ResimReport(tf.SurplusReport):
    """A :class:`~tariffkit.tariff.SurplusReport` re-derived by settlement.

    ``negative_demand_pairs`` counts (scenario, class) pairs whose unclamped
    demand went negative in some period (never clamped, only reported); it
    needs every pair's demand, so only this per-pair route has it.
    """

    negative_demand_pairs: int


def settlement_resim(
    tariff: tf.TwoPartTariff,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
) -> ResimReport:
    """Re-simulate settlement with separate kernels, class-major order.

    Every (scenario, class) pair is settled on its own: demand, benefits,
    and storage schedules are recomputed from the model primitives (dense
    solves and scipy's LP) rather than the library's moment-based closed
    forms.  Alternate optimal storage schedules can legitimately shift the
    scenario-by-scenario cost split, so comparisons assume the arbitrage
    optimum is unique (true for generic price vectors).
    """
    pi = as_price_vector(tariff.prices, model.horizon)
    charge = tariff.connection_charge
    slope = model.slope
    base = model.base
    n = model.horizon
    scen = _rows(scenario_set)
    probs = [s.probability for s in scen]

    mean_prices = np.zeros(n)
    for s in scen:
        mean_prices = mean_prices + s.probability * s.prices

    fleet_value = 0.0
    fleet_meter = np.zeros((model.n_classes, n))
    if case.uses_customer_der and case.storage is not None:
        unit_value, unit_meter = _linprog_schedule(case.storage, pi)
        fleet_value = sum(case.storage_units) * unit_value
        for i in range(model.n_classes):
            fleet_meter[i] = case.storage_units[i] * unit_meter
    retailer_meter = np.zeros(n)
    if case.uses_retailer_der and case.storage is not None:
        unit_value, unit_meter = _linprog_schedule(case.storage, mean_prices)
        fleet_value = float(case.storage_units) * unit_value
        retailer_meter = case.storage_units * unit_meter

    per_class_cs = np.zeros(model.n_classes)
    demand_by_scenario = np.zeros((len(scen), model.n_classes, n))
    negative_pairs = 0
    for i in range(model.n_classes):
        sigma = model.sigma[i]
        count = model.class_counts[i]
        acc = 0.0
        for k, s in enumerate(scen):
            q = sigma * (base - slope @ pi) + s.disturbances[i]
            demand_by_scenario[k, i] = q
            if q.min() < 0.0:
                negative_pairs += 1
            u = np.linalg.solve(slope, q)
            benefit = ((sigma * base + s.disturbances[i]) @ u - 0.5 * q @ u) / sigma
            net = count * q
            if case.uses_customer_der:
                net = net - s.renewable_customer[i] - fleet_meter[i]
            payment = count * charge + pi @ net
            acc += probs[k] * (count * benefit - payment)
        per_class_cs[i] = acc

    retailer_surplus = 0.0
    revenue = 0.0
    energy_cost = 0.0
    renewable_value = 0.0
    for k, s in enumerate(scen):
        gross = np.zeros(n)
        net = np.zeros(n)
        payments = 0.0
        for i in range(model.n_classes):
            q_class = model.class_counts[i] * demand_by_scenario[k, i]
            gross = gross + q_class
            net_class = q_class
            if case.uses_customer_der:
                net_class = net_class - s.renewable_customer[i] - fleet_meter[i]
            net = net + net_class
            payments += model.class_counts[i] * charge + pi @ net_class
        if case.uses_retailer_der:
            served = gross - s.renewable_retailer - retailer_meter
        else:
            served = net
        cost = float(s.prices @ served)
        retailer_surplus += probs[k] * (payments - cost)
        revenue += probs[k] * payments
        energy_cost += probs[k] * cost
        if case.uses_customer_der:
            renewable_value += probs[k] * float(s.prices @ s.renewable_customer.sum(axis=0))
        if case.uses_retailer_der:
            renewable_value += probs[k] * float(s.prices @ s.renewable_retailer)

    consumer_surplus = float(per_class_cs.sum())
    return ResimReport(
        consumer_surplus=consumer_surplus,
        retailer_surplus=retailer_surplus,
        social_welfare=consumer_surplus + retailer_surplus,
        per_class_consumer_surplus=per_class_cs,
        expected_revenue=revenue,
        expected_energy_cost=energy_cost,
        fleet_value=fleet_value,
        renewable_value=renewable_value,
        negative_demand_pairs=negative_pairs,
    )


def connection_charge_root_find(
    prices,
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
    fixed_cost: float,
) -> float:
    """Solve rs(A, prices) = F for A by bracketed root finding.

    The residual is evaluated through ``settlement_resim``, so the result
    is an independent check on any closed-form connection charge.
    """
    prices = as_price_vector(prices, model.horizon)

    def residual(a: float) -> float:
        report = settlement_resim(
            tf.TwoPartTariff(connection_charge=a, prices=prices), model, scenario_set, case
        )
        return report.retailer_surplus - fixed_cost

    lo, hi = -1.0, 1.0
    for _ in range(80):
        if residual(lo) <= 0.0 <= residual(hi):
            break
        lo *= 4.0
        hi *= 4.0
    else:
        raise RuntimeError("could not bracket the connection charge")
    return float(optimize.brentq(residual, lo, hi, xtol=1e-14, rtol=1e-15))


def planner_direct(
    model: dm.DemandModel,
    scenario_set: ScenarioSet,
    case: tf.IntegrationCase,
    grid_steps: int = 10,
) -> float:
    """Ex-post efficient welfare by direct per-(class, local-state) search.

    Groups scenarios by the bitwise identity of each class's local state,
    prices consumption at the group's conditional expected wholesale price
    (closed form for the quadratic model), and values storage on the DP
    lattice.  Independent of the welfare module's bound computation.
    """
    if case.mode == tf.MODE_CENTRALIZED:
        raise ValueError("planner oracle covers customer-side integration only")
    use_der = case.uses_customer_der
    slope = model.slope
    base = model.base
    rows = _rows(scenario_set)
    total = 0.0
    for i in range(model.n_classes):
        groups: dict[bytes, list] = {}
        for s in rows:
            key = s.disturbances[i].tobytes() + s.renewable_customer[i].tobytes()
            groups.setdefault(key, []).append(s)
        if len(groups) > PLANNER_SUPPORT_CAP:
            raise ValueError(
                f"class {i} has {len(groups)} local states, oracle cap is {PLANNER_SUPPORT_CAP}"
            )
        sigma = model.sigma[i]
        count = model.class_counts[i]
        for members in groups.values():
            weight = sum(m.probability for m in members)
            if weight == 0.0:
                continue
            lam_cond = np.zeros(model.horizon)
            for m in members:
                lam_cond = lam_cond + (m.probability / weight) * m.prices
            w_i = members[0].disturbances[i]
            q = sigma * (base - slope @ lam_cond) + w_i
            u = np.linalg.solve(slope, q)
            benefit = ((sigma * base + w_i) @ u - 0.5 * q @ u) / sigma
            total += weight * count * (benefit - float(lam_cond @ q))
            if use_der and case.storage is not None:
                unit = storage_brute_force(case.storage, lam_cond, grid_steps)
                total += weight * case.storage_units[i] * unit
    if use_der:
        for s in rows:
            total += s.probability * float(s.prices @ s.renewable_customer.sum(axis=0))
    return total
