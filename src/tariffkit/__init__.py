"""Scenario-based two-part retail electricity tariffs under uncertainty.

A regulated retailer buys energy at stochastic wholesale prices and must
recover a fixed cost F from M customers through a two-part tariff
A + pi^T q.  This package computes the consumer-surplus-maximizing tariff
(and constrained flat / dynamic variants), integrates behind-the-meter or
retailer-side solar and storage, and reproduces the welfare, Pareto-front,
capacity-sweep, and cross-subsidy analyses on weighted scenario sets where
every expectation is an exact finite sum.
"""

__version__ = "0.1.0"

# the batched kernels stay at tariffkit.demand.demand and .gross_benefit:
# re-exporting demand here would shadow the submodule attribute of that name
from .demand import (
    Assumption1Report,
    DemandModel,
    aggregate_demand,
    calibrate,
    class_sigmas,
    validate_assumption1,
)
from .ingest import (
    ConfigError,
    DataError,
    StudyConfig,
    build_model,
    build_scenarios,
    build_study,
    configured_families,
    derive_fixed_cost,
    load_config,
    load_prices,
    load_profile,
    synthetic_days,
    write_synthetic_dataset,
)
from .scenario import (
    Scenario,
    ScenarioSet,
    cov_trace,
    expect_price,
    expect_scalar,
    expect_vector,
    make_scenario,
    split_marginals,
    with_pv_capacity,
)
from .storage import (
    StorageSchedule,
    StorageSpec,
    arbitrage_value,
    idealized,
    powerwall,
)
from .tariff import (
    FamilyReport,
    InfeasibleFamilyError,
    IntegrationCase,
    ModelAssumptionError,
    RevenueAdequacyError,
    TariffError,
    TariffFamily,
    TwoPartTariff,
    centralized_case,
    decentralized_case,
    expected_consumer_surplus,
    expected_retailer_surplus,
    flat_tariff,
    no_der,
    optimal_centralized,
    optimal_decentralized,
    optimal_two_part,
    optimize_family,
    optimize_family_report,
)
from .welfare import (
    BaseAnchors,
    CrossSubsidyCell,
    IdentityReport,
    ParetoFront,
    ParetoPoint,
    SurplusReport,
    SweepCell,
    allocate_pv,
    base_anchors,
    cross_subsidy,
    der_sweep,
    efficient_welfare,
    evaluate,
    pareto_front,
    planner_bound,
    sweep_fixture,
    welfare_identities,
)

__all__ = [name for name in dir() if not name.startswith("_")]
