"""Solve the optimal two-part tariff and unpack where each piece comes from.

Builds the bundled 20-day synthetic study, solves the revenue-adequate
surplus-maximizing tariff with resources behind the meter and with the
retailer operating them, and prints the decomposition of the connection
charge along with the welfare identity that ties the two together.
"""

import argparse
import math
import tempfile
from pathlib import Path

import numpy as np

from tariffkit import demand as dm
from tariffkit import ingest
from tariffkit import scenario as sc
from tariffkit import storage as st
from tariffkit import tariff as tf
from tariffkit import welfare as wf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=None, help="study directory (default: synthesize)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pv-kw", type=float, default=1.1e6, help="installed PV capacity")
    args = parser.parse_args()
    if args.data is not None:
        run(args, args.data)
        return
    with tempfile.TemporaryDirectory(prefix="tariffkit_demo_") as data:
        ingest.write_synthetic_dataset(data, seed=args.seed)
        run(args, data)


def run(args, data):
    study = ingest.build_study(ingest.load_config(Path(data) / "study.yaml"))
    model, base_set, F = study.model, study.scenario_set, study.fixed_cost
    config = study.config
    lam_bar = sc.expect_price(base_set)
    print(f"required revenue F = {F:,.0f} $/day over {model.customers:,.0f} customers")

    # no resources: prices land on the expected wholesale profile and the
    # connection charge mops up F plus the price-demand covariance
    plain = tf.optimal_decentralized(model, base_set, tf.no_der(), F)
    demand_cov = sc.cov_trace(
        base_set,
        lambda s: dm.aggregate_demand(model, lam_bar, s.disturbances),
        lambda s: s.prices,
    )
    print("\nno DER:")
    print(f"  max |pi - expected wholesale| = {np.max(np.abs(plain.prices - lam_bar)):.2e}")
    print(f"  A = {plain.connection_charge:.6f} $/day"
          f"  (= (F + cov(lambda, demand)) / M = {(F + demand_cov) / model.customers:.6f})")

    spec = ingest.storage_unit_spec(config)

    def fixture(mode):
        return wf.sweep_fixture(model, base_set, mode, args.pv_kw,
                                config.storage_per_pv_kwh_per_kw, spec, config.pv_unit_kw)

    dec_set, dec_case = fixture(tf.MODE_DECENTRALIZED)
    behind = tf.optimal_decentralized(model, dec_set, dec_case, F)

    # expected export value accrues to the owners; only the covariance of
    # generation with the wholesale price moves the connection charge
    export_value = math.fsum(
        s.probability * float(s.prices @ s.renewable_customer.sum(axis=0)) for s in dec_set
    )
    generation_cov = sc.cov_trace(
        dec_set, lambda s: s.renewable_customer.sum(axis=0), lambda s: s.prices
    )
    _, owners = wf.allocate_pv(model, args.pv_kw, config.pv_unit_kw)
    unit_value, _ = st.arbitrage_value(spec, lam_bar)
    print(f"\n{args.pv_kw:,.0f} kW of PV behind the meter ({owners.sum():,.0f} owners),"
          f" {dec_case.storage_units.sum():,.0f} batteries:")
    print(f"  A = {behind.connection_charge:.6f} $/day; prices unchanged")
    print(f"  owners keep the export value ({export_value:,.0f} $/day); A moves only by"
          f" cov(lambda, generation) / M = {generation_cov / model.customers:.6f}")

    cen_set, cen_case = fixture(tf.MODE_CENTRALIZED)
    central = tf.optimal_centralized(model, cen_set, cen_case, F)
    fleet = float(cen_case.storage_units) * unit_value
    print("\nsame fleet on the retailer side:")
    print(f"  A = {central.connection_charge:.6f} $/day  (export value and battery"
          f" arbitrage {fleet:,.0f} $/day both credited through the charge)")

    # the welfare identity: optimal welfare = efficient benchmark
    # + fleet option value + expected wholesale value of the renewables
    report = wf.welfare_identities(model, dec_set, dec_case, F)
    print("\nwelfare identity (behind the meter):"
          f" relative error {report.identity_rel_error:.2e},"
          f" {'ok' if report.passed else 'VIOLATED'}")
    bound = wf.planner_bound(model, dec_set, dec_case)
    attained = wf.evaluate(behind, model, dec_set, dec_case).social_welfare
    print(f"planner bound {bound:,.2f} vs attained {attained:,.2f} $/day"
          f" (gap {bound - attained:,.2f}: the cost of ex-ante pricing)")


if __name__ == "__main__":
    main()
