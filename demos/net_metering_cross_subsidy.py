"""How much fixed cost net metering shifts from PV owners to everyone else.

For each installed capacity, PV goes to the largest consumers and the
family is solved twice at the same required revenue: once with owners
billed on their net meter, once with consumption and generation settled
separately.  The gap between the owners' fixed-cost contributions is the
cross-subsidy.  Under the optimal family it is identically zero when
prices and local states are independent; under a flat price it grows
with every installed kilowatt.
"""

import argparse
import tempfile
from pathlib import Path

from tariffkit import ingest
from tariffkit import welfare as wf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=None, help="study directory (default: synthesize)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--family", default="flat-fixed-A")
    args = parser.parse_args()
    if args.data is not None:
        run(args, args.data)
        return
    with tempfile.TemporaryDirectory(prefix="tariffkit_demo_") as data:
        ingest.write_synthetic_dataset(data, seed=args.seed)
        run(args, data)


def run(args, data):
    study = ingest.build_study(ingest.load_config(Path(data) / "study.yaml"))
    config = study.config
    families = dict(ingest.configured_families(config))
    if args.family not in families:
        raise SystemExit(f"unknown family {args.family!r}; configured: {sorted(families)}")

    print(f"family {args.family}, required revenue {study.fixed_cost:,.0f} $/day")
    print(f"\n{'capacity':>10} {'owners':>10} {'net meter':>12} {'separated':>12} {'subsidy/F':>10}")
    cells = wf.cross_subsidy(
        families[args.family],
        study.model,
        study.scenario_set,
        config.capacity_grid_kw,
        study.fixed_cost,
        pv_unit_kw=config.pv_unit_kw,
    )
    for cell in cells:
        if not cell.feasible:
            print(f"{cell.capacity_kw / 1e3:>8.0f}MW {cell.owner_count:>10,.0f}  infeasible: {cell.reason}")
            continue
        print(f"{cell.capacity_kw / 1e3:>8.0f}MW {cell.owner_count:>10,.0f}"
              f" {cell.contribution_net_metering:>12,.0f} {cell.contribution_separated:>12,.0f}"
              f" {cell.subsidy_norm:>10.4f}")

    # contributions are expected payments net of the wholesale value served;
    # the subsidy column is their gap per dollar of required revenue
    last = cells[-1]
    if last.feasible and last.subsidy_norm > 0:
        print(f"\nat full build-out, owners escape {last.subsidy_norm:.1%} of the fixed cost;"
              " the remaining customers pick it up")


if __name__ == "__main__":
    main()
