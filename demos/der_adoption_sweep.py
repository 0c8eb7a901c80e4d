"""Consumer surplus gains as PV-plus-storage capacity grows.

Re-solves each tariff family at every point of the capacity grid, first
with the resources behind the meter (owned by the largest consumers),
then operated by the retailer.  Decentralized gains under the optimal
family are exactly affine in capacity; centralized gains depend on the
family but only ever improve.
"""

import argparse
import itertools
import tempfile
from pathlib import Path

from tariffkit import ingest
from tariffkit import welfare as wf

BAR = 48  # character width of the gain bars


def print_mode(title, cells, labels, caps):
    print(f"\n{title}")
    # der_sweep returns its cells capacity-major, family-minor
    by_key = dict(zip(itertools.product(caps, labels), cells, strict=True))
    top = max(abs(c.cs_gain) for c in cells if c.feasible)
    for label in labels:
        print(f"  {label}")
        for cap in caps:
            cell = by_key[(cap, label)]
            if not cell.feasible:
                print(f"    {cap / 1e3:>7.0f} MW  infeasible: {cell.reason}")
                continue
            width = int(round(abs(cell.cs_gain) / top * BAR))
            bar = ("+" if cell.cs_gain >= 0 else "-") * width
            print(f"    {cap / 1e3:>7.0f} MW  {cell.cs_gain:>9.4f}  {bar}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data", default=None, help="study directory (default: synthesize)")
    parser.add_argument("--seed", type=int, default=0)
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
    families = ingest.configured_families(config)
    labels = [label for label, _ in families]
    caps = [float(c) for c in config.capacity_grid_kw]

    print(f"storage sized at {config.storage_per_pv_kwh_per_kw} kWh per kW of PV;"
          f" gains normalized by base revenue {study.anchors.revenue:,.0f} $/day")
    for mode, title in (
        ("decentralized", "behind the meter (net metering)"),
        ("centralized", "operated by the retailer"),
    ):
        cells = wf.der_sweep(
            [family for _, family in families],
            study.model,
            study.scenario_set,
            mode,
            caps,
            config.storage_per_pv_kwh_per_kw,
            study.fixed_cost,
            study.anchors,
            pv_unit_kw=config.pv_unit_kw,
            storage_unit=ingest.storage_unit_spec(config),
        )
        print_mode(title, cells, labels, caps)


if __name__ == "__main__":
    main()
