"""Consumer surplus vs collected revenue across tariff families.

Sweeps the required revenue F over a multiplier grid and re-solves each
configured family at every point.  For the optimal two-part family the
front is a straight line of slope -1 (every extra dollar of revenue is
one dollar of consumer surplus, transferred through the connection
charge); restricted families sit weakly inside it.
"""

import argparse
import tempfile
from pathlib import Path

from tariffkit import ingest
from tariffkit import tariff as tf
from tariffkit import welfare as wf


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
    grid = ingest.resolve_fixed_cost_grid(study.config, study.fixed_cost)

    print(f"base revenue {study.anchors.revenue:,.0f} $/day; F grid "
          + ", ".join(f"{f / study.fixed_cost:.2f}F" for f in grid))
    print(f"\n{'family':<18}" + "".join(f"{f / study.fixed_cost:>9.2f}F" for f in grid))

    fronts = {}
    for label, family in ingest.configured_families(study.config):
        front = wf.pareto_front(
            family, study.model, study.scenario_set, tf.no_der(), grid, study.anchors
        )
        fronts[label] = {p.fixed_cost: p for p in front.points}
        cells = []
        for f in grid:
            point = fronts[label].get(float(f))
            cells.append(f"{point.cs_gain:>10.4f}" if point else f"{'--':>10}")
        print(f"{label:<18}" + "".join(cells))

    optimal = fronts["optimal-two-part"]
    fs = sorted(optimal)
    slopes = [
        (optimal[b].cs_gain - optimal[a].cs_gain) / (optimal[b].rs_gain - optimal[a].rs_gain)
        for a, b in zip(fs, fs[1:])
    ]
    print(f"\noptimal-family front slope: {min(slopes):.9f} .. {max(slopes):.9f}")
    worst = min(
        optimal[f].cs_gain - points[f].cs_gain
        for label, points in fronts.items() if label != "optimal-two-part"
        for f in points
    )
    print(f"smallest surplus lead of the optimal family over any other point: {worst:.6f}")


if __name__ == "__main__":
    main()
