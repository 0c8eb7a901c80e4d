"""Value a battery against a day of wholesale prices, two ways.

Solves the intraday arbitrage linear program exactly with the package's
forward pass over the value of stored energy, and cross-checks it against
a brute-force dynamic program on a state-of-charge lattice.  The exact
solve is the LP optimum; the lattice is a lower bound that tightens as the
grid refines.
"""

import argparse

import numpy as np

from tariffkit import oracle
from tariffkit import storage as st


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--hours", type=int, default=6, help="price periods (DP cost grows fast)")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    # a morning dip and an evening spike, jittered
    base = 0.04 + 0.03 * np.sin(np.linspace(0.0, np.pi, args.hours)) ** 2
    prices = base + rng.uniform(0.0, 0.01, args.hours)

    spec = st.powerwall()
    value, schedule = st.arbitrage_value(spec, prices)
    print(f"{spec.capacity_kwh} kWh / {spec.charge_rate_kw} kW battery,"
          f" round-trip efficiency {spec.efficiency}")
    print(f"\n{'hour':>4} {'price':>8} {'charge':>8} {'discharge':>10} {'soc':>7}")
    for t in range(args.hours):
        print(f"{t:>4} {prices[t]:>8.4f} {schedule.charge[t]:>8.2f}"
              f" {schedule.discharge[t]:>10.2f} {schedule.state_of_charge[t + 1]:>7.2f}")
    print(f"\nLP arbitrage value: {value:.6f} $/day")

    for steps in (2, 10, 50):
        dp = oracle.storage_brute_force(spec, prices, grid_steps=steps)
        print(f"DP lattice, {steps:>3} steps: {dp:.6f} (gap {value - dp:.2e})")

    # the idealized unit has its optimal states on the lattice corners,
    # so even the coarsest grid is exact there
    ideal = st.idealized(spec.capacity_kwh)
    lp_ideal, _ = st.arbitrage_value(ideal, prices)
    dp_ideal = oracle.storage_brute_force(ideal, prices, grid_steps=1)
    print(f"\nidealized unit: LP {lp_ideal:.6f}, one-step DP {dp_ideal:.6f}")


if __name__ == "__main__":
    main()
