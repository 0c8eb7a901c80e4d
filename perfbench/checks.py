"""Output checks for the benchmark: invariants only, no stored reference values.

Each ``check_*`` function returns a list of problems (empty when the output
is right).  They run in the benchmark's own process, after the command's
process has exited and outside every timed region.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tariffkit import ingest, oracle
from tariffkit import tariff as tf

OPTIMAL = tf.OPTIMAL_TWO_PART
SLOPE_RTOL = 1e-9
SUBSIDY_ATOL = 1e-9
CSV_DIGITS = 12


def _fmt(value: float) -> str:
    return f"{float(value):.{CSV_DIGITS}g}"


def _half_ulp(value: float) -> float:
    """Largest rounding error of ``value`` printed at CSV_DIGITS significant digits."""
    if value == 0.0:
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - (CSV_DIGITS - 1))


@dataclass(frozen=True)
class Expected:
    """What a study's tables must contain, derived from its config."""

    study: ingest.Study
    families: tuple[str, ...]
    fixed_cost_grid: tuple[str, ...]
    capacity_grid: tuple[str, ...]


def expected_for(config_path: Path) -> Expected:
    config = ingest.load_config(config_path)
    study = ingest.build_study(config)
    return Expected(
        study=study,
        families=tuple(label for label, _ in ingest.configured_families(config)),
        fixed_cost_grid=tuple(
            _fmt(f) for f in ingest.resolve_fixed_cost_grid(config, study.fixed_cost)
        ),
        capacity_grid=tuple(_fmt(c) for c in config.capacity_grid_kw),
    )


def read_table(path: Path) -> list[dict[str, str]]:
    """Rows of a tariffkit CSV table, skipping its ``#`` header lines."""
    text = path.read_text(encoding="utf-8")
    body = "".join(line for line in io.StringIO(text) if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def _complete_grid(rows, keys: tuple[str, str], expected_keys: set) -> list[str]:
    """Every (family x grid point) row once, with figures or a reason."""
    problems = []
    seen = [(row[keys[0]], row[keys[1]]) for row in rows]
    if len(seen) != len(set(seen)):
        problems.append("duplicate grid rows")
    if set(seen) != expected_keys:
        missing = sorted(expected_keys - set(seen))[:3]
        extra = sorted(set(seen) - expected_keys)[:3]
        problems.append(f"grid rows differ from config: missing {missing}, extra {extra}")
    for row in rows:
        if row["reason"]:
            continue
        figures = [v for k, v in row.items() if k not in keys and k != "reason"]
        try:
            ok = all(math.isfinite(float(v)) for v in figures)
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"row {row[keys[0]]},{row[keys[1]]} has neither figures nor a reason")
    return problems


def check_validate(out_dir: Path, stdout: str, exp: Expected) -> list[str]:
    return [] if "validation passed" in stdout else ["validate did not report 'validation passed'"]


def check_optimize(out_dir: Path, stdout: str, exp: Expected) -> list[str]:
    """The emitted tariff, re-settled by the oracle, meets F.

    The tolerance is ``tariff.ADEQUACY_RTOL`` widened by what printing A and
    the prices at 12 significant digits can move the expected revenue: the
    first-order change |dR/dA| dA + |dR/dpi| . dpi.
    """
    rows = read_table(out_dir / "optimize.csv")
    if len(rows) != 1:
        return [f"optimize.csv has {len(rows)} rows, expected 1"]
    row = rows[0]
    study = exp.study
    model, scenarios = study.model, study.scenario_set
    n = model.horizon
    charge = float(row["connection_charge_usd_per_day"])
    prices = np.array([float(row[f"price_{k:02d}_usd_per_kwh"]) for k in range(n)])
    fixed_cost = study.fixed_cost
    report = oracle.settlement_resim(tf.TwoPartTariff(charge, prices), model, scenarios, tf.no_der())

    probs = scenarios.probabilities
    mean_demand = model.sigma_total * (model.base - model.slope @ prices) + np.einsum(
        "s,c,scn->n", probs, model.class_counts, scenarios.disturbance_tensor
    )
    revenue_gradient = mean_demand - model.sigma_total * model.slope.T @ (
        prices - probs @ scenarios.price_matrix
    )
    rounding = model.customers * _half_ulp(charge) + float(
        np.abs(revenue_gradient) @ np.array([_half_ulp(p) for p in prices])
    )
    tolerance = tf.ADEQUACY_RTOL * max(1.0, abs(fixed_cost)) + rounding
    residual = abs(report.retailer_surplus - fixed_cost)
    if not residual <= tolerance:
        return [f"re-settled revenue misses F by {residual:.3e} $/day (tolerance {tolerance:.3e})"]
    return []


def check_pareto(out_dir: Path, stdout: str, exp: Expected) -> list[str]:
    rows = read_table(out_dir / "pareto.csv")
    keys = {(fam, f) for fam in exp.families for f in exp.fixed_cost_grid}
    problems = _complete_grid(rows, ("family", "fixed_cost_usd_per_day"), keys)
    optimal = [row for row in rows if row["family"] == OPTIMAL and not row["reason"]]
    if len(optimal) < 2:
        return problems + ["fewer than two feasible optimal-two-part points"]
    rs = np.array([float(row["rs_gain"]) for row in optimal])
    total = rs + np.array([float(row["cs_gain"]) for row in optimal])
    drift = float(np.max(np.abs(total - total[0])))
    if not drift <= SLOPE_RTOL * float(rs.max() - rs.min()):
        problems.append(f"optimal-two-part cs_gain + rs_gain drifts by {drift:.3e} (slope != -1)")
    return problems


def check_sweep(out_dir: Path, stdout: str, exp: Expected) -> list[str]:
    rows = read_table(out_dir / "sweep.csv")
    keys = {(c, fam) for c in exp.capacity_grid for fam in exp.families}
    return _complete_grid(rows, ("capacity_kw", "family"), keys)


def check_xsub(out_dir: Path, stdout: str, exp: Expected) -> list[str]:
    rows = read_table(out_dir / "xsub.csv")
    keys = {(fam, c) for fam in exp.families for c in exp.capacity_grid}
    problems = _complete_grid(rows, ("family", "capacity_kw"), keys)
    for row in rows:
        if row["family"] == OPTIMAL and not row["reason"]:
            if not abs(float(row["subsidy_norm"])) <= SUBSIDY_ATOL:
                problems.append(
                    f"optimal-two-part subsidy_norm {row['subsidy_norm']} at {row['capacity_kw']} kW"
                )
    return problems


CHECKS = {
    "validate": check_validate,
    "optimize": check_optimize,
    "pareto": check_pareto,
    "sweep_dec": check_sweep,
    "sweep_cen": check_sweep,
    "xsub": check_xsub,
}
