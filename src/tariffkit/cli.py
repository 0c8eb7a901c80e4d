"""Batch command-line front end.

Each study in the library is a subcommand that loads a YAML study file,
runs the analysis, prints a short human summary, and writes deterministic
CSV tables plus a JSON run manifest (config hash, input digests, derived
required revenue, base-case anchors).  Floats in tables are formatted at 12
significant digits and rows are emitted in a fixed order, so re-running a
command with identical inputs reproduces the files byte for byte.

Exit codes: 0 success, 2 validation failure or numerical solver failure
(a floating-point overflow, invalid operation or division by zero
included), 3 infeasible study, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import ingest
from . import simplex
from . import tariff as tf
from . import welfare as wf

OUTPUT_DIR_ENV = "TARIFFKIT_OUTPUT_DIR"


def _fmt(value) -> str:
    """12-significant-digit float formatting; blank for missing values."""
    if value is None:
        return ""
    value = float(value)
    if math.isnan(value):
        return ""
    return f"{value:.12g}"


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _sha256_file(path) -> str:
    return _sha256_bytes(Path(path).read_bytes())


def _config_hash(config: ingest.StudyConfig) -> str:
    canonical = json.dumps(
        ingest.config_to_mapping(config), sort_keys=True, separators=(",", ":")
    )
    return _sha256_bytes(canonical.encode("utf-8"))


def build_manifest(study: ingest.Study, anchors: wf.BaseAnchors, tables: dict[str, str]) -> dict:
    """Deterministic run manifest; its hash is embedded in every table."""
    inputs = {
        "prices": _sha256_file(study.config.prices_path),
        "load": _sha256_file(study.config.load_path),
        "solar": _sha256_file(study.config.solar_path),
    }
    config_hash = _config_hash(study.config)
    run_hash = _sha256_bytes(
        (config_hash + inputs["prices"] + inputs["load"] + inputs["solar"] + __version__).encode()
    )
    return {
        "version": __version__,
        "config_sha256": config_hash,
        "input_sha256": inputs,
        "manifest_hash": run_hash,
        "fixed_cost_usd_per_day": study.fixed_cost,
        "anchors": {
            "revenue_usd_per_day": anchors.revenue,
            "consumer_surplus_usd_per_day": anchors.consumer_surplus,
            "retailer_surplus_usd_per_day": anchors.retailer_surplus,
        },
        "tables": tables,
    }


def _emit(study: ingest.Study, anchors: wf.BaseAnchors, name: str, meta: list[str],
          header: list[str], rows: list[list[str]]) -> Path:
    """Write ``<name>.csv`` and ``<name>_manifest.json``; returns the table path.

    The directory is ``$TARIFFKIT_OUTPUT_DIR`` if set, else the study's
    ``output_dir``; it is created when missing.
    """
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or study.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    manifest = build_manifest(study, anchors, {name: path.name})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# tariffkit {name}\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# manifest: {manifest['manifest_hash']}\n")
        fh.write(f"# fixed_cost_usd_per_day: {_fmt(study.fixed_cost)}\n")
        fh.write(f"# base_revenue_usd_per_day: {_fmt(anchors.revenue)}\n")
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    (out / f"{name}_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _emit_grid(study: ingest.Study, anchors: wf.BaseAnchors, name: str, summary: str,
               meta: list[str], header: list[str], rows: list[list[str]]) -> int:
    """Write a (family, grid point) table with a ``reason`` column.

    A row with a blank reason is a feasible cell.  Prints ``summary`` with
    the feasible count; a table without one is an infeasible study.
    """
    reason_column = header.index("reason")
    feasible_cells = sum(not row[reason_column] for row in rows)
    print(f"{summary}, {feasible_cells} feasible cells")
    if feasible_cells == 0:
        raise tf.InfeasibleFamilyError(f"every {name} cell is infeasible", math.nan)
    path = _emit(study, anchors, name, meta, header, rows)
    print(f"wrote {path}")
    return 0


def _tariff_columns(tariff: tf.TwoPartTariff | None) -> list[str]:
    """Connection charge and mean price columns; blank without a tariff."""
    if tariff is None:
        return ["", ""]
    return [_fmt(tariff.connection_charge), _fmt(tariff.prices.mean())]


def _number_option(attr: str):
    """argparse ``type=`` for an option that overrides StudyConfig field ``attr``.

    The value is checked as the study file's value is
    (``StudyConfig.check_field``): a finite number that keeps the field's rule.
    argparse reports a bad value as a usage error naming the option, with
    exit code 2.
    """

    def number(text: str) -> float:
        try:
            return ingest.StudyConfig.check_field(attr, float(text))
        except ingest.ConfigError as exc:
            raise argparse.ArgumentTypeError(f"{exc}, got {text}") from None

    return number


def _load_study(args) -> tuple[ingest.Study, wf.BaseAnchors]:
    config = ingest.load_config(args.config)
    study = ingest.build_study(config)
    anchors = wf.base_anchors(study.model, study.scenario_set, ingest.nominal_tariff(config))
    return study, anchors


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    failures = []

    def check(label, fn):
        try:
            result = fn()
        except Exception as exc:  # report every failing check, not just the first
            failures.append(label)
            print(f"FAIL {label}: {exc}")
            return None
        print(f"ok   {label}")
        return result

    config = check("config parses", lambda: ingest.load_config(args.config))
    if config is None:
        print("validation failed: 1 check")
        return 2
    study = check("inputs load and align", lambda: ingest.build_study(config))
    if study is None:
        print(f"validation failed: {len(failures)} check(s)")
        return 2

    report = check(
        "assumption 1 (price response negative definite)",
        lambda: tf.require_assumption1(study.model),
    )
    if report is not None:
        print(
            f"     aggregate price-response eigenvalues in "
            f"[{report.eig_min:.6g}, {report.eig_max:.6g}]"
        )

    def optimal_at_f():
        family = tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART)
        optimal = tf.optimize_family_report(
            family, study.model, study.scenario_set, tf.no_der(), study.fixed_cost
        )
        return wf.evaluate(optimal.tariff, study.model, study.scenario_set, tf.no_der())

    check("optimal two-part tariff solves and evaluates at F", optimal_at_f)
    nominal = ingest.nominal_tariff(config)
    anchors = check(
        "nominal tariff evaluates",
        lambda: wf.base_anchors(study.model, study.scenario_set, nominal),
    )
    if anchors is not None:
        print(
            f"     base revenue {anchors.revenue:.6g} $/day, cs {anchors.consumer_surplus:.6g}, "
            f"rs {anchors.retailer_surplus:.6g}, derived F {study.fixed_cost:.6g}"
        )
        if anchors.consumer_surplus <= 0.0:
            failures.append("consumer surplus positive")
            print("FAIL consumer surplus positive: nominal tariff leaves cs <= 0")
    if failures:
        print(f"validation failed: {len(failures)} check(s)")
        return 2
    print("validation passed")
    return 0


def cmd_optimize(args) -> int:
    study, anchors = _load_study(args)
    fixed_cost = study.fixed_cost if args.fixed_cost is None else args.fixed_cost
    fixed_a = (
        args.fixed_connection_charge
        if args.fixed_connection_charge is not None
        else study.config.fixed_connection_charges[0]
    )
    if args.family in (tf.FLAT_FIXED_A, tf.DYNAMIC_FIXED_A):
        family = tf.TariffFamily(kind=args.family, fixed_connection_charge=fixed_a)
    else:
        family = tf.TariffFamily(kind=args.family)
    config = study.config
    swept, case = wf.sweep_fixture(
        study.model, study.scenario_set, args.mode, args.capacity_kw,
        config.storage_per_pv_kwh_per_kw, ingest.storage_unit_spec(config), config.pv_unit_kw,
    )

    result = tf.optimize_family_report(family, study.model, swept, case, fixed_cost)
    tariff = result.tariff
    report = wf.evaluate(tariff, study.model, swept, case)
    # closed-form residual on the set's moments, the route evaluate's rs takes too;
    # oracle.settlement_resim is the independent re-settlement
    residual = abs(result.residual)

    print(f"family: {args.family}   mode: {args.mode}   pv: {_fmt(args.capacity_kw)} kW")
    print(f"required revenue F: {_fmt(fixed_cost)} $/day")
    print(f"connection charge A: {_fmt(tariff.connection_charge)} $/day")
    prices = "  ".join(_fmt(p) for p in tariff.prices)
    print(f"prices ($/kWh): {prices}")
    print(
        f"cs: {_fmt(report.consumer_surplus)}   rs: {_fmt(report.retailer_surplus)}   "
        f"sw: {_fmt(report.social_welfare)} $/day"
    )
    print(f"revenue-adequacy residual: {residual:.3e} $/day")
    if result.notes:
        print(f"notes: {'; '.join(result.notes)}")

    header = (
        ["family", "mode", "pv_capacity_kw", "fixed_cost_usd_per_day",
         "connection_charge_usd_per_day", "consumer_surplus_usd_per_day",
         "retailer_surplus_usd_per_day", "social_welfare_usd_per_day",
         "adequacy_residual_usd_per_day"]
        + [f"price_{k:02d}_usd_per_kwh" for k in range(study.config.horizon)]
    )
    row = (
        [args.family, args.mode, _fmt(args.capacity_kw), _fmt(fixed_cost),
         _fmt(tariff.connection_charge), _fmt(report.consumer_surplus),
         _fmt(report.retailer_surplus), _fmt(report.social_welfare), _fmt(residual)]
        + [_fmt(p) for p in tariff.prices]
    )
    _emit(study, anchors, "optimize", [f"family: {args.family}", f"mode: {args.mode}"], header, [row])
    return 0


def _select_families(config: ingest.StudyConfig, labels) -> list[tuple[str, tf.TariffFamily]]:
    configured = ingest.configured_families(config)
    if not labels:
        return configured
    by_label = dict(configured)
    out = []
    for label in labels:
        if label not in by_label:
            raise ingest.ConfigError(
                f"unknown family {label!r}; configured: {', '.join(by_label)}"
            )
        out.append((label, by_label[label]))
    return out


def cmd_pareto(args) -> int:
    study, anchors = _load_study(args)
    families = _select_families(study.config, args.families)
    grid = tuple(args.fixed_cost_grid) if args.fixed_cost_grid else \
        ingest.resolve_fixed_cost_grid(study.config, study.fixed_cost)

    rows = []
    for label, family in families:
        front = wf.pareto_front(
            family, study.model, study.scenario_set, tf.no_der(), grid, anchors
        )
        by_f = {p.fixed_cost: p for p in front.points}
        reasons = dict(front.infeasible)
        for f in grid:
            point = by_f.get(float(f))
            if point is None:
                rows.append([label, _fmt(f), "", "", "", "", reasons.get(float(f), "infeasible")])
                continue
            rows.append([
                label, _fmt(f), _fmt(point.rs_gain), _fmt(point.cs_gain),
                *_tariff_columns(point.tariff), "",
            ])
    return _emit_grid(
        study, anchors, "pareto",
        f"pareto: {len(families)} families x {len(grid)} F points",
        ["gains normalized by base revenue"],
        ["family", "fixed_cost_usd_per_day", "rs_gain", "cs_gain",
         "connection_charge_usd_per_day", "mean_price_usd_per_kwh", "reason"],
        rows,
    )


def cmd_sweep(args) -> int:
    study, anchors = _load_study(args)
    families = _select_families(study.config, args.families)
    grid = tuple(args.capacity_grid) if args.capacity_grid else study.config.capacity_grid_kw

    cells = wf.der_sweep(
        [family for _, family in families],
        study.model,
        study.scenario_set,
        args.mode,
        grid,
        study.config.storage_per_pv_kwh_per_kw,
        study.fixed_cost,
        anchors,
        pv_unit_kw=study.config.pv_unit_kw,
        storage_unit=ingest.storage_unit_spec(study.config),
    )
    labels = [label for label, _ in families]
    rows = [
        [_fmt(cell.capacity_kw), label, _fmt(cell.cs_gain), _fmt(cell.sw_gain),
         *_tariff_columns(cell.tariff), cell.reason]
        # der_sweep returns its cells capacity-major, family-minor
        for (_, label), cell in zip(itertools.product(grid, labels), cells, strict=True)
    ]
    return _emit_grid(
        study, anchors, "sweep",
        f"sweep ({args.mode}): {len(grid)} capacities x {len(families)} families",
        [f"mode: {args.mode}", "gains normalized by base revenue"],
        ["capacity_kw", "family", "cs_gain", "sw_gain",
         "connection_charge_usd_per_day", "mean_price_usd_per_kwh", "reason"],
        rows,
    )


def cmd_xsub(args) -> int:
    study, anchors = _load_study(args)
    families = _select_families(study.config, args.families)
    grid = tuple(args.capacity_grid) if args.capacity_grid else study.config.capacity_grid_kw

    rows = []
    for label, family in families:
        cells = wf.cross_subsidy(
            family, study.model, study.scenario_set, grid, study.fixed_cost,
            pv_unit_kw=study.config.pv_unit_kw,
        )
        rows.extend(
            [label, _fmt(cell.capacity_kw), _fmt(cell.owner_count),
             _fmt(cell.contribution_net_metering), _fmt(cell.contribution_separated),
             _fmt(cell.subsidy_norm), cell.reason]
            for cell in cells
        )
    return _emit_grid(
        study, anchors, "xsub",
        f"cross-subsidy: {len(families)} families x {len(grid)} capacities",
        ["subsidy normalized by required revenue F"],
        ["family", "capacity_kw", "owner_count",
         "owner_contribution_net_metering_usd_per_day",
         "owner_contribution_separated_usd_per_day", "subsidy_norm", "reason"],
        rows,
    )


def cmd_gen_synthetic(args) -> int:
    paths = ingest.write_synthetic_dataset(
        args.out,
        seed=args.seed,
        n_days=args.days,
        horizon=args.horizon,
        correlated=(args.variant == "correlated"),
    )
    for name in ("prices", "load", "solar", "config"):
        print(f"wrote {paths[name]}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tariffkit",
        description="Scenario-based two-part retail tariff studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_study_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to a YAML study file")
        p.set_defaults(func=func)
        return p

    add_study_command("validate", cmd_validate, "check config, data, and model assumptions")

    p = add_study_command("optimize", cmd_optimize, "solve one tariff family at one F")
    p.add_argument("--family", choices=tf.FAMILY_KINDS, default=tf.OPTIMAL_TWO_PART)
    p.add_argument("--mode", choices=tf.MODES, default=tf.MODE_NONE)
    p.add_argument("--F", dest="fixed_cost", type=_number_option("fixed_cost_value"),
                   default=None,
                   help="required revenue $/day, any sign (default: derived from the nominal tariff)")
    p.add_argument("--capacity-kw", type=_number_option("capacity_grid_kw"),
                   default=0.0, help="installed PV capacity for DER modes, kW >= 0")
    p.add_argument("--fixed-A", dest="fixed_connection_charge",
                   type=_number_option("fixed_connection_charges"),
                   default=None, help="connection charge for fixed-A families")

    p = add_study_command("pareto", cmd_pareto, "surplus trade-off across an F grid")
    p.add_argument("--families", nargs="+", default=None,
                   help="family labels (default: all configured)")
    p.add_argument("--F-grid", dest="fixed_cost_grid", nargs="+",
                   type=_number_option("fixed_cost_grid"), default=None)

    p = add_study_command("sweep", cmd_sweep, "re-solve families across PV capacities")
    p.add_argument("--mode", choices=(tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED),
                   required=True)
    p.add_argument("--families", nargs="+", default=None)
    p.add_argument("--capacity-grid", nargs="+", default=None,
                   type=_number_option("capacity_grid_kw"))

    p = add_study_command("xsub", cmd_xsub, "net-metering cross-subsidy by capacity")
    p.add_argument("--families", nargs="+", default=None)
    p.add_argument("--capacity-grid", nargs="+", default=None,
                   type=_number_option("capacity_grid_kw"))

    p = sub.add_parser("gen-synthetic", help="write the bundled synthetic dataset")
    p.add_argument("--out", default="synthetic", help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--days", type=int, default=20)
    p.add_argument("--horizon", type=int, default=24)
    p.add_argument("--variant", choices=("correlated", "independent"), default="correlated")
    p.set_defaults(func=cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow or invalid operation is a FloatingPointError (exit 2), not a warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except tf.InfeasibleFamilyError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (
        ingest.ConfigError, ingest.DataError, tf.TariffError, ValueError,
        ArithmeticError, simplex.UnboundedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
