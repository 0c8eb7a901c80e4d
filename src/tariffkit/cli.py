"""Batch command-line front end.

Each study in the library is a subcommand that loads a study file,
runs the analysis, prints a short human summary, and writes deterministic
CSV tables plus a JSON run manifest (config hash, input digests, derived
required revenue, base-case anchors).  Floats in tables are formatted at 12
significant digits and rows are emitted in a fixed order, so re-running a
command with identical inputs reproduces the files byte for byte.

Exit codes: 0 success, 2 validation failure or numerical solver failure
(a floating-point overflow, invalid operation or division by zero
included), 3 infeasible study, 4 I/O error; ``validate`` exits with the
largest code among its failed checks.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import ingest
from . import tariff as tf
from . import welfare as wf

OUTPUT_DIR_ENV = "TARIFFKIT_OUTPUT_DIR"

# each exception family, its exit code and its stderr prefix; the first match wins
FAILURES = (
    (tf.InfeasibleFamilyError, 3, "infeasible"),
    ((tf.TariffError, ValueError, ArithmeticError), 2, "error"),
    (OSError, 4, "i/o error"),
)


def _failure(exc: Exception) -> tuple[int, str]:
    """Exit code and stderr prefix of ``exc``'s first family in FAILURES, else 2."""
    return next(((code, prefix) for family, code, prefix in FAILURES if isinstance(exc, family)),
                (2, "error"))


def _fmt(value) -> str:
    """12-significant-digit float formatting; blank for NaN."""
    value = float(value)
    if math.isnan(value):
        return ""
    return f"{value:.12g}"


def _sha256_bytes(data: bytes) -> str:
    """Hex SHA-256 digest (FIPS 180-4) of ``data``.

    CPython's built-in SHA-256, the code ``hashlib`` falls back to without
    OpenSSL: importing ``hashlib`` maps libcrypto, several MB of every
    process's resident memory, for the five short digests of a manifest.
    """
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _sha256_file(path) -> str:
    return _sha256_bytes(Path(path).read_bytes())


def _config_hash(config: ingest.StudyConfig) -> str:
    canonical = json.dumps(
        ingest.config_to_mapping(config), sort_keys=True, separators=(",", ":")
    )
    return _sha256_bytes(canonical.encode("utf-8"))


def build_manifest(study: ingest.Study, tables: dict[str, str]) -> dict:
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
            "revenue_usd_per_day": study.anchors.revenue,
            "consumer_surplus_usd_per_day": study.anchors.consumer_surplus,
            "retailer_surplus_usd_per_day": study.anchors.retailer_surplus,
        },
        "tables": tables,
    }


def _emit(study: ingest.Study, name: str, meta: list[str], rows: list[dict[str, str]]) -> Path:
    """Write ``<name>.csv`` and ``<name>_manifest.json``; returns the table path.

    Each row maps a column to its cell, and the first row's keys, in order,
    are the header.  The directory is ``$TARIFFKIT_OUTPUT_DIR`` if set, else
    the study's ``output_dir``; it is created when missing.
    """
    out = Path(os.environ.get(OUTPUT_DIR_ENV) or study.config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{name}.csv"
    manifest = build_manifest(study, {name: path.name})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# tariffkit {name}\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(f"# manifest: {manifest['manifest_hash']}\n")
        fh.write(f"# fixed_cost_usd_per_day: {_fmt(study.fixed_cost)}\n")
        fh.write(f"# base_revenue_usd_per_day: {_fmt(study.anchors.revenue)}\n")
        for line in meta:
            fh.write(f"# {line}\n")
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    (out / f"{name}_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return path


def _emit_grid(study: ingest.Study, name: str, summary: str, meta: list[str],
               rows: list[dict[str, str]]) -> int:
    """Write a (family, grid point) table with a ``reason`` column.

    A row with a blank reason is a feasible cell.  Prints ``summary`` with
    the feasible count; a table without one is an infeasible study.
    """
    feasible_cells = sum(not row["reason"] for row in rows)
    print(f"{summary}, {feasible_cells} feasible cells")
    if feasible_cells == 0:
        raise tf.InfeasibleFamilyError(f"every {name} cell is infeasible", math.nan)
    path = _emit(study, name, meta, rows)
    print(f"wrote {path}")
    return 0


def _tariff_columns(tariff: tf.TwoPartTariff | None) -> dict[str, str]:
    """Connection charge and mean price cells; blank without a tariff."""
    if tariff is None:
        return {"connection_charge_usd_per_day": "", "mean_price_usd_per_kwh": ""}
    return {"connection_charge_usd_per_day": _fmt(tariff.connection_charge),
            "mean_price_usd_per_kwh": _fmt(tariff.prices.mean())}


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


class _Distinct(argparse.Action):
    """Store an ``nargs="+"`` option's values, as the study file's table lists are.

    Each value is one row of the command's table, so a repeated value is a
    usage error naming the option, with exit code 2.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if len(set(values)) < len(values):
            raise argparse.ArgumentError(self, "must not repeat a value")
        setattr(namespace, self.dest, values)


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    failures = []  # each failed check's exit code

    def check(label, fn):
        try:
            result = fn()
        except Exception as exc:  # report every failing check, not just the first
            failures.append(_failure(exc)[0])
            print(f"FAIL {label}: {exc}")
            return None
        print(f"ok   {label}")
        return result

    config = check("config parses", lambda: ingest.load_config(args.config))
    study = config and check("inputs load and align", lambda: ingest.build_study(config))
    if study is None:
        print(f"validation failed: {len(failures)} check(s)")
        return max(failures)

    def price_response_eigenvalues():
        # DemandModel certified Assumption 1 when build_study built it
        jac = -study.model.sigma_total * study.model.slope
        return np.linalg.eigvalsh((jac + jac.T) / 2.0)

    eigs = check("assumption 1 (price response negative definite)", price_response_eigenvalues)
    if eigs is not None:
        print(f"     aggregate price-response eigenvalues in [{eigs[0]:.6g}, {eigs[-1]:.6g}]")

    optimal = tf.TariffFamily(kind=tf.OPTIMAL_TWO_PART)
    check("optimal two-part tariff solves and evaluates at F",
          lambda: tf.optimize_family_report(optimal, study.model, study.scenario_set,
                                            tf.no_der(), study.fixed_cost))

    def pv_grid_allocates():
        # the rule xsub and a decentralized sweep apply to every capacity; the largest decides
        wf.allocate_pv(study.model, max(config.capacity_grid_kw), config.pv_unit_kw)

    check("grids.capacity_kw allocates at most one PV unit per customer", pv_grid_allocates)
    check("pareto F grid has no repeated value",
          lambda: ingest.resolve_fixed_cost_grid(config, study.fixed_cost))
    # on no capacity, cross_subsidy checks only its rule on F
    check("xsub subsidy_norm is defined (F != 0)",
          lambda: wf.cross_subsidy(optimal, study.model, study.scenario_set, (), study.fixed_cost,
                                   pv_unit_kw=config.pv_unit_kw))
    anchors = study.anchors
    f_label = "explicit" if config.fixed_cost_mode == "explicit" else "derived"
    print(
        f"     base revenue {anchors.revenue:.6g} $/day, cs {anchors.consumer_surplus:.6g}, "
        f"rs {anchors.retailer_surplus:.6g}, {f_label} F {study.fixed_cost:.6g}"
    )
    if anchors.consumer_surplus <= 0.0:
        failures.append(2)
        print("FAIL consumer surplus positive: nominal tariff leaves cs <= 0")
    if failures:
        print(f"validation failed: {len(failures)} check(s)")
        return max(failures)
    print("validation passed")
    return 0


def cmd_optimize(args) -> int:
    pinned = args.family in tf.FIXED_A_KINDS
    if not pinned and args.fixed_connection_charge is not None:
        raise ValueError(f"--fixed-A applies to {' and '.join(tf.FIXED_A_KINDS)}, not {args.family}")
    study = ingest.build_study(ingest.load_config(args.config))
    config = study.config
    fixed_cost = study.fixed_cost if args.fixed_cost is None else args.fixed_cost
    fixed_a = args.fixed_connection_charge
    if pinned and fixed_a is None:
        fixed_a = config.fixed_connection_charges[0]
    family = tf.TariffFamily(kind=args.family, fixed_connection_charge=fixed_a)
    swept, case = wf.sweep_fixture(
        study.model, study.scenario_set, args.mode, args.capacity_kw,
        config.storage_per_pv_kwh_per_kw, ingest.storage_unit_spec(config), config.pv_unit_kw,
    )

    result = tf.optimize_family_report(family, study.model, swept, case, fixed_cost)
    tariff, report = result.tariff, result.settlement
    # closed-form residual of that settlement, on the set's moments;
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

    row = {
        "family": args.family,
        "mode": args.mode,
        "pv_capacity_kw": _fmt(args.capacity_kw),
        "fixed_cost_usd_per_day": _fmt(fixed_cost),
        "connection_charge_usd_per_day": _fmt(tariff.connection_charge),
        "consumer_surplus_usd_per_day": _fmt(report.consumer_surplus),
        "retailer_surplus_usd_per_day": _fmt(report.retailer_surplus),
        "social_welfare_usd_per_day": _fmt(report.social_welfare),
        "adequacy_residual_usd_per_day": _fmt(residual),
    }
    row.update((f"price_{k:02d}_usd_per_kwh", _fmt(p)) for k, p in enumerate(tariff.prices))
    _emit(study, "optimize", [f"family: {args.family}", f"mode: {args.mode}"], [row])
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
    study = ingest.build_study(ingest.load_config(args.config))
    families = _select_families(study.config, args.families)
    grid = tuple(args.fixed_cost_grid) if args.fixed_cost_grid else \
        ingest.resolve_fixed_cost_grid(study.config, study.fixed_cost)

    rows = []
    for label, family in families:
        front = wf.pareto_front(
            family, study.model, study.scenario_set, tf.no_der(), grid, study.anchors
        )
        rows.extend(
            {"family": label, "fixed_cost_usd_per_day": _fmt(cell.fixed_cost),
             "rs_gain": _fmt(cell.rs_gain), "cs_gain": _fmt(cell.cs_gain),
             **_tariff_columns(cell.tariff), "reason": cell.reason}
            for cell in front.cells
        )
    return _emit_grid(
        study, "pareto",
        f"pareto: {len(families)} families x {len(grid)} F points",
        ["gains normalized by base revenue"],
        rows,
    )


def cmd_sweep(args) -> int:
    study = ingest.build_study(ingest.load_config(args.config))
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
        study.anchors,
        pv_unit_kw=study.config.pv_unit_kw,
        storage_unit=ingest.storage_unit_spec(study.config),
    )
    labels = [label for label, _ in families]
    rows = [
        {"capacity_kw": _fmt(cell.capacity_kw), "family": label,
         "cs_gain": _fmt(cell.cs_gain), "sw_gain": _fmt(cell.sw_gain),
         **_tariff_columns(cell.tariff), "reason": cell.reason}
        # der_sweep returns its cells capacity-major, family-minor
        for (_, label), cell in zip(itertools.product(grid, labels), cells, strict=True)
    ]
    return _emit_grid(
        study, "sweep",
        f"sweep ({args.mode}): {len(grid)} capacities x {len(families)} families",
        [f"mode: {args.mode}", "gains normalized by base revenue"],
        rows,
    )


def cmd_xsub(args) -> int:
    study = ingest.build_study(ingest.load_config(args.config))
    families = _select_families(study.config, args.families)
    grid = tuple(args.capacity_grid) if args.capacity_grid else study.config.capacity_grid_kw

    rows = []
    for label, family in families:
        cells = wf.cross_subsidy(
            family, study.model, study.scenario_set, grid, study.fixed_cost,
            pv_unit_kw=study.config.pv_unit_kw,
        )
        rows.extend(
            {"family": label, "capacity_kw": _fmt(cell.capacity_kw),
             "owner_count": _fmt(cell.owner_count),
             "owner_contribution_net_metering_usd_per_day": _fmt(cell.contribution_net_metering),
             "owner_contribution_separated_usd_per_day": _fmt(cell.contribution_separated),
             "subsidy_norm": _fmt(cell.subsidy_norm), "reason": cell.reason}
            for cell in cells
        )
    return _emit_grid(
        study, "xsub",
        f"cross-subsidy: {len(families)} families x {len(grid)} capacities",
        ["subsidy normalized by required revenue F"],
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
    p.add_argument("--families", nargs="+", action=_Distinct, default=None,
                   help="family labels (default: all configured)")
    p.add_argument("--F-grid", dest="fixed_cost_grid", nargs="+", action=_Distinct,
                   type=_number_option("fixed_cost_grid"), default=None)

    p = add_study_command("sweep", cmd_sweep, "re-solve families across PV capacities")
    p.add_argument("--mode", choices=(tf.MODE_DECENTRALIZED, tf.MODE_CENTRALIZED),
                   required=True)
    p.add_argument("--families", nargs="+", action=_Distinct, default=None)
    p.add_argument("--capacity-grid", nargs="+", action=_Distinct, default=None,
                   type=_number_option("capacity_grid_kw"))

    p = add_study_command("xsub", cmd_xsub, "net-metering cross-subsidy by capacity")
    p.add_argument("--families", nargs="+", action=_Distinct, default=None)
    p.add_argument("--capacity-grid", nargs="+", action=_Distinct, default=None,
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
    except Exception as exc:
        if not isinstance(exc, tuple(family for family, _, _ in FAILURES)):
            raise  # not a study failure: keep the traceback
        code, prefix = _failure(exc)
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
