import csv
import datetime
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from tariffkit import cli, ingest, oracle, simplex
from tariffkit import storage as st
from tariffkit import tariff as tf


@pytest.fixture(scope="module")
def study_dir(tmp_path_factory):
    """Small synthetic study: 5 days, 12 periods, fast to re-solve."""
    out = tmp_path_factory.mktemp("cli_study")
    assert cli.main(["gen-synthetic", "--out", str(out), "--days", "5",
                     "--horizon", "12"]) == 0
    return out


@pytest.fixture()
def out_dir(tmp_path, monkeypatch):
    target = tmp_path / "results"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    return target


def read_table(path):
    comments = []
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        for record in csv.reader(handle):
            if record and record[0].startswith("#"):
                comments.append(",".join(record))
            else:
                rows.append(record)
    header, data = rows[0], rows[1:]
    return comments, header, [dict(zip(header, r)) for r in data]


def rewrite_config(study_dir, tmp_path, **section_updates):
    mapping = yaml.safe_load((study_dir / "study.yaml").read_text())
    for section, updates in section_updates.items():
        mapping.setdefault(section, {}).update(updates)
    target = tmp_path / "study.yaml"
    target.write_text(yaml.safe_dump(mapping, sort_keys=False))
    for name in ("prices.csv", "load.csv", "solar.csv"):
        (tmp_path / name).write_bytes((study_dir / name).read_bytes())
    return target


def test_gen_synthetic_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen-synthetic", "--out", str(a), "--days", "3"]) == 0
    assert cli.main(["gen-synthetic", "--out", str(b), "--days", "3"]) == 0
    for name in ("prices.csv", "load.csv", "solar.csv", "study.yaml"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_synthetic_dates_any_number_of_days(tmp_path, out_dir):
    # day d is 2021-07-01 plus d days, past the end of August too
    assert cli.main(["gen-synthetic", "--out", str(tmp_path), "--days", "70",
                     "--horizon", "4"]) == 0
    with open(tmp_path / "prices.csv", newline="", encoding="utf-8") as handle:
        dates = list(dict.fromkeys(row["date"] for row in csv.DictReader(handle)))
    assert len(dates) == 70
    assert (dates[0], dates[61], dates[-1]) == ("2021-07-01", "2021-08-31", "2021-09-08")
    assert cli.main(["validate", str(tmp_path / "study.yaml")]) == 0


@pytest.mark.parametrize("option", ["--days", "--horizon"])
def test_gen_synthetic_checks_sizes_before_writing(tmp_path, capsys, option):
    target = tmp_path / "synthetic"
    assert cli.main(["gen-synthetic", "--out", str(target), option, "0"]) == 2
    assert "n_days >= 1 and horizon >= 1" in capsys.readouterr().err
    assert not target.exists()


def test_validate_passes_on_synthetic_study(study_dir, out_dir, capsys):
    assert cli.main(["validate", str(study_dir / "study.yaml")]) == 0
    out = capsys.readouterr().out
    assert "validation passed" in out
    assert "ok   assumption 1" in out
    assert "derived F" in out


def test_validate_labels_an_explicit_f(study_dir, tmp_path, out_dir, capsys):
    config = rewrite_config(study_dir, tmp_path,
                            fixed_cost={"mode": "explicit", "value_usd_per_day": 1000.0})
    assert cli.main(["validate", str(config)]) == 0
    out = capsys.readouterr().out
    assert ", explicit F 1000\n" in out
    assert "derived F" not in out


def test_validate_rejects_positive_elasticity(study_dir, tmp_path, capsys):
    config = rewrite_config(study_dir, tmp_path, demand={"elasticity": 0.3})
    assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert "FAIL config parses" in out
    assert "elasticity" in out


def test_validate_names_indefinite_price_response(study_dir, tmp_path, capsys):
    override = [[0.0] * 12 for _ in range(12)]
    for k in range(12):
        override[k][k] = 1.0
    override[3][3] = -4.0
    config = rewrite_config(study_dir, tmp_path, demand={"slope_override": override})
    assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert "FAIL inputs load and align" in out
    assert "positive definite" in out and "-4" in out


def test_validate_rejects_a_fixed_cost_value_the_derived_mode_ignores(study_dir, tmp_path,
                                                                      capsys):
    config = rewrite_config(study_dir, tmp_path, fixed_cost={"value_usd_per_day": 1000})
    assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert "FAIL config parses: fixed_cost.value_usd_per_day" in out
    assert "fixed_cost.mode is derived-from-nominal" in out


def test_a_command_settles_the_nominal_tariff_once(study_dir, out_dir, monkeypatch):
    # build_study settles the nominal tariff once; F and the anchors both read it
    config = ingest.load_config(study_dir / "study.yaml")
    nominal = ingest.nominal_tariff(config)
    settle, nominal_settlements = tf.settle, []

    def counted(tariff, *args):
        if tariff.connection_charge == nominal.connection_charge and \
                np.array_equal(tariff.prices, nominal.prices):
            nominal_settlements.append(tariff)
        return settle(tariff, *args)

    monkeypatch.setattr(tf, "settle", counted)
    assert cli.main(["xsub", str(study_dir / "study.yaml")]) == 0
    assert len(nominal_settlements) == 1


def test_validate_rejects_a_capacity_grid_sweep_cannot_allocate(study_dir, tmp_path, out_dir,
                                                                capsys):
    # 2.2e6 customers hold at most one 5 kW unit each, 1.1e7 kW in all: validate
    # applies the allocation rule of xsub and a decentralized sweep to the
    # largest grid capacity; a centralized sweep gives its PV to the retailer
    config = rewrite_config(study_dir, tmp_path, grids={"capacity_kw": [0.0, 2.0e7]})
    assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert "FAIL grids.capacity_kw" in out and "exceeds one unit per customer" in out
    for command in (["sweep", "--mode", "decentralized"], ["xsub"]):
        assert cli.main([command[0], str(config), *command[1:]]) == 2
        assert "exceeds one unit per customer" in capsys.readouterr().err
    assert cli.main(["sweep", str(config), "--mode", "centralized"]) == 0
    assert (out_dir / "sweep.csv").exists()


def test_validate_fails_a_nominal_tariff_that_leaves_no_consumer_surplus(study_dir, tmp_path,
                                                                         capsys):
    # a 1000 $/day charge leaves the nominal consumer surplus near -2.19e9 $/day
    config = rewrite_config(study_dir, tmp_path,
                            nominal_tariff={"connection_charge_usd_per_day": 1000})
    assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert "FAIL consumer surplus positive: nominal tariff leaves cs <= 0\n" in out
    assert out.endswith("validation failed: 1 check(s)\n")


def test_optimize_reports_and_writes_table(study_dir, out_dir, capsys):
    assert cli.main(["optimize", str(study_dir / "study.yaml")]) == 0
    out = capsys.readouterr().out
    assert "connection charge A:" in out
    assert "revenue-adequacy residual" in out

    comments, header, rows = read_table(out_dir / "optimize.csv")
    assert comments[0].startswith("# tariffkit optimize")
    assert len(rows) == 1
    assert rows[0]["family"] == "optimal-two-part"
    assert float(rows[0]["adequacy_residual_usd_per_day"]) < 1e-6
    price_cols = [h for h in header if h.startswith("price_")]
    assert len(price_cols) == 12

    manifest = json.loads((out_dir / "optimize_manifest.json").read_text())
    assert manifest["tables"] == {"optimize": "optimize.csv"}
    assert f"# manifest: {manifest['manifest_hash']}" in comments


def test_optimize_fixed_a_family(study_dir, out_dir, capsys):
    code = cli.main(["optimize", str(study_dir / "study.yaml"),
                     "--family", "flat-fixed-A", "--fixed-A", "0.53"])
    assert code == 0
    _, _, rows = read_table(out_dir / "optimize.csv")
    assert rows[0]["family"] == "flat-fixed-A"
    assert float(rows[0]["connection_charge_usd_per_day"]) == 0.53


def test_optimize_notes_a_negative_connection_charge(study_dir, out_dir, capsys):
    # "--F -1e8" would read as a missing argument, so the value is joined
    assert cli.main(["optimize", str(study_dir / "study.yaml"), "--F=-1e8"]) == 0
    assert "notes: negative connection charge\n" in capsys.readouterr().out
    _, _, rows = read_table(out_dir / "optimize.csv")
    assert float(rows[0]["connection_charge_usd_per_day"]) < 0


@pytest.mark.parametrize("rounds, code, stream, message", [
    ("_DYNAMIC_FLEET_ROUNDS", 0, "out", "notes: storage fixed point not converged after 1 rounds\n"),
    ("_RAY_ROUNDS", 2, "err", "error: dynamic-family storage response did not settle after 1 rounds\n"),
], ids=["fleet", "ray"])
def test_storage_solves_that_run_out_of_rounds_say_so(study_dir, out_dir, capsys, monkeypatch,
                                                      rounds, code, stream, message):
    monkeypatch.setattr(tf, rounds, 1)
    assert cli.main(["optimize", str(study_dir / "study.yaml"), "--mode", "decentralized",
                     "--capacity-kw", "1.1e6", "--family", "dynamic-fixed-A"]) == code
    assert message in getattr(capsys.readouterr(), stream)


TARIFF_COLUMNS = ["connection_charge_usd_per_day", "mean_price_usd_per_kwh"]
TABLE_LAYOUTS = [  # (command, table, meta lines after the common five, header)
    (["optimize"], "optimize", ["family: optimal-two-part", "mode: none"],
     ["family", "mode", "pv_capacity_kw", "fixed_cost_usd_per_day",
      "connection_charge_usd_per_day", "consumer_surplus_usd_per_day",
      "retailer_surplus_usd_per_day", "social_welfare_usd_per_day",
      "adequacy_residual_usd_per_day"] + [f"price_{k:02d}_usd_per_kwh" for k in range(24)]),
    (["pareto", "--families", "optimal-two-part"], "pareto",
     ["gains normalized by base revenue"],
     ["family", "fixed_cost_usd_per_day", "rs_gain", "cs_gain", *TARIFF_COLUMNS, "reason"]),
    (["sweep", "--mode", "decentralized", "--families", "optimal-two-part",
      "--capacity-grid", "0"], "sweep",
     ["mode: decentralized", "gains normalized by base revenue"],
     ["capacity_kw", "family", "cs_gain", "sw_gain", *TARIFF_COLUMNS, "reason"]),
    (["xsub", "--families", "optimal-two-part", "--capacity-grid", "0"], "xsub",
     ["subsidy normalized by required revenue F"],
     ["family", "capacity_kw", "owner_count", "owner_contribution_net_metering_usd_per_day",
      "owner_contribution_separated_usd_per_day", "subsidy_norm", "reason"]),
]


@pytest.mark.parametrize("command, table, meta, header", TABLE_LAYOUTS,
                         ids=[layout[1] for layout in TABLE_LAYOUTS])
def test_table_layouts_are_pinned(synthetic_dir, out_dir, capsys, command, table, meta, header):
    # readers find the columns by name: each table's comment block and
    # header row, in order, are part of the interface
    config = str(synthetic_dir / "study.yaml")
    assert cli.main([command[0], config, *command[1:]]) == 0
    manifest = json.loads((out_dir / f"{table}_manifest.json").read_text())
    lines = (out_dir / f"{table}.csv").read_text(encoding="utf-8").splitlines()
    comments = [
        f"# tariffkit {table}",
        f"# version: {manifest['version']}",
        f"# manifest: {manifest['manifest_hash']}",
        f"# fixed_cost_usd_per_day: {manifest['fixed_cost_usd_per_day']:.12g}",
        f"# base_revenue_usd_per_day: {manifest['anchors']['revenue_usd_per_day']:.12g}",
    ] + [f"# {line}" for line in meta]
    assert lines[:len(comments)] == comments
    assert lines[len(comments)] == ",".join(header)
    assert all(not line.startswith("#") for line in lines[len(comments):])


@pytest.mark.parametrize("family", ["optimal-two-part", "flat-zero-A", "dynamic-zero-A"])
def test_optimize_rejects_fixed_a_for_other_families(study_dir, out_dir, capsys, family):
    # these families take no pinned charge, so the option would be ignored
    code = cli.main(["optimize", str(study_dir / "study.yaml"), "--family", family, "--fixed-A", "7"])
    assert code == 2
    assert "--fixed-A" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("family", ["flat-fixed-A", "flat-zero-A", "dynamic-fixed-A", "dynamic-zero-A"])
@pytest.mark.parametrize("data", ["synthetic_dir", "independent_dir"])
def test_restricted_families_solve_at_zero_revenue(request, out_dir, family, data):
    # at F = 0 the settled revenue is a difference of terms of 1e6-1e7 $/day,
    # so its rounding alone exceeds 1e-9 max(1, |F|); the solve must still pass
    config = request.getfixturevalue(data) / "study.yaml"
    assert cli.main(["optimize", str(config), "--family", family, "--F", "0"]) == 0
    _, header, rows = read_table(out_dir / "optimize.csv")
    prices = [float(rows[0][h]) for h in header if h.startswith("price_")]
    tariff = tf.TwoPartTariff(float(rows[0]["connection_charge_usd_per_day"]), prices)
    study = ingest.build_study(ingest.load_config(config))
    report = oracle.settlement_resim(tariff, study.model, study.scenario_set, tf.no_der())
    scale = max(1.0, abs(report.revenue), abs(report.energy_cost))
    assert abs(report.retailer_surplus) <= 1e-7 * scale


def test_optimize_without_der_rejects_a_capacity(study_dir, out_dir, capsys):
    code = cli.main(["optimize", str(study_dir / "study.yaml"),
                     "--mode", "none", "--capacity-kw", "1100000"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_dir.exists()


def test_optimize_missing_input_exits_4(study_dir, tmp_path, out_dir, capsys):
    config = rewrite_config(study_dir, tmp_path, inputs={"prices": "gone.csv"})
    (tmp_path / "gone.csv").unlink(missing_ok=True)
    assert cli.main(["optimize", str(config)]) == 4
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "optimize"])
@pytest.mark.parametrize("unreadable", ["study.yaml", "load.csv"])
def test_an_unreadable_study_file_or_input_exits_4(study_dir, tmp_path, out_dir, capsys,
                                                   command, unreadable):
    config = rewrite_config(study_dir, tmp_path)
    (tmp_path / unreadable).unlink()
    assert cli.main([command, str(config)]) == 4
    out, err = capsys.readouterr()
    if command == "optimize":
        assert err.startswith("i/o error: [Errno 2]")
        return
    # validate fails the check that reads the file and exits with that check's code
    check = "config parses" if unreadable == "study.yaml" else "inputs load and align"
    assert f"FAIL {check}: [Errno 2]" in out
    assert out.endswith("validation failed: 1 check(s)\n")


def test_pareto_writes_grid_rows(study_dir, out_dir, capsys):
    study = ingest.build_study(ingest.load_config(study_dir / "study.yaml"))
    f = study.fixed_cost
    code = cli.main(["pareto", str(study_dir / "study.yaml"),
                     "--F-grid", str(0.5 * f), str(f)])
    assert code == 0
    _, header, rows = read_table(out_dir / "pareto.csv")
    assert header[:2] == ["family", "fixed_cost_usd_per_day"]
    # five configured families x two grid points
    assert len(rows) == 10
    optimal = [r for r in rows if r["family"] == "optimal-two-part"]
    assert all(r["reason"] == "" for r in optimal)


@pytest.mark.parametrize("command", [
    ["pareto", "--families", "flat-zero-A", "--F-grid", "1e12"],
    ["sweep", "--mode", "decentralized", "--families", "flat-zero-A", "--capacity-grid", "5e6"],
    ["xsub", "--families", "flat-zero-A", "--capacity-grid", "5e6"],
], ids=["pareto", "sweep", "xsub"])
def test_all_infeasible_grid_exits_3(study_dir, out_dir, capsys, command):
    name, *options = command
    assert cli.main([name, str(study_dir / "study.yaml"), *options]) == 3
    assert "infeasible" in capsys.readouterr().err
    assert not list(out_dir.glob("*.csv"))


@pytest.mark.parametrize("section, key, value", [
    ("families", "kinds", []),
    ("families", "kinds", ["flat-zero-A", "flat-zero-A"]),
    ("grids", "capacity_kw", []),
    ("grids", "capacity_kw", [0, 550000, 550000]),
], ids=["kinds-empty", "kinds-repeated", "capacity-empty", "capacity-repeated"])
def test_table_lists_are_nonempty_without_repeats(study_dir, tmp_path, out_dir, capsys,
                                                  section, key, value):
    # each element of these lists is one row of a study table
    config = str(rewrite_config(study_dir, tmp_path, **{section: {key: value}}))
    failure = f"{section}.{key} must be a non-empty list without repeats"
    assert cli.main(["validate", config]) == 2
    assert f"FAIL config parses: {failure}" in capsys.readouterr().out
    for command in (["optimize"], ["pareto"], ["sweep", "--mode", "centralized"], ["xsub"]):
        assert cli.main([command[0], config, *command[1:]]) == 2
        assert failure in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, option, values", [
    (["pareto"], "--families", ["flat-zero-A", "optimal-two-part", "flat-zero-A"]),
    (["pareto"], "--F-grid", ["1e5", "100000"]),
    (["sweep", "--mode", "centralized"], "--families", ["flat-zero-A", "flat-zero-A"]),
    (["sweep", "--mode", "centralized"], "--capacity-grid", ["0", "550000", "5.5e5"]),
    (["xsub"], "--families", ["flat-zero-A", "flat-zero-A"]),
    (["xsub"], "--capacity-grid", ["0", "-0"]),
])
def test_grid_options_reject_repeats(study_dir, out_dir, capsys, command, option, values):
    argv = [command[0], str(study_dir / "study.yaml"), *command[1:], option, *values]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"error: argument {option}: must not repeat a value" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("command, grid_columns", [
    (["pareto", "--F-grid", "1e6", "1e12"], ["family", "fixed_cost_usd_per_day"]),
    (["sweep", "--mode", "decentralized", "--capacity-grid", "0", "5e6"],
     ["capacity_kw", "family"]),
    (["xsub", "--capacity-grid", "0", "5e6"], ["family", "capacity_kw", "owner_count"]),
], ids=["pareto", "sweep", "xsub"])
def test_grid_rows_carry_figures_or_a_reason(study_dir, out_dir, capsys, command, grid_columns):
    # flat-zero-A cannot reach F at the larger grid point; optimal-two-part always can
    name, *options = command
    code = cli.main([name, str(study_dir / "study.yaml"),
                     "--families", "optimal-two-part", "flat-zero-A", *options])
    assert code == 0
    _, header, rows = read_table(out_dir / f"{name}.csv")
    figures = [h for h in header if h not in grid_columns and h != "reason"]
    assert len(rows) == 4
    assert sorted(bool(row["reason"]) for row in rows) == [False, False, False, True]
    for row in rows:
        assert all(row[h] for h in grid_columns)
        if row["reason"]:
            assert all(row[h] == "" for h in figures)
        else:
            assert all(math.isfinite(float(row[h])) for h in figures)


def test_unknown_family_label_exits_2(study_dir, out_dir, capsys):
    code = cli.main(["pareto", str(study_dir / "study.yaml"), "--families", "tiered"])
    assert code == 2
    assert "unknown family" in capsys.readouterr().err


def test_sweep_marks_infeasible_cells_with_reason(study_dir, out_dir, capsys):
    code = cli.main(["sweep", str(study_dir / "study.yaml"), "--mode", "decentralized",
                     "--families", "optimal-two-part", "flat-zero-A",
                     "--capacity-grid", "0", "5e6"])
    assert code == 0
    _, _, rows = read_table(out_dir / "sweep.csv")
    assert len(rows) == 4
    zero_a_high = [r for r in rows if r["family"] == "flat-zero-A"
                   and float(r["capacity_kw"]) == 5e6]
    assert len(zero_a_high) == 1
    assert "attain" in zero_a_high[0]["reason"]
    assert zero_a_high[0]["cs_gain"] == ""
    optimal = [r for r in rows if r["family"] == "optimal-two-part"]
    assert all(r["reason"] == "" for r in optimal)


def test_xsub_zero_at_zero_capacity(study_dir, out_dir, capsys):
    code = cli.main(["xsub", str(study_dir / "study.yaml"),
                     "--families", "optimal-two-part",
                     "--capacity-grid", "0", "1e5"])
    assert code == 0
    _, _, rows = read_table(out_dir / "xsub.csv")
    assert len(rows) == 2
    assert float(rows[0]["subsidy_norm"]) == 0.0
    assert float(rows[0]["owner_count"]) == 0.0
    assert float(rows[1]["owner_count"]) == 2e4  # one 5 kW unit per owner


def test_xsub_at_zero_fixed_cost_exits_2(study_dir, tmp_path, out_dir, capsys):
    # subsidy_norm is normalized by F, so F = 0 is a configuration error
    config = rewrite_config(
        study_dir, tmp_path, fixed_cost={"mode": "explicit", "value_usd_per_day": 0.0}
    )
    assert cli.main(["xsub", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "F = 0" in err


def test_validate_checks_the_xsub_fixed_cost(study_dir, tmp_path, out_dir, capsys):
    # validate runs xsub's F != 0 rule; a grid in dollars keeps the pareto check passing
    check = "xsub subsidy_norm is defined (F != 0)"
    assert cli.main(["validate", str(study_dir / "study.yaml")]) == 0
    assert f"ok   {check}\n" in capsys.readouterr().out
    config = rewrite_config(
        study_dir, tmp_path, fixed_cost={"mode": "explicit", "value_usd_per_day": 0.0},
        grids={"fixed_cost_usd_per_day": [0.0, 1000.0]},
    )
    assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert f"FAIL {check}: subsidy_norm is normalized by F and is undefined at F = 0\n" in out
    assert out.endswith("validation failed: 1 check(s)\n")


def test_pareto_grid_at_zero_fixed_cost_exits_2(study_dir, tmp_path, out_dir, capsys):
    # every multiplier of F = 0 is F = 0, so the resolved grid would write
    # one family's row once per multiplier
    config = str(rewrite_config(
        study_dir, tmp_path, fixed_cost={"mode": "explicit", "value_usd_per_day": 0.0}
    ))
    assert cli.main(["validate", config]) == 2
    out = capsys.readouterr().out
    assert "FAIL pareto F grid has no repeated value: grids.fixed_cost_multipliers" in out
    assert cli.main(["pareto", config]) == 2
    assert capsys.readouterr().err.startswith("error: grids.fixed_cost_multipliers give repeated")
    assert not out_dir.exists()
    # a grid given in dollars is not scaled by F
    assert cli.main(["pareto", config, "--families", "optimal-two-part", "--F-grid", "0", "1"]) == 0
    _, _, rows = read_table(out_dir / "pareto.csv")
    assert [row["fixed_cost_usd_per_day"] for row in rows] == ["0", "1"]


def test_fixed_a_labels_keep_the_charge_digits(study_dir, tmp_path, out_dir, capsys):
    # a fixed-A family's label carries its charge at the tables' 12 digits,
    # so charges that agree to 6 digits still select their own family
    charges = [0.53, 0.5300001, 2.0]
    config = str(rewrite_config(study_dir, tmp_path, families={
        "kinds": ["flat-fixed-A"], "fixed_connection_charges_usd_per_day": charges}))
    labels = [label for label, _ in ingest.configured_families(ingest.load_config(config))]
    assert labels == ["flat-fixed-A@0.53", "flat-fixed-A@0.5300001", "flat-fixed-A@2"]
    f = ingest.build_study(ingest.load_config(config)).fixed_cost
    assert cli.main(["pareto", config, "--families", "flat-fixed-A@0.5300001",
                     "--F-grid", str(f)]) == 0
    _, _, rows = read_table(out_dir / "pareto.csv")
    assert [(r["family"], r["connection_charge_usd_per_day"]) for r in rows] == [
        ("flat-fixed-A@0.5300001", "0.5300001")]
    capsys.readouterr()
    # charges that print alike at 12 digits would share a label
    config = str(rewrite_config(study_dir, tmp_path, families={
        "kinds": ["flat-fixed-A"], "fixed_connection_charges_usd_per_day": [0.53, 0.53 + 1e-14]}))
    assert cli.main(["validate", config]) == 2
    assert ("FAIL config parses: families.fixed_connection_charges_usd_per_day must differ "
            "in their first 12 significant digits") in capsys.readouterr().out


ZERO_SIZES = [("der", "storage_capacity_kwh"), ("der", "storage_power_kw"),
              ("inputs", "solar_system_kw")]


@pytest.mark.parametrize("section, key", ZERO_SIZES, ids=[key for _, key in ZERO_SIZES])
def test_zero_storage_size_rejected_at_validation(study_dir, tmp_path, out_dir, capsys,
                                                  section, key):
    config = rewrite_config(study_dir, tmp_path, **{section: {key: 0.0}})
    message = f"{section}.{key} must be positive"
    assert cli.main(["validate", str(config)]) == 2
    assert f"FAIL config parses: {message}" in capsys.readouterr().out
    assert cli.main(["sweep", str(config), "--mode", "decentralized"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
def test_malformed_yaml_exits_2(tmp_path, out_dir, capsys, loader):
    # the text is malformed to libyaml's parser and to the pure-Python one alike,
    # and load_config's own reader, which reads no text differently, rejects it
    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML has no {loader}")
    text = "study:\n  output_dir: [unclosed\n"
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=getattr(yaml, loader))
    config = tmp_path / "study.yaml"
    config.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(config)]) == 2
    assert f"FAIL config parses: {config}: invalid YAML" in capsys.readouterr().out
    assert cli.main(["optimize", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {config}: invalid YAML")


@pytest.mark.parametrize("failure", [
    ArithmeticError("simplex iteration limit exceeded"),
    simplex.UnboundedError("LP unbounded along column 3"),
])
def test_numerical_solver_failure_exits_2(study_dir, out_dir, capsys, monkeypatch, failure):
    def failing(c, G, h, **kwargs):
        raise failure

    monkeypatch.setattr(simplex, "maximize", failing)
    st.clear_caches()  # a cached schedule or stored vertex would skip the LP
    code = cli.main(["optimize", str(study_dir / "study.yaml"), "--mode", "decentralized",
                     "--capacity-kw", "500"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {failure}\n"


STUDY_COMMANDS = [["optimize"], ["pareto"], ["sweep", "--mode", "decentralized"],
                  ["sweep", "--mode", "centralized"], ["xsub"]]


def child_env(env_updates):
    """This environment, with ``env_updates`` and the tested package importable."""
    env = dict(os.environ)
    src = Path(cli.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(env_updates)
    return env


def run_cli(argv, env_updates):
    """One ``python -m tariffkit.cli`` process, so stderr is what a user sees."""
    return subprocess.run([sys.executable, "-m", "tariffkit.cli", *argv],
                          capture_output=True, text=True, env=child_env(env_updates),
                          timeout=300)


@pytest.mark.parametrize("data_file", ["prices.csv", "load.csv"])
def test_overflowing_input_cell_exits_2(tmp_path, data_file):
    # one 1e300 cell overflows a matmul on the way to the surpluses: every
    # command stops at the floating-point error with exit 2, and no NumPy
    # RuntimeWarning reaches the user
    root = tmp_path / "study"
    assert cli.main(["gen-synthetic", "--out", str(root), "--days", "5", "--horizon", "12"]) == 0
    mutate_study(root, (data_file, (1, 2), 1e300))
    config = str(root / "study.yaml")
    results = tmp_path / "results"
    env = {cli.OUTPUT_DIR_ENV: str(results)}

    validate = run_cli(["validate", config], env)
    assert validate.returncode == 2
    assert any(line.startswith("FAIL ") for line in validate.stdout.splitlines())
    assert "RuntimeWarning" not in validate.stderr and "Traceback" not in validate.stderr

    for command in STUDY_COMMANDS:
        result = run_cli([command[0], config, *command[1:]], env)
        assert result.returncode == 2, (command, result.stderr)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, command
        assert "RuntimeWarning" not in result.stderr and "Traceback" not in result.stderr
    assert not results.exists()


def test_negative_load_cell_exits_2(tmp_path, capsys):
    # a load cell below zero is named by file and line: validate fails its
    # input check, every other command prints one error line
    root = tmp_path / "study"
    assert cli.main(["gen-synthetic", "--out", str(root), "--days", "5", "--horizon", "12"]) == 0
    mutate_study(root, ("load.csv", (2, 2), "-500000"))
    config = str(root / "study.yaml")
    message = f"{root / 'load.csv'}:3: negative load value -500000"
    capsys.readouterr()

    assert cli.main(["validate", config]) == 2
    assert f"FAIL inputs load and align: {message}" in capsys.readouterr().out
    results = tmp_path / "results"
    with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(results)}):
        for command in STUDY_COMMANDS:
            assert cli.main([command[0], config, *command[1:]]) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n"
    assert not results.exists()


def latin1_e(path, line):
    """Put a Latin-1 e-acute, not UTF-8, at the end of ``path``'s 1-based ``line``."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] += "\u00e9".encode("latin-1")
    path.write_bytes(b"\n".join(lines))


def test_undecodable_csv_names_file_and_line(tmp_path, capsys):
    root = tmp_path / "study"
    assert cli.main(["gen-synthetic", "--out", str(root), "--days", "5", "--horizon", "12"]) == 0
    latin1_e(root / "load.csv", 4)
    config = str(root / "study.yaml")
    message = f"{root / 'load.csv'}:4: not UTF-8 text (byte 0xe9: invalid continuation byte)"
    capsys.readouterr()

    assert cli.main(["validate", config]) == 2
    assert f"FAIL inputs load and align: {message}\n" in capsys.readouterr().out
    with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(tmp_path / "results")}):
        for command in STUDY_COMMANDS:
            assert cli.main([command[0], config, *command[1:]]) == 2, command
            assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "results").exists()


def test_undecodable_study_file_names_file_and_line(study_dir, tmp_path, out_dir, capsys):
    config = rewrite_config(study_dir, tmp_path)
    line = config.read_text(encoding="utf-8").splitlines().index("  output_dir: out") + 1
    latin1_e(config, line)
    message = f"{config}:{line}: not UTF-8 text (byte 0xe9: invalid continuation byte)"

    assert cli.main(["validate", str(config)]) == 2
    assert capsys.readouterr().out == f"FAIL config parses: {message}\nvalidation failed: 1 check(s)\n"
    assert cli.main(["optimize", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("variant", ["synthetic_dir", "independent_dir"])
def test_shifted_load_dates_exit_2(variant, request, tmp_path, capsys):
    # row k of every input is one date: a load file whose dates run 5 days
    # later than the prices is rejected in both scenario modes, not paired
    # by position
    for name in ("prices.csv", "load.csv", "solar.csv", "study.yaml"):
        (tmp_path / name).write_bytes((request.getfixturevalue(variant) / name).read_bytes())
    with open(tmp_path / "load.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    for row in rows[1:]:
        row[0] = str(datetime.date.fromisoformat(row[0]) + datetime.timedelta(days=5))
    with open(tmp_path / "load.csv", "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    config = str(tmp_path / "study.yaml")
    capsys.readouterr()

    assert cli.main(["validate", config]) == 2
    out = capsys.readouterr().out
    assert f"FAIL inputs load and align: {tmp_path / 'load.csv'}: day 1 is 2021-07-06" in out
    with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(tmp_path / "results")}):
        assert cli.main(["optimize", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "load.csv" in err
    assert not (tmp_path / "results").exists()


NUMBER_OPTIONS = [  # (command and its fixed arguments, option, must be >= 0)
    (["optimize"], "--F", False),
    (["optimize", "--family", "flat-fixed-A"], "--fixed-A", False),
    (["optimize", "--mode", "decentralized"], "--capacity-kw", True),
    (["pareto"], "--F-grid", False),
    (["sweep", "--mode", "decentralized"], "--capacity-grid", True),
    (["sweep", "--mode", "centralized"], "--capacity-grid", True),
    (["xsub"], "--capacity-grid", True),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-1e5"])
@pytest.mark.parametrize("command, option, nonnegative", NUMBER_OPTIONS)
def test_number_options_checked_where_they_enter(study_dir, out_dir, capsys, command, option,
                                                 nonnegative, value):
    # each option follows the rule of the config field it overrides
    argv = [command[0], str(study_dir / "study.yaml"), *command[1:], f"{option}={value}"]
    if value == "-1e5" and not nonnegative:  # F and A may be negative, as in the config
        parsed = vars(cli.build_parser().parse_args(argv))
        assert -1e5 in parsed.values() or [-1e5] in parsed.values()
        return
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {option}: " in err and value in err
    assert "Traceback" not in err
    assert not out_dir.exists()


def test_manifest_digests_are_sha256(study_dir, out_dir, capsys):
    assert cli.main(["optimize", str(study_dir / "study.yaml")]) == 0
    manifest = json.loads((out_dir / "optimize_manifest.json").read_text())

    def sha256(data):
        return hashlib.sha256(data).hexdigest()

    inputs = {name: sha256((study_dir / f"{name}.csv").read_bytes())
              for name in ("prices", "load", "solar")}
    config = ingest.load_config(study_dir / "study.yaml")
    canonical = json.dumps(ingest.config_to_mapping(config), sort_keys=True,
                           separators=(",", ":"))
    config_hash = sha256(canonical.encode("utf-8"))
    assert manifest["input_sha256"] == inputs
    assert manifest["config_sha256"] == config_hash
    run = config_hash + inputs["prices"] + inputs["load"] + inputs["solar"] + manifest["version"]
    assert manifest["manifest_hash"] == sha256(run.encode())


@settings(max_examples=40, deadline=None)
@example(data=b"")
@example(data=bytes(range(256)) * 300)  # 76800 bytes, beyond 64 KB
@given(data=hst.binary(max_size=2048))
def test_sha256_bytes_matches_hashlib(data):
    assert cli._sha256_bytes(data) == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("route", ["_sha2", "_sha256", "hashlib"])
def test_sha256_bytes_routes_agree_with_hashlib(monkeypatch, route):
    # _sha256_bytes takes the first of _sha2 (3.12+), _sha256 (3.10-3.11) and
    # hashlib that imports; make exactly one importable and count its calls
    data = bytes(range(256)) * 3
    real = hashlib.sha256
    want = real(data).hexdigest()
    calls = []

    def counted(payload):
        calls.append(route)
        return real(payload)

    for name in ("_sha2", "_sha256"):
        alias = types.ModuleType(name)
        alias.sha256 = counted
        monkeypatch.setitem(sys.modules, name, alias if name == route else None)
    if route == "hashlib":
        monkeypatch.setattr(hashlib, "sha256", counted)
    assert cli._sha256_bytes(data) == want
    assert calls == [route]


def test_output_dir_env_override(study_dir, tmp_path, monkeypatch):
    target = tmp_path / "elsewhere"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
    assert cli.main(["optimize", str(study_dir / "study.yaml")]) == 0
    assert (target / "optimize.csv").exists()


def test_repeated_runs_byte_identical(study_dir, tmp_path, monkeypatch):
    outputs = []
    for name in ("first", "second"):
        target = tmp_path / name
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(target))
        assert cli.main(["optimize", str(study_dir / "study.yaml")]) == 0
        outputs.append(target)
    for name in ("optimize.csv", "optimize_manifest.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()


BAD_VALUES = ["", "abc", -1.0, 0, float("nan"), float("inf"), 1e300, [1.0, 2.0]]
CONFIG_FIELDS = [
    (section, key)
    for section, body in ingest.config_to_mapping(ingest.StudyConfig()).items()
    for key in body
]
DATA_FILES = ("prices.csv", "load.csv", "solar.csv")
MUTATIONS = hst.one_of(
    hst.none(),
    hst.tuples(
        hst.just("study.yaml"), hst.sampled_from(CONFIG_FIELDS), hst.sampled_from(BAD_VALUES)
    ),
    hst.tuples(
        hst.sampled_from(DATA_FILES),
        hst.tuples(hst.integers(0, 12), hst.integers(0, 2)),  # header + 3 days x 4 periods
        hst.sampled_from(BAD_VALUES),
    ),
)


def mutate_study(root, mutation):
    """Replace one study.yaml field or one CSV cell of the study at ``root``."""
    name, where, value = mutation
    path = root / name
    if name == "study.yaml":
        mapping = yaml.safe_load(path.read_text())
        section, key = where
        mapping.setdefault(section, {})[key] = value
        path.write_text(yaml.safe_dump(mapping, sort_keys=False))
        return
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    row, column = where
    rows[row][column] = str(value)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


@settings(max_examples=60, deadline=None)
@example(mutation=None)
@given(mutation=MUTATIONS)
def test_mutated_inputs_exit_with_documented_code(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ingest.write_synthetic_dataset(root, n_days=3, horizon=4)
        if mutation is not None:
            mutate_study(root, mutation)
        with mock.patch.dict(os.environ, {cli.OUTPUT_DIR_ENV: str(root / "results")}):
            codes = [cli.main([cmd, str(root / "study.yaml")]) for cmd in ("validate", "optimize")]
    if mutation is None:
        assert codes == [0, 0]
    assert set(codes) <= {0, 2, 3, 4}, (mutation, codes)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("der", "storage_capacity_kwh", NAN),
        ("der", "storage_capacity_kwh", INF),
        ("der", "storage_power_kw", NAN),
        ("der", "pv_unit_kw", NAN),
        ("grids", "capacity_kw", [NAN]),
        ("grids", "fixed_cost_multipliers", [NAN]),
        ("customers", "count", NAN),
        ("demand", "slope_override", [[INF if i == j == 0 else float(i == j) for j in range(12)]
                                      for i in range(12)]),
    ],
)
def test_validate_rejects_non_finite_numbers(study_dir, tmp_path, capsys, section, key, value):
    config = rewrite_config(study_dir, tmp_path, **{section: {key: value}})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["validate", str(config)]) == 2
    out = capsys.readouterr().out
    assert "FAIL config parses" in out
    assert f"{section}.{key}" in out and "finite" in out


def test_study_commands_run_without_the_eigensolver(study_dir, out_dir, monkeypatch):
    # DemandModel certifies Assumption 1 by a Cholesky factorization; the
    # eigensolver runs only for validate's printed range or a rejected slope
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for command in (["optimize"], ["pareto"], ["sweep", "--mode", "decentralized"],
                    ["sweep", "--mode", "centralized"], ["xsub"]):
        assert cli.main([*command, str(study_dir / "study.yaml")]) == 0, command


def test_unrated_storage_power_is_accepted(study_dir, tmp_path, out_dir):
    config = rewrite_config(study_dir, tmp_path, der={"storage_power_kw": INF})
    assert ingest.load_config(config).storage_power_kw == INF
    assert cli.main(["validate", str(config)]) == 0
    assert cli.main(["sweep", str(config), "--mode", "decentralized"]) == 0


def test_commands_import_no_lazy_library(tmp_path):
    # numpy.ma or scipy pulled in on the way would cost every process
    # milliseconds of import and MB of memory; the oracle alone uses scipy
    script = """
import sys
from tariffkit import cli
study = sys.argv[1] + "/study.yaml"
codes = [cli.main(["gen-synthetic", "--out", sys.argv[1]])]
for command in (["validate"], ["optimize"], ["pareto"], ["sweep", "--mode", "decentralized"],
                ["sweep", "--mode", "centralized"], ["xsub"]):
    codes.append(cli.main([*command, study]))
print(codes, sorted(m for m in ("numpy.ma", "scipy") if m in sys.modules))
"""
    env = dict(os.environ)
    src = Path(cli.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env[cli.OUTPUT_DIR_ENV] = str(tmp_path / "results")
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "study")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0, 0] []"


def test_study_commands_load_no_openssl(tmp_path):
    # the study commands load numpy and the standard library only: no PyYAML
    # (ingest reads the study file itself), no OpenSSL (hashlib's _hashlib),
    # no scipy, no numpy.ma.  The data is
    # written here, outside the checked interpreter, because gen-synthetic
    # imports numpy.random, whose secrets import loads hashlib.
    root = tmp_path / "study"
    ingest.write_synthetic_dataset(root, n_days=5, horizon=12)
    script = """
import sys
from tariffkit import cli
study = sys.argv[1] + "/study.yaml"
codes = [cli.main([*command, study])
         for command in (["validate"], ["optimize"], ["pareto"],
                         ["sweep", "--mode", "decentralized"],
                         ["sweep", "--mode", "centralized"], ["xsub"])]
print(codes, sorted(m for m in ("_hashlib", "scipy", "numpy.ma", "yaml") if m in sys.modules))
"""
    result = subprocess.run(
        [sys.executable, "-c", script, str(root)], capture_output=True, text=True,
        env=child_env({cli.OUTPUT_DIR_ENV: str(tmp_path / "results")}), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] []"
