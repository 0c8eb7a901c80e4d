import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from tariffkit import cli, ingest, simplex
from tariffkit import storage as st


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


def test_validate_passes_on_synthetic_study(study_dir, out_dir, capsys):
    assert cli.main(["validate", str(study_dir / "study.yaml")]) == 0
    out = capsys.readouterr().out
    assert "validation passed" in out
    assert "ok   assumption 1" in out
    assert "derived F" in out


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
def test_malformed_yaml_exits_2(tmp_path, out_dir, capsys, monkeypatch, loader):
    if not hasattr(yaml, loader):
        pytest.skip(f"PyYAML has no {loader}")
    monkeypatch.setattr(ingest, "_YAML_LOADER", getattr(yaml, loader))
    config = tmp_path / "study.yaml"
    config.write_text("study:\n  output_dir: [unclosed\n", encoding="utf-8")
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


def run_cli(argv, env_updates):
    """One ``python -m tariffkit.cli`` process, so stderr is what a user sees."""
    env = dict(os.environ)
    src = Path(cli.__file__).resolve().parents[1]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(env_updates)
    return subprocess.run([sys.executable, "-m", "tariffkit.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


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
