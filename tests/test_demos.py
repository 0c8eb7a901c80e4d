"""Smoke test: every demo script runs to completion on the synthetic study."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(DEMOS / script), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, synthetic_dir):
    # storage_arbitrage.py builds its own prices and reads no study
    data_args = [] if script == "storage_arbitrage.py" else ["--data", str(synthetic_dir)]
    result = run_demo(script, *data_args)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_der_sweep_demo_prints_every_configured_family(synthetic_dir, tmp_path):
    # two charges give two families of each fixed-A kind, labelled by charge
    mapping = yaml.safe_load((synthetic_dir / "study.yaml").read_text())
    mapping["families"]["fixed_connection_charges_usd_per_day"] = [0.53, 2.0]
    (tmp_path / "study.yaml").write_text(yaml.safe_dump(mapping, sort_keys=False))
    for name in ("prices.csv", "load.csv", "solar.csv"):
        (tmp_path / name).write_bytes((synthetic_dir / name).read_bytes())
    result = run_demo("der_adoption_sweep.py", "--data", str(tmp_path))
    assert result.returncode == 0, result.stderr
    for label in ("flat-fixed-A@0.53", "flat-fixed-A@2",
                  "dynamic-fixed-A@0.53", "dynamic-fixed-A@2"):
        assert result.stdout.count(f"\n  {label}\n") == 2  # once per integration mode
