"""Shared fixtures: synthetic studies built once per session.

The acceptance tests live in test_acceptance.py and are named
test_criterion_NN_*; the terminal-summary hook below prints one PASS/FAIL
line per criterion at the end of the run.
"""

import re

import pytest

from tariffkit import ingest


@pytest.fixture(scope="session")
def synthetic_dir(tmp_path_factory):
    """Bundled synthetic dataset, correlated price/load variant."""
    out = tmp_path_factory.mktemp("synthetic")
    ingest.write_synthetic_dataset(out, seed=0, n_days=20, horizon=24, correlated=True)
    return out


@pytest.fixture(scope="session")
def independent_dir(tmp_path_factory):
    """Synthetic dataset, independence variant (product-of-marginals mode)."""
    out = tmp_path_factory.mktemp("synthetic_indep")
    ingest.write_synthetic_dataset(out, seed=0, n_days=20, horizon=24, correlated=False)
    return out


@pytest.fixture(scope="session")
def study(synthetic_dir):
    return ingest.build_study(ingest.load_config(synthetic_dir / "study.yaml"))


@pytest.fixture(scope="session")
def independent_study(independent_dir):
    return ingest.build_study(ingest.load_config(independent_dir / "study.yaml"))


@pytest.fixture(scope="session")
def anchors(study):
    return study.anchors


# ---------------------------------------------------------------------------
# acceptance summary

_CRITERION_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_CRITERION_LABELS = {
    1: "decentralized optimum: prices at expected wholesale, A via two routes",
    2: "centralized optimum: zero price correction, A drop by differencing",
    3: "welfare identities and F-invariance of social welfare",
    4: "planner bound attained under independence, upper bound always",
    5: "storage LP vs DP lattice oracle",
    6: "Pareto front slope -1; flat points weakly inside",
    7: "revenue adequacy of every emitted tariff, resimulated",
    8: "net-metering cross-subsidy: zero, bounded, monotone",
    9: "DER sweep: affine decentralized gains, monotone centralized gains",
    10: "calibration anchors and shipped defaults",
    11: "byte-identical repeated pipeline runs",
}


_criterion_outcomes: dict[int, str] = {}


def pytest_runtest_logreport(report):
    match = _CRITERION_PATTERN.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.failed:
        _criterion_outcomes[number] = "FAIL"
    elif report.when == "call" and report.passed:
        _criterion_outcomes.setdefault(number, "PASS")
    elif report.skipped:
        _criterion_outcomes.setdefault(number, "SKIP")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = _criterion_outcomes
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(outcomes):
        label = _CRITERION_LABELS.get(number, "")
        terminalreporter.write_line(
            f"criterion {number:2d} {outcomes[number]:4s} {label}"
        )
