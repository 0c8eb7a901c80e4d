"""tariffkit benchmark: wall time of each CLI subcommand on a scenario workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paired-20d --seed 0 --seconds 50 --trace 0

For one workload and seed, the benchmark writes the inputs with
``tariffkit gen-synthetic`` (untimed) and runs one discarded ``validate`` so
that the file cache and the ``.pyc`` files are warm.  It then runs the
workload's subcommands as separate processes, one at a time and in passes,
the way a user runs them: every process pays interpreter start-up and starts
with a cold storage-LP cache.  A new pass starts while half a pass of the
mean length still fits in ``--seconds``.  Exit codes and tables are checked
outside the timed region (see ``checks.py``).

``--trace 0`` reports the end-to-end metrics as medians.  ``--trace 1`` runs
one untraced pass and two traced passes (``tracer.py``) and reports per-layer
self times and work counters; it also requires the traced tables to be
byte-identical to the untraced ones and the counters of the two traced passes
to be equal.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH_DIR / "tracer.py"

COMMANDS = {
    "validate": ("validate",),
    "optimize": ("optimize",),
    "pareto": ("pareto",),
    "sweep_dec": ("sweep", "--mode", "decentralized"),
    "sweep_cen": ("sweep", "--mode", "centralized"),
    "xsub": ("xsub",),
}


@dataclass(frozen=True)
class Workload:
    days: int
    variant: str  # gen-synthetic --variant: paired days or the product of days


WORKLOADS = {
    "paired-20d": Workload(20, "correlated"),  # 20 scenarios
    "product-20d": Workload(20, "independent"),  # 400 scenarios
}

# Within a pass each command runs until it has taken this long, so short
# commands get as many samples as their medians need.
MIN_PASS_S = 0.5
STARTUP_SAMPLES = 5  # import-only processes per traced run; cli.startup_s is their median
CHILD_TIMEOUT_S = 150.0
LAYERS = ("cli", "ingest", "scenario", "demand", "tariff", "storage", "simplex", "welfare")

# Threads are pinned so that figures measure the program, not BLAS threads
# contending for the cores; only one child process runs at a time.
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Process:
    wall_s: float
    rss_kb: int
    code: int
    stdout: str


def run_process(argv: list[str], log_path: Path, env: dict[str, str]) -> Process:
    """Run one child to completion; wall time, peak RSS and exit code from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                                env={**os.environ, **env})
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, usage.ru_maxrss, proc.returncode,
                   log_path.read_text(encoding="utf-8", errors="replace"))


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Bench:
    """One workload at one seed: inputs, invocations and their checks.

    The benchmark process imports nothing heavy until every child has run:
    a child's peak RSS from ``wait4`` includes what it inherited at fork,
    so a large parent would mask the child's own figure.
    """

    def __init__(self, name: str, seed: int):
        self.workload = WORKLOADS[name]
        self.dir = WORK / name / f"seed-{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self.dir / "data" / "study.yaml"
        self.attempted = 0
        self.failed = 0
        self.scenarios = 0
        # First untraced output per command (directory, stdout, digest), and how
        # many later invocations wrote the same bytes.
        self.first: dict[str, tuple[Path, str, str]] = {}
        self.repeats: Counter = Counter()

        gen = run_process(
            [sys.executable, "-m", "tariffkit.cli", "gen-synthetic", "--out",
             str(self.dir / "data"), "--seed", str(seed), "--days", str(self.workload.days),
             "--variant", self.workload.variant],
            self.dir / "gen.log", CHILD_ENV,
        )
        if gen.code != 0:
            raise RuntimeError(f"gen-synthetic failed with exit code {gen.code}:\n{gen.stdout}")

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        print(f"FAIL {message}", flush=True)

    def invoke(self, key: str, trace_path: Path | None = None) -> Process:
        """Run one subcommand in its own process and compare what it wrote."""
        out_dir = self.dir / "out" / f"{key}-{self.attempted}"
        out_dir.mkdir(parents=True)
        if trace_path is None:
            argv = [sys.executable, "-m", "tariffkit.cli"]
        else:
            argv = [sys.executable, str(TRACER), str(trace_path)]
        argv += [*COMMANDS[key], str(self.config)]
        proc = run_process(argv, out_dir.with_suffix(".log"),
                           {**CHILD_ENV, "TARIFFKIT_OUTPUT_DIR": str(out_dir)})
        self.attempted += 1
        label = f"{key}{' (traced)' if trace_path else ''}"
        if proc.code != 0:
            self.fail(f"{label}: exit code {proc.code}: {proc.stdout.strip()[-300:]}")
            return proc
        digest = _digest(out_dir)
        if key not in self.first and trace_path is None:
            self.first[key] = (out_dir, proc.stdout, digest)
            return proc
        shutil.rmtree(out_dir)
        if key not in self.first or digest != self.first[key][2]:
            self.fail(f"{label}: tables differ from the first untraced run")
        else:
            self.repeats[key] += 1
        return proc

    def verify(self) -> None:
        """Check each command's first tables; a failure counts for every identical run."""
        import checks  # imports tariffkit: only after the last child has run

        expected = checks.expected_for(self.config)
        self.scenarios = len(expected.study.scenario_set)
        for key, (out_dir, stdout, _) in self.first.items():
            try:
                problems = checks.CHECKS[key](out_dir, stdout, expected)
            except Exception:  # tables a check cannot read fail it, with the traceback
                problems = [traceback.format_exc(limit=-1).strip()]
            if problems:
                self.fail(f"{key}: {'; '.join(problems)}", count=1 + self.repeats[key])


def _result(bench: Bench, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def measure(bench: Bench, seconds: float) -> dict:
    """Untraced run: medians of each subcommand's process wall time."""
    bench.invoke("validate")  # warm-up, discarded
    samples: dict[str, list[Process]] = {key: [] for key in COMMANDS}
    start = time.perf_counter()
    passes = 0
    # Start another pass while half a pass of the mean length still fits, so
    # a run ends as close to the deadline as the pass length allows.
    while passes == 0 or (time.perf_counter() - start) * (1 + 0.5 / passes) < seconds:
        for key, runs in samples.items():
            spent = 0.0
            while spent < MIN_PASS_S:
                runs.append(bench.invoke(key))
                spent += runs[-1].wall_s
        passes += 1
    measured = time.perf_counter() - start
    bench.verify()
    (bench.dir / "samples.json").write_text(json.dumps(
        {key: [[p.wall_s, p.rss_kb] for p in runs] for key, runs in samples.items()}))

    medians = {key: statistics.median(p.wall_s for p in runs) for key, runs in samples.items()}
    print(f"{bench.scenarios} scenarios, {passes} passes in {measured:.1f} s")
    print(f"{'command':<10} {'n':>3} {'median_s':>9} {'min_s':>8} {'max_s':>8} {'rss_mb':>7}")
    for key, runs in samples.items():
        walls = [p.wall_s for p in runs]
        rss = max(p.rss_kb for p in runs) / 1024
        print(f"{key:<10} {len(walls):>3} {medians[key]:>9.4f} {min(walls):>8.4f} "
              f"{max(walls):>8.4f} {rss:>7.1f}")
    print(f"attempted {bench.attempted}, failed {bench.failed}, "
          f"failed_frac {bench.failed / bench.attempted:.4g}")
    metrics = {"setup_s": (medians.pop("validate"), "s")}
    metrics.update({f"{key}_s": (median, "s") for key, median in medians.items()})
    metrics["study_s"] = (sum(value for value, _ in metrics.values()), "s")
    peak_rss = max(p.rss_kb for runs in samples.values() for p in runs) / 1024
    metrics["peak_rss_mb"] = (peak_rss, "MB")
    return _result(bench, metrics)


@dataclass
class LayerStats:
    """Spans and counters of one traced pass, summed over its commands."""

    calls: Counter
    self_s: defaultdict
    scenarios: int

    @classmethod
    def from_traces(cls, traces: list[dict]) -> "LayerStats":
        calls, self_s, scenarios = Counter(), defaultdict(float), 0
        for trace in traces:
            spans = trace["spans"]
            covered = [0.0] * len(spans)
            for name, parent, start, end in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for (name, _, start, end), child in zip(spans, covered):
                calls[name] += 1
                self_s[name] += end - start - child
            counts = dict(trace["counts"])
            scenarios = max(scenarios, counts.pop("ingest.scenarios", 0))
            calls.update(counts)
        return cls(calls, self_s, scenarios)

    def layer_self_s(self, layer: str) -> float:
        return sum(v for name, v in self.self_s.items() if name.split(".")[0] == layer)


def trace(bench: Bench) -> dict:
    """Traced run: per-layer self times and work counters."""
    bench.invoke("validate")  # warm-up, discarded
    startup = []
    for k in range(STARTUP_SAMPLES):
        proc = run_process([sys.executable, "-c", "import tariffkit.cli"],
                           bench.dir / f"startup-{k}.log", CHILD_ENV)
        bench.attempted += 1
        if proc.code != 0:
            bench.fail(f"import tariffkit.cli: exit code {proc.code}")
        startup.append(proc.wall_s)
    untraced = {key: bench.invoke(key).wall_s for key in COMMANDS}

    reps, traced_walls, per_command = [], [], {}
    for rep in range(2):
        traces, wall = [], 0.0
        for key in COMMANDS:
            path = bench.dir / f"trace-{rep}-{key}.json"
            proc = bench.invoke(key, trace_path=path)
            wall += proc.wall_s
            if proc.code == 0:
                traces.append(json.loads(path.read_text(encoding="utf-8")))
                per_command.setdefault(key, []).append((proc.wall_s, LayerStats.from_traces(traces[-1:])))
        reps.append(LayerStats.from_traces(traces))
        traced_walls.append(wall)
    if reps[0].calls != reps[1].calls or reps[0].scenarios != reps[1].scenarios:
        diff = {k for k in reps[0].calls.keys() | reps[1].calls.keys()
                if reps[0].calls[k] != reps[1].calls[k]}
        bench.fail(f"work counters differ between two traced passes: {sorted(diff)[:5]}")
    bench.verify()

    print(f"{bench.scenarios} scenarios; self time per layer, mean of the two traced passes, s")
    print(f"{'command':<10} {'wall_s':>8} " + " ".join(f"{layer:>8}" for layer in LAYERS))
    command_metrics = {}
    for key, runs in per_command.items():
        wall = statistics.mean(w for w, _ in runs)
        selfs = {layer: statistics.mean(s.layer_self_s(layer) for _, s in runs) for layer in LAYERS}
        print(f"{key:<10} {wall:>8.3f} " + " ".join(f"{v:>8.3f}" for v in selfs.values()))
        command_metrics.update({f"{key}.{layer}.self_s": (v, "s") for layer, v in selfs.items()})

    calls = reps[0].calls

    def self_s(*names: str) -> float:
        return statistics.mean(sum(rep.self_s[n] for n in names) for rep in reps)

    def layer(name: str) -> float:
        return statistics.mean(rep.layer_self_s(name) for rep in reps)

    lp_solves = calls["simplex.maximize"]
    arbitrage = calls["storage.arbitrage_value"]
    metrics = {
        "simplex.maximize.calls": (lp_solves, "count"),
        "simplex.maximize.self_s": (self_s("simplex.maximize"), "s"),
        "simplex.maximize.s_per_call": (self_s("simplex.maximize") / lp_solves if lp_solves else 0.0, "s"),
        "storage.lp_solves": (lp_solves, "count"),
        "storage.arbitrage_value.calls": (arbitrage, "count"),
        "storage.arbitrage_value.self_s": (self_s("storage.arbitrage_value"), "s"),
        "storage.lp_hit_ratio": (1.0 - lp_solves / arbitrage if arbitrage else 0.0, "ratio"),
        "tariff.revenue_probes": (calls["tariff.expected_retailer_surplus"], "count"),
        "tariff.expected_retailer_surplus.self_s": (self_s("tariff.expected_retailer_surplus"), "s"),
        "tariff.optimize_family.calls": (calls["tariff.optimize_family_report"], "count"),
        "tariff.optimize_family.self_s": (
            self_s("tariff.optimize_family", "tariff.optimize_family_report"), "s"),
        "welfare.evaluate.calls": (calls["welfare.evaluate"], "count"),
        "welfare.evaluate.self_s": (self_s("welfare.evaluate"), "s"),
        "welfare.evaluate.pairs": (calls["welfare.evaluate.pairs"], "count"),
        "demand.demand.calls": (calls["demand.demand"], "count"),
        "scenario.with_pv_capacity.calls": (calls["scenario.with_pv_capacity"], "count"),
        "scenario.with_pv_capacity.self_s": (self_s("scenario.with_pv_capacity"), "s"),
        "scenario.cov_trace.calls": (calls["scenario.cov_trace"], "count"),
        "scenario.cov_trace.self_s": (self_s("scenario.cov_trace"), "s"),
        "welfare.cross_subsidy.self_s": (self_s("welfare.cross_subsidy"), "s"),
        "ingest.load_config.self_s": (self_s("ingest.load_config"), "s"),
        "ingest.build_study.self_s": (self_s("ingest.build_study"), "s"),
        "ingest.split_marginals.self_s": (self_s("scenario.split_marginals"), "s"),
        "ingest.scenarios": (reps[0].scenarios, "count"),
        "welfare.base_anchors.self_s": (self_s("welfare.base_anchors"), "s"),
        "welfare.pareto_front.self_s": (self_s("welfare.pareto_front"), "s"),
        "welfare.der_sweep.self_s": (self_s("welfare.der_sweep"), "s"),
        "cli.startup_s": (statistics.median(startup), "s"),
    }
    metrics.update({f"{name}.self_s": (layer(name), "s") for name in LAYERS})
    metrics["trace.overhead_s"] = (statistics.mean(traced_walls) - sum(untraced.values()), "s")
    metrics.update(command_metrics)
    return _result(bench, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="gen-synthetic seed (0 = shipped study)")
    parser.add_argument("--seconds", type=float, default=50.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tariffkit" / "cli.py").is_file():
        print(f"tariffkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench = Bench(args.workload, args.seed)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}", flush=True)
    result = trace(bench) if args.trace else measure(bench, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
