"""Run one tariffkit command with its layer functions wrapped, and dump the trace.

Usage::

    python3 perfbench/tracer.py TRACE.json <tariffkit arguments...>

Every public function of the layer modules (cli, ingest, scenario, demand,
tariff, storage, simplex, welfare) is replaced, at every module-level name
that refers to it, by a wrapper that records a span: name, parent span,
start and end.  ``from .scenario import cov_trace`` in ``welfare`` binds a
second name to the same function, so both names are rebound.  Hot leaves,
called once per (scenario, class) or per price vector, only count calls.
Spans and counters stay in memory and are written to TRACE.json when the
command returns.  The wrappers pass arguments and results through
untouched, so the command's tables are the same as an untraced run's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "ingest", "scenario", "demand", "tariff", "storage", "simplex", "welfare")

# Called per (scenario, class) pair or per price vector: a span each would
# cost more than the work it measures.
COUNTED = frozenset({
    "demand.demand",
    "demand.aggregate_demand",
    "demand.gross_benefit",
    "demand.gross_benefit_gradient",
    "demand.consumer_net_benefit",
    "scenario.as_price_vector",
    "scenario.expect_price",
    "tariff.customer_fleet_meter",
    "tariff.customer_fleet_value",
    "tariff.retailer_commitment",
    "tariff.retailer_fleet_value",
    "tariff.retailer_renewable_value",
    "tariff.retailer_der_offset",
    "tariff.expected_margin",
})


def _evaluate_pairs(args, kwargs, result):
    model = args[1] if len(args) > 1 else kwargs["model"]
    scenario_set = args[2] if len(args) > 2 else kwargs["scenario_set"]
    return "welfare.evaluate.pairs", len(scenario_set) * model.n_classes


def _scenario_count(args, kwargs, result):
    return "ingest.scenarios", len(result.scenario_set)


# Work counters derived from a wrapped call's arguments or result.
DERIVED = {
    "welfare.evaluate": _evaluate_pairs,
    "ingest.build_study": _scenario_count,
}


class Recorder:
    """Spans as ``[name, parent, start, end]`` lists, plus call counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, name, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        derive = DERIVED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if derive is not None:
                key, amount = derive(args, kwargs, result)
                counts[key] += amount
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every public layer function at every name bound to it."""
    package = importlib.import_module("tariffkit")
    modules = {layer: importlib.import_module(f"tariffkit.{layer}") for layer in LAYERS}
    namespaces = [vars(package)] + [vars(module) for module in modules.values()]
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            replacement = (recorder.counter if name in COUNTED else recorder.span)(name, fn)
            for namespace in namespaces:
                for key, value in list(namespace.items()):
                    if value is fn:
                        namespace[key] = replacement


def main(argv: list[str]) -> int:
    trace_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    cli = importlib.import_module("tariffkit.cli")
    try:
        return cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "counts": dict(recorder.counts)}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
