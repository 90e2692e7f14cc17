"""Per-layer spans, recorded from outside the ``setforge`` package.

``install`` replaces each target function by a wrapper in every
``setforge`` module that refers to it, so a call is timed no matter
which namespace the caller looks the function up in (for example
``setforge.cli.complete`` and ``setforge.completion.complete`` are the
same wrapper). Spans stay in memory; ``Recorder.summary`` turns them
into per-op self times and counts when the sequence is over.

A target that no longer exists, or whose arguments or result no longer
have the shape a counter reads, is recorded as absent instead of
failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

# Counter hooks get (args, kwargs, result) and return {metric: amount}.
Counter = Callable[[tuple, dict, Any], dict[str, float]]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _step_counts(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    before = len(_arg(args, kwargs, 0, "u").graph.nodes)
    return {
        "completion.nodes_added": len(result.graph.nodes) - before,
        # The kernel enumerates every subset of the current node set.
        "completion.subsets_enumerated": 2**before,
    }


REFUSALS = "completion.budget_refusals"


@dataclass(frozen=True)
class Target:
    """A public function to wrap and the metrics its wrapper feeds.

    ``span`` names the self-time metric (None wraps with a call counter
    only, for functions called once per node); ``counts`` lists the
    metrics ``counter`` and ``per_call`` produce."""

    module: str
    function: str
    span: str | None
    counts: tuple[str, ...] = ()
    counter: Counter | None = None
    per_call: str | None = None
    refusals: bool = False

    @property
    def metrics(self) -> list[str]:
        return [m for m in (self.span, *self.counts) if m]


TARGETS = (
    Target("cli", "main", "cli.main.self_s"),
    Target("document", "serialize", "document.serialize.s", ("document.bytes_out",),
           lambda a, k, r: {"document.bytes_out": len(r)}),
    Target("document", "deserialize", "document.deserialize.s", ("document.bytes_in",),
           lambda a, k, r: {"document.bytes_in": len(_arg(a, k, 0, "text"))}),
    Target("graph", "is_isomorphic", "graph.is_isomorphic.s"),
    Target("graph", "require_extensional", "graph.require_extensional.s"),
    Target("graph", "subset_node_id", None, ("graph.subset_node_id.calls",),
           per_call="graph.subset_node_id.calls"),
    Target("completion", "complete", "completion.complete.s"),
    Target("completion", "complete_step", "completion.complete_step.s",
           ("completion.nodes_added", "completion.subsets_enumerated", REFUSALS),
           _step_counts, refusals=True),
    Target("completion", "witness_report", "completion.witness_report.s"),
    Target("dred", "dred_complete", "dred.dred_complete.s"),
    Target("dred", "verify_dred", "dred.verify_dred.s", ("dred.verify_dred.calls",),
           per_call="dred.verify_dred.calls"),
    Target("seeds", "assemble", "seeds.assemble.s"),
    Target("logic", "parse", "logic.parse.s"),
    Target("logic", "define_class", "logic.define_class.s", ("logic.nodes_selected",),
           lambda a, k, r: {"logic.nodes_selected": len(r)}),
    Target("logic", "eval_formula", "logic.eval_formula.s"),
    Target("logic", "check_axiom", "logic.check_axiom.s"),
    Target("oracle", "oracle_complete", "oracle.oracle_complete.s"),
    Target("oracle", "compare", "oracle.compare.s"),
    Target("dot", "to_dot", "dot.to_dot.s", ("dot.bytes_out",),
           lambda a, k, r: {"dot.bytes_out": len(r)}),
)

DERIVED = {"completion.useful_ratio": ("completion.nodes_added", "completion.subsets_enumerated")}
METRICS = tuple(m for t in TARGETS for m in t.metrics) + tuple(DERIVED)


class Recorder:
    """Collects spans and counts for one op sequence."""

    def __init__(self) -> None:
        # [metric, op, parent index, start, end]
        self.spans: list[list[Any]] = []
        self.counts: dict[tuple[int | None, str], float] = {}
        self.absent: set[str] = set()
        self.op: int | None = None
        self._stack: list[int] = []

    def _count(self, metric: str, amount: float) -> None:
        key = (self.op, metric)
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn: Callable, target: Target, refusal: type | None) -> Callable:
        clock = time.perf_counter

        if target.span is None:
            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                self._count(target.per_call, 1)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [target.span, self.op, self._stack[-1] if self._stack else None, clock(), None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            if target.per_call:
                self._count(target.per_call, 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = clock()
                self._stack.pop()
                if target.refusals and refusal is not None and isinstance(exc, refusal):
                    self._count(REFUSALS, 1)
                raise
            record[4] = clock()
            self._stack.pop()
            if target.counter is not None:
                try:
                    counts = target.counter(args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    self.absent.update(target.counts)
                else:
                    for metric, amount in counts.items():
                        self._count(metric, amount)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded ``setforge`` module."""
        try:
            errors = importlib.import_module("setforge.errors")
            refusal = getattr(errors, "BudgetExceededError", None)
        except ImportError:
            refusal = None
        if refusal is None:
            self.absent.add(REFUSALS)
        for target in TARGETS:
            try:
                home = importlib.import_module(f"setforge.{target.module}")
            except ImportError:
                home = None
            original = getattr(home, target.function, None)
            if not callable(original):
                self.absent.update(target.metrics)
                continue
            wrapper = self.wrap(original, target, refusal)
            for name, loaded in list(sys.modules.items()):
                if loaded is None or not (name == "setforge" or name.startswith("setforge.")):
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapper)

    def summary(self, op_count: int) -> dict[str, Any]:
        """Per-op self times and counts, and the check that each op's
        self times add up to its root span."""
        durations = [s[4] - s[3] for s in self.spans]
        self_time = list(durations)
        for i, s in enumerate(self.spans):
            if s[2] is not None:
                self_time[s[2]] -= durations[i]
        ops: list[dict[str, Any]] = []
        for op in range(op_count):
            values: dict[str, float] = {m: 0.0 for m in METRICS}
            roots = [i for i, s in enumerate(self.spans) if s[1] == op and s[2] is None]
            total_self = 0.0
            for i, s in enumerate(self.spans):
                if s[1] == op:
                    values[s[0]] = values.get(s[0], 0.0) + self_time[i]
                    total_self += self_time[i]
            for (at, metric), amount in self.counts.items():
                if at == op:
                    values[metric] = values.get(metric, 0.0) + amount
            root = sum(durations[i] for i in roots)
            ops.append({
                "traced_wall_s": root,
                "self_sum_s": total_self,
                "roots": len(roots),
                "metrics": values,
            })
        return {"ops": ops, "absent": sorted(self.absent)}


def totals(summary: dict[str, Any]) -> dict[str, float]:
    """Sum the per-op metrics of one sequence and derive the ratios."""
    out = {m: 0.0 for m in METRICS}
    for op in summary["ops"]:
        for metric, value in op["metrics"].items():
            out[metric] += value
    for ratio, (num, den) in DERIVED.items():
        out[ratio] = out[num] / out[den] if out[den] else 0.0
    return out
