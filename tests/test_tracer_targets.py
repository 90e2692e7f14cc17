"""The benchmark's tracer finds layers by public function name."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def tracer_targets() -> list[tuple[str, str]]:
    """The (module, function) pairs of ``TARGETS`` in the tracer's
    source, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return [(call.args[0].value, call.args[1].value) for call in targets.elts]


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert ("graph", "is_isomorphic") in targets and ("oracle", "oracle_complete") in targets
    missing = [
        f"setforge.{module}.{function}"
        for module, function in targets
        if not callable(getattr(importlib.import_module(f"setforge.{module}"), function, None))
    ]
    assert missing == []


def test_complete_step_keeps_the_argument_the_tracer_reads():
    """``_step_counts`` reads ``complete_step``'s first argument as ``u``
    and ``.graph`` on it and on the result; if either goes, the step
    counters turn into absent metrics."""
    from setforge import ExtensionalDigraph, completion

    assert next(iter(inspect.signature(completion.complete_step).parameters)) == "u"
    u = completion.complete(ExtensionalDigraph.empty(), 1)
    step = completion.complete_step(u=u)
    assert len(step.graph.nodes) - len(u.graph.nodes) == 1
