"""The benchmark's tracer finds layers by public function name."""

import ast
import contextlib
import importlib
import inspect
import io
import json
import sys
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


def test_certify_checks_through_the_name_the_tracer_wraps(tmp_path, monkeypatch):
    """Certify's four commands call ``verify_dred`` exactly four times
    when it is replaced in every ``setforge`` module that binds it, as
    the tracer replaces it: once while seeding, before and after the
    completion step, and once for the condition check.  A check made
    past that name would escape ``dred.verify_dred.s``."""
    from setforge import dred
    from setforge.cli import main

    original = dred.verify_dred
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is not None and (name == "setforge" or name.startswith("setforge.")):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)

    def run(argv: list[str], stdin_text: str) -> str:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0
        return out.getvalue()

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "atoms": [{"label": "k", "kind": "chain", "length": 2}],
        "naturals_up_to": 2,
        "code_style": "chain",
        "code_length": 1,
    }))
    seed = run(["seed", "spec", str(spec)], "")
    universe = run(["complete", "--dred", "--levels", "1"], seed)
    assert run(["check", "--dred-conditions", "--porcelain"], universe) == "dred\tok\t\n"
    run(["export", "--dot", "-"], universe)
    assert len(calls) == 4
