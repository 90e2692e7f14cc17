"""Property test over ``cli.main``: whatever the arguments, documents,
specs and formulas, a command exits with a documented code (0-4) and no
traceback, and only a property command reports a failing property
(exit 1)."""

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from functools import lru_cache

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import print_formula, random_closed_formula, random_formula

from setforge import (
    AnnotatedGraph,
    complete,
    dred_complete,
    dred_from_graph,
    quine_atoms,
    serialize,
    von_neumann_seed,
)
from setforge.cli import main

SPEC = {
    "atoms": [{"label": "a", "kind": "chain", "length": 1}],
    "naturals_up_to": 2,
    "tuples": [{"tag": 0, "components": ["a"]}],
    "code_style": "chain",
    "code_length": 1,
    "formulas": {"self": "x in x"},
}
FORMULAS = {"self": "x in x", "twocycle": "exists y. (y in x & x in y)"}

# Exit 1 means "the checked property fails"; these commands check one.
PROPERTY_COMMANDS = {"check", "eval", "oracle-compare", "diff"}


def invoke(argv, stdin_text=""):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


@lru_cache(maxsize=None)
def documents() -> tuple[str, ...]:
    """Valid documents of every shape, none over 16 nodes: plain,
    self-membered, certified, leveled, with formulas."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spec.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(SPEC, handle)
        code, chain_seed, _ = invoke(["seed", "spec", path])
    assert code == 0
    certified = dred_complete(dred_from_graph(von_neumann_seed(1)), 3)
    records = [
        AnnotatedGraph(von_neumann_seed(0)),
        AnnotatedGraph(von_neumann_seed(2)),
        AnnotatedGraph(quine_atoms(["q0", "q1"]), formulas=FORMULAS),
        complete(quine_atoms(["q"]), 2),
        replace(certified, formulas=FORMULAS),
    ]
    return (chain_seed.rstrip("\n"), *(serialize(h) for h in records))


# HUGE stands for an integer literal past Python's 4,300-digit limit.
HUGE = "<huge integer>"
JUNK = (None, True, 0, 1, 2, 3, -1, 1.5, HUGE, "", "ghost", [], {}, [["ghost", "ghost"]], {"kind": "seed"})


def paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from paths(item, prefix + (i,))


def paths_to(value, kind):
    for path in paths(value):
        item = value
        for step in path:
            item = item[step]
        if type(item) is kind:
            yield path


def mutate(raw, draw) -> str:
    """A document or spec text with one to three faults: a field
    dropped, retyped or duplicated (a repeated key is written twice), a
    string swapped for a foreign id, an integer moved, or one character
    of the dumped text inserted, deleted or duplicated."""
    value = copy.deepcopy(raw)
    repeated = {}
    spliced = 0
    for _ in range(draw(st.integers(1, 3))):
        fault = draw(st.sampled_from(("drop", "retype", "duplicate", "foreign", "move", "text")))
        if fault == "text":
            spliced += 1
            continue
        if fault == "foreign":
            pool = list(paths_to(value, str))
        elif fault == "move":
            pool = list(paths_to(value, int))
        else:
            pool = list(paths(value))[1:]
        if not pool:
            continue
        path = draw(st.sampled_from(pool))
        parent = value
        for step in path[:-1]:
            parent = parent[step]
        last = path[-1]
        if fault == "drop":
            del parent[last]
        elif fault == "retype":
            parent[last] = copy.deepcopy(draw(st.sampled_from(JUNK)))
        elif fault == "foreign":
            parent[last] = draw(st.sampled_from(("ghost", "atom:q0", "set:" + "0" * 24, "", "1")))
        elif fault == "move":
            parent[last] += draw(st.sampled_from((-2, -1, 1, 2)))
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            # A placeholder key, renamed to ``last`` in the text below.
            placeholder = f"<repeat {len(repeated)}>"
            parent[placeholder] = copy.deepcopy(draw(st.sampled_from(JUNK + (parent[last],))))
            repeated[json.dumps(placeholder)] = json.dumps(last)
    text = json.dumps(value, sort_keys=draw(st.booleans()))
    for placeholder, key in repeated.items():
        text = text.replace(placeholder, key)
    text = text.replace(json.dumps(HUGE), "9" * 5000)
    for _ in range(spliced):
        at = draw(st.integers(0, len(text) - 1))
        kind = draw(st.sampled_from(("insert", "delete", "duplicate")))
        if kind == "insert":
            text = text[:at] + draw(st.sampled_from('{}[],:"\\0 ')) + text[at:]
        else:
            text = text[:at] + text[at + 1 :] if kind == "delete" else text[: at + 1] + text[at:]
    return text


@st.composite
def formulas(draw) -> str:
    kind = draw(st.sampled_from(("printed", "named", "text")))
    if kind == "printed":
        rng = random.Random(draw(st.integers(0, 2**32)))
        make = random_closed_formula if draw(st.booleans()) else random_formula
        return print_formula(make(rng, draw(st.integers(0, 3))))
    if kind == "named":
        return draw(st.sampled_from(("@self", "@twocycle", "@missing", "@")))
    return draw(st.text(alphabet="xyz (). &|!-><=@∈∀inexistsall", max_size=24))


@st.composite
def invocations(draw):
    """An argv, the stdin text and the files it names, as (name, text)."""
    docs = documents()
    stdin = draw(st.sampled_from(docs))
    if draw(st.integers(0, 2)) == 0:
        stdin = mutate(json.loads(stdin), draw)
    files = []
    command = draw(st.sampled_from((
        "seed", "spec", "complete", "check", "eval", "define", "oracle-compare", "export", "diff",
    )))
    if command == "seed":
        kind = draw(st.sampled_from(("empty", "vN", "quine", "spec", "other")))
        arg = draw(st.sampled_from((None, "0", "2", "3", "-1", "x", "", "٣", "10**9", "99999999")))
        argv = ["seed", kind] + ([arg] if arg is not None else [])
    elif command == "spec":
        files.append(("spec.json", mutate(SPEC, draw) if draw(st.booleans()) else json.dumps(SPEC)))
        argv = ["seed", "spec", "spec.json"]
    elif command in ("complete", "oracle-compare"):
        argv = [command, "--levels", draw(st.sampled_from(("0", "1", "1", "2", "2", "-1", "x")))]
        argv += ["--budget", draw(st.sampled_from(("0", "1", "50", "300", "5000", "5000", "-3")))]
        if command == "complete" and draw(st.booleans()):
            argv.append("--dred")
    elif command == "check":
        argv = ["check"] + draw(st.sampled_from((
            ["--axiom", "extensionality"], ["--axiom", "foundation_minimal"], ["--axiom", "nope"],
            ["--witness-report"], ["--dred-conditions"], [], ["--witness-report", "--dred-conditions"],
        )))
    elif command in ("eval", "define"):
        argv = [command, "--formula", draw(formulas())]
        if command == "eval" and draw(st.booleans()):
            argv += ["--bind", draw(st.sampled_from(("x=atom:q0", "x=ghost", "x", "=q", "y=")))]
    elif command == "export":
        argv = ["export", "--dot", draw(st.sampled_from(("-", "out.dot", "no/such/dir/out.dot")))]
    else:
        for name in ("a.json", "b.json"):
            text = draw(st.sampled_from(docs))
            if draw(st.integers(0, 2)) == 0:
                text = mutate(json.loads(text), draw)
            files.append((name, text))
        argv = ["diff", "a.json", draw(st.sampled_from(("b.json", "a.json", "missing.json")))]
    if draw(st.booleans()):
        argv.append("--porcelain")
    return argv, stdin, files


@settings(
    max_examples=600,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
def test_every_invocation_exits_with_a_documented_code(case):
    argv, stdin, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files:
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as handle:
                handle.write(text)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            code, out, err = invoke(argv, stdin)
        finally:
            os.chdir(here)
    assert code in range(5), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 1:
        certifying = argv[0] == "complete" and "--dred" in argv
        assert argv[0] in PROPERTY_COMMANDS or (
            certifying and out.startswith("depth/rank conditions fail:")
        ), (argv, out, err)
