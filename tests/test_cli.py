"""End-to-end command line behaviour, including the documented exit codes."""

import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest

from helpers import key_syntax_seed, parse_dot

import setforge
from setforge import (
    AnnotatedGraph,
    AtomDecl,
    Code,
    CodeSpec,
    Deficiency,
    ExtensionalDigraph,
    Seed,
    SetforgeError,
    assemble,
    complete,
    dred_complete,
    oracle_complete,
    quine_atoms,
    serialize,
    von_neumann_seed,
)
from setforge import cli, document, graph, oracle
from setforge.cli import main
from setforge.logic import MAX_FORMULA_DEPTH


def invoke(argv, stdin_text=""):
    """Run main() in-process with captured streams."""
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def seed(kind, arg=None):
    argv = ["seed", kind] + ([arg] if arg is not None else [])
    code, out, _ = invoke(argv)
    assert code == 0
    return out


CHAIN_SPEC_JSON = {
    "atoms": [{"label": "a", "kind": "chain", "length": 2}],
    "naturals_up_to": 2,
    "tuples": [{"tag": 0, "components": ["a"]}],
    "code_style": "chain",
    "code_length": 2,
    "formulas": {"selfmember": "x in x"},
}


@pytest.fixture
def chain_spec_file(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(CHAIN_SPEC_JSON))
    return str(path)


# -- seeding -----------------------------------------------------------------


def test_seed_empty_golden():
    assert seed("empty") == '{"edges":[],"format_version":1,"nodes":[]}\n'


def test_seed_von_neumann():
    doc = json.loads(seed("vN", "3"))
    assert len(doc["nodes"]) == 4


def test_seed_quine_atom_count():
    doc = json.loads(seed("quine", "2"))
    assert len(doc["nodes"]) == 2
    assert len(doc["edges"]) == 2


def test_seed_spec_file(chain_spec_file):
    doc = json.loads(seed("spec", chain_spec_file))
    assert "depth" in doc and "ranks" in doc
    assert doc["formulas"] == {"selfmember": "x in x"}


def test_seed_spec_file_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": "nope"}')
    code, _, _ = invoke(["seed", "spec", str(bad)])
    assert code == 3


@pytest.mark.parametrize(
    "text, message",
    [
        ("atoms: []", "invalid JSON in {path}: Expecting value"),
        ("[1, 2]", "a code spec file must hold a JSON object"),
        ('{"formulas": {"f": 1}}', "the formulas block must map names to formula text"),
        ('{"formulas": ["x in x"]}', "the formulas block must map names to formula text"),
        ('{"naturals_up_to": -1}', "naturals_up_to must be non-negative"),
        ('{"code_style": "zigzag"}', "unknown code style 'zigzag'"),
    ],
    ids=[
        "not-json",
        "not-an-object",
        "formula-not-text",
        "formulas-not-an-object",
        "negative-naturals",
        "unknown-code-style",
    ],
)
def test_seed_spec_file_shape_errors_exit_3(tmp_path, text, message):
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert invoke(["seed", "spec", str(path)]) == (3, "", message.format(path=path) + "\n")


def test_seed_spec_chain_label_with_colon(tmp_path):
    path = tmp_path / "colon.json"
    path.write_text(json.dumps({
        "atoms": [{"label": "a:b", "kind": "chain", "length": 2}],
        "naturals_up_to": 2,
        "code_style": "chain",
        "code_length": 1,
    }))
    code, doc, err = invoke(["seed", "spec", str(path)])
    assert (code, err) == (0, "")
    code, out, _ = invoke(["check", "--dred-conditions", "--porcelain"], doc)
    assert (code, out) == (0, "dred\tok\t\n")


@pytest.mark.parametrize(
    "change",
    [
        {"atoms": [{"label": 7, "kind": "quine"}]},
        {"atoms": [{"label": "a", "kind": "chain", "length": "2"}], "naturals_up_to": 2},
        {"code_style": "chain", "code_length": "1", "naturals_up_to": 1},
        {"atoms": 7},
        {"tuples": 7},
    ],
    ids=["label", "length", "code-length", "atoms", "tuples"],
)
def test_seed_spec_wrong_field_types_exit_3(tmp_path, change):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(change))
    code, out, err = invoke(["seed", "spec", str(path)])
    assert (code, out) == (3, "")
    assert err and "Traceback" not in err


def test_seed_spec_tuples_that_encode_to_one_node_exit_3(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "atoms": [{"label": "a", "kind": "quine"}],
        "naturals_up_to": 1,
        "tuples": [{"tag": 0, "components": ["a"]}, {"tag": 0, "components": ["a", "a"]}],
    }))
    code, out, err = invoke(["seed", "spec", str(path)])
    assert (code, out) == (3, "")
    assert err.startswith(
        "tuple declarations TupleDecl(tag=0, components=('a',)) and "
        "TupleDecl(tag=0, components=('a', 'a')) both encode to node 'set:"
    ), err


def test_seed_spec_label_with_a_lone_surrogate_exit_3(tmp_path):
    """The spec refuses the label, naming the atom, rather than write a
    document whose node ids every reading command refuses."""
    path = tmp_path / "spec.json"
    path.write_text('{"atoms": [{"label": "\\ud800", "kind": "quine"}], "naturals_up_to": 1}')
    expected = "atom label '\\ud800' must not hold a lone surrogate\n"
    assert invoke(["seed", "spec", str(path)]) == (3, "", expected)


def test_seed_spec_not_utf8_exit_3(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b'{"atoms": ["\xff"]}')
    code, _, err = invoke(["seed", "spec", str(path)])
    assert code == 3
    assert err.startswith(f"cannot read {path}: ")


DEEP_JSON = "[" * 200_000


def test_deeply_nested_json_exit_3(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(DEEP_JSON)
    code, _, err = invoke(["check", "--axiom", "extensionality"], DEEP_JSON)
    assert code == 3
    assert "nested too deeply" in err
    code, _, err = invoke(["seed", "spec", str(path)])
    assert code == 3
    assert "nested too deeply" in err
    good = write_doc(tmp_path / "good.json", seed("empty"))
    code, _, err = invoke(["diff", good, str(path)])
    assert code == 3
    assert "nested too deeply" in err


def test_seed_spec_numerals_past_the_cap_exit_2(tmp_path):
    path = tmp_path / "numerals.json"
    path.write_text(json.dumps({"naturals_up_to": 2000}))
    code, out, err = invoke(["seed", "spec", str(path)])
    assert (code, out) == (2, "")
    assert err == "size limit: naturals_up_to is limited to 1024, got 2000\n"


@pytest.mark.parametrize(
    "length, entries", [(2046, 2098175), (20_000, 200050002)], ids=["just-past", "20000-links"]
)
def test_seed_spec_chain_certificate_past_the_cap_exits_2(tmp_path, length, entries):
    """A 20,000-link chain atom once exited 1 with a MemoryError under a
    1.5 GB address-space limit, building its 20,002 rank families."""
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {
                "atoms": [{"label": "long", "kind": "chain", "length": length}],
                "naturals_up_to": 2,
                "code_style": "chain",
                "code_length": 1,
            }
        )
    )
    assert invoke(["seed", "spec", str(path)]) == (
        2,
        "",
        "size limit: chain-style certificates are limited to 2097152 rank-family entries, "
        f"got {entries}\n",
    )


@pytest.mark.parametrize(
    "spec, nodes",
    [
        (
            {
                "atoms": [{"label": "long", "kind": "chain", "length": 30_000_000}],
                "naturals_up_to": 2,
                "code_style": "loop",
            },
            30_000_000,
        ),
        (
            {
                "atoms": [{"label": "a", "kind": "chain", "length": 2}],
                "naturals_up_to": 3,
                "tuples": [{"tag": 0, "components": ["a"]}],
                "code_style": "chain",
                "code_length": 30_000_000,
            },
            2 + 3 + 30_000_000,
        ),
        (
            {
                "naturals_up_to": 1024,
                "tuples": [{"tag": i % 1024, "components": [str(i // 1024)]} for i in range(16_385)],
            },
            4 * 16_385,
        ),
    ],
    ids=["loop-style-chain-atom", "chain-style-code", "tuples"],
)
def test_seed_spec_chain_nodes_past_the_cap_exit_2(tmp_path, spec, nodes):
    """The first two once exited 1 with a MemoryError under a 1.5 GB
    address-space limit, building the chain's ids; the tuples, at 4
    nodes each, are one tuple past the cap. Nothing is built."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert invoke(["seed", "spec", str(path)]) == (
        2,
        "",
        f"size limit: chain atoms, tuples and codes are limited to 65536 nodes, got {nodes}\n",
    )


def test_seed_quine_at_the_cap_and_past_it():
    from setforge import seeds

    cap = seeds._MAX_SEED_NODES
    code, out, err = invoke(["seed", "quine", str(cap)])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["nodes"]) == cap
    for count in (cap + 1, 5_000_000):
        assert invoke(["seed", "quine", str(count)]) == (
            2,
            "",
            f"size limit: quine atoms are limited to {cap}\n",
        )


@pytest.mark.parametrize("component", ["\u00b2", "\u0663"], ids=["superscript-two", "arabic-indic-three"])
def test_seed_spec_numerals_are_ascii_digits(tmp_path, component):
    """Unicode digits are not numerals: "²" once crashed in int() and
    "٣" silently named numeral 3."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"naturals_up_to": 4, "tuples": [{"tag": 0, "components": [component]}]}))
    code, out, err = invoke(["seed", "spec", str(path)])
    assert (code, out) == (3, "")
    assert err == f"component {component!r} is not a declared atom\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["seed", "vN"], "seed vN needs a stage number"),
        (["seed", "quine"], "seed quine needs an atom count"),
        (["seed", "spec"], "seed spec needs a file path"),
        (["seed", "empty", "3"], "seed empty takes no argument"),
        (["seed", "quine", "-1"], "atom count must be non-negative"),
    ],
    ids=["vN-no-stage", "quine-no-count", "spec-no-path", "empty-3", "quine-minus-1"],
)
def test_seed_vn_needs_stage(argv, message):
    """A missing, extra or negative ``seed`` argument is a usage error
    (exit 4), as a stage or count that is not a number is."""
    assert invoke(argv) == (4, "", message + "\n")


def test_seed_vn_stage_out_of_reach():
    expected = "size limit: stage 9 is out of reach: stage 6 already holds 2**65536 sets\n"
    assert invoke(["seed", "vN", "9"]) == (2, "", expected)


def test_seed_vn_non_numeric_stage():
    code, _, _ = invoke(["seed", "vN", "three"])
    assert code == 4


# -- documented pipeline examples --------------------------------------------


# stdout of each step of a certified pipeline, pinned by sha256: a
# three-node chain-style seed with formulas, completed plainly and with
# its certificate, and the certified completion drawn as DOT.
GOLDEN_SPEC_JSON = {
    "atoms": [{"label": "a", "kind": "chain", "length": 1}],
    "naturals_up_to": 2,
    "code_style": "chain",
    "code_length": 1,
    "formulas": {"selfmember": "x in x", "empty": "all y. !(y in x)"},
}
GOLDEN_SHA256 = {
    "seed": "887d917c174622fbe91b220e81da3f15eae74b72755d488559be2375f618ed62",
    "complete": "7ea429a50f21dde3376a40d296505b75fcf8605562a59dbb661e1799e3d55d27",
    "certified": "96f781b22d8b99c6b93e317b410a748830be13976251f523963c0e64a49a23b1",
    "dot": "508d9bf3d3cc9edc94f3e9e15139d4f112e681041f7b809247b03447c07aa73d",
}


def test_certified_pipeline_golden_stdout(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOLDEN_SPEC_JSON))
    outputs = {}
    code, outputs["seed"], _ = invoke(["seed", "spec", str(path)])
    assert code == 0
    code, outputs["complete"], _ = invoke(["complete", "--levels", "2"], outputs["seed"])
    assert code == 0
    code, outputs["certified"], _ = invoke(["complete", "--dred", "--levels", "1"], outputs["seed"])
    assert code == 0
    assert json.loads(outputs["certified"])["formulas"] == GOLDEN_SPEC_JSON["formulas"]
    code, outputs["dot"], _ = invoke(["export", "--dot", "-"], outputs["certified"])
    assert code == 0
    digests = {k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in outputs.items()}
    assert digests == GOLDEN_SHA256




def test_pipeline_witness_report_passes():
    doc = seed("empty")
    code, doc2, _ = invoke(["complete", "--levels", "4"], doc)
    assert code == 0
    code, out, _ = invoke(["check", "--witness-report"], doc2)
    assert code == 0, out


def test_pipeline_quine_fails_foundation():
    doc = seed("quine", "1")
    code, out, _ = invoke(["check", "--axiom", "foundation_minimal"], doc)
    assert code == 1
    assert "fails" in out  # counterexample goes to stdout


def test_pipeline_tower_hits_budget():
    doc = seed("vN", "3")
    code, _, err = invoke(["complete", "--levels", "3", "--budget", "1000000"], doc)
    assert code == 2
    assert "budget exceeded" in err


def test_tower_refusal_names_the_refused_step():
    """The request is priced up front, with the message of the step
    that would exceed the budget: the third, on 65,536 nodes."""
    doc = seed("vN", "3")
    for argv in (["complete"], ["oracle-compare"]):
        code, out, err = invoke(argv + ["--levels", "3", "--budget", "1000000"], doc)
        assert (code, out) == (2, "")
        assert err == (
            "budget exceeded: deficiency of a 65536-node graph needs 2**65536 subset "
            "enumerations, over the budget of 1000000\n"
        )


def test_non_extensional_seed_over_budget_exits_3():
    """Extensionality is checked before the request is priced."""
    doc = serialize(AnnotatedGraph(ExtensionalDigraph.from_extensions({"a": (), "b": ()})))
    code, out, err = invoke(["complete", "--levels", "30", "--budget", "1"], doc)
    assert (code, out) == (3, "")
    assert err == "nodes 'a' and 'b' have equal extensions\n"


def test_generated_id_taken_by_another_node_exits_3():
    """A quine atom named like the empty set, which completion adds."""
    empty = "set:b8e1dda3ac0aa3820ad2990b"
    doc = serialize(AnnotatedGraph(ExtensionalDigraph.from_extensions({empty: {empty}})))
    assert invoke(["complete", "--levels", "1"], doc) == (
        3,
        "",
        f"generated id {empty!r} collides with an existing node of different extension\n",
    )


def test_budget_env_variable(monkeypatch):
    monkeypatch.setenv("SETFORGE_BUDGET", "1000000")
    doc = seed("vN", "3")
    code, _, err = invoke(["complete", "--levels", "3"], doc)
    assert code == 2
    for raw in ("not-a-number", "0", "-5"):
        monkeypatch.setenv("SETFORGE_BUDGET", raw)
        assert invoke(["complete", "--levels", "1"], doc) == (
            3,
            "",
            f"SETFORGE_BUDGET must be a positive integer, got {raw!r}\n",
        )


# -- check variants ----------------------------------------------------------


def test_axiom_porcelain_fields():
    doc = seed("quine", "1")
    node = json.loads(doc)["nodes"][0]["id"]
    code, out, _ = invoke(
        ["check", "--axiom", "foundation_minimal", "--porcelain"], doc
    )
    assert code == 1
    assert out == f"axiom\tfoundation_minimal\tfail\t{node}\n"


def test_axiom_pass_exit_zero():
    doc = seed("vN", "3")
    code, out, _ = invoke(["check", "--axiom", "extensionality"], doc)
    assert code == 0
    assert "holds" in out


def test_witness_report_porcelain_shape():
    doc = seed("empty")
    _, doc2, _ = invoke(["complete", "--levels", "3"], doc)
    code, out, _ = invoke(["check", "--witness-report", "--porcelain"], doc2)
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        fields = line.split("\t")
        assert fields[0] == "witness"
        assert fields[1].isdigit()
        assert fields[3] in {"pass", "fail"}
        assert len(fields) == 5


def test_witness_report_failures_in_prose_and_porcelain():
    """A record whose levels never grow: the union of x = {o, t} is the
    missing set {e, o}, and the set of x's subset representatives is
    missing too. Each clause reports its last counterexample, the same
    in prose and in porcelain."""
    g = ExtensionalDigraph.from_extensions({"e": set(), "o": {"e"}, "t": {"o"}, "x": {"o", "t"}})
    doc = serialize(AnnotatedGraph(g, levels=[g.nodes] * 3))
    failures = [
        ("0", "pairing", "pair {x, x} missing at level 1"),
        ("0", "union", "union of x missing at level 1"),
        ("0", "subsets", "subset {t} of x missing at level 1"),
        ("0", "power_set", "power set of x missing at level 2"),
        ("1", "pairing", "pair {x, x} missing at level 2"),
        ("1", "union", "union of x missing at level 2"),
        ("1", "subsets", "subset {t} of x missing at level 2"),
    ]
    code, prose, _ = invoke(["check", "--witness-report"], doc)
    assert (code, prose.splitlines()) == (1, [f"level {n} {c}: FAIL ({d})" for n, c, d in failures])
    code, porcelain, _ = invoke(["check", "--witness-report", "--porcelain"], doc)
    records = [f"witness\t{n}\t{c}\tfail\t{d}" for n, c, d in failures]
    assert (code, porcelain.splitlines()) == (1, records)


def test_witness_report_needs_levels():
    doc = seed("vN", "2")
    assert invoke(["check", "--witness-report"], doc) == (
        3,
        "",
        "levels: document has no levels block\n",
    )


def test_witness_report_on_two_levels_is_bad_data():
    _, doc, _ = invoke(["complete", "--levels", "1"], seed("vN", "2"))
    assert len(json.loads(doc)["levels"]) == 2
    code, out, err = invoke(["check", "--witness-report", "--porcelain"], doc)
    assert (code, out) == (3, "")
    assert err == "levels: witness report needs at least 3 levels\n"


@pytest.mark.parametrize(
    "atoms, levels, checks",
    [(31, "one node", 4195484), (10, "completion", 1167698)],
    ids=["31-members", "1024-node-levels"],
)
def test_witness_report_over_budget_exits_2_before_enumerating(atoms, levels, checks):
    """A node of 31 members, or the 1,024-node completion of ten atoms,
    with three levels that all hold every node: priced before any pair
    or subset is enumerated.  The completion's nodes are relabelled as
    seeds, since a deficiency stamp must be the first level that holds
    its node."""
    g = quine_atoms([f"a{i}" for i in range(atoms)])
    if levels == "one node":
        g = ExtensionalDigraph.from_extensions({**g.extensions, "big": g.nodes}, g.provenance)
    else:
        g = ExtensionalDigraph.from_extensions(complete(g, 1).graph.extensions)
    doc = serialize(AnnotatedGraph(g, levels=[g.nodes] * 3))
    start = time.perf_counter()
    assert invoke(["check", "--witness-report"], doc) == (
        2,
        "",
        f"budget exceeded: witness report needs at least {checks} pair and subset checks, "
        "over the budget of 1048576\n",
    )
    assert time.perf_counter() - start < 1


def test_dred_conditions_pass(chain_spec_file):
    doc = seed("spec", chain_spec_file)
    code, out, _ = invoke(["check", "--dred-conditions"], doc)
    assert code == 0
    assert "hold" in out
    code, out, _ = invoke(["check", "--dred-conditions", "--porcelain"], doc)
    assert out == "dred\tok\t\n"


def test_dred_conditions_reject_a_unicode_digit_rank_key(chain_spec_file):
    doc = json.loads(seed("spec", chain_spec_file))
    doc["ranks"] = {"\u00b2" if key == "1" else key: ranks for key, ranks in doc["ranks"].items()}
    code, out, err = invoke(["check", "--dred-conditions"], json.dumps(doc))
    assert (code, out) == (3, "")
    assert err == "ranks.\u00b2: rank family keys must be positive integers\n"


def test_rank_key_past_the_int_digit_limit_is_a_schema_error():
    key = "1" * 5000
    doc = {"format_version": 1, "nodes": [], "edges": [], "depth": {}, "ranks": {key: {}}}
    code, out, err = invoke(["check", "--axiom", "extensionality"], json.dumps(doc))
    assert (code, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"ranks.{key}: rank family keys have at most {limit} digits\n"


def test_integer_literal_past_the_digit_limit_is_a_schema_error():
    """``json.loads`` refuses such a literal with a plain ValueError."""
    text = (
        '{"depth":{"a":' + "1" * 5000 + '},"edges":[],"format_version":1,'
        '"nodes":[{"id":"a","provenance":{"kind":"seed","label":"a"}}]}'
    )
    code, out, err = invoke(["check", "--axiom", "extensionality"], text)
    assert (code, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"$: invalid JSON: integers have at most {limit} digits\n"


def test_seed_spec_integer_literal_past_the_digit_limit_exit_3(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"naturals_up_to": ' + "1" * 5000 + "}")
    code, out, err = invoke(["seed", "spec", str(path)])
    assert (code, out) == (3, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"invalid JSON in {path}: integers have at most {limit} digits\n"


@pytest.mark.parametrize("component", ["4", "1" * 5000], ids=["just-past", "5000-digits"])
def test_seed_spec_numeral_component_past_the_numerals_exit_3(tmp_path, component):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"naturals_up_to": 4, "tuples": [{"tag": 0, "components": [component]}]}))
    code, out, err = invoke(["seed", "spec", str(path)])
    assert (code, out) == (3, "")
    assert err == f"component numeral {component} not embedded (naturals_up_to=4)\n"


def test_dred_conditions_report_subset_depth(chain_spec_file):
    code, text, _ = invoke(["complete", "--levels", "1", "--dred"], seed("spec", chain_spec_file))
    assert code == 0
    doc = json.loads(text)
    extensions = {n["id"]: set() for n in doc["nodes"]}
    for member, container in doc["edges"]:
        extensions[container].add(member)
    depth, top = doc["depth"], max(doc["depth"].values())
    # a node added by the last step is a member of nothing, so raising
    # its depth to the top breaks no edge, only condition 3 against the
    # shallow nodes whose extensions include its own; the rank maps that
    # no longer cover it drop it
    x = min(set(doc["levels"][-1]) - set(doc["levels"][-2]), key=lambda v: (depth[v], v))
    depth[x] = top
    for i, r in doc["ranks"].items():
        if int(i) <= top:
            del r[x]
    expected = [
        f"dred\tsubset_depth\text({x!r}) <= ext({y!r}) but depth {top} > {depth[y]} + 1"
        for y in sorted(extensions)
        if extensions[x] <= extensions[y] and depth[y] + 1 < top
    ]
    assert len(expected) > 1
    code, out, _ = invoke(["check", "--dred-conditions", "--porcelain"], json.dumps(doc))
    assert code == 1
    assert out.splitlines() == expected


def broken_rank_document(chain_spec_file):
    """The chain spec's seed with the head of its chain atom ranked 0,
    below its one member, in every rank family that holds it."""
    doc = json.loads(seed("spec", chain_spec_file))
    for family in doc["ranks"].values():
        if "chain:a:0" in family:
            family["chain:a:0"] = 0
    return json.dumps(doc)


def test_dred_conditions_fail_in_prose_and_porcelain(chain_spec_file):
    doc = broken_rank_document(chain_spec_file)
    expected = [
        f"rank_increase: r_{i}('chain:a:1') = 2 not below r_{i}('chain:a:0') = 0 along edge"
        for i in (3, 4, 5)
    ]
    code, prose, _ = invoke(["check", "--dred-conditions"], doc)
    assert (code, prose.splitlines()) == (1, expected)
    code, porcelain, _ = invoke(["check", "--dred-conditions", "--porcelain"], doc)
    assert (code, porcelain.splitlines()) == (1, ["dred\t" + line.replace(": ", "\t", 1) for line in expected])


@pytest.mark.parametrize(
    "argv",
    [["check", "--dred-conditions"], ["complete", "--levels", "1", "--dred"]],
    ids=["check", "complete"],
)
def test_a_lower_rank_family_that_disagrees_is_refused_when_read(chain_spec_file, argv):
    """The chain spec's seed with the head of its chain atom ranked 0 in
    family 3 alone: its families are not one rank map restricted, so the
    reader refuses them (exit 3) before any condition is checked."""
    doc = json.loads(seed("spec", chain_spec_file))
    doc["ranks"]["3"]["chain:a:0"] = 0
    assert invoke(argv, json.dumps(doc)) == (
        3,
        "",
        "ranks.3: family 3 is not family 5 restricted to depth < 3 ('chain:a:0' is off)\n",
    )


def test_dred_completion_of_a_failing_certificate_exits_1(chain_spec_file):
    """The input certificate is checked before the first step; its first
    violation goes to stdout, as a failed property's report does."""
    assert invoke(["complete", "--dred", "--levels", "1"], broken_rank_document(chain_spec_file)) == (
        1,
        "depth/rank conditions fail: dred condition violated (rank_increase): "
        "r_3('chain:a:1') = 2 not below r_3('chain:a:0') = 0 along edge\n",
        "",
    )


def test_dred_completion_prices_the_request_before_it_checks_the_certificate(chain_spec_file):
    """As ``complete`` does: an over-budget request on a failing
    certificate exits 2, and a non-extensional certified seed exits 3
    with the extensionality error, before the conditions are checked."""
    broken = broken_rank_document(chain_spec_file)
    code, out, err = invoke(["complete", "--dred", "--levels", "2", "--budget", "1000"], broken)
    assert (code, out) == (2, "") and err.startswith("budget exceeded: deficiency of a ")
    twins = AnnotatedGraph(
        ExtensionalDigraph.from_extensions({"a": (), "b": ()}),
        depth={"a": 0, "b": 0},
        rank={"a": 0, "b": 0},
        top=1,
    )
    expected = (3, "", "nodes 'a' and 'b' have equal extensions\n")
    assert invoke(["complete", "--dred", "--levels", "1"], serialize(twins)) == expected


def test_dred_conditions_need_annotations():
    assert invoke(["check", "--dred-conditions"], seed("vN", "2")) == (
        3,
        "",
        "depth: document has no depth block\n",
    )


def test_dred_completion_pipeline(chain_spec_file):
    doc = seed("spec", chain_spec_file)
    code, doc2, _ = invoke(["complete", "--levels", "1", "--dred"], doc)
    assert code == 0
    code, out, _ = invoke(["check", "--dred-conditions"], doc2)
    assert code == 0, out
    assert "levels" in json.loads(doc2)


def test_dred_completion_needs_annotations():
    assert invoke(["complete", "--levels", "1", "--dred"], seed("vN", "2")) == (
        3,
        "",
        "depth: document has no depth block\n",
    )


@pytest.mark.parametrize(
    "argv",
    [["check", "--dred-conditions"], ["complete", "--levels", "1", "--dred"]],
    ids=["check", "complete"],
)
def test_dred_commands_need_ranks(chain_spec_file, argv):
    payload = json.loads(seed("spec", chain_spec_file))
    del payload["ranks"]
    assert invoke(argv, json.dumps(payload)) == (3, "", "ranks: document has no ranks block\n")


# -- formula commands --------------------------------------------------------


def test_eval_true_and_false():
    doc = seed("vN", "2")
    code, out, _ = invoke(["eval", "--formula", "exists x. all y. !(y in x)"], doc)
    assert (code, out) == (0, "true\n")
    code, out, _ = invoke(["eval", "--formula", "all x. x in x"], doc)
    assert (code, out) == (1, "false\n")


def test_eval_porcelain():
    doc = seed("vN", "2")
    code, out, _ = invoke(["eval", "--formula", "x = x", "--bind", "x=vN:0", "--porcelain"], doc)
    # binding uses whatever id the document carries; recover it first
    if code != 0:
        node = json.loads(doc)["nodes"][0]["id"]
        code, out, _ = invoke(
            ["eval", "--formula", "x = x", "--bind", f"x={node}", "--porcelain"], doc
        )
    assert code == 0
    assert out == "eval\ttrue\n"


def test_eval_binding_syntax():
    doc = seed("quine", "1")
    code, _, _ = invoke(["eval", "--formula", "x = x", "--bind", "x"], doc)
    assert code == 3  # malformed binding is a data error, like a bad spec file


def test_eval_unbound_variable_is_data_error():
    doc = seed("quine", "1")
    code, _, _ = invoke(["eval", "--formula", "x in y", "--bind", "x=zz"], doc)
    assert code == 3


def test_eval_parse_error():
    doc = seed("quine", "1")
    code, _, err = invoke(["eval", "--formula", "x in"], doc)
    assert code == 3
    assert "parse error" in err


def test_formulas_past_the_nesting_cap_exit_3():
    doc = seed("vN", "2")
    probes = [
        ["eval", "--formula", "!" * 5000 + "x = x"],
        ["eval", "--formula", "(" * 3000 + "x = x" + ")" * 3000],
        ["eval", "--formula", "exists y. " * 3000 + "y = y"],
        ["eval", "--formula", " -> ".join(["x = x"] * 5001)],
        ["define", "--formula", " & ".join(["x = x"] * 5000)],
        ["define", "--formula", " | ".join(["x = x"] * 5000)],
    ]
    for argv in probes:
        code, out, err = invoke(argv, doc)
        assert (code, out) == (3, ""), argv[:2]
        assert err.startswith("parse error at offset ")
        assert f"formula nests deeper than {MAX_FORMULA_DEPTH} levels" in err
        assert "Traceback" not in err


def test_formulas_at_the_nesting_cap_evaluate():
    doc = seed("vN", "2")
    node_ids = sorted(n["id"] for n in json.loads(doc)["nodes"])
    depth = MAX_FORMULA_DEPTH
    grouped = "(" * (depth - 1) + "x = x" + ")" * (depth - 1)
    code, out, _ = invoke(["define", "--formula", grouped], doc)
    assert (code, out.splitlines()) == (0, node_ids)
    code, out, _ = invoke(["define", "--formula", " & ".join(["x = x"] * depth)], doc)
    assert (code, out.splitlines()) == (0, node_ids)
    code, out, _ = invoke(["eval", "--formula", "exists y. " * (depth - 1) + "y = y"], doc)
    assert (code, out) == (0, "true\n")


def test_define_lists_class():
    doc = seed("quine", "2")
    node_ids = sorted(n["id"] for n in json.loads(doc)["nodes"])
    code, out, err = invoke(["define", "--formula", "x in x"], doc)
    assert code == 0
    assert out.splitlines() == node_ids
    assert "2 nodes" in err


def test_define_porcelain():
    doc = seed("quine", "1")
    node = json.loads(doc)["nodes"][0]["id"]
    code, out, _ = invoke(["define", "--formula", "x in x", "--porcelain"], doc)
    assert out == f"define\t{node}\n"


def test_formula_reference_lookup(chain_spec_file):
    doc = seed("spec", chain_spec_file)
    code, out, _ = invoke(["define", "--formula", "@selfmember"], doc)
    assert code == 0
    assert out == ""  # chain-style graphs are loop-free
    code, _, err = invoke(["define", "--formula", "@missing"], doc)
    assert code == 3
    assert "missing" in err


# -- oracle comparison -------------------------------------------------------


def test_oracle_compare_agrees():
    doc = seed("quine", "1")
    code, out, _ = invoke(["oracle-compare", "--levels", "2"], doc)
    assert code == 0
    assert out == "isomorphic\n"


def test_oracle_compare_porcelain():
    doc = seed("empty")
    code, out, _ = invoke(["oracle-compare", "--levels", "3", "--porcelain"], doc)
    assert code == 0
    assert out == "oracle\tisomorphic\tisomorphic\n"


def swapping_seed(prefix: str) -> ExtensionalDigraph:
    """Masks [1, 2, 5, 9]: nodes 2 and 3 swap, so a completion has a
    real automorphism."""
    names = [f"{prefix}{i}" for i in range(4)]
    return ExtensionalDigraph.from_extensions(
        {x: {names[j] for j in range(4) if mask >> j & 1} for x, mask in zip(names, [1, 2, 5, 9])}
    )


def test_oracle_compare_settles_a_symmetric_seed_from_the_seed_map(monkeypatch):
    """The completion and its oracle completion share the seed's ids, so
    oracle-compare answers without the search, even with its cap at 1."""
    monkeypatch.setattr(graph, "_SEARCH_STATE_LIMIT", 1)
    doc = serialize(AnnotatedGraph(swapping_seed("q")))
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    assert invoke(argv, doc) == (0, "oracle\tisomorphic\tisomorphic\n", "")


@pytest.fixture
def completions(monkeypatch):
    """What the command line builds toward a comparison, by name, in
    call order: the reference's stage values and the kernel's
    completion."""
    calls = []
    for name in ("oracle_stages", "complete"):

        def recording(*args, name=name, original=getattr(cli, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cli, name, recording)
    return calls


def test_oracle_compare_builds_the_reference_before_the_kernel(completions):
    """The reference's stage values are built before the kernel runs,
    so that their errors come first, and the kernel's nodes are matched
    to them."""
    doc = serialize(AnnotatedGraph(swapping_seed("q")))
    assert invoke(["oracle-compare", "--levels", "2"], doc) == (0, "isomorphic\n", "")
    assert completions == ["oracle_stages", "complete"]


def sabotaged_completions(seed, levels):
    """Completions of ``seed`` with one fault each: a node dropped, and
    an edge moved off a node onto the empty set's node."""
    g = complete(seed, levels).graph
    ext, prov = dict(g.extensions), dict(g.provenance)
    empty = next(x for x, members in ext.items() if not members)
    dropped = max(g.nodes, key=lambda x: (len(ext[x]), x))
    kept = {x: members - {dropped} for x, members in ext.items() if x != dropped}
    moved_from = max(x for x in g.nodes if ext[x] and empty not in ext[x])
    member = min(ext[moved_from])
    moved = {**ext, moved_from: ext[moved_from] - {member} | {empty}}
    return [
        ExtensionalDigraph(kept, {x: prov[x] for x in kept}),
        ExtensionalDigraph(moved, prov),
    ]


def moved_node(seed, levels: int, bad: ExtensionalDigraph) -> str:
    """The node whose extension ``bad`` changed in the completion."""
    good = complete(seed, levels).graph
    [moved] = [x for x in bad.nodes if bad.extensions[x] != good.extensions[x]]
    return moved


@pytest.mark.parametrize("fault", [0, 1], ids=["node-dropped", "edge-moved"])
def test_oracle_compare_explains_a_sabotaged_kernel(monkeypatch, completions, fault):
    """A kernel result that does not match the stage values exits 1 with
    the level walk's detail: the level whose node count is one short,
    or the moved node, whose new extension no stage subset spells."""
    seed_graph = swapping_seed("q")
    bad = sabotaged_completions(seed_graph, 1)[fault]
    if fault:
        expected = f"level 1: nothing maps onto {moved_node(seed_graph, 1, bad)!r}"
    else:
        expected = "level 1 has 11 nodes, not 12"
    original = cli.complete

    def sabotaged(*args):
        original(*args)
        return AnnotatedGraph(bad)

    monkeypatch.setattr(cli, "complete", sabotaged)
    doc = serialize(AnnotatedGraph(seed_graph))
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    assert invoke(argv, doc) == (1, f"oracle\tmismatch\t{expected}\n", "")
    assert completions == ["oracle_stages", "complete"]


def never_compared(monkeypatch) -> None:
    """``compare`` and ``is_isomorphic`` raise wherever the command line
    could reach them, so that only the level walk can decide."""

    def unreachable(*args):
        raise AssertionError("the level walk did not decide")

    for module in (cli, oracle, graph):
        for name in ("compare", "is_isomorphic"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, unreachable)


def completions_to_complete_further() -> list[AnnotatedGraph]:
    """Inputs that are already completions: ``von_neumann_seed(2)`` and
    two quine atoms completed 1 level (4 nodes each), and a chain-style
    seed with one 1-link chain atom certified-completed 1 level (8)."""
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", 1),), naturals_up_to=2, code_style="chain", code_length=1
    )
    return [
        complete(von_neumann_seed(2), 1),
        complete(quine_atoms(["q0", "q1"]), 1),
        dred_complete(assemble(spec).dred, 1),
    ]


@pytest.mark.parametrize("which", [0, 1, 2], ids=["von-neumann", "quine-atoms", "chain-style"])
def test_oracle_compare_on_an_input_that_is_already_a_completion(monkeypatch, completions, which):
    """The kernel continues the input's levels, or without a ``levels``
    block the levels its stamps give, and the reference numbers its
    stages on from the same top level, so the input's deficiency nodes
    and the nodes added to them never share a level: the input's nodes
    are kept as they are, the stages are walked, and neither ``compare``
    nor a search is called."""
    never_compared(monkeypatch)
    u = completions_to_complete_further()[which]
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    for doc in (serialize(u), serialize(AnnotatedGraph(u.graph))):
        assert invoke(argv, doc) == (0, "oracle\tisomorphic\tisomorphic\n", "")
    assert completions == ["oracle_stages", "complete"] * 2


def test_oracle_compare_explains_a_sabotaged_kernel_on_a_completion(monkeypatch):
    """On an input that is already a completion, a kernel result with a
    node dropped gives exit 1 and the level walk's detail: the stage,
    numbered on from the input's levels, is one node short."""
    u = completions_to_complete_further()[0]
    bad = sabotaged_completions(u, 1)[0]
    expected = "level 2 has 11 nodes, not 12"
    original = cli.complete

    def sabotaged(*args):
        original(*args)
        return AnnotatedGraph(bad)

    monkeypatch.setattr(cli, "complete", sabotaged)
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    assert invoke(argv, serialize(u)) == (1, f"oracle\tmismatch\t{expected}\n", "")


@pytest.mark.parametrize("kept", [True, False], ids=["levels", "stamps-only"])
def test_oracle_compare_keeps_an_input_level_that_holds_its_own_nodes(
    monkeypatch, completions, kept
):
    """A record e, d1 = {e}, d2 = {d1}, with d1 and d2 both stamped 1,
    with its ``levels`` block or without: d2's member d1 is a node of
    d2's own level, which a walk of the input's levels would not have
    named yet.  The input's nodes are kept as they are instead, and the
    stage alone is walked, which decides."""
    never_compared(monkeypatch)
    g = ExtensionalDigraph(
        {"e": frozenset(), "d1": frozenset({"e"}), "d2": frozenset({"d1"})},
        {"e": Seed("e"), "d1": Deficiency(1), "d2": Deficiency(1)},
    )
    doc = serialize(AnnotatedGraph(g, (frozenset({"e"}), g.nodes) if kept else None))
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    assert invoke(argv, doc) == (0, "oracle\tisomorphic\tisomorphic\n", "")
    assert completions == ["oracle_stages", "complete"]


def test_oracle_compare_names_a_seed_node_whose_label_the_kernel_changed(monkeypatch):
    """A kernel result that is the completion with seed atom q0's label
    changed is isomorphic to the reference, since isomorphism ignores
    labels, but the input's nodes are kept with their provenance: exit
    1, naming q0."""
    seed_graph = quine_atoms(["q0", "q1"])
    good = complete(seed_graph, 1).graph
    q0 = "atom:q0"
    assert seed_graph.provenance[q0] == Code("atom", "q0")
    bad = ExtensionalDigraph(good.extensions, {**good.provenance, q0: Code("atom", "relabelled")})
    monkeypatch.setattr(cli, "complete", lambda *args: AnnotatedGraph(bad))
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    detail = f"{q0!r} differs from the input below level 1"
    doc = serialize(AnnotatedGraph(seed_graph))
    assert invoke(argv, doc) == (1, f"oracle\tmismatch\t{detail}\n", "")


def test_oracle_compare_names_both_nodes_that_share_an_extension(monkeypatch):
    """On the compare workload's 4-node shape at 2 levels, the moved
    edge of ``sabotaged_completions`` gives the moved level-2 node the
    extension of another: the level's table has one entry fewer than
    the level, every node is spelled, and the detail names both."""
    seed_graph = ExtensionalDigraph.from_extensions(
        {"d0": set(), "d1": {"d1"}, "d2": {"d0"}, "d3": {"d0", "d1"}}
    )
    bad = sabotaged_completions(seed_graph, 2)[1]
    moved = moved_node(seed_graph, 2, bad)
    [twin] = [x for x in bad.nodes - {moved} if bad.extensions[x] == bad.extensions[moved]]
    monkeypatch.setattr(cli, "complete", lambda *args: AnnotatedGraph(bad))
    first, second = sorted([moved, twin])
    detail = f"level 2: {first!r} and {second!r} share an extension"
    argv = ["oracle-compare", "--levels", "2", "--porcelain"]
    doc = serialize(AnnotatedGraph(seed_graph))
    assert invoke(argv, doc) == (1, f"oracle\tmismatch\t{detail}\n", "")


# Certified 3-node seeds, which two completion steps take to 256 nodes;
# the second has a formula for each completion to keep.
SMALL_SPECS = [
    {
        "atoms": [{"label": "a", "kind": "chain", "length": 1}],
        "naturals_up_to": 2,
        "code_style": "chain",
        "code_length": 1,
    },
    {
        "naturals_up_to": 3,
        "code_style": "chain",
        "code_length": 1,
        "formulas": {"empty": "all y. !(y in x)"},
    },
]


@pytest.mark.parametrize("kept", [True, False], ids=["levels", "stamps-only"])
@pytest.mark.parametrize("split", [(0, 2), (1, 1), (2, 0), (1, 0, 1)], ids=str)
def test_completing_in_parts_writes_the_bytes_of_one_completion(tmp_path, split, kept):
    """``complete a | complete b`` writes byte for byte what ``complete
    a+b`` writes, plain on seeds and certified on ``seed spec`` seeds,
    and the witness report reads it: a completion continues its input's
    levels, so every stamp is its level's index.  The same holds where
    each part's ``levels`` block is dropped before the next part: a
    document without one continues the levels its stamps give."""
    specs = []
    for i, spec in enumerate(SMALL_SPECS):
        path = tmp_path / f"spec{i}.json"
        path.write_text(json.dumps(spec))
        specs.append(seed("spec", str(path)))
    runs = [([], text) for text in (seed("empty"), seed("vN", "2"), seed("quine", "2"))]
    runs += [(["--dred"], text) for text in specs]
    for flag, text in runs:
        whole = invoke(["complete", *flag, "--levels", str(sum(split))], text)
        parts = text
        for levels in split:
            if not kept:
                parts = json.dumps({k: v for k, v in json.loads(parts).items() if k != "levels"})
            code, parts, err = invoke(["complete", *flag, "--levels", str(levels)], parts)
            assert (code, err) == (0, "")
        assert whole == (0, parts, "")
        assert invoke(["check", "--witness-report", "--porcelain"], parts)[0] == 0
        if flag:
            report = invoke(["check", "--dred-conditions", "--porcelain"], parts)
            assert report == (0, "dred\tok\t\n", "")


def test_oracle_compare_reports_an_id_clash_before_the_kernel(completions):
    """The seed node "hf:{{}}" takes the id that ``oracle_complete``
    gives the stage-1 value {{}}, and raises on.  ``oracle-compare``
    names no node "hf:", so it has no clash to report: the kernel runs,
    and the walk matches its nodes."""
    g = ExtensionalDigraph.from_extensions({"e": (), "hf:{{}}": {"hf:{{}}"}})
    doc = serialize(AnnotatedGraph(g))
    assert invoke(["oracle-compare", "--levels", "1"], doc) == (0, "isomorphic\n", "")
    assert completions == ["oracle_stages", "complete"]


@pytest.mark.parametrize(
    "ids, expected",
    [
        (["hf:{{{}}}", "hf:{{{}},{}}"], "hf:{{{}},{}}"),
        (["hf:{{{{}}}}", "hf:{{{{}},{}}}"], "hf:{{{{}},{}}}"),
    ],
    ids=["stage-1", "last-stage"],
)
def test_oracle_compare_reports_the_smallest_id_clash_at_either_stage(completions, ids, expected):
    """Over the seed {}, {{}} and two self-looped nodes, each pair of
    ids spells two keys of one stage of a 2-level request: the first
    stage, whose subsets become values for the second, and the last,
    whose subsets stay positions.  ``oracle_complete`` names the
    smallest in its clash; ``oracle-compare`` names no node "hf:", and
    matches the kernel's nodes."""
    g = ExtensionalDigraph.from_extensions({"e": (), "f": {"e"}, **{x: {x} for x in ids}})
    doc = serialize(AnnotatedGraph(g))
    with pytest.raises(SetforgeError, match=re.escape(f"generated id {expected!r} collides")):
        oracle_complete(g, 2)
    assert invoke(["oracle-compare", "--levels", "2"], doc) == (0, "isomorphic\n", "")
    assert completions == ["oracle_stages", "complete"]


def test_oracle_compare_makes_values_only_of_a_stage_drawn_from(monkeypatch):
    """The last stage's subsets stay positions: over eight atoms no
    collection is built at all, and over von Neumann stage 2 only its
    two decoration values and the two subsets of stage 1, which stage 2
    draws from.  A kernel result that does not match is named from the
    same values, and no more are built."""
    collections_built = []

    def counting(self, original=oracle.Collection.__post_init__):
        collections_built.append(self)
        original(self)

    monkeypatch.setattr(oracle.Collection, "__post_init__", counting)
    doc = serialize(AnnotatedGraph(quine_atoms([f"q{i}" for i in range(8)])))
    assert invoke(["oracle-compare", "--levels", "1"], doc) == (0, "isomorphic\n", "")
    assert collections_built == []
    seed_graph = setforge.von_neumann_seed(2)
    doc = serialize(AnnotatedGraph(seed_graph))
    built = ["{{{}},{}}", "{{{}}}", "{{}}", "{}"]
    assert invoke(["oracle-compare", "--levels", "2"], doc) == (0, "isomorphic\n", "")
    assert sorted(v.key for v in collections_built) == built

    bad = sabotaged_completions(seed_graph, 2)[0]
    monkeypatch.setattr(cli, "complete", lambda *args: AnnotatedGraph(bad))
    collections_built.clear()
    expected = (1, "level 2 has 11 nodes, not 12\n", "")
    assert invoke(["oracle-compare", "--levels", "2"], doc) == expected
    assert sorted(v.key for v in collections_built) == built


def test_oracle_compare_matches_labels_with_key_syntax_by_key(completions):
    """Ids holding key syntax are escaped in keys, so {a, b),atom(c}
    and {a),atom(b, c} keep keys of their own and the kernel's nodes
    are matched to the stage subsets, without the reference graph."""
    g = ExtensionalDigraph.from_extensions({x: {x} for x in ["a", "c", "a),atom(b", "b),atom(c"]})
    doc = serialize(AnnotatedGraph(g))
    assert invoke(["oracle-compare", "--levels", "1"], doc) == (0, "isomorphic\n", "")
    assert completions == ["oracle_stages", "complete"]


def test_oracle_compare_keeps_sets_apart_whose_labels_hold_key_syntax():
    """The sets c and d of ``key_syntax_seed`` keep keys of their own."""
    doc = serialize(AnnotatedGraph(key_syntax_seed()))
    assert invoke(["oracle-compare", "--levels", "1"], doc) == (0, "isomorphic\n", "")


def test_oracle_compare_refuses_a_pair_over_the_node_limit(monkeypatch, completions):
    """The growth law's node count is held to the limit before either
    completion is built; the seed map would otherwise answer on this
    pair."""
    monkeypatch.setattr(graph, "ISO_NODE_LIMIT", 8)
    doc = serialize(AnnotatedGraph(swapping_seed("q")))
    argv = ["oracle-compare", "--levels", "1", "--porcelain"]
    expected = "size limit: isomorphism search limited to 8 nodes, got 16 and 16\n"
    assert invoke(argv, doc) == (2, "", expected)
    assert completions == []


@pytest.mark.parametrize(
    "extensions, levels, budget, code",
    [
        ({"a": (), "b": {"a"}}, "3", "1000", 2),
        ({"a": (), "b": {"a"}}, "-1", "1000", 4),
        ({"a": (), "b": ()}, "30", "1", 3),
    ],
    ids=["over-budget", "negative-levels", "non-extensional"],
)
def test_oracle_compare_refuses_what_complete_refuses_before_building(
    completions, extensions, levels, budget, code
):
    """oracle-compare prices the request as ``complete`` does, with
    the same exit code and message, and builds neither completion."""
    doc = serialize(AnnotatedGraph(ExtensionalDigraph.from_extensions(extensions)))
    argv = ["--levels", levels, "--budget", budget]
    expected = invoke(["complete", *argv], doc)
    assert expected[0] == code and expected[2]
    completions.clear()
    assert invoke(["oracle-compare", *argv], doc) == expected
    assert completions == []


def test_oracle_compare_refuses_a_non_decorable_seed_over_the_limit_by_size(
    monkeypatch, completions
):
    """Over the node limit, the 2-cycle a in b, b in a is refused by its
    size (exit 2) before the reference would fail to decorate it; within
    the limit, decoration still fails (exit 3)."""
    monkeypatch.setattr(graph, "ISO_NODE_LIMIT", 2)
    doc = serialize(AnnotatedGraph(ExtensionalDigraph.from_extensions({"a": {"b"}, "b": {"a"}})))
    expected = "size limit: isomorphism search limited to 2 nodes, got 4 and 4\n"
    assert invoke(["oracle-compare", "--levels", "1"], doc) == (2, "", expected)
    assert completions == []
    code, out, err = invoke(["oracle-compare", "--levels", "0"], doc)
    assert (code, out) == (3, "") and "is not a self-loop" in err
    assert completions == ["oracle_stages"]


def test_diff_past_the_search_state_cap_exits_2(monkeypatch, tmp_path):
    """Completions of the swapping seed under two namings: no seed map
    applies, and the automorphism leaves colours tied, so the
    isomorphism test has to search."""
    argv = ["diff", "--porcelain"]
    for p in "qr":
        doc = serialize(AnnotatedGraph(complete(swapping_seed(p), 1).graph))
        argv.append(write_doc(tmp_path / f"{p}.json", doc))
    assert invoke(argv) == (0, "diff\tisomorphic\tdocuments differ, graphs are isomorphic\n", "")
    monkeypatch.setattr(graph, "_SEARCH_STATE_LIMIT", 1)
    assert invoke(argv) == (2, "", "size limit: isomorphism search exceeded its state cap\n")


def test_oracle_compare_on_a_long_chain_never_refines(monkeypatch):
    """A chain atom is well-founded, so condensation colours settle the
    comparison without a refinement round (which once cost about one
    round per two links)."""
    spec = CodeSpec(
        atoms=(AtomDecl("long", "chain", 1500),),
        naturals_up_to=2,
        code_style="chain",
        code_length=1,
    )
    doc = serialize(AnnotatedGraph(assemble(spec).graph))

    def refine(*args):
        raise AssertionError("a well-founded graph reached colour refinement")

    monkeypatch.setattr(graph, "_refine", refine)
    code, out, _ = invoke(["oracle-compare", "--levels", "0", "--porcelain"], doc)
    assert (code, out) == (0, "oracle\tisomorphic\tisomorphic\n")


# -- export ------------------------------------------------------------------


def test_export_dot_stdout():
    doc = seed("quine", "1")
    node = json.loads(doc)["nodes"][0]["id"]
    code, out, _ = invoke(["export", "--dot", "-"], doc)
    assert code == 0
    name, nodes, edges = parse_dot(out)
    assert node in nodes
    assert (node, node) in edges


def test_export_dot_labels_deficiency_nodes_by_level_and_size():
    _, doc, _ = invoke(["complete", "--levels", "1"], seed("vN", "2"))
    code, out, _ = invoke(["export", "--dot", "-"], doc)
    assert code == 0
    _, nodes, _ = parse_dot(out)
    labels = sorted(
        nodes[n["id"]].split(",")[0]
        for n in json.loads(doc)["nodes"]
        if n["provenance"]["kind"] == "deficiency"
    )
    assert labels == ['label="D1#1"', 'label="D1#2"']


def test_export_dot_file(tmp_path, chain_spec_file):
    doc = seed("spec", chain_spec_file)
    target = tmp_path / "out.dot"
    code, out, _ = invoke(["export", "--dot", str(target)], doc)
    assert code == 0
    assert out == ""
    name, nodes, edges = parse_dot(target.read_text())
    assert edges


def test_export_dot_unwritable_path_exit_3(tmp_path):
    target = tmp_path / "absent" / "out.dot"
    code, out, err = invoke(["export", "--dot", str(target)], seed("vN", "2"))
    assert (code, out) == (3, "")
    assert err.startswith(f"cannot write {target}: ")


def test_export_dot_draws_depth_without_ranks(chain_spec_file):
    payload = json.loads(seed("spec", chain_spec_file))
    del payload["ranks"]
    code, out, _ = invoke(["export", "--dot", "-"], json.dumps(payload))
    assert code == 0
    _, nodes, _ = parse_dot(out)
    for node, depth in payload["depth"].items():
        assert f"\\nd={depth}\"" in nodes[node]


# -- diff --------------------------------------------------------------------


def write_doc(path, text):
    path.write_text(text)
    return str(path)


def test_diff_identical(tmp_path):
    doc = seed("vN", "2")
    a = write_doc(tmp_path / "a.json", doc)
    b = write_doc(tmp_path / "b.json", doc)
    code, out, _ = invoke(["diff", a, b])
    assert (code, out) == (0, "identical\n")
    # The same document in other bytes: indented, keys in reverse order.
    payload = json.loads(doc)
    c = write_doc(
        tmp_path / "c.json", json.dumps(dict(reversed(list(payload.items()))), indent=2)
    )
    code, out, _ = invoke(["diff", a, c])
    assert (code, out) == (0, "identical\n")


def test_diff_isomorphic(tmp_path):
    a = write_doc(
        tmp_path / "a.json",
        serialize(AnnotatedGraph(quine_atoms(["left"]))),
    )
    b = write_doc(
        tmp_path / "b.json",
        serialize(AnnotatedGraph(quine_atoms(["right"]))),
    )
    code, out, _ = invoke(["diff", a, b])
    assert code == 0
    assert out.startswith("isomorphic")
    # Equal graphs, different formula libraries.
    c = write_doc(
        tmp_path / "c.json",
        serialize(AnnotatedGraph(graph=quine_atoms(["left"]), formulas={"f": "x = x"})),
    )
    code, out, _ = invoke(["diff", a, c])
    assert code == 0
    assert out.startswith("isomorphic")


def test_diff_symmetric_completion_in_both_orders(tmp_path):
    """A completion with indiscernible atoms against its oracle
    completion: diff must answer whichever document comes first."""
    g = ExtensionalDigraph.from_extensions({"s0": {"s0", "s1", "s2"}, "s1": {"s1"}, "s2": {"s2"}})
    a = write_doc(tmp_path / "a.json", serialize(AnnotatedGraph(complete(g, 2).graph)))
    b = write_doc(tmp_path / "b.json", serialize(AnnotatedGraph(oracle_complete(g, 2))))
    expected = (0, "diff\tisomorphic\tdocuments differ, graphs are isomorphic\n", "")
    assert invoke(["diff", "--porcelain", a, b]) == expected
    assert invoke(["diff", "--porcelain", b, a]) == expected


def test_diff_different(tmp_path):
    a = write_doc(tmp_path / "a.json", seed("vN", "2"))
    b = write_doc(tmp_path / "b.json", seed("vN", "3"))
    code, out, _ = invoke(["diff", a, b])
    assert code == 1
    assert out.startswith("different:")
    assert "node counts" in out


@pytest.mark.parametrize(
    "left, right, detail",
    [
        (
            {"e": [], "a": ["e"], "b": ["a"], "c": ["e", "a", "b"]},
            {"e": [], "a": ["e"], "b": ["e", "a"], "c": ["a", "b"]},
            "extension size histograms differ: {1: 2, 3: 1, 0: 1} vs {1: 1, 2: 2, 0: 1}",
        ),
        (
            {**{q: [q] for q in "abcd"}, "p": ["a", "b"], "r": ["c", "d"]},
            {**{q: [q] for q in "abcd"}, "p": ["a", "b"], "r": ["b", "c"]},
            "no label-preserving bijection exists",
        ),
    ],
    ids=["histogram", "no-bijection"],
)
def test_diff_different_with_equal_counts(tmp_path, left, right, detail):
    """Equal node, edge and self-loop counts: the verdict comes from the
    histograms, or, where they agree too, from the search alone."""
    a, b = (
        write_doc(tmp_path / f"{name}.json", serialize(AnnotatedGraph(ExtensionalDigraph.from_extensions(ext))))
        for name, ext in (("a", left), ("b", right))
    )
    assert invoke(["diff", a, b]) == (1, f"different: {detail}\n", "")
    assert invoke(["diff", "--porcelain", a, b]) == (1, f"diff\tdifferent\t{detail}\n", "")


def test_diff_provenance_histograms_print_in_id_order(tmp_path):
    """Two graphs that differ only in one node's provenance kind: the
    histogram keys print in node id order, whatever the hash seed."""
    extensions = {"a": [], "b": ["a"], "c": ["b"]}
    left = ExtensionalDigraph.from_extensions(extensions)
    right = ExtensionalDigraph.from_extensions(extensions, {"a": Code("atom", "a")})
    a, b = (
        write_doc(tmp_path / f"{name}.json", serialize(AnnotatedGraph(g)))
        for name, g in (("a", left), ("b", right))
    )
    line = "different: provenance histograms differ: {'seed': 3} vs {('code', 'atom'): 1, 'seed': 2}\n"
    assert invoke(["diff", a, b]) == (1, line, "")
    command, env = console_command()
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            command + ["diff", a, b],
            capture_output=True,
            text=True,
            env=dict(env, PYTHONHASHSEED=hash_seed),
            timeout=PIPE_TIMEOUT_S,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, line, "")


def test_diff_not_utf8_exit_3(tmp_path):
    a = write_doc(tmp_path / "a.json", seed("vN", "2"))
    b = tmp_path / "b.json"
    b.write_bytes(b"\xff")
    code, _, err = invoke(["diff", a, str(b)])
    assert code == 3
    assert err.startswith(f"cannot read {b}: ")


def test_diff_missing_file(tmp_path):
    a = write_doc(tmp_path / "a.json", seed("vN", "2"))
    code, _, _ = invoke(["diff", a, str(tmp_path / "absent.json")])
    assert code == 3


# -- stream and usage behaviour ----------------------------------------------


def test_garbage_stdin_is_schema_error():
    code, _, err = invoke(["check", "--axiom", "extensionality"], "not json")
    assert code == 3


def test_unknown_subcommand_is_usage_error():
    code, _, _ = invoke(["frobnicate"])
    assert code == 4


def test_missing_required_flag_is_usage_error():
    code, _, _ = invoke(["complete"], seed("empty"))
    assert code == 4


def test_porcelain_goes_after_the_subcommand():
    """Each subcommand takes its own ``--porcelain``; the top-level
    parser has none, so the flag before the subcommand is a usage error
    instead of a flag the subcommand's default silently overrides."""
    doc = seed("vN", "2")
    code, out, err = invoke(["--porcelain", "check", "--axiom", "extensionality"], doc)
    assert (code, out) == (4, "")
    assert "unrecognized arguments: --porcelain" in err
    code, out, _ = invoke(["check", "--axiom", "extensionality", "--porcelain"], doc)
    assert (code, out) == (0, "axiom\textensionality\tpass\t\n")


def test_help_exits_zero():
    code, out, _ = invoke(["--help"])
    assert code == 0
    assert "seed" in out


def test_check_flags_are_exclusive():
    doc = seed("vN", "2")
    code, _, _ = invoke(
        ["check", "--axiom", "extensionality", "--witness-report"], doc
    )
    assert code == 4


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize(
    "argv, stdin, want",
    [
        (["seed", "vN", "2"], "", 0),
        (["check", "--axiom", "foundation_minimal"], ("quine", "1"), 1),
        (["complete", "--levels", "3", "--budget", "1000000"], ("vN", "3"), 2),
        (["check", "--axiom", "extensionality"], "not json", 3),
        (["frobnicate"], "", 4),
        (["seed", "vN", "-1"], "", 4),
    ],
    ids=["ok", "fails", "budget", "schema", "argparse", "value-error"],
)
def test_main_leaves_the_collector_as_it_found_it(enabled, argv, stdin, want):
    """Exit 4 comes from argparse for ``frobnicate`` and from a
    ``ValueError`` for stage -1."""
    stdin_text = seed(*stdin) if isinstance(stdin, tuple) else stdin
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        code, _, _ = invoke(argv, stdin_text)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == want


# -- console script parity ---------------------------------------------------


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
PIPE_TIMEOUT_S = 60


def console_script_target():
    """The value of `setforge = "module:function"` under [project.scripts].

    A line scan, not tomllib: tomllib needs Python 3.11 and the package
    supports 3.10.
    """
    section = None
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            m = re.fullmatch(r'setforge\s*=\s*"([^"]*)"', line)
            if m:
                return m.group(1)
    return None


def console_command():
    """The argv prefix and environment that run the `setforge` command.

    It is a fresh interpreter running `python -m MODULE`, where MODULE
    comes from the console-script entry point that pyproject.toml
    declares; its `__main__` block makes the same `sys.exit(main())` call as
    the wrapper an install generates, so no install or PATH lookup is
    needed. The directory holding the imported `setforge` package goes first
    on the child's PYTHONPATH, so the subprocess and in-process halves of
    a test run the same code.
    """
    target = console_script_target()
    assert target == f"{main.__module__}:{main.__name__}", (
        f"[project.scripts] setforge = {target!r} should name the main() "
        "these tests call in-process"
    )
    module = target.partition(":")[0]
    package_root = str(pathlib.Path(setforge.__file__).resolve().parents[1])
    pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    return [sys.executable, "-m", module], env


def run_console_pipeline(first, second):
    """Run `setforge FIRST | setforge SECOND` through a real OS pipe, each
    side as :func:`console_command` runs it. Returns the producer's and
    the consumer's CompletedProcess, with stdout and stderr as bytes.
    """
    argv, env = console_command()
    pipe = subprocess.PIPE
    with subprocess.Popen(
        argv + first, stdout=pipe, stderr=pipe, env=env
    ) as producer, subprocess.Popen(
        argv + second, stdin=producer.stdout, stdout=pipe, stderr=pipe, env=env
    ) as consumer:
        # The consumer now holds the only read end, so the producer's
        # writes fail with EPIPE instead of blocking if the consumer exits
        # early.
        producer.stdout.close()
        try:
            out, err = consumer.communicate(timeout=PIPE_TIMEOUT_S)
            _, producer_err = producer.communicate(timeout=PIPE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            producer.kill()
            consumer.kill()
            raise
    return (
        subprocess.CompletedProcess(
            producer.args, producer.returncode, None, producer_err
        ),
        subprocess.CompletedProcess(consumer.args, consumer.returncode, out, err),
    )


def test_console_script_pipe_matches_in_process():
    seeded, piped = run_console_pipeline(
        ["seed", "vN", "3"], ["complete", "--levels", "1"]
    )
    assert seeded.returncode == 0, seeded.stderr.decode()
    assert piped.returncode == 0, piped.stderr.decode()
    doc = seed("vN", "3")
    code, out, _ = invoke(["complete", "--levels", "1"], doc)
    assert code == 0
    assert piped.stdout == out.encode()


@pytest.mark.parametrize(
    "argv, stdin, first",
    [
        (["seed", "quine", "3000"], None, b'{"edges":['),
        (["complete", "--levels", "1"], ("quine", "12"), b'{"edges":['),
        (["export", "--dot", "-"], ("quine", "30000"), b'digraph "s'),
    ],
    ids=["seed", "complete", "export"],
)
def test_console_script_into_a_pipe_closed_early(tmp_path, argv, stdin, first):
    """`setforge ARGV | head -c 10`: the reader takes 10 bytes of a
    document (or of a DOT text of more than one write) far larger than a
    pipe's buffer and closes its end. The writer still exits 0, as a
    document writer does, and writes nothing to stderr: no traceback,
    and no "Exception ignored" line from the interpreter's flush at
    exit."""
    command, env = console_command()
    source = None
    if stdin is not None:
        source = tmp_path / "in.json"
        source.write_text(seed(*stdin))
    with contextlib.ExitStack() as stack:
        fin = stack.enter_context(open(source, "rb")) if source else subprocess.DEVNULL
        proc = stack.enter_context(
            subprocess.Popen(
                command + argv, stdin=fin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
            )
        )
        head = proc.stdout.read(10)
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=PIPE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert head == first
    assert (proc.returncode, err.decode()) == (0, "")


@pytest.mark.parametrize(
    "argv, atoms, size",
    [
        (["check", "--axiom", "extensionality"], "3", range(1, 1 << 13)),
        (["define", "--formula", "x = x", "--porcelain"], "2000", range(1 << 13, 1 << 16)),
    ],
    ids=["report", "porcelain"],
)
def test_console_script_into_a_pipe_closed_before_its_last_flush(tmp_path, argv, atoms, size):
    """`setforge ARGV | true`, the reader gone before the command
    writes. Stdout is block-buffered, as in a shell pipeline: a short
    report first meets the closed pipe in the last flush, and a
    porcelain listing larger than the stream's buffer (but smaller than
    a pipe's) in an earlier write, its tail still left to that flush.
    Either way the command exits 0 and writes nothing to stderr."""
    command, env = console_command()
    env.pop("PYTHONUNBUFFERED", None)
    source = tmp_path / "in.json"
    source.write_text(seed("quine", atoms))
    with open(source, "rb") as fin:
        _, out, _ = invoke(argv, source.read_text())
        assert len(out.encode()) in size
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                command + argv,
                stdin=fin,
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=PIPE_TIMEOUT_S,
            )
        finally:
            os.close(write)
    assert (proc.returncode, proc.stderr.decode()) == (0, "")


def test_console_script_exit_code_budget():
    seeded, piped = run_console_pipeline(
        ["seed", "vN", "3"], ["complete", "--levels", "3", "--budget", "1000000"]
    )
    assert seeded.returncode == 0, seeded.stderr.decode()
    assert piped.returncode == 2, piped.stderr.decode()
    assert "budget exceeded" in piped.stderr.decode()
    assert piped.stdout == b""


# -- writing documents in runs ------------------------------------------------


class RecordedStdout(io.StringIO):
    """Captured standard output that keeps the size of every write."""

    def __init__(self) -> None:
        super().__init__()
        self.sizes: list[int] = []

    def write(self, text: str) -> int:
        self.sizes.append(len(text))
        return super().write(text)


def emitted(argv, stdin_text):
    old_stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    out = RecordedStdout()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out


def test_documents_are_written_in_runs_as_serialize_writes_them():
    """A 1.8 MB completion goes out in several writes, none much past
    the run size, and a tiny seed in one; either way stdout is the
    serialized line and a newline."""
    source = seed("quine", "12")
    expected = complete(setforge.deserialize(source).graph, 1)
    code, out = emitted(["complete", "--levels", "1"], source)
    assert code == 0 and out.getvalue() == serialize(expected) + "\n"
    largest = max(map(len, document._pieces(expected)))
    assert len(out.sizes) >= 2 and max(out.sizes) <= cli._WRITE_SIZE + largest
    code, out = emitted(["seed", "vN", "2"], "")
    assert code == 0 and out.sizes == [len(out.getvalue())]
    assert out.getvalue() == serialize(AnnotatedGraph(setforge.von_neumann_seed(2))) + "\n"


def test_a_document_whose_last_piece_fails_prints_nothing(monkeypatch):
    """Every piece is built before the first write: when the last one
    fails, nothing reaches stdout and the error's exit code stands."""
    monkeypatch.setattr(cli, "_WRITE_SIZE", 1000)
    source = seed("quine", "12")
    last = json.dumps(max(complete(setforge.deserialize(source).graph, 1).graph.nodes))
    entry = document._node_entry

    def failing(q, p, members):
        if q == last:
            raise setforge.SizeLimitError("the last node entry fails")
        return entry(q, p, members)

    monkeypatch.setattr(document, "_node_entry", failing)
    code, out = emitted(["complete", "--levels", "1"], source)
    assert (code, out.getvalue(), out.sizes) == (2, "", [])


def test_emitting_a_document_never_holds_the_joined_line(monkeypatch):
    """Allocated bytes, not time: writing to a sink that keeps nothing
    peaks at least half the line below ``serialize``, which holds the
    pieces and the joined line together."""

    class Discard:
        def write(self, text: str) -> None:
            pass

    doc = complete(quine_atoms([f"q{i}" for i in range(12)]), 1)
    monkeypatch.setattr(sys, "stdout", Discard())
    monkeypatch.setattr(cli, "_WRITE_SIZE", 1 << 16)

    def peak(write) -> int:
        tracemalloc.start()
        try:
            write(doc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    line = len(serialize(doc))
    assert line > 1 << 20
    assert peak(lambda d: cli._write_runs(document._pieces(d), sys.stdout)) < peak(serialize) - line // 2


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 a call's arguments stay on the caller's stack until it returns",
)
def test_the_writer_frees_a_temporary_record_before_it_renders(monkeypatch):
    """A record that only the call holds is freed once the writer has
    taken its parts: its graph is gone by the first node entry."""

    class Discard:
        def write(self, text: str) -> None:
            pass

    graphs = []

    def make_record() -> AnnotatedGraph:
        doc = complete(quine_atoms([f"q{i}" for i in range(12)]), 1)
        graphs.append(weakref.ref(doc.graph))
        return doc

    entry = document._node_entry
    alive = []

    def checked(q, p, members):
        if not alive:
            alive.append(graphs[0]() is not None)
        return entry(q, p, members)

    monkeypatch.setattr(document, "_node_entry", checked)
    monkeypatch.setattr(sys, "stdout", Discard())
    cli._write_runs(document._pieces(make_record()), sys.stdout)
    assert alive == [False]


# -- ids that no UTF-8 text can carry -----------------------------------------

# Node ids "\ud800" and "a", the edge ["a", "\ud800"]: JSON can write a
# lone surrogate as an escape, but no UTF-8 text can carry one and no
# subset node id can hash it.
LONE_SURROGATE_DOCUMENT = (
    '{"edges":[["a","\\ud800"]],"format_version":1,"nodes":['
    '{"id":"\\ud800","provenance":{"kind":"seed","label":"x"}},'
    '{"id":"a","provenance":{"kind":"seed","label":"y"}}]}'
)


@pytest.mark.parametrize(
    "argv",
    [["complete", "--levels", "1"], ["export", "--dot", "-"], ["define", "--formula", "x = x"]],
    ids=["complete", "export", "define"],
)
def test_lone_surrogate_ids_are_schema_errors(argv):
    assert json.loads(LONE_SURROGATE_DOCUMENT)["nodes"][0]["id"] == "\ud800"
    code, out, err = invoke(argv, LONE_SURROGATE_DOCUMENT)
    assert (code, out) == (3, "")
    assert err == "nodes[0].id: node ids must not hold a lone surrogate\n"


@pytest.mark.parametrize(
    "provenance, path",
    [
        ('{"kind":"seed","label":"\\udc00"}', "nodes[1].provenance.label"),
        ('{"code_kind":"atom","detail":"a\\udfff","kind":"code"}', "nodes[1].provenance.detail"),
    ],
)
def test_lone_surrogate_labels_and_details_are_schema_errors(provenance, path):
    text = LONE_SURROGATE_DOCUMENT.replace("\\ud800", "b").replace(
        '{"kind":"seed","label":"y"}', provenance
    )
    code, out, err = invoke(["check", "--axiom", "extensionality"], text)
    assert (code, out) == (3, "")
    assert err.startswith(f"{path}: ")


# -- guarded quantifiers at scale ---------------------------------------------


def test_define_guarded_formulas_on_a_large_completion():
    # An acyclic 11-node seed: node i has the members picked by the bits
    # of masks[i], all of lower index. Its completion has 2,048 nodes.
    masks = (0, 1, 3, 5, 14, 25, 41, 58, 252, 396, 152)
    names = [f"s{i:02d}" for i in range(len(masks))]
    seed_graph = setforge.ExtensionalDigraph.from_extensions(
        {x: {names[j] for j in range(i) if masks[i] >> j & 1} for i, x in enumerate(names)}
    )
    seed_doc = serialize(AnnotatedGraph(seed_graph))
    code, doc, _ = invoke(["complete", "--levels", "1"], seed_doc)
    assert code == 0
    payload = json.loads(doc)
    assert len(payload["nodes"]) >= 2048
    members = {n["id"]: set() for n in payload["nodes"]}
    containers = {n["id"]: set() for n in payload["nodes"]}
    for member, container in payload["edges"]:
        members[container].add(member)
        containers[member].add(container)
    expected = {
        "exists y. (y in x & x in y)": {
            x for x in members if members[x] & containers[x]
        },
        "all y. (y in x -> exists z. (z in y & z in x))": {
            x for x in members if all(members[y] & members[x] for y in members[x])
        },
        "exists y. (x in y & exists z. (z in y & !(z = x)))": {
            x for x in members if any(members[y] - {x} for y in containers[x])
        },
        "exists y. (!(y = x) & !(y in x) & !(x in y) & all z. (z in y -> z in x))": {
            x
            for x in members
            if any(
                y != x and y not in members[x] and x not in members[y] and members[y] <= members[x]
                for y in members
            )
        },
    }
    # Well-founded, so no 2-cycles and only the empty set is selected by
    # the second formula (vacuously); only the seed nodes have containers.
    assert [len(s) for s in expected.values()] == [0, 1, 11, 2046]
    for formula, selection in expected.items():
        code, out, _ = invoke(["define", "--formula", formula, "--porcelain"], doc)
        assert code == 0, formula
        assert out == "".join(f"define\t{x}\n" for x in sorted(selection)), formula


# -- UTF-8 on stdin and stdout, whatever the locale ----------------------------

# A seed document whose one node id holds a raw é, in UTF-8.
RAW_UTF8_DOCUMENT = (
    '{"edges":[],"format_version":1,"nodes":'
    '[{"id":"é","provenance":{"kind":"seed","label":"x"}}]}\n'
).encode("utf-8")
# The same bytes with the é in Latin-1: not UTF-8 from byte 47 on.
LATIN1_DOCUMENT = RAW_UTF8_DOCUMENT.replace("é".encode("utf-8"), b"\xe9")
LATIN1_ERROR = "$: invalid UTF-8 at byte 47: invalid continuation byte\n"


def invoke_streams(argv, data: bytes, encoding: str = "utf-8", errors: str = "strict"):
    """Run main() in-process with stdin and stdout text streams over
    bytes, as a console in ``encoding`` would give them; returns the
    exit code, the bytes written to stdout, stderr, and the encoding
    and error handler stdout is left with."""
    streams = sys.stdin, sys.stdout
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding=encoding, errors=errors)
    sys.stdout = out = io.TextIOWrapper(io.BytesIO(), encoding=encoding, errors=errors)
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code = main(argv)
        out.flush()
    finally:
        sys.stdin, sys.stdout = streams
    return code, out.buffer.getvalue(), err.getvalue(), (out.encoding, out.errors)


@pytest.mark.parametrize(
    "encoding, errors",
    [("utf-8", "strict"), ("utf-8", "surrogateescape"), ("latin-1", "strict"), ("ascii", "strict")],
)
def test_stdin_and_stdout_carry_utf8_whatever_their_encoding(encoding, errors):
    """Input is read as UTF-8 bytes, so bytes that are not UTF-8 are a
    schema error at ``$`` with their offset, and a raw é is é. Output is
    written in UTF-8, and the stream gets its own encoding back."""
    code, out, err, left = invoke_streams(
        ["check", "--axiom", "extensionality"], LATIN1_DOCUMENT, encoding, errors
    )
    assert (code, out, err, left) == (3, b"", LATIN1_ERROR, (encoding, errors))
    code, out, err, _ = invoke_streams(
        ["define", "--formula", "x = x", "--porcelain"], RAW_UTF8_DOCUMENT, encoding, errors
    )
    assert (code, out, err) == (0, "define\té\n".encode("utf-8"), "")
    vn1 = seed("vN", "1").encode()
    code, out, err, left = invoke_streams(["export", "--dot", "-"], vn1, encoding, errors)
    expected = setforge.to_dot(setforge.deserialize(vn1)).encode("utf-8")
    assert "∅".encode("utf-8") in expected
    assert (code, out, err, left) == (0, expected, "", (encoding, errors))


def test_a_byte_order_mark_or_utf16_on_stdin_exit_3():
    data = seed("vN", "2").encode()
    argv = ["check", "--axiom", "extensionality"]
    code, _, err, _ = invoke_streams(argv, b"\xef\xbb\xbf" + data)
    assert code == 3 and err.startswith("$: invalid JSON: Unexpected UTF-8 BOM")
    code, _, err, _ = invoke_streams(argv, data.decode().encode("utf-16"))
    assert (code, err) == (3, "$: invalid UTF-8 at byte 0: invalid start byte\n")


def test_diff_names_a_file_that_is_not_utf8(tmp_path):
    a = write_doc(tmp_path / "a.json", seed("vN", "2"))
    b = tmp_path / "b.json"
    b.write_bytes(LATIN1_DOCUMENT)
    code, out, err = invoke(["diff", a, str(b)])
    assert (code, out) == (3, "")
    assert err == (
        f"cannot read {b}: 'utf-8' codec can't decode byte 0xe9 in position 47: "
        "invalid continuation byte\n"
    )


def test_a_read_from_stdin_peaks_below_a_read_of_its_decoded_text(monkeypatch):
    """Allocated bytes, not time: the command line reads stdin's bytes,
    and so peaks at least half the input below ``deserialize`` of the
    text that stdin's ``read`` decodes. The peak is taken where the
    build starts: the build is the same for both, and on this completion
    it outweighs the input."""
    data = serialize(complete(quine_atoms([f"q{i}" for i in range(12)]), 1)).encode()

    def from_cli(stdin) -> AnnotatedGraph:
        monkeypatch.setattr(sys, "stdin", stdin)
        return cli._read_document()

    def from_text(stdin) -> AnnotatedGraph:
        return setforge.deserialize(stdin.read())

    def stdin() -> io.TextIOWrapper:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")

    assert from_cli(stdin()) == from_text(stdin())
    build, peaks = document._from_members, []

    def recorded(*args):
        peaks.append(tracemalloc.get_traced_memory()[1])
        return build(*args)

    monkeypatch.setattr(document, "_from_members", recorded)
    for read in (from_cli, from_text):
        stream = stdin()
        tracemalloc.start()
        try:
            read(stream)
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1] - len(data) // 2, peaks


@pytest.mark.parametrize(
    "environment",
    [{"PYTHONIOENCODING": "utf-8:strict"}, {"LC_ALL": "C"}, {"PYTHONIOENCODING": "latin-1"}],
    ids=["utf-8-strict", "c-locale", "latin-1"],
)
def test_console_script_reads_and_writes_utf8_whatever_the_environment(environment):
    """Bytes that are not UTF-8 exit 3 with the same message whatever
    decodes the console's text; a DOT text with ∅ labels goes out as
    UTF-8 even to an ASCII console."""
    command, env = console_command()
    env = {k: v for k, v in env.items() if k not in ("PYTHONIOENCODING", "LC_ALL")}
    proc = subprocess.run(
        command + ["check", "--axiom", "extensionality"],
        input=LATIN1_DOCUMENT,
        capture_output=True,
        env={**env, **environment},
        timeout=PIPE_TIMEOUT_S,
    )
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (3, b"", LATIN1_ERROR)
    vn1 = seed("vN", "1").encode()
    proc = subprocess.run(
        command + ["export", "--dot", "-"],
        input=vn1,
        capture_output=True,
        env={**env, **environment, "PYTHONIOENCODING": "ascii"},
        timeout=PIPE_TIMEOUT_S,
    )
    expected = setforge.to_dot(setforge.deserialize(vn1)).encode("utf-8")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


def test_console_script_writes_a_failed_condition_in_utf8_to_an_ascii_console():
    """The report of a ``DredConditionError``, which the command line
    prints once the command has raised it, goes out in UTF-8 like every
    other report, node ids and all."""
    doc = {
        "depth": {"a": 0, "é": 0},
        "edges": [["a", "é"]],
        "format_version": 1,
        "nodes": [
            {"id": "a", "provenance": {"kind": "seed", "label": "a"}},
            {"id": "é", "provenance": {"kind": "seed", "label": "e"}},
        ],
        "ranks": {"1": {"a": 0, "é": 0}},
    }
    text = json.dumps(doc)
    argv = ["complete", "--levels", "1", "--dred"]
    code, out, _ = invoke(argv, text)
    assert (code, out) == (
        1,
        "depth/rank conditions fail: dred condition violated (rank_increase): "
        "r_1('a') = 0 not below r_1('é') = 0 along edge\n",
    )
    command, env = console_command()
    proc = subprocess.run(
        command + argv,
        input=text.encode(),
        capture_output=True,
        env={**env, "PYTHONIOENCODING": "ascii"},
        timeout=PIPE_TIMEOUT_S,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, out.encode("utf-8"), b"")
