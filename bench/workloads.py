"""The four benchmark workloads: inputs made from a seed, the op
sequence run against the ``setforge`` CLI, and the expected outcome of
every op.

Expectations come from the construction, never from the code under
test: an extensional n-node graph grows to exactly 2**n nodes per
completion step, an acyclic seed stays well-founded, a relabelled copy
of a graph is isomorphic to it, and so on.

``prepare`` runs inside the fresh child interpreter (it is part of the
measured set-up); ``check_sequence`` runs in the parent after the child has
exited, so parsing large documents never shows in the child's time or
memory.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("grow", "certify", "query", "compare")


@dataclass
class Op:
    """One CLI invocation. ``stdin`` and ``stdout`` name files in the
    sequence directory; ``argv`` may name such files too (``diff``,
    ``seed spec``)."""

    argv: list[str]
    stdin: str | None
    stdout: str
    exit: int
    check: str
    params: dict[str, Any] = field(default_factory=dict)


# Chain-style seed declaration (atoms, naturals_up_to, tuples,
# code_length) that assembles to exactly 13 nodes with maximal depth 5
# (6 rank families): one two-link chain atom, the numerals up to 4, the
# tuple (a, a) tagged 0 and codes of length 3. Certified completion of
# one level always yields 2**13 nodes. The workload seed only names the
# atom, so the certificate has the same shape for every seed.
CERTIFY_SPEC = ((2,), 4, ((0, (0, 0)),), 3)
CERTIFY_NODES = 13
# Smoke size: two numerals plus a two-link chain atom, no tuples.
CERTIFY_SMOKE_SPEC = ((2,), 2, (), 1)
CERTIFY_SMOKE_NODES = 4

# The witness report of a three-level universe checks four clauses at
# level 0 and, lacking a level 3 for power set, three at level 1.
WITNESS_RECORDS = [
    [0, "pairing"], [0, "union"], [0, "subsets"], [0, "power_set"],
    [1, "pairing"], [1, "union"], [1, "subsets"],
]

GUARDED = "exists y. (y in x & x in y)"
GUARDED_NESTED = "all y. (y in x -> exists z. (z in y & z in x))"
UNGUARDED = "exists y. (!(y = x) & !(y in x) & !(x in y) & all z. (z in y -> z in x))"
SENTENCE = "exists x. all y. !(y in x)"


def _document(ids: list[str], masks: list[int], formulas: dict[str, str] | None = None) -> bytes:
    """A canonical seed document: node i has the members picked by
    the bits of ``masks[i]``."""
    edges = sorted(
        [ids[j], ids[i]] for i, mask in enumerate(masks) for j in range(len(ids)) if mask >> j & 1
    )
    payload: dict[str, Any] = {
        "format_version": 1,
        "nodes": sorted(
            ({"id": x, "provenance": {"kind": "seed", "label": x}} for x in ids),
            key=lambda n: n["id"],
        ),
        "edges": edges,
    }
    if formulas:
        payload["formulas"] = formulas
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def _any_seed(rng: random.Random, n: int) -> list[int]:
    """Distinct member sets over n nodes, self-loops allowed."""
    return rng.sample(range(1 << n), n)


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct random node names, none of them all digits."""
    names: list[str] = []
    while len(names) < n:
        name = f"{prefix}{rng.getrandbits(32):08x}"
        if name not in names:
            names.append(name)
    return names


# Fixed seed shapes, given as member masks (node i contains node j when
# bit j of masks[i] is set). The workload seed renames their nodes, so
# every seed gives other document bytes and other content-addressed ids
# but an isomorphic graph, hence the same amount of work. The benchmark
# compares runs made with different seeds, and the cost of ``define``
# depends strongly on the shape (the three formulas took 2.0-4.2 s
# in-process over six random 11-node shapes on a 2-core x86-64 VM), that
# of ``oracle-compare`` on the number of self-loops.
#
# Acyclic 11-node shape for ``query``: node i contains only nodes j < i,
# so the completion is well-founded.
QUERY_SHAPE = (0, 1, 3, 5, 14, 25, 41, 58, 252, 396, 152)
QUERY_SMOKE_SHAPE = (0, 1, 3)
# Acyclic 13-node shape for ``diff``. Well-founded extensional graphs
# are rigid, so isomorphism search never needs to backtrack far.
DIFF_SHAPE = QUERY_SHAPE + (1501, 2884)
DIFF_SMOKE_SHAPE = (0, 1, 3, 7)
# 4-node shape for ``oracle-compare``: its only cycle is the self-loop
# of node 1, which the reference model can decorate, and it has no
# non-trivial automorphism. On the completion of a seed with one (masks
# [1, 2, 5, 9] swap nodes 2 and 3) ``is_isomorphic`` runs past its
# search-state cap and oracle-compare exits 2.
ORACLE_SHAPE = (0, 2, 1, 3)
ORACLE_SMOKE_SHAPE = (0, 2)


def _spec_json(spec: tuple, labels: list[str]) -> dict[str, Any]:
    """A seed spec; atoms are given by their chain lengths, tuple
    components by atom index, and ``labels`` names the atoms."""
    lengths, naturals, tuples, code_length = spec
    return {
        "atoms": [
            {"label": label, "kind": "chain", "length": length}
            for label, length in zip(labels, lengths)
        ],
        "naturals_up_to": naturals,
        "tuples": [
            {"tag": tag, "components": [labels[i] for i in parts]} for tag, parts in tuples
        ],
        "code_style": "chain",
        "code_length": code_length,
    }


def _write(workdir: str, name: str, data: bytes) -> None:
    with open(os.path.join(workdir, name), "wb") as handle:
        handle.write(data)


RunOp = Callable[[Op], Any]


def _grow(rng: random.Random, smoke: bool, workdir: str, run_op: RunOp) -> list[Op]:
    n = 2 if smoke else 4
    _write(workdir, "seed.json", _document(_names(rng, "g", n), _any_seed(rng, n)))
    # The refusal stage has 2 nodes (smoke) or 4 nodes: two steps fit the
    # budget, the third would enumerate 2**16 or 2**65536 subsets.
    stage, budget, stage_nodes = ("2", "1000", 2) if smoke else ("3", "1000000", 4)
    return [
        Op(["complete", "--levels", "2"], "seed.json", "tower.json", 0, "document",
           {"levels": [n, 2**n, 2 ** (2**n)]}),
        Op(["check", "--witness-report", "--porcelain"], "tower.json", "witness.txt", 0, "witness"),
        Op(["check", "--axiom", "extensionality", "--porcelain"], "tower.json", "axiom.txt", 0,
           "axiom", {"name": "extensionality"}),
        Op(["seed", "vN", stage], None, "stage.json", 0, "document", {"levels": [stage_nodes]}),
        Op(["complete", "--levels", "3", "--budget", budget], "stage.json", "refusal.json", 2,
           "refusal"),
    ]


def _certify(rng: random.Random, smoke: bool, workdir: str, run_op: RunOp) -> list[Op]:
    spec, n = (CERTIFY_SMOKE_SPEC, CERTIFY_SMOKE_NODES) if smoke else (CERTIFY_SPEC, CERTIFY_NODES)
    labels = _names(rng, "k", len(spec[0]))
    _write(workdir, "spec.json", json.dumps(_spec_json(spec, labels)).encode("ascii"))
    return [
        Op(["seed", "spec", "spec.json"], None, "seed.json", 0, "document",
           {"levels": [n], "certified": True}),
        Op(["complete", "--dred", "--levels", "1"], "seed.json", "universe.json", 0, "document",
           {"levels": [n, 2**n], "certified": True}),
        Op(["check", "--dred-conditions", "--porcelain"], "universe.json", "dred.txt", 0, "dred_ok"),
        Op(["export", "--dot", "-"], "universe.json", "universe.dot", 0, "dot",
           {"document": "universe.json"}),
    ]


def _query(rng: random.Random, smoke: bool, workdir: str, run_op: RunOp) -> list[Op]:
    shape = QUERY_SMOKE_SHAPE if smoke else QUERY_SHAPE
    n = len(shape)
    seed = _document(_names(rng, "q", n), list(shape), {"twocycle": GUARDED})
    _write(workdir, "seed.json", seed)
    run_op(Op(["complete", "--levels", "1"], "seed.json", "input.json", 0, "document",
              {"levels": [n, 2**n]}))
    selects = {"document": "input.json"}
    return [
        # An acyclic seed completes to a well-founded graph: no 2-cycles,
        # and the empty set is selected vacuously by the nested formula.
        Op(["define", "--formula", GUARDED, "--porcelain"], "input.json", "guarded.txt", 0,
           "define", {**selects, "empty": True}),
        Op(["define", "--formula", GUARDED_NESTED, "--porcelain"], "input.json", "nested.txt", 0,
           "define", {**selects, "has_empty_set": True}),
        Op(["define", "--formula", UNGUARDED, "--porcelain"], "input.json", "unguarded.txt", 0,
           "define", selects),
        Op(["define", "--formula", "@twocycle", "--porcelain"], "input.json", "named.txt", 0,
           "define", {**selects, "same_as": "guarded.txt"}),
        Op(["eval", "--formula", SENTENCE, "--porcelain"], "input.json", "eval.txt", 0, "eval"),
        Op(["check", "--axiom", "foundation_minimal", "--porcelain"], "input.json", "axiom.txt", 0,
           "axiom", {"name": "foundation_minimal"}),
    ]


def _compare(rng: random.Random, smoke: bool, workdir: str, run_op: RunOp) -> list[Op]:
    oracle_shape, diff_shape = (
        (ORACLE_SMOKE_SHAPE, DIFF_SMOKE_SHAPE) if smoke else (ORACLE_SHAPE, DIFF_SHAPE)
    )
    _write(workdir, "decorable.json",
           _document(_names(rng, "d", len(oracle_shape)), list(oracle_shape)))
    # The same graph under two random namings: every id differs, so the
    # documents differ, but the graphs are isomorphic.
    n = len(diff_shape)
    _write(workdir, "a.json", _document(_names(rng, "a", n), list(diff_shape)))
    _write(workdir, "b.json", _document(_names(rng, "b", n), list(diff_shape)))
    levels = {"levels": [n, 2**n]}
    return [
        Op(["oracle-compare", "--levels", "2", "--porcelain"], "decorable.json", "oracle.txt", 0,
           "verdict", {"record": "oracle"}),
        Op(["complete", "--levels", "1"], "a.json", "a.out.json", 0, "document", levels),
        Op(["complete", "--levels", "1"], "b.json", "b.out.json", 0, "document", levels),
        Op(["diff", "--porcelain", "a.out.json", "b.out.json"], None, "diff.txt", 0, "verdict",
           {"record": "diff"}),
    ]


_BUILDERS = {"grow": _grow, "certify": _certify, "query": _query, "compare": _compare}


def prepare(workload: str, seed: int, scale: str, workdir: str, run_op: RunOp) -> list[Op]:
    """Write the workload's inputs for ``seed`` into ``workdir`` and
    return its op sequence. ``run_op`` runs set-up ops (untimed)."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, scale == "smoke", workdir, run_op)


# -- checks (parent side) ---------------------------------------------------


class _Files:
    """Reads files of one sequence directory, parsing each document once."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self._docs: dict[str, dict[str, Any]] = {}

    def text(self, name: str) -> str:
        with open(os.path.join(self.workdir, name), encoding="utf-8") as handle:
            return handle.read()

    def document(self, name: str) -> dict[str, Any]:
        if name not in self._docs:
            self._docs[name] = json.loads(self.text(name))
        return self._docs[name]


def _records(text: str, kind: str) -> list[list[str]]:
    lines = text.splitlines()
    rows = [line.split("\t") for line in lines]
    if any(row[0] != kind for row in rows):
        raise AssertionError(f"expected only {kind!r} records, got {text[:200]!r}")
    return rows


def _check_document(files: _Files, op: Op) -> None:
    doc = files.document(op.stdout)
    levels = op.params["levels"]
    ids = [node["id"] for node in doc["nodes"]]
    if len(ids) != levels[-1] or len(set(ids)) != len(ids):
        raise AssertionError(f"{len(ids)} nodes, growth law says {levels[-1]}")
    if len(levels) > 1:
        got = [len(level) for level in doc.get("levels", [])]
        if got != levels:
            raise AssertionError(f"level sizes {got}, growth law says {levels}")
    if op.params.get("certified") and not ("depth" in doc and "ranks" in doc):
        raise AssertionError("certified document lacks depth/ranks blocks")


def _check_witness(files: _Files, op: Op) -> None:
    rows = _records(files.text(op.stdout), "witness")
    if [[int(r[1]), r[2]] for r in rows] != WITNESS_RECORDS:
        raise AssertionError(f"witness records {rows}")
    failing = [r for r in rows if r[3] != "pass"]
    if failing:
        raise AssertionError(f"witness clauses fail: {failing}")


def _check_axiom(files: _Files, op: Op) -> None:
    rows = _records(files.text(op.stdout), "axiom")
    if len(rows) != 1 or rows[0][1] != op.params["name"] or rows[0][2] not in ("pass", "holds"):
        raise AssertionError(f"axiom record {rows}")


def _check_refusal(files: _Files, op: Op) -> None:
    if files.text(op.stdout):
        raise AssertionError("a refused completion wrote a document")
    if not files.text(op.stdout + ".err").startswith("budget exceeded"):
        raise AssertionError("refusal does not say the budget was exceeded")


def _check_dred_ok(files: _Files, op: Op) -> None:
    rows = _records(files.text(op.stdout), "dred")
    if len(rows) != 1 or rows[0][1] != "ok":
        raise AssertionError(f"dred records {rows}")


def _check_dot(files: _Files, op: Op) -> None:
    doc = files.document(op.params["document"])
    lines = files.text(op.stdout).splitlines()
    if not lines or not lines[0].startswith("digraph") or lines[-1] != "}":
        raise AssertionError("not a DOT digraph")
    nodes = sum(1 for line in lines if line.endswith("];"))
    edges = sum(1 for line in lines if line.endswith('";') and '" -> "' in line)
    if nodes != len(doc["nodes"]) or edges != len(doc["edges"]):
        raise AssertionError(
            f"DOT has {nodes} nodes and {edges} edges, the document "
            f"{len(doc['nodes'])} and {len(doc['edges'])}"
        )


def _check_define(files: _Files, op: Op) -> None:
    doc = files.document(op.params["document"])
    text = files.text(op.stdout)
    selected = [row[1] for row in _records(text, "define")]
    known = {node["id"] for node in doc["nodes"]}
    stray = [x for x in selected if x not in known]
    if stray:
        raise AssertionError(f"define selected unknown ids {stray[:3]}")
    if op.params.get("empty") and selected:
        raise AssertionError(f"{len(selected)} nodes on a 2-cycle in a well-founded graph")
    if op.params.get("has_empty_set"):
        members = {c for _, c in doc["edges"]}
        empty = [x for x in known if x not in members]
        if len(empty) != 1 or empty[0] not in selected:
            raise AssertionError("the empty set is not selected")
    if "same_as" in op.params and text != files.text(op.params["same_as"]):
        raise AssertionError("the named formula selects another class than its text")


def _check_eval(files: _Files, op: Op) -> None:
    if files.text(op.stdout) != "eval\ttrue\n":
        raise AssertionError("a completed graph has an empty set, the sentence must hold")


def _check_verdict(files: _Files, op: Op) -> None:
    rows = _records(files.text(op.stdout), op.params["record"])
    if len(rows) != 1 or rows[0][1] != "isomorphic":
        raise AssertionError(f"verdict {rows}")


_CHECKS = {
    "document": _check_document,
    "witness": _check_witness,
    "axiom": _check_axiom,
    "refusal": _check_refusal,
    "dred_ok": _check_dred_ok,
    "dot": _check_dot,
    "define": _check_define,
    "eval": _check_eval,
    "verdict": _check_verdict,
}


def check_sequence(workdir: str, ops: list[Op], codes: list[Any]) -> list[str | None]:
    """For each op, None when it met its expectation, else the reason."""
    files = _Files(workdir)
    reasons: list[str | None] = []
    for op, code in zip(ops, codes):
        if code != op.exit:
            reasons.append(f"exit {code}, expected {op.exit}")
            continue
        try:
            _CHECKS[op.check](files, op)
        except (AssertionError, OSError, ValueError, KeyError, IndexError, TypeError) as e:
            reasons.append(f"{op.check} check: {e}")
        else:
            reasons.append(None)
    return reasons
