"""Acceptance checks, one test per criterion.

Every test finishes by calling ``report``, which prints one pass/fail
line (run with ``pytest -s`` to see the lines as they happen) and then
asserts. Tower growth makes literal deep completions unreachable --
one step on an n-node graph yields 2**n nodes -- so the random-seed
batches complete each seed to the deepest level a fixed budget affords
and check every property at every level that exists.
"""

import contextlib
import io
import random
import sys
import time

import pytest

from helpers import (
    affordable_levels,
    all_small_self_loop_digraphs,
    is_end_extension,
    naive_eval,
    print_formula,
    random_chain_spec,
    random_loop_spec,
    quine_code_formula,
    random_closed_formula,
    random_extensional_graph,
    random_formula,
)

from setforge import (
    AnnotatedGraph,
    Budget,
    CodeSpec,
    DEFAULT_BUDGET,
    ExtensionalDigraph,
    assemble,
    check_axiom,
    compare,
    complete,
    define_class,
    dred_complete,
    eval_formula,
    foundation_witness,
    oracle_complete,
    parse,
    quine_atoms,
    verify_dred,
    witness_report,
)
from setforge.cli import main as cli_main

RNG_SEED = 20260818

# 4-node seeds reach 65536 nodes after two steps; the subset budget of
# 2**16 is exactly what the deficiency scan of a 16-node level needs.
BATCH_BUDGET = Budget(max_subsets_enumerated=65536)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# -- criterion 1: completion agrees with the reference model ------------------


def test_criterion_1_reference_agreement_on_all_small_seeds():
    graphs = list(all_small_self_loop_digraphs(3))
    start = time.monotonic()
    mismatches = []
    for g in graphs:
        verdict = compare(complete(g, 2).graph, oracle_complete(g, 2))
        if not verdict.isomorphic:
            mismatches.append((sorted(g.extensions.items()), verdict.detail))
    elapsed = time.monotonic() - start
    report(
        "criterion 1: two completion steps match the reference on every "
        "extensional seed with at most 3 nodes and self-loop-only cycles",
        not mismatches and elapsed < 60.0,
        f"{len(graphs)} seeds, {elapsed:.1f}s, {len(mismatches)} mismatches",
    )


# -- criterion 2: the empty-seed tower ----------------------------------------


def test_criterion_2_empty_seed_tower():
    u = complete(ExtensionalDigraph.empty(), 4)
    sizes = [len(level) for level in u.levels]
    verdict = compare(u.graph, oracle_complete(ExtensionalDigraph.empty(), 4))
    report(
        "criterion 2: empty seed grows [0, 1, 2, 4, 16] and matches the "
        "hereditarily finite stage",
        sizes == [0, 1, 2, 4, 16] and verdict.isomorphic,
        f"sizes {sizes}, comparison: {verdict.detail}",
    )


# -- criteria 3, 4, 7: a shared batch of random completions -------------------


@pytest.fixture(scope="module")
def seed_batch():
    """200 random extensional seeds of at most 4 nodes, each completed
    to the deepest budget-affordable level count (capped at 3).

    Universes are summarized and discarded: the heavyweight runs top
    out at 65536 nodes and keeping 200 of those would exhaust memory.
    """
    rng = random.Random(RNG_SEED)
    runs = []
    for i in range(200):
        g = random_extensional_graph(rng, 4)
        lv = affordable_levels(len(g.nodes), 3, BATCH_BUDGET)
        u = complete(g, lv, BATCH_BUDGET)
        rep = witness_report(u)
        witness_failures = [
            f"seed {i}: level {f.level} clause {f.clause}: {f.detail}"
            for f in rep.failures
        ]
        new_self_loops = [
            f"seed {i}: {x}"
            for x in u.graph.nodes
            if x not in g.nodes and x in u.graph.extensions[x]
        ]
        monotonicity = []
        for m in range(len(u.levels)):
            for n in range(m + 1, len(u.levels)):
                if not is_end_extension(u.level(m).graph, u.level(n).graph):
                    monotonicity.append(f"seed {i}: level {m} vs {n}")
        runs.append(
            {
                "seed_nodes": len(g.nodes),
                "steps": lv,
                "checked_clauses": len(rep.checked),
                "witness": witness_failures,
                "loops": new_self_loops,
                "monotonicity": monotonicity,
            }
        )
    return runs


def test_criterion_3_witness_clauses_hold(seed_batch):
    failures = [line for run in seed_batch for line in run["witness"]]
    checked = sum(run["checked_clauses"] for run in seed_batch)
    deepest = max(run["steps"] for run in seed_batch)
    report(
        "criterion 3: pairing, union, subsets and power-set witnesses hold "
        "at every checkable level of 200 random completions",
        len(seed_batch) == 200 and not failures and checked > 0,
        f"{checked} clause checks, deepest run {deepest} steps"
        + (f"; first failure: {failures[0]}" if failures else ""),
    )


def test_criterion_4_completion_adds_no_self_loops(seed_batch):
    failures = [line for run in seed_batch for line in run["loops"]]
    report(
        "criterion 4: no completion-created node carries a self-loop",
        not failures,
        f"200 runs" + (f"; first: {failures[0]}" if failures else ""),
    )


def test_criterion_7_end_extension_monotonicity(seed_batch):
    level_failures = [line for run in seed_batch for line in run["monotonicity"]]

    # Second half: growing a code spec only end-extends its completion.
    rng = random.Random(RNG_SEED + 7)
    budget = Budget(max_subsets_enumerated=600)
    pair_failures = []
    pairs = 0
    while pairs < 12:
        t_spec = random_loop_spec(rng)
        if len(t_spec.tuples) < 2:
            continue
        keep = rng.randint(1, len(t_spec.tuples) - 1)
        s_tuples = tuple(
            t_spec.tuples[j]
            for j in sorted(rng.sample(range(len(t_spec.tuples)), keep))
        )
        s_spec = CodeSpec(
            atoms=t_spec.atoms,
            naturals_up_to=t_spec.naturals_up_to,
            tuples=s_tuples,
            code_style="loop",
        )
        s_graph = assemble(s_spec).graph
        t_graph = assemble(t_spec).graph
        lv = min(
            affordable_levels(len(s_graph.nodes), 2, budget),
            affordable_levels(len(t_graph.nodes), 2, budget),
        )
        small = complete(s_graph, lv, DEFAULT_BUDGET).graph
        big = complete(t_graph, lv, DEFAULT_BUDGET).graph
        pairs += 1
        if not is_end_extension(small, big):
            pair_failures.append(f"pair {pairs}: {keep}/{len(t_spec.tuples)} tuples, {lv} levels")
    report(
        "criterion 7: levels end-extend each other, and spec growth "
        "end-extends equal-level completions",
        not level_failures and not pair_failures,
        f"{sum(len(r['monotonicity']) for r in seed_batch) or 'no'} level violations, "
        f"{pairs} spec pairs"
        + (f"; first: {(level_failures + pair_failures)[0]}" if level_failures or pair_failures else ""),
    )


# -- criterion 5: loop codes stay definable -----------------------------------


def test_criterion_5_loop_codes_definable():
    rng = random.Random(RNG_SEED + 5)
    budget = Budget(max_subsets_enumerated=300)
    failures = []
    completed = 0
    for i in range(24):
        spec = random_loop_spec(rng, small=i % 2 == 0)
        seed = assemble(spec)
        lv = affordable_levels(len(seed.graph.nodes), 2, budget)
        g = complete(seed.graph, lv, DEFAULT_BUDGET).graph if lv else seed.graph
        completed += 1 if lv else 0
        got = define_class(g, quine_code_formula())
        want = seed.index.tuple_node_set()
        if got != want:
            failures.append(
                f"spec {i}: selected {sorted(got ^ want)} wrongly"
            )
    report(
        "criterion 5: the self-loop code formula defines exactly the "
        "guarded tuple nodes after assembly and completion",
        not failures,
        f"24 specs, {completed} with a completion step"
        + (f"; first: {failures[0]}" if failures else ""),
    )


# -- criterion 6: chain codes and depth/rank certificates ----------------------


def minimal_member_ok(g: ExtensionalDigraph, x, w) -> bool:
    return w in g.extensions[x] and not (g.extensions[w] & g.extensions[x])


def restricted(du: AnnotatedGraph, part: frozenset) -> AnnotatedGraph:
    """The certificate ``du`` on ``part``, a node set closed under
    membership."""
    depth = {x: du.depth[x] for x in part}
    rank = {x: du.rank[x] for x in part if x in du.rank}
    return AnnotatedGraph(du.graph.restrict(part), depth=depth, rank=rank, top=du.top)


def test_criterion_6_chain_certificates():
    rng = random.Random(RNG_SEED + 6)
    budget = Budget(max_subsets_enumerated=4096)
    failures = []
    completed = 0
    for i in range(20):
        spec = random_chain_spec(rng)
        seed = assemble(spec)
        lv = affordable_levels(len(seed.graph.nodes), 2, budget)
        du = dred_complete(seed.dred, lv, budget)
        completed += 1 if lv else 0
        for level in range(len(du.levels)):
            rep = verify_dred(du.level(level))
            if not rep.ok:
                failures.append(
                    f"spec {i} level {level}: {rep.violations[0].condition}"
                )
        if not check_axiom(du.graph, "foundation_minimal").holds:
            failures.append(f"spec {i}: foundation probe failed")
        # foundation_witness verifies the whole record it is given, so
        # each node's witness is asked of the least record that holds
        # the node: the seed for a seed node, else the level below the
        # node's own, which holds its members, with the node added.
        for level, nodes in enumerate(du.levels):
            below = du.levels[level - 1] if level else frozenset()
            for x in sorted(nodes - below):
                if not du.graph.extensions[x]:
                    continue
                w = foundation_witness(restricted(du, below | {x} if level else nodes), x)
                if not minimal_member_ok(du.graph, x, w):
                    failures.append(f"spec {i}: bad witness {w!r} for {x!r}")

    # Negative control: a self-membered atom has no minimal member.
    control = quine_atoms(["q"])
    probe = check_axiom(control, "foundation_minimal")
    control_ok = not probe.holds and probe.witness == tuple(control.nodes)

    report(
        "criterion 6: depth/rank conditions verify at every level, the "
        "foundation probe holds, witnesses are minimal members, and the "
        "self-membered control fails with the atom as witness",
        not failures and control_ok,
        f"20 specs, {completed} with a completion step"
        + ("" if control_ok else "; control misbehaved")
        + (f"; first: {failures[0]}" if failures else ""),
    )


# -- criterion 8: logic engine and budget surfacing ----------------------------


def cli(argv, stdin_text=""):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    finally:
        sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_criterion_8_logic_agreement_and_budget_exit():
    rng = random.Random(RNG_SEED + 8)
    eval_mismatches = 0
    for _ in range(1000):
        g = random_extensional_graph(rng, 6, min_nodes=1)
        f = random_closed_formula(rng, depth=3)
        if eval_formula(g, f) != naive_eval(g, f, {}):
            eval_mismatches += 1
    round_trip_failures = 0
    for _ in range(1000):
        f = random_formula(rng, depth=4, bound=("x", "y"))
        if parse(print_formula(f)) != f:
            round_trip_failures += 1

    code, doc, _ = cli(["seed", "vN", "3"])
    budget_exit = None
    if code == 0:
        budget_exit, _, err = cli(
            ["complete", "--levels", "3", "--budget", "1000000"], doc
        )
    report(
        "criterion 8: evaluator matches the naive recursion on 1000 "
        "formulas, 1000 print/parse round trips are exact, and the "
        "documented over-budget pipeline exits 2",
        eval_mismatches == 0 and round_trip_failures == 0 and budget_exit == 2,
        f"{eval_mismatches} eval mismatches, {round_trip_failures} round-trip "
        f"failures, budget exit {budget_exit}",
    )
