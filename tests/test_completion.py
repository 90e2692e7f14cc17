"""Deficiency, completion levels, budgets, and the witness suite."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import replace

import pytest

from setforge import (
    Budget,
    BudgetExceededError,
    Deficiency,
    AnnotatedGraph,
    ExtensionalDigraph,
    NonExtensionalError,
    SchemaError,
    SetforgeError,
    UnknownNodeError,
    WitnessFailure,
    WitnessReport,
    complete,
    complete_step,
    deficiency,
    deserialize,
    dred_complete,
    dred_from_graph,
    eval_formula,
    quine_atoms,
    serialize,
    subset_node_id,
    von_neumann_seed,
    witness_report,
)

import setforge
from setforge import completion, dred

from setforge.logic import And, Equal, Exists, ForAll, Formula, Iff, Implies, Member, Not, Or

from helpers import (
    affordable_levels,
    is_end_extension,
    is_extensional,
    naive_eval,
    random_extensional_graph,
    reference_witness_report,
)


def members_of(subsets):
    return {frozenset(m) for m in subsets}


def test_deficiency_empty_graph():
    assert members_of(deficiency(ExtensionalDigraph.empty())) == {frozenset()}


def test_deficiency_single_quine_atom():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    # {a} is represented by a itself, the empty set is not represented
    assert members_of(deficiency(g)) == {frozenset()}


def test_deficiency_two_node_chain():
    g = ExtensionalDigraph.from_extensions({"e": set(), "s": {"e"}})
    assert members_of(deficiency(g)) == {frozenset({"s"}), frozenset({"e", "s"})}


def test_deficiency_result_is_sorted_canonically():
    g = ExtensionalDigraph.from_extensions({"b": set(), "a": {"b"}})
    out = deficiency(g)
    assert out == sorted(out)
    assert all(tuple(sorted(m)) == m for m in out)


def test_deficiency_agrees_with_brute_force():
    """The half-width doubling tables against subsets drawn by size:
    the same sorted tuples, in the same lexicographic order."""
    rng = random.Random(13)
    for _ in range(40):
        g = random_extensional_graph(rng, 6)
        nodes = sorted(g.nodes)
        represented = set(g.extensions.values())
        expected = sorted(
            subset
            for size in range(len(nodes) + 1)
            for subset in itertools.combinations(nodes, size)
            if frozenset(subset) not in represented
        )
        assert deficiency(g) == expected


def test_deficiency_rejects_non_extensional_input():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": set()})
    with pytest.raises(NonExtensionalError):
        deficiency(g)


def test_deficiency_budget_guard():
    g = random_extensional_graph(random.Random(1), 6, min_nodes=6)
    with pytest.raises(BudgetExceededError):
        deficiency(g, Budget(max_subsets_enumerated=2**5))


def test_complete_step_sizes_from_empty():
    u0 = complete(ExtensionalDigraph.empty(), 0)
    u1 = complete_step(u0)
    assert len(u1.graph.nodes) == 1
    u2 = complete_step(u1)
    assert len(u2.graph.nodes) == 2


def test_complete_empty_four_levels():
    u = complete(ExtensionalDigraph.empty(), 4)
    assert [len(level) for level in u.levels] == [0, 1, 2, 4, 16]


def test_complete_quine_two_levels():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    u = complete(g, 2)
    assert [len(level) for level in u.levels] == [1, 2, 4]


def test_complete_budget_tower_blowup():
    seed = von_neumann_seed(3)
    with pytest.raises(BudgetExceededError):
        complete(seed, 3, Budget(max_subsets_enumerated=10**6))


def over_budget_message(nodes, bound):
    return (
        f"deficiency of a {nodes}-node graph needs 2**{nodes} subset enumerations, "
        f"over the budget of {bound}"
    )


@pytest.fixture
def counted_steps(monkeypatch):
    """Counts calls to ``complete_step`` wherever completion looks it up."""
    calls = []
    original = completion.complete_step

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(completion, "complete_step", counting)
    monkeypatch.setattr(dred, "complete_step", counting)
    return calls


def test_complete_prices_the_request_before_the_first_step(counted_steps):
    # The seed is itself three steps from the empty graph; they are not
    # the request's.
    g = von_neumann_seed(3)
    counted_steps.clear()
    # Two steps fit (4 -> 16 -> 65,536 nodes); the third would enumerate
    # 2**65536 subsets. Nothing is built.
    with pytest.raises(BudgetExceededError) as caught:
        complete(g, 3, Budget(10**6))
    assert str(caught.value) == over_budget_message(65536, 10**6)
    assert counted_steps == []
    # An affordable request still runs every step.
    u = complete(g, 1, Budget(10**6))
    assert [len(level) for level in u.levels] == [4, 16]
    assert len(counted_steps) == 1


def test_dred_complete_prices_the_request_before_the_first_step(counted_steps):
    h = dred_from_graph(von_neumann_seed(3))
    counted_steps.clear()
    with pytest.raises(BudgetExceededError) as caught:
        dred_complete(h, 2, Budget(10**4))
    assert str(caught.value) == over_budget_message(16, 10**4)
    assert counted_steps == []


def test_up_front_refusal_matches_the_refusing_step():
    """The message is the one the refused step itself raises."""
    u = complete(von_neumann_seed(3), 1)
    with pytest.raises(BudgetExceededError) as by_step:
        complete_step(u, Budget(10**4))
    with pytest.raises(BudgetExceededError) as up_front:
        complete(von_neumann_seed(3), 2, Budget(10**4))
    assert str(up_front.value) == str(by_step.value) == over_budget_message(16, 10**4)


def test_non_extensional_input_is_refused_before_pricing():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": set()})
    with pytest.raises(NonExtensionalError):
        complete(g, 5, Budget(1))


def test_complete_levels_are_end_extensions():
    rng = random.Random(5)
    for _ in range(20):
        g = random_extensional_graph(rng, 3)
        u = complete(g, 2)
        for m in range(len(u.levels)):
            for n in range(m, len(u.levels)):
                assert is_end_extension(u.level(m).graph, u.level(n).graph)


def test_complete_adds_no_self_loops():
    rng = random.Random(6)
    for _ in range(30):
        g = random_extensional_graph(rng, 3)
        u = complete(g, 2)
        for x in u.graph.nodes - u.levels[0]:
            assert x not in u.graph.extensions[x], f"new node {x} is self-membered"


def test_complete_preserves_extensionality():
    rng = random.Random(7)
    for _ in range(30):
        g = random_extensional_graph(rng, 4)
        assert is_extensional(complete(g, 1).graph)


def test_growth_arithmetic_on_small_seeds():
    """One step grows an n-node graph to size n + (2^n - r).

    r is recomputed here by brute force; since extensions are pairwise
    distinct subsets of the node set, r always equals n and each step
    lands exactly on 2^n.
    """
    rng = random.Random(8)
    for _ in range(25):
        g = random_extensional_graph(rng, 4)
        n = len(g.nodes)
        represented = 0
        nodes = sorted(g.nodes)
        for mask in range(2**n):
            subset = frozenset(nodes[i] for i in range(n) if mask >> i & 1)
            if any(g.extensions[x] == subset for x in nodes):
                represented += 1
        u = complete(g, 1)
        assert len(u.levels[1]) == n + 2**n - represented
        assert len(u.levels[1]) == 2**n


def test_complete_is_deterministic():
    g = random_extensional_graph(random.Random(9), 4)
    a = complete(g, 2)
    b = complete(g, 2)
    assert a.graph == b.graph
    assert a.levels == b.levels


def test_new_nodes_carry_deficiency_provenance():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    u = complete(g, 2)
    for n in (1, 2):
        for x in u.levels[n] - u.levels[n - 1]:
            p = u.graph.provenance[x]
            assert isinstance(p, Deficiency)
            assert p.level == n


def test_a_stamp_no_node_takes_repeats_the_level_below_and_one_past_the_node_count_is_refused():
    """A level that no node is stamped with is the level below it
    again, and the completion reads back.  A stamp past the node count
    names more levels than a completion of that many nodes makes, and
    is refused before any level is built."""
    extensions = {"a": (), "b": ("a",), "c": ("a", "b")}
    g = ExtensionalDigraph.from_extensions(extensions, {"c": Deficiency(level=3)})
    u = complete(g, 1)
    assert u.levels[:4] == (frozenset("ab"),) * 3 + (g.nodes,)
    assert {u.graph.provenance[x] for x in u.levels[4] - g.nodes} == {Deficiency(level=4)}
    assert deserialize(serialize(u)).levels == u.levels
    g = ExtensionalDigraph.from_extensions(extensions, {"c": Deficiency(level=4)})
    with pytest.raises(SetforgeError, match="no completion of 3 nodes stamps deficiency level 4"):
        complete(g, 0)


# Non-ASCII ids and ids holding the separator "\x1f" that
# subset_node_id joins with; no two subsets of them join alike.
ODD_NAMES = ["n", "é", "ø", "ü", "日本", "\x1fa", "b\x1f", "😀", "c\x1fd"]


def renamed(g: ExtensionalDigraph, names: list[str]) -> ExtensionalDigraph:
    """``g`` with its sorted nodes renamed to ``names`` in turn."""
    to = dict(zip(g.sorted_nodes(), names))
    return ExtensionalDigraph.from_extensions(
        {to[x]: {to[m] for m in ext} for x, ext in g.extensions.items()}
    )


def assert_added_ids_are_subset_node_ids(u: AnnotatedGraph) -> None:
    extensions = u.graph.extensions
    added = u.graph.nodes - u.levels[0]
    assert added
    for x in added:
        assert x == subset_node_id(sorted(extensions[x]))


def random_well_founded_graph(rng: random.Random, n: int) -> ExtensionalDigraph:
    """An extensional graph on ``n`` nodes where node ``i`` has members
    below ``i`` only."""
    while True:
        masks = [rng.getrandbits(i) for i in range(n)]
        if len(set(masks)) == n:
            names = [f"w{i}" for i in range(n)]
            return ExtensionalDigraph.from_extensions(
                {x: {names[j] for j in range(i) if masks[i] >> j & 1} for i, x in enumerate(names)}
            )


def test_complete_ids_agree_with_subset_node_id():
    """The ids hashed from shared half states against subset_node_id,
    over 0 to 9 nodes, so that both halves are empty, equal or one
    apart, and over ids that are not ASCII or hold the separator."""
    rng = random.Random(28)
    assert_added_ids_are_subset_node_ids(complete(ExtensionalDigraph.empty(), 4))
    for n in range(10):
        for _ in range(3):
            g = random_extensional_graph(rng, n, min_nodes=n)
            for h in (g, renamed(g, ODD_NAMES)):
                assert_added_ids_are_subset_node_ids(complete(h, 2 if n <= 3 else 1))


def test_dred_complete_ids_agree_with_subset_node_id():
    rng = random.Random(29)
    for n in range(10):
        g = random_well_founded_graph(rng, n)
        for h in (g, renamed(g, ODD_NAMES)):
            u = dred_complete(dred_from_graph(h), 2 if n <= 3 else 1)
            assert_added_ids_are_subset_node_ids(u)


def test_complete_step_adds_its_nodes_in_mask_order():
    """The step's extension map holds the input's nodes in their order,
    then one new node per deficiency mask over the sorted nodes, in
    ascending mask order; complete_step reads its new nodes so when it
    extends a certificate."""
    rng = random.Random(37)
    for n in range(9):
        g = random_extensional_graph(rng, n, min_nodes=n)
        for h in (g, renamed(g, ODD_NAMES)):
            nodes, masks = completion._deficiency_masks(h, completion.DEFAULT_BUDGET)
            assert masks == sorted(masks)
            ids = list(complete_step(AnnotatedGraph(h, levels=(h.nodes,))).graph.extensions)
            assert ids[: len(h)] == list(h.extensions)
            assert ids[len(h) :] == [
                subset_node_id(x for i, x in enumerate(nodes) if mask >> i & 1) for mask in masks
            ]


def test_complete_sizes_extensions_and_nodes_by_their_count():
    """Level 2 of von Neumann stage 3 splits its 16 nodes 8/8.  Each new
    extension is the union of its halves' sets, which is sized from its
    member count: never larger than the set a member tuple builds by
    insertion, and smaller over the level.  The node set of the 65,536
    ids is sized as an insertion sizes it, not twice over as a dict
    argument is."""
    u = complete(von_neumann_seed(3), 2)
    g = u.graph
    exts = [g.extensions[x] for x in u.levels[2] - u.levels[1]]
    built = [sys.getsizeof(ext) for ext in exts]
    inserted = [sys.getsizeof(frozenset(tuple(sorted(ext)))) for ext in exts]
    assert all(b <= i for b, i in zip(built, inserted))
    assert sum(built) < sum(inserted)
    assert sys.getsizeof(g.nodes) <= sys.getsizeof(frozenset(sorted(g.nodes)))


def test_complete_step_on_a_record_without_a_certificate_adds_none():
    """A record without a depth/rank certificate, or with only a part of
    one, comes back with its graph and levels only."""
    g = von_neumann_seed(2)
    levels = (g.nodes,)
    depth = {x: 0 for x in g.nodes}
    rank = {x: i for i, x in enumerate(sorted(g.nodes))}
    for u in (
        AnnotatedGraph(g, levels=levels),
        AnnotatedGraph(g, levels=levels, depth=depth),
        AnnotatedGraph(g, levels=levels, rank=rank, top=1),
    ):
        step = complete_step(u)
        assert (step.depth, step.rank, step.top) == (None, None, None)
        assert step == AnnotatedGraph(step.graph, levels=(g.nodes, step.graph.nodes))
        assert len(step.graph) == 4


def test_complete_encodes_only_the_ids_of_missing_subsets():
    """A lone surrogate has no UTF-8 bytes.  Where every subset holding
    it is represented, in the low half of the sorted nodes or in the
    high one, completion never hashes it; where a missing subset holds
    it, completion fails as subset_node_id does."""
    for g in (
        ExtensionalDigraph.from_extensions({"\ud800": {"\ud800"}, "b": {"\ud800", "b"}}),
        ExtensionalDigraph.from_extensions({"\ud800": {"\ud800"}, "\ue000": {"\ud800", "\ue000"}}),
    ):
        assert len(complete(g, 1).graph) == 4
    g = ExtensionalDigraph.from_extensions({"\ud800": set(), "b": {"\ud800", "b"}})
    assert frozenset({"\ud800"}) in members_of(deficiency(g))
    with pytest.raises(UnicodeEncodeError):
        subset_node_id(["\ud800"])
    with pytest.raises(UnicodeEncodeError):
        complete(g, 1)


def test_complete_refuses_a_generated_id_that_names_another_node():
    """A quine atom named like the empty set: the empty subset is
    missing, and its id is taken by a node of another extension."""
    empty = subset_node_id([])
    assert empty == "set:b8e1dda3ac0aa3820ad2990b"
    g = ExtensionalDigraph.from_extensions({empty: {empty}})
    with pytest.raises(SetforgeError) as caught:
        complete(g, 1)
    assert type(caught.value) is SetforgeError
    assert str(caught.value) == (
        "generated id 'set:b8e1dda3ac0aa3820ad2990b' collides with an existing node "
        "of different extension"
    )


def test_leveled_universe_validates_nesting():
    g = ExtensionalDigraph.from_extensions({"a": set()})
    with pytest.raises(ValueError, match="top level must equal the graph's node set"):
        AnnotatedGraph(graph=g, levels=(frozenset({"a"}), frozenset()))
    # A hand-built top level is compared by value, not by identity.
    assert AnnotatedGraph(graph=g, levels=(frozenset({"a"}),)).levels == (g.nodes,)


def test_level_graph_rejects_a_level_not_closed_under_membership():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a"}})
    u = AnnotatedGraph(graph=g, levels=(frozenset({"b"}), frozenset({"a", "b"})))
    with pytest.raises(UnknownNodeError, match=r"extension of 'b' mentions unknown nodes \['a'\]"):
        u.level(0).graph


def test_an_open_level_names_its_least_offender_under_every_hash_seed():
    """Which of several nodes leaving a level is named does not hang on
    the order a set of ids iterates in, which varies with the hash seed."""
    script = (
        "from setforge import AnnotatedGraph, ExtensionalDigraph\n"
        "g = ExtensionalDigraph.from_extensions({'a': (), 'b': 'a', 'c': 'a', 'd': 'a'})\n"
        "u = AnnotatedGraph(graph=g, levels=(frozenset('bcd'), frozenset('abcd')))\n"
        "try:\n"
        "    u.level(0)\n"
        "except Exception as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    src = str(pathlib.Path(setforge.__file__).resolve().parents[1])
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "UnknownNodeError extension of 'b' mentions unknown nodes ['a']\n", seed


def test_level_is_the_record_at_the_top_and_a_restriction_below():
    du = dred_complete(dred_from_graph(von_neumann_seed(2)), 2)
    top = len(du.levels) - 1
    assert du.level(top) is du
    for n in range(top):
        part = du.levels[n]
        low = du.level(n)
        assert low.graph == du.graph.restrict(part) and low.graph.nodes == part
        assert low.levels == du.levels[: n + 1]
        assert low.depth == {x: du.depth[x] for x in part}
        assert low.rank == {x: r for x, r in du.rank.items() if x in part}
        assert (low.top, low.formulas) == (du.top, du.formulas)


def random_bounded_formula(rng: random.Random, depth: int, scope: tuple) -> Formula:
    """A random formula over the variables in ``scope`` whose every
    quantifier is bounded by membership in a variable already in scope:
    ``exists v. (v in u & ...)`` or ``all v. ((v in u) -> ...)``, each
    over a fresh ``v``, so that the evaluator loops over ``ext[u]``."""
    if depth == 0 or rng.random() < 0.25:
        a, b = rng.choice(scope), rng.choice(scope)
        return Member(a, b) if rng.random() < 0.7 else Equal(a, b)
    roll = rng.random()
    if roll < 0.45:
        v, u = f"v{len(scope)}", rng.choice(scope)
        body = random_bounded_formula(rng, depth - 1, scope + (v,))
        if rng.random() < 0.5:
            return Exists(v, And(Member(v, u), body))
        return ForAll(v, Implies(Member(v, u), body))
    if roll < 0.55:
        return Not(random_bounded_formula(rng, depth - 1, scope))
    return rng.choice((And, Or, Implies, Iff))(
        random_bounded_formula(rng, depth - 1, scope),
        random_bounded_formula(rng, depth - 1, scope),
    )


def test_bounded_formulas_keep_their_value_in_every_higher_level():
    """Delta-0 absoluteness: each level is closed under membership and
    each higher level end-extends it, so a formula whose quantifiers
    are all bounded by membership in a variable has the same value on
    a level and on every higher one, with parameters from the lower
    level; and that value is ``naive_eval``'s on the lower level.  A
    quantifier over containers is not bounded so: ``exists v. (p in v)``
    gains witnesses higher up, so the property is not vacuous."""
    rng = random.Random(26)
    checks = 0
    gained = 0
    container = Exists("v", Member("p", "v"))
    for _ in range(12):
        u = complete(random_extensional_graph(rng, 3, min_nodes=1), 2)
        parts = [u.level(n).graph for n in range(len(u.levels))]
        for m in range(len(parts) - 1):
            params = sorted(parts[m].nodes)
            for p in params:
                values = {eval_formula(g, container, {"p": p}) for g in parts[m:]}
                gained += len(values) > 1
            for _ in range(25):
                f = random_bounded_formula(rng, 3, ("x", "y"))
                env = {"x": rng.choice(params), "y": rng.choice(params)}
                want = naive_eval(parts[m], f, env)
                for g in parts[m:]:
                    assert eval_formula(g, f, env) == want, (f, env)
                    checks += 1
    assert checks >= 600 and gained > 0


def test_level_of_a_record_without_levels_names_the_block():
    h = AnnotatedGraph(graph=ExtensionalDigraph.from_extensions({"a": set()}))
    with pytest.raises(SchemaError, match="^levels: document has no levels block$"):
        h.level(0)


def test_level_outside_the_levels_names_the_range():
    u = complete(ExtensionalDigraph.from_extensions({"a": {"a"}}), 2)
    for n in (-1, 3, 5):
        with pytest.raises(IndexError, match=rf"^level {n} is outside 0\.\.2$"):
            u.level(n)
    assert u.level(2).graph == u.graph


def test_budget_must_be_positive():
    with pytest.raises(Exception):
        Budget(max_subsets_enumerated=0)


def test_affordable_levels_arithmetic():
    # empty seed: sizes 1, 2, 4, 16, 65536; the sixth level would need
    # 2^65536 subset enumerations
    assert affordable_levels(0, 10) == 5
    # four-node seed: 16 then 65536, then the wall
    assert affordable_levels(4, 3) == 2
    assert affordable_levels(4, 1) == 1
    assert affordable_levels(2, 2, Budget(max_subsets_enumerated=3)) == 0


def test_witness_report_complete_empty():
    u = complete(ExtensionalDigraph.empty(), 4)
    report = witness_report(u)
    assert report.ok
    checked_levels = {n for n, _ in report.checked}
    assert {0, 1, 2} <= checked_levels


def test_witness_report_complete_quine():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    report = witness_report(complete(g, 3))
    assert report.ok
    assert not report.failures


def test_witness_report_requires_three_levels():
    u = complete(ExtensionalDigraph.empty(), 1)
    with pytest.raises(SchemaError, match="^levels: witness report needs at least 3 levels$"):
        witness_report(u)


def test_witness_report_detects_missing_subset_node():
    """Hand-built truncation: r = {p, q} at level 2, but no node for the
    subset {q} ever appears at level 3."""
    g = ExtensionalDigraph.from_extensions(
        {"p": set(), "q": {"p"}, "r": {"p", "q"}, "t": {"r"}},
        {
            "q": Deficiency(level=1),
            "r": Deficiency(level=2),
            "t": Deficiency(level=3),
        },
    )
    u = AnnotatedGraph(
        graph=g,
        levels=(
            frozenset({"p"}),
            frozenset({"p", "q"}),
            frozenset({"p", "q", "r"}),
            frozenset({"p", "q", "r", "t"}),
        ),
    )
    report = witness_report(u)
    assert not report.ok
    subset_failures = [f for f in report.failures if f.clause == "subsets"]
    assert subset_failures, report.failures
    assert any("q" in f.detail for f in subset_failures)


def random_leveled_record(rng: random.Random) -> AnnotatedGraph:
    """A small record with three or four levels: random extensions, half
    the time a twin that repeats one of them, and for some nodes a node
    whose extension is every node below theirs, so that power-set
    clauses hold as well as fail, on extensional records and others."""
    names = [f"n{i}" for i in range(rng.randint(1, 6))]
    ext = {x: frozenset(y for y in names if rng.random() < 0.4) for x in names}
    if rng.random() < 0.5:
        ext["twin"] = ext[rng.choice(names)]
    for x in rng.sample(names, rng.randint(0, len(names))):
        ext[f"p{x}"] = frozenset(z for z in ext if ext[z] <= ext[x])
    height = rng.randint(3, 4)
    rank = {x: rng.randrange(height) for x in ext}
    levels = tuple(frozenset(x for x in ext if rank[x] <= k) for k in range(height - 1))
    return AnnotatedGraph(ExtensionalDigraph.from_extensions(ext), (*levels, frozenset(ext)))


def last_per_clause(report: WitnessReport) -> WitnessReport:
    """``report`` with only the last failure of each (level, clause),
    beside the number of its failures, in ``checked`` order."""
    kept: dict[tuple[int, str], WitnessFailure] = {}
    for f in report.failures:
        earlier = kept.get((f.level, f.clause))
        kept[f.level, f.clause] = replace(f, count=earlier.count + 1 if earlier else 1)
    return WitnessReport(report.checked, tuple(kept[key] for key in report.checked if key in kept))


def test_witness_report_agrees_with_the_scanning_reference():
    """The power-set clause names the nodes of a node's subsets table on
    extensional records and scans elsewhere; every report equals the
    reference's, which always scans and keeps every failure, reduced to
    the last failure of each clause and their number."""
    rng = random.Random(41)
    records = [random_leveled_record(rng) for _ in range(400)]
    records += [complete(random_extensional_graph(rng, 3), 2) for _ in range(10)]
    records.append(complete(von_neumann_seed(2), 3))
    records.append(flat_levels(complete(quine_atoms([f"a{i}" for i in range(8)]), 1).graph))
    held = {True: 0, False: 0}
    for u in records:
        report = witness_report(u)
        assert report == last_per_clause(reference_witness_report(u))
        extensional = len(set(u.graph.extensions.values())) == len(u.graph.nodes)
        checks = sum(len(u.levels[n]) for n in range(len(u.levels) - 2))
        failed = sum(f.count for f in report.failures if f.clause == "power_set")
        held[extensional] += checks - failed
    # Power-set clauses that hold, on both kinds of record.
    assert held[True] > 50 and held[False] > 50, held


def flat_levels(g: ExtensionalDigraph) -> AnnotatedGraph:
    """``g`` with three levels that all hold every node."""
    return AnnotatedGraph(g, levels=(g.nodes,) * 3)


def test_witness_report_keeps_the_last_failure_of_each_clause_and_counts_them():
    """Twelve quine atoms and a node ``whole`` of all of them, on three
    flat levels: no node is empty, and of the 4,096 subsets of ``whole``
    only the atoms and ``whole`` itself are nodes, so 12 + 4,083 subsets
    are missing at each checked level, the last one all atoms but the
    first."""
    atoms = quine_atoms([f"a{i:02d}" for i in range(12)])
    extensions = {**atoms.extensions, "whole": atoms.nodes}
    u = flat_levels(ExtensionalDigraph.from_extensions(extensions, atoms.provenance))
    report = witness_report(u)
    assert report == last_per_clause(reference_witness_report(u))
    rest = ", ".join(f"atom:a{i:02d}" for i in range(1, 12))
    assert [f for f in report.failures if f.clause == "subsets"] == [
        WitnessFailure(n, "subsets", f"subset {{{rest}}} of whole missing at level {n + 1}", 4095)
        for n in (0, 1)
    ]


def test_witness_report_price_at_the_budget_and_one_past_it(monkeypatch):
    """Two checked levels of 20 memberless nodes take 210 pairs and 20
    subsets each, 460 checks in all."""
    u = flat_levels(ExtensionalDigraph.from_extensions({f"e{i}": set() for i in range(20)}))
    assert witness_report(u).checked
    monkeypatch.setattr(completion, "DEFAULT_MAX_SUBSETS", 2 * (210 + 20))
    assert witness_report(u).checked
    monkeypatch.setattr(completion, "DEFAULT_MAX_SUBSETS", 2 * (210 + 20) - 1)
    with pytest.raises(BudgetExceededError, match="needs at least 460 pair and subset checks"):
        witness_report(u)


def test_level_graph_restriction():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    u = complete(g, 2)
    lg = u.level(1).graph
    assert lg.nodes == u.levels[1]
    for x in lg.nodes:
        assert lg.extensions[x] == u.graph.extensions[x]
