"""Reference model: interned set values, HF stages, decoration, comparison."""

import contextlib
import gc
import io
import itertools
import json
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setforge import (
    AtomDecl,
    Budget,
    BudgetExceededError,
    CodeSpec,
    DecorationError,
    Deficiency,
    ExtensionalDigraph,
    NonExtensionalError,
    Seed,
    SetforgeError,
    SizeLimitError,
    TupleDecl,
    assemble,
    atom,
    collection,
    compare,
    complete,
    decorate,
    define_class,
    eval_formula,
    free_variables,
    is_isomorphic,
    loop_code,
    oracle_complete,
    quine_atoms,
    value_extension,
    von_neumann_seed,
)
from setforge import cli, oracle
from setforge.cli import main
from setforge.graph import _provenance_colour

import helpers
from helpers import (
    key_syntax_seed,
    print_formula,
    random_decorable_graph,
    random_extensional_graph,
    random_formula,
    reference_is_isomorphic,
    reference_oracle_complete,
)
from test_logic import random_guarded_formula


# -- value construction and interning ----------------------------------------


def test_atoms_are_interned():
    assert atom("a") is atom("a")
    assert atom("a") is not atom("b")


def test_intern_table_keeps_only_values_something_holds():
    gc.collect()
    start = len(oracle._registry)
    oracle_complete(von_neumann_seed(2), 2)
    oracle_complete(quine_atoms(["a", "b"]), 1)
    gc.collect()
    assert len(oracle._registry) == start
    held = atom("held")
    gc.collect()
    assert atom("held") is held
    assert len(oracle._registry) == start + 1


def test_intern_table_shrinks_back_after_a_command_with_the_collector_paused(
    monkeypatch, capsys
):
    gc.collect()
    start = len(oracle._registry)
    document = json.dumps(
        {
            "format_version": 1,
            "nodes": [
                {"id": "q", "provenance": {"kind": "seed", "label": "q"}},
                {"id": "t", "provenance": {"kind": "seed", "label": "t"}},
            ],
            "edges": [["q", "q"], ["t", "q"]],
        }
    )
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    assert main(["oracle-compare", "--levels", "2", "--porcelain"]) == 0
    assert capsys.readouterr().out == "oracle\tisomorphic\tisomorphic\n"
    gc.collect()
    assert len(oracle._registry) == start


def test_only_the_decoration_is_interned(monkeypatch):
    """Stage values skip the intern table; ``decorate`` interns its
    values, members included, so ``collection`` rebuilds each one as
    the very same object."""
    g = quine_atoms(["a", "b"])
    decoration = sorted(v.key for v in decorate(g).values())
    interned = []
    intern = oracle._intern

    def counting(value):
        interned.append(value.key)
        return intern(value)

    monkeypatch.setattr(oracle, "_intern", counting)
    assert len(oracle_complete(g, 2)) == 16
    assert sorted(interned) == decoration

    def rebuild(v):
        if isinstance(v, oracle.Atom):
            return atom(v.label)
        return collection(map(rebuild, v.members))

    for seed in (von_neumann_seed(4), complete(g, 1).graph):
        values = decorate(seed).values()
        assert all(rebuild(v) is v for v in values)


def test_collections_are_interned():
    empty = collection([])
    assert empty is collection([])
    assert collection([empty]) is collection([empty, empty])


def test_singleton_of_atom_collapses():
    a = atom("a")
    assert collection([a]) is a
    assert value_extension(a) == {a}


def test_loop_code_extension_contains_itself():
    p = collection([])
    code = loop_code("c", [p])
    assert value_extension(code) == {code, p}
    assert collection([code, p]) is code  # same collapse rule as atoms


def test_pair_does_not_collapse():
    a, b = atom("a"), atom("b")
    pair = collection([a, b])
    assert value_extension(pair) == {a, b}
    assert pair is not a and pair is not b


# -- hereditarily finite stages ----------------------------------------------


def hf_stage(k: int) -> ExtensionalDigraph:
    """The k-th stage of the hereditarily finite universe."""
    return oracle_complete(ExtensionalDigraph.empty(), k)


def test_hf_stage_zero():
    assert len(hf_stage(0)) == 0
    assert len(oracle_complete(quine_atoms(["a"]), 0)) == 1


def test_hf_stage_sizes_pure():
    assert [len(hf_stage(k)) for k in range(1, 5)] == [1, 2, 4, 16]


def test_hf_stages_nest():
    assert hf_stage(2).nodes < hf_stage(3).nodes < hf_stage(4).nodes


def test_hf_one_atom_collapse():
    # {a} collapses onto the atom a, so stage 1 adds only the empty set
    assert oracle_complete(quine_atoms(["a"]), 1).nodes == {"atom:a", "hf:{}"}


def test_hf_universe_matches_reference_stages():
    # The pure stages 0-4, and stages 0-3 over one and two quine atoms.
    cases = [(ExtensionalDigraph.empty(), k) for k in range(5)]
    cases += [(quine_atoms(atoms), k) for atoms in (["a"], ["a", "b"]) for k in range(4)]
    for g, k in cases:
        expected = oracle_outcome(reference_oracle_complete, g, k)
        assert oracle_outcome(oracle_complete, g, k) == expected, (sorted(g.nodes), k)


def test_a_stage_skips_extensions_that_reach_outside_its_values():
    """{{}} without {}: the extension of {{}} is not among the values,
    so it represents none of their subsets and is skipped."""
    singleton = collection([collection([])])
    fresh = oracle._one_stage([singleton], Budget(), "stage 1")
    assert len(fresh) == 2 and list(fresh) == list(fresh) == [(), (0,)]


def test_oracle_stages_hold_no_stage_subsets():
    """On the compare workload's 4-node shape (d1 self-looped,
    d2 = {d0}, d3 = {d0, d1}) at 2 levels, stage 2 adds 65,520 subsets;
    held as position tuples they take about 7.4 MB.  Drawn, each as it
    is walked, the stages cost under 1 MB to build and to hold."""
    g = ExtensionalDigraph.from_extensions(
        {"d0": set(), "d1": {"d1"}, "d2": {"d0"}, "d3": {"d0", "d1"}}
    )
    tracemalloc.start()
    try:
        values = oracle.oracle_stages(g, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(stage) for stage in values.stages] == [12, 65520]
    assert peak < 2**20, peak


def test_hf_budget_guard():
    with pytest.raises(BudgetExceededError):
        oracle_complete(ExtensionalDigraph.empty(), 4, budget=Budget(max_subsets_enumerated=8))


def hereditary_signatures(g: ExtensionalDigraph) -> frozenset:
    """Complete structural invariant for well-founded graphs: each node
    maps to the nested frozenset its memberships spell out."""
    memo: dict = {}

    def sig(x):
        if x not in memo:
            memo[x] = frozenset(sig(m) for m in g.extensions[x])
        return memo[x]

    return frozenset(sig(x) for x in g.nodes)


def test_hf_matches_von_neumann_rendering():
    # Same membership structure; provenance stamps differ (stage levels
    # versus seed), so compare hereditarily rather than by isomorphism.
    assert hereditary_signatures(hf_stage(3)) == hereditary_signatures(von_neumann_seed(3))


# -- decoration --------------------------------------------------------------


def test_decorate_wellfounded():
    g = von_neumann_seed(3)
    decoration = decorate(g)
    assert set(decoration) == g.nodes
    empty_node = next(x for x in g.nodes if not g.extensions[x])
    assert decoration[empty_node] is collection([])


def test_decorate_quine_atom():
    g = quine_atoms(["a"])
    (node,) = g.nodes
    v = decorate(g)[node]
    assert value_extension(v) == {v}


def test_decorate_loop_code_node():
    g = ExtensionalDigraph.from_extensions({"p": set(), "c": {"c", "p"}})
    decoration = decorate(g)
    assert decoration["c"] is loop_code("c", [collection([])])


def test_decorate_rejects_proper_cycles():
    g = ExtensionalDigraph.from_extensions({"a": {"b"}, "b": {"a"}})
    with pytest.raises(DecorationError):
        decorate(g)


def test_decorate_respects_membership():
    g = von_neumann_seed(4)
    decoration = decorate(g)
    for x in g.nodes:
        members = {decoration[m] for m in g.extensions[x]}
        assert value_extension(decoration[x]) == members


def recursive_decorate(g: ExtensionalDigraph) -> dict:
    """The recursive walk ``decorate`` used before it kept an explicit
    stack, kept as the reference for values and error messages."""
    done: dict = {}
    in_progress: set = set()

    def visit(x):
        got = done.get(x)
        if got is not None:
            return got
        if x in in_progress:
            raise DecorationError(f"membership cycle through {x!r} is not a self-loop")
        in_progress.add(x)
        ext = g.extensions[x]
        if x in ext:
            others = tuple(visit(m) for m in sorted(ext - {x}))
            value = loop_code(x, others) if others else atom(x)
        else:
            value = collection(visit(m) for m in sorted(ext))
        in_progress.discard(x)
        done[x] = value
        return value

    for x in sorted(g.nodes):
        visit(x)
    return done


def decoration_outcome(decorate_fn, g):
    try:
        return {x: v.key for x, v in decorate_fn(g).items()}
    except DecorationError as e:
        return str(e)


def test_decorate_agrees_with_recursive_reference():
    rng = random.Random(4242)
    outcomes = []
    for i in range(200):
        make = random_extensional_graph if i % 2 else random_decorable_graph
        g = make(rng, 6)
        expected = decoration_outcome(recursive_decorate, g)
        assert decoration_outcome(decorate, g) == expected
        outcomes.append(isinstance(expected, str))
    assert any(outcomes) and not all(outcomes)


def test_decorate_chain_longer_than_the_recursion_limit():
    length = sys.getrecursionlimit() + 50
    names = [f"c{i}" for i in range(length + 1)]
    g = ExtensionalDigraph.from_extensions(
        {x: {names[i - 1]} if i else set() for i, x in enumerate(names)}
    )
    decoration = decorate(g)
    assert set(decoration) == g.nodes
    for i in range(1, len(names)):
        assert value_extension(decoration[names[i]]) == {decoration[names[i - 1]]}


def test_oracle_compare_cli_on_a_1500_link_chain_atom(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "chain.json"
    spec.write_text(
        json.dumps(
            {
                "atoms": [{"label": "long", "kind": "chain", "length": 1500}],
                "naturals_up_to": 2,
                "code_style": "loop",
            }
        )
    )
    assert main(["seed", "spec", str(spec)]) == 0
    document = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    assert main(["oracle-compare", "--levels", "0", "--porcelain"]) == 0
    assert capsys.readouterr().out == "oracle\tisomorphic\tisomorphic\n"


# -- reference completion ----------------------------------------------------


def test_oracle_complete_matches_completion_on_quine_seed():
    g = quine_atoms(["a"])
    ours = complete(g, 2).graph
    reference = oracle_complete(g, 2)
    verdict = compare(ours, reference)
    assert verdict.isomorphic, verdict.detail


def test_oracle_complete_matches_completion_on_coded_seed():
    spec = CodeSpec(
        atoms=(AtomDecl("a", "quine"),),
        naturals_up_to=1,
        tuples=(TupleDecl(0, ("a",)),),
        code_style="loop",
    )
    g = assemble(spec).graph  # six nodes; one level adds 58 more
    verdict = compare(complete(g, 1).graph, oracle_complete(g, 1))
    assert verdict.isomorphic, verdict.detail


def oracle_outcome(complete_fn, g, n):
    """Everything a caller can see of the result: ids, extensions,
    provenance and dict insertion order, or the error."""
    try:
        h = complete_fn(g, n)
    except SetforgeError as e:
        return type(e), str(e)
    return list(h.extensions.items()), list(h.provenance.items())


def test_oracle_complete_agrees_with_reference():
    rng = random.Random(2024)
    cases = [
        (random_decorable_graph(rng, 5 if n < 2 else 3), n) for n in range(3) for _ in range(40)
    ]
    seeds = [
        quine_atoms(["a"]),
        quine_atoms(["a", "b"]),
        ExtensionalDigraph.from_extensions({"p": set(), "c": {"c", "p"}}),
        ExtensionalDigraph.from_extensions({"e": set(), "q": {"q"}, "c": {"c", "e", "q"}}),
        # The seed node "hf:{{}}" takes the id the stage-1 value {{}} would get.
        ExtensionalDigraph.from_extensions({"e": set(), "hf:{{}}": {"hf:{{}}"}}),
    ]
    cases += [(g, n) for g in seeds for n in range(3)]
    outcomes = [oracle_outcome(reference_oracle_complete, g, n) for g, n in cases]
    for (g, n), expected in zip(cases, outcomes):
        assert oracle_outcome(oracle_complete, g, n) == expected, (g.extensions, n)
    looped = [g for g, _ in cases if any(x in g.extensions[x] for x in g.nodes)]
    assert len(looped) >= 20
    assert sum(isinstance(o[0], type) for o in outcomes) == 2  # the id clash, at stages 1 and 2


def test_oracle_complete_empty_seed():
    """Each value is stamped with the first stage that holds it: one
    more than the latest stage of its members."""
    reference = hf_stage(3)
    assert len(reference.nodes) == 4
    level = {x: p.level for x, p in reference.provenance.items()}
    for x, ext in reference.extensions.items():
        assert level[x] == 1 + max(map(level.__getitem__, ext), default=0)


def test_oracle_complete_validation():
    with pytest.raises(ValueError):
        oracle_complete(ExtensionalDigraph.empty(), -1)
    bad = ExtensionalDigraph.from_extensions({"a": set(), "b": set()})
    with pytest.raises(NonExtensionalError):
        oracle_complete(bad, 1)


# -- comparison verdicts -----------------------------------------------------


def test_compare_equal_graphs():
    g = von_neumann_seed(3)
    verdict = compare(g, g)
    assert verdict.isomorphic
    assert verdict.detail == "isomorphic"


def test_compare_reports_node_counts():
    verdict = compare(von_neumann_seed(2), von_neumann_seed(3))
    assert not verdict.isomorphic
    assert "node counts differ: 2 vs 4" in verdict.detail


def test_compare_reports_edge_counts():
    g = ExtensionalDigraph.from_extensions({"t": set(), "a": {"t"}})
    h = ExtensionalDigraph.from_extensions({"t": set(), "a": {"t", "a"}})
    assert compare(g, h).detail == "edge counts differ: 1 vs 2"


def test_compare_accepts_relabeling():
    g = ExtensionalDigraph.from_extensions({"t": set(), "a": {"t"}})
    h = ExtensionalDigraph.from_extensions({"x": set(), "y": {"x"}})
    assert compare(g, h).isomorphic


def test_compare_distinguishes_loop_structure():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}, "t": set()})
    h = ExtensionalDigraph.from_extensions({"a": {"t"}, "t": set()})
    verdict = compare(g, h)
    assert not verdict.isomorphic
    assert "self-loop" in verdict.detail or "edge" in verdict.detail


# -- the seed map against the label-free search -------------------------------


def random_comparison_seed(rng: random.Random) -> tuple[ExtensionalDigraph, int]:
    """A seed the oracle can decorate, with a level count that keeps its
    completion at 256 nodes or fewer: quine atoms, von Neumann stages,
    the two side by side, a random graph whose only cycles are
    self-loops, or a chain-style spec."""
    kind = rng.randrange(5)
    if kind == 0:
        n = rng.randint(1, 3)
        return quine_atoms([f"q{i}" for i in range(n)]), rng.randint(1, 2) if n < 3 else 1
    if kind == 1:
        return rng.choice(((von_neumann_seed(2), 2), (von_neumann_seed(3), 1)))
    if kind == 2:
        stage = von_neumann_seed(2)
        atoms = quine_atoms([f"q{i}" for i in range(rng.randint(1, 2))])
        seed = ExtensionalDigraph.from_extensions({**stage.extensions, **atoms.extensions})
        return seed, 1 if len(seed) > 3 else rng.randint(1, 2)
    if kind == 3:
        seed = random_decorable_graph(rng, 5, min_nodes=1)
        return seed, 1 if len(seed) > 3 else rng.randint(1, 2)
    spec = CodeSpec(
        atoms=(AtomDecl("c", "chain", rng.randint(1, 2)),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("c",)),) if rng.random() < 0.5 else (),
        code_style="chain",
        code_length=rng.randint(1, 2),
    )
    return assemble(spec).graph, rng.randint(0, 1)


def level_of(g: ExtensionalDigraph, x: str) -> int:
    p = g.provenance[x]
    return p.level if isinstance(p, Deficiency) else 0


def lifts(a: ExtensionalDigraph, b: ExtensionalDigraph, phi: dict) -> bool:
    """Whether ``oracle._induced``, each graph grouped by level here,
    gives a map: a text says where the walk stopped."""
    groups = (oracle._by_level(a), oracle._by_level(b))
    return isinstance(oracle._induced(a.extensions, b, phi, groups), dict)


def seed_map_lifts(a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool:
    """``oracle._seed_map_lifts`` with each graph grouped by level here."""
    return oracle._seed_map_lifts(a, b, (oracle._by_level(a), oracle._by_level(b)))


def identity_lifts(a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool:
    """``oracle._induced`` from the identity on the non-deficiency nodes,
    which both graphs must have with equal provenance."""
    fixed = oracle._by_level(a)[1]
    return fixed == oracle._by_level(b)[1] and lifts(a, b, dict(zip(fixed, fixed)))


def mutated_copies(rng: random.Random, g: ExtensionalDigraph) -> list[ExtensionalDigraph]:
    """Copies of ``g`` with one change each: an edge moved into a
    non-deficiency node, an edge moved into a deficiency node onto an
    older member, a seed label changed, a deficiency level changed, and
    one node renamed."""
    ext, prov = dict(g.extensions), dict(g.provenance)
    names = sorted(g.nodes)
    copies = []
    for deficient in (False, True):
        containers = [x for x in names if (level_of(g, x) > 0) == deficient and ext[x]]
        if containers:
            x = rng.choice(containers)
            older = [m for m in names if level_of(g, m) < max(level_of(g, x), 1)]
            moved = {**ext, x: ext[x] - {rng.choice(sorted(ext[x]))}}
            moved[x] |= {rng.choice(older)}
            copies.append(ExtensionalDigraph(moved, prov))
    seeds = [x for x in names if isinstance(prov[x], Seed)]
    if seeds:
        copies.append(ExtensionalDigraph(ext, {**prov, rng.choice(seeds): Seed("relabelled")}))
    deficient = [x for x in names if level_of(g, x) > 0]
    if deficient:
        x = rng.choice(deficient)
        others = {level_of(g, y) for y in deficient} - {level_of(g, x)}
        levels = sorted(others) or [level_of(g, x) + 1]
        copies.append(ExtensionalDigraph(ext, {**prov, x: Deficiency(rng.choice(levels))}))
    old = rng.choice(names)
    rename = {y: y for y in names} | {old: "renamed"}
    copies.append(
        ExtensionalDigraph(
            {rename[y]: frozenset(map(rename.get, ms)) for y, ms in ext.items()},
            {rename[y]: p for y, p in prov.items()},
        )
    )
    return copies


def test_compare_agrees_with_the_label_free_search():
    """``compare`` settles shared-seed pairs from the seed map, other
    pairs from an isomorphism of their seeds, and falls through to
    ``is_isomorphic`` otherwise; either way its verdict must be
    ``is_isomorphic``'s, in both argument orders.  A completion against
    its oracle completion and against copies with one edge moved, one
    provenance changed or one node renamed: the isomorphic copies the
    seed map misses (a relabelled seed) are lifted from an isomorphism."""
    rng = random.Random(8128)
    verdicts = []
    for _ in range(80):
        seed, levels = random_comparison_seed(rng)
        ours = complete(seed, levels).graph
        reference = oracle_complete(seed, levels)
        for other in [reference, *mutated_copies(rng, reference)]:
            for a, b in ((ours, other), (other, ours)):
                expected = is_isomorphic(a, b)
                assert compare(a, b).isomorphic == expected
                verdicts.append((expected, identity_lifts(a, b), seed_map_lifts(a, b)))
    identity = [(expected, lifted) for expected, lifted, _ in verdicts]
    assert identity.count((True, True)) >= 150
    assert identity.count((True, False)) >= 100
    assert identity.count((False, False)) >= 300
    assert (False, True) not in identity
    assert all(lifted == expected for expected, _, lifted in verdicts)


def atoms_beside_a_stage(rng: random.Random) -> tuple[ExtensionalDigraph, int]:
    """Two to five quine atoms, whose permutations are automorphisms,
    beside a von Neumann stage of up to two nodes, with a level count
    that keeps the completion at 256 nodes or fewer."""
    atoms = quine_atoms([f"q{i}" for i in range(rng.randint(2, 5))])
    stage = von_neumann_seed(rng.randint(0, 2))
    seed = ExtensionalDigraph(
        {**atoms.extensions, **stage.extensions}, {**atoms.provenance, **stage.provenance}
    )
    return seed, 1 if len(seed) > 3 else rng.randint(1, 2)


def relabelled(rng: random.Random, g: ExtensionalDigraph) -> ExtensionalDigraph:
    """``g`` under random new ids, listed in another order, each seed
    node labelled by its new id."""
    names = sorted(g.nodes)
    rename = dict(zip(names, rng.sample([f"r{i:03d}" for i in range(len(names))], len(names))))
    order = rng.sample(names, len(names))
    prov = g.provenance
    return ExtensionalDigraph(
        {rename[x]: frozenset(map(rename.get, g.extensions[x])) for x in order},
        {rename[x]: Seed(rename[x]) if isinstance(prov[x], Seed) else prov[x] for x in order},
    )


def hand_levelled(rng: random.Random, g: ExtensionalDigraph) -> list[ExtensionalDigraph]:
    """Records of ``g``'s graph whose provenance no completion step
    wrote: a level-1 node stamped as a seed node, a seed node added that
    holds a deficiency node (so the non-deficiency part is not a graph
    of its own), and a top-level node moved one level up."""
    ext, prov = g.extensions, g.provenance
    first = sorted(x for x in g.nodes if level_of(g, x) == 1)
    top = max(level_of(g, x) for x in g.nodes)
    last = sorted(x for x in g.nodes if level_of(g, x) == top)
    return [
        ExtensionalDigraph(ext, {**prov, rng.choice(first): Seed("stamped")}),
        ExtensionalDigraph(
            {**ext, "holder": frozenset([rng.choice(first)])}, {**prov, "holder": Seed("holder")}
        ),
        ExtensionalDigraph(ext, {**prov, rng.choice(last): Deficiency(top + 1)}),
    ]


def one_edge_flipped(rng: random.Random, g: ExtensionalDigraph) -> ExtensionalDigraph:
    names = sorted(g.nodes)
    member, container = rng.choice(names), rng.choice(names)
    flipped = {**g.extensions, container: g.extensions[container] ^ {member}}
    return ExtensionalDigraph(flipped, g.provenance)


def test_compare_agrees_with_the_reference_on_relabelled_completions(monkeypatch):
    """``compare`` against ``reference_is_isomorphic``, in both argument
    orders, on completions of seeds with non-trivial automorphisms
    under other ids: the seed map cannot apply, so an isomorphism of the
    seeds must be lifted through the levels.  Also on hand-levelled
    records of the same graphs, and on copies with one edge flipped.
    The reference's cap is lowered, as in the isomorphism tests, to the
    least power of ten at which it answers every pair in one order or
    the other, and its verdict is taken from that order."""
    monkeypatch.setattr(helpers, "_REFERENCE_STATE_LIMIT", 50_000)
    rng = random.Random(1313)
    verdicts = []
    for _ in range(40):
        seed, levels = atoms_beside_a_stage(rng)
        ours = complete(seed, levels).graph
        pairs = [(ours, complete(relabelled(rng, seed), levels).graph)]
        for a in [ours, *hand_levelled(rng, ours)]:
            b = relabelled(rng, a)
            pairs += [(a, b), (a, one_edge_flipped(rng, b))]
        for a, b in pairs:
            orders = ((a, b), (b, a))
            reference = set()
            for x, y in orders:
                with contextlib.suppress(SizeLimitError):
                    reference.add(reference_is_isomorphic(x, y))
            (expected,) = reference
            for x, y in orders:
                assert compare(x, y).isomorphic == expected
                verdicts.append((expected, seed_map_lifts(x, y)))
    assert verdicts.count((True, True)) >= 250
    assert verdicts.count((True, False)) >= 100
    assert verdicts.count((False, False)) >= 300
    assert (False, True) not in verdicts


def test_relabelled_quine_completions_are_compared_without_a_search(monkeypatch):
    """Twelve indiscernible atoms under two namings, completed one level:
    4,096 nodes whose colours tie by the atoms' 12! automorphisms.  An
    isomorphism of the seeds is lifted instead, and the whole graphs are
    never searched."""

    def search(a, b):
        raise AssertionError("searched the whole graphs")

    monkeypatch.setattr(oracle, "is_isomorphic", search)
    a = complete(quine_atoms([f"q{i:02d}" for i in range(12)]), 1).graph
    b = complete(quine_atoms([f"r{i:02d}" for i in range(12)]), 1).graph
    assert compare(a, b).isomorphic and compare(b, a).isomorphic


def test_a_lift_needs_a_one_to_one_seed_map():
    """Two quine atoms sent onto one: each node's members still map onto
    its image's, but the map is not one to one, and into two atoms it is
    not onto either."""
    a = ExtensionalDigraph.from_extensions({"q0": {"q0"}, "q1": {"q1"}})
    b = ExtensionalDigraph.from_extensions({"r0": {"r0"}, "r1": {"r1"}})
    one = ExtensionalDigraph.from_extensions({"r0": {"r0"}})
    assert lifts(a, b, {"q0": "r1", "q1": "r0"})
    assert lifts(complete(a, 1).graph, complete(b, 1).graph, {"q0": "r1", "q1": "r0"})
    for target in (b, one):
        assert not lifts(a, target, {"q0": "r0", "q1": "r0"})


def test_one_grouping_serves_every_walk_over_a_graph():
    """A walk reads the level groups and leaves them as they were, so
    one grouping of a graph serves each map walked over it: the identity
    lifts, and a swap of two atoms does not, since the seed node ``s``
    holds ``{q0, q2}``, whose image ``{q1, q2}`` it does not hold."""
    g = complete(quine_atoms(["q0", "q1", "q2"]), 1).graph
    q0, q1, q2 = "atom:q0", "atom:q1", "atom:q2"
    d = next(x for x, ext in g.extensions.items() if ext == {q0, q2})
    h = ExtensionalDigraph({**g.extensions, "s": frozenset({d})}, {**g.provenance, "s": Seed("s")})
    identity = {x: x for x in (q0, q1, q2, "s")}
    swap = {**identity, q0: q1, q1: q0}
    assert lifts(h, h, identity) and not lifts(h, h, swap)
    grouping = oracle._by_level(h)
    for phi, expected in [(identity, True), (swap, False), (identity, True), (swap, False)]:
        induced = oracle._induced(h.extensions, h, phi, (grouping, grouping))
        assert isinstance(induced, dict) is expected


def test_compare_groups_each_graph_by_level_once(monkeypatch):
    """Whether the seed map, an isomorphism of the seeds or the whole
    search settles the verdict, ``compare`` groups each graph by level
    once, and passes the groups to the lift."""
    calls = []
    by_level = oracle._by_level

    def counted(g):
        calls.append(g)
        return by_level(g)

    monkeypatch.setattr(oracle, "_by_level", counted)
    a = complete(quine_atoms(["q0", "q1"]), 1).graph
    b = complete(quine_atoms(["r0", "r1"]), 1).graph
    c = complete(von_neumann_seed(2), 2).graph
    reference = oracle_complete(quine_atoms(["q0", "q1"]), 1)
    for x, y, isomorphic in ((a, reference, True), (a, b, True), (b, a, True), (a, c, False)):
        calls.clear()
        assert compare(x, y).isomorphic == isomorphic
        assert len(calls) == 2 and calls[0] is x and calls[1] is y


# -- atom permutations as automorphisms ---------------------------------------


@st.composite
def atoms_beside_a_stage_completed(draw) -> tuple[ExtensionalDigraph, dict[str, str]]:
    """A completion of quine atoms beside a von Neumann stage, at 1
    level from at most 6 seed nodes or at 2 levels from at most 3 (4
    would make 65,536 nodes), and a map of its seed nodes that permutes
    the atoms and fixes the stage's nodes."""
    levels = draw(st.integers(1, 2))
    most = 6 if levels == 1 else 3
    k = draw(st.integers(2, most))
    stage = draw(st.sampled_from([s for s, size in enumerate((0, 1, 2, 4)) if k + size <= most]))
    atoms, vn = quine_atoms([f"q{i}" for i in range(k)]), von_neumann_seed(stage)
    seed = ExtensionalDigraph(
        {**atoms.extensions, **vn.extensions}, {**atoms.provenance, **vn.provenance}
    )
    order = sorted(atoms.nodes)
    phi = {**{x: x for x in vn.nodes}, **dict(zip(order, draw(st.permutations(order))))}
    return complete(seed, levels).graph, phi


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(atoms_beside_a_stage_completed(), st.randoms(use_true_random=False))
def test_atom_permutations_induce_automorphisms(case, rng):
    """A permutation of the atoms that fixes every other seed node lifts
    to an automorphism of the exact completion (Jech, *The Axiom of
    Choice*, 1973, ch. 4), and ``_induced`` returns it.  A class defined
    without parameters is closed under it, and a formula holds at an
    environment exactly when it holds at the mapped one, which checks
    the kernel, the guarded quantifiers and ``define_class`` together
    without trusting any of them."""
    g, phi = case
    groups = oracle._by_level(g)
    induced = oracle._induced(g.extensions, g, phi, (groups, groups))
    assert isinstance(induced, dict)
    assert induced.keys() == g.nodes and set(induced.values()) == g.nodes
    for x, ext in g.extensions.items():
        assert {induced[m] for m in ext} == g.extensions[induced[x]]
        assert _provenance_colour(g.provenance[x]) == _provenance_colour(g.provenance[induced[x]])
    nodes = g.sorted_nodes()
    # A quantifier may scan every node, and a define scans them once more
    # for its free variable, so a define at ``depth`` and an eval at
    # ``depth + 1`` each take at most about 2**20 steps.
    depth = min(3, 20 // (len(nodes) - 1).bit_length() - 1)
    seen: set[str] = set()
    for _ in range(12):
        for f in (
            random_formula(rng, depth, ("x",)),
            random_guarded_formula(rng, depth, ("x",), ("x",), seen),
        ):
            if free_variables(f) == {"x"}:
                selected = define_class(g, f)
                assert {induced[x] for x in selected} == selected, print_formula(f)
        for f in (
            random_formula(rng, depth + 1, ("x", "y", "z")),
            random_guarded_formula(rng, depth + 1, ("x", "y", "z"), ("x", "y", "z"), seen),
        ):
            for _ in range(8):
                env = {v: rng.choice(nodes) for v in free_variables(f)}
                mapped = {v: induced[x] for v, x in env.items()}
                assert eval_formula(g, f, env) == eval_formula(g, f, mapped), print_formula(f)


def test_the_empty_graph_is_matched_by_its_empty_map(capsys, monkeypatch):
    """The level walk's map of the empty graph is ``{}``, which is
    falsy: ``oracle-compare`` must take it as a match from the stage
    values, and never compare graphs."""

    def unreachable(a, b):
        raise AssertionError("compared graphs")

    monkeypatch.setattr(cli, "compare", unreachable)
    monkeypatch.setattr(oracle, "compare", unreachable)
    assert main(["seed", "empty"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["oracle-compare", "--levels", "0", "--porcelain"]) == 0
    assert capsys.readouterr().out == "oracle\tisomorphic\tisomorphic\n"


# -- the stage values against the kernel's nodes ------------------------------


def without_a_top_node(g: ExtensionalDigraph) -> ExtensionalDigraph:
    """``g`` less its last node at its highest deficiency level, which no
    node of ``g`` holds when ``g`` is a completion."""
    top = max(level_of(g, x) for x in g.nodes)
    gone = max(x for x in g.nodes if level_of(g, x) == top)
    return ExtensionalDigraph(
        {x: ms - {gone} for x, ms in g.extensions.items() if x != gone},
        {x: p for x, p in g.provenance.items() if x != gone},
    )


KEY_SYNTAX_PIECES = ["a", "(", ")", ",", ";", "{", "}", "\\", "atom", "loop"]


def key_syntax_seeds(count: int) -> list[tuple[ExtensionalDigraph, int]]:
    """Extensional seeds whose only cycles are self-loops, with ids
    spelled from pieces of key syntax, each with a level count that
    keeps its completion at 256 nodes or fewer.  Two or three atoms,
    up to two atoms glued from two of them ("x),atom(y" and the like,
    which two atoms x and y would spell together if labels went into
    keys as they are), and sets or loop codes over the nodes before."""
    rng = random.Random(4093)
    seeds: list[tuple[ExtensionalDigraph, int]] = []
    while len(seeds) < count:
        ext = {x: {x} for x in spelled_ids(rng, rng.randint(2, 3), 2)}
        for _ in range(rng.randint(0, 2)):
            x, y = sorted(rng.sample(sorted(ext), 2), key=lambda i: atom(i).key)
            z = x + rng.choice(["),atom(", "),loop(", ";atom(", ","]) + y
            ext.setdefault(z, {z})
        for z in spelled_ids(rng, rng.randint(0, 5 - len(ext)), 3) - ext.keys():
            older = sorted(ext)
            ext[z] = set(rng.sample(older, rng.randint(0, len(older))))
            if rng.random() < 0.3:
                ext[z].add(z)
        if len(set(map(frozenset, ext.values()))) == len(ext):
            g = ExtensionalDigraph.from_extensions(ext)
            seeds.append((g, 1 if len(g) > 3 else rng.randint(1, 2)))
    return seeds


def spelled_ids(rng: random.Random, count: int, most: int) -> set[str]:
    """Up to ``count`` ids of 1 to ``most`` pieces of key syntax each."""
    return {"".join(rng.choices(KEY_SYNTAX_PIECES, k=rng.randint(1, most))) for _ in range(count)}


def input_fixed_lifts(a: ExtensionalDigraph, b: ExtensionalDigraph, g: ExtensionalDigraph) -> bool:
    """Whether both graphs hold every node of ``g`` with its provenance
    and members, and ``oracle._induced`` lifts the identity on those
    nodes, which are fixed rather than walked, from ``a`` onto ``b``;
    every other node is walked at its level, a non-deficiency one at 0."""

    def grouped(h: ExtensionalDigraph) -> tuple[dict, dict]:
        levels: dict[int, list[str]] = {}
        for x in h.nodes - g.nodes:
            levels.setdefault(level_of(h, x), []).append(x)
        return levels, {x: h.provenance[x] for x in g.nodes}

    if not all(
        h.provenance.get(x) == g.provenance[x] and h.extensions.get(x) == g.extensions[x]
        for h in (a, b)
        for x in g.nodes
    ):
        return False
    identity = {x: x for x in g.nodes}
    return isinstance(oracle._induced(a.extensions, b, identity, (grouped(a), grouped(b))), dict)


def test_stages_agree_is_the_seed_map_against_the_oracle_graph():
    """``stage_mismatch`` finds a mismatch exactly where
    ``input_fixed_lifts`` finds no lift onto ``oracle_complete``'s graph
    of the same stages.  On the seeds of the test
    above, and on their completions completed again, whose input
    already holds deficiency nodes: the kernel's completion, its mutated
    copies, the completion less a top-level node, and the completion
    one level short.  A completion is completed again as a record, whose
    stages continue its levels, and as a bare graph, whose stamps give
    the same levels.  Then the same on seeds whose ids are spelled from
    key syntax."""
    rng = random.Random(8128)
    outcomes = []
    seeds = (random_comparison_seed(rng) for _ in range(80))
    for seed, levels in itertools.chain(seeds, key_syntax_seeds(30)):
        inputs = [(seed, levels)]
        again = complete(seed, 1)
        if len(again.graph) <= 8:
            inputs += [(again, 0), (again, 1), (again.graph, 0), (again.graph, 1)]
        for g, n in inputs:
            values = oracle.oracle_stages(g, n)
            reference = oracle_complete(g, n)
            ours = complete(g, n).graph
            candidates = [ours, *mutated_copies(rng, ours), without_a_top_node(ours)]
            if n:
                candidates.append(complete(g, n - 1).graph)
            for candidate in candidates:
                expected = input_fixed_lifts(candidate, reference, values.graph)
                detail = oracle.stage_mismatch(candidate, values)
                assert (detail is None) == expected, (g.extensions, n, detail)
                outcomes.append(expected)
    assert outcomes.count(True) >= 100
    assert outcomes.count(False) >= 100


def one_node_too_few_or_too_many(g: ExtensionalDigraph, n: int) -> list[ExtensionalDigraph]:
    """Faulty completions of ``g`` at ``n`` levels: one level short, less
    a top-level node, and with one node of the next level added."""
    ours = complete(g, n).graph
    top = {x for x in ours.nodes if level_of(ours, x) == n}
    extra = ExtensionalDigraph(
        {**ours.extensions, "extra": frozenset(top)},
        {**ours.provenance, "extra": Deficiency(n + 1)},
    )
    return [complete(g, n - 1).graph, without_a_top_node(ours), extra]


@pytest.mark.parametrize("fault", [0, 1, 2], ids=["level-short", "node-dropped", "node-added"])
def test_the_level_walk_refuses_a_node_too_few_or_too_many(fault):
    """Each level's table must be used up, and every level's table:
    both matchers refuse a completion that misses or adds a node, the
    stage walk naming the level whose count differs, and ``compare``
    names the node counts."""
    g = von_neumann_seed(2)
    values = oracle.oracle_stages(g, 2)
    reference = oracle_complete(g, 2)
    bad = one_node_too_few_or_too_many(g, 2)[fault]
    counts = [(2, 0, 12), (2, 11, 12), (3, 1, 0)][fault]
    assert oracle.stage_mismatch(bad, values) == "level {} has {} nodes, not {}".format(*counts)
    assert not identity_lifts(bad, reference)
    assert not identity_lifts(reference, bad)
    expected = f"node counts differ: {len(bad)} vs {len(reference)}"
    assert compare(bad, reference) == oracle.ComparisonVerdict(False, expected)


def test_the_flipped_walk_refuses_a_top_level_node_no_subset_takes():
    """A node added at the top level that holds a top-level node: every
    stage subset still finds its node, so only the count of the
    level's nodes shows the one left untaken."""
    g = von_neumann_seed(2)
    values = oracle.oracle_stages(g, 2)
    ours = complete(g, 2).graph
    top = max(x for x in ours.nodes if level_of(ours, x) == 2)
    extra = ExtensionalDigraph(
        {**ours.extensions, "extra": frozenset([top])}, {**ours.provenance, "extra": Deficiency(2)}
    )
    assert oracle.stage_mismatch(ours, values) is None
    assert oracle.stage_mismatch(extra, values) == "level 2 has 13 nodes, not 12"
    assert not identity_lifts(extra, oracle_complete(g, 2))


def test_stages_agree_matches_labels_with_key_syntax_by_key():
    """A seed label that holds key syntax is escaped in keys, so its
    seed keeps a key of its own and is matched like any other."""
    g = ExtensionalDigraph.from_extensions({"a(": {"a("}, "b": set()})
    values = oracle.oracle_stages(g, 2)
    ours = complete(g, 2).graph
    assert oracle.stage_mismatch(ours, values) is None
    assert identity_lifts(ours, oracle_complete(g, 2))


def test_oracle_complete_gives_values_with_key_syntax_distinct_ids():
    """{a, b),atom(c} and {a),atom(b, c} would spell one key if labels
    went into keys as they are."""
    g = ExtensionalDigraph.from_extensions({x: {x} for x in ["a", "c", "a),atom(b", "b),atom(c"]})
    reference = oracle_complete(g, 1)
    assert len(reference) == 16
    assert reference.nodes >= {
        r"hf:{atom(a),atom(b\)\,atom\(c)}",
        r"hf:{atom(a\)\,atom\(b),atom(c)}",
    }
    assert compare(complete(g, 1).graph, reference).isomorphic


def test_oracle_complete_keeps_sets_apart_whose_labels_hold_key_syntax():
    g = key_syntax_seed()
    reference = oracle_complete(g, 0)
    assert reference.extensions == g.extensions
    assert reference.provenance == g.provenance


def test_keys_escape_key_syntax_in_labels():
    assert atom("a").key == "atom(a)"
    assert atom("a)").key == r"atom(a\))"
    assert loop_code("x;", [atom("{")]).key == r"loop(x\;;atom(\{))"
    assert collection([atom("a"), atom("b\\")]).key == r"{atom(a),atom(b\\)}"


def test_stages_agree_on_ids_spelled_from_key_syntax():
    """Every value of a run has a key of its own, and the kernel's
    completion of a seed whose ids are made of key syntax is matched to
    the stage subsets, as the graph of the same values matches it.  The
    stage subsets' keys are read from that graph's "hf:" ids."""
    seeds = key_syntax_seeds(60) + [(key_syntax_seed(), 1)]
    for g, n in seeds:
        values = oracle.oracle_stages(g, n)
        reference = oracle_complete(g, n)
        generated = [x[3:] for x in reference.nodes - g.nodes]
        assert len(generated) == sum(map(len, values.stages)), g.extensions
        keys = [v.key for v in values.node_of] + generated
        assert len(set(keys)) == len(keys), g.extensions
        ours = complete(g, n).graph
        assert oracle.stage_mismatch(ours, values) is None, (g.extensions, n)
        assert identity_lifts(ours, reference)
