"""Graph kernel: extensions, end extensions, isomorphism."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from setforge import (
    AnnotatedGraph,
    Code,
    Deficiency,
    ExtensionalDigraph,
    Seed,
    SizeLimitError,
    UnknownNodeError,
    complete,
    extensionality_violation,
    is_isomorphic,
    oracle_complete,
    quine_atoms,
    subset_node_id,
)
from setforge import graph
from setforge.graph import extension

import helpers
from helpers import (
    is_end_extension,
    is_extensional,
    naive_is_extensional,
    naive_is_isomorphic,
    random_extensional_graph,
    reference_condensation_colours,
    reference_is_isomorphic,
)


def quine(label: str) -> ExtensionalDigraph:
    return ExtensionalDigraph.from_extensions({label: {label}})


def test_extension_self_loop():
    g = quine("a")
    assert extension(g, "a") == {"a"}


def test_extension_single_edge_and_empty():
    g = ExtensionalDigraph.from_edges(["e", "s"], [("e", "s")])
    assert extension(g, "s") == {"e"}
    assert extension(g, "e") == frozenset()


def test_extension_unknown_node():
    with pytest.raises(UnknownNodeError):
        extension(ExtensionalDigraph.empty(), "ghost")


def test_is_extensional_two_quine_atoms():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}, "b": {"b"}})
    assert is_extensional(g)


def test_is_extensional_two_empty_extensions():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": set()})
    assert not is_extensional(g)
    first, second = extensionality_violation(g)
    assert {first, second} == {"a", "b"}


def test_is_extensional_empty_graph():
    assert is_extensional(ExtensionalDigraph.empty())


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_is_extensional_agrees_with_double_loop(r):
    rng = random.Random(r.getrandbits(64))
    n = rng.randint(0, 6)
    names = [f"n{i}" for i in range(n)]
    extensions = {
        x: frozenset(y for y in names if rng.random() < 0.4) for x in names
    }
    g = ExtensionalDigraph.from_extensions(extensions)
    assert is_extensional(g) == naive_is_extensional(g)


def test_edges_derived_from_extensions():
    g = ExtensionalDigraph.from_extensions({"a": {"b"}, "b": set()})
    assert helpers.edges(g) == {("b", "a")}
    assert g.containers()["b"] == {"a"}


def test_sorted_edges_are_the_sorted_edge_set():
    """``member_runs`` lists the sorted edges grouped by member, as
    indices into ``sorted_nodes()``: self-loops, cycles and ids that
    sort apart from insertion order."""
    r = random.Random(13)
    for _ in range(200):
        g = random_extensional_graph(random.Random(r.getrandbits(64)), 7)
        relabelled = ExtensionalDigraph.from_extensions(
            {f"{len(x)}{x[::-1]}": {f"{len(m)}{m[::-1]}" for m in ms} for x, ms in reversed(g.extensions.items())}
        )
        for h in (g, relabelled):
            order = h.sorted_nodes()
            runs = h.member_runs()
            assert all(cs for _, cs in runs)
            assert [(order[m], order[c]) for m, cs in runs for c in cs] == sorted(helpers.edges(h))


def test_levels_are_nonempty_and_cumulative():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a"}})
    with pytest.raises(ValueError, match="^a leveled universe needs at least one level$"):
        AnnotatedGraph(g, levels=())
    with pytest.raises(ValueError, match="^levels must be cumulative$"):
        AnnotatedGraph(g, levels=(frozenset({"a"}), frozenset({"b"}), g.nodes))


def test_a_rank_map_and_its_top_family_index_come_together():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a"}})
    depth = {"a": 0, "b": 0}
    message = "^a rank map and its top family index come together$"
    with pytest.raises(ValueError, match=message):
        AnnotatedGraph(g, depth=depth, rank={"a": 0, "b": 1})
    with pytest.raises(ValueError, match=message):
        AnnotatedGraph(g, depth=depth, top=1)
    assert AnnotatedGraph(g, depth=depth, rank={"a": 0, "b": 1}, top=1).top == 1


def test_end_extension_reflexive():
    g = random_extensional_graph(random.Random(7), 5)
    assert is_end_extension(g, g)


def test_end_extension_rejects_new_member_of_old_node():
    small = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a"}})
    big = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a", "c"}, "c": set()})
    # b gained the member c, so this is not an end extension
    assert not is_end_extension(small, big)


def test_end_extension_allows_growth_elsewhere():
    small = ExtensionalDigraph.from_extensions({"a": set()})
    big = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a"}})
    assert is_end_extension(small, big)
    assert not is_end_extension(big, small)


def test_end_extension_preserves_extensions():
    rng = random.Random(21)
    for _ in range(50):
        small = random_extensional_graph(rng, 4)
        # grow by one fresh container of a random subset
        members = frozenset(x for x in sorted(small.nodes) if rng.random() < 0.5)
        if members in set(small.extensions.values()):
            continue
        big = ExtensionalDigraph.from_extensions(
            {**{x: small.extensions[x] for x in small.nodes}, "fresh": members}
        )
        assert is_end_extension(small, big)
        for x in small.nodes:
            assert extension(small, x) == extension(big, x)


def test_isomorphic_relabelled_quine_atoms():
    assert is_isomorphic(quine("a"), quine("completely-different-id"))


def test_not_isomorphic_self_loop_vs_empty_extension():
    empty_ext = ExtensionalDigraph.from_extensions({"x": set()})
    assert not is_isomorphic(quine("a"), empty_ext)


def test_isomorphic_respects_edge_structure():
    g = ExtensionalDigraph.from_extensions({"a": set(), "b": {"a"}})
    h = ExtensionalDigraph.from_extensions({"x": set(), "y": {"x"}})
    assert is_isomorphic(g, h)
    h_twisted = ExtensionalDigraph.from_extensions({"x": set(), "y": {"x", "y"}})
    assert not is_isomorphic(g, h_twisted)


def test_isomorphism_distinguishes_provenance():
    seeded = ExtensionalDigraph.from_extensions({"a": set()}, {"a": Seed("a")})
    derived = ExtensionalDigraph.from_extensions(
        {"a": set()}, {"a": Deficiency(level=1)}
    )
    assert not is_isomorphic(seeded, derived)


def test_is_isomorphic_size_limit(monkeypatch):
    monkeypatch.setattr("setforge.graph.ISO_NODE_LIMIT", 0)
    g = quine("a")
    with pytest.raises(SizeLimitError, match="isomorphism search limited to 0 nodes"):
        is_isomorphic(g, g)


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_isomorphism_invariant_under_relabelling(r):
    rng = random.Random(r.getrandbits(64))
    g = random_extensional_graph(rng, 6)
    mapping = {x: f"renamed-{x}" for x in g.nodes}
    h = ExtensionalDigraph.from_extensions(
        {mapping[x]: {mapping[m] for m in g.extensions[x]} for x in g.nodes}
    )
    assert is_isomorphic(g, h)


def random_provenance(rng: random.Random) -> object:
    roll = rng.randrange(4)
    if roll == 0:
        return Seed(f"label-{rng.randrange(3)}")
    if roll == 1:
        return Code(rng.choice(("loop", "chain")), f"detail-{rng.randrange(3)}")
    return Deficiency(level=roll - 1)


def test_is_isomorphic_agrees_with_brute_force():
    rng = random.Random(1234)
    verdicts = []
    for _ in range(300):
        g = random_extensional_graph(rng, 6)
        g = ExtensionalDigraph.from_extensions(
            g.extensions,
            {x: random_provenance(rng) for x in sorted(g.nodes)},
        )
        names = sorted(g.nodes)
        shuffled = rng.sample(names, len(names))
        mapping = {x: f"r{y}" for x, y in zip(names, shuffled)}
        extensions = {mapping[x]: {mapping[m] for m in g.extensions[x]} for x in names}
        # Seed label text is not structure, so the copies rename it too.
        provenance = {
            mapping[x]: Seed("renamed") if isinstance(p, Seed) else p
            for x, p in g.provenance.items()
        }
        copies = [ExtensionalDigraph.from_extensions(extensions, provenance)]
        if names:
            member, container = rng.choice(names), rng.choice(names)
            flipped = {x: set(ms) for x, ms in extensions.items()}
            flipped[mapping[container]] ^= {mapping[member]}
            copies.append(ExtensionalDigraph.from_extensions(flipped, provenance))
            changed = dict(provenance)
            changed[mapping[rng.choice(names)]] = random_provenance(rng)
            copies.append(ExtensionalDigraph.from_extensions(extensions, changed))
        for h in copies:
            expected = naive_is_isomorphic(g, h)
            assert is_isomorphic(g, h) == expected
            assert is_isomorphic(h, g) == expected
            verdicts.append(expected)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300


def test_isomorphism_is_a_colour_preserving_bijection(monkeypatch):
    """On every pair the brute-force test above draws, in both orders,
    ``_isomorphism`` returns a bijection that preserves edges and the
    label-free provenance colour, or None exactly where brute force
    finds no isomorphism: that test runs with ``is_isomorphic`` replaced
    by this check of the map."""
    maps = []

    def checked(a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool:
        phi = graph._isomorphism(a, b)
        if phi is not None:
            assert phi.keys() == a.nodes and set(phi.values()) == b.nodes
            assert len(a.nodes) == len(b.nodes)
            for x, y in phi.items():
                assert helpers._structural_label(a.provenance[x]) == helpers._structural_label(
                    b.provenance[y]
                )
                assert frozenset(map(phi.__getitem__, a.extensions[x])) == b.extensions[y]
        maps.append(phi)
        return phi is not None

    monkeypatch.setitem(globals(), "is_isomorphic", checked)
    test_is_isomorphic_agrees_with_brute_force()
    found = sum(phi is not None for phi in maps)
    assert found > 600 and len(maps) - found > 600


def random_seed_with_quines(rng: random.Random, n: int) -> ExtensionalDigraph:
    """An extensional n-node seed: some nodes are quines (x = {x}), the
    others have random members, self-loops allowed."""
    names = [f"s{i}" for i in range(n)]
    while True:
        extensions = {
            x: {x} if rng.random() < 0.3 else {y for y in names if rng.random() < 0.4}
            for x in names
        }
        if len({frozenset(e) for e in extensions.values()}) == n:
            return ExtensionalDigraph.from_extensions(extensions)


def outcome(test, a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool | None:
    """The verdict of an isomorphism test, or None when it gives up."""
    try:
        return test(a, b)
    except SizeLimitError:
        return None


def test_is_isomorphic_agrees_with_reference_on_completions(monkeypatch):
    """The condensation colouring and individualisation search against
    the refinement-and-backtracking test they replaced, on completions
    too big for brute force, in both argument orders: a relabelled copy,
    one with an edge flipped and one with a provenance changed.  Both the
    injective fast path and the search must occur.  Plain backtracking
    gives up on some symmetric 256-node completions in one argument
    order, so the reference's verdict is taken from whichever order it
    answers in; the new test must answer every call with that verdict.
    Lower caps keep the reference's give-ups short and bound the new
    search to a few branches."""
    monkeypatch.setattr(helpers, "_REFERENCE_STATE_LIMIT", 5_000)
    monkeypatch.setattr(graph, "_SEARCH_STATE_LIMIT", 5_000)
    fallbacks = []
    refine = graph._refine

    def counting_refine(graphs, colourings):
        fallbacks.append(len(graphs[0]))
        return refine(graphs, colourings)

    monkeypatch.setattr(graph, "_refine", counting_refine)
    rng = random.Random(4321)
    verdicts = []
    gave_up = 0
    calls = 0
    for _ in range(60):
        n = rng.choice((3, 4))
        g = complete(random_seed_with_quines(rng, n), 1 if n == 4 else rng.choice((1, 2))).graph
        names = sorted(g.nodes)
        mapping = dict(zip(names, rng.sample([f"r{i}" for i in range(len(names))], len(names))))
        extensions = {mapping[x]: {mapping[m] for m in g.extensions[x]} for x in names}
        provenance = {
            mapping[x]: Seed("renamed") if isinstance(p, Seed) else p
            for x, p in g.provenance.items()
        }
        flipped = {x: set(ms) for x, ms in extensions.items()}
        flipped[mapping[rng.choice(names)]] ^= {mapping[rng.choice(names)]}
        changed = dict(provenance)
        changed[mapping[rng.choice(names)]] = random_provenance(rng)
        for h in (
            ExtensionalDigraph.from_extensions(extensions, provenance),
            ExtensionalDigraph.from_extensions(flipped, provenance),
            ExtensionalDigraph.from_extensions(extensions, changed),
        ):
            orders = ((g, h), (h, g))
            reference = [outcome(reference_is_isomorphic, x, y) for x, y in orders]
            known = {v for v in reference if v is not None}
            assert len(known) == 1
            for x, y in orders:
                assert is_isomorphic(x, y) in known
                calls += 1
            verdicts.extend(known)
            gave_up += reference.count(None)
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50
    assert gave_up > 0
    assert 0 < len(fallbacks) < calls
    assert max(fallbacks) >= 16


def test_edges_inside_a_cycle_settled_by_the_edge_check(monkeypatch):
    """The 3-cycles a -> b -> c -> a and a -> c -> b -> a, each node with
    its own member outside the cycle (e0, e1, e2), get the same injective
    colours: a cycle's key counts its members inside the component and
    does not name them.  The colour-matching map must still fail on the
    edges, without refinement or search."""

    def refine(*args):
        raise AssertionError("colours left nodes tied")

    monkeypatch.setattr(graph, "_refine", refine)
    below = {"e0": set(), "e1": {"e0"}, "e2": {"e1"}}
    forward = ExtensionalDigraph.from_extensions(
        {**below, "a": {"e0", "b"}, "b": {"e1", "c"}, "c": {"e2", "a"}}
    )
    backward = ExtensionalDigraph.from_extensions(
        {**below, "a": {"e0", "c"}, "b": {"e1", "a"}, "c": {"e2", "b"}}
    )
    relabelled = ExtensionalDigraph.from_extensions(
        {"0": set(), "1": {"0"}, "2": {"1"}, "x": {"0", "y"}, "y": {"1", "z"}, "z": {"2", "x"}}
    )
    assert not is_isomorphic(forward, backward) and not is_isomorphic(backward, forward)
    assert is_isomorphic(forward, relabelled) and is_isomorphic(relabelled, forward)


def cycles_below_a_tower(rng: random.Random) -> ExtensionalDigraph:
    """Self-loops, 2-cycles and 3-cycles at the bottom, acyclic nodes
    above them, some self-looped and some of those with an acyclic twin
    that has the same other members and provenance; listed members
    first."""
    ext: dict[str, set[str]] = {}
    prov = {}
    for c in range(rng.randint(0, 3)):
        ring = [f"c{c}.{i}" for i in range(rng.choice([1, 2, 2, 3]))]
        for i, x in enumerate(ring):
            ext[x] = {ring[i - 1]} | {m for m in ext if rng.random() < 0.2}
    for t in range(rng.randint(1, 7)):
        x = f"t{t}"
        ext[x] = {m for m in ext if rng.random() < 0.4}
        if rng.random() < 0.3:
            if rng.random() < 0.5:
                ext[f"{x}.twin"] = set(ext[x])
            ext[x].add(x)
    for x in ext:
        base = x.removesuffix(".twin")
        prov[x] = prov.get(base) or (Deficiency(1) if rng.random() < 0.3 else Seed(x))
    return ExtensionalDigraph({x: frozenset(m) for x, m in ext.items()}, prov)


def joint_partition(colour, graphs: list[ExtensionalDigraph]) -> set[frozenset]:
    """The classes of equal colour over the tagged nodes of all graphs,
    coloured in order from one shared table."""
    table: dict[tuple, int] = {}
    classes: dict[int, set] = {}
    for i, g in enumerate(graphs):
        for x, c in colour(g, table).items():
            classes.setdefault(c, set()).add((i, x))
    return {frozenset(cls) for cls in classes.values()}


def test_condensation_colours_agree_with_reference_partition():
    rng = random.Random(31337)
    twins = 0
    for _ in range(300):
        forward = cycles_below_a_tower(rng)
        backward = ExtensionalDigraph(
            dict(reversed(forward.extensions.items())), forward.provenance
        )
        for graphs in ([backward, forward], [forward], [forward, backward]):
            expected = joint_partition(reference_condensation_colours, graphs)
            assert joint_partition(graph._condensation_colours, graphs) == expected
        # Either listing gives every node the same colour.
        class_of = {node: cls for cls in expected for node in cls}
        assert all(class_of[0, x] is class_of[1, x] for x in forward.nodes)
        twins += sum(x.endswith(".twin") for x in forward.nodes)
    assert twins >= 30


def on_no_cycle(g: ExtensionalDigraph) -> list[str]:
    """The nodes with members that no member path leads back to."""

    def reaches_itself(x: str) -> bool:
        seen: set[str] = set()
        todo = list(g.extensions[x])
        while todo:
            m = todo.pop()
            if m == x:
                return True
            if m not in seen:
                seen.add(m)
                todo.extend(g.extensions[m])
        return False

    return [x for x in sorted(g.nodes) if g.extensions[x] and not reaches_itself(x)]


def test_root_verdict_agrees_with_reference_when_an_acyclic_edge_moves(monkeypatch):
    """The root verdict checks edges only at nodes on a cycle and trusts
    the keys of the rest.  One member edge of an acyclic node moved onto
    another member, in a relabelled copy of a completion or of cycles
    below a tower, must give the reference's verdict in both argument
    orders.  Lower caps keep the reference's give-ups short, as in
    the completion test above."""
    monkeypatch.setattr(helpers, "_REFERENCE_STATE_LIMIT", 5_000)
    monkeypatch.setattr(graph, "_SEARCH_STATE_LIMIT", 5_000)
    rng = random.Random(2718)
    graphs = [complete(random_seed_with_quines(rng, rng.choice((3, 4))), 1).graph for _ in range(30)]
    graphs += [cycles_below_a_tower(rng) for _ in range(200)]
    verdicts = []
    for g in graphs:
        acyclic = [x for x in on_no_cycle(g) if g.extensions[x] != g.nodes]
        if not acyclic:
            continue
        x = rng.choice(acyclic)
        moved = dict(g.extensions)
        moved[x] = moved[x] - {rng.choice(sorted(moved[x]))}
        moved[x] |= {rng.choice(sorted(g.nodes - g.extensions[x]))}
        names = sorted(g.nodes)
        rename = dict(zip(names, rng.sample([f"r{i}" for i in range(len(names))], len(names))))
        h = ExtensionalDigraph(
            {rename[y]: frozenset(map(rename.get, ms)) for y, ms in moved.items()},
            {rename[y]: p for y, p in g.provenance.items()},
        )
        orders = ((g, h), (h, g))
        reference = [outcome(reference_is_isomorphic, a, b) for a, b in orders]
        known = {v for v in reference if v is not None}
        assert len(known) == 1
        for a, b in orders:
            assert is_isomorphic(a, b) in known
        verdicts.extend(known)
    assert len(verdicts) >= 150 and verdicts.count(False) >= 100


def cycles(*named: list[str]) -> ExtensionalDigraph:
    """Disjoint membership cycles, each node the only member of the next."""
    return ExtensionalDigraph.from_extensions(
        {x: {ids[i - 1]} for ids in named for i, x in enumerate(ids)}
    )


def test_search_tries_every_candidate():
    """A 6-cycle beside two 3-cycles: every node has one member and one
    container, so refinement ties all twelve.  The copy's ids sort its
    6-cycle between its 3-cycles, so the search must pass over the first
    and the last candidates for the 6-cycle node.  Two 6-cycles against four
    3-cycles tie the same way and are not isomorphic."""
    six = [f"a{i}" for i in range(6)]
    three = [[f"b{i}" for i in range(3)], [f"c{i}" for i in range(3)]]
    g = cycles(six, *three)
    h = cycles([f"m{i}" for i in range(6)], ["0", "1", "2"], ["x0", "x1", "x2"])
    assert is_isomorphic(g, h) and is_isomorphic(h, g)
    two_sixes = cycles(six, [f"z{i}" for i in range(6)])
    four_threes = cycles(*three, ["0", "1", "2"], ["3", "4", "5"])
    assert not is_isomorphic(two_sixes, four_threes) and not is_isomorphic(four_threes, two_sixes)


def test_search_state_cap_raises_size_limit(monkeypatch):
    """Masks [1, 2, 5, 9] (nodes 2 and 3 swap) give a completion with a
    real automorphism, so colours cannot settle it and the search runs."""
    names = ["q0", "q1", "q2", "q3"]
    seed = ExtensionalDigraph.from_extensions(
        {x: {names[j] for j in range(4) if mask >> j & 1} for x, mask in zip(names, [1, 2, 5, 9])}
    )
    ours = complete(seed, 1).graph
    reference = oracle_complete(seed, 1)
    assert len(ours) == len(reference) == 16
    assert is_isomorphic(ours, reference)
    monkeypatch.setattr(graph, "_SEARCH_STATE_LIMIT", 1)
    with pytest.raises(SizeLimitError, match="isomorphism search exceeded its state cap"):
        is_isomorphic(ours, reference)


def test_container_direction_settles_at_the_root(monkeypatch):
    """Twelve self-membered atoms with two pair nodes over them: {q10,
    q11} and {q08, q09} against {q10, q11} and {q09, q10}.  The members-
    first colouring gives every atom one colour and every pair another,
    in both graphs; only the atoms' containers tell the graphs apart (q10
    sits in both pairs of the second).  Refinement over both edge
    directions answers at the root, charging no branch, where a search
    that re-ran the members-first pass alone would have to branch over
    the tied atoms."""
    atoms = {f"q{i:02d}": {f"q{i:02d}"} for i in range(12)}
    first = ExtensionalDigraph.from_extensions(
        {**atoms, "p0": {"q10", "q11"}, "p1": {"q08", "q09"}}
    )
    second = ExtensionalDigraph.from_extensions(
        {**atoms, "p0": {"q10", "q11"}, "p1": {"q09", "q10"}}
    )
    monkeypatch.setattr(graph, "_SEARCH_STATE_LIMIT", 1)
    assert not is_isomorphic(first, second)
    assert not is_isomorphic(second, first)


def test_symmetric_completions_settled_in_both_orders():
    """Completions with indiscernible atoms against their oracle
    completions.  Backtracking once answered the first of these in one
    argument order and gave up after 500,000 states in the other."""
    for seed in (
        ExtensionalDigraph.from_extensions({"s0": {"s0", "s1", "s2"}, "s1": {"s1"}, "s2": {"s2"}}),
        quine_atoms(["q0", "q1", "q2"]),
    ):
        ours = complete(seed, 2).graph
        reference = oracle_complete(seed, 2)
        assert len(ours) == len(reference) == 256
        assert is_isomorphic(ours, reference) and is_isomorphic(reference, ours)


def test_subset_node_id_deterministic_and_order_insensitive():
    assert subset_node_id(["b", "a"]) == subset_node_id(["a", "b"])
    assert subset_node_id(["a"]) != subset_node_id(["a", "b"])
    assert subset_node_id([]).startswith("set:")


def test_unknown_edge_rejected():
    with pytest.raises(UnknownNodeError):
        ExtensionalDigraph.from_edges(["a"], [("a", "ghost")])


def test_extension_map_must_cover_nodes():
    with pytest.raises(UnknownNodeError, match=r"extension of 'a' mentions unknown nodes \['b'\]"):
        ExtensionalDigraph.from_extensions({"a": {"b"}, "c": set()})


def test_provenance_for_unknown_node_rejected():
    with pytest.raises(UnknownNodeError, match="provenance for unknown node 'ghost'"):
        ExtensionalDigraph.from_extensions({"a": set()}, {"ghost": Seed("ghost")})


def test_entry_points_and_constructor_build_equal_graphs():
    extensions = {"e": frozenset(), "s": frozenset({"e"}), "q": frozenset({"q", "s"})}
    provenance = {"e": Seed("zero"), "s": Deficiency(level=1), "q": Code("loop", "q")}
    edges = [(m, c) for c, ms in extensions.items() for m in ms]
    graphs = [
        ExtensionalDigraph(extensions, provenance),
        ExtensionalDigraph.from_extensions(extensions, provenance),
        ExtensionalDigraph.from_edges(extensions, edges, provenance),
    ]
    for g in graphs:
        assert g == graphs[0]
        assert g.nodes == frozenset(extensions)
    unlabelled = ExtensionalDigraph.from_edges(extensions, edges)
    assert unlabelled == ExtensionalDigraph(extensions, {x: Seed(x) for x in extensions})
