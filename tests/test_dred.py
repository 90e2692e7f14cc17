"""Depth/rank certificates: verification, completion, Foundation witnesses."""

import random
from dataclasses import replace

import pytest

from setforge import (
    AtomDecl,
    Budget,
    AnnotatedGraph,
    CodeSpec,
    DredConditionError,
    DredReport,
    DredViolation,
    ExtensionalDigraph,
    TupleDecl,
    assemble,
    complete,
    complete_step,
    dred_complete,
    dred_from_graph,
    extensionality_violation,
    foundation_witness,
    require_dred,
    serialize,
    verify_dred,
    von_neumann_seed,
)
from setforge import completion, dred
from setforge.dred import membership_ranks

from helpers import (
    random_chain_spec,
    random_extensional_graph,
    reference_dred_complete,
    reference_families,
    set_rank,
)


def test_verify_dred_von_neumann_with_set_rank():
    g = von_neumann_seed(3)
    rank = set_rank(g)
    h = AnnotatedGraph(graph=g, depth={x: 0 for x in g.nodes}, rank=rank, top=2)
    assert verify_dred(h).ok


def test_verify_dred_quine_atom_fails_rank_condition():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    h = AnnotatedGraph(graph=g, depth={"a": 0}, rank={"a": 7}, top=1)
    report = verify_dred(h)
    assert not report.ok
    # the self-loop would need r_1(a) < r_1(a)
    assert any("a" in v.detail for v in report.violations)


def test_verify_dred_two_node_chain_edge_depth():
    g = ExtensionalDigraph.from_extensions({"a0": {"a1"}, "a1": set()})
    h = AnnotatedGraph(
        graph=g,
        depth={"a0": 1, "a1": 2},
        rank={"a0": 1, "a1": 0},
        top=3,
    )
    assert verify_dred(h).ok
    assert reference_families(h) == {1: {}, 2: {"a0": 1}, 3: {"a0": 1, "a1": 0}}


def test_verify_dred_reports_violating_members_in_id_order():
    members = ["a", "b", "c", "d", "e"]
    extensions = {x: {members[i - 1]} if i else set() for i, x in enumerate(members)}
    g = ExtensionalDigraph.from_extensions({**extensions, "y": set(members)})
    depth = {"y": 0, **{x: 2 for x in members}}
    r3 = {"y": 0, **{x: 5 + i for i, x in enumerate(members)}}
    h = AnnotatedGraph(graph=g, depth=depth, rank=r3, top=3)
    report = verify_dred(h)
    details = lambda condition: [v.detail for v in report.violations if v.condition == condition]
    assert details("edge_depth") == [f"edge ({z!r}, 'y'): depth 2 > 0 + 1" for z in members]
    assert details("rank_increase") == [
        f"r_3({z!r}) = {r3[z]} not below r_3('y') = 0 along edge" for z in members
    ]


def test_verify_dred_reports_subset_depth():
    # ext(x) = {e} lies inside ext(y) = {e, w}, x is no member of y, and
    # x sits two levels below y: only condition 3 is broken
    g = ExtensionalDigraph.from_extensions(
        {"e": set(), "x": {"e"}, "w": {"x"}, "y": {"e", "w"}}
    )
    h = AnnotatedGraph(
        graph=g,
        depth={"e": 0, "x": 2, "w": 1, "y": 0},
        rank={"e": 0, "x": 1, "w": 2, "y": 3},
        top=3,
    )
    report = verify_dred(h)
    assert [(v.condition, v.detail) for v in report.violations] == [
        ("subset_depth", "ext('x') <= ext('y') but depth 2 > 0 + 1")
    ]
    assert reference_verify_dred(h) == report


def test_verify_dred_rejects_wrong_rank_domain():
    g = ExtensionalDigraph.from_extensions({"a": set()})
    h = AnnotatedGraph(graph=g, depth={"a": 5}, rank={"a": 0}, top=1)
    report = verify_dred(h)
    assert not report.ok  # depth(a) = 5 is not < 1
    assert ("rank_domain", "r_1 defined at 'a' whose depth is not below 1") in [
        (v.condition, v.detail) for v in report.violations
    ]


def test_verify_dred_depth_must_be_total():
    g = ExtensionalDigraph.from_extensions({"a": set()})
    report = verify_dred(AnnotatedGraph(graph=g, depth={}, rank={}, top=0))
    assert not report.ok


def test_require_dred_raises_with_report():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    h = AnnotatedGraph(graph=g, depth={"a": 0}, rank={"a": 0}, top=1)
    with pytest.raises(DredConditionError) as exc:
        require_dred(h)
    assert exc.value.report is not None


def test_dred_complete_empty_matches_plain_completion():
    h = AnnotatedGraph(graph=ExtensionalDigraph.empty(), depth={}, rank={}, top=1)
    du = dred_complete(h, 4)
    assert [len(level) for level in du.levels] == [0, 1, 2, 4, 16]
    assert set(du.depth.values()) == {0}
    assert du.rank == set_rank(du.graph) and du.top == 1
    chain_seed = assemble(
        CodeSpec(
            atoms=(AtomDecl("a", "chain", length=1),),
            naturals_up_to=2,
            tuples=(TupleDecl(0, ("a",)),),
            code_style="chain",
            code_length=1,
        )
    ).dred
    for seed, n in ((h, 4), (dred_from_graph(von_neumann_seed(2)), 2), (chain_seed, 1)):
        du = dred_complete(seed, n)
        plain = complete(seed.graph, n)
        assert du.graph == plain.graph
        assert du.levels == plain.levels


def test_dred_complete_rank_of_two_element_set():
    h = AnnotatedGraph(graph=ExtensionalDigraph.empty(), depth={}, rank={}, top=1)
    du = dred_complete(h, 3)
    g = du.graph
    empty_node = next(x for x in g.nodes if g.extensions[x] == frozenset())
    singleton = next(x for x in g.nodes if g.extensions[x] == frozenset({empty_node}))
    pair = next(
        x for x in g.nodes if g.extensions[x] == frozenset({empty_node, singleton})
    )
    assert du.depth[pair] == 0
    assert du.rank[pair] == 2  # max(0 + 1, 1 + 1)


def test_dred_complete_levels_all_verify():
    h = dred_from_graph(von_neumann_seed(2))
    du = dred_complete(h, 2)
    for n in range(len(du.levels)):
        assert verify_dred(du.level(n)).ok


def test_dred_complete_depth_rank_agreement_across_levels():
    h = dred_from_graph(von_neumann_seed(2))
    du = dred_complete(h, 2)
    for n in range(len(du.levels) - 1):
        small = du.level(n)
        big = du.level(n + 1)
        for x in small.graph.nodes:
            assert small.depth[x] == big.depth[x]
        assert small.rank.items() <= big.rank.items()
        assert small.top == big.top


def test_dred_complete_budget():
    # the bound trips at the second step's 2**16 subsets, before that
    # 65536-node level (and its costly verification pass) is ever built
    h = dred_from_graph(von_neumann_seed(3))
    with pytest.raises(Exception):
        dred_complete(h, 3, Budget(max_subsets_enumerated=10**4))


def test_foundation_witness_prefers_low_rank():
    h = AnnotatedGraph(graph=ExtensionalDigraph.empty(), depth={}, rank={}, top=1)
    du = dred_complete(h, 3)
    g = du.graph
    empty_node = next(x for x in g.nodes if g.extensions[x] == frozenset())
    singleton = next(x for x in g.nodes if g.extensions[x] == frozenset({empty_node}))
    pair = next(
        x for x in g.nodes if g.extensions[x] == frozenset({empty_node, singleton})
    )
    assert foundation_witness(du, pair) == empty_node
    assert foundation_witness(du, singleton) == empty_node


def test_foundation_witness_is_minimal_for_every_node():
    h = dred_from_graph(von_neumann_seed(3))
    du = dred_complete(h, 1)
    g = du.graph
    for x in sorted(g.nodes):
        if not g.extensions[x]:
            continue
        w = foundation_witness(du, x)
        assert w in g.extensions[x]
        assert not (g.extensions[w] & g.extensions[x]), (
            f"witness {w} shares a member with {x}"
        )


def test_foundation_witness_rejects_empty_extension():
    h = dred_from_graph(von_neumann_seed(2))
    empty_node = next(
        x for x in h.graph.nodes if h.graph.extensions[x] == frozenset()
    )
    with pytest.raises(ValueError):
        foundation_witness(h, empty_node)


def test_foundation_witness_names_an_unknown_node_and_a_missing_rank_family():
    h = dred_from_graph(von_neumann_seed(2))
    with pytest.raises(DredConditionError, match="^unknown node 'nope'$"):
        foundation_witness(h, "nope")
    # The members of {∅} have depth 0, so its witness is ordered by r_1,
    # which the gate finds missing before any member is ranked.
    singleton = next(x for x in h.graph.nodes if h.graph.extensions[x])
    unranked = AnnotatedGraph(h.graph, depth=h.depth, rank={}, top=0)
    with pytest.raises(DredConditionError, match=r"\(rank_family\): .* requires coverage up to i=1$"):
        foundation_witness(unranked, singleton)


def test_foundation_witness_gate_rejects_quine_atom():
    g = ExtensionalDigraph.from_extensions({"a": {"a"}})
    h = AnnotatedGraph(graph=g, depth={"a": 0}, rank={"a": 0}, top=1)
    with pytest.raises(DredConditionError):
        foundation_witness(h, "a")


def test_dred_from_graph_rejects_cycles():
    g = ExtensionalDigraph.from_extensions({"a": {"b"}, "b": {"a"}})
    with pytest.raises(DredConditionError):
        dred_from_graph(g)


def random_well_founded_graph(rng: random.Random, n: int) -> ExtensionalDigraph:
    """Members are drawn from earlier nodes of a shuffled order, so node
    ids do not follow the rank order."""
    names = [f"n{i}" for i in range(n)]
    rng.shuffle(names)
    return ExtensionalDigraph.from_extensions(
        {x: {y for y in names[:i] if rng.random() < 0.4} for i, x in enumerate(names)}
    )


def least_node_on_or_above_a_cycle(g: ExtensionalDigraph):
    """Independent recomputation by plain reachability: a node is on a
    cycle when it reaches itself, and above one when it reaches such a
    node."""

    def reachable(x):
        seen, todo = set(), list(g.extensions[x])
        while todo:
            y = todo.pop()
            if y not in seen:
                seen.add(y)
                todo.extend(g.extensions[y])
        return seen

    reach = {x: reachable(x) for x in g.nodes}
    on_cycle = {x for x in g.nodes if x in reach[x]}
    return min((x for x in g.nodes if x in on_cycle or reach[x] & on_cycle), default=None)


def test_membership_ranks_match_set_rank_on_well_founded_graphs():
    rng = random.Random(5)
    for _ in range(200):
        g = random_well_founded_graph(rng, rng.randint(0, 12))
        assert membership_ranks(g) == set_rank(g)


def test_membership_ranks_name_the_least_node_on_or_above_a_cycle():
    below = ExtensionalDigraph.from_extensions({"a": {"z"}, "z": {"y"}, "y": {"z"}})
    assert least_node_on_or_above_a_cycle(below) == "a"
    graphs = [below]
    rng = random.Random(17)
    while len(graphs) < 200:
        g = random_extensional_graph(rng, 7, min_nodes=1)
        if least_node_on_or_above_a_cycle(g) is not None:
            graphs.append(g)
    for g in graphs:
        expected = least_node_on_or_above_a_cycle(g)
        with pytest.raises(DredConditionError) as exc:
            membership_ranks(g)
        assert str(exc.value) == (
            f"membership cycle through {expected!r}; no rank function exists"
        )


def reference_verify_dred(h: AnnotatedGraph) -> DredReport:
    """The verifier that walks every condition at every node and every
    rank family of ``reference_families``: for condition 3 every node's
    subsets are enumerated (or, when there are too many, every node
    scanned), not only the suspects'."""
    g = h.graph
    violations: list[DredViolation] = []
    nodes = g.sorted_nodes()

    pair = extensionality_violation(g)
    if pair is not None:
        violations.append(
            DredViolation("extensionality", f"nodes {pair[0]!r} and {pair[1]!r} share an extension")
        )

    for x in nodes:
        if x not in h.depth:
            violations.append(DredViolation("depth_domain", f"no depth for node {x!r}"))
        elif h.depth[x] < 0:
            violations.append(DredViolation("depth_domain", f"negative depth at {x!r}"))
    for x in h.depth:
        if x not in g.nodes:
            violations.append(DredViolation("depth_domain", f"depth given for unknown node {x!r}"))
    if any(v.condition == "depth_domain" for v in violations):
        return DredReport(tuple(violations))

    depth = h.depth
    for y in nodes:
        dy = depth[y]
        for z in sorted(z for z in g.extensions[y] if depth[z] > dy + 1):
            violations.append(
                DredViolation(
                    "edge_depth",
                    f"edge ({z!r}, {y!r}): depth {depth[z]} > {dy} + 1",
                )
            )

    if pair is None:
        by_extension = {ext: x for x, ext in g.extensions.items()}
        n = len(nodes)
        for y in nodes:
            ext_y = sorted(g.extensions[y])
            bound = depth[y] + 1
            if (1 << len(ext_y)) <= max(64, 2 * n):
                for mask in range(1 << len(ext_y)):
                    subset = frozenset(ext_y[i] for i in range(len(ext_y)) if mask >> i & 1)
                    x = by_extension.get(subset)
                    if x is not None and depth[x] > bound:
                        violations.append(
                            DredViolation(
                                "subset_depth",
                                f"ext({x!r}) <= ext({y!r}) but depth {depth[x]} > {depth[y]} + 1",
                            )
                        )
            else:
                ext_set = g.extensions[y]
                for x in nodes:
                    if g.extensions[x] <= ext_set and depth[x] > bound:
                        violations.append(
                            DredViolation(
                                "subset_depth",
                                f"ext({x!r}) <= ext({y!r}) but depth {depth[x]} > {depth[y]} + 1",
                            )
                        )

    families = reference_families(h)
    keys = sorted(families)
    needed = max(h.depth.values(), default=0) + 1
    if not keys or keys[-1] < needed:
        violations.append(
            DredViolation(
                "rank_family",
                f"family stops at i={keys[-1] if keys else 0} but max depth {needed - 1} "
                f"requires coverage up to i={needed}",
            )
        )

    for i in keys:
        r = families[i]
        domain = {x for x in nodes if depth[x] < i}
        for x in sorted(domain - set(r)):
            violations.append(
                DredViolation("rank_domain", f"r_{i} undefined at {x!r} (depth {depth[x]} < {i})")
            )
        for x in sorted(set(r) - domain):
            violations.append(
                DredViolation(
                    "rank_domain",
                    f"r_{i} defined at {x!r} whose depth is not below {i}",
                )
            )
        for y in nodes:
            if y not in r:
                continue
            ry = r[y]
            for z in sorted(z for z in g.extensions[y] if z in r and not r[z] < ry):
                violations.append(
                    DredViolation(
                        "rank_increase",
                        f"r_{i}({z!r}) = {r[z]} not below r_{i}({y!r}) = {ry} along edge",
                    )
                )
    return DredReport(tuple(violations))



def chain_spec_completion():
    """A certified completion with depths 0 to 4: 8 seed nodes, 256 in all."""
    seed = assemble(
        CodeSpec(
            atoms=(AtomDecl("a", "chain", length=2),),
            naturals_up_to=2,
            tuples=(TupleDecl(0, ("a",)),),
            code_style="chain",
            code_length=2,
        )
    ).dred
    return dred_complete(seed, 1)


def test_verify_dred_agrees_with_reference():
    """Random certificates on graphs whose extensions span few members
    (the union of all extensions has at most max(6, log2 2N) members)
    and many, against the verifier that enumerates every node's
    subsets.  Each rank map misses a node it should rank, or ranks a
    node it should not, now and then."""
    rng = random.Random(11)
    cases = []
    for _ in range(1500):
        g = random_extensional_graph(rng, 8)
        depth = {x: rng.randint(0, 4) for x in sorted(g.nodes)}
        top = rng.randint(0, 6)
        rank = {
            x: rng.randint(0, 5)
            for x in sorted(g.nodes)
            if (depth[x] < top and rng.random() < 0.95) or rng.random() < 0.05
        }
        cases.append(AnnotatedGraph(g, depth=depth, rank=rank, top=top))
    certified = chain_spec_completion()
    assert verify_dred(certified).ok
    nodes = certified.graph.sorted_nodes()
    for _ in range(20):
        depth = dict(certified.depth)
        for x in rng.sample(nodes, rng.randint(1, 6)):
            depth[x] = rng.randint(0, 6)
        cases.append(
            AnnotatedGraph(certified.graph, depth=depth, rank=certified.rank, top=certified.top)
        )
    seen = set()
    for h in cases:
        report = verify_dred(h)
        expected = reference_verify_dred(h)
        assert [(v.condition, v.detail) for v in report.violations] == [
            (v.condition, v.detail) for v in expected.violations
        ]
        support = set().union(*h.graph.extensions.values())
        transform = (1 << len(support)) <= max(64, 2 * len(h.graph.nodes))
        broken = any(v.condition == "subset_depth" for v in report.violations)
        seen.add((transform, broken))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_verify_dred_certified_completion_of_von_neumann_4():
    # 65,536 nodes whose extensions have up to 16 members: enumerating
    # every subset of every extension took minutes
    assert verify_dred(dred_complete(dred_from_graph(von_neumann_seed(4)), 1)).ok


def chain_seed(length, naturals, tuples, code_length):
    return assemble(
        CodeSpec(
            atoms=(AtomDecl("a", "chain", length=length),),
            naturals_up_to=naturals,
            tuples=tuple(TupleDecl(tag, parts) for tag, parts in tuples),
            code_style="chain",
            code_length=code_length,
        )
    ).dred


CHAIN_SEEDS = (
    (1, 2, (), 1),
    (2, 2, (), 1),
    (3, 4, (), 2),
    (2, 2, ((0, ("a",)),), 2),
    (1, 2, ((0, ("a",)),), 3),
    (3, 3, ((1, ("a", "a")),), 1),
)


def random_well_founded_extensional(rng: random.Random, n: int) -> ExtensionalDigraph:
    while True:
        g = random_well_founded_graph(rng, n)
        if extensionality_violation(g) is None:
            return g


def ranked(g: ExtensionalDigraph, depth: dict) -> AnnotatedGraph:
    """``g`` with ``depth``, its membership ranks and the top family
    index one above the greatest depth, as ``assemble`` makes them."""
    return AnnotatedGraph(
        g, depth=depth, rank=membership_ranks(g), top=max(depth.values(), default=0) + 1
    )


def nested_certificates(rng: random.Random) -> list[AnnotatedGraph]:
    """Certificates as setforge builds them: chain-style seeds and their
    certified completions, and random well-founded graphs with random
    depths and their membership ranks (most of those break conditions 2
    or 3)."""
    cases = []
    for spec in CHAIN_SEEDS:
        seed = chain_seed(*spec)
        cases.append(seed)
        if len(seed.graph) <= 8:
            cases.append(dred_complete(seed, 1))
    for _ in range(150):
        g = random_well_founded_extensional(rng, rng.randint(1, 8))
        depth = {x: rng.choice((0, 0, 1, 2, 3)) for x in sorted(g.nodes)}
        cases.append(ranked(g, depth))
    return cases


# The faults ``inject_violation`` makes: every one a record can hold.
# Rank families numbered other than 1..I, and a lower family that is not
# the top one restricted, are refused by the document reader instead
# (``test_document.py``).
INJECTED = (
    "extensionality", "depth_domain", "edge_depth", "subset_depth", "coverage",
    "rank_domain", "rank_value", "negative_ranks",
)


def inject_violation(h: AnnotatedGraph, rng: random.Random, condition: str) -> AnnotatedGraph:
    """A copy of ``h`` with one random fault of the kind ``condition``
    names (a fault may break further conditions too)."""
    g = h.graph
    depth, rank, top = dict(h.depth), dict(h.rank), h.top
    nodes = g.sorted_nodes()
    x = rng.choice(nodes)
    if condition == "extensionality":
        twin = f"{x}~"
        g = ExtensionalDigraph(
            {**g.extensions, twin: g.extensions[x]}, {**g.provenance, twin: g.provenance[x]}
        )
        depth[twin] = depth[x]
        if x in rank:
            rank[twin] = rank[x]
    elif condition == "depth_domain":
        fault = rng.randrange(3)
        if fault == 0:
            del depth[x]
        elif fault == 1:
            depth["ghost"] = rng.randint(-1, 2)
        else:
            depth[x] = -1
    elif condition == "edge_depth":
        containers = [y for y in nodes if g.extensions[y]]
        if containers:
            y = rng.choice(containers)
            z = rng.choice(sorted(g.extensions[y]))
            depth[z] = depth[y] + rng.randint(2, 3)
    elif condition == "subset_depth":
        y = rng.choice(nodes)
        inside = [w for w in nodes if g.extensions[w] <= g.extensions[y]]
        depth[rng.choice(inside)] = depth[y] + 2
    elif condition == "coverage":
        # the top family dropped: the one below it is the top now
        top -= 1
        rank = {y: v for y, v in rank.items() if depth[y] < top}
    elif condition == "rank_domain":
        if rank and rng.random() < 0.5:
            del rank[rng.choice(sorted(rank))]
        else:
            rank["ghost"] = rng.randint(-3, 9)
    elif condition == "rank_value":
        rank[x] = rng.randint(-2, 4)
    else:
        shift = rng.randint(1, 20)
        rank = {y: v - shift for y, v in rank.items()}
        if rank and rng.random() < 0.5:
            rank[rng.choice(sorted(rank))] = -shift - rng.randint(0, 3)
    return AnnotatedGraph(g, depth=depth, rank=rank, top=top)


def test_verify_dred_agrees_with_reference_on_nested_families():
    """Certificates shaped like the ones setforge builds, where the rank
    increase is checked once on the rank map, clean and with each kind
    of injected fault: the same violations in the same order as the
    verifier that walks every condition on the families a document
    writes."""
    rng = random.Random(23)
    clean = nested_certificates(rng)
    cases = clean + [inject_violation(h, rng, kind) for h in clean for kind in INJECTED]
    conditions = set()
    shortcut = 0
    for h in cases:
        report = verify_dred(h)
        expected = reference_verify_dred(h)
        assert [(v.condition, v.detail) for v in report.violations] == [
            (v.condition, v.detail) for v in expected.violations
        ]
        conditions.update(v.condition for v in expected.violations)
        if not any(v.condition.startswith("rank_") for v in expected.violations):
            shortcut += 1
    assert conditions == {
        "extensionality", "depth_domain", "edge_depth", "subset_depth",
        "rank_family", "rank_domain", "rank_increase",
    }
    assert shortcut >= len(clean)


def test_a_rank_off_by_one_fails_the_verifier():
    """One node's rank moved by one in a record moves it in every family
    that holds the node, and the verifier reports what the reference
    reports on those families.  The ranks of a chain-style seed are its
    membership ranks, so lowering a node that has members ties it with
    one of them, and every family that holds the node names that edge."""
    h = chain_seed(3, 4, ((0, ("a",)),), 2)
    g = h.graph
    assert verify_dred(h).ok
    broken = 0
    for x in g.sorted_nodes():
        for step in (-1, 1):
            moved = AnnotatedGraph(g, depth=h.depth, rank={**h.rank, x: h.rank[x] + step}, top=h.top)
            report = verify_dred(moved)
            assert report == reference_verify_dred(moved)
            if step == -1 and g.extensions[x]:
                naming = {
                    i
                    for i in range(1, h.top + 1)
                    for v in report.violations
                    if v.condition == "rank_increase" and f"not below r_{i}({x!r})" in v.detail
                }
                assert naming == set(range(h.depth[x] + 1, h.top + 1))
                broken += 1
    assert broken >= 8


def reference_annotations(h: AnnotatedGraph, du: AnnotatedGraph) -> tuple[dict, dict]:
    """``dred_complete``'s annotation as it was, one generator per node
    and per family, replayed over ``du``'s levels from the families of
    ``h``'s certificate."""
    depth = dict(h.depth)
    ranks = reference_families(h)
    extensions = du.graph.extensions
    for lower, upper in zip(du.levels, du.levels[1:]):
        for node in sorted(upper - lower):
            members = extensions[node]
            d = max((depth[m] for m in members), default=0)
            depth[node] = d
            for i, r in ranks.items():
                if d < i:
                    r[node] = max((r[m] + 1 for m in members), default=0)
    return depth, ranks


def test_dred_complete_annotates_as_the_per_family_recipe():
    rng = random.Random(29)
    seeds = [(chain_seed(*spec), 1) for spec in CHAIN_SEEDS]
    seeds.append((chain_seed(1, 2, (), 1), 2))
    for _ in range(30):
        g = random_well_founded_extensional(rng, rng.randint(0, 6))
        seeds.append((dred_from_graph(g), 1))
    while sum(n == 2 and h.top > 1 for h, n in seeds) < 10:
        # small enough for two levels, with depths that make several families
        g = random_well_founded_extensional(rng, rng.randint(1, 3))
        depth = {x: rng.randint(0, 2) for x in sorted(g.nodes)}
        h = ranked(g, depth)
        if reference_verify_dred(h).ok:
            seeds.append((h, 2))
    for _ in range(10):
        seeds.append((dred_from_graph(random_well_founded_extensional(rng, rng.randint(0, 3))), 2))
    for h, n in seeds:
        du = dred_complete(h, n)
        depth, ranks = reference_annotations(h, du)
        assert du.depth == depth
        assert reference_families(du) == ranks


def test_dred_complete_annotates_as_the_per_node_recipe():
    """The new nodes' depths and ranks, read from tables over the
    step's masks, against the recipe that walks each new node's members,
    as records and as documents: chain-style seeds, von Neumann stages 1
    to 3 and random well-founded seeds, at one level and at two, and
    each of these again with every rank lowered by 5: ranks may be
    negative, and a new node's rank is still one above its members'."""
    rng = random.Random(37)
    seeds = [(assemble(random_chain_spec(rng)).dred, 1) for _ in range(12)]
    chains = [chain_seed(*spec) for spec in CHAIN_SEEDS]
    seeds += [(h, 1) for h in chains if len(h.graph) <= 10]
    seeds.append((chain_seed(1, 2, (), 1), 2))
    seeds += [(dred_from_graph(von_neumann_seed(k)), n) for k in (1, 2, 3) for n in (1, 2)]
    for size in range(7):
        g = random_well_founded_extensional(rng, size)
        depth = {x: rng.randint(0, 2) for x in sorted(g.nodes)}
        seeds += [(dred_from_graph(g), 1), (ranked(g, depth), 1)]
        if size <= 3:
            seeds.append((dred_from_graph(g), 2))
    seeds += [
        (AnnotatedGraph(h.graph, depth=h.depth, rank={x: r - 5 for x, r in h.rank.items()}, top=h.top), n)
        for h, n in seeds
    ]
    compared = 0
    for h, n in seeds:
        if not verify_dred(h).ok:
            continue
        du, expected = dred_complete(h, n), reference_dred_complete(h, n)
        assert du == expected
        assert serialize(du) == serialize(expected)
        compared += 1
    assert compared >= 80
    assert sum(max(h.depth.values(), default=0) > 0 for h, _ in seeds) >= 24
    assert sum(min(h.rank.values(), default=0) < 0 for h, _ in seeds) >= 30


def test_dred_complete_ranks_no_node_at_or_past_the_top_family(monkeypatch):
    """Only a node of depth below the top family index gets a rank.  A
    certificate never has deeper nodes, so with the gate taken out, seeds
    whose rank map stops at a lower top family, against the per-node
    recipe: the new nodes that deep are left unranked."""
    monkeypatch.setattr(dred, "require_dred", lambda h: None)
    unranked = 0
    for spec in CHAIN_SEEDS:
        h = chain_seed(*spec)
        if len(h.graph) > 8:
            continue
        for top in range(h.top):
            low = AnnotatedGraph(
                h.graph, depth=h.depth, rank={x: r for x, r in h.rank.items() if h.depth[x] < top},
                top=top,
            )
            du, expected = dred_complete(low, 1), reference_dred_complete(low, 1)
            assert du == expected
            assert serialize(du) == serialize(expected)
            unranked += len(du.graph.nodes - du.rank.keys()) - len(h.graph.nodes - low.rank.keys())
    assert unranked > 0


def test_complete_step_extends_a_certificate_as_the_per_node_recipe(monkeypatch):
    """One step on a certified record equals one step of the per-node
    recipe and leaves the input's maps as they were: chain-style seeds,
    von Neumann stages and random well-founded seeds with random depths,
    each again with its rank map cut at every lower top family and with
    every rank lowered by 5.  The gate is taken out, so records that
    break the conditions are stepped too."""
    monkeypatch.setattr(dred, "require_dred", lambda h: None)
    rng = random.Random(38)
    seeds = [h for h in (chain_seed(*spec) for spec in CHAIN_SEEDS) if len(h.graph) <= 8]
    seeds += [dred_from_graph(von_neumann_seed(k)) for k in (1, 2, 3)]
    for size in range(7):
        g = random_well_founded_extensional(rng, size)
        seeds.append(ranked(g, {x: rng.randint(0, 2) for x in sorted(g.nodes)}))
    seeds += [
        AnnotatedGraph(h.graph, depth=h.depth, top=top,
                       rank={x: r for x, r in h.rank.items() if h.depth[x] < top})
        for h in list(seeds)
        for top in range(h.top)
    ]
    seeds += [replace(h, rank={x: r - 5 for x, r in h.rank.items()}) for h in list(seeds)]
    unranked = 0
    for h in seeds:
        depth, rank = dict(h.depth), dict(h.rank)
        u = AnnotatedGraph(h.graph, levels=(h.graph.nodes,), depth=h.depth, rank=h.rank, top=h.top)
        step = complete_step(u)
        assert step == reference_dred_complete(h, 1)
        assert (u.depth, u.rank) == (depth, rank)
        assert step.depth is not u.depth and step.rank is not u.rank
        unranked += len(step.graph.nodes - step.rank.keys()) - len(h.graph.nodes - h.rank.keys())
    assert len(seeds) >= 100 and unranked > 0


def test_dred_complete_enumerates_each_steps_masks_once(monkeypatch):
    """One deficiency pass per step writes the new nodes and extends
    the certificate to them."""
    h = dred_from_graph(von_neumann_seed(2))
    calls = []
    original = completion._deficiency_masks

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(completion, "_deficiency_masks", counting)
    du = dred_complete(h, 2)
    assert [len(level) for level in du.levels] == [2, 4, 16]
    assert len(calls) == 2
    assert not hasattr(dred, "_deficiency_masks")


def deepest_members(h: AnnotatedGraph) -> dict:
    """Each node's greatest member depth, -1 for no members."""
    return {
        y: max((h.depth[z] for z in ext), default=-1) for y, ext in h.graph.extensions.items()
    }


def jumping_nodes(h: AnnotatedGraph) -> list:
    """The nodes two or more levels deep and deeper than every member."""
    deepest = deepest_members(h)
    return sorted(x for x in h.graph.nodes if h.depth[x] >= 2 and h.depth[x] > deepest[x])


def move_depths(h: AnnotatedGraph, rng: random.Random) -> AnnotatedGraph:
    """A copy of ``h`` with one depth fault, at a jumping or another
    node: a node raised or lowered, a member of a jumping node raised,
    or a node moved more than one level off the subset nodes it
    contains."""
    g = h.graph
    depth = dict(h.depth)
    nodes = g.sorted_nodes()
    jumping = jumping_nodes(h)
    pool = jumping if jumping and rng.random() < 0.5 else nodes
    x = rng.choice(pool)
    fault = rng.randrange(4)
    if fault == 0:
        depth[x] += rng.randint(1, 3)
    elif fault == 1:
        depth[x] = max(0, depth[x] - rng.randint(1, 3))
    elif fault == 2 and g.extensions[x]:
        z = rng.choice(sorted(g.extensions[x]))
        depth[z] = depth[x] + rng.randint(1, 3)
    else:
        inside = [w for w in nodes if g.extensions[w] <= g.extensions[x] and w != x]
        if inside:
            w = rng.choice(inside)
            if rng.random() < 0.5:
                depth[w] = depth[x] + 2
            else:
                depth[x] = max(0, depth[w] - 2)
    return AnnotatedGraph(g, depth=depth, rank=h.rank, top=h.top)


def test_verify_dred_agrees_with_reference_at_jumping_nodes():
    """Condition 3 is walked only at the nodes that fail condition 2 and
    at the supersets of jumping nodes.  Against the verifier that walks
    every node: empty extensions two or more levels deep, chain-style
    seeds with depth faults at jumping and other nodes, and graphs
    whose extensions span far too many members for a table of their
    subsets."""
    rng = random.Random(31)
    cases = []
    for _ in range(300):
        g = random_well_founded_extensional(rng, rng.randint(1, 10))
        depth = {x: rng.choice((0, 0, 1, 2, 3)) for x in sorted(g.nodes)}
        for x in sorted(g.nodes):
            if not g.extensions[x]:
                depth[x] = rng.randint(2, 4)
        cases.append(ranked(g, depth))
    seeds = [chain_seed(*spec) for spec in CHAIN_SEEDS]
    seeds += [
        chain_seed(4, 40, ((0, ("a", "7")), (3, ("12", "a", "a"))), 2),
        chain_seed(2, 120, tuple((0, (str(i), str(2 * i + 1))) for i in range(20)), 3),
    ]
    for seed in seeds:
        assert verify_dred(seed).ok
        cases.append(seed)
        for _ in range(12):
            cases.append(move_depths(seed, rng))
    seen = set()
    for h in cases:
        report = verify_dred(h)
        expected = reference_verify_dred(h)
        assert [(v.condition, v.detail) for v in report.violations] == [
            (v.condition, v.detail) for v in expected.violations
        ]
        g = h.graph
        support = set().union(*g.extensions.values())
        jumping = set(jumping_nodes(h))
        for x in g.nodes:
            for y in g.nodes:
                if g.extensions[x] <= g.extensions[y] and h.depth[x] > h.depth[y] + 1:
                    seen.add(("jumping" if x in jumping else "not jumping", not g.extensions[x]))
        seen.add(("large support", (1 << len(support)) > max(64, 2 * len(g.nodes))))
    assert seen >= {
        ("not jumping", False), ("jumping", False), ("jumping", True),
        ("large support", True), ("large support", False),
    }


def test_valid_chain_seed_with_a_large_support_walks_no_condition(monkeypatch):
    """A valid certificate has no suspects, so condition 3 is never
    walked, however many members its extensions span."""

    def walked(*args):
        raise AssertionError("condition 3 walked on a valid certificate")

    monkeypatch.setattr(dred, "_subset_depth_violations", walked)
    h = chain_seed(3, 400, tuple((0, (str(i), str(2 * i + 1))) for i in range(40)), 2)
    support = set().union(*h.graph.extensions.values())
    assert len(support) >= 400 and len(jumping_nodes(h)) >= 40
    assert verify_dred(h).ok
