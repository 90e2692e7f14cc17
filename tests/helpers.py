"""Shared test utilities.

Everything here is deliberately naive: second implementations used as
ground truth must stay independent of the library code they check, so
they favour obviousness over speed.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
from collections import Counter
from typing import Any, Iterator, Mapping

from setforge import (
    FORMAT_VERSION,
    AnnotatedGraph,
    AtomDecl,
    AxiomReport,
    Code,
    CodeSpec,
    Deficiency,
    ExtensionalDigraph,
    ParseError,
    SchemaError,
    Seed,
    SetforgeError,
    SizeLimitError,
    TupleDecl,
    collection,
    decorate,
    extensionality_violation,
    require_extensional,
    value_extension,
)
from setforge import dred
from setforge.completion import (
    DEFAULT_BUDGET,
    Budget,
    WitnessFailure,
    WitnessReport,
    _growth,
    _subsets,
    complete_step,
)
from setforge.graph import NodeId, Provenance, subset_node_id
from setforge.logic import (
    MAX_FORMULA_DEPTH,
    And,
    Equal,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Member,
    Not,
    Or,
    Var,
    _tokenize,
)
from setforge.seeds import _MAX_VON_NEUMANN_STAGE, _set_notation


def edges(g: ExtensionalDigraph) -> frozenset[tuple[NodeId, NodeId]]:
    """The edge set as (member, container) pairs."""
    return frozenset((m, c) for c, ms in g.extensions.items() for m in ms)


def is_extensional(g: ExtensionalDigraph) -> bool:
    return extensionality_violation(g) is None


def is_end_extension(small: ExtensionalDigraph, big: ExtensionalDigraph) -> bool:
    """True when ``big`` end-extends ``small``: nodes and edges carry
    over, and no node of ``small`` gains a new member in ``big``.

    Equivalent formulation used here: every old node keeps exactly its
    old extension, which covers both "edges are preserved" and "no new
    members of old nodes" in one pass.
    """
    if not small.nodes <= big.nodes:
        return False
    for x in small.nodes:
        if big.extensions[x] != small.extensions[x]:
            return False
    return True


def affordable_levels(seed_size: int, requested: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """How many completion steps of an extensional ``seed_size``-node
    graph the budget permits, capped at ``requested``: the steps that
    ``complete`` takes before it refuses, by its own growth law."""
    return _growth(seed_size, requested, budget)[0]


def reference_check_infinity(g: ExtensionalDigraph) -> AxiomReport:
    """The infinity probe as a search: a node with an empty member whose
    every member ``x`` has a member ``s`` with ext(s) = ext(x) | {x}."""
    for i in g.sorted_nodes():
        members = g.extensions[i]
        if not any(not g.extensions[e] for e in members):
            continue
        closed = all(
            any(g.extensions[s] == g.extensions[x] | {x} for s in members)
            for x in members
        )
        if closed:
            return AxiomReport(
                "infinity", True, (i,), f"{i!r} contains an empty node and successors"
            )
    return AxiomReport(
        "infinity", False, (), "no node is successor-closed around an empty member"
    )


def reference_witness_report(u: AnnotatedGraph) -> WitnessReport:
    """``witness_report`` as it was while the power-set clause scanned
    every node for the representatives of each subset; the reference
    for its report, on extensional records and others."""
    g = u.graph
    by_extension = {ext: x for x, ext in g.extensions.items()}
    checked: list[tuple[int, str]] = []
    failures: list[WitnessFailure] = []
    top = len(u.levels) - 1

    def represented_in(target: frozenset, level: int) -> bool:
        node = by_extension.get(target)
        return node is not None and node in u.levels[level]

    for n in range(top):
        level_nodes = sorted(u.levels[n])
        checked.append((n, "pairing"))
        for i, x0 in enumerate(level_nodes):
            for x1 in level_nodes[i:]:
                if not represented_in(frozenset((x0, x1)), n + 1):
                    failures.append(
                        WitnessFailure(n, "pairing", f"pair {{{x0}, {x1}}} missing at level {n + 1}")
                    )
        checked.append((n, "union"))
        for x in level_nodes:
            union = frozenset().union(*(g.extensions[y] for y in g.extensions[x]))
            if not represented_in(union, n + 1):
                failures.append(WitnessFailure(n, "union", f"union of {x} missing at level {n + 1}"))
        checked.append((n, "subsets"))
        for x in level_nodes:
            ext = sorted(g.extensions[x])
            for mask in range(1 << len(ext)):
                subset = frozenset(ext[i] for i in range(len(ext)) if mask >> i & 1)
                if not represented_in(subset, n + 1):
                    failures.append(
                        WitnessFailure(
                            n,
                            "subsets",
                            f"subset {{{', '.join(sorted(subset))}}} of {x} missing at level {n + 1}",
                        )
                    )
        if n + 2 <= top:
            checked.append((n, "power_set"))
            for x in level_nodes:
                ext = g.extensions[x]
                representatives = frozenset(z for z, zext in g.extensions.items() if zext <= ext)
                if not represented_in(representatives, n + 2):
                    failures.append(
                        WitnessFailure(n, "power_set", f"power set of {x} missing at level {n + 2}")
                    )
    return WitnessReport(checked=tuple(checked), failures=tuple(failures))


def naive_is_extensional(g: ExtensionalDigraph) -> bool:
    """Double loop over node pairs, no hashing tricks."""
    nodes = sorted(g.nodes)
    for i, x in enumerate(nodes):
        for y in nodes[i + 1 :]:
            if g.extensions[x] == g.extensions[y]:
                return False
    return True


def _structural_label(p) -> tuple:
    if isinstance(p, Seed):
        return ("seed",)
    if isinstance(p, Deficiency):
        return ("deficiency", p.level)
    assert isinstance(p, Code)
    return ("code", p.kind)


def naive_is_isomorphic(a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool:
    """Try every bijection from the nodes of ``a`` to those of ``b``.

    A bijection counts when it maps edges onto edges exactly and keeps
    the provenance kind (with the level of deficiency nodes and the
    kind of code nodes); labels and ids may differ.
    """
    if len(a.nodes) != len(b.nodes):
        return False
    xs = sorted(a.nodes)
    for image in itertools.permutations(sorted(b.nodes)):
        f = dict(zip(xs, image))
        if all(
            _structural_label(a.provenance[x]) == _structural_label(b.provenance[f[x]])
            and {f[m] for m in a.extensions[x]} == b.extensions[f[x]]
            for x in xs
        ):
            return True
    return False


# The reference search's own state cap, in its own unit (assignments
# tried), apart from the library's cap.
_REFERENCE_STATE_LIMIT = 500_000


def _reference_initial_colours(g: ExtensionalDigraph) -> dict[NodeId, tuple]:
    containers = g.containers()
    out = {}
    for x in g.nodes:
        ext = g.extensions[x]
        out[x] = (
            _structural_label(g.provenance[x]),
            x in ext,
            len(ext),
            len(containers[x]),
        )
    return out


def _reference_refine(
    graphs: list[ExtensionalDigraph],
    colourings: list[dict[NodeId, int]],
) -> list[dict[NodeId, int]]:
    """Jointly refine colourings of one or two graphs to a stable
    partition (1-dimensional Weisfeiler-Leman over both edge directions).

    Joint refinement keeps colour identifiers comparable across graphs.
    """
    containers = [g.containers() for g in graphs]
    classes = len({c for col in colourings for c in col.values()})
    while True:
        table: dict[tuple, int] = {}
        colourings = [
            {
                x: table.setdefault(
                    (
                        colouring[x],
                        tuple(sorted(colouring[m] for m in g.extensions[x])),
                        tuple(sorted(colouring[c] for c in cont[x])),
                    ),
                    len(table),
                )
                for x in g.nodes
            }
            for g, colouring, cont in zip(graphs, colourings, containers)
        ]
        if len(table) == classes:
            return colourings
        classes = len(table)


def reference_is_isomorphic(a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool:
    """The isomorphism test as it was before condensation colouring,
    kept as a differential reference: colour refinement over both edge
    directions from (label, self-loop, degree) colours, then
    backtracking search.  Raises SizeLimitError past
    ``_REFERENCE_STATE_LIMIT`` search states.
    """
    if len(a.nodes) != len(b.nodes):
        return False
    if len(a.nodes) == 0:
        return True
    init_table: dict[tuple, int] = {}
    col_a = {x: init_table.setdefault(sig, len(init_table)) for x, sig in _reference_initial_colours(a).items()}
    col_b = {x: init_table.setdefault(sig, len(init_table)) for x, sig in _reference_initial_colours(b).items()}
    col_a, col_b = _reference_refine([a, b], [col_a, col_b])
    if Counter(col_a.values()) != Counter(col_b.values()):
        return False

    by_colour_b: dict[int, list[NodeId]] = {}
    for y, c in col_b.items():
        by_colour_b.setdefault(c, []).append(y)
    for ys in by_colour_b.values():
        ys.sort()

    # Assign nodes of `a` in order of ascending candidate-class size so
    # forced matches happen first.
    order = sorted(a.nodes, key=lambda x: (len(by_colour_b[col_a[x]]), x))
    cont_a = a.containers()
    cont_b = b.containers()
    fwd: dict[NodeId, NodeId] = {}
    bwd: dict[NodeId, NodeId] = {}
    states = 0

    def consistent(x: NodeId, y: NodeId) -> bool:
        for m in a.extensions[x]:
            if m in fwd and fwd[m] not in b.extensions[y]:
                return False
        for c in cont_a[x]:
            if c in fwd and fwd[c] not in cont_b[y]:
                return False
        for m in b.extensions[y]:
            if m in bwd and bwd[m] not in a.extensions[x]:
                return False
        for c in cont_b[y]:
            if c in bwd and bwd[c] not in cont_a[x]:
                return False
        return True

    # Depth-first over candidate assignments, with an explicit iterator
    # stack: recursion depth would otherwise scale with the node count.
    stack: list[Iterator[NodeId]] = [iter(by_colour_b[col_a[order[0]]])]
    while stack:
        i = len(stack) - 1
        x = order[i]
        found = False
        for y in stack[-1]:
            if y in bwd or not consistent(x, y):
                continue
            fwd[x] = y
            bwd[y] = x
            found = True
            break
        if found:
            states += 1
            if states > _REFERENCE_STATE_LIMIT:
                raise SizeLimitError("isomorphism search exceeded its state cap")
            if i + 1 == len(order):
                return True
            stack.append(iter(by_colour_b[col_a[order[i + 1]]]))
        else:
            stack.pop()
            if stack:
                undo = order[len(stack) - 1]
                del bwd[fwd.pop(undo)]
    return False


def reference_condensation_colours(
    g: ExtensionalDigraph, table: dict[tuple, int]
) -> dict[NodeId, int]:
    """``graph._condensation_colours`` as it was while every node went
    through Tarjan's walk; the reference for the partition it makes.

    A node on no cycle is keyed by its provenance and the sorted colours
    of its members; a node of a cycle by its provenance, its self-loop
    flag, the sorted colours of its members outside its component and
    its member and container counts inside it."""
    ext = g.extensions
    provenance = g.provenance
    intern = table.setdefault
    colour: dict[NodeId, int] = {}
    index: dict[NodeId, int] = {}
    finished = len(ext)
    low: dict[NodeId, int] = {}
    stack: list[NodeId] = []
    for root in ext:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(ext[root]))]
        while work:
            x, members = work[-1]
            lx = low[x]
            for m in members:
                i = index.get(m)
                if i is None:
                    low[x] = lx
                    index[m] = low[m] = len(index)
                    stack.append(m)
                    work.append((m, iter(ext[m])))
                    break
                if i < lx:
                    lx = i
            else:
                work.pop()
                if work and lx < low[work[-1][0]]:
                    low[work[-1][0]] = lx
                if lx != index[x]:
                    continue
                if stack[-1] == x and x not in ext[x]:
                    stack.pop()
                    index[x] = finished
                    colour[x] = intern(
                        (
                            _structural_label(provenance[x]),
                            tuple(sorted([colour[m] for m in ext[x]])),
                        ),
                        len(table),
                    )
                    continue
                cut = len(stack) - 1
                while stack[cut] != x:
                    cut -= 1
                component = stack[cut:]
                del stack[cut:]
                keys: dict[NodeId, tuple] = {}
                containers_in: Counter[NodeId] = Counter()
                for y in component:
                    outside = [colour[m] for m in ext[y] if m in colour]
                    containers_in.update(m for m in ext[y] if m not in colour)
                    keys[y] = (
                        _structural_label(provenance[y]),
                        y in ext[y],
                        tuple(sorted(outside)),
                        len(ext[y]) - len(outside),
                    )
                for y in component:
                    colour[y] = intern(keys[y] + (containers_in[y],), len(table))
                    index[y] = finished
    return colour


def random_extensional_graph(
    rng: random.Random,
    max_nodes: int,
    *,
    min_nodes: int = 0,
) -> ExtensionalDigraph:
    """A uniform-ish random extensional digraph, any wiring allowed.

    Rejection sampling: draw random extensions until they are pairwise
    distinct.  Acceptance is high for the sizes tests use (<= 6 nodes),
    so the retry loop terminates quickly in practice.
    """
    n = rng.randint(min_nodes, max_nodes)
    names = [f"n{i}" for i in range(n)]
    while True:
        extensions = {
            x: frozenset(y for y in names if rng.random() < 0.4) for x in names
        }
        if len(set(extensions.values())) == n:
            return ExtensionalDigraph.from_extensions(extensions)


def random_chain_spec(rng: random.Random) -> CodeSpec:
    """A chain-style spec of one or two chain atoms of one or two links
    and one or two one-component tuples."""
    chains = rng.randint(1, 2)
    atoms = tuple(
        AtomDecl(f"c{j}", "chain", length=rng.randint(1, 2))
        for j in range(chains)
    )
    naturals = chains + 1
    labels = [a.label for a in atoms] + [str(k) for k in range(naturals)]
    tuples = []
    seen = set()
    for _ in range(rng.randint(1, 2)):
        tag = rng.randrange(naturals)
        components = (rng.choice(labels),)
        if (tag, components) in seen:
            continue
        seen.add((tag, components))
        tuples.append(TupleDecl(tag, components))
    return CodeSpec(
        atoms=atoms,
        naturals_up_to=naturals,
        tuples=tuple(tuples),
        code_style="chain",
        code_length=rng.randint(1, 2),
    )


def set_rank(g: ExtensionalDigraph) -> dict:
    """Independent recomputation: rank 0 at empty extension, else
    1 + max member rank. Only called on well-founded graphs."""
    rank = {}

    def visit(x):
        if x in rank:
            return rank[x]
        rank[x] = max((visit(m) + 1 for m in g.extensions[x]), default=0)
        return rank[x]

    for x in sorted(g.nodes):
        visit(x)
    return rank


def reference_chain_style_certificate(g: ExtensionalDigraph) -> AnnotatedGraph:
    """The chain-style certificate by the recipe ``seeds`` used to carry:
    nodes visited in increasing rank, which rises along every edge,
    each one step above its deepest member at a chain atom's link or a
    chain code's node and level with it elsewhere; family ``i`` the
    rank on the nodes of depth below ``i``, which the record holds as
    the rank and the top family index."""
    rank = set_rank(g)
    depth: dict[NodeId, int] = {}
    for x in sorted(g.nodes, key=rank.__getitem__):
        prov = g.provenance[x]
        step = isinstance(prov, Code) and prov.kind in ("atom", "chain")
        depth[x] = max((depth[m] for m in g.extensions[x]), default=0) + step
    top = max(depth.values(), default=0) + 1
    return AnnotatedGraph(g, depth=depth, rank=rank, top=top)


def reference_families(h: AnnotatedGraph) -> dict[int, dict[NodeId, int]]:
    """The rank families ``r_1`` to ``r_top`` of ``h``'s certificate, as
    a v1 document writes them: ``r_top`` is the rank map itself, and
    each lower ``r_i`` the rank map on the nodes whose depth is below
    ``i``."""
    families = {}
    for i in range(1, h.top + 1):
        if i == h.top:
            families[i] = dict(h.rank)
        else:
            families[i] = {x: r for x, r in h.rank.items() if x in h.depth and h.depth[x] < i}
    return families


def reference_dred_complete(h: AnnotatedGraph, n: int) -> AnnotatedGraph:
    """``dred_complete`` as it was while it walked each new node's
    members: depth the greatest member depth (0 for none) and, below the
    top family index, rank one above the greatest member rank (0 for
    none).  The certificate is verified through ``dred.require_dred``
    before the first step and after every step, as there."""
    dred.require_dred(h)
    depth, rank, top = dict(h.depth), dict(h.rank), h.top
    u = AnnotatedGraph(h.graph, levels=(h.graph.nodes,), depth=depth, rank=rank, top=top)
    for _ in range(n):
        step = complete_step(u)
        for node in step.levels[-1] - step.levels[-2]:
            members = step.graph.extensions[node]
            d = max((depth[m] for m in members), default=0)
            depth[node] = d
            if d < top:
                rank[node] = max((rank[m] for m in members), default=-1) + 1
        u = AnnotatedGraph(step.graph, levels=step.levels, depth=depth, rank=rank, top=top)
        dred.require_dred(u)
    return u


def key_syntax_seed() -> ExtensionalDigraph:
    """Self-looped a, b and "a),atom(b", e = {}, c = {a, b, e} and
    d = {a),atom(b, e}: c and d would spell one key if labels went into
    keys as they are, and the decoration would conflate them."""
    return ExtensionalDigraph.from_extensions(
        {
            "a": {"a"},
            "b": {"b"},
            "a),atom(b": {"a),atom(b"},
            "e": set(),
            "c": {"a", "b", "e"},
            "d": {"a),atom(b", "e"},
        }
    )


def random_decorable_graph(
    rng: random.Random,
    max_nodes: int,
    *,
    min_nodes: int = 0,
) -> ExtensionalDigraph:
    """Random extensional digraph whose only cycles are self-loops.

    Non-loop edges always point from lower to higher index, so any
    cycle must be a self-loop; extensionality again by rejection.
    """
    n = rng.randint(min_nodes, max_nodes)
    names = [f"n{i}" for i in range(n)]
    while True:
        extensions = {}
        for i, x in enumerate(names):
            members = {y for y in names[:i] if rng.random() < 0.5}
            if rng.random() < 0.25:
                members.add(x)
            extensions[x] = frozenset(members)
        if len(set(extensions.values())) == n:
            return ExtensionalDigraph.from_extensions(extensions)


def all_small_self_loop_digraphs(max_nodes: int = 3):
    """Every extensional digraph on <= max_nodes labeled nodes whose
    cycles are all self-loops.  Yields graphs; the labeling is fixed,
    so isomorphic duplicates do occur (harmless for exhaustive runs).
    """
    assert max_nodes <= 3, "enumeration is exponential in edges"
    for n in range(max_nodes + 1):
        names = [f"n{i}" for i in range(n)]
        subsets = []
        for mask in range(2**n):
            subsets.append(frozenset(names[i] for i in range(n) if mask >> i & 1))
        # choose an extension per node
        def rec(i, chosen):
            if i == n:
                yield dict(zip(names, chosen))
                return
            for s in subsets:
                if s in chosen:
                    continue  # extensionality
                yield from rec(i + 1, chosen + [s])

        for extensions in rec(0, []):
            if _has_non_loop_cycle(extensions):
                continue
            yield ExtensionalDigraph.from_extensions(extensions)


def _has_non_loop_cycle(extensions) -> bool:
    # DFS over edges that are not self-loops
    WHITE, GREY, BLACK = 0, 1, 2
    state = {x: WHITE for x in extensions}

    def visit(x):
        state[x] = GREY
        for m in extensions[x]:
            if m == x:
                continue
            if state[m] == GREY:
                return True
            if state[m] == WHITE and visit(m):
                return True
        state[x] = BLACK
        return False

    return any(state[x] == WHITE and visit(x) for x in extensions)


def naive_eval(g: ExtensionalDigraph, f: Formula, env: dict) -> bool:
    """Tarskian satisfaction by direct structural recursion.

    Independent of the compiled evaluator in the library; environments
    are copied on each quantifier step instead of mutated.
    """
    if isinstance(f, Member):
        return env[f.left] in g.extensions[env[f.right]]
    if isinstance(f, Equal):
        return env[f.left] == env[f.right]
    if isinstance(f, Not):
        return not naive_eval(g, f.body, env)
    if isinstance(f, And):
        return naive_eval(g, f.left, env) and naive_eval(g, f.right, env)
    if isinstance(f, Or):
        return naive_eval(g, f.left, env) or naive_eval(g, f.right, env)
    if isinstance(f, Implies):
        return (not naive_eval(g, f.left, env)) or naive_eval(g, f.right, env)
    if isinstance(f, Iff):
        return naive_eval(g, f.left, env) == naive_eval(g, f.right, env)
    if isinstance(f, Exists):
        return any(
            naive_eval(g, f.body, {**env, f.var: x}) for x in sorted(g.nodes)
        )
    if isinstance(f, ForAll):
        return all(
            naive_eval(g, f.body, {**env, f.var: x}) for x in sorted(g.nodes)
        )
    raise TypeError(f"unexpected formula node {f!r}")


_VARS = ("x", "y", "z", "w")


def random_formula(rng: random.Random, depth: int, bound=()) -> Formula:
    """Random AST over variables x, y, z, w.

    Leaves only use bound variables when any exist, so generated
    formulas evaluated with an empty environment stay closed whenever
    the outermost call wraps them in quantifiers; callers that want
    open formulas pass their free variables as ``bound``.
    """
    if depth == 0 or (rng.random() < 0.25 and bound):
        pool = bound if bound else _VARS[:1]
        a, b = rng.choice(pool), rng.choice(pool)
        return Member(a, b) if rng.random() < 0.6 else Equal(a, b)
    roll = rng.random()
    if roll < 0.35:
        var = rng.choice(_VARS)
        body = random_formula(rng, depth - 1, tuple(set(bound) | {var}))
        return Exists(var, body) if rng.random() < 0.5 else ForAll(var, body)
    if roll < 0.45:
        return Not(random_formula(rng, depth - 1, bound))
    ctor = rng.choice((And, Or, Implies, Iff))
    return ctor(
        random_formula(rng, depth - 1, bound),
        random_formula(rng, depth - 1, bound),
    )


def random_closed_formula(rng: random.Random, depth: int) -> Formula:
    """Random formula with no free variables: quantify what leaks."""
    from setforge import free_variables

    f = random_formula(rng, depth)
    for var in sorted(free_variables(f)):
        f = Exists(var, f)
    return f


# The printer: the parse/print round-trip tests check ``parse`` against it.
_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_NOT = 5


def _print(f: Formula, parent: int) -> str:
    if isinstance(f, Member):
        return f"{f.left} in {f.right}"
    if isinstance(f, Equal):
        return f"{f.left} = {f.right}"
    if isinstance(f, Not):
        return "!" + _print(f.body, _PREC_NOT)
    if isinstance(f, (Exists, ForAll)):
        word = "exists" if isinstance(f, Exists) else "all"
        text = f"{word} {f.var}. {_print(f.body, 0)}"
        return f"({text})" if parent > 0 else text
    if isinstance(f, And):
        text = f"{_print(f.left, _PREC_AND)} & {_print(f.right, _PREC_AND + 1)}"
        mine = _PREC_AND
    elif isinstance(f, Or):
        text = f"{_print(f.left, _PREC_OR)} | {_print(f.right, _PREC_OR + 1)}"
        mine = _PREC_OR
    elif isinstance(f, Implies):
        text = f"{_print(f.left, _PREC_IMP + 1)} -> {_print(f.right, _PREC_IMP)}"
        mine = _PREC_IMP
    elif isinstance(f, Iff):
        text = f"{_print(f.left, _PREC_IFF + 1)} <-> {_print(f.right, _PREC_IFF)}"
        mine = _PREC_IFF
    else:
        raise TypeError(f"not a formula: {f!r}")
    return f"({text})" if mine < parent else text


def print_formula(f: Formula) -> str:
    """Render ``f`` in the ASCII grammar; parse(print_formula(f)) == f
    whenever the printed text is within ``MAX_FORMULA_DEPTH``."""
    return _print(f, 0)


# The reference parser: the grammar in ``setforge.logic``'s docstring
# with one method per precedence tier, which ``parse`` must agree with
# on every tree, error message and error position.


class _ReferenceParser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, got {tok[1] or 'end of input'!r}", tok[2])
        return self.take()

    def fit(self, level: int, depth: int, tok) -> int:
        if level + depth - 1 > MAX_FORMULA_DEPTH:
            raise ParseError(f"formula nests deeper than {MAX_FORMULA_DEPTH} levels", tok[2])
        return depth

    def iff(self, level: int) -> tuple[Formula, int]:
        left, depth = self.imp(level)
        tok = self.peek()
        if tok[0] == "<->":
            self.take()
            right, right_depth = self.iff(level + 1)
            return Iff(left, right), self.fit(level, 1 + max(depth, right_depth), tok)
        return left, depth

    def imp(self, level: int) -> tuple[Formula, int]:
        left, depth = self.or_(level)
        tok = self.peek()
        if tok[0] == "->":
            self.take()
            right, right_depth = self.imp(level + 1)
            return Implies(left, right), self.fit(level, 1 + max(depth, right_depth), tok)
        return left, depth

    def or_(self, level: int) -> tuple[Formula, int]:
        node, depth = self.and_(level)
        while self.peek()[0] == "|":
            tok = self.take()
            right, right_depth = self.and_(level + 1)
            node, depth = Or(node, right), self.fit(level, 1 + max(depth, right_depth), tok)
        return node, depth

    def and_(self, level: int) -> tuple[Formula, int]:
        node, depth = self.unary(level)
        while self.peek()[0] == "&":
            tok = self.take()
            right, right_depth = self.unary(level + 1)
            node, depth = And(node, right), self.fit(level, 1 + max(depth, right_depth), tok)
        return node, depth

    def unary(self, level: int) -> tuple[Formula, int]:
        tok = self.peek()
        self.fit(level, 1, tok)
        if tok[0] == "!":
            self.take()
            body, depth = self.unary(level + 1)
            return Not(body), 1 + depth
        if tok[0] in {"exists", "all"}:
            self.take()
            var = self.expect("name", "a variable name")[1]
            self.expect(".", "'.' after the bound variable")
            body, depth = self.iff(level + 1)
            return (Exists(var, body) if tok[0] == "exists" else ForAll(var, body)), 1 + depth
        return self.atom(level)

    def atom(self, level: int) -> tuple[Formula, int]:
        tok = self.peek()
        if tok[0] == "(":
            self.take()
            inner, depth = self.iff(level + 1)
            closing = self.peek()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            self.take()
            return inner, 1 + depth
        if tok[0] == "name":
            left = self.take()[1]
            op = self.peek()
            if op[0] == "in":
                self.take()
                right = self.expect("name", "a variable name")[1]
                return Member(left, right), 1
            if op[0] == "=":
                self.take()
                right = self.expect("name", "a variable name")[1]
                return Equal(left, right), 1
            raise ParseError("expected 'in' or '=' after a variable", op[2])
        raise ParseError(f"expected a formula, got {tok[1] or 'end of input'!r}", tok[2])


def reference_parse(text: str) -> Formula:
    parser = _ReferenceParser(text)
    out, _ = parser.iff(1)
    trailing = parser.peek()
    if trailing[0] != "eof":
        raise ParseError(f"unexpected trailing input {trailing[1]!r}", trailing[2])
    return out


# Code-detection formulas, built as syntax trees rather than parsed:
# chain_code_formula(300) nests deeper than ``parse`` accepts.


def _is_doubleton_of(setvar: Var, first: Var, second: Var) -> Formula:
    """setvar = {first, second} spelled out in raw membership.  Callers
    never name a variable ``z``, so it is free to bind here."""
    return ForAll("z", Iff(Member("z", setvar), Or(Equal("z", first), Equal("z", second))))


def quine_code_formula() -> Formula:
    """Selects p when some b other than p satisfies b = {p, b}.

    On a loop-coded graph this picks out exactly the guarded tuple
    nodes: the self-membership forces b to carry a self-loop, and the
    only self-looped nodes whose other member is p are p's codes.
    """
    return Exists(
        "b",
        And(_is_doubleton_of("b", "b", "p"), Not(Equal("b", "p"))),
    )


def chain_code_formula(bound: int) -> Formula:
    """Bounded unfolding of the descending-chain code shape.

    Selects p when nodes b_0 .. b_bound exist with b_j = {b_{j+1}, p}
    for every j below ``bound``. On a graph whose codes are chains of
    length L this keeps every guarded tuple node selected as long as
    bound < L (the chain itself provides the b_j); larger bounds run
    off the truncated end. The unfolding is coarser than the unbounded
    shape it approximates, so on small graphs other descending
    configurations can satisfy it as well.
    """
    if bound < 1:
        raise ValueError("unfolding bound must be at least 1")
    names = [f"b{j}" for j in range(bound + 1)]
    body: Formula | None = None
    for j in range(bound):
        clause = _is_doubleton_of(names[j], names[j + 1], "p")
        body = clause if body is None else And(body, clause)
    assert body is not None
    out = body
    for name in reversed(names):
        out = Exists(name, out)
    return out


_DOT_NODE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*(?:\[(.*)\])?\s*;$')
_DOT_EDGE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*->\s*"((?:[^"\\]|\\.)*)"\s*;$')


def parse_dot(text: str):
    """Minimal DOT reader: just enough grammar for the exporter's output.

    Returns (graph_name, {node_id: attrs_or_None}, [(src, dst), ...]).
    Raises ValueError on anything outside the tiny fragment, which is
    the point: the exporter must stay inside it.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("digraph "):
        raise ValueError("missing digraph header")
    header = re.match(r'^digraph "((?:[^"\\]|\\.)*)" \{$', lines[0])
    if header is None:
        raise ValueError(f"bad header: {lines[0]!r}")
    if lines[-1] != "}":
        raise ValueError("missing closing brace")
    nodes: dict[str, str | None] = {}
    edges: list[tuple[str, str]] = []
    for line in lines[1:-1]:
        if not line.strip():
            continue
        if line.strip().startswith("rankdir"):
            continue
        m = _DOT_EDGE.match(line)
        if m:
            edges.append((_dot_unescape(m.group(1)), _dot_unescape(m.group(2))))
            continue
        m = _DOT_NODE.match(line)
        if m:
            nodes[_dot_unescape(m.group(1))] = m.group(2)
            continue
        raise ValueError(f"unparsed DOT line: {line!r}")
    return header.group(1), nodes, edges


def _dot_unescape(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def reference_to_dot(source: AnnotatedGraph) -> str:
    """``to_dot`` as it was while it quoted both ends of every edge
    again; the reference for byte identity."""

    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def label_attr(lines: list[str]) -> str:
        escaped = "\\n".join(
            part.replace("\\", "\\\\").replace('"', '\\"') for part in lines
        )
        return f'"{escaped}"'

    def base_label(x: NodeId) -> str:
        p = g.provenance[x]
        if isinstance(p, Seed):
            return p.label
        if isinstance(p, Deficiency):
            return f"D{p.level}#{len(g.extensions[x])}"
        return p.detail

    shades = ("gray92", "gray84", "gray76", "gray68")
    g, depth = source.graph, source.depth
    top_rank = reference_families(source)[source.top] if source.top else {}
    lines = ['digraph "setforge" {', "  rankdir=BT;"]
    for x in g.sorted_nodes():
        label_lines = [base_label(x)]
        if depth is not None:
            note = f"d={depth[x]}"
            if x in top_rank:
                note += f" r={top_rank[x]}"
            label_lines.append(note)
        attrs = [f"label={label_attr(label_lines)}"]
        p = g.provenance[x]
        if isinstance(p, Deficiency):
            shade = shades[min(p.level - 1, len(shades) - 1)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={quote(shade)}")
        lines.append(f"  {quote(x)} [{', '.join(attrs)}];")
    for member, container in sorted(edges(g)):
        lines.append(f"  {quote(member)} -> {quote(container)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- documents -----------------------------------------------------------------

_REFERENCE_CODE_KINDS = ("loop", "chain", "tuple", "atom")


def _reference_want(raw: Mapping[str, Any], key: str, kind: type, path: str) -> Any:
    if key not in raw:
        raise SchemaError(path, f"missing required field {key!r}")
    value = raw[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{path}.{key}" if path != "$" else key, f"expected {kind.__name__}")
    return value


def _lone_surrogate(s: str) -> bool:
    return any("\ud800" <= c <= "\udfff" for c in s)


def _reference_parse_provenance(raw: Any, path: str) -> Provenance:
    if not isinstance(raw, dict):
        raise SchemaError(path, "provenance must be an object")
    kind = raw.get("kind")
    if kind == "seed":
        label = raw.get("label")
        if not isinstance(label, str):
            raise SchemaError(path, "seed provenance needs a string label")
        if _lone_surrogate(label):
            raise SchemaError(f"{path}.label", "labels must not hold a lone surrogate")
        return Seed(label=label)
    if kind == "deficiency":
        level = raw.get("level")
        if not isinstance(level, int) or isinstance(level, bool) or level < 1:
            raise SchemaError(path, "deficiency level must be an integer >= 1")
        members = raw.get("members")
        if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
            raise SchemaError(path, "deficiency members must be a list of ids")
        return Deficiency(level=level)
    if kind == "code":
        code_kind = raw.get("code_kind")
        if code_kind not in _REFERENCE_CODE_KINDS:
            raise SchemaError(path, f"code_kind must be one of {', '.join(_REFERENCE_CODE_KINDS)}")
        detail = raw.get("detail")
        if not isinstance(detail, str):
            raise SchemaError(path, "code provenance needs a string detail")
        if _lone_surrogate(detail):
            raise SchemaError(f"{path}.detail", "details must not hold a lone surrogate")
        return Code(kind=code_kind, detail=detail)
    raise SchemaError(path, f"unknown provenance kind {kind!r}")


def reference_serialize(doc: AnnotatedGraph) -> str:
    """``serialize`` as it was while it sorted every block itself before
    handing it to ``json.dumps``; the reference for byte identity."""

    g = doc.graph

    def provenance_json(x):
        p = g.provenance[x]
        if isinstance(p, Seed):
            return {"kind": "seed", "label": p.label}
        if isinstance(p, Deficiency):
            return {"kind": "deficiency", "level": p.level, "members": sorted(g.extensions[x])}
        return {"kind": "code", "code_kind": p.kind, "detail": p.detail}

    payload = {
        "format_version": FORMAT_VERSION,
        "nodes": [
            {"id": x, "provenance": provenance_json(x)}
            for x in g.sorted_nodes()
        ],
        "edges": sorted([m, c] for m, c in edges(g)),
    }
    if doc.levels is not None:
        payload["levels"] = [sorted(level) for level in doc.levels]
    if doc.depth is not None:
        payload["depth"] = dict(sorted(doc.depth.items()))
    if doc.rank is not None:
        payload["ranks"] = {
            str(i): dict(sorted(r.items())) for i, r in sorted(reference_families(doc).items())
        }
    if doc.formulas:
        payload["formulas"] = dict(sorted(doc.formulas.items()))
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def reference_deserialize(text: str) -> AnnotatedGraph:
    """``deserialize`` as it was while it walked every node, edge and
    annotation one by one; the reference for what is accepted, what is
    built and which error is raised."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON: {e.msg} at position {e.pos}") from e
    except RecursionError as e:
        raise SchemaError("$", "invalid JSON: nested too deeply") from e
    except ValueError as e:  # an integer literal past the conversion limit
        raise SchemaError(
            "$", f"invalid JSON: integers have at most {sys.get_int_max_str_digits()} digits"
        ) from e
    if not isinstance(raw, dict):
        raise SchemaError("$", "document must be a JSON object")
    version = _reference_want(raw, "format_version", int, "$")
    if version != FORMAT_VERSION:
        raise SchemaError("format_version", f"unsupported version {version}")

    nodes_raw = _reference_want(raw, "nodes", list, "$")
    extensions: dict[NodeId, set[NodeId]] = {}
    provenance: dict[NodeId, Provenance] = {}
    order: list[str] = []
    for i, item in enumerate(nodes_raw):
        path = f"nodes[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(path, "node entries must be objects")
        node_id = item.get("id")
        if not isinstance(node_id, str) or not node_id:
            raise SchemaError(path, "node id must be a nonempty string")
        if _lone_surrogate(node_id):
            raise SchemaError(f"{path}.id", "node ids must not hold a lone surrogate")
        if node_id in extensions:
            raise SchemaError(path, f"duplicate node id {node_id!r}")
        extensions[node_id] = set()
        order.append(node_id)
    known = frozenset(extensions)
    for i, item in enumerate(nodes_raw):
        provenance[order[i]] = _reference_parse_provenance(
            item.get("provenance"), f"nodes[{i}].provenance"
        )

    edges_raw = _reference_want(raw, "edges", list, "$")
    for i, pair in enumerate(edges_raw):
        path = f"edges[{i}]"
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(end, str) for end in pair)
        ):
            raise SchemaError(path, "edges must be [member, container] id pairs")
        member, container = pair
        if member not in known:
            raise SchemaError(path, f"references unknown id {member!r}")
        if container not in known:
            raise SchemaError(path, f"references unknown id {container!r}")
        extensions[container].add(member)

    # A deficiency node's members are written from its extension, so a
    # document whose two copies disagree did not come from ``serialize``.
    for i, item in enumerate(nodes_raw):
        p, ext = provenance[order[i]], extensions[order[i]]
        if isinstance(p, Deficiency) and item["provenance"]["members"] != sorted(ext):
            raise SchemaError(
                f"nodes[{i}].provenance",
                "deficiency members must equal the node's extension",
            )

    graph = ExtensionalDigraph({x: frozenset(ms) for x, ms in extensions.items()}, provenance)

    levels: tuple[frozenset[NodeId], ...] | None = None
    if "levels" in raw:
        levels_raw = _reference_want(raw, "levels", list, "$")
        collected: list[frozenset[NodeId]] = []
        for i, level in enumerate(levels_raw):
            path = f"levels[{i}]"
            if not isinstance(level, list) or not all(isinstance(x, str) for x in level):
                raise SchemaError(path, "levels must be lists of node ids")
            stray = [x for x in level if x not in known]
            if stray:
                raise SchemaError(path, f"references unknown id {stray[0]!r}")
            current = frozenset(level)
            if collected and not collected[-1] <= current:
                raise SchemaError(path, "levels must be cumulative")
            collected.append(current)
        if not collected:
            raise SchemaError("levels", "levels block must not be empty")
        if collected[-1] != known:
            raise SchemaError("levels", "top level must contain every node")
        levels = tuple(collected)

    depth: dict[NodeId, int] | None = None
    if "depth" in raw:
        depth_raw = _reference_want(raw, "depth", dict, "$")
        depth = {}
        for key, value in depth_raw.items():
            if key not in known:
                raise SchemaError("depth", f"references unknown id {key!r}")
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise SchemaError("depth", f"depth of {key!r} must be a non-negative integer")
            depth[key] = value
        if set(depth) != known:
            missing = sorted(known - set(depth))[0]
            raise SchemaError("depth", f"missing depth for {missing!r}")

    ranks: dict[int, dict[NodeId, int]] | None = None
    if "ranks" in raw:
        if depth is None:
            raise SchemaError("ranks", "ranks need a depth block to fix their domains")
        ranks_raw = _reference_want(raw, "ranks", dict, "$")
        ranks = {}
        for key, rank_map in ranks_raw.items():
            path = f"ranks.{key}"
            # The schema's pattern ^[1-9][0-9]*$: ASCII digits, no
            # leading zero, so distinct keys name distinct families.
            if not (key.isascii() and key.isdigit() and key[0] != "0"):
                raise SchemaError(path, "rank family keys must be positive integers")
            i = int(key)
            if not isinstance(rank_map, dict):
                raise SchemaError(path, "each rank family entry must be an object")
            out: dict[NodeId, int] = {}
            for node_id, value in rank_map.items():
                if node_id not in known:
                    raise SchemaError(path, f"references unknown id {node_id!r}")
                if not isinstance(value, int) or isinstance(value, bool):
                    raise SchemaError(path, f"rank of {node_id!r} must be an integer")
                out[node_id] = value
            wanted = {x for x in known if depth[x] < i}
            if set(out) != wanted:
                off = sorted(set(out) ^ wanted)[0]
                raise SchemaError(path, f"domain must be exactly the nodes of depth < {i} ({off!r} is off)")
            ranks[i] = out
        # One rank map: the families are numbered 1..I, and each lower
        # family is the top one restricted to its domain.
        top = len(ranks)
        for i in sorted(ranks):
            if i > top:
                missing = min(j for j in range(1, top + 1) if j not in ranks)
                raise SchemaError(f"ranks.{i}", f"rank families must be 1..I; {missing} is missing")
        for i in range(1, top):
            for node_id in sorted(ranks[i]):
                if ranks[i][node_id] != ranks[top][node_id]:
                    raise SchemaError(
                        f"ranks.{i}",
                        f"family {i} is not family {top} restricted to depth < {i} "
                        f"({node_id!r} is off)",
                    )

    formulas: dict[str, str] = {}
    if "formulas" in raw:
        formulas_raw = _reference_want(raw, "formulas", dict, "$")
        for name, body in formulas_raw.items():
            if not isinstance(body, str):
                raise SchemaError(f"formulas.{name}", "formula bodies must be strings")
            formulas[name] = body

    return AnnotatedGraph(
        graph=graph,
        levels=levels,
        depth=depth,
        rank=None if ranks is None else ranks.get(len(ranks), {}),
        top=None if ranks is None else len(ranks),
        formulas=formulas,
    )


def reference_von_neumann_seed(k: int) -> ExtensionalDigraph:
    """``seeds.von_neumann_seed`` as it was while it enumerated each
    stage's subsets itself, skipped the represented ones and hashed the
    rest with ``subset_node_id``; the reference for the graph it
    returns, down to dict insertion order."""
    if k < 0:
        raise ValueError("stage must be non-negative")
    if k > _MAX_VON_NEUMANN_STAGE:
        raise SizeLimitError(f"stage {k} is out of reach: stage 6 already holds 2**65536 sets")
    extensions: dict[NodeId, frozenset[NodeId]] = {}
    notation: dict[NodeId, str] = {}
    current: list[NodeId] = []
    for _ in range(k):
        for subset in _subsets(sorted(current)):
            node = subset_node_id(subset)
            if node in extensions:
                continue
            extensions[node] = frozenset(subset)
            notation[node] = _set_notation([notation[m] for m in subset])
            current.append(node)
    provenance: dict[NodeId, Provenance] = {
        x: Seed(label=notation[x]) for x in extensions
    }
    return ExtensionalDigraph(extensions, provenance)


def reference_one_stage(values: set) -> list:
    """``oracle._one_stage`` as it was while every subset went through
    ``collection``, which sorts, deduplicates and tries the collapse
    again; the budget guard is left out."""
    represented = {value_extension(v) for v in values}
    snapshot = sorted(values, key=lambda v: v.key)
    fresh = []
    for size in range(len(snapshot) + 1):
        for combo in itertools.combinations(snapshot, size):
            if frozenset(combo) in represented:
                continue
            fresh.append(collection(combo))
    return fresh


def reference_oracle_complete(g: ExtensionalDigraph, n: int) -> ExtensionalDigraph:
    """``oracle_complete`` as it was while it built ids, extensions and
    provenance one value at a time; the reference for the graph it
    returns, down to dict insertion order."""
    require_extensional(g)
    node_of = {}
    for x, v in decorate(g).items():
        if v in node_of:
            raise SetforgeError(
                f"decoration conflated {node_of[v]!r} and {x!r}; input was not extensional"
            )
        node_of[v] = x
    values = set(node_of)
    added_at = {}
    for stage in range(1, n + 1):
        fresh = reference_one_stage(values)
        for v in fresh:
            added_at[v] = stage
        values.update(fresh)

    ids = {}
    for v in sorted(values, key=lambda v: v.key):
        if v in node_of:
            ids[v] = node_of[v]
        else:
            candidate = f"hf:{v.key}"
            if candidate in g.nodes:
                raise SetforgeError(f"generated id {candidate!r} collides with a seed id")
            ids[v] = candidate
    extensions = {}
    provenance = {}
    for v, node in ids.items():
        extensions[node] = frozenset(ids[m] for m in value_extension(v))
        if v in node_of:
            provenance[node] = g.provenance[node]
        else:
            provenance[node] = Deficiency(level=added_at[v])
    return ExtensionalDigraph(extensions, provenance)
