"""Shared test utilities.

Everything here is deliberately naive: second implementations used as
ground truth must stay independent of the library code they check, so
they favour obviousness over speed.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from typing import Iterator

from setforge import Code, Deficiency, ExtensionalDigraph, Seed, SizeLimitError
from setforge.graph import NodeId
from setforge.logic import (
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
)


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
