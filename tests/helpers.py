"""Shared test utilities.

Everything here is deliberately naive: second implementations used as
ground truth must stay independent of the library code they check, so
they favour obviousness over speed.
"""

from __future__ import annotations

import itertools
import random
import re

from setforge import Code, Deficiency, ExtensionalDigraph, Seed
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
