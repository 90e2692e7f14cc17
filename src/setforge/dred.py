"""Depth/rank certificates for Foundation over extensional digraphs.

A certificate is the depth map, the top family index ``I`` and the one
rank map that an :class:`~setforge.graph.AnnotatedGraph` carries; its
rank families ``r_i``, for ``i`` in 1..I, are the map on the nodes of
depth below ``i``.  The four conditions checked by :func:`verify_dred`:

1. the graph is extensional;
2. along every edge, the member's depth exceeds the container's by at
   most one;
3. the same depth bound holds whenever one node's extension is included
   in another's;
4. the rank map is defined on exactly the nodes of depth below ``I``
   and increases strictly along every edge inside that domain, and so
   does each family ``r_i`` below ``i``.

``I`` must reach ``max depth + 1`` (``coverage``), so the rank map is
defined at every node.  That is what makes :func:`foundation_witness`
total: for any node with members, rank minimality hands back a member
disjoint from it, which is exactly the Foundation axiom's witness.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import compress, repeat

from .completion import Budget, DEFAULT_BUDGET, _leveled, _priced, _subsets, complete_step
from .errors import DredConditionError, SizeLimitError
from .graph import (
    AnnotatedGraph,
    Code,
    ExtensionalDigraph,
    NodeId,
    _rank_domain_exact,
    _require_blocks,
    extensionality_violation,
)

# A document writes node x in rank families depth(x)+1 up to the top,
# so a chain atom of L links writes about L**2/2 entries. This prices the
# document, not memory: 2**21 entries (2,045 links) make 40 MB.
_MAX_RANK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class DredViolation:
    condition: str
    detail: str


@dataclass(frozen=True)
class DredReport:
    violations: tuple[DredViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary_lines(self) -> list[str]:
        if self.ok:
            return ["all DRED conditions hold"]
        return [f"{v.condition}: {v.detail}" for v in self.violations]


def verify_dred(h: AnnotatedGraph) -> DredReport:
    """Exhaustively check the DRED conditions, reporting every violation.

    Each condition is checked in bulk first, by C-level passes over the
    nodes or the rank map, and walked node by node only when that check
    fails, to name its violations in id order; so a valid certificate costs
    about one pass over its nodes and edges.  The rank map is checked once;
    its walk names each violation in every family ``r_i`` that holds
    it.  Condition 3 needs no table of subsets, because condition 2 bounds
    it.  Let m(x) be the greatest depth among x's members (-1 if none) and
    let ext(x) <= ext(y), where y meets condition 2.  Every member of x is a
    member of y, so m(x) <= depth(y) + 1; if x breaks condition 3 at y,
    depth(x) >= depth(y) + 2, so depth(x) is at least 2 and above m(x): x
    *jumps*.  So condition 3 can fail only at condition 2's offenders and at
    nodes more than one level above a jumping node whose members they
    hold.  The jumping nodes are found per depth group, as those whose
    members all lie in shallower groups, and a jumping node's candidate
    supersets are the containers of its member with the fewest (every node,
    if it has none).  Only these suspects are named against their subsets, by
    enumerating the subsets of the extension when that is cheap and by a
    pairwise scan otherwise.
    Depths and ranks are integers.  A record without a depth or a rank
    map raises SchemaError naming its block, ``depth`` or ``ranks``.
    """
    _require_blocks(h, "depth", "ranks")
    g = h.graph
    violations: list[DredViolation] = []
    nodes = g.sorted_nodes()

    pair = extensionality_violation(g)
    if pair is not None:
        violations.append(
            DredViolation("extensionality", f"nodes {pair[0]!r} and {pair[1]!r} share an extension")
        )

    depth = h.depth
    if depth.keys() != g.nodes or min(depth.values(), default=0) < 0:
        violations.extend(_depth_domain_violations(g, depth, nodes))
        return DredReport(tuple(violations))

    get_depth = depth.__getitem__
    extensions = g.extensions
    by_depth = _nodes_by_value(depth)
    suspects: set[NodeId] = set()
    if any(max(map(get_depth, _members(g, ys)), default=0) > d + 1 for d, ys in by_depth.items()):
        violations.extend(_edge_depth_violations(g, depth, nodes))
        suspects = {
            y for y in nodes if max(map(get_depth, extensions[y]), default=0) > depth[y] + 1
        }

    if pair is None:
        jumping: list[NodeId] = []
        shallower: set[NodeId] = set()
        for d, xs in sorted(by_depth.items()):
            if d >= 2:
                jumping += compress(xs, map(shallower.issuperset, map(extensions.__getitem__, xs)))
            shallower.update(xs)
        holders = _holders(g, set().union(*map(extensions.__getitem__, jumping))) if jumping else {}
        for x in jumping:
            ext = extensions[x]
            bound = depth[x] - 1
            for y in min(map(holders.__getitem__, ext), key=len) if ext else nodes:
                if depth[y] < bound and ext <= extensions[y]:
                    suspects.add(y)
        if suspects:
            violations.extend(_subset_depth_violations(g, depth, nodes, sorted(suspects)))

    top, rank = h.top, h.rank
    needed = max(depth.values(), default=0) + 1
    if top < needed:
        stop = f"family stops at i={top} but max depth {needed - 1} requires coverage up to i={needed}"
        violations.append(DredViolation("rank_family", stop))

    exact = _rank_domain_exact(top, rank, g.nodes, depth, sorted(depth.values()))
    if not (exact and _rises(g, rank)):
        violations.extend(_rank_violations(g, top, rank, depth, nodes, exact))
    return DredReport(tuple(violations))


def _rises(g: ExtensionalDigraph, rank: dict[NodeId, int]) -> bool:
    """Whether ``rank``, whose keys are nodes, increases strictly along
    every edge between two nodes it ranks, and so every family."""
    unranked = float("-inf")
    for value, ys in _nodes_by_value(rank).items():
        if max(map(rank.get, _members(g, ys), repeat(unranked)), default=unranked) >= value:
            return False
    return True


def _holders(g: ExtensionalDigraph, wanted: set[NodeId]) -> dict[NodeId, list[NodeId]]:
    """The containers of each node in ``wanted``, in one pass over the
    extensions."""
    holders: dict[NodeId, list[NodeId]] = {z: [] for z in wanted}
    for y, ext in g.extensions.items():
        for z in wanted.intersection(ext):
            holders[z].append(y)
    return holders


def _nodes_by_value(values: dict[NodeId, int]) -> dict[int, list[NodeId]]:
    """The nodes grouped by their value.  A bound that must hold for the
    members of every node of one value holds when it holds for the
    members of the whole group, so a per-node check becomes one C-level
    pass over each group's members."""
    groups: defaultdict[int, list[NodeId]] = defaultdict(list)
    for x, value in values.items():
        groups[value].append(x)
    return groups


def _members(g: ExtensionalDigraph, ys: list[NodeId]) -> set[NodeId]:
    """The members of any node in ``ys``."""
    return set().union(*map(g.extensions.__getitem__, ys))


# -- walks ---------------------------------------------------------------------
#
# Each runs only when its condition's bulk check failed, and names the
# condition's violations in report order.


def _depth_domain_violations(
    g: ExtensionalDigraph, depth: dict[NodeId, int], nodes: list[NodeId]
) -> list[DredViolation]:
    violations = []
    for x in nodes:
        if x not in depth:
            violations.append(DredViolation("depth_domain", f"no depth for node {x!r}"))
        elif depth[x] < 0:
            violations.append(DredViolation("depth_domain", f"negative depth at {x!r}"))
    for x in depth:
        if x not in g.nodes:
            violations.append(DredViolation("depth_domain", f"depth given for unknown node {x!r}"))
    return violations


def _edge_depth_violations(
    g: ExtensionalDigraph, depth: dict[NodeId, int], nodes: list[NodeId]
) -> list[DredViolation]:
    violations = []
    for y in nodes:
        dy = depth[y]
        for z in sorted(z for z in g.extensions[y] if depth[z] > dy + 1):
            violations.append(
                DredViolation(
                    "edge_depth",
                    f"edge ({z!r}, {y!r}): depth {depth[z]} > {dy} + 1",
                )
            )
    return violations


def _subset_depth_violations(
    g: ExtensionalDigraph,
    depth: dict[NodeId, int],
    nodes: list[NodeId],
    suspects: list[NodeId],
) -> list[DredViolation]:
    violations = []
    extensions = g.extensions
    by_extension = {ext: x for x, ext in extensions.items()}
    for y in suspects:
        ext_y = extensions[y]
        if (1 << len(ext_y)) <= max(64, 2 * len(nodes)):
            named = map(by_extension.get, map(frozenset, _subsets(sorted(ext_y))))
            below = [x for x in named if x is not None]
        else:
            below = [x for x in nodes if extensions[x] <= ext_y]
        violations += [
            DredViolation("subset_depth", f"ext({x!r}) <= ext({y!r}) but depth {depth[x]} > {depth[y]} + 1")
            for x in below
            if depth[x] > depth[y] + 1
        ]
    return violations


def _rank_violations(
    g: ExtensionalDigraph, top: int, rank: dict[NodeId, int], depth: dict[NodeId, int],
    nodes: list[NodeId], exact: bool,
) -> list[DredViolation]:
    """Each family ``r_i``'s domain violations, unless the map's domain
    is ``exact``, then its rank increase violations, for ``i`` from 1 to
    ``top``, from one walk over the map.  Family ``i`` holds the map's
    violations at nodes of depth below ``i``, a missing entry among
    them, and ``top`` holds every entry the map has (a key with no depth
    is in no lower family), so each violation is found once, with the
    first family that holds it (none, past ``top``), as the parts of its
    text that ``i`` joins."""
    held: list[tuple[int, str, tuple[str, str, str]]] = []
    if not exact:
        held += [
            (depth[x] + 1, "rank_domain", ("r_", f" undefined at {x!r} (depth {depth[x]} < ", ")"))
            for x in nodes
            if x not in rank
        ]
        held += [
            (top, "rank_domain", ("r_", f" defined at {x!r} whose depth is not below ", ""))
            for x in sorted(rank)
            if depth.get(x, top) >= top
        ]
    for y in filter(rank.__contains__, nodes):
        ry, dy = rank[y], depth[y]
        held += [
            (
                min(max(dy, depth[z]) + 1, top),
                "rank_increase",
                ("r_", f"({z!r}) = {rank[z]} not below r_", f"({y!r}) = {ry} along edge"),
            )
            for z in sorted(z for z in g.extensions[y] if z in rank and not rank[z] < ry)
        ]
    violations: list[DredViolation] = []
    firsts = {first for first, _, _ in held}
    found: list[tuple[str, tuple[str, str, str]]] = []
    for i in range(1, top + 1):
        if i in firsts:
            found = [(condition, parts) for first, condition, parts in held if first <= i]
        violations += [DredViolation(condition, str(i).join(parts)) for condition, parts in found]
    return violations


def require_dred(h: AnnotatedGraph) -> None:
    report = verify_dred(h)
    if not report.ok:
        first = report.violations[0]
        raise DredConditionError(
            f"dred condition violated ({first.condition}): {first.detail}", report
        )


def dred_complete(
    h: AnnotatedGraph,
    n: int,
    budget: Budget = DEFAULT_BUDGET,
) -> AnnotatedGraph:
    """Run ``n`` steps of :func:`~setforge.completion.complete_step` on
    ``h``'s certificate, which each step extends to its new nodes.

    The DRED conditions are verified before the first step and after
    every step, and a violation is surfaced as DredConditionError rather
    than assumed away; with the step's recipes no violation is expected,
    and the verification is the evidence.  Like
    :func:`~setforge.completion.complete`, the whole request is priced
    before the first step, and before the conditions are verified.  The
    result continues ``h``'s levels as ``complete`` does; ``h``'s
    formulas are not carried.
    """
    _require_blocks(h, "depth", "ranks")
    _priced(h.graph, n, budget)
    require_dred(h)
    u = AnnotatedGraph(h.graph, _leveled(h)[1], h.depth, h.rank, h.top)
    for _ in range(n):
        u = complete_step(u, budget)
        require_dred(u)
    return u


def foundation_witness(h: AnnotatedGraph, x: NodeId) -> NodeId:
    """A member of ``x`` that shares no member with ``x``.

    Picks ``n`` one above the deepest member and returns the member of
    minimal ``r_n``, which is the rank map on ``x``'s members (ties
    broken by node id).  Any member of both ``x``
    and the witness would have strictly smaller ``r_n`` than the
    witness, contradicting minimality, so the returned node is
    E-minimal inside ``x``.

    Verifies the whole certificate first, so ``r_n`` exists: coverage
    puts the top family index above every depth.
    """
    require_dred(h)
    members = h.graph.extensions.get(x)
    if members is None:
        raise DredConditionError(f"unknown node {x!r}")
    if not members:
        raise ValueError(f"node {x!r} has empty extension; foundation needs a member")
    return min(members, key=lambda m: (h.rank[m], m))


def membership_ranks(g: ExtensionalDigraph) -> dict[NodeId, int]:
    """The von Neumann rank of every node: 0 for an empty extension,
    otherwise one above the highest rank among the members.

    Nodes are ranked bottom-up, each as soon as all its members are, so
    the work is linear in nodes plus edges and no recursion is needed.
    The dict is filled in that order, so walking it meets every node's
    members before the node.  Fails with DredConditionError naming the
    least node that lies on a membership cycle or above one, since no
    rank function exists then.
    """
    containers = g.containers()
    waiting = {x: len(ext) for x, ext in g.extensions.items()}
    ready = [x for x, count in waiting.items() if count == 0]
    rank: dict[NodeId, int] = {}
    while ready:
        x = ready.pop()
        rank[x] = max((rank[m] + 1 for m in g.extensions[x]), default=0)
        for c in containers[x]:
            waiting[c] -= 1
            if waiting[c] == 0:
                ready.append(c)
    if len(rank) < len(waiting):
        cyclic = min(x for x in waiting if x not in rank)
        raise DredConditionError(
            f"membership cycle through {cyclic!r}; no rank function exists"
        )
    return rank


def _certificate(g: ExtensionalDigraph, chain_style: bool) -> AnnotatedGraph:
    """The depth/rank certificate of a well-founded graph.

    A node's depth is the greatest depth among its members (0 if it has
    none); with ``chain_style``, a chain atom's link or a chain code's
    node (provenance kind "atom" or "chain") sits one above that, so
    chains climb from their terminal.  No depth is then more than one
    above a member's, which keeps the subset-depth condition as
    completion adds nodes.  The rank map is the von Neumann rank, and
    the top family index is one above the greatest depth.  A document
    that would write more than ``_MAX_RANK_ENTRIES`` rank-family entries
    raises SizeLimitError.
    """
    rank = membership_ranks(g)
    depth: dict[NodeId, int] = {}
    for x in rank:  # members first
        p = g.provenance[x]
        step = chain_style and isinstance(p, Code) and p.kind in ("atom", "chain")
        depth[x] = max(map(depth.__getitem__, g.extensions[x]), default=0) + step
    top = max(depth.values(), default=0) + 1
    entries = top * len(depth) - sum(depth.values())
    if entries > _MAX_RANK_ENTRIES:
        raise SizeLimitError(
            f"chain-style certificates are limited to {_MAX_RANK_ENTRIES} "
            f"rank-family entries, got {entries}"
        )
    return AnnotatedGraph(g, depth=depth, rank=rank, top=top)


def dred_from_graph(g: ExtensionalDigraph) -> AnnotatedGraph:
    """Equip a well-founded graph with the trivial certificate: all
    depths zero, the top family index 1 and ``r_1`` the von Neumann
    rank.

    Fails with DredConditionError if the membership relation has a
    cycle, since no rank function can exist then.
    """
    return _certificate(g, chain_style=False)
