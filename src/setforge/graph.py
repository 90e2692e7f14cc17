"""Immutable extensional digraphs and structural operations on them.

A digraph here is a finite membership structure: an edge ``(z, y)`` says
"z is a member of y".  The *extension* of a node is the set of its
members.  A digraph is extensional when distinct nodes have distinct
extensions, which is the property that lets nodes be read as sets.

Node ids are plain strings with no semantics beyond identity and total
(string) order.  Derived nodes that stand for a subset of existing nodes
get the content-addressed id that :func:`subset_node_id` defines (the
completion kernel computes it from shared hash states), so independently
constructed graphs agree on the identity of shared subset nodes and
re-runs are reproducible byte for byte.

The extension map is a graph's only representation, and it is checked
once, where data enters: :meth:`ExtensionalDigraph.from_extensions`,
:meth:`ExtensionalDigraph.from_edges` and
:func:`setforge.document.deserialize` reject members and provenance
that name unknown nodes.  The plain constructor trusts its input, so
functions that derive a graph from a valid one pay for no re-check.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import NonExtensionalError, SchemaError, SizeLimitError, UnknownNodeError

NodeId = str

# Guards for isomorphism: the node count of either input, and the work of
# the individualisation search, which runs only when colour refinement
# leaves nodes tied.  Each branch charges the node count it re-colours.
ISO_NODE_LIMIT = 200_000
_SEARCH_STATE_LIMIT = 1 << 22

_ID_SEPARATOR = "\x1f"


@dataclass(frozen=True)
class Seed:
    """Provenance of a node supplied directly by a seed constructor."""

    label: str


@dataclass(frozen=True)
class Deficiency:
    """Provenance of a node created by a completion step.

    Only the level is kept: the node's members are its extension.
    """

    level: int


@dataclass(frozen=True)
class Code:
    """Provenance of a node created while encoding atoms, tuples or
    membership codes.  ``kind`` is one of ``atom``, ``tuple``, ``loop``,
    ``chain``."""

    kind: str
    detail: str


Provenance = Seed | Deficiency | Code


def subset_node_id(members: Iterable[NodeId]) -> NodeId:
    """Content-addressed id for a node whose extension is ``members``.

    The id depends only on the (sorted) member ids, so any two
    construction paths that materialise the same subset of the same
    nodes produce the same node id.
    """
    joined = _ID_SEPARATOR.join(sorted(members))
    digest = hashlib.blake2b(joined.encode("utf-8"), digest_size=12).hexdigest()
    return f"set:{digest}"


@dataclass(frozen=True)
class ExtensionalDigraph:
    """A finite membership digraph, stored as an extension map.

    ``extensions`` maps every node to the frozenset of its members and
    is the graph's only representation: ``nodes`` is its key set and
    the edge set is derived.  Instances are immutable: all operations
    return new graphs.

    The constructor trusts its input: every member must be a node and
    ``provenance`` must cover exactly the nodes.  Outside data goes
    through :meth:`from_extensions` or :meth:`from_edges`, which check
    it and give unlabelled nodes ``Seed`` provenance.
    """

    extensions: dict[NodeId, frozenset[NodeId]]
    provenance: dict[NodeId, Provenance]
    nodes: frozenset[NodeId] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # From the keys view, which a set takes by insertion: a dict
        # argument is sized for twice its keys up front, so 65,536 ids
        # would take 2**18 slots (4 MB) instead of 2**17.
        object.__setattr__(self, "nodes", frozenset(self.extensions.keys()))

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[NodeId],
        edges: Iterable[tuple[NodeId, NodeId]],
        provenance: Mapping[NodeId, Provenance] | None = None,
    ) -> "ExtensionalDigraph":
        """Build a graph from an explicit edge list ``(member, container)``."""
        ext: dict[NodeId, set[NodeId]] = {x: set() for x in nodes}
        for member, container in edges:
            if member not in ext or container not in ext:
                raise UnknownNodeError(f"edge ({member!r}, {container!r}) leaves the node set")
            ext[container].add(member)
        return cls.from_extensions(ext, provenance)

    @classmethod
    def from_extensions(
        cls,
        extensions: Mapping[NodeId, Iterable[NodeId]],
        provenance: Mapping[NodeId, Provenance] | None = None,
    ) -> "ExtensionalDigraph":
        """Build a graph from a node -> members map, checking that every
        member and every provenance key is a node."""
        frozen = {x: frozenset(m) for x, m in extensions.items()}
        # A frozenset, not ``frozen.keys()``: a set minus a dict view
        # walks the whole view, which would make this loop quadratic.
        known = frozenset(frozen)
        for x, ext in frozen.items():
            if not ext <= known:
                raise UnknownNodeError(
                    f"extension of {x!r} mentions unknown nodes {sorted(ext - known)!r}"
                )
        prov = dict(provenance) if provenance is not None else {}
        for x in prov:
            if x not in known:
                raise UnknownNodeError(f"provenance for unknown node {x!r}")
        prov.update({x: Seed(x) for x in known if x not in prov})
        return cls(frozen, prov)

    @classmethod
    def empty(cls) -> "ExtensionalDigraph":
        return cls({}, {})

    def restrict(self, part: frozenset[NodeId]) -> "ExtensionalDigraph":
        """The graph induced on ``part``, checked for closure only: the
        least node with a member outside ``part`` raises UnknownNodeError."""
        ext = {x: self.extensions[x] for x in part}
        x = min((x for x, ms in ext.items() if not ms <= part), default=None)
        if x is not None:
            outside = sorted(ext[x] - part)
            raise UnknownNodeError(f"extension of {x!r} mentions unknown nodes {outside!r}")
        return ExtensionalDigraph(ext, {x: self.provenance[x] for x in part})

    def containers(self) -> dict[NodeId, frozenset[NodeId]]:
        """Inverse of the extension map: node -> nodes it is a member of."""
        cached = self.__dict__.get("_containers")
        if cached is None:
            inv: dict[NodeId, set[NodeId]] = {x: set() for x in self.nodes}
            for container, members in self.extensions.items():
                for member in members:
                    inv[member].add(container)
            cached = {x: frozenset(s) for x, s in inv.items()}
            self.__dict__["_containers"] = cached
        return cached

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self.nodes

    def sorted_nodes(self) -> list[NodeId]:
        cached = self.__dict__.get("_sorted")
        if cached is None:
            cached = sorted(self.nodes)
            self.__dict__["_sorted"] = cached
        return cached

    def member_runs(self) -> list[tuple[int, list[int]]]:
        """The sorted (member, container) pairs grouped by member, as
        indices into ``sorted_nodes()``: each member that has
        containers, in id order, with its containers in id order.
        Nothing is sorted: walking the containers in id order lists each
        member's containers in id order. Only a node that is a member
        gets a list, which in a completion is a few nodes of many."""
        order = self.sorted_nodes()
        containers: defaultdict[NodeId, list[int]] = defaultdict(list)
        for i, container in enumerate(order):
            for member in self.extensions[container]:
                containers[member].append(i)
        return [(i, containers[x]) for i, x in enumerate(order) if x in containers]

    def __repr__(self) -> str:  # keep test failures readable
        return f"ExtensionalDigraph({len(self.nodes)} nodes, {sum(map(len, self.extensions.values()))} edges)"


@dataclass(frozen=True)
class AnnotatedGraph:
    """A graph with the optional annotations a document carries.

    ``levels[n]`` is the cumulative node set after ``n`` completion
    steps; ``levels[0]`` is the seed.  ``depth``, ``rank`` and ``top``
    are a depth/rank (DRED) certificate: its rank families are ``r_1``
    to ``r_top``, each ``rank`` on the nodes of depth below ``i`` (see
    :mod:`setforge.dred`).  Construction pairs only ``rank`` with ``top``,
    but writing, verifying or drawing a rank map needs ``depth`` too.
    ``formulas`` maps names to formula text.  Treat every field as immutable.
    """

    graph: ExtensionalDigraph
    levels: tuple[frozenset[NodeId], ...] | None = None
    depth: dict[NodeId, int] | None = None
    rank: dict[NodeId, int] | None = None
    top: int | None = None
    formulas: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if (self.rank is None) != (self.top is None):
            raise ValueError("a rank map and its top family index come together")
        if self.levels is None:
            return
        if not self.levels:
            raise ValueError("a leveled universe needs at least one level")
        # ``levels[-1] is graph.nodes`` where a completion step or a
        # checked document built the record; only a hand-built top level
        # needs the comparison.
        if self.levels[-1] is not self.graph.nodes and self.levels[-1] != self.graph.nodes:
            raise ValueError("top level must equal the graph's node set")
        for lower, upper in zip(self.levels, self.levels[1:]):
            if not lower <= upper:
                raise ValueError("levels must be cumulative")

    def level(self, n: int) -> "AnnotatedGraph":
        """The record induced on ``levels[n]``: the record itself for the
        top level, else ``graph.restrict(levels[n])`` with the levels up
        to ``n`` and the depth and rank maps restricted when present.

        Because completion-created nodes only ever point at older nodes,
        and completion only appends annotations for new nodes, this is
        the record as it stood when that level was the top.  A
        hand-built level that is not closed under membership raises
        UnknownNodeError.  A record without levels raises SchemaError
        naming them, and an ``n`` outside ``0..len(levels) - 1`` raises
        IndexError naming that range.
        """
        _require_blocks(self, "levels")
        if not 0 <= n < len(self.levels):
            raise IndexError(f"level {n} is outside 0..{len(self.levels) - 1}")
        if n == len(self.levels) - 1:
            return self
        wanted = self.levels[n]
        graph = self.graph.restrict(wanted)
        depth = rank = None
        if self.depth is not None:
            depth = {x: self.depth[x] for x in wanted}
        if self.rank is not None:
            rank = {x: r for x, r in self.rank.items() if x in wanted}
        return AnnotatedGraph(graph, self.levels[: n + 1], depth, rank, self.top, self.formulas)


def _rank_domain_exact(
    i: int, r: Mapping[NodeId, int], nodes: frozenset[NodeId], depth: dict[NodeId, int],
    sorted_depths: list[int],
) -> bool:
    """Whether rank family ``i`` is defined on exactly the nodes of depth
    below ``i``, in bulk: as many keys as such nodes (``sorted_depths``
    lists the depths in order), all of them nodes of depth below ``i``."""
    return (
        len(r) == bisect_left(sorted_depths, i)
        and nodes.issuperset(r)
        and max(map(depth.__getitem__, r), default=-1) < i
    )


def _require_blocks(h: AnnotatedGraph, *blocks: str) -> None:
    """Raise SchemaError naming the first of the document ``blocks``
    that ``h`` lacks (``ranks`` is the ``rank`` field)."""
    for block in blocks:
        if getattr(h, "rank" if block == "ranks" else block) is None:
            raise SchemaError(block, f"document has no {block} block")


# Not exported; bench/test_bench.py wraps it as a tracer target.
def extension(g: ExtensionalDigraph, x: NodeId) -> frozenset[NodeId]:
    """Members of ``x`` in ``g``.  Raises UnknownNodeError for foreign ids."""
    try:
        return g.extensions[x]
    except KeyError:
        raise UnknownNodeError(f"unknown node {x!r}") from None


def extensionality_violation(g: ExtensionalDigraph) -> tuple[NodeId, NodeId] | None:
    """First pair of distinct nodes sharing an extension, or None.

    "First" is deterministic: the pair with the smallest ids in sorted
    scan order.  The ids are sorted and scanned only when the
    extensions are not all distinct.
    """
    if len(set(g.extensions.values())) == len(g.extensions):
        return None
    seen: dict[frozenset[NodeId], NodeId] = {}
    for x in g.sorted_nodes():
        ext = g.extensions[x]
        if ext in seen:
            return (seen[ext], x)
        seen[ext] = x
    return None


def require_extensional(g: ExtensionalDigraph) -> None:
    pair = extensionality_violation(g)
    if pair is not None:
        raise NonExtensionalError(pair[0], pair[1])


def _provenance_colour(p: Provenance) -> tuple:
    # Label text is deliberately excluded: isomorphism is invariant
    # under relabelling of seed material.  Kind and completion level are
    # structural and must be preserved.
    if isinstance(p, Seed):
        return ("seed",)
    if isinstance(p, Deficiency):
        return ("deficiency", p.level)
    return ("code", p.kind)


def _condensation_colours(g: ExtensionalDigraph, table: dict[tuple, int]) -> dict[NodeId, int]:
    """Colour every node of ``g`` from its members, one strongly
    connected component (SCC) at a time, members first.

    ``table`` interns colour keys and is shared by the graphs being
    compared.  Keys hold only isomorphism-invariant data, so two nodes
    of either graph get the same colour exactly when their keys are
    equal, whichever graph is coloured first.

    A node on no cycle is keyed by a pair: its provenance colour and the
    sorted colours of its members.  This is the Mostowski collapse: on the
    well-founded part of an extensional graph, equal colours mean equal
    member sets, hence the same node.  A node of a cycle (a self-loop
    included) is keyed once, by five fields: its provenance colour, its
    self-loop flag, the sorted colours of its members outside its
    component and its member and container counts inside it.  The two
    key shapes differ, so no node on a cycle shares a colour with a
    node on none, and :func:`is_isomorphic` tells them apart by length.
    Nodes of one cycle that these keys leave tied are told apart by
    :func:`_refine` and the search.

    The walk is Tarjan's, kept iterative so that long membership chains
    cannot exhaust the recursion limit.  A node whose members are all
    coloured when the loop reaches it is keyed at once, without the
    walk: no cycle runs through it, since a self-looped node is its
    own uncoloured member.  In a completion, once a walk or two from
    the first nodes reached has coloured the seed nodes, nearly every
    other node qualifies, in id order and key order alike.
    """
    ext = g.extensions
    provenance = g.provenance
    intern = table.setdefault
    colour: dict[NodeId, int] = {}
    colour_of = colour.__getitem__
    # Provenance colours by provenance object: graphs share one object
    # per completion level, so this holds a handful of entries.
    by_provenance: dict[int, tuple] = {}

    def provenance_colour(x: NodeId) -> tuple:
        p = provenance[x]
        pc = by_provenance.get(id(p))
        if pc is None:
            pc = by_provenance[id(p)] = _provenance_colour(p)
        return pc

    def acyclic_colour(x: NodeId) -> int:
        return intern((provenance_colour(x), tuple(sorted(map(colour_of, ext[x])))), len(table))

    # Visit order, raised to ``finished`` once a node is coloured: a
    # visited node with a lower index is on the component stack.
    index: dict[NodeId, int] = {}
    finished = len(ext)
    low: dict[NodeId, int] = {}
    stack: list[NodeId] = []
    for root in ext:
        if root in index:
            continue
        # The shortcut, inlined because nearly every node takes it: it
        # builds the key ``acyclic_colour`` would, and a KeyError at an
        # uncoloured member sends the node to the walk instead.
        try:
            key = (
                by_provenance.get(id(provenance[root])) or provenance_colour(root),
                tuple(sorted(map(colour_of, ext[root]))),
            )
        except KeyError:
            pass
        else:
            colour[root] = intern(key, len(table))
            index[root] = finished
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
                    colour[x] = acyclic_colour(x)
                    continue
                cut = len(stack) - 1
                while stack[cut] != x:
                    cut -= 1
                component = stack[cut:]
                del stack[cut:]
                # Members outside the component are coloured already,
                # those inside are not yet.
                keys: dict[NodeId, tuple] = {}
                containers_in: Counter[NodeId] = Counter()
                for y in component:
                    outside = [colour[m] for m in ext[y] if m in colour]
                    containers_in.update(m for m in ext[y] if m not in colour)
                    keys[y] = (
                        provenance_colour(y),
                        y in ext[y],
                        tuple(sorted(outside)),
                        len(ext[y]) - len(outside),
                    )
                for y in component:
                    colour[y] = intern(keys[y] + (containers_in[y],), len(table))
                    index[y] = finished
    return colour


def _refine(
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


def _require_iso_count(a: int, b: int) -> None:
    """Raise SizeLimitError when either node count exceeds
    ``ISO_NODE_LIMIT``, so a pair can be refused before it is built."""
    if a > ISO_NODE_LIMIT or b > ISO_NODE_LIMIT:
        raise SizeLimitError(
            f"isomorphism search limited to {ISO_NODE_LIMIT} nodes, got {a} and {b}"
        )


def is_isomorphic(a: ExtensionalDigraph, b: ExtensionalDigraph) -> bool:
    """Exact isomorphism test: whether :func:`_isomorphism` finds a map.

    A bijection must preserve edges and structural labels (provenance
    kind, and level for completion-created nodes); seed label text and
    node ids are free to differ.

    Both graphs are coloured in one pass over their SCC condensations
    (:func:`_condensation_colours`), and every isomorphism preserves
    these colours.  When they tell every node apart, as they do on a
    well-founded extensional graph and on one glued onto self-membered
    atoms without symmetry, the only candidate is the colour-matching
    map.  An acyclic node's colour names its members' colours, so the
    map is checked only on the edges of nodes on a cycle.  Otherwise
    the search is individualisation-refinement (McKay-Piperno 2014):
    colour refinement over both edge directions (1-dimensional
    Weisfeiler-Leman) runs from these colours, and while classes still
    tie, the least-id node of ``a`` in the smallest tied class shares a
    fresh colour with each node of ``b`` in that class in turn, one
    branch each, until the colours are injective and the
    colour-matching map can be checked on every edge.  No behavioural quotient (bisimulation or otherwise) is ever taken.

    Raises SizeLimitError when the input exceeds ``ISO_NODE_LIMIT`` nodes
    or the branches together re-colour more than ``_SEARCH_STATE_LIMIT``
    nodes.
    """
    return _isomorphism(a, b) is not None


def _isomorphism(a: ExtensionalDigraph, b: ExtensionalDigraph) -> dict[NodeId, NodeId] | None:
    """The isomorphism from ``a`` onto ``b`` that :func:`is_isomorphic`
    settles on, the colour-matching map of colourings found as it
    describes, or None where there is none; raises what
    :func:`is_isomorphic` raises."""
    _require_iso_count(len(a.nodes), len(b.nodes))
    if len(a.nodes) != len(b.nodes):
        return None

    def settle(
        col_a: dict[NodeId, int], col_b: dict[NodeId, int], checked: set[int] | None = None
    ) -> bool | None:
        """False when the colour multisets differ, the verdict of the
        colour-matching map when the colours are injective, else None.
        The map's edges are checked at every node, or, when ``checked``
        is given, only at nodes with a colour in it."""
        colours = set(col_a.values())
        if len(colours) < len(col_a):
            return None if sorted(col_a.values()) == sorted(col_b.values()) else False
        # Both colourings have one entry per node, so with ``a``'s
        # injective the multisets agree exactly when the sets do.
        if colours != set(col_b.values()):
            return False

        def member_colours(g: ExtensionalDigraph, col: dict[NodeId, int]) -> dict:
            colour = col.__getitem__
            return {
                c: frozenset(map(colour, g.extensions[x]))
                for x, c in col.items()
                if checked is None or c in checked
            }

        # With injective colours the map carries a node's members onto
        # its image's exactly when their colour sets are equal.
        return member_colours(a, col_a) == member_colours(b, col_b)

    table: dict[tuple, int] = {}
    col_a = _condensation_colours(a, table)
    col_b = _condensation_colours(b, table)
    # Every condensation key holds the provenance colour, so the
    # colour-matching map preserves provenance.  An acyclic node's key
    # (a pair) also holds its member colours, so with injective colours
    # the map carries its members onto its image's.  A cycle key (five
    # fields) counts only the members inside the component, so the
    # root verdict checks edges at nodes with such keys alone.  Refined
    # and individualised colours keep no such promise: their verdicts
    # check every edge.
    on_cycle = {c for key, c in table.items() if len(key) == 5}
    # Depth-first over branches, with an explicit stack: recursion depth
    # would otherwise scale with the node count.  A branch is a refined
    # parent colouring pair and the nodes ``x`` and ``y`` that share a
    # fresh colour in it; the root branch individualises nothing.
    stack: list[tuple] = [(col_a, col_b, None, None)]
    work = 0
    while stack:
        col_a, col_b, x, y = stack.pop()
        if x is not None:
            work += len(col_a)
            if work > _SEARCH_STATE_LIMIT:
                raise SizeLimitError("isomorphism search exceeded its state cap")
            # Refined colours are numbered from 0 and tie somewhere, so
            # the node count is a fresh colour.
            fresh = len(col_a)
            col_a = {**col_a, x: fresh}
            col_b = {**col_b, y: fresh}
        verdict = settle(col_a, col_b, on_cycle if x is None else None)
        if verdict is None:
            col_a, col_b = _refine([a, b], [col_a, col_b])
            verdict = settle(col_a, col_b)
        if verdict:
            node_of = {c: y for y, c in col_b.items()}
            return {x: node_of[c] for x, c in col_a.items()}
        if verdict is None:
            cells: dict[int, list[NodeId]] = {}
            for node, c in col_a.items():
                cells.setdefault(c, []).append(node)
            x = min((len(xs), min(xs)) for xs in cells.values() if len(xs) > 1)[1]
            c = col_a[x]
            ys = sorted((node for node, cy in col_b.items() if cy == c), reverse=True)
            stack.extend((col_a, col_b, x, y) for y in ys)
    return None
