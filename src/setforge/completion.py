"""Deficiency completion of extensional digraphs.

One completion step finds every subset of the current node set that no
node represents (the *deficiency* of the graph) and adds a fresh node
for each, wired to exactly its members.  Iterating the step yields a
level-indexed universe in which, at matching level offsets, pairs,
unions, relative subsets and relative power sets of earlier nodes are
all represented; :func:`witness_report` checks those four clauses
directly.

Level sizes grow as a tower of exponentials (an extensional graph with
``k`` nodes represents exactly ``k`` of its ``2**k`` subsets, so the
next level has ``2**k`` nodes).  Every entry point therefore takes an
explicit :class:`Budget` and refuses, rather than attempts, infeasible
steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import blake2b
from itertools import compress, islice, repeat
from operator import gt
from typing import Any, Iterator

from .errors import BudgetExceededError, SchemaError, SetforgeError
from .graph import (
    AnnotatedGraph,
    Deficiency,
    ExtensionalDigraph,
    NodeId,
    _ID_SEPARATOR,
    _require_blocks,
    require_extensional,
)

DEFAULT_MAX_SUBSETS = 2**20


@dataclass(frozen=True)
class Budget:
    """Hard resource ceiling for completion-like enumeration.

    ``max_subsets_enumerated`` bounds ``2**n`` for a single step over an
    ``n``-node graph.  The same bound caps the node count a step
    produces: an extensional ``n``-node graph represents exactly ``n``
    of its ``2**n`` subsets, so the step leaves exactly ``2**n`` nodes.
    """

    max_subsets_enumerated: int = DEFAULT_MAX_SUBSETS

    def __post_init__(self) -> None:
        if self.max_subsets_enumerated < 1:
            raise ValueError("budget bounds must be positive")

    def subset_count_allowed(self, node_count: int) -> bool:
        """Whether enumerating all ``2**node_count`` subsets fits.

        Compared in the exponent to keep huge ``2**n`` values out of
        arithmetic entirely.
        """
        return node_count < self.max_subsets_enumerated.bit_length()


DEFAULT_BUDGET = Budget()


def _over_budget(node_count: int, budget: Budget) -> BudgetExceededError:
    return BudgetExceededError(
        f"deficiency of a {node_count}-node graph needs 2**{node_count} subset "
        f"enumerations, over the budget of {budget.max_subsets_enumerated}"
    )


def _deficiency_masks(g: ExtensionalDigraph, budget: Budget) -> tuple[list[NodeId], list[int]]:
    """All unrepresented subsets of ``g``'s nodes, as bitmasks over the
    sorted node list.  Masks come back in ascending numeric order."""
    require_extensional(g)
    nodes = g.sorted_nodes()
    n = len(nodes)
    if not budget.subset_count_allowed(n):
        raise _over_budget(n, budget)
    index = {x: i for i, x in enumerate(nodes)}
    represented = set()
    for ext in g.extensions.values():
        mask = 0
        for m in ext:
            mask |= 1 << index[m]
        represented.add(mask)
    missing = [mask for mask in range(1 << n) if mask not in represented]
    return nodes, missing


def _subsets(nodes: list[NodeId]) -> list[tuple[NodeId, ...]]:
    """Every subset of ``nodes`` as a tuple, indexed by its bitmask over
    the list: doubling the table per node appends the subsets that hold
    it.  Sorted ``nodes`` give sorted tuples."""
    subsets: list[tuple[NodeId, ...]] = [()]
    for x in nodes:
        subsets += [s + (x,) for s in subsets]
    return subsets


def _max_table(values: list[int]) -> list[int]:
    """The greatest of ``values`` over each subset of their positions,
    indexed by the subset's bitmask, 0 for the empty subset: doubling
    the table per value appends the subsets that hold it, as
    :func:`_subsets` doubles its tuples. The table starts from the least
    value, so a subset's entry is its own greatest even where every
    value is negative."""
    table = [min(values, default=0)]
    for v in values:
        table += [t if t > v else v for t in table]
    table[0] = 0
    return table


def _halves(
    nodes: list[NodeId],
) -> tuple[int, list[tuple[NodeId, ...]], list[tuple[NodeId, ...]]]:
    """The width of the low half of sorted ``nodes``, and the sorted
    member tuples of the low and of the high half's subsets, each
    indexed by its bitmask over its half.

    A mask's member tuple is then one concatenation, and the tables
    hold ``2 * 2**(n/2)`` tuples instead of ``2**n``. A full table's
    memory would stay resident after it is freed, beside the new graph:
    the tuples that Python keeps on its free lists pin it until a full
    collection. :func:`complete_step` also makes each half's subsets
    into frozensets once and builds a new node's extension as the
    union of its two halves' sets. A union is sized from its member
    count up front, where a set built from a tuple grows by insertion
    and overshoots: 5 to 7 members take 32 slots instead of 16. The
    union is never larger, and it is faster to build."""
    half = len(nodes) // 2
    return half, _subsets(nodes[:half]), _subsets(nodes[half:])


def _members(nodes: list[NodeId], masks: list[int]) -> Iterator[tuple[NodeId, ...]]:
    """The sorted member tuple of each mask over sorted ``nodes``."""
    half, low, high = _halves(nodes)
    below = (1 << half) - 1
    for mask in masks:
        yield low[mask & below] + high[mask >> half]


def deficiency(g: ExtensionalDigraph, budget: Budget = DEFAULT_BUDGET) -> list[tuple[NodeId, ...]]:
    """Subsets of the node set that no node represents.

    Each subset is a sorted tuple of node ids and the list itself is in
    lexicographic order.  The empty graph yields ``[()]``: nothing
    represents the empty set.  Raises NonExtensionalError for
    non-extensional input and BudgetExceededError when ``2**n`` exceeds
    the subset budget.
    """
    nodes, masks = _deficiency_masks(g, budget)
    return sorted(_members(nodes, masks))


def complete_step(u: AnnotatedGraph, budget: Budget = DEFAULT_BUDGET) -> AnnotatedGraph:
    """Append one completion level to a leveled record: a fresh node per
    missing subset.

    New node ids are content-addressed from the member list, so the
    operation is deterministic and agrees across graphs that share
    subset nodes.  New nodes carry Deficiency provenance stamped with
    the new level index.  The result carries the graph and levels and,
    where ``u`` carries a depth/rank certificate, that certificate
    extended (``u``'s maps are copied, never changed): a node added for
    subset ``X`` gets depth ``max`` of its members' depths (0 for the
    empty set) and, when that depth is below the top family index, rank
    ``max(rank(member) + 1)`` (0 for the empty set), so every family
    ``r_i`` above its depth ranks it so.  No member is walked: each
    maximum is read at the node's mask from a table of it over every
    subset of the nodes (:func:`_max_table`).  A node's extension is
    the union of its low and high half's frozensets, each built once,
    since a union is sized by its member count: never larger than a set
    built from the member tuple, and faster (:func:`_halves`).  The
    certificate is not verified here;
    :func:`~setforge.dred.dred_complete` verifies it before the first
    step and after every step.
    """
    g = u.graph
    nodes, masks = _deficiency_masks(g, budget)
    stamp = Deficiency(level=len(u.levels))
    extensions = dict(g.extensions)
    provenance = dict(g.provenance)
    half, low, high = _halves(nodes)
    low_sets, high_sets = list(map(frozenset, low)), list(map(frozenset, high))
    below = (1 << half) - 1
    # An id hashes the bytes that subset_node_id hashes: the sorted
    # member ids joined by the separator.  Each low half's hash state,
    # and each high half's bytes with a separator before every id, are
    # made once, when a mask first needs them, so an id that no
    # missing subset holds is never encoded.  A mask with an empty low
    # half drops the high bytes' leading separator.
    states: list[blake2b | None] = [None] * len(low)
    tails: list[bytes | None] = [None] * len(high)
    for mask in masks:
        lo, hi = mask & below, mask >> half
        state, tail = states[lo], tails[hi]
        if state is None:
            joined = _ID_SEPARATOR.join(low[lo]).encode("utf-8")
            state = states[lo] = blake2b(joined, digest_size=12)
        if tail is None:
            tail = tails[hi] = "".join([_ID_SEPARATOR + x for x in high[hi]]).encode("utf-8")
        h = state.copy()
        h.update(tail if lo else tail[1:])
        node = "set:" + h.hexdigest()
        if node in extensions:
            raise SetforgeError(
                f"generated id {node!r} collides with an existing node of different extension"
            )
        extensions[node] = low_sets[lo] | high_sets[hi]
        provenance[node] = stamp
    new_graph = ExtensionalDigraph(extensions, provenance)
    levels = u.levels + (new_graph.nodes,)
    if u.depth is None or u.rank is None:
        return AnnotatedGraph(new_graph, levels=levels)
    # The new nodes follow u's in the extension map, in mask order.
    new = list(islice(extensions, len(nodes), None))
    depths = list(map(_max_table([u.depth[x] for x in nodes]).__getitem__, masks))
    # A node the rank map lacks lies at depth ``top`` or deeper, and so
    # does every subset that holds it: no rank kept here counts it.
    ranks = map(_max_table([u.rank.get(x, -1) + 1 for x in nodes]).__getitem__, masks)
    depth, rank = dict(u.depth), dict(u.rank)
    depth.update(zip(new, depths))
    rank.update(compress(zip(new, ranks), map(gt, repeat(u.top), depths)))
    return AnnotatedGraph(new_graph, levels, depth, rank, u.top)


def _leveled(
    u: AnnotatedGraph | ExtensionalDigraph,
) -> tuple[ExtensionalDigraph, tuple[frozenset[NodeId], ...]]:
    """The graph and levels a completion of ``u`` continues, whose next
    index stamps its new nodes and numbers the oracle's first stage: a
    record's own levels, else level ``k`` for each stamp ``k`` up to the
    highest, every node not stamped above ``k``.  A stamp past the node
    count, which no completion makes, raises SetforgeError."""
    g, levels = (u, None) if isinstance(u, ExtensionalDigraph) else (u.graph, u.levels)
    if levels:
        return g, levels
    stamped: dict[int, list[NodeId]] = {}
    for x, p in g.provenance.items():
        stamped.setdefault(p.level if isinstance(p, Deficiency) else 0, []).append(x)
    top = max(stamped, default=0)
    if top > len(g):
        raise SetforgeError(f"no completion of {len(g)} nodes stamps deficiency level {top}")
    level: frozenset[NodeId] = frozenset()
    below = []
    for k in range(top):  # a level that no node is stamped with repeats the one below
        level = level.union(stamped[k]) if k in stamped else level
        below.append(level)
    return g, (*below, g.nodes)


def complete(
    u: AnnotatedGraph | ExtensionalDigraph, n: int, budget: Budget = DEFAULT_BUDGET
) -> AnnotatedGraph:
    """Run ``n`` completion steps continuing ``u``'s levels (:func:`_leveled`),
    without its certificate or formulas.  The whole request is priced by
    the growth law before the first step: if any step would exceed the
    budget, BudgetExceededError names that step and nothing is built.
    """
    g, levels = _leveled(u)
    _priced(g, n, budget)
    u = AnnotatedGraph(g, levels)
    for _ in range(n):
        u = complete_step(u, budget)
    return u


def _growth(seed_size: int, requested: int, budget: Budget) -> tuple[int, int]:
    """The steps the budget permits, capped at ``requested``, and the
    node count after them.  ``2**size`` is only formed for an allowed
    step, so it never exceeds the budget."""
    size = seed_size
    steps = 0
    while steps < requested and budget.subset_count_allowed(size):
        size = 2**size
        steps += 1
    return steps, size


def _priced(g: ExtensionalDigraph, n: int, budget: Budget) -> int:
    """The node count that ``n`` completion steps from ``g`` leave,
    once the request is shown valid: ``n`` non-negative (else
    ValueError), ``g`` extensional, and every step within the budget.
    A refused request raises the error its first refused step would
    raise: the growth law gives that step's node count exactly."""
    if n < 0:
        raise ValueError("level count must be non-negative")
    require_extensional(g)
    steps, size = _growth(len(g), n, budget)
    if steps < n:
        raise _over_budget(size, budget)
    return size


@dataclass(frozen=True)
class WitnessFailure:
    """The last counterexample found to a clause at a level, and how
    many there were."""

    level: int
    clause: str
    detail: str
    count: int = 1


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the pairing/union/subsets/power-set clause checks.

    ``checked`` lists every (level, clause) combination that was
    checkable given the universe's height; ``failures`` the ones that
    did not hold, in the same order, each with its last counterexample
    and the number of counterexamples.
    """

    checked: tuple[tuple[int, str], ...]
    failures: tuple[WitnessFailure, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_lines(self) -> list[str]:
        lines = []
        failed = {(f.level, f.clause): f for f in self.failures}
        for level, clause in self.checked:
            f = failed.get((level, clause))
            status = f"FAIL ({f.detail})" if f else "pass"
            lines.append(f"level {level} {clause}: {status}")
        return lines


# How the counterexample to a clause checked at level ``n`` is written.
_DETAILS = {
    "pairing": lambda n, x0, x1: f"pair {{{x0}, {x1}}} missing at level {n + 1}",
    "union": lambda n, x: f"union of {x} missing at level {n + 1}",
    "subsets": lambda n, subset, x: (
        f"subset {{{', '.join(sorted(subset))}}} of {x} missing at level {n + 1}"
    ),
    "power_set": lambda n, x: f"power set of {x} missing at level {n + 2}",
}


def witness_report(u: AnnotatedGraph) -> WitnessReport:
    """Check the four finite model-construction clauses on a leveled
    record.

    For each level ``n`` where the needed higher level exists:

    * pairing: every (unordered, possibly equal) pair from level ``n``
      is some node of level ``n+1``;
    * union: the union of the members' extensions of each level-``n``
      node is represented at level ``n+1``;
    * subsets: every subset of a level-``n`` node's extension is
      represented at level ``n+1``;
    * power set: the set of *all* subset-representatives of a level-``n``
      node is represented at level ``n+2``.

    Requires at least three levels, otherwise no clause is checkable at
    any level together with power set at the same offset discipline;
    fewer, or none, raise SchemaError naming ``levels``, as bad data.

    The report is priced before anything is enumerated: more than
    ``DEFAULT_MAX_SUBSETS`` pairs and subsets over the checked levels
    raise BudgetExceededError.  A completion the default budget allows
    prices at a few hundred: its checked levels hold at most 16 nodes.
    """
    _require_blocks(u, "levels")
    if len(u.levels) < 3:
        raise SchemaError("levels", "witness report needs at least 3 levels")
    g = u.graph
    top = len(u.levels) - 1
    # A node's subsets are counted in the exponent, capped where one
    # node alone is over the budget, so no huge ``2**|ext|`` is formed.
    cap = DEFAULT_MAX_SUBSETS.bit_length()
    checks = sum(
        len(level) * (len(level) + 1) // 2
        + sum(1 << min(len(g.extensions[x]), cap) for x in level)
        for level in u.levels[:top]
    )
    if checks > DEFAULT_MAX_SUBSETS:
        raise BudgetExceededError(
            f"witness report needs at least {checks} pair and subset checks, "
            f"over the budget of {DEFAULT_MAX_SUBSETS}"
        )
    by_extension: dict[frozenset[NodeId], NodeId] = {}
    for x, ext in g.extensions.items():
        by_extension[ext] = x
    # Where every extension names one node, the nodes below ``ext`` are
    # those its subsets name.
    extensional = len(by_extension) == len(g.extensions)

    checked: list[tuple[int, str]] = []
    # The last counterexample to each (level, clause) that failed, and
    # how many there were; only the last one is written out.
    missed: dict[tuple[int, str], tuple[int, tuple]] = {}

    def miss(n: int, clause: str, *example: Any) -> None:
        count, _ = missed.get((n, clause), (0, ()))
        missed[n, clause] = (count + 1, example)

    def represented_in(target: frozenset[NodeId], level: int) -> bool:
        node = by_extension.get(target)
        return node is not None and node in u.levels[level]

    for n in range(top):
        level_nodes = sorted(u.levels[n])
        checked.append((n, "pairing"))
        for i, x0 in enumerate(level_nodes):
            for x1 in level_nodes[i:]:
                if not represented_in(frozenset((x0, x1)), n + 1):
                    miss(n, "pairing", x0, x1)
        checked.append((n, "union"))
        for x in level_nodes:
            union: set[NodeId] = set()
            for y in g.extensions[x]:
                union |= g.extensions[y]
            if not represented_in(frozenset(union), n + 1):
                miss(n, "union", x)
        checked.append((n, "subsets"))
        below: list[frozenset[NodeId]] = []
        for x in level_nodes:
            named: list[NodeId] = []
            for subset in map(frozenset, _subsets(sorted(g.extensions[x]))):
                z = by_extension.get(subset)
                if z is not None:
                    named.append(z)
                if z not in u.levels[n + 1]:
                    miss(n, "subsets", subset, x)
            below.append(frozenset(named))
        if n + 2 <= top:
            checked.append((n, "power_set"))
            for x, representatives in zip(level_nodes, below):
                if not extensional:
                    ext = g.extensions[x]
                    representatives = frozenset(z for z, zext in g.extensions.items() if zext <= ext)
                if not represented_in(representatives, n + 2):
                    miss(n, "power_set", x)
    failures = []
    for n, clause in checked:
        if (n, clause) in missed:
            count, example = missed[n, clause]
            failures.append(WitnessFailure(n, clause, _DETAILS[clause](n, *example), count))
    return WitnessReport(checked=tuple(checked), failures=tuple(failures))
