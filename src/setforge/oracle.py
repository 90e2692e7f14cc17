r"""Independent reference path for checking completions.

Instead of enumerating missing subsets over node bitmasks the way the
completion engine does, this module decorates a graph into honest set
values (hereditarily finite sets over atoms and self-membered codes)
and grows the value universe stage by stage with itertools
(:func:`oracle_stages`).  A stage's subsets are named by the positions
of their members in the run's list of values; only a stage that a
later stage draws from is made into values.  A stage is priced up
front and then drawn again, in the same order, each time it is walked,
never held as a list, and numbered on from the input's levels as a
completion numbers the levels it adds.  A completion is checked against
those subsets directly, its nodes matched to them by position as they
are drawn, and a mismatch named where the match stopped
(:func:`stage_mismatch`); the values and subsets make a graph
(:func:`oracle_complete`) only where a graph is asked for.  The two
paths share no enumeration code, so agreement between them is
evidence, not an echo.

A value's key names that one set, and a stage value's node id is
``hf:`` and its key: atom and loop labels are written into keys with
the characters of key syntax, ``\(),;{}``, escaped by a backslash.

Values are interned: building the same set twice yields the same
object, and a collection whose members coincide with the membership
extension of an atom or a self-membered code collapses onto it. That
mirrors extensional identification and keeps "one value per extension"
true by construction. The stage values of :func:`oracle_stages` are
the one exception: each is new to its run and no other run meets it,
so they skip the table.
"""

from __future__ import annotations

import itertools
import weakref
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import Hashable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .completion import Budget, DEFAULT_BUDGET, _leveled
from .errors import BudgetExceededError, DecorationError, SetforgeError, UnknownNodeError
from .graph import (
    AnnotatedGraph,
    Deficiency,
    ExtensionalDigraph,
    NodeId,
    Provenance,
    Seed,
    _isomorphism,
    _provenance_colour,
    _require_iso_count,
    is_isomorphic,
    require_extensional,
)


_key = attrgetter("key")

# Key syntax, each character escaped where a label is written into a key.
_ESCAPED = str.maketrans({c: "\\" + c for c in "\\(),;{}"})


@dataclass(frozen=True, eq=False)
class SetValue:
    """Base class; use the module constructors, never the classes."""

    key: str = field(init=False, default="")

    def __lt__(self, other: "SetValue") -> bool:
        return self.key < other.key


@dataclass(frozen=True, eq=False)
class Atom(SetValue):
    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", f"atom({self.label.translate(_ESCAPED)})")


@dataclass(frozen=True, eq=False)
class LoopCode(SetValue):
    """A value b with b = {b} ∪ rest; the label keeps distinct loops
    with equal rest distinct, exactly like atoms."""

    label: str
    rest: tuple[SetValue, ...]

    def __post_init__(self) -> None:
        inner = ",".join(map(_key, self.rest))
        object.__setattr__(self, "key", f"loop({self.label.translate(_ESCAPED)};{inner})")


@dataclass(frozen=True, eq=False)
class Collection(SetValue):
    members: tuple[SetValue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", "{" + ",".join(map(_key, self.members)) + "}")


# A value stays interned only while something holds it, so the table
# shrinks back once a run drops its values.
_registry: weakref.WeakValueDictionary[str, SetValue] = weakref.WeakValueDictionary()


def _intern(value: SetValue) -> SetValue:
    return _registry.setdefault(value.key, value)


def atom(label: str) -> SetValue:
    return _intern(Atom(label=label))


def loop_code(label: str, rest: Iterable[SetValue] = ()) -> SetValue:
    ordered = tuple(sorted(set(rest), key=_key))
    return _intern(LoopCode(label=label, rest=ordered))


def collection(members: Iterable[SetValue]) -> SetValue:
    """The set of the given values, collapsed onto an existing atom or
    loop code when the member set equals that value's own extension."""
    unique = {v.key: v for v in members}
    ordered = tuple(sorted(unique.values(), key=_key))
    as_set = frozenset(ordered)
    for v in ordered:
        if not isinstance(v, Collection) and value_extension(v) == as_set:
            return v
    return _intern(Collection(members=ordered))


def value_extension(v: SetValue) -> frozenset[SetValue]:
    if isinstance(v, Atom):
        return frozenset({v})
    if isinstance(v, LoopCode):
        return frozenset({v, *v.rest})
    if isinstance(v, Collection):
        return frozenset(v.members)
    raise TypeError(f"not a set value: {v!r}")


class _Draw:
    """The subsets of a stage's values that none of them represents,
    each as the ascending tuple of its members' positions in those
    values, in the order :func:`itertools.combinations` draws them.
    Each pass draws them again, so nothing holds them all; their count
    is known without a draw."""

    __slots__ = ("size", "represented")

    def __init__(self, size: int, represented: set[tuple[int, ...]]) -> None:
        self.size = size
        self.represented = represented

    def __len__(self) -> int:
        return 2**self.size - len(self.represented)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        by_size = map(partial(itertools.combinations, range(self.size)), range(self.size + 1))
        drawn = itertools.chain.from_iterable(by_size)
        return itertools.filterfalse(self.represented.__contains__, drawn)


def _one_stage(values: Sequence[SetValue], budget: Budget, what: str) -> _Draw:
    """The subsets of ``values`` not already represented by one of
    them, priced against ``budget`` before anything is drawn."""
    if not budget.subset_count_allowed(len(values)):
        raise BudgetExceededError(
            f"{what} needs 2**{len(values)} subset enumerations, over the budget "
            f"of {budget.max_subsets_enumerated}"
        )
    # Each represented extension inside ``values``, as the tuple that
    # combinations() draws for it.
    position = {v: i for i, v in enumerate(values)}
    represented = {
        tuple(sorted(map(position.__getitem__, ext)))
        for ext in map(value_extension, values)
        if ext <= position.keys()
    }
    return _Draw(len(values), represented)


def decorate(g: ExtensionalDigraph) -> dict[NodeId, SetValue]:
    """Read each node as the set value its memberships describe.

    A node with only a self-loop becomes an atom named by the node; a
    self-looped node with further members becomes a self-membered code
    value over its other members' values. Any membership cycle that is
    not a plain self-loop has no honest value and raises
    DecorationError.
    """
    done: dict[NodeId, SetValue] = {}
    # The walk's current path, deepest node last, each node with an
    # iterator over its sorted members other than itself.  An explicit
    # stack lets chains longer than the recursion limit decorate.
    path: dict[NodeId, Iterator[NodeId]] = {}
    for root in g.sorted_nodes():
        if root not in done:
            path[root] = iter(sorted(g.extensions[root] - {root}))
        while path:
            x, pending = next(reversed(path.items()))
            m = next((m for m in pending if m not in done), None)
            if m in path:
                raise DecorationError(f"membership cycle through {m!r} is not a self-loop")
            if m is not None:
                path[m] = iter(sorted(g.extensions[m] - {m}))
                continue
            path.popitem()  # not `del`: dummy slots would slow `reversed`
            ext = g.extensions[x]
            others = [done[m] for m in sorted(ext - {x})]
            if x in ext:
                done[x] = loop_code(x, others) if others else atom(x)
            else:
                done[x] = collection(others)
    return done


class StageValues(NamedTuple):
    """What :func:`oracle_stages` builds: the input's graph and the
    index of its first stage, as :func:`_leveled` gives them; each
    decoration value with its seed node; the run's values, which are
    the decoration values in key order and then each stage but the
    last, made into values in draw order; and the subsets each stage
    adds, in stage order, as :func:`_one_stage` names them by position
    in those values.  A stage is drawn again each time it is walked, in
    the same order, and never held: the last stage, the largest, is a
    count and the few tuples its values represent."""

    graph: ExtensionalDigraph
    first: int
    node_of: dict[SetValue, NodeId]
    values: list[SetValue]
    stages: list[_Draw]


def oracle_stages(
    u: AnnotatedGraph | ExtensionalDigraph, n: int, budget: Budget = DEFAULT_BUDGET
) -> StageValues:
    """The values of a reference completion of ``u``: decorate, then run n stages.

    Raises what :func:`oracle_complete` raises before it converts the
    values, in the same order, so a caller that converts them later, or
    never, reports those errors first.
    """
    if n < 0:
        raise ValueError("stage count must be non-negative")
    g, levels = _leveled(u)
    require_extensional(g)
    decoration = decorate(g)
    node_of: dict[SetValue, NodeId] = {}
    for x, v in decoration.items():
        if v in node_of:
            raise SetforgeError(
                f"decoration conflated {node_of[v]!r} and {x!r}; input was not extensional"
            )
        node_of[v] = x
    # A stage's subsets become values only for the next stage to draw
    # from.  Each is built as a collection directly, without
    # :func:`collection`: it cannot collapse onto an atom or loop code
    # among its members, whose own extension is represented and so
    # skipped.  Stage values skip the intern table: each is a subset no
    # value of the run represents, so it is distinct from every other
    # value of the run, and no other run meets it.
    values: list[SetValue] = sorted(node_of, key=_key)
    stages: list[_Draw] = []
    for stage in range(len(levels), len(levels) + n):
        if stages:
            values += [
                Collection(members=tuple(sorted(map(values.__getitem__, p), key=_key)))
                for p in stages[-1]
            ]
        stages.append(_one_stage(values, budget, f"stage {stage}"))
    return StageValues(g, len(levels), node_of, values, stages)


def _seed_members(values: StageValues) -> list[tuple[int, ...]]:
    """The members of each decoration value, as positions."""
    seeds = values.values[: len(values.node_of)]
    position = {v: i for i, v in enumerate(seeds)}
    return [tuple(map(position.__getitem__, value_extension(v))) for v in seeds]


def _members(values: StageValues) -> list[tuple[int, ...]]:
    """The members of each decoration value and then of each stage
    subset, as positions: a stage's subsets follow the values and the
    subsets of the stages before it, where :func:`oracle_stages` puts
    them in its values when a later stage draws from them."""
    members = _seed_members(values)
    for fresh in values.stages:
        members += fresh
    return members


def _keys(values: StageValues) -> list[str]:
    """The key of each value and stage subset, in :func:`_members`'
    order, each subset's spelled as a :class:`Collection` spells it."""
    keys = list(map(_key, values.values[: len(values.node_of)]))
    for fresh in values.stages:
        keys += ["{" + ",".join(sorted(map(keys.__getitem__, p))) + "}" for p in fresh]
    return keys


def oracle_complete(
    u: AnnotatedGraph | ExtensionalDigraph, n: int, budget: Budget = DEFAULT_BUDGET
) -> ExtensionalDigraph:
    """Reference completion: decorate, run n stages on values, convert back.

    Seed nodes keep their ids and provenance; stage-r additions are
    named ``hf:`` and their key and stamped like the r-th level a
    completion of ``u`` adds, so a correct completion of ``u`` is
    label-preservingly isomorphic to the result.  A generated id that a
    seed node holds already raises SetforgeError, the least one named.
    """
    values = oracle_stages(u, n, budget)
    g, node_of = values.graph, values.node_of
    keys = _keys(values)
    ids = list(map(node_of.__getitem__, values.values[: len(node_of)]))
    ids += map("hf:".__add__, keys[len(node_of) :])
    clash = min(g.nodes.intersection(ids[len(node_of) :]), default=None)
    if clash is not None:
        raise SetforgeError(f"generated id {clash!r} collides with a seed id")
    stamps = [g.provenance[x] for x in ids[: len(node_of)]]
    for stage, fresh in enumerate(values.stages, values.first):
        stamps += itertools.repeat(Deficiency(level=stage), len(fresh))
    members = _members(values)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    extensions = {ids[i]: frozenset(map(ids.__getitem__, members[i])) for i in order}
    provenance = {ids[i]: stamps[i] for i in order}
    return ExtensionalDigraph(extensions, provenance)


@dataclass(frozen=True)
class ComparisonVerdict:
    isomorphic: bool
    detail: str


def _extension_size_histogram(g: ExtensionalDigraph) -> dict[int, int]:
    return dict(Counter(map(len, g.extensions.values())))


def _level_histogram(g: ExtensionalDigraph) -> dict[object, int]:
    """Nodes per provenance key, counted in id order, so that the keys
    print in the same order in every run."""
    hist: Counter[object] = Counter()
    for x in g.sorted_nodes():
        p = g.provenance[x]
        if isinstance(p, Deficiency):
            hist["deficiency", p.level] += 1
        elif isinstance(p, Seed):
            hist["seed"] += 1
        else:
            hist["code", p.kind] += 1
    return dict(hist)


def _by_level(g: ExtensionalDigraph) -> tuple[dict[int, list[NodeId]], dict[NodeId, Provenance]]:
    """The deficiency nodes of ``g`` by level, and the other nodes with
    their provenance.  A completion step and the reader give a level's
    nodes one provenance object, mostly in a run: a node with the
    object of the node before joins that node's list at once."""
    levels: dict[int, list[NodeId]] = {}
    fixed: dict[NodeId, Provenance] = {}
    last: Provenance | None = None
    for x, p in g.provenance.items():
        if p is last:
            xs.append(x)
        elif isinstance(p, Deficiency):
            last, xs = p, levels.setdefault(p.level, [])
            xs.append(x)
        else:
            fixed[x] = p
    return levels, fixed


def _induced(
    ext_a: Mapping[NodeId, frozenset[NodeId]] | Sequence[tuple[int, ...]],
    b: ExtensionalDigraph,
    phi: Mapping[Hashable, NodeId],
    groups: tuple,
    drawn: Mapping[int, Iterable[Iterable[Hashable]]] | None = None,
) -> dict[Hashable, NodeId] | str:
    """The isomorphism onto ``b`` that the level walk extends ``phi``
    to, ``phi`` a map of the non-deficiency nodes of a graph whose
    nodes' members ``ext_a`` gives; else a short text that says where
    the walk stopped, which decides nothing.  The map of the empty
    graph is ``{}``, so a caller tests the result for a map, never for
    its truth.  ``groups`` holds the :func:`_by_level` groups of that
    graph and of ``b``; the walk only reads them.  ``ext_a`` maps each
    node to its members, or lists each node's member positions, the
    node named by its own position in the list.  A level's members are
    read in step with its names, each once: from ``ext_a``, or, where
    ``drawn`` is given, as it yields them for the level, which then
    need not be held anywhere.

    ``phi`` must be one to one onto the non-deficiency nodes of ``b``
    and keep provenance colours.  The walk then names the deficiency
    nodes level by level in ascending order: each takes the node of
    ``b`` at its level whose extension its members' names spell, and
    is named by it once its level is spelled, so a member not named yet
    spells nothing.  The walk stops at the first level whose node
    counts differ (a level that only one graph has counts none in the
    other), else at the least node of ``b`` at the level that no
    member list spelled, else where two nodes of ``b`` at the level
    share an extension, naming both.  With the non-deficiency nodes'
    members carried onto their images' too, the map is an isomorphism
    in :func:`is_isomorphic`'s sense, so a map is exact.  Every
    isomorphism of two seeds lifts to their exact completions: a level
    adds exactly the subsets that no node represents, and an
    isomorphism carries those onto those.
    """
    (levels_a, fixed_a), (levels_b, fixed_b) = groups
    image = set(phi.values())
    if not (
        phi.keys() == fixed_a.keys()
        and len(image) == len(phi)
        and image == fixed_b.keys()
        and all(
            _provenance_colour(p) == _provenance_colour(fixed_b[phi[x]])
            for x, p in fixed_a.items()
        )
    ):
        return "the seed map is not one to one onto the seed nodes with their colours"
    names = dict(phi)
    extensions = b.extensions
    for level in sorted(levels_a.keys() | levels_b.keys()):
        xs, ys = levels_a.get(level, ()), levels_b.get(level, ())
        if len(xs) != len(ys):
            return f"level {level} has {len(ys)} nodes, not {len(xs)}"
        table = {extensions[y]: y for y in ys}
        members = map(ext_a.__getitem__, xs) if drawn is None else drawn[level]
        found = [table.pop(frozenset(map(names.get, ms)), None) for ms in members]
        if table:
            return f"level {level}: nothing maps onto {min(table.values())!r}"
        if None in found:
            # The table kept the last node of ``ys`` with each extension.
            last = {extensions[y]: y for y in ys}
            y, twin = sorted(min((y, last[extensions[y]]) for y in ys if last[extensions[y]] != y))
            return f"level {level}: {y!r} and {twin!r} share an extension"
        names.update(zip(xs, found, strict=True))
    for x, y in phi.items():
        if frozenset(map(names.__getitem__, ext_a[x])) != extensions[y]:
            return f"the members of {y!r} are not the images of {x!r}'s"
    return names


def _seed_map_lifts(a: ExtensionalDigraph, b: ExtensionalDigraph, groups: tuple) -> bool:
    """Whether :func:`_induced` extends the identity where both graphs
    have the same non-deficiency nodes with equal provenance, as a
    completion and its :func:`oracle_complete` do, else the isomorphism
    that :func:`_isomorphism` finds between the non-deficiency parts
    where each is a graph of its own (no node of it holds a deficiency
    node)."""
    fixed_a, fixed_b = groups[0][1], groups[1][1]
    if fixed_a == fixed_b:
        phi = dict(zip(fixed_a, fixed_a))
    else:
        try:
            phi = _isomorphism(a.restrict(frozenset(fixed_a)), b.restrict(frozenset(fixed_b)))
        except UnknownNodeError:
            return False
        if phi is None:
            return False
    return isinstance(_induced(a.extensions, b, phi, groups), dict)


def stage_mismatch(ours: ExtensionalDigraph, values: StageValues) -> str | None:
    """Where ``ours``, a completion of the input of ``values``, differs
    from the stage values, else None.  Every input node is fixed:
    ``ours`` must hold each with the same id, provenance and members
    below the first stage, and no other node there, else the least node
    that differs is named.  Only the stages are walked, by
    :func:`_induced` from the identity on the input's nodes, without
    the graph of the values: a stage's subsets are named by their
    positions in :func:`_members`' order and drawn again at its level.
    The walk builds the inverse of the lift of ``ours`` onto
    :func:`oracle_complete`'s graph, so it decides what that lift
    decides where the input's nodes agree.
    """
    g, first = values.graph, values.first
    levels, fixed = _by_level(ours)
    below = set(fixed).union(*[levels.pop(k) for k in [*levels] if k < first])
    changed = [x for x in below | g.nodes if ours.provenance.get(x) != g.provenance.get(x)]
    changed += [x for x in g.nodes if ours.extensions.get(x) != g.extensions[x]]
    if changed:
        return f"{min(changed)!r} differs from the input below level {first}"
    phi = dict(enumerate(map(values.node_of.__getitem__, values.values[: len(values.node_of)])))
    drawn = dict(enumerate(values.stages, first))
    names, start = {}, len(phi)
    for stage, fresh in drawn.items():
        names[stage] = range(start, start + len(fresh))
        start += len(fresh)
    groups = (names, {i: g.provenance[x] for i, x in phi.items()}), (levels, g.provenance)
    found = _induced(_seed_members(values), ours, phi, groups, drawn)
    return found if isinstance(found, str) else None


def compare(a: ExtensionalDigraph, b: ExtensionalDigraph) -> ComparisonVerdict:
    """Isomorphism verdict with a distinguishing invariant on failure.

    Each graph is grouped by level once.  Graphs that share their
    non-deficiency nodes, as a completion and its :func:`oracle_complete`
    do, are matched from that shared seed map, and others from an
    isomorphism of their non-deficiency parts, which is all completions
    of seeds under other ids need (:func:`_seed_map_lifts`); only when
    that fails does :func:`is_isomorphic` search the whole graphs.
    """
    _require_iso_count(len(a.nodes), len(b.nodes))
    if _seed_map_lifts(a, b, (_by_level(a), _by_level(b))) or is_isomorphic(a, b):
        return ComparisonVerdict(True, "isomorphic")
    probes = [
        ("node counts", lambda g: len(g.nodes)),
        ("edge counts", lambda g: sum(map(len, g.extensions.values()))),
        (
            "self-loop counts",
            lambda g: sum(1 for x in g.nodes if x in g.extensions[x]),
        ),
        ("extension size histograms", _extension_size_histogram),
        ("provenance histograms", _level_histogram),
    ]
    for name, probe in probes:
        va, vb = probe(a), probe(b)
        if va != vb:
            return ComparisonVerdict(False, f"{name} differ: {va!r} vs {vb!r}")
    return ComparisonVerdict(False, "no label-preserving bijection exists")
