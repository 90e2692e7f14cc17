"""Canonical JSON documents for graphs and their annotations.

A document is one line of JSON with sorted keys and sorted node and
edge lists, so equal documents are byte-identical and diffs are
meaningful. The graph core (nodes with provenance, edges) is always
present; level structure, depth and rank annotations, and a formula
library are optional blocks. In memory a document is an
:class:`~setforge.graph.AnnotatedGraph`, one field per block (``ranks``
as one rank map and its top family index).

Schema violations raise :class:`~setforge.errors.SchemaError` naming
the offending field path, for example ``edges[3]`` or ``ranks.2``.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from contextlib import contextmanager
from functools import partial
from itertools import accumulate, chain, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import eq, ge, gt, itemgetter, le, lt, not_
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from .errors import SchemaError
from .graph import (
    AnnotatedGraph,
    Code,
    Deficiency,
    ExtensionalDigraph,
    NodeId,
    Provenance,
    Seed,
    _rank_domain_exact,
    _require_blocks,
)

FORMAT_VERSION = 1

_CODE_KINDS = ("loop", "chain", "tuple", "atom")


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, restoring the caller's
    setting on the way out. Documents are acyclic JSON trees and
    extension maps, so the collector's repeated passes over their
    millions of objects would free nothing.

    Used as a block around all of a function's work, so that its
    temporaries, the parsed JSON tree among them, are freed before the
    collector resumes and never scanned. Not as a decorator: its wrapper
    would hold the arguments for the whole call, so a record or text
    passed as a temporary could not be freed early. ``cli.main`` runs
    every command under it, where these nested pauses do nothing; they
    stay for library callers, who parse and write large documents
    in-process with the collector on, and would otherwise pay for its
    passes over every JSON object."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _array(items: list[str]) -> list[str]:
    """The pieces of a JSON array of already encoded items, left for the
    caller's one join, so that no array is first copied into a string
    of its own."""
    if not items:
        return ["[]"]
    pieces = [","] * (2 * len(items) + 1)
    pieces[0], pieces[-1] = "[", "]"
    pieces[1::2] = items
    return pieces


def _edge_run(q: str, containers: Iterable[str]) -> str:
    """The edges of the member quoted as ``q`` into ``containers``,
    quoted and in id order, as the ``edges`` block writes them."""
    return f"[{q},{f'],[{q},'.join(containers)}]"


def _node_entry(q: str, p: Provenance, members: list[str]) -> str:
    """One ``nodes`` item, keys in sorted order, for the node quoted as
    ``q``; ``members`` are its members, quoted and in id order."""
    quote = encode_basestring_ascii
    if isinstance(p, Seed):
        provenance = f'{{"kind":"seed","label":{quote(p.label)}}}'
    elif isinstance(p, Deficiency):
        provenance = f'{{"kind":"deficiency","level":{p.level:d},"members":[{",".join(members)}]}}'
    else:
        provenance = f'{{"code_kind":{quote(p.kind)},"detail":{quote(p.detail)},"kind":"code"}}'
    return f'{{"id":{q},"provenance":{provenance}}}'


def _dumps(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _entries(
    values: dict[NodeId, Any], g: ExtensionalDigraph, quoted: list[str]
) -> list[str] | None:
    """The ``"id":value`` entries of ``values`` in id order, byte for
    byte as ``_dumps`` writes them, read off ``g``'s sorted nodes and
    their encodings ``quoted``, so that no key is sorted or encoded
    again; None unless the keys are ``g``'s nodes and every value is an
    exact int (``json`` writes a bool as ``true``)."""
    if values.keys() != g.nodes or not set(map(type, values.values())) <= {int}:
        return None
    return [f"{q}:{v}" for q, v in zip(quoted, map(values.__getitem__, g.sorted_nodes()))]


def _depth(depth: dict[NodeId, int], g: ExtensionalDigraph, quoted: list[str]) -> str:
    """The ``depth`` object as ``_dumps`` writes it, from ``quoted``
    where :func:`_entries` can read it so. Its entries die with the
    call, before ``_pieces`` renders the rest, which peaks higher."""
    entries = _entries(depth, g, quoted)
    return _dumps(depth) if entries is None else f"{{{','.join(entries)}}}"


def _families(doc: AnnotatedGraph, quoted: list[str]) -> str:
    """The ``ranks`` object of ``doc`` as ``_dumps`` would write its
    families (keys in string order, "10" before "2"): family ``top`` is
    the rank map, and each lower family ``i`` joins the map's entries,
    each encoded once, at depths below ``i`` (no depth reads as ``top``).
    A map on exactly the nodes is written from ``quoted``
    (:func:`_entries`), any other in sorted key order."""
    top, rank = doc.top, doc.rank
    keys, entries = doc.graph.sorted_nodes(), _entries(rank, doc.graph, quoted)
    if entries is None:
        keys = sorted(rank)
        entries = [f"{encode_basestring_ascii(x)}:{_dumps(rank[x])}" for x in keys]
    below = list(map(doc.depth.get, keys, repeat(top)))
    families = [
        f'"{i}":{{{",".join(entries if i == top else compress(entries, map(gt, repeat(i), below)))}}}'
        for i in sorted(range(1, top + 1), key=str)
    ]
    return f"{{{','.join(families)}}}"


def _pieces(doc: AnnotatedGraph) -> list[str]:
    """The pieces of ``doc``'s line and its newline, in order, every one
    built before the list is returned, so that a writer which fails has
    nothing to print yet.

    The record, its graph and its ``sorted_nodes()`` are dropped once
    everything the line needs is taken from them, before the pieces,
    about as large as the graph, are rendered: a caller that passes the
    record as a temporary (on Python 3.11+, where a call moves its
    arguments into the callee) never holds its graph and the pieces
    together.

    A record with a rank map but no depth map raises ``SchemaError``
    naming ``depth``, which the rank families are cut by."""
    if doc.rank is not None:
        _require_blocks(doc, "depth")
    with _gc_paused():
        g = doc.graph
        order = g.sorted_nodes()
        quoted = list(map(encode_basestring_ascii, order))
        runs = g.member_runs()
        # The top level is the node set, written from ``quoted``.
        lower = None if doc.levels is None else [_dumps(sorted(x)) for x in doc.levels[:-1]]
        sections = []
        if doc.depth is not None:
            sections.append(("depth", [_depth(doc.depth, g, quoted)]))
        if doc.rank is not None:
            sections.append(("ranks", [_families(doc, quoted)]))
        if doc.formulas:
            sections.append(("formulas", [_dumps(doc.formulas)]))
        provenance = list(map(g.provenance.__getitem__, order))
        del doc, g, order
        at = quoted.__getitem__
        # Transposed back, runs in member-id order list each node's
        # members in id order; built only now, from ``runs`` and
        # ``quoted``, so that they are never held with the graph.
        # Reversed, so that each list is popped, and freed, as its entry
        # is made.
        members: list[list[str]] = [[] for _ in quoted]
        for m, cs in runs:
            deque(map(list.append, map(members.__getitem__, cs), repeat(at(m))), maxlen=0)
        members.reverse()
        sections += [
            ("edges", _array([_edge_run(at(m), map(at, cs)) for m, cs in runs])),
            ("format_version", [str(FORMAT_VERSION)]),
            ("nodes", _array([_node_entry(q, p, members.pop()) for q, p in zip(quoted, provenance)])),
        ]
        if lower is not None:
            sections.append(("levels", _array([*lower, f"[{','.join(quoted)}]"])))
        pieces = []
        for key, body in sorted(sections, key=itemgetter(0)):
            pieces += (",", f'"{key}":')
            pieces += body
        pieces[0] = "{"
        pieces.append("}\n")
        return pieces


def serialize(doc: AnnotatedGraph) -> str:
    """One canonical line; equal documents serialize byte-identically.

    The graph core is written directly, byte for byte as
    ``json.dumps(sort_keys=True)`` writes it: each id is quoted once by
    the encoder's own routine and the edges come as one string per
    member. The line is the join of the pieces that ``_pieces`` renders,
    less their closing newline; the command line writes those pieces, a
    bounded run at a time, so it never holds the joined line. Ids are
    always ordered raw, as ``sort_keys`` orders them, never quoted:
    ``"é"`` sorts after ``"a"`` but quotes to ``"\\u00e9"``, which sorts
    before ``"a"``. The optional blocks go through ``json.dumps`` itself.
    """
    pieces = _pieces(doc)
    pieces[-1] = pieces[-1].removesuffix("\n")
    return "".join(pieces)


def _want(raw: Mapping[str, Any], key: str, kind: type) -> Any:
    if key not in raw:
        raise SchemaError("$", f"missing required field {key!r}")
    value = raw[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(key, f"expected {kind.__name__}")
    return value


# -- bulk checks ---------------------------------------------------------------
#
# ``json.loads`` builds only exact dict, list, str, int, float, bool and
# None objects, so comparing exact types is ``isinstance`` without the
# bool-is-an-int exception.


def _all_of(values: Iterable[Any], kind: type) -> bool:
    return set(map(type, values)) <= {kind}


def _fields(entries: list[dict], key: str) -> list[Any]:
    return list(map(dict.get, entries, repeat(key)))


def _encodable(strings: Iterable[str]) -> bool:
    """Whether no string holds a lone surrogate, which no UTF-8 text can
    carry and no subset node id can hash."""
    joined = "".join(strings)
    if joined.isascii():
        return True
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _of_kind(
    kind: str, kinds: list[str], ids: list[NodeId], entries: list[dict]
) -> tuple[list[NodeId], list[dict]]:
    mask = list(map(eq, kinds, repeat(kind)))
    return list(compress(ids, mask)), list(compress(entries, mask))


class _Nodes:
    """The ``nodes`` entries as columns, read a batch of entries at a
    time: the ids, their provenance filled in node order, whether each
    is a deficiency node, and the deficiency ``members`` lists
    flattened, with each list's length; and how many nodes each
    deficiency level stamps. Every id and member is one string object
    per value, shared through ``canon``, so no column holds a decoded
    entry once its batch is read."""

    def __init__(self) -> None:
        self.ids: list[NodeId] = []
        self.provenance: dict[NodeId, Provenance] = {}
        self.deficient: list[bool] = []
        self.members: list[NodeId] = []
        self.sizes: list[int] = []
        self.stamped: Counter[int] = Counter()
        self.canon: dict[NodeId, NodeId] = {}
        self._shared: dict[int, Deficiency] = {}

    def add(self, entries: Any) -> bool:
        """Read in the batch ``entries``; False, and the columns not to
        be used, when a bulk check fails."""
        if not (type(entries) is list and _all_of(entries, dict)):
            return False
        ids = _fields(entries, "id")
        entries = _fields(entries, "provenance")
        if not (_all_of(ids, str) and _encodable(ids) and _all_of(entries, dict)):
            return False
        kinds = _fields(entries, "kind")
        if not (_all_of(kinds, str) and set(kinds) <= {"seed", "deficiency", "code"}):
            return False
        ids = list(map(self.canon.setdefault, ids, ids))
        seed_ids, seeds = _of_kind("seed", kinds, ids, entries)
        labels = _fields(seeds, "label")
        deficiency_ids, deficiencies = _of_kind("deficiency", kinds, ids, entries)
        levels = _fields(deficiencies, "level")
        lists = _fields(deficiencies, "members")
        code_ids, codes = _of_kind("code", kinds, ids, entries)
        code_kinds = _fields(codes, "code_kind")
        details = _fields(codes, "detail")
        if not (
            _all_of(labels, str)
            and _encodable(labels)
            and _all_of(levels, int)
            and min(levels, default=1) >= 1
            and _all_of(lists, list)
            and _all_of(chain.from_iterable(lists), str)
            and _all_of(code_kinds, str)
            and set(code_kinds) <= set(_CODE_KINDS)
            and _all_of(details, str)
            and _encodable(details)
        ):
            return False
        shared = self._shared
        shared.update((level, Deficiency(level=level)) for level in set(levels) - shared.keys())
        provenance = self.provenance
        provenance.update(zip(ids, repeat(None)))  # type: ignore[arg-type]
        provenance.update(zip(seed_ids, map(Seed, labels)))
        provenance.update(zip(deficiency_ids, map(shared.__getitem__, levels)))
        provenance.update(zip(code_ids, map(Code, code_kinds, details)))
        self.stamped.update(levels)
        self.ids += ids
        self.deficient += map(eq, kinds, repeat("deficiency"))
        members = chain.from_iterable(lists)
        self.members += map(self.canon.setdefault, members, chain.from_iterable(lists))
        self.sizes += map(len, lists)
        return True

    def distinct(self) -> bool:
        """Whether the ids read are distinct and nonempty."""
        return len(self.provenance) == len(self.ids) and "" not in self.provenance


def _levels(levels_raw: list, known: frozenset[NodeId]) -> list[frozenset[NodeId]]:
    if _all_of(levels_raw, list) and _all_of(chain.from_iterable(levels_raw), str):
        collected = list(map(frozenset, levels_raw))
        if all(map(known.issuperset, collected)) and all(
            map(le, collected, islice(collected, 1, None))
        ):
            return collected
    _raise_first(map(_level_fault, count(), chain([[]], levels_raw), levels_raw, repeat(known)))
    raise AssertionError("a level fault went unnamed")


def _rank_key(key: str) -> int:
    """The depth bound a rank family key names. The schema's pattern
    ^[1-9][0-9]*$ asks for ASCII digits and no leading zero, so distinct
    keys name distinct families."""
    path = f"ranks.{key}"
    if not (key.isascii() and key.isdigit() and key[0] != "0"):
        raise SchemaError(path, "rank family keys must be positive integers")
    try:
        return int(key)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise SchemaError(
            path, f"rank family keys have at most {sys.get_int_max_str_digits()} digits"
        ) from None


def _family_shown(
    i: int, family: Any, known: frozenset[NodeId], depth: dict[NodeId, int],
    sorted_depths: list[int],
) -> bool:
    """Whether ``family`` is a rank family ``i`` may hold: an object of
    integers whose keys are exactly the nodes of ``depth`` below ``i``.
    ``known`` is ``depth``'s keys and ``sorted_depths`` its values
    sorted."""
    return (
        type(family) is dict
        and _all_of(family.values(), int)
        and _rank_domain_exact(i, family, known, depth, sorted_depths)
    )


def _stamps_shown(
    levels: tuple[frozenset[NodeId], ...], provenance: dict[NodeId, Provenance],
    stamped: Counter[int],
) -> bool:
    """Whether each deficiency node is stamped with the index of the
    first of ``levels`` that holds it, ``stamped`` counting the nodes of
    each stamp. Only the levels below the top are read, never the top,
    which holds every node: the stamps in level ``k`` must be at most
    ``k``, and as many of them ``k`` as ``stamped`` counts; and no stamp
    may name a level past the top."""
    if max(stamped, default=0) >= len(levels):
        return False
    for k, level in enumerate(levels[:-1]):
        stamps = [p.level for p in map(provenance.__getitem__, level) if type(p) is Deficiency]
        if max(stamps, default=0) > k or stamps.count(k) != stamped[k]:
            return False
    return True


# -- naming --------------------------------------------------------------------
#
# Where a bulk check fails, each rule group's namer is given the
# section's entries in the order an item-by-item walk meets them (every
# node id before any provenance); it returns one entry's fault, or None.


def _raise_first(faults: Iterable[SchemaError | None]) -> None:
    for fault in filter(None, faults):
        raise fault


def _id_fault(i: int, item: Any, seen: set[NodeId]) -> SchemaError | None:
    """``seen`` holds the ids of the ``nodes`` entries before ``item``."""
    path = f"nodes[{i}]"
    if type(item) is not dict:
        return SchemaError(path, "node entries must be objects")
    x = item.get("id")
    if type(x) is not str or not x:
        return SchemaError(path, "node id must be a nonempty string")
    if not _encodable((x,)):
        return SchemaError(f"{path}.id", "node ids must not hold a lone surrogate")
    return SchemaError(path, f"duplicate node id {x!r}") if x in seen else None


def _text_fault(path: str, kind: str, field: str, value: Any) -> SchemaError | None:
    if type(value) is not str:
        return SchemaError(path, f"{kind} provenance needs a string {field}")
    if not _encodable((value,)):
        return SchemaError(f"{path}.{field}", f"{field}s must not hold a lone surrogate")
    return None


def _provenance_fault(i: int, raw: Any) -> SchemaError | None:
    path = f"nodes[{i}].provenance"
    if type(raw) is not dict:
        return SchemaError(path, "provenance must be an object")
    kind = raw.get("kind")
    if kind == "seed":
        return _text_fault(path, "seed", "label", raw.get("label"))
    if kind == "deficiency":
        level, members = raw.get("level"), raw.get("members")
        if type(level) is not int or level < 1:
            return SchemaError(path, "deficiency level must be an integer >= 1")
        if type(members) is not list or not _all_of(members, str):
            return SchemaError(path, "deficiency members must be a list of ids")
        return None
    if kind == "code":
        if raw.get("code_kind") not in _CODE_KINDS:
            return SchemaError(path, f"code_kind must be one of {', '.join(_CODE_KINDS)}")
        return _text_fault(path, "code", "detail", raw.get("detail"))
    return SchemaError(path, f"unknown provenance kind {kind!r}")


def _edge_fault(i: int, pair: Any, known: frozenset[NodeId]) -> SchemaError | None:
    if type(pair) is not list or len(pair) != 2 or not type(pair[0]) is type(pair[1]) is str:
        return SchemaError(f"edges[{i}]", "edges must be [member, container] id pairs")
    stray = [x for x in pair if x not in known]
    return SchemaError(f"edges[{i}]", f"references unknown id {stray[0]!r}") if stray else None


def _members_fault(i: int, claimed: list[NodeId], group: list[NodeId]) -> SchemaError | None:
    """The fault of ``nodes[i]``, which claims ``claimed``; its edges give ``group``."""
    path = f"nodes[{i}].provenance"
    if claimed == sorted(set(group)):
        return None
    return SchemaError(path, "deficiency members must equal the node's extension")


def _level_fault(i: int, below: list, level: Any, known: frozenset[NodeId]) -> SchemaError | None:
    """``below`` is the level before ``level``, or empty."""
    path = f"levels[{i}]"
    if type(level) is not list or not _all_of(level, str):
        return SchemaError(path, "levels must be lists of node ids")
    stray = [x for x in level if x not in known]
    if stray:
        return SchemaError(path, f"references unknown id {stray[0]!r}")
    return None if set(below).issubset(level) else SchemaError(path, "levels must be cumulative")


def _stamp_fault(
    i: int, x: NodeId, p: Provenance, levels: tuple[frozenset[NodeId], ...]
) -> SchemaError | None:
    """The fault of ``nodes[i]``, the node ``x`` with provenance ``p``."""
    if type(p) is not Deficiency:
        return None
    k = p.level
    if k < len(levels) and x in levels[k] and x not in levels[k - 1]:
        return None
    return SchemaError(
        f"nodes[{i}].provenance",
        f"a node stamped deficiency level {k} must be in levels[{k}] and not in levels[{k - 1}]",
    )


def _depth_fault(key: str, value: Any, known: frozenset[NodeId]) -> SchemaError | None:
    if key not in known:
        return SchemaError("depth", f"references unknown id {key!r}")
    if type(value) is not int or value < 0:
        return SchemaError("depth", f"depth of {key!r} must be a non-negative integer")
    return None


def _rank_fault(
    key: str, i: int, rank_map: Any, known: frozenset[NodeId], depth: dict[NodeId, int]
) -> SchemaError | None:
    path = f"ranks.{key}"
    if type(rank_map) is not dict:
        return SchemaError(path, "each rank family entry must be an object")
    for x, value in rank_map.items():
        if x not in known:
            return SchemaError(path, f"references unknown id {x!r}")
        if type(value) is not int:
            return SchemaError(path, f"rank of {x!r} must be an integer")
    off = sorted(rank_map.keys() ^ {x for x in known if depth[x] < i})[:1]
    domain = f"domain must be exactly the nodes of depth < {i}"
    return SchemaError(path, f"{domain} ({off[0]!r} is off)") if off else None


def _formula_fault(name: str, body: Any) -> SchemaError | None:
    path = f"formulas.{name}"
    return None if type(body) is str else SchemaError(path, "formula bodies must be strings")


# -- reading -----------------------------------------------------------------
#
# A document is read as UTF-8 bytes, by one of two paths. ``_proven``
# makes one pass over the bytes: it decodes the top-level object one
# member at a time, each from a bounded slice of the bytes, and keeps
# each section only as long as it must; it returns a document only when
# it has shown the bytes valid. Where the document has deficiency
# nodes, it first tries to show the ``edges`` bytes by rendering them
# from their ``members`` (``_claimed``), and decodes the edges in place
# only when that fails. Anything the pass cannot show (invalid UTF-8 or
# JSON, a guessed end that does not hold, an edge end that names no
# node) goes to ``_walked``, which parses the whole input with
# ``json.loads`` and puts the parsed object through the same bulk
# checks; a failed check names its first offending entry, as an
# item-by-item walk would.

_scan_value = json.JSONDecoder().scan_once
# About how many bytes of ``nodes`` are decoded at a time.
_NODES_SLICE = 1 << 16
# About how many bytes of ``ranks`` are decoded at a time. The scanner
# shares a key's string only within one scan, so each slice holds its
# own copy of every node id it keys: slices this large keep to a few
# copies of each id where the rank maps are long.
_RANKS_SLICE = 1 << 21
# How many ids go into one piece of a rendered run.
_JOIN = 1 << 12
# JSON's whitespace, as ``json.decoder.WHITESPACE`` matches it in text.
_skip_space = re.compile(rb"[ \t\n\r]*").match
# A JSON string, from its opening quote to its closing one.
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"')
# The sections a document can have, in the order ``serialize`` writes
# them; a key that names one is where the bytes that a value before it
# fills are first guessed to end.
_SECTIONS = ("depth", "edges", "format_version", "formulas", "levels", "nodes", "ranks")
_SECTION_KEY = re.compile(b'"(?:%b)"' % "|".join(_SECTIONS).encode())
_first, _second = itemgetter(0), itemgetter(1)


class _Unproven(Exception):
    """``_proven`` cannot show the document valid; ``_walked`` decides."""


# What ``_proven`` returns once the bytes are shown valid: the
# document's build, which needs no more of them.
_Build = Callable[[], AnnotatedGraph]


# What :func:`_grouped` makes of the edges.
_Groups = tuple[dict[NodeId, list[NodeId]], dict[NodeId, NodeId]]


def _ascending(flat: list[NodeId], sizes: list[int]) -> bool:
    """Whether each of the consecutive lists of ``sizes`` ids that make
    up ``flat`` is strictly sorted: ``flat`` only descends, or repeats
    an id, where a list starts."""
    starts = set(accumulate(sizes))
    return starts.issuperset(compress(count(1), map(ge, flat, islice(flat, 1, None))))


def _grouped(edges: Any) -> _Groups:
    """The members of each container, in edge order, and the distinct
    members, each a single string object that every list shares.

    The ends are not yet known to be ids (``nodes`` comes later): an
    end that cannot be hashed is not proven.
    """
    if not (type(edges) is list and _all_of(edges, list) and set(map(len, edges)) <= {2}):
        raise _Unproven
    groups: defaultdict[NodeId, list[NodeId]] = defaultdict(list)
    canon: dict[NodeId, NodeId] = {}
    members = map(canon.setdefault, map(_first, edges), map(_first, edges))
    try:
        deque(map(list.append, map(groups.__getitem__, map(_second, edges)), members), maxlen=0)
    except TypeError:
        raise _Unproven from None
    return groups, canon


def _scan(piece: memoryview, opening: str = "", closing: str = "") -> tuple[Any, int]:
    """The value at the start of ``piece``, decoded strictly as UTF-8
    and set between ``opening`` and ``closing``, as the scanner that
    ``json.loads`` uses builds it, and how many bytes of the piece and
    ``closing`` follow it. Bytes that are not UTF-8, or that do not start
    with a JSON value, raise ``_Unproven``: this is the reader's one call
    of the scanner, so that no scan failure leaves it, even from a
    generator, where ``StopIteration`` would become ``RuntimeError``."""
    try:
        text = f"{opening}{str(piece, 'utf-8')}{closing}"
        value, end = _scan_value(text, 0)
    except (StopIteration, ValueError, RecursionError):
        raise _Unproven from None
    return value, len(text) - end if text.isascii() else len(text[end:].encode())


def _key(data: bytes, at: int) -> tuple[str, int]:
    """The key that starts at ``at``, decoded by :func:`_scan`, and the
    index past it."""
    string = _STRING.match(data, at)
    if string is None:
        raise _Unproven
    return _scan(memoryview(data)[at : string.end()])[0], string.end()


def _value(data: bytes, at: int, key: str) -> tuple[Any, int]:
    """The value of ``key`` that starts at ``at``, as the scanner
    decodes it, and the index past it.

    It is decoded from a window of the bytes, first up to the next key
    that names a section, where a document ``serialize`` writes ends
    it; the last section it writes runs to the end, so its window is the
    rest of the bytes at once. A window that does not hold the whole
    value fails to scan; the next one reaches at least twice as far, and
    the last is the rest of the bytes, where a failure is the value's
    own. A value that scans in a window is the one the whole input
    holds: where the scanner stopped only for the end of the window, the
    next key's quote ends it there too; and where it stopped before that
    end, it stopped on a byte that the whole input has too.
    """
    stop = len(data) if key == _SECTIONS[-1] else at
    while True:
        found = stop < len(data) and _SECTION_KEY.search(data, 2 * stop - at + 1)
        stop = found.start() if found else len(data)
        try:
            value, rest = _scan(memoryview(data)[at:stop])
        except _Unproven:
            if not found:
                raise
            continue
        return value, stop - rest


def _find(data: bytes, needle: bytes, at: int) -> int:
    """``data.find(needle, at)``, where a guessed end is sought; raises
    ``_Unproven`` where ``needle`` is not there. A pattern search takes
    a third to a half of the time of ``bytes.find`` over the bytes of
    ``edges``, ``nodes`` and ``ranks``, which hold ``needle``'s first
    byte every few dozen bytes."""
    found = re.compile(re.escape(needle)).search(data, at)
    if found is None:
        raise _Unproven
    return found.start()


def _sections(data: bytes) -> tuple[dict[str, Any], Any]:
    """The top-level members of ``data`` but ``edges``, each read by
    :func:`_section`, and ``edges``.

    An ``edges`` value that starts as ``serialize`` writes one (``[[``
    or ``[]``) is not decoded: its place in the bytes comes back as a
    ``slice``, which ends at the first ``]]`` after its start. That end
    is a guess, which :func:`_claimed` must confirm; a repeated
    ``edges`` key is not guessed at. Any other ``edges`` value comes
    back as :func:`_grouped` groups it on arrival, before the next
    member is decoded.

    Keys and values go through :func:`_scan`, with the same whitespace
    between them as ``json.loads`` allows, so every value is the one
    ``json.loads`` would build from the decoded text; a repeated key
    keeps its last value, as there. Each is decoded strictly as UTF-8
    from the bytes it fills (:func:`_key`, :func:`_value`); the bytes
    between them must be JSON's whitespace and punctuation. Raises
    ``_Unproven`` for anything but one object that fills the bytes and
    has ``edges``, and for a ``depth`` that comes after ranks
    :func:`_ranked` checked against the one before.
    """
    sections: dict[str, Any] = {}
    edges = None
    at = _skip_space(data).end()
    if data[at : at + 1] != b"{":
        raise _Unproven
    at = _skip_space(data, at + 1).end()
    while True:
        key, at = _key(data, at)
        at = _skip_space(data, at).end()
        if data[at : at + 1] != b":":
            raise _Unproven
        at = _skip_space(data, at + 1).end()
        if key == "depth" and type(sections.get("ranks")) is _Ranks:
            raise _Unproven  # the ranks were shown against the depth this replaces
        if key != "edges":
            sections[key], at = _section(data, at, key, sections.get("depth"))
        elif type(edges) is slice:
            raise _Unproven  # the last value wins; the guess would go unconfirmed
        elif data.startswith((b"[[", b"[]"), at):
            close = _find(data, b"]]", at) if data.startswith(b"[[", at) else at
            edges, at = slice(at, close + 2), close + 2
        else:
            value, at = _value(data, at, key)
            edges = _grouped(value)
            del value  # freed before the next value is decoded
        at = _skip_space(data, at).end()
        if data[at : at + 1] != b",":
            break
        at = _skip_space(data, at + 1).end()
    if data[at : at + 1] != b"}" or _skip_space(data, at + 1).end() != len(data) or edges is None:
        raise _Unproven
    return sections, edges


def _section(data: bytes, at: int, key: str, depth: Any) -> tuple[Any, int]:
    """The value of ``key`` at ``at`` and the index past it: ``nodes``
    and ``ranks`` that start as ``serialize`` writes them (``[{`` and
    ``{"``) are read in slices by :func:`_sliced` and :func:`_ranked`
    (which checks the ranks against ``depth``, the ``depth`` value read
    before them, if any), and decoded whole in place by :func:`_value`
    where the slices cannot show them (a decoded value of a type they do
    not expect may raise ``TypeError`` there); any other value is
    decoded by :func:`_value`."""
    try:
        if key == "nodes" and data.startswith(b"[{", at):
            return _sliced(data, at)
        if key == "ranks" and data.startswith(b'{"', at):
            return _ranked(data, at, depth)
    except (_Unproven, TypeError):
        pass
    return _value(data, at, key)


def _slices(data: bytes, at: int, close: int, cut: bytes, size: int) -> Iterator[Any]:
    """The array or object whose brackets are at ``at`` and ``close``,
    decoded in slices of about ``size`` bytes.

    Each slice is cut at the comma in a ``cut`` (where one member ends
    and the next starts; a cut never splits a character) and decoded by
    :func:`_scan` as an array or object of its own, in the brackets of
    the whole; it is accepted only if it scans to exactly its own end,
    so the slices together hold exactly the members of the whole value,
    whatever the cuts fell into. Anything else raises ``_Unproven``.
    """
    view, comma = memoryview(data), cut.index(b",")
    opening, closing = chr(data[at]), chr(data[close])
    start = at + 1
    while True:
        found = data.find(cut, start + size, close)
        stop = close if found < 0 else found + comma
        value, rest = _scan(view[start:stop], opening, closing)
        if rest:
            raise _Unproven
        yield value
        if found < 0:
            return
        start = stop + 1


def _sliced(data: bytes, at: int) -> tuple[_Nodes, int]:
    """The ``nodes`` array at ``at`` read into columns about
    ``_NODES_SLICE`` bytes at a time (:func:`_slices`, cut before a
    ``,{"id":``), and the index past its end. The array is guessed to
    end at its first ``}}]``, where every array ``serialize`` writes
    ends."""
    close = _find(data, b"}}]", at)
    nodes = _Nodes()
    for value in _slices(data, at, close + 2, b',{"id":', _NODES_SLICE):
        if not nodes.add(value):
            raise _Unproven
    if not nodes.distinct():
        raise _Unproven
    return nodes, close + 3


class _Ranks(NamedTuple):
    """A ``ranks`` object that :func:`_ranked` showed to be the families
    1..``top`` of one rank map: ``rank``, the top family."""

    rank: dict[NodeId, int]
    top: int


def _ranked(data: bytes, at: int, depth: Any) -> tuple[_Ranks, int]:
    """The ``ranks`` object at ``at`` decoded about ``_RANKS_SLICE``
    bytes at a time (:func:`_slices`, cut between two rank maps, after a
    ``}`` and before a ``,"``), and the index past its end. The object
    is guessed to end at its first ``}}``, where every ``ranks`` that
    ``serialize`` writes ends: its rank maps hold only integers.

    Each family is checked as it arrives and dropped, so that only the
    largest one read so far is kept: its key must be new and name a
    family ``i``, its values be integers, its keys be exactly the keys
    of ``depth`` whose depth is below ``i``, and its entries be the
    larger one's, or hold them. Families so nested are each the largest
    one restricted, so the keys 1..I make them the families of its rank
    map. What these checks cannot show raises ``_Unproven``: the object
    is then decoded whole, and :func:`_annotated` names its fault once
    ``depth`` is shown to be the node set's."""
    close = _find(data, b"}}", at)
    if type(depth) is not dict:
        raise _Unproven
    known, sorted_depths = frozenset(depth), sorted(depth.values())
    seen: set[int] = set()
    rank: dict[NodeId, int] = {}
    top = 0
    for value in _slices(data, at, close + 1, b'},"', _RANKS_SLICE):
        for key, family in value.items():
            try:
                i = _rank_key(key)
            except SchemaError:
                raise _Unproven from None
            if i in seen or not _family_shown(i, family, known, depth, sorted_depths):
                raise _Unproven
            seen.add(i)
            smaller, larger = (rank, family) if i > top else (family, rank)
            if not smaller.items() <= larger.items():
                raise _Unproven
            if i > top:
                rank, top = family, i
        del value  # freed before the next slice is decoded
    if len(seen) != top:
        raise _Unproven
    return _Ranks(rank, top), close + 2


def _nodes(raw: dict) -> _Nodes:
    """The checked ``format_version``, then the ``nodes`` entries as
    columns: as :func:`_sliced` read them, or read from the decoded
    list, which the namers walk where a bulk check fails."""
    version = _want(raw, "format_version", int)
    if version != FORMAT_VERSION:
        raise SchemaError("format_version", f"unsupported version {version}")
    if type(raw.get("nodes")) is _Nodes:
        return raw["nodes"]
    nodes_raw = _want(raw, "nodes", list)
    nodes = _Nodes()
    if not (nodes.add(nodes_raw) and nodes.distinct()):
        seen: set[NodeId] = set()
        for i, item in enumerate(nodes_raw):
            _raise_first([_id_fault(i, item, seen)])
            seen.add(item["id"])
        _raise_first(map(_provenance_fault, count(), _fields(nodes_raw, "provenance")))
    return nodes


def _scanned(data: bytes, span: slice) -> Any:
    """The JSON value at ``span``, once :func:`_scan` ends it where the
    guess did; raises ``_Unproven`` until then."""
    value, rest = _scan(memoryview(data)[span])
    if rest:
        raise _Unproven
    return value


def _matched(data: bytes, at: int, pieces: Iterable[bytes]) -> int:
    """The index past ``pieces``, found in ``data`` one after the other
    from ``at``; raises ``_Unproven`` where one is not there."""
    for piece in pieces:
        if not data.startswith(piece, at):
            raise _Unproven
        at += len(piece)
    return at


def _joined(items: list[bytes], sep: bytes) -> Iterator[bytes]:
    """``sep.join(items)`` in pieces of up to ``_JOIN`` items, so that
    the join is never made whole. A run joined whole reads the 58 MB
    completion ``seed vN 3 | complete --levels 2`` no faster (0.34 s
    either way) but raises its peak from 151.4 to 154.0 MB, and the
    bench grow workload's ``peak_rss_mb`` from 107.2-109.8 to
    110.5-111.1 MB (3 runs each; 2-vCPU x86-64 VM, Python 3.11.7)."""
    for i in range(0, len(items), _JOIN):
        yield (sep if i else b"") + sep.join(items[i : i + _JOIN])


def _claimed(data: bytes, sections: dict, span: slice) -> _Build:
    """The build of the document whose ``edges`` bytes are at ``span``:
    its extensions are read from the deficiency nodes' ``members`` where
    :func:`_found` proves the edges from them, and otherwise from the
    edges decoded in place, as :func:`_compared` checks them. Raises
    ``_Unproven``, never ``SchemaError``, until the edges are JSON."""
    try:
        nodes = _nodes(sections)
    except SchemaError as e:
        # The frames of the failed check hold what it read: neither they
        # nor the sections are kept while the edges are decoded.
        error = e.with_traceback(None)
    else:
        # Decoded, each level repeats ids the nodes hold already: each
        # becomes the node's own string object (an unknown id stays, for
        # ``_level_fault`` to name), so the copies are freed before
        # ``_found`` builds its runs.
        levels = sections.get("levels")
        if (
            type(levels) is list
            and _all_of(levels, list)
            and _all_of(chain.from_iterable(levels), str)
        ):
            canon = nodes.canon.get
            for level in levels:
                level[:] = map(canon, level, level)
        try:
            found = _found(data, nodes, span)
        except _Unproven:
            found = None  # let go of the failed proof's frames, which hold every id
        if found is not None:
            nodes.canon.clear()
            return partial(_from_members, sections, nodes, found)
        try:
            return _compared(sections, _grouped(_scanned(data, span)), nodes)
        except _Unproven:
            pass
        # Where the edges are JSON, their first fault is named from
        # them, not from the whole document parsed again.
        _name_edges({"edges": _scanned(data, span)}, nodes)
        raise _Unproven
    # Shown to be JSON, not grouped: whatever their shape, the error
    # stands.
    sections.clear()
    _scanned(data, span)
    raise error


def _found(data: bytes, nodes: _Nodes, span: slice) -> dict[int, list[NodeId]]:
    """The members of each node that lists none, by index, once the
    ``edges`` bytes at ``span`` are shown to be exactly what
    ``serialize`` writes for ``nodes``; raises ``_Unproven`` until then.
    Each run of edges from one member is rendered, in bytes, from the
    deficiency nodes that list it and compared with the document. A node
    without a ``members`` list can only be tested: it is looked for at
    its sorted place in every run, so the runs times those nodes must
    stay within the node count."""
    ids, mask, members, sizes = nodes.ids, nodes.deficient, nodes.members, nodes.sizes
    if not any(mask):  # nothing claims the edges
        raise _Unproven
    # Strictly sorted ids, no member but an id (``canon`` holds both)
    # and strictly sorted members.
    if not (
        all(map(lt, ids, islice(ids, 1, None)))
        and len(nodes.canon) == len(ids)
        and _ascending(members, sizes)
    ):
        raise _Unproven
    # The deficiency containers of each member, as indices into ``ids``,
    # in id order.
    runs: defaultdict[NodeId, list[int]] = defaultdict(list)
    containers = chain.from_iterable(map(repeat, compress(count(), mask), sizes))
    deque(map(list.append, map(runs.__getitem__, members), containers), maxlen=0)
    others = list(compress(count(), map(not_, mask)))
    if len(runs) * len(others) > len(ids):
        raise _Unproven
    quoted = list(map(str.encode, map(encode_basestring_ascii, ids)))
    found: defaultdict[int, list[NodeId]] = defaultdict(list)
    at, gap = span.start + 1, b""
    for member in sorted(runs):
        into = runs[member]
        head, done = b"[%b," % encode_basestring_ascii(member).encode(), 0
        between = b"]," + head
        # ``len(ids)`` sorts after every container: it ends the run.
        for other in [*others, len(ids)]:
            place = bisect_left(into, other, done)
            if place > done:
                run = list(map(quoted.__getitem__, into[done:place]))
                at = _matched(data, at, chain([gap + head], _joined(run, between), [b"]"]))
                gap, done = b",", place
            if other < len(ids):
                # The container is compared first and nothing is copied,
                # so a miss costs no pass over a long member id.
                c = quoted[other]
                end = at + len(gap) + len(head) + len(c)
                if (
                    data.startswith(c, end - len(c))
                    and data.startswith(b"]", end)
                    and data.startswith(gap, at)
                    and data.startswith(head, at + len(gap))
                ):
                    at, gap = end + 1, b","
                    found[other].append(member)
    if not (data.startswith(b"]", at) and at + 1 == span.stop):
        raise _Unproven
    return found


def _from_members(
    sections: dict, nodes: _Nodes, found: dict[int, list[NodeId]]
) -> AnnotatedGraph:
    """The document :func:`_claimed` proved: each deficiency node's
    extension its ``members``, and each other node's the members
    ``found`` in the edges (keyed by its index). Its ids were proven in
    sorted order, which the graph keeps as its ``sorted_nodes``."""
    ids, mask = nodes.ids, nodes.deficient
    extensions = dict.fromkeys(ids, frozenset())
    lists = map(islice, repeat(iter(nodes.members)), nodes.sizes)
    extensions.update(zip(compress(ids, mask), map(frozenset, lists)))
    extensions.update((ids[x], frozenset(ms)) for x, ms in found.items())
    graph = ExtensionalDigraph(extensions, nodes.provenance)
    graph.__dict__["_sorted"] = ids
    return _annotated(sections, graph, nodes.stamped)


def _compared(sections: dict, edges: _Groups, nodes: _Nodes) -> _Build:
    """The build of the document, its extensions the edges as
    :func:`_grouped` grouped them, once their ends are ids (or
    ``_Unproven``) and the deficiency members agree (or ``SchemaError``)."""
    ids, mask, members, sizes = nodes.ids, nodes.deficient, nodes.members, nodes.sizes
    groups, canon = edges
    known = frozenset(ids)
    if not (known.issuperset(groups) and known.issuperset(canon)):
        raise _Unproven
    # A deficiency node's members are written from its extension, so a
    # document whose two copies disagree did not come from ``serialize``.
    # Where they are equal and strictly sorted, sorting changes nothing.
    claimed = list(map(list, map(islice, repeat(iter(members)), sizes)))
    lists = list(map(groups.get, compress(ids, mask), repeat([])))
    if not (
        claimed == lists
        and _ascending(members, sizes)
        or claimed == [sorted(set(ms)) for ms in lists]
    ):
        _raise_first(map(_members_fault, compress(count(), mask), claimed, lists))
    return partial(_from_groups, sections, nodes, groups)


def _from_groups(
    sections: dict, nodes: _Nodes, groups: dict[NodeId, list[NodeId]]
) -> AnnotatedGraph:
    """The document :func:`_compared` proved, each extension its group
    of edges. Each member becomes its id's one string object, as on the
    rendered path, not the edge end's."""
    image = nodes.canon.__getitem__
    extensions = {x: frozenset(map(image, groups.pop(x, ()))) for x in nodes.ids}
    return _annotated(sections, ExtensionalDigraph(extensions, nodes.provenance), nodes.stamped)


def _proven(data: bytes) -> _Build:
    """The build of the document, read section by section in one pass;
    raises ``_Unproven`` when the pass cannot show it valid, and
    ``SchemaError`` only once all of ``data`` is known to be UTF-8 and
    JSON and every section before the offending one valid. The build
    holds no reference to ``data``, and raises nothing but
    ``SchemaError``."""
    sections, edges = _sections(data)
    if type(edges) is slice:
        return _claimed(data, sections, edges)
    return _compared(sections, edges, _nodes(sections))


def _walked(data: bytes, errors: str) -> AnnotatedGraph:
    """The document, decoded with ``errors``, parsed by ``json.loads``
    and read by the checks that read ``_proven``'s sections."""
    try:
        raw = json.loads(data.decode("utf-8", errors))
    except UnicodeDecodeError as e:
        raise SchemaError("$", f"invalid UTF-8 at byte {e.start}: {e.reason}") from e
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
    nodes = _nodes(raw)
    try:
        build = _compared(raw, _grouped(raw.get("edges")), nodes)
    except _Unproven:
        _name_edges(raw, nodes)
        raise
    return build()


def _name_edges(raw: dict, nodes: _Nodes) -> None:
    """Raises the first fault of ``raw``'s edges."""
    edges = _want(raw, "edges", list)
    _raise_first(map(_edge_fault, count(), edges, repeat(frozenset(nodes.ids))))


def _annotated(raw: dict, graph: ExtensionalDigraph, stamped: Counter[int]) -> AnnotatedGraph:
    """``graph`` with the optional blocks of ``raw``, each checked in
    bulk, and its first offending entry named where that fails;
    ``stamped`` counts the nodes of each deficiency level."""
    known = graph.nodes
    levels: tuple[frozenset[NodeId], ...] | None = None
    if "levels" in raw:
        collected = _levels(_want(raw, "levels", list), known)
        if not collected:
            raise SchemaError("levels", "levels block must not be empty")
        if collected[-1] != known:
            raise SchemaError("levels", "top level must contain every node")
        # The graph's own node set, which AnnotatedGraph need not compare.
        levels = (*collected[:-1], known)
        if not _stamps_shown(levels, graph.provenance, stamped):
            stamps = graph.provenance
            _raise_first(map(_stamp_fault, count(), stamps, stamps.values(), repeat(levels)))

    depth: dict[NodeId, int] | None = None
    if "depth" in raw:
        depth = _want(raw, "depth", dict)
        values = depth.values()
        if not (
            known.issuperset(depth) and _all_of(values, int) and min(values, default=0) >= 0
        ):
            _raise_first(map(_depth_fault, depth, values, repeat(known)))
        if len(depth) != len(known):
            missing = sorted(known - depth.keys())[0]
            raise SchemaError("depth", f"missing depth for {missing!r}")

    rank: dict[NodeId, int] | None = None
    top: int | None = None
    if "ranks" in raw:
        if depth is None:
            raise SchemaError("ranks", "ranks need a depth block to fix their domains")
        if type(raw["ranks"]) is _Ranks:
            rank, top = raw["ranks"]
        else:
            rank, top = _families_read(_want(raw, "ranks", dict), known, depth)

    formulas: dict[str, str] = {}
    if "formulas" in raw:
        formulas = _want(raw, "formulas", dict)
        if not _all_of(formulas.values(), str):
            _raise_first(map(_formula_fault, formulas, formulas.values()))

    return AnnotatedGraph(graph, levels, depth, rank, top, formulas)


def _families_read(
    ranks_raw: dict, known: frozenset[NodeId], depth: dict[NodeId, int]
) -> tuple[dict[NodeId, int], int]:
    """The rank map and the top family index of the decoded ``ranks``
    object ``ranks_raw``, once its families are shown to be 1..I, each
    on the nodes of depth below its index and each the top one
    restricted; the first fault is named otherwise."""
    sorted_depths = sorted(depth.values())
    families = {}
    for key, rank_map in ranks_raw.items():
        i = _rank_key(key)
        if not _family_shown(i, rank_map, known, depth, sorted_depths):
            _raise_first([_rank_fault(key, i, rank_map, known, depth)])
        families[i] = rank_map
    # One rank map: families 1..I, each the top one restricted.
    top = len(families)
    past = min((i for i in families if i > top), default=0)
    if past:
        missing = min(set(range(1, top + 1)) - families.keys())
        raise SchemaError(f"ranks.{past}", f"rank families must be 1..I; {missing} is missing")
    rank = families.get(top, {})
    for i in range(1, top):
        if not families[i].items() <= rank.items():
            x = min(x for x, r in families[i].items() if rank[x] != r)
            off = f"family {i} is not family {top} restricted to depth < {i} ({x!r} is off)"
            raise SchemaError(f"ranks.{i}", off)
    return rank, top


def deserialize(text: str | bytes) -> AnnotatedGraph:
    """Parse and validate one document, given as UTF-8 bytes or as the
    text they decode to. See the module docstring for the shape;
    violations name the field path.

    Bytes are read as they are: only bounded slices are decoded, and
    bytes that are not UTF-8 are refused at ``$`` with their offset. A
    ``str`` is encoded once on entry and the encoded copy read; the
    encoding passes lone surrogates through, so that a document the
    proof cannot show is parsed as exactly that text. The sections are
    decoded one at a time and checked in bulk; the edges are grouped by
    container as soon as they are decoded, before the nodes. Only a
    document that these checks cannot show valid is parsed whole, to
    name the first offending field; a fault in edges that start as
    ``serialize`` writes them is named from those edges alone.
    A document shown valid is built only after the input is dropped
    here, so a caller that passes it as a temporary (on Python 3.11+,
    where a call moves its arguments into the callee) never holds the
    input and the graph together.
    """
    with _gc_paused():
        errors = "surrogatepass" if isinstance(text, str) else "strict"
        data = text.encode("utf-8", errors) if isinstance(text, str) else text
        del text
        try:
            build = _proven(data)
        except _Unproven:
            build = None  # parse it whole once the failed pass's frames are gone
        if build is None:
            return _walked(data, errors)
        del data
        return build()
