"""On-disk document format: canonical serialization and schema checks."""

import copy
import gc
import json
import pathlib
import random
import re
import sys
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from setforge import (
    AnnotatedGraph,
    AtomDecl,
    Code,
    CodeSpec,
    Deficiency,
    ExtensionalDigraph,
    SchemaError,
    Seed,
    TupleDecl,
    assemble,
    complete,
    deserialize,
    dred_complete,
    dred_from_graph,
    quine_atoms,
    serialize,
    verify_dred,
    von_neumann_seed,
    witness_report,
)
from setforge import document
from helpers import random_extensional_graph, reference_deserialize, reference_serialize

GOLDEN_EMPTY = '{"edges":[],"format_version":1,"nodes":[]}'


def test_empty_document_golden_line():
    doc = AnnotatedGraph(ExtensionalDigraph.empty())
    assert serialize(doc) == GOLDEN_EMPTY
    assert deserialize(GOLDEN_EMPTY) == doc


def test_serialize_is_canonical():
    g = von_neumann_seed(3)
    line = serialize(AnnotatedGraph(g))
    assert serialize(deserialize(line)) == line
    assert "\n" not in line


def test_serialize_names_the_depth_block_a_rank_map_needs():
    """The rank families are cut by depth, so a record with a rank map
    and no depth map is refused before anything is written."""
    doc = AnnotatedGraph(ExtensionalDigraph.from_extensions({"a": []}), rank={"a": 0}, top=1)
    with pytest.raises(SchemaError, match="^depth: document has no depth block$"):
        serialize(doc)


def test_graph_round_trip():
    doc = AnnotatedGraph(von_neumann_seed(3))
    assert deserialize(serialize(doc)) == doc


def test_universe_round_trip():
    u = complete(ExtensionalDigraph.empty(), 3)
    back = deserialize(serialize(u))
    assert back == u
    assert back.levels == u.levels


def test_dred_round_trip():
    h = dred_from_graph(von_neumann_seed(3))
    back = deserialize(serialize(h))
    assert back.depth == h.depth
    assert (back.rank, back.top) == (h.rank, h.top)
    assert back.graph == h.graph


def test_dred_universe_round_trip():
    h = dred_from_graph(ExtensionalDigraph.empty())
    du = dred_complete(h, 3)
    back = deserialize(serialize(du))
    assert back == du
    assert back.levels == du.levels


def test_read_top_level_is_the_graph_node_set():
    doc = deserialize(serialize(complete(von_neumann_seed(2), 2)))
    assert doc.levels[-1] is doc.graph.nodes


def test_formulas_round_trip():
    doc = AnnotatedGraph(
        graph=von_neumann_seed(2),
        formulas={"quine": "exists b. (b in b)", "refl": "x = x"},
    )
    back = deserialize(serialize(doc))
    assert back.formulas == doc.formulas


def test_provenance_round_trip():
    g = complete(von_neumann_seed(2), 1).graph
    back = deserialize(serialize(AnnotatedGraph(g))).graph
    assert back.provenance == g.provenance
    kinds = {type(p) for p in back.provenance.values()}
    assert kinds == {Seed, Deficiency}


def test_missing_blocks_raise():
    doc = AnnotatedGraph(von_neumann_seed(2))
    with pytest.raises(SchemaError):
        witness_report(doc)
    with pytest.raises(SchemaError):
        verify_dred(doc)


def shuffled(rng: random.Random, mapping: dict) -> dict:
    """The same mapping, inserted in a random order."""
    return dict(rng.sample(list(mapping.items()), len(mapping)))


def random_document(rng: random.Random) -> AnnotatedGraph:
    """A valid document with every optional block: mixed provenance,
    cumulative levels, each deficiency node stamped with the index of
    the first level that holds it, depths up to 12, a rank map with at
    least 11 rank families (so "10" sorts before "2") and formulas;
    every dict is built in a random insertion order."""
    g = random_extensional_graph(rng, 6, min_nodes=1)
    provenance = {}
    for x, ext in g.extensions.items():
        roll = rng.randrange(3)
        if roll == 0:
            provenance[x] = Seed(f"séed-{rng.randrange(3)}")
        elif roll == 1:
            provenance[x] = Code(rng.choice(("loop", "chain")), f"d{rng.randrange(3)}")
        else:
            provenance[x] = Deficiency(level=rng.randint(1, 3))
    names = sorted(g.nodes)
    extensions, provenance = shuffled(rng, dict(g.extensions)), shuffled(rng, provenance)
    levels, current = [], set()
    for x in rng.sample(names, len(names)):
        current.add(x)
        if rng.random() < 0.5:
            levels.append(frozenset(current))
    levels.append(frozenset(names))
    # A stamp must be the index of the first level that holds its node:
    # the drawn stamp gives way to it, and a deficiency node drawn into
    # level 0 becomes a seed.
    for x, p in provenance.items():
        if isinstance(p, Deficiency):
            k = min(k for k, level in enumerate(levels) if x in level)
            provenance[x] = Deficiency(level=k) if k else Seed("séed-0")
    graph = ExtensionalDigraph.from_extensions(extensions, provenance)
    depth = {x: rng.randint(0, 12) for x in names}
    top = rng.randint(max(11, max(depth.values()) + 1), 14)
    rank = {x: rng.randint(-2, 20) for x in names}
    formulas = {
        name: rng.choice(("x = x", "exists b. (b in b)", "x in y"))
        for name in rng.sample(["b", "a10", "a2", "Z", "é", "mid"], rng.randint(0, 4))
    }
    return AnnotatedGraph(
        graph=graph,
        levels=tuple(levels),
        depth=shuffled(rng, depth),
        rank=shuffled(rng, rank),
        top=top,
        formulas=formulas,
    )


def perturbed(rng: random.Random, doc: AnnotatedGraph) -> AnnotatedGraph:
    """A copy with one random block changed, or an equal copy built in
    another insertion order."""
    roll = rng.randrange(6)
    depth, rank, top, formulas = dict(doc.depth), dict(doc.rank), doc.top, dict(doc.formulas)
    graph = doc.graph
    if roll == 0:
        x = rng.choice(sorted(rank))
        rank[x] += rng.choice((0, 1))
    elif roll == 1:
        formulas[rng.choice(["b", "a10", "new"])] = "x = x"
    elif roll == 2:
        # the top family dropped
        top -= 1
        rank = {x: r for x, r in rank.items() if depth[x] < top}
    elif roll == 3:
        x = rng.choice(sorted(graph.nodes))
        provenance = dict(graph.provenance)
        if not isinstance(provenance[x], Deficiency):
            provenance[x] = Seed("relabelled")
        graph = ExtensionalDigraph.from_extensions(graph.extensions, provenance)
    elif roll == 4:
        # The levels dropped: a document with levels must keep every
        # deficiency node in the level its stamp names.
        return AnnotatedGraph(graph=graph, depth=depth, rank=rank, top=top, formulas=formulas)
    return AnnotatedGraph(
        graph=ExtensionalDigraph.from_extensions(
            shuffled(rng, dict(graph.extensions)), shuffled(rng, dict(graph.provenance))
        ),
        levels=doc.levels,
        depth=shuffled(rng, depth),
        rank=shuffled(rng, rank),
        top=top,
        formulas=shuffled(rng, formulas),
    )


# Ids and labels that JSON escapes, with members chosen so that two
# pairs meet in edges and member lists. Each sorts one way raw and the
# other way quoted: "a" < "é" but "\u00e9" < "a"; '"' < "#" but "\"" > "#".
ESCAPED_EXTENSIONS = {
    '"': (),
    "#": ('"', "#"),
    "\\": ("a", "\u00e9"),
    "a": ("\u00e9", "\x00"),
    "\u00e9": ("a", '"', "#", "\\"),
    "\x00": ("\U0001f600",),
    "\n": ("\n",),
    "\x1f": ("tab\tend", "\u00e9"),
    "\U0001f600": ("a",),
    "tab\tend": ("#", "\x1f"),
}


def escaped_document() -> AnnotatedGraph:
    """A document whose ids, labels, details, depth and rank keys and
    formula names need JSON escapes, every map in a shuffled order."""
    rng = random.Random(3)
    names = list(ESCAPED_EXTENSIONS)
    deficient = ("\\", "\u00e9", "#", "tab\tend")
    provenance = {
        **{x: Deficiency(level=1) for x in deficient},
        **{x: Seed(label=x + '"') for x in ('"', "a", "\n")},
        **{x: Code("chain", "\\" + x) for x in ("\x00", "\x1f", "\U0001f600")},
    }
    graph = ExtensionalDigraph.from_extensions(
        shuffled(rng, ESCAPED_EXTENSIONS), shuffled(rng, provenance)
    )
    depth = shuffled(rng, {x: i % 3 for i, x in enumerate(names)})
    return AnnotatedGraph(
        graph=graph,
        levels=(frozenset(names) - frozenset(deficient), frozenset(names)),
        depth=depth,
        rank=shuffled(rng, {x: 7 for x in names}),
        top=3,
        formulas=shuffled(rng, {x: f"x = x {x}" for x in names}),
    )


def test_serialize_matches_reference_byte_for_byte():
    rng = random.Random(99)
    for _ in range(200):
        doc = random_document(rng)
        line = serialize(doc)
        assert line == reference_serialize(doc)
        assert serialize(deserialize(line)) == line
    for g in (ExtensionalDigraph.empty(), von_neumann_seed(3)):
        doc = AnnotatedGraph(g)
        assert serialize(doc) == reference_serialize(doc)
    assert json.dumps("\u00e9") < json.dumps("a") and json.dumps('"') > json.dumps("#")
    doc = escaped_document()
    line = serialize(doc)
    assert line == reference_serialize(doc)
    assert line.isascii()
    assert deserialize(line) == doc
    assert serialize(deserialize(line)) == line


def test_certified_maps_are_written_as_the_reference_writes_them():
    """Depth and rank maps whose keys are the nodes are written from the
    sorted node ids, whatever order they were filled in; a map that
    misses a node, holds a key that is no node or holds a value that is
    not an int is written in sorted key order, as ``json`` writes it."""
    rng = random.Random(37)
    filled = [
        dred_complete(_certified_seed(), 1),
        dred_complete(dred_from_graph(von_neumann_seed(2)), 2),
        dred_complete(dred_from_graph(von_neumann_seed(1)), 2),
    ]
    # as dred_complete fills them: the input's nodes, then each step's
    assert all(list(h.depth) != sorted(h.depth) for h in filled)
    records = filled + [escaped_document()]
    for h in list(records):
        x = rng.choice(sorted(h.graph.nodes))
        without = {y: v for y, v in h.rank.items() if y != x}
        records += [
            replace(h, depth=shuffled(rng, h.depth), rank=shuffled(rng, h.rank)),
            replace(h, depth={y: d for y, d in h.depth.items() if y != x}),
            replace(h, rank=without),
            replace(h, depth={**h.depth, "ghost": 0}, rank={**without, "\u00e9ghost": 3}),
            replace(h, depth={**h.depth, x: True}, rank={**h.rank, x: False}),
        ]
    for h in records:
        assert serialize(h) == reference_serialize(h)


# Ids that sort one way raw and the other way quoted, beside plain ones.
MIXED_IDS = ("a", "\u00e9", '"', "#", "b", "\x1f", "\u03a9", "z")


def test_member_lists_match_the_reference_on_random_graphs():
    """The writer lists members from the edge transpose; on random
    graphs, every member list and edge run is what the reference
    writes, in raw id order."""
    rng = random.Random(2401)
    seen = set()
    for _ in range(400):
        names = rng.sample(MIXED_IDS, rng.randint(1, len(MIXED_IDS)))
        extensions = {x: {y for y in names if rng.random() < 0.4} for x in names}
        provenance = {
            x: rng.choice((Seed(x), Code("loop", x), Deficiency(level=rng.randint(1, 3))))
            for x in names
        }
        graph = ExtensionalDigraph.from_extensions(extensions, provenance)
        doc = AnnotatedGraph(graph)
        assert serialize(doc) == reference_serialize(doc)
        contained = set().union(*extensions.values())
        deficient = {x for x, p in provenance.items() if isinstance(p, Deficiency)}
        seen.update(
            feature
            for x, ext in extensions.items()
            for feature, holds in (
                ("self-loop", x in ext),
                ("empty", not ext),
                ("uncontained", x not in contained),
                ("seed or code member", bool(ext - deficient) and x in deficient),
                ("raw and quoted orders differ", x in deficient and {"a", "\u00e9"} <= ext),
            )
            if holds
        )
    assert len(seen) == 5, seen


@pytest.mark.parametrize(
    "level, shift, fault",
    [
        (1, 1, "levels[2] and not in levels[1]"),
        (2, -1, "levels[1] and not in levels[0]"),
        (2, 1, "levels[3] and not in levels[2]"),
    ],
    ids=["inside the level below", "outside its level", "past the top level"],
)
def test_a_stamp_one_level_off_is_refused_at_its_node(level, shift, fault):
    """In a document with levels, a deficiency node's stamp is the
    index of the first level that holds it.  On a 2-level completion, a
    level-1 node stamped 2 lies inside ``levels[1]``, a level-2 node
    stamped 1 lies outside ``levels[1]``, and a level-2 node stamped 3
    names no level: each is refused at its node, as the reference
    refuses it, and the document without ``levels`` reads."""
    payload = json.loads(serialize(complete(von_neumann_seed(2), 2)))
    stamps = [node["provenance"].get("level") for node in payload["nodes"]]
    j = stamps.index(level)
    payload["nodes"][j]["provenance"]["level"] += shift
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    ours = outcome(deserialize, text)
    message = f"a node stamped deficiency level {level + shift} must be in {fault}"
    path = f"nodes[{j}].provenance"
    assert ours == ("raised", "SchemaError", path, f"{path}: {message}")
    assert ours == outcome(reference_deserialize, text)
    del payload["levels"]
    assert outcome(deserialize, json.dumps(payload))[0] == "ok"


@pytest.mark.parametrize("where", ["id", "label", "detail"])
def test_lone_surrogates_are_written_but_refused_on_reading(where):
    """``serialize`` escapes a lone surrogate as the reference does, but
    no UTF-8 text carries one and no subset node id hashes one, so
    ``deserialize`` refuses ids, labels and details that hold one, at
    the field, in the order the reference finds it."""
    lone = "\udc00"
    x = "x" + lone if where == "id" else "x"
    provenance = {
        x: Seed(label=lone if where == "label" else "s"),
        "a": Code("atom", lone if where == "detail" else "d"),
    }
    doc = AnnotatedGraph(ExtensionalDigraph.from_extensions({x: (), "a": (x,)}, provenance))
    line = serialize(doc)
    assert line == reference_serialize(doc) and line.isascii()
    ours = outcome(deserialize, line)
    assert ours == outcome(reference_deserialize, line)
    path = {
        "id": "nodes[1].id",
        "label": "nodes[1].provenance.label",
        "detail": "nodes[0].provenance.detail",
    }[where]
    assert ours[:3] == ("raised", "SchemaError", path), ours


def test_parsed_documents_are_equal_exactly_when_their_lines_are():
    rng = random.Random(7)
    outcomes = []
    for _ in range(300):
        doc = random_document(rng)
        other = perturbed(rng, doc)
        x, y = serialize(doc), serialize(other)
        same = x == y
        assert (deserialize(x) == deserialize(y)) == same
        outcomes.append(same)
    assert any(outcomes) and not all(outcomes)


# -- bulk validation against the item-by-item reference -----------------------


def valid_lines() -> list[str]:
    """Documents as ``serialize`` writes them: random ones with every
    block, a certified ``seed spec`` seed and its certified completion,
    and levelled completions like those ``diff`` compares."""
    rng = random.Random(2024)
    lines = [serialize(random_document(rng)) for _ in range(60)]
    lines.append(GOLDEN_EMPTY)
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", 2),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a",)),),
        code_style="chain",
        code_length=2,
    )
    certified = assemble(spec).dred
    lines.append(serialize(replace(certified, formulas={"s": "x in x"})))
    lines.append(serialize(dred_complete(certified, 1)))
    for g in (von_neumann_seed(2), quine_atoms(["p", "q"]), random_extensional_graph(rng, 4)):
        lines.append(serialize(complete(g, 2)))
    return lines


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the document with the insertion
    order of every map it holds, or the error's type, path and text."""
    try:
        doc = parse(text)
    except Exception as e:  # compared, not swallowed: both sides must agree
        return ("raised", type(e).__name__, getattr(e, "path", None), str(e))
    orders = (
        list(doc.graph.extensions),
        list(doc.graph.provenance),
        None if doc.depth is None else list(doc.depth),
        None if doc.rank is None else (doc.top, list(doc.rank)),
        list(doc.formulas),
    )
    return ("ok", doc, orders)


def test_valid_documents_parse_as_the_reference_parses_them():
    for line in valid_lines():
        ours = outcome(deserialize, line)
        assert ours[0] == "ok", ours
        assert ours == outcome(reference_deserialize, line)
        assert serialize(ours[1]) == line


def _ids(payload: dict) -> list[str]:
    nodes = [node for node in payload["nodes"] if isinstance(node, dict)]
    return [node["id"] for node in nodes if isinstance(node.get("id"), str)]


def _deficiency_entries(payload: dict) -> list[dict]:
    entries = [node["provenance"] for node in payload["nodes"]]
    return [entry for entry in entries if entry["kind"] == "deficiency"]


_FIELDS = {
    "format_version", "nodes", "edges", "levels", "depth", "ranks", "formulas",
    "id", "provenance", "kind", "label", "level", "members", "code_kind", "detail",
}


def _slots(tree) -> list[tuple]:
    """Every (container, key, shape) position in a JSON tree. The shape
    is the path with list indices, ids and other free keys read as "*"."""
    out = []
    stack = [(tree, ())]
    while stack:
        node, shape = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            here = shape + (key if key in _FIELDS else "*",)
            out.append((node, key, here))
            if isinstance(node[key], (dict, list)):
                stack.append((node[key], here))
    return out


def _pick(rng, slots) -> tuple:
    """A (container, key) slot. Its shape is drawn first, so a field
    that occurs once is hit as often as the thousands of edge ends."""
    shape = rng.choice(sorted({s for _, _, s in slots}, key=repr))
    return rng.choice([(c, k) for c, k, s in slots if s == shape])


_RETYPED = (None, True, False, 0, 1, -1, 2.5, "", "x", [], {}, ["x"], {"x": 1})


def _drop_field(rng, payload):
    container, key = _pick(rng, [slot for slot in _slots(payload) if isinstance(slot[0], dict)])
    del container[key]


def _retype_field(rng, payload):
    container, key = _pick(rng, _slots(payload))
    values = [*_RETYPED, rng.choice(_ids(payload) or ["x"])]
    container[key] = copy.deepcopy(rng.choice([v for v in values if v != container[key]]))


def _duplicate_entry(rng, payload):
    container, key = _pick(rng, [slot for slot in _slots(payload) if isinstance(slot[0], list)])
    container.insert(rng.randrange(len(container) + 1), copy.deepcopy(container[key]))


def _foreign_id(rng, payload):
    ids = set(_ids(payload))
    slots = _slots(payload)
    values = [(c, k, s) for c, k, s in slots if isinstance(c[k], str) and c[k] in ids]
    keys = [slot for slot in slots if isinstance(slot[0], dict) and slot[1] in ids]
    if not keys or rng.random() < 0.5:  # no depth or ranks: no id is a key
        container, key = _pick(rng, values)
        container[key] = "foreign"
    else:
        container, key = _pick(rng, keys)
        container["foreign"] = container.pop(key)


def _rename_key(rng, payload):
    container, key = _pick(rng, [slot for slot in _slots(payload) if isinstance(slot[0], dict)])
    names = ("foreign", "0", "01", "\u00b2", "", key + "x", rng.choice(_ids(payload) or ["x"]))
    container[rng.choice(names)] = container.pop(key)


def _unsort_edges(rng, payload):
    rng.shuffle(payload["edges"])


def _duplicate_edge(rng, payload):
    if payload["edges"]:
        edges = payload["edges"]
        edges.insert(rng.randrange(len(edges) + 1), list(rng.choice(edges)))


def _disagreeing_members(rng, payload):
    entries = _deficiency_entries(payload)
    if entries:
        members = rng.choice(entries)["members"]
        roll = rng.randrange(3)
        if roll == 0 and members:
            members.pop(rng.randrange(len(members)))
        elif roll == 1:
            members.insert(rng.randrange(len(members) + 1), rng.choice(_ids(payload)))
        else:
            members.reverse()


def _provenance_and_edge_fault(rng, payload):
    rng.choice(payload["nodes"])["provenance"]["kind"] = "mystery"
    if payload["edges"]:
        rng.choice(payload["edges"])[rng.randrange(2)] = "foreign"
    else:
        payload["edges"].append(["foreign", "foreign"])


def _moved_rank(rng, payload):
    """One entry of one rank family moved by one, where there is one."""
    families = [family for family in payload.get("ranks", {}).values() if family]
    if families:
        family = rng.choice(families)
        family[rng.choice(sorted(family))] += rng.choice((-1, 1))


MUTATIONS = (
    _drop_field,
    _retype_field,
    _duplicate_entry,
    _foreign_id,
    _rename_key,
    _unsort_edges,
    _duplicate_edge,
    _disagreeing_members,
    _provenance_and_edge_fault,
    _moved_rank,
)


def written(payload) -> list[str]:
    """``payload`` with ``json.dumps``'s spaced separators, and in the
    writer's layout, compact with sorted keys, where the reader can
    take a text that still looks written by ``serialize`` for it."""
    return [json.dumps(payload), json.dumps(payload, sort_keys=True, separators=(",", ":"))]


def test_mutated_documents_fail_as_the_reference_fails():
    rng = random.Random(31)
    lines = valid_lines()
    messages = set()
    accepted = 0
    for _ in range(2500):
        payload = json.loads(rng.choice(lines))
        for mutate in rng.sample(MUTATIONS, rng.choice((1, 1, 2))):
            try:
                mutate(rng, payload)
            except (LookupError, TypeError, AttributeError):
                pass  # the first mutation removed what the second acts on
        for text in written(payload):
            ours = outcome(deserialize, text)
            assert ours == outcome(reference_deserialize, text), text
            assert ours[0] == "ok" or ours[1] == "SchemaError", ours
            if ours[0] == "ok":
                # every document read writes one that reads back the same
                assert deserialize(serialize(ours[1])) == ours[1]
                accepted += 1
            else:
                messages.add(ours[3].split(": ", 1)[1].split("'")[0])
    # Both outcomes occur, and the mutations reach most of the checks.
    assert 0 < accepted < 5000
    assert len(messages) >= 20, sorted(messages)


# Inserted by a byte fault: JSON's structural bytes, a backslash, a
# digit, a space, a valid two-byte character and two bytes that are not
# UTF-8 where they stand.
_INSERTED = (*(bytes([b]) for b in b'{}[],:"\\0 '), "é".encode(), b"\xc3", b"\xff")


def _byte_fault(rng, data: bytes) -> bytes:
    """``data`` with one byte-level fault at a random offset: a byte
    inserted, a byte deleted, a short span duplicated, or the rest cut
    off."""
    at = rng.randrange(len(data))
    kind = rng.randrange(4)
    if kind == 0:
        return data[:at] + rng.choice(_INSERTED) + data[at:]
    if kind == 1:
        return data[:at] + data[at + 1 :]
    if kind == 2:
        return data[: at + rng.randint(1, 8)] + data[at:]
    return data[:at]


def test_byte_faults_read_as_the_reference_reads_them(monkeypatch):
    """One byte inserted, deleted or duplicated in a writer's output, or
    the output cut short, reads as the reference reads the text: the
    same document or the same error at the same path, and never another
    exception. Bytes that are not UTF-8 are refused at ``$``. The larger
    documents are read in many ``nodes`` and ``ranks`` slices, so that
    faults land inside a slice as well as at a cut."""
    rng = random.Random(41)
    chain_seed = CodeSpec(
        atoms=(AtomDecl("a", "chain", 300),),
        naturals_up_to=2,
        tuples=(TupleDecl(0, ("a",)),),
        code_style="chain",
        code_length=1,
    )
    several = [
        serialize(complete(quine_atoms([f"q{i}" for i in range(10)]), 1)),
        serialize(dred_complete(dred_from_graph(von_neumann_seed(2)), 2)),
        serialize(assemble(chain_seed).dred),
    ]
    kinds = set()
    for lines, size, cases in ((valid_lines(), None, 900), (several, 1 << 12, 100)):
        if size is not None:
            monkeypatch.setattr(document, "_NODES_SLICE", size)
            monkeypatch.setattr(document, "_RANKS_SLICE", size)
        for _ in range(cases):
            data = _byte_fault(rng, rng.choice(lines).encode())
            ours = outcome(deserialize, data)
            try:
                text = data.decode()
            except UnicodeDecodeError as e:
                message = f"$: invalid UTF-8 at byte {e.start}: {e.reason}"
                assert ours == ("raised", "SchemaError", "$", message), ours
                kinds.add("not UTF-8")
                continue
            assert ours == outcome(reference_deserialize, text), data
            kinds.add(ours[0] if ours[0] == "ok" else ours[1])
    assert kinds == {"ok", "SchemaError", "not UTF-8"}, kinds


def _provenance_fault_then_duplicate(rng, payload):
    """``nodes[0]`` gets an unknown provenance kind and a copy of a later
    entry goes in after that entry: every id is named before any
    provenance, so the duplicate is the first error."""
    nodes = payload["nodes"]
    nodes[0]["provenance"]["kind"] = "mystery"
    at = rng.randrange(1, len(nodes))
    nodes.insert(at + 1, copy.deepcopy(nodes[at]))
    return f"nodes[{at + 1}]: duplicate node id {nodes[at]['id']!r}"


@pytest.mark.parametrize(
    "mutate",
    [
        _provenance_and_edge_fault,
        _disagreeing_members,
        _duplicate_edge,
        _unsort_edges,
        _provenance_fault_then_duplicate,
    ],
)
def test_named_mutations_of_a_completion_match_the_reference(mutate):
    rng = random.Random(5)
    line = serialize(complete(von_neumann_seed(2), 2))
    for _ in range(20):
        payload = json.loads(line)
        message = mutate(rng, payload)
        for text in written(payload):
            ours = outcome(deserialize, text)
            assert ours == outcome(reference_deserialize, text)
            if message is not None:
                assert ours[3] == message, ours


@pytest.mark.parametrize("bad", ["foreign", 7, ["x"], None], ids=["unknown", "int", "list", "null"])
def test_first_bad_edge_end_a_container_fails_as_the_reference_fails(bad):
    """Members are checked in bulk and containers by the grouping's
    lookups; a bad container after valid edges, alone or before a bad
    member, is still named as the item-by-item walk names it."""
    line = serialize(complete(von_neumann_seed(2), 2))
    count = len(json.loads(line)["edges"])
    for at in (1, count // 2, count - 1):
        for member_after in (False, True):
            payload = json.loads(line)
            payload["edges"][at][1] = copy.deepcopy(bad)
            if member_after and at + 1 < count:
                payload["edges"][at + 1][0] = "foreign"
            text = json.dumps(payload)
            ours = outcome(deserialize, text)
            assert ours[:3] == ("raised", "SchemaError", f"edges[{at}]"), ours
            assert ours == outcome(reference_deserialize, text)


@pytest.mark.parametrize("end", [0, 1], ids=["member", "container"])
def test_an_unknown_edge_end_is_named_from_the_edges_alone(monkeypatch, end):
    """A completion whose last edge has an end that no node has is
    refused with the error the item-by-item walk gives, named from the
    edges already decoded: the document is not parsed whole again."""
    payload = json.loads(serialize(complete(von_neumann_seed(2), 2)))
    payload["edges"][-1][end] = "foreign"
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    expected = outcome(reference_deserialize, text)
    at = len(payload["edges"]) - 1
    message = f"edges[{at}]: references unknown id 'foreign'"
    assert expected == ("raised", "SchemaError", f"edges[{at}]", message)

    def refuse(*args, **kwargs):
        raise AssertionError("the document was parsed whole")

    monkeypatch.setattr(document.json, "loads", refuse)
    assert outcome(deserialize, text) == expected


def _renamed_container() -> str:
    payload = json.loads(serialize(complete(von_neumann_seed(2), 1)))
    payload["edges"][-1][1] = "foreign"
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _truncated() -> str:
    line = serialize(complete(von_neumann_seed(2), 1))
    return line[: len(line) * 4 // 5]


@pytest.mark.parametrize("make", [_renamed_container, _truncated], ids=["renamed", "truncated"])
def test_a_fallback_read_runs_after_the_attempt_it_replaces(monkeypatch, make):
    """``_compared`` and ``_walked`` take over a read that could not be
    proven. They run once the attempt's exception is handled, so its
    frames, and the bytes they hold, are not kept alive beside them."""
    text = make()
    expected = outcome(deserialize, text)
    handling = []
    for name in ("_compared", "_walked"):

        def recording(*args, original=getattr(document, name)):
            handling.append(sys.exc_info()[0])
            return original(*args)

        monkeypatch.setattr(document, name, recording)
    assert outcome(deserialize, text) == expected
    assert expected[:2] == ("raised", "SchemaError")
    assert handling and handling == [None] * len(handling)


def test_valid_documents_never_walk_item_by_item(monkeypatch):
    """No valid document reaches a namer, the per-entry function that
    names a fault once a bulk check has failed."""
    namers = ["_id_fault", "_provenance_fault", "_edge_fault", "_members_fault"]
    namers += ["_level_fault", "_depth_fault", "_rank_fault", "_formula_fault"]
    lines = valid_lines()
    expected = [reference_deserialize(line) for line in lines]

    def refuse(*args, **kwargs):
        raise AssertionError("a valid document reached a namer")

    for name in namers:
        monkeypatch.setattr(document, name, refuse)
    # Nor parsed whole: the sections are decoded one at a time.
    monkeypatch.setattr(document.json, "loads", refuse)
    assert [deserialize(line) for line in lines] == expected


def _guessed_end_traps() -> dict[str, str]:
    """Texts that look written by ``serialize`` but where the reader
    must not trust its guess or its render: the first ``]]`` after the
    start of ``edges`` is not where the block ends, the block goes on
    after the last run the members imply, or a member has no node."""
    line = serialize(complete(von_neumann_seed(2), 2))
    payload = json.loads(line)
    end = line.index(',"format_version":')
    block = line[len('{"edges":') : end]
    seed = min(node["id"] for node in payload["nodes"] if node["provenance"]["kind"] == "seed")
    last = max(node["id"] for node in payload["nodes"])
    assert payload["edges"][-1][0] < last
    bracketed = ExtensionalDigraph.from_extensions({"]]": (), "a]],": ("]]",), "b]]": ("a]],",)})
    unknown = json.loads(serialize(AnnotatedGraph(complete(von_neumann_seed(2), 2).graph)))
    member = unknown["edges"][-1][0]
    unknown["nodes"] = [node for node in unknown["nodes"] if node["id"] != member]
    return {
        # Not an array: decoded, though a ``]]`` follows in ``levels``.
        "edges true": written({**payload, "edges": True})[1],
        # Ids that hold ``]]``: the first one is inside an id.
        "bracketed ids": serialize(complete(bracketed, 1)),
        # The last ``edges`` wins, so the first one's end is never confirmed.
        "edges key repeated after": "{" + line[1:-1] + ',"edges":' + block + "}",
        "edges key repeated before": '{"edges":[' + block[1:] + "," + line[1:-1] + "}",
        "edges key repeated empty": "{" + line[1:-1] + ',"edges":[]}',
        "space after edges": line[:end] + " \n\t" + line[end:],
        # One more edge after the last run, into a seed node.
        "edge after the last run": f'{line[: end - 1]},["{last}","{seed}"]{line[end - 1 :]}',
        # A member id missing from ``nodes`` but consistent everywhere else.
        "member without a node": written(unknown)[1],
        # The first ``]]`` is inside ``levels``: the guessed end swallows
        # the ``levels`` key, though the scanner ends the edges before it.
        "edges end before the guess": (
            '{"format_version":1,"nodes":['
            '{"id":"a","provenance":{"kind":"seed","label":"a"}},'
            '{"id":"b","provenance":{"kind":"seed","label":"b"}}],'
            '"edges":[["a","b"] ],"levels":[["a","b"]]}'
        ),
    }


@pytest.mark.parametrize("name", sorted(_guessed_end_traps()))
def test_guessed_end_traps_parse_as_the_reference_parses_them(name):
    text = _guessed_end_traps()[name]
    ours = outcome(deserialize, text)
    assert ours == outcome(reference_deserialize, text)
    assert ours[0] == "ok" or ours[1] == "SchemaError", ours


def test_each_read_makes_one_pass_over_the_sections(monkeypatch):
    """A document the section-by-section pass cannot show valid is parsed
    whole at once, never passed over again: valid documents, the traps
    and the named mutations each start the pass once. A ``nodes`` or
    ``ranks`` value its slices cannot show is decoded in place, so the
    slice traps are never parsed whole."""
    calls = []

    def counted(name):
        original = getattr(document, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return call

    for name in ("_sections", "_walked"):
        monkeypatch.setattr(document, name, counted(name))
    shown = valid_lines() + list(_slice_traps().values())
    texts = list(_guessed_end_traps().values())
    line = serialize(complete(von_neumann_seed(2), 2))
    for mutate in (
        _provenance_and_edge_fault,
        _disagreeing_members,
        _duplicate_edge,
        _unsort_edges,
        _provenance_fault_then_duplicate,
    ):
        rng = random.Random(5)
        for _ in range(5):
            payload = json.loads(line)
            mutate(rng, payload)
            texts += written(payload)
    for text in shown + texts:
        calls.clear()
        outcome(deserialize, text)
        assert calls.count("_sections") == 1, text[:200]
        assert text not in shown or "_walked" not in calls, text[:200]


def _certified_seed() -> AnnotatedGraph:
    spec = CodeSpec(
        atoms=(AtomDecl("a", "chain", 2),), naturals_up_to=2, code_style="chain", code_length=1
    )
    return assemble(spec).dred


def _completions() -> list[str]:
    """Completions as ``serialize`` writes them: without levels, with
    levels, certified, and over ids that JSON escapes."""
    escaped = escaped_document().graph
    return [
        serialize(AnnotatedGraph(complete(quine_atoms(["p", "q"]), 2).graph)),
        serialize(complete(von_neumann_seed(2), 2)),
        serialize(dred_complete(_certified_seed(), 1)),
        serialize(complete(escaped, 1)),
    ]


def test_completions_are_read_from_their_members(monkeypatch):
    """Completions, with ids that need escapes too, are shown valid by
    rendering their edges from the deficiency ``members``; seeds, other
    layouts of the edges and unsorted nodes decode their edges."""
    # The last four of ``valid_lines`` are completions too.
    lines = _completions() + valid_lines()[-4:]
    expected = [outcome(reference_deserialize, line) for line in lines]
    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("the edges were decoded")

    monkeypatch.setattr(document, "_grouped", refuse)
    assert [outcome(deserialize, line) for line in lines] == expected
    assert calls == []
    monkeypatch.undo()

    grouped = document._grouped
    monkeypatch.setattr(document, "_grouped", lambda edges: calls.append(1) or grouped(edges))
    payload = json.loads(lines[1])
    decoded = [
        GOLDEN_EMPTY,
        serialize(AnnotatedGraph(von_neumann_seed(3))),
        serialize(_certified_seed()),
        *_layouts(lines[1])[1:],
        written({**payload, "nodes": payload["nodes"][::-1]})[1],
    ]
    for text in decoded:
        calls.clear()
        assert outcome(deserialize, text) == outcome(reference_deserialize, text)
        assert calls, text[:200]
    # Keys in another order leave the writer's edges block as it was.
    calls.clear()
    assert outcome(deserialize, _layouts(lines[1])[0]) == outcome(reference_deserialize, lines[1])
    assert calls == []


def test_probing_seed_nodes_compares_about_the_text(monkeypatch):
    """A member with a long id and a thousand seed nodes to test it
    against: each miss compares a seed id, not the member's id, so the
    characters compared stay near the length of the text."""
    member = "m" * 20_000
    seeds = {f"s{i:04d}": () for i in range(1000)}
    graph = ExtensionalDigraph.from_extensions(
        {member: (), **seeds, "zz": (member,)}, {"zz": Deficiency(level=1)}
    )
    text = serialize(AnnotatedGraph(graph))
    compared = []

    class Counted(bytes):
        def startswith(self, prefix, *args):
            compared.append(sum(map(len, prefix)) if type(prefix) is tuple else len(prefix))
            return super().startswith(prefix, *args)

    def refuse(edges):
        raise AssertionError("the edges were decoded")

    monkeypatch.setattr(document, "_grouped", refuse)
    assert deserialize(Counted(text.encode())) == reference_deserialize(text)
    assert compared and sum(compared) < 2 * len(text)


def test_nodes_are_read_in_slices_not_in_one_scan(monkeypatch):
    """A ``nodes`` array longer than a slice is scanned a slice at a
    time, each slice a string of its own, never from the document text
    at the array's start, and the completion is still read from its
    members."""
    line = serialize(complete(von_neumann_seed(2), 2))
    start = line.index('"nodes":') + len('"nodes":')
    expected = reference_deserialize(line)
    scans = []
    scan = document._scan_value

    def recorded(text, at):
        scans.append((text is line, at, len(text)))
        return scan(text, at)

    def refuse(edges):
        raise AssertionError("the edges were decoded")

    monkeypatch.setattr(document, "_NODES_SLICE", 300)
    monkeypatch.setattr(document, "_scan_value", recorded)
    monkeypatch.setattr(document, "_grouped", refuse)
    assert deserialize(line) == expected
    slices = [size for whole, _, size in scans if not whole]
    assert len(slices) > 3 and max(slices) < len(line) // 3
    assert (True, start) not in {(whole, at) for whole, at, _ in scans}


def _slice_traps() -> dict[str, str]:
    """Texts in which a cut before ``,{"id":`` or the guessed end at the
    first ``}}]`` of ``nodes``, or a cut before ``},"`` or the guessed
    end at the first ``}}`` of ``ranks``, could fall inside a string or
    a nested value."""
    tricky = ExtensionalDigraph.from_extensions(
        {'a},{"id":': (), "b}}]": ('a},{"id":',), "c": ("b}}]",)},
        {"c": Deficiency(level=1)},
    )
    nested = json.loads(serialize(complete(von_neumann_seed(2), 1)))
    for i, node in enumerate(nested["nodes"]):
        node["provenance"]["extra"] = [{"id": "x", "more": {"id": i}}, {"id": "y"}]
    seed = '{"id":"%s","provenance":{"kind":"seed","label":"l"}%s}'
    certified = serialize(_certified_seed())
    head = certified[: certified.index('"ranks":')]
    ranks = json.loads(certified)["ranks"]

    def compact(value) -> str:
        return json.dumps(value, separators=(",", ":"))

    return {
        # Ids whose closing quote follows a cut, or that hold the end.
        "rank map ids that hold the cut and the end": certified.replace(
            '"chain:a:0"', '"x},"'
        ).replace('"chain:a:1"', '"c}}"'),
        # The last value of a repeated key, at the key's first place: the
        # top rank map again, the same entries in the reverse order.
        "a repeated rank map": (
            f'{head}"ranks":{compact(ranks)[:-1]},"{len(ranks)}":'
            f'{compact(dict(reversed(ranks[str(len(ranks))].items())))}}}}}'
        ),
        # ``ranks`` ends before the first ``}}``, and a later member holds
        # what looks like a further rank map.
        "a ranks end before the guess": (
            f'{head}"ranks":{compact(ranks)[:-1]} }},"x":{{"9":{{"a":0}}}}}}'
        ),
        "ids that hold the cut and the end": serialize(complete(tricky, 1)),
        "nested id objects": written(nested)[1],
        # The array ends before the first ``}}]``, and a later member holds
        # what looks like a further node entry.
        "an end before the guess": '{"edges":[],"format_version":1,"nodes":[%s],"x":[{"id":1},%s]}'
        % (seed % ("a", ',"k":0'), seed % ("b", "")),
    }


@pytest.mark.parametrize("name", sorted(_slice_traps()))
@pytest.mark.parametrize("size", [1, 40, 1 << 18])
def test_slice_traps_parse_as_the_reference_parses_them(monkeypatch, name, size):
    monkeypatch.setattr(document, "_NODES_SLICE", size)
    monkeypatch.setattr(document, "_RANKS_SLICE", size)
    text = _slice_traps()[name]
    ours = outcome(deserialize, text)
    assert ours[0] == "ok", ours
    assert ours == outcome(reference_deserialize, text)


def test_every_slice_boundary_reads_as_the_reference_reads(monkeypatch):
    """Cuts sought from every offset inside an entry, ``members`` lists
    included, give the same document."""
    line = serialize(complete(quine_atoms(["p", "q"]), 2))
    expected = outcome(reference_deserialize, line)
    longest = max(map(len, line[line.index('"nodes":') :].split(',{"id":')))
    for size in range(1, longest + 2):
        monkeypatch.setattr(document, "_NODES_SLICE", size)
        assert outcome(deserialize, line) == expected, size


def test_every_ranks_slice_boundary_reads_as_the_reference_reads(monkeypatch):
    """Cuts sought from every offset inside a rank map give the same
    document."""
    line = serialize(_certified_seed())
    expected = outcome(reference_deserialize, line)
    longest = max(map(len, line[line.index('"ranks":') :].split('},"')))
    for size in range(1, longest + 2):
        monkeypatch.setattr(document, "_RANKS_SLICE", size)
        assert outcome(deserialize, line) == expected, size


def test_ranks_are_read_in_slices_not_in_one_scan(monkeypatch):
    """A ``ranks`` object longer than a slice is scanned a slice at a
    time, so that no string as long as the section is ever decoded
    beside the bytes: with slices of one byte, each rank map is a scan
    of its own."""
    line = serialize(dred_complete(_certified_seed(), 1))
    expected = reference_deserialize(line)
    scans = []
    scan = document._scan_value

    def recorded(text, at):
        # The scans that start at a rank map's key.
        if re.match(r'\{"\d+":\{', text):
            scans.append(len(text))
        return scan(text, at)

    monkeypatch.setattr(document, "_RANKS_SLICE", 1)
    monkeypatch.setattr(document, "_scan_value", recorded)
    assert deserialize(line.encode()) == expected
    assert len(scans) == expected.top > 1


def test_ranks_are_checked_against_the_depth_that_stands():
    """The rank families are checked against the ``depth`` read before
    them while they are read; a ``depth`` repeated after them replaces
    that one, as the last value of a repeated key does, and they are
    checked against it instead."""
    h = _certified_seed()
    line = serialize(h)
    x = min(x for x, d in h.depth.items() if d == 0)
    outcomes = []
    for depth in ({**h.depth, x: 1}, h.depth):
        text = f'{line[:-1]},"depth":{json.dumps(depth, separators=(",", ":"))}}}'
        outcomes.append(outcome(deserialize, text))
        assert outcomes[-1] == outcome(reference_deserialize, text)
    assert [o[:2] for o in outcomes] == [("raised", "SchemaError"), ("ok", h)]


def test_members_are_the_id_strings_themselves():
    """Every member is the very string object of its id, so the graph
    holds one string per id: read from a completion's ``members``, from
    its edges decoded in another layout, or from a seed's edges."""
    line = serialize(complete(von_neumann_seed(2), 2))
    seed = serialize(AnnotatedGraph(von_neumann_seed(3)))
    for text in (line, json.dumps(json.loads(line), indent=2), seed):
        extensions = deserialize(text).graph.extensions
        ids = {x: x for x in extensions}
        assert all(m is ids[m] for ext in extensions.values() for m in ext)


def _layouts(line: str) -> list[str]:
    """``line`` as other writers could lay it out: keys in reverse
    order, whitespace between every pair of tokens, and the edges in
    reverse order."""
    payload = json.loads(line)
    backwards = dict(reversed(payload.items()))
    return [
        json.dumps(backwards, separators=(",", ":")),
        json.dumps(backwards, indent=2),
        json.dumps({**payload, "edges": payload.get("edges", [])[::-1]}),
        " \n\t\r" + json.dumps(payload, indent="\t", separators=(" , ", " : ")) + "\r\n ",
    ]


def _odd_texts(line: str) -> list[str]:
    """Texts around the valid document ``line`` that only a decoder
    reading member by member could get wrong."""
    body = line[1:-1]
    first_edge = line.index("[[") + 1
    return [
        # Repeated top-level keys: the last one wins, edges included.
        "{" + body + ',"edges":[]}',
        '{"edges":[],' + body + "}",
        '{"edges":[["x"]],' + body + "}",
        "{" + body + ',"edges":' + json.dumps(json.loads(line)["edges"][::-1]) + "}",
        "{" + body + ',"nodes":[]}',
        "{" + body + ',"format_version":2}',
        '{"format_version":2,' + body + "}",
        '{"levels":7,' + body + "}",
        # Not one object that fills the text.
        "\ufeff" + line,
        line + "x",
        line + " {}",
        line + ",",
        "{" + body + ",}",
        "{" + body + ' "x":1}',
        "{" + body + ',"x" 1}',
        "{" + body + ",x:1}",
        line[:-1],
        "{}",
        "{ }",
        # Nesting past the recursion limit, before and after the edges.
        '{"formulas":' + "[" * 100_000 + "]" * 100_000 + "," + body + "}",
        "{" + body + ',"formulas":' + "[" * 100_000 + "}",
        # An integer literal past Python's digit limit inside the edges.
        line[:first_edge] + "[" + "1" * 5000 + "," + line[first_edge + 1 :],
        line[:first_edge] + "[" + "1" * 5000 + "]," + line[first_edge:],
        # Roots that are not objects.
        "[" + line + "]",
        "null",
        "1",
        '"' + body.replace('"', "'") + '"',
        "",
        "  ",
    ]


def test_other_layouts_and_odd_texts_parse_as_the_reference_parses_them():
    line = serialize(complete(von_neumann_seed(2), 2))
    layouts = _layouts(line)
    for text in layouts:
        assert outcome(deserialize, text) == outcome(reference_deserialize, line)
    texts = _odd_texts(line) + [t for bad in _odd_texts(line)[:8] for t in _layouts(bad)]
    # Empty edges that are not an empty list.
    texts += [GOLDEN_EMPTY.replace("[]", empty, 1) for empty in ("{}", '""', "[[]]", "null")]
    for text in texts:
        ours = outcome(deserialize, text)
        assert ours == outcome(reference_deserialize, text), text[:200]
        assert ours[0] == "ok" or ours[1] == "SchemaError", ours


def test_other_layouts_are_read_section_by_section(monkeypatch):
    line = serialize(dred_complete(dred_from_graph(von_neumann_seed(2)), 1))
    expected = deserialize(line)
    texts = _layouts(line)

    def refuse(*args, **kwargs):
        raise AssertionError("a valid document was parsed whole")

    monkeypatch.setattr(document.json, "loads", refuse)
    for text in texts:
        assert deserialize(text) == expected


# -- bytes and text -----------------------------------------------------------


def _raw(line: str) -> str:
    """``line`` with every character that JSON lets stand raw written
    raw, as ``ensure_ascii=False`` writes it: labels, ids and keys in
    UTF-8 of one to four bytes."""
    return json.dumps(json.loads(line), ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def _read_inputs() -> list[str]:
    """Valid documents and the traps and mutations around them, in the
    writer's layout and in others."""
    rng = random.Random(97)
    lines = valid_lines()
    texts = list(lines)
    for mutate in MUTATIONS:
        for _ in range(30):
            payload = json.loads(rng.choice(lines))
            mutate(rng, payload)
            texts += written(payload)
    texts += _guessed_end_traps().values()
    texts += _slice_traps().values()
    line = serialize(complete(von_neumann_seed(2), 2))
    texts += _layouts(line) + _odd_texts(line)
    # Sections whose keys and values hold other sections' keys, so that
    # a value's first window ends inside it.
    named = replace(
        complete(von_neumann_seed(2), 1),
        formulas={"nodes": '"edges"', "levels": "x = x", "z": '"ranks":'},
    )
    texts.append(serialize(named))
    texts += [_raw(text) for text in (serialize(named), serialize(escaped_document()))]
    texts.append(_raw(serialize(complete(escaped_document().graph, 1))))
    texts += [_raw(text) for text in lines[:20]]
    # Whitespace of every kind, and CRLF line ends, between the tokens.
    for text in (line, serialize(escaped_document()), lines[0]):
        payload = json.loads(text)
        texts.append(json.dumps(payload, indent=1).replace("\n", "\r\n"))
        spaced = json.dumps(payload, indent="\t", separators=(",\r\n", ":\t"))
        texts.append(f"\r\n{spaced}\r\n")
    return texts


def test_bytes_and_text_read_as_the_reference_reads_the_text():
    """The UTF-8 bytes of a document and its text read alike, as the
    reference reads the text: the document with every map's order, or
    the same error at the same path."""
    texts = _read_inputs()
    assert any(not text.isascii() for text in texts)
    for text in texts:
        expected = outcome(reference_deserialize, text)
        data = text.encode("utf-8")
        assert outcome(deserialize, data) == expected, text[:200]
        assert outcome(deserialize, data.decode("utf-8")) == expected, text[:200]


def test_text_with_a_raw_lone_surrogate_reads_as_the_reference_reads_it():
    """A ``str`` can hold a lone surrogate that no UTF-8 bytes can: it
    is refused where the reference refuses it, and kept where the
    reference keeps it."""
    line = serialize(replace(complete(von_neumann_seed(1), 1), formulas={"f": "x = x"}))
    texts = [
        line.replace('"label":"', '"label":"\udc80', 1),
        line.replace('"x = x"', '"x = x\ud800"'),
    ]
    outcomes = [outcome(deserialize, text) for text in texts]
    assert outcomes == [outcome(reference_deserialize, text) for text in texts]
    assert outcomes[0][:2] == ("raised", "SchemaError")
    assert outcomes[0][2].endswith("].provenance.label")
    assert outcomes[1][0] == "ok"


def test_bytes_that_are_not_utf8_are_refused_at_the_root_with_their_offset():
    data = serialize(complete(von_neumann_seed(2), 1)).encode()
    label = data.index(b'"label":"') + len(b'"label":"')
    cases = {
        # A byte that starts no character, inside a label.
        data[:label] + b"\xff" + data[label:]: (
            f"$: invalid UTF-8 at byte {label}: invalid start byte"
        ),
        # A lone surrogate, encoded as CESU-8 would.
        data[:label] + "\ud800".encode("utf-8", "surrogatepass") + data[label:]: (
            f"$: invalid UTF-8 at byte {label}: invalid continuation byte"
        ),
        # A character cut short at the end of the input.
        data + b"\xe2\x88": f"$: invalid UTF-8 at byte {len(data)}: unexpected end of data",
        # UTF-16, which ``json.loads`` would take from bytes.
        data.decode().encode("utf-16"): "$: invalid UTF-8 at byte 0: invalid start byte",
        # UTF-8 with a byte order mark, which ``json.loads`` refuses in text too.
        b"\xef\xbb\xbf" + data: "$: invalid JSON: Unexpected UTF-8 BOM",
    }
    for bad, message in cases.items():
        with pytest.raises(SchemaError) as raised:
            deserialize(bad)
        assert raised.value.path == "$"
        assert str(raised.value).startswith(message), str(raised.value)


def test_reading_holds_less_than_the_parsed_tree():
    """The edges are grouped as soon as they are decoded and dropped
    before the nodes are, so a read never holds the whole tree that
    ``json.loads`` builds. Measured in allocated bytes, not time."""
    text = serialize(complete(quine_atoms([f"q{i}" for i in range(12)]), 1))

    def peak(parse) -> int:
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(deserialize) < peak(json.loads)


def twelve_atoms_completion() -> AnnotatedGraph:
    """The 1.8 MB completion of twelve quine atoms."""
    return complete(quine_atoms([f"q{i}" for i in range(12)]), 1)


def test_the_proof_stage_keeps_no_reference_to_the_text():
    """``deserialize`` proves the bytes before it builds the record;
    what the proof returns for the build holds no reference to them."""
    text = serialize(twelve_atoms_completion())
    data = text.encode()
    before = sys.getrefcount(data)
    build = document._proven(data)
    assert sys.getrefcount(data) == before
    assert build() == reference_deserialize(text)


def test_the_pieces_keep_no_reference_to_the_record():
    """The writer's pieces are rendered from what it took from the
    record: once the record is dropped, its graph is freed while the
    pieces still join to the whole line and its newline."""
    doc = twelve_atoms_completion()
    expected = serialize(doc) + "\n"
    graph = weakref.ref(doc.graph)
    pieces = document._pieces(doc)
    del doc
    assert graph() is None
    assert "".join(pieces) == expected


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="before 3.11 a call's arguments stay on the caller's stack until it returns",
)
def test_a_text_passed_as_a_temporary_is_freed_before_the_build():
    """Allocated bytes, not time: a read of a text that only the call
    holds peaks at least half the text below the same read with the
    caller holding the text too."""
    data = serialize(twelve_atoms_completion()).encode("utf-8")

    def held() -> AnnotatedGraph:
        text = data.decode("utf-8")
        return deserialize(text)

    def temporary() -> AnnotatedGraph:
        return deserialize(data.decode("utf-8"))

    def peak(read) -> int:
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert held() == temporary()
    assert peak(temporary) <= peak(held) - len(data) // 2


def test_a_read_completion_keeps_its_proven_id_order():
    """The ids of a completion read from its members are proven in
    order; the graph keeps them as its sorted order."""
    g = deserialize(serialize(twelve_atoms_completion())).graph
    assert g.__dict__["_sorted"] == sorted(g.nodes)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_setting_survives_document_io(enabled):
    line = serialize(complete(von_neumann_seed(2), 1))
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        serialize(deserialize(line))
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError):
            deserialize(line.replace('"kind":"seed"', '"kind":"mystery"', 1))
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaError):
            deserialize("{nope")
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


# -- schema violations -------------------------------------------------------


def base_payload() -> dict:
    return json.loads(serialize(AnnotatedGraph(von_neumann_seed(2))))


def reject(payload, path_prefix: str):
    with pytest.raises(SchemaError) as err:
        deserialize(json.dumps(payload))
    assert err.value.path.startswith(path_prefix), err.value.path
    return err.value


def test_invalid_json():
    with pytest.raises(SchemaError) as caught:
        deserialize("{nope")
    assert caught.value.path == "$"


def test_non_object_root():
    with pytest.raises(SchemaError) as caught:
        deserialize("[1, 2]")
    assert caught.value.path == "$"


def test_missing_format_version():
    payload = base_payload()
    del payload["format_version"]
    reject(payload, "$")


def test_unsupported_format_version():
    payload = base_payload()
    payload["format_version"] = 99
    reject(payload, "format_version")


def test_boolean_format_version():
    payload = base_payload()
    payload["format_version"] = True
    reject(payload, "format_version")


def test_duplicate_node_id():
    payload = base_payload()
    payload["nodes"].append(dict(payload["nodes"][0]))
    reject(payload, "nodes[")


def test_edge_with_unknown_endpoint():
    payload = base_payload()
    payload["edges"].append(["ghost", payload["nodes"][0]["id"]])
    err = reject(payload, "edges[")
    assert "ghost" in str(err)


def test_malformed_edge_entry():
    payload = base_payload()
    payload["edges"].append(["only-one"])
    reject(payload, "edges[")


def test_bad_provenance_kind():
    payload = base_payload()
    payload["nodes"][0]["provenance"] = {"kind": "mystery"}
    reject(payload, "nodes[0].provenance")


def test_deficiency_members_must_match_extension():
    g = complete(ExtensionalDigraph.empty(), 2).graph
    payload = json.loads(serialize(AnnotatedGraph(g)))
    i = max(i for i, node in enumerate(payload["nodes"]) if node["provenance"]["kind"] == "deficiency")
    payload["nodes"][i]["provenance"]["members"] = ["bogus-member"]
    err = reject(payload, f"nodes[{i}].provenance")
    assert str(err) == f"nodes[{i}].provenance: deficiency members must equal the node's extension"


def test_levels_must_be_cumulative():
    u = complete(ExtensionalDigraph.empty(), 2)
    payload = json.loads(serialize(u))
    payload["levels"] = [payload["levels"][1], payload["levels"][0]]
    reject(payload, "levels[")


def test_top_level_must_cover_nodes():
    u = complete(ExtensionalDigraph.empty(), 2)
    payload = json.loads(serialize(u))
    payload["levels"] = payload["levels"][:-1]
    reject(payload, "levels")


def test_depth_must_cover_nodes():
    payload = base_payload()
    payload["depth"] = {payload["nodes"][0]["id"]: 0}
    reject(payload, "depth")


def test_depth_must_be_non_negative():
    payload = base_payload()
    payload["depth"] = {n["id"]: -1 for n in payload["nodes"]}
    reject(payload, "depth")


def test_ranks_require_depth():
    payload = base_payload()
    payload["ranks"] = {"1": {}}
    reject(payload, "ranks")


def test_rank_domain_is_depth_bounded():
    payload = base_payload()
    payload["depth"] = {n["id"]: 0 for n in payload["nodes"]}
    payload["ranks"] = {"1": {}}  # should cover every depth-0 node
    err = reject(payload, "ranks.1")
    assert "depth < 1" in str(err)


def test_rank_keys_are_positive_integers():
    payload = base_payload()
    payload["depth"] = {n["id"]: 0 for n in payload["nodes"]}
    payload["ranks"] = {"zero": {}}
    reject(payload, "ranks.zero")


def test_rank_keys_follow_the_schema_pattern():
    """Keys match ^[1-9][0-9]*$: "1" is read, "01" would silently
    overwrite it, and "²" is a digit to str.isdigit but not to int."""
    payload = base_payload()
    payload["depth"] = {n["id"]: 0 for n in payload["nodes"]}
    family = {n["id"]: 0 for n in payload["nodes"]}
    payload["ranks"] = {"1": family}
    read = deserialize(json.dumps(payload))
    assert (read.rank, read.top) == (family, 1)
    payload["ranks"] = {"1": family, "01": family}
    err = reject(payload, "ranks.01")
    assert str(err) == "ranks.01: rank family keys must be positive integers"
    payload["ranks"] = {"\u00b2": family}
    err = reject(payload, "ranks.\u00b2")
    assert str(err) == "ranks.\u00b2: rank family keys must be positive integers"


def test_rank_families_must_run_from_one_to_the_top():
    """A ``ranks`` block holds the families 1..I of one rank map: one
    dropped below the top, or one family numbered past 1, is refused at
    the least key past the family count, naming a missing family, by
    both readers."""
    payload = json.loads(serialize(_certified_seed()))
    top = len(payload["ranks"])
    texts = {}
    for gone in range(1, top):
        dropped = copy.deepcopy(payload)
        del dropped["ranks"][str(gone)]
        texts[json.dumps(dropped)] = (top, gone)
    lone = base_payload()
    lone["depth"] = {n["id"]: 0 for n in lone["nodes"]}
    lone["ranks"] = {"2": {n["id"]: 0 for n in lone["nodes"]}}
    texts[json.dumps(lone)] = (2, 1)
    for text, (key, gone) in texts.items():
        expected = f"ranks.{key}: rank families must be 1..I; {gone} is missing"
        assert outcome(deserialize, text) == ("raised", "SchemaError", f"ranks.{key}", expected)
        assert outcome(reference_deserialize, text) == outcome(deserialize, text)


def test_each_lower_rank_family_must_be_the_top_one_restricted():
    """A rank moved by one in one family of a written certificate: in a
    lower family, that family is refused; in the top family, the least
    lower family that holds the node is, by both readers.  A node only
    the top family holds moves the rank map, which is read."""
    payload = json.loads(serialize(_certified_seed()))
    top = len(payload["ranks"])
    read = 0
    for key, family in payload["ranks"].items():
        for x in family:
            for step in (-1, 1):
                moved = copy.deepcopy(payload)
                moved["ranks"][key][x] += step
                text = json.dumps(moved)
                ours = outcome(deserialize, text)
                assert ours == outcome(reference_deserialize, text)
                i = int(key) if int(key) < top else payload["depth"][x] + 1
                if i < top:
                    expected = f"family {i} is not family {top} restricted to depth < {i} ({x!r} is off)"
                    assert ours == ("raised", "SchemaError", f"ranks.{i}", f"ranks.{i}: {expected}")
                else:
                    assert ours[0] == "ok" and ours[1].rank[x] == family[x] + step
                    read += 1
    assert read == 2 * sum(d == top - 1 for d in payload["depth"].values()) > 0


def test_formula_bodies_are_strings():
    payload = base_payload()
    payload["formulas"] = {"broken": 7}
    reject(payload, "formulas.broken")


# -- published schema --------------------------------------------------------


SCHEMA_PATH = pathlib.Path(__file__).parent.parent / "schemas" / "graph-document.schema.json"


def test_emitted_documents_satisfy_published_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    h = dred_from_graph(ExtensionalDigraph.empty())
    docs = [
        AnnotatedGraph(ExtensionalDigraph.empty()),
        AnnotatedGraph(von_neumann_seed(3)),
        complete(von_neumann_seed(2), 2),
        dred_complete(h, 3),
        AnnotatedGraph(graph=von_neumann_seed(2), formulas={"f": "x = x"}),
    ]
    for doc in docs:
        jsonschema.validate(json.loads(serialize(doc)), schema)


def test_schema_rejects_what_deserialize_rejects():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    payload = base_payload()
    payload["nodes"][0]["provenance"] = {"kind": "mystery"}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, schema)
    payload = base_payload()
    payload["format_version"] = 99
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, schema)
