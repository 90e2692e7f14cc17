"""Canonical JSON documents for graphs and their annotations.

A document is one line of JSON with sorted keys and sorted node and
edge lists, so equal documents are byte-identical and diffs are
meaningful. The graph core (nodes with provenance, edges) is always
present; level structure, depth and rank annotations, and a formula
library are optional blocks.

Schema violations raise :class:`~setforge.errors.SchemaError` naming
the offending field path, for example ``edges[3]`` or ``ranks.2``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from .completion import LeveledUniverse
from .dred import Dred, DredLeveledUniverse
from .errors import SchemaError
from .graph import (
    Code,
    Deficiency,
    ExtensionalDigraph,
    NodeId,
    Provenance,
    Seed,
)

FORMAT_VERSION = 1

_CODE_KINDS = ("loop", "chain", "tuple", "atom")


@dataclass(frozen=True)
class GraphDocument:
    """In-memory form of one serialized graph file."""

    graph: ExtensionalDigraph
    levels: tuple[frozenset[NodeId], ...] | None = None
    depth: dict[NodeId, int] | None = None
    ranks: dict[int, dict[NodeId, int]] | None = None
    formulas: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_graph(cls, g: ExtensionalDigraph) -> "GraphDocument":
        return cls(graph=g)

    @classmethod
    def from_universe(cls, u: LeveledUniverse) -> "GraphDocument":
        return cls(graph=u.graph, levels=u.levels)

    @classmethod
    def from_dred(cls, h: Dred) -> "GraphDocument":
        return cls(graph=h.graph, depth=h.depth, ranks=h.ranks)

    @classmethod
    def from_dred_universe(cls, du: DredLeveledUniverse) -> "GraphDocument":
        return cls(graph=du.graph, levels=du.levels, depth=du.depth, ranks=du.ranks)

    def to_universe(self) -> LeveledUniverse:
        if self.levels is None:
            raise SchemaError("levels", "document has no levels block")
        return LeveledUniverse(graph=self.graph, levels=self.levels)

    def to_dred(self) -> Dred:
        if self.depth is None:
            raise SchemaError("depth", "document has no depth block")
        if self.ranks is None:
            raise SchemaError("ranks", "document has no ranks block")
        return Dred(graph=self.graph, depth=self.depth, ranks=self.ranks)

    def to_dred_universe(self) -> DredLeveledUniverse:
        u = self.to_universe()
        h = self.to_dred()
        return DredLeveledUniverse(universe=u, depth=h.depth, ranks=h.ranks)


def _provenance_to_json(g: ExtensionalDigraph, x: NodeId) -> dict[str, Any]:
    p = g.provenance[x]
    if isinstance(p, Seed):
        return {"kind": "seed", "label": p.label}
    if isinstance(p, Deficiency):
        return {"kind": "deficiency", "level": p.level, "members": sorted(g.extensions[x])}
    return {"kind": "code", "code_kind": p.kind, "detail": p.detail}


def serialize(doc: GraphDocument) -> str:
    """One canonical line; equal documents serialize byte-identically."""
    g = doc.graph
    payload: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "nodes": [
            {"id": x, "provenance": _provenance_to_json(g, x)}
            for x in g.sorted_nodes()
        ],
        "edges": sorted(g.edges),
    }
    if doc.levels is not None:
        payload["levels"] = [sorted(level) for level in doc.levels]
    if doc.depth is not None:
        payload["depth"] = doc.depth
    if doc.ranks is not None:
        payload["ranks"] = {str(i): r for i, r in doc.ranks.items()}
    if doc.formulas:
        payload["formulas"] = doc.formulas
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _want(raw: Mapping[str, Any], key: str, kind: type, path: str) -> Any:
    if key not in raw:
        raise SchemaError(path, f"missing required field {key!r}")
    value = raw[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{path}.{key}" if path != "$" else key, f"expected {kind.__name__}")
    return value


def _parse_provenance(raw: Any, path: str) -> Provenance:
    if not isinstance(raw, dict):
        raise SchemaError(path, "provenance must be an object")
    kind = raw.get("kind")
    if kind == "seed":
        label = raw.get("label")
        if not isinstance(label, str):
            raise SchemaError(path, "seed provenance needs a string label")
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
        if code_kind not in _CODE_KINDS:
            raise SchemaError(path, f"code_kind must be one of {', '.join(_CODE_KINDS)}")
        detail = raw.get("detail")
        if not isinstance(detail, str):
            raise SchemaError(path, "code provenance needs a string detail")
        return Code(kind=code_kind, detail=detail)
    raise SchemaError(path, f"unknown provenance kind {kind!r}")


def deserialize(text: str) -> GraphDocument:
    """Parse and validate one document. See the module docstring for
    the shape; violations name the field path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("$", f"invalid JSON: {e.msg} at position {e.pos}") from e
    except RecursionError as e:
        raise SchemaError("$", "invalid JSON: nested too deeply") from e
    if not isinstance(raw, dict):
        raise SchemaError("$", "document must be a JSON object")
    version = _want(raw, "format_version", int, "$")
    if version != FORMAT_VERSION:
        raise SchemaError("format_version", f"unsupported version {version}")

    nodes_raw = _want(raw, "nodes", list, "$")
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
        if node_id in extensions:
            raise SchemaError(path, f"duplicate node id {node_id!r}")
        extensions[node_id] = set()
        order.append(node_id)
    known = frozenset(extensions)
    for i, item in enumerate(nodes_raw):
        provenance[order[i]] = _parse_provenance(
            item.get("provenance"), f"nodes[{i}].provenance"
        )

    edges_raw = _want(raw, "edges", list, "$")
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
        levels_raw = _want(raw, "levels", list, "$")
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
        depth_raw = _want(raw, "depth", dict, "$")
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
        ranks_raw = _want(raw, "ranks", dict, "$")
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

    formulas: dict[str, str] = {}
    if "formulas" in raw:
        formulas_raw = _want(raw, "formulas", dict, "$")
        for name, body in formulas_raw.items():
            if not isinstance(body, str):
                raise SchemaError(f"formulas.{name}", "formula bodies must be strings")
            formulas[name] = body

    return GraphDocument(
        graph=graph,
        levels=levels,
        depth=depth,
        ranks=ranks,
        formulas=formulas,
    )
