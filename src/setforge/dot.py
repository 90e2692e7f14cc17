"""Graphviz DOT rendering.

Output is deterministic (sorted nodes, sorted edges) so renders can be
diffed. Membership arrows point from member to container. Nodes
created by completion are shaded darker the later their level; depth
and rank annotations are appended to the label when present.
"""

from __future__ import annotations

from .graph import AnnotatedGraph, Deficiency, ExtensionalDigraph, NodeId, Seed

_SHADES = ("gray92", "gray84", "gray76", "gray68")

# How many lines ``_pieces`` joins into one piece as it makes them.
_BATCH = 1024


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


# The fill attributes of a completion node, by level (the last shade
# serves every later level).
_FILLS = tuple(f", style=filled, fillcolor={_quote(shade)}" for shade in _SHADES)


def _label_attr(lines: list[str]) -> str:
    escaped = "\\n".join(
        part.replace("\\", "\\\\").replace('"', '\\"') for part in lines
    )
    return f'"{escaped}"'


def _base_label(g: ExtensionalDigraph, x: NodeId) -> str:
    p = g.provenance[x]
    if isinstance(p, Seed):
        return p.label
    if isinstance(p, Deficiency):
        return f"D{p.level}#{len(g.extensions[x])}"
    return p.detail


def _node_line(g: ExtensionalDigraph, depth: dict | None, rank: dict, x: NodeId, q: str) -> str:
    """The line of node ``x``, quoted as ``q``, with its newline."""
    label_lines = [_base_label(g, x)]
    if depth is not None:
        note = f"d={depth[x]}"
        if x in rank:
            note += f" r={rank[x]}"
        label_lines.append(note)
    attrs = f"label={_label_attr(label_lines)}"
    p = g.provenance[x]
    if isinstance(p, Deficiency):
        attrs += _FILLS[min(p.level - 1, len(_FILLS) - 1)]
    return f"  {q} [{attrs}];\n"


def _pieces(source: AnnotatedGraph) -> list[str]:
    """The pieces of the DOT text of ``source``, in order, each up to
    ``_BATCH`` whole lines. Each id is quoted once.

    The record is dropped once the node lines and the member runs are
    taken from it, before the edge lines are made, so a caller that
    passes it as a temporary never holds its graph and the edge lines
    together."""
    g, depth, rank = source.graph, source.depth, source.rank or {}
    order = g.sorted_nodes()
    quoted = list(map(_quote, order))
    pieces = ['digraph "setforge" {\n  rankdir=BT;\n']
    for i in range(0, len(order), _BATCH):
        batch = zip(order[i : i + _BATCH], quoted[i : i + _BATCH])
        pieces.append("".join([_node_line(g, depth, rank, x, q) for x, q in batch]))
    runs = g.member_runs()
    del source, g, depth, rank, order
    at = quoted.__getitem__
    for m, cs in runs:
        head = f"  {at(m)} -> "
        for i in range(0, len(cs), _BATCH):
            pieces.append(head + f";\n{head}".join(map(at, cs[i : i + _BATCH])) + ";\n")
    pieces.append("}\n")
    return pieces


def to_dot(source: AnnotatedGraph) -> str:
    """Render a graph as DOT, with its depths and rank map when the
    record carries them: the join of :func:`_pieces`, which the command
    line writes a run at a time instead."""
    return "".join(_pieces(source))
