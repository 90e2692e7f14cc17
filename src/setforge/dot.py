"""Graphviz DOT rendering.

Output is deterministic (sorted nodes, sorted edges) so renders can be
diffed. Membership arrows point from member to container. Nodes
created by completion are shaded darker the later their level; depth
and rank annotations are appended to the label when present.
"""

from __future__ import annotations

from .graph import AnnotatedGraph, Deficiency, ExtensionalDigraph, NodeId, Seed

_SHADES = ("gray92", "gray84", "gray76", "gray68")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


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


def to_dot(source: AnnotatedGraph) -> str:
    """Render a graph as DOT, with its depths and top rank map when the
    record carries them."""
    g, depth, ranks = source.graph, source.depth, source.ranks
    top_rank = ranks[max(ranks)] if ranks else {}
    lines = ['digraph "setforge" {', "  rankdir=BT;"]
    for x in g.sorted_nodes():
        label_lines = [_base_label(g, x)]
        if depth is not None:
            note = f"d={depth[x]}"
            if x in top_rank:
                note += f" r={top_rank[x]}"
            label_lines.append(note)
        attrs = [f"label={_label_attr(label_lines)}"]
        p = g.provenance[x]
        if isinstance(p, Deficiency):
            shade = _SHADES[min(p.level - 1, len(_SHADES) - 1)]
            attrs.append("style=filled")
            attrs.append(f"fillcolor={_quote(shade)}")
        lines.append(f"  {_quote(x)} [{', '.join(attrs)}];")
    for member, container in g.sorted_edges():
        lines.append(f"  {_quote(member)} -> {_quote(container)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
