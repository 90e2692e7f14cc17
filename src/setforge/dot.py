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


def to_dot(source: AnnotatedGraph) -> str:
    """Render a graph as DOT, with its depths and top rank map when the
    record carries them.  Each id is quoted once."""
    g, depth, ranks = source.graph, source.depth, source.ranks
    top_rank = ranks[max(ranks)] if ranks else {}
    order = g.sorted_nodes()
    quoted = dict(zip(order, map(_quote, order)))
    lines = ['digraph "setforge" {', "  rankdir=BT;"]
    for x in order:
        label_lines = [_base_label(g, x)]
        if depth is not None:
            note = f"d={depth[x]}"
            if x in top_rank:
                note += f" r={top_rank[x]}"
            label_lines.append(note)
        attrs = f"label={_label_attr(label_lines)}"
        p = g.provenance[x]
        if isinstance(p, Deficiency):
            attrs += _FILLS[min(p.level - 1, len(_FILLS) - 1)]
        lines.append(f"  {quoted[x]} [{attrs}];")
    for q, cs in g.member_runs(quoted):
        head = f"  {q} -> "
        lines.append(head + f";\n{head}".join(cs) + ";")
    lines.append("}")
    return "\n".join(lines) + "\n"
