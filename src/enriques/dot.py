"""Deterministic DOT rendering of cluster diagrams.

The drawing encodes exactly the combinatorial content: the rooted tree with
an edge style per proximity class (solid for free points, bold for
satellite points, which traditionally sit on straight half-lines), node
fills for cluster membership and an optional annotation per node.  One
overlay subgraph per cluster lists its members, so graphical tools can
select them; points in no cluster stay hollow.
"""

from __future__ import annotations

from typing import Sequence

from .arena import ArenaTree
from .cluster import WeightedCluster, WeightKind
from .documents import document_ids
from .errors import WrongKind
from .morphism import compute

_FILLS = ["lightgray", "black", "dimgray", "lightblue", "tan"]


def _quote(*lines: str) -> str:
    """A DOT string of the lines, joined by DOT's ``\\n`` line break, with
    each backslash and quote in them escaped."""
    return '"%s"' % "\\n".join(
        line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)


def render_dot(
    tree: ArenaTree,
    clusters: Sequence[tuple[str, WeightedCluster]] = (),
    annotate: str = "none",
) -> str:
    """Render the arena with overlay clusters as DOT text.

    ``annotate`` is ``"none"``, ``"weights"`` (weights of every overlay
    containing the node) or ``"mn"`` (height quotients of the first
    virtual overlay, written m/n; :class:`WrongKind` when there is none).
    """
    inv = None
    if annotate == "mn":
        for _, cluster in clusters:
            if cluster.kind is WeightKind.VIRTUAL:
                inv = compute(cluster)
                break
        if inv is None:
            raise WrongKind("mn annotation needs a virtual cluster overlay")

    ids = document_ids(tree)  # distinct, so distinct points are distinct nodes
    names = [_quote(name) for name in ids]
    lines = ["digraph cluster_diagram {", "  rankdir=TB;",
             "  node [shape=circle, fontsize=10];"]
    for p, name in enumerate(ids):
        label = [name]
        if annotate == "weights":
            marks = [str(c.weight[p]) for _, c in clusters if p in c]
            if marks:
                label.append("/".join(marks))
        elif annotate == "mn":
            n, m = inv.extend_to(p)
            label.append(f"{m}/{n}")
        attrs = [f"label={_quote(*label)}"]
        membership = [i for i, (_, c) in enumerate(clusters) if p in c]
        if membership:
            attrs.append("style=filled")
            attrs.append(f"fillcolor={_FILLS[membership[0] % len(_FILLS)]}")
        lines.append(f"  {names[p]} [{', '.join(attrs)}];")
    for p, (parent, second) in enumerate(zip(tree.parents, tree.seconds)):
        if parent is not None:
            style = "solid" if second is None else "bold"
            lines.append(f"  {names[parent]} -> {names[p]} [style={style}];")
    for i, (name, cluster) in enumerate(clusters):
        lines.append(f"  subgraph overlay_{i} {{")
        lines.append(f"    label={_quote(name)};")
        for p in sorted(cluster.points):
            lines.append(f"    {names[p]};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
