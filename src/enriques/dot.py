"""Deterministic DOT rendering of a cluster diagram.

The drawing encodes exactly the combinatorial content: the rooted tree with
an edge style per proximity class (solid for free points, bold for
satellite points, which traditionally sit on straight half-lines), a fill
for cluster membership and an optional annotation per node.  One subgraph
lists the cluster's members, so graphical tools can select them; points
outside the cluster stay hollow.
"""

from __future__ import annotations

from .cluster import WeightedCluster, WeightKind
from .documents import document_ids
from .errors import WrongKind, write_number
from .recovery import MorphismInvariants


def _quote(*lines: str) -> str:
    """A DOT string of the lines, joined by DOT's ``\\n`` line break, with
    each backslash and quote in them escaped."""
    return '"%s"' % "\\n".join(
        line.replace("\\", "\\\\").replace('"', '\\"') for line in lines)


def render_dot(cluster: WeightedCluster, annotate: str = "none") -> str:
    """Render the cluster over its whole arena as DOT text.

    ``annotate`` is ``"none"``, ``"weights"`` (the cluster weight at each
    member) or ``"mn"`` (height quotients m/n of any virtual cluster,
    base-point cluster or not; :class:`WrongKind` for any other kind).
    """
    if annotate == "mn" and cluster.kind is not WeightKind.VIRTUAL:
        raise WrongKind("mn annotation needs a virtual cluster overlay")
    inv = MorphismInvariants(cluster) if annotate == "mn" else None

    tree = cluster.tree
    ids = document_ids(tree)  # distinct, so distinct points are distinct nodes
    names = [_quote(name) for name in ids]
    lines = ["digraph cluster_diagram {", "  rankdir=TB;",
             "  node [shape=circle, fontsize=10];"]
    for p, name in enumerate(ids):
        label = [name]
        if annotate == "weights" and p in cluster:
            label.append(write_number(cluster.weight[p]))
        elif annotate == "mn":
            n, m = inv.extend_to(p)
            label.append(f"{write_number(m)}/{write_number(n)}")
        attrs = [f"label={_quote(*label)}"]
        if p in cluster:
            attrs.append("style=filled, fillcolor=lightgray")
        lines.append(f"  {names[p]} [{', '.join(attrs)}];")
    for p, (parent, second) in enumerate(zip(tree.parents, tree.seconds)):
        if parent is not None:
            style = "solid" if second is None else "bold"
            lines.append(f"  {names[parent]} -> {names[p]} [style={style}];")
    lines += ["  subgraph overlay_0 {", '    label="cluster";']
    lines += [f"    {names[p]};" for p in sorted(cluster.points)]
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"
