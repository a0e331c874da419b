import json

from enriques import ArenaTree, WeightedCluster, WeightKind, parse, recover
from enriques.dot import render_dot

import fixture_builders as fb


def test_overlays_distinguish_membership():
    tree, bp, names = fb.ex04_bp()
    result = recover(bp)
    dot = render_dot(result.multiplicities)
    assert dot.count("[label=") == 10
    # p4 and p5 lie on the curve, p8 and p9 only among the base points
    for name in ("p3", "p4", "p5"):
        assert (f'"{name}" [label="{name}", style=filled,'
                ' fillcolor=lightgray];') in dot
    for name in ("p8", "p9"):
        assert f'"{name}" [label="{name}"];' in dot
    overlay = dot[dot.index("  subgraph overlay_0 {"):].splitlines()
    assert overlay == ["  subgraph overlay_0 {", '    label="cluster";'] + [
        f'    "{tree.labels[p]}";' for p in sorted(result.singular)] + [
        "  }", "}"]


def test_empty_overlay_renders_skeleton():
    tree, bp, _ = fb.ex05_bp()
    dot = render_dot(WeightedCluster(tree, WeightKind.VIRTUAL, {}))
    assert dot.count(" -> ") == len(tree) - 1
    assert "style=filled" not in dot


def test_output_is_deterministic():
    tree, bp, _ = fb.ex06_bp()
    assert render_dot(bp, annotate="weights") == \
        render_dot(bp, annotate="weights")


def test_points_sharing_a_label_are_distinct_nodes():
    tree, cluster = parse(json.dumps({
        "format_version": 1, "weight_kind": "multiplicity",
        "points": [{"id": "O", "weight": 2},
                   {"id": "a", "parent": "O", "label": "X", "weight": 1},
                   {"id": "b", "parent": "O", "label": "X", "weight": 1}]}))
    dot = render_dot(cluster)
    nodes = [l.split(" [")[0].strip() for l in dot.splitlines()
             if "[label=" in l]
    assert nodes == ['"O"', '"X"', '"q#1"']
    edges = [tuple(l.split(" [")[0].split(" -> "))
             for l in dot.splitlines() if " -> " in l]
    assert len(set(edges)) == len(edges) == len(tree) - 1
    assert all(a != b for a, b in edges)


def test_backslash_and_quote_in_a_label_are_escaped():
    tree = ArenaTree()
    tree.add_point(label="a\\")
    tree.add_point(0, label='b"')
    cluster = WeightedCluster(tree, WeightKind.MULTIPLICITY, {0: 2})
    dot = render_dot(cluster, annotate="weights")
    # the annotation's line break stays one escape after the name's
    assert ('  "a\\\\" [label="a\\\\\\n2", style=filled,'
            ' fillcolor=lightgray];') in dot
    assert '  "a\\\\" -> "b\\"" [style=solid];' in dot
    assert '  "b\\"" [label="b\\""];' in dot
