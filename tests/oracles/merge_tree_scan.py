"""The earlier merge-tree builder, which scans every old root per level.

For each level group it rebuilds the map from union-find roots to nodes and
finds a new node's children by checking every root of the previous level.
``metricgraph.gromov_tree._merge_tree_from_model`` must build the same tree.

Run as a script, it checks itself against hand-derived trees.
"""

from typing import Dict, List, Optional

from metricgraph.gromov_tree import MergeTree, TreeNode
from metricgraph.metric_graph import MonotoneModel


def _merge_tree_from_model(model: MonotoneModel) -> MergeTree:
    H, f = model.graph, model.f
    order = sorted(H.vertices, key=lambda v: (-f[v], v))

    parent_uf: Dict[str, str] = {}

    def find(v: str) -> str:
        r = v
        while parent_uf[r] != r:
            r = parent_uf[r]
        while parent_uf[v] != r:
            parent_uf[v], v = r, parent_uf[v]
        return r

    # provisional nodes in creation order
    levels: List[float] = []
    parents: List[Optional[int]] = []
    members: List[List[str]] = []
    root_node: Dict[str, int] = {}  # union-find root vertex -> its node

    i = 0
    while i < len(order):
        j = i
        lvl = f[order[i]]
        while j < len(order) and lvl - f[order[j]] <= H._tol:
            j += 1
        group = order[i:j]
        i = j

        for v in group:
            parent_uf[v] = v
        prev_roots: Dict[str, int] = dict(root_node)
        for v in group:
            for eid in H.incident(v):
                e = H.edge(eid)
                w = e.v if e.u == v else e.u
                if w in parent_uf:
                    ra, rb = find(v), find(w)
                    if ra != rb:
                        parent_uf[rb] = ra

        comps: Dict[str, List[str]] = {}
        for v in group:
            comps.setdefault(find(v), []).append(v)
        handled: Dict[str, int] = {}
        for rv in sorted(comps, key=lambda r: min(comps[r])):
            children = sorted({nid for (old_root, nid) in prev_roots.items()
                               if find(old_root) == rv})
            nid = len(levels)
            levels.append(lvl)
            parents.append(None)
            members.append(sorted(comps[rv]))
            for c in children:
                parents[c] = nid
            handled[rv] = nid
        root_node = {}
        seen_roots = set()
        for v in parent_uf:
            r = find(v)
            if r in seen_roots:
                continue
            seen_roots.add(r)
            root_node[r] = handled.get(r)
            if root_node[r] is None:
                # untouched component keeps its old node
                olds = [nid for (old_root, nid) in prev_roots.items()
                        if find(old_root) == r]
                root_node[r] = olds[0]

    live = [nid for nid, par in enumerate(parents) if par is None]
    if len(live) != 1:
        raise AssertionError("merge tree did not close to a single root")

    # renumber so ids ascend with level from the root
    order_ids = sorted(range(len(levels)), key=lambda nid: (levels[nid], nid))
    remap = {old: new for new, old in enumerate(order_ids)}
    nodes = tuple(
        TreeNode(id=remap[old],
                 level=levels[old],
                 parent=None if parents[old] is None else remap[parents[old]],
                 members=tuple(members[old]))
        for old in order_ids
    )
    node_of: Dict[str, int] = {}
    for n in nodes:
        for v in n.members:
            node_of[v] = n.id
    return MergeTree(nodes=nodes, root=remap[live[0]], node_of=node_of)


if __name__ == "__main__":
    from metricgraph.metric_graph import GraphPoint, MetricGraph, _monotone_model

    def shape(G, p):
        """(level, parent's level, member count) of every node, sorted."""
        tree = _merge_tree_from_model(_monotone_model(G, GraphPoint(vertex=p)))
        return sorted((n.level, None if n.parent is None else tree.nodes[n.parent].level,
                       len(n.members)) for n in tree.nodes)

    # the 12-cycle from p: f has one maximum, q at 6, and the superlevel set
    # stays connected down to p, so the tree is a level-0 root (p) with one
    # level-6 child (q)
    c12 = MetricGraph(["p", "q"], [("arc1", "p", "q", 6.0), ("arc2", "p", "q", 6.0)])
    assert shape(c12, "p") == [(0.0, None, 1), (6.0, 0.0, 1)]
    # the theta graph (edges 1, 2, 3) from u: f(v) = 1 and the longer edges
    # peak at their midpoints of the u-v loop, at 1.5 and 2. The two peaks
    # are separate components until v joins them at level 1, and u closes
    # the root at 0
    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    assert shape(theta, "u") == [(0.0, None, 1), (1.0, 0.0, 1), (1.5, 1.0, 1),
                                 (2.0, 1.0, 1)]
    # a star from its centre: each leaf is a peak, all joined at the centre
    star = MetricGraph(["o", "a", "b", "c"], [("a", "o", "a", 1.0), ("b", "o", "b", 2.0),
                                              ("c", "o", "c", 3.0)])
    assert shape(star, "o") == [(0.0, None, 1), (1.0, 0.0, 1), (2.0, 0.0, 1),
                                (3.0, 0.0, 1)]
    # one vertex: one node
    assert shape(MetricGraph(["u"], []), "u") == [(0.0, None, 1)]
    print("expected values: ok")
