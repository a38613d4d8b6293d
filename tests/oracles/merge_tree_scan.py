"""The earlier merge-tree builder, which scans every old root per level.

For each level group it rebuilds the map from union-find roots to nodes and
finds a new node's children by checking every root of the previous level.
``metricgraph.gromov_tree._merge_tree_from_model`` must build the same tree.
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
