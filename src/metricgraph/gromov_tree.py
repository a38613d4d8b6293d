"""Merge trees of distance-from-basepoint, Gromov products, and the tree
metric t_p they induce.

For points x, y and basepoint p, m_p(x, y) is the largest level m such that
x and y lie in one component of the superlevel set {d(p, .) >= m}; then
t_p(x, y) = d(p, x) + d(p, y) - 2 m_p(x, y). The merge tree realizes m_p as
the level of the lowest common ancestor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .metric_graph import (
    GraphPoint,
    MetricGraph,
    MonotoneModel,
    _model_f,
    _monotone_model,
    _to_model_point,
    check_positive,
    distance,
    epsilon_net,
    finite_metric,
)


def gromov_product(obj, p, x, y) -> float:
    """(d(p,x) + d(p,y) - d(x,y)) / 2.

    ``obj`` is a MetricGraph with GraphPoint arguments, or a square distance
    matrix with integer indices.
    """
    if isinstance(obj, MetricGraph):
        return (distance(obj, p, x) + distance(obj, p, y) - distance(obj, x, y)) / 2.0
    D = obj
    return (D[p][x] + D[p][y] - D[x][y]) / 2.0


@dataclass(frozen=True)
class TreeNode:
    id: int
    level: float
    parent: Optional[int]
    members: Tuple[str, ...] = ()


@dataclass(frozen=True)
class MergeTree:
    nodes: Tuple[TreeNode, ...]
    root: int
    node_of: Dict[str, int]

    def lca(self, a: int, b: int) -> int:
        anc = set()
        i: Optional[int] = a
        while i is not None:
            anc.add(i)
            i = self.nodes[i].parent
        j: Optional[int] = b
        while j is not None:
            if j in anc:
                return j
            j = self.nodes[j].parent
        raise AssertionError("nodes share no ancestor")

    def merge_level(self, a: int, b: int) -> float:
        return self.nodes[self.lca(a, b)].level

    def to_json_obj(self) -> dict:
        return {"nodes": [{"id": n.id, "level": n.level, "parent": n.parent}
                          for n in self.nodes]}


class TreeDistortionResult(NamedTuple):
    value: float
    tau_upper: float


def _merge_tree_from_model(model: MonotoneModel) -> MergeTree:
    H, f = model.graph, model.f
    order = sorted(H.vertices, key=lambda v: (-f[v], v))
    tol = H._tol

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
    node_at: Dict[str, int] = {}  # union-find root -> node of its component

    i = 0
    while i < len(order):
        j = i
        lvl = f[order[i]]
        while j < len(order) and lvl - f[order[j]] <= tol:
            j += 1
        group = order[i:j]
        i = j

        nbrs = {v: [e.v if e.u == v else e.u for e in map(H.edge, H.incident(v))]
                for v in group}
        # roots of the components above this level that each vertex reaches
        reached = {v: {find(w) for w in nbrs[v] if w in parent_uf} for v in group}
        for v in group:
            parent_uf[v] = v
        for v in group:
            for w in nbrs[v]:
                if w in parent_uf:
                    ra, rb = find(v), find(w)
                    if ra != rb:
                        parent_uf[rb] = ra

        comps: Dict[str, List[str]] = {}
        for v in group:
            comps.setdefault(find(v), []).append(v)
        for rv in sorted(comps, key=lambda r: min(comps[r])):
            nid = len(levels)
            levels.append(lvl)
            parents.append(None)
            members.append(sorted(comps[rv]))
            for r in set().union(*(reached[v] for v in comps[rv])):
                parents[node_at.pop(r)] = nid
            node_at[rv] = nid

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


def _merge_tree(G: MetricGraph, p: GraphPoint) -> MergeTree:
    cp = G.canonical(p)
    tree = G._tree_cache.get(cp)
    if tree is None:
        tree = G._tree_cache[cp] = _merge_tree_from_model(_monotone_model(G, cp))
    return tree


def build_merge_tree(G: MetricGraph, p: GraphPoint) -> MergeTree:
    """Merge tree of d(p, .) over the monotone subdivision's vertices.

    Built once per (graph, canonical basepoint) and shared; do not mutate.
    """
    return _merge_tree(G, p)


def _place(G: MetricGraph, model: MonotoneModel, x: GraphPoint) -> Tuple[str, float]:
    """(x if it is a model vertex, else the upper end of its model edge;
    f(x))."""
    mp = _to_model_point(model, G.canonical(x))
    if mp.is_vertex():
        return mp.vertex, model.f[mp.vertex]
    e = model.graph.edge(mp.edge)
    upper = e.v if model.f[e.v] >= model.f[e.u] else e.u
    return upper, _model_f(model, mp)


def bottleneck_m(G: MetricGraph, p: GraphPoint, x: GraphPoint, y: GraphPoint) -> float:
    """Highest level at which x and y share a superlevel component of
    d(p, .): maximum over x-y paths of the minimum of the function.

    f is monotone along every model edge, so a path from an interior point
    does at least as well leaving through the upper end of its edge: m_p is
    min(f(x), f(y), merge level of the two upper ends). When x and y lie on
    one model edge that level is the upper end's own, above both, and m_p is
    min(f(x), f(y)).
    """
    model = _monotone_model(G, p)
    ux, fx = _place(G, model, x)
    uy, fy = _place(G, model, y)
    tree = _merge_tree(G, p)
    return min(fx, fy, tree.merge_level(tree.node_of[ux], tree.node_of[uy]))


def t_p(G: MetricGraph, p: GraphPoint, x: GraphPoint, y: GraphPoint) -> float:
    """Tree distance induced by the merge tree of d(p, .). Never exceeds
    the graph distance."""
    fx = distance(G, p, x)
    fy = distance(G, p, y)
    return fx + fy - 2.0 * bottleneck_m(G, p, x, y)


def tree_distortion(G: MetricGraph, p: GraphPoint, mesh: float) -> TreeDistortionResult:
    """Max of d(x,y) - t_p(x,y) over pairs of an eps-net at the given mesh.

    The identity relation between G and its merge-tree quotient has this
    distortion on the net, so value/2 is reported as tau_upper, an upper
    bound for the Gromov-Hausdorff distance to the tree.
    """
    check_positive("mesh", mesh)
    net = epsilon_net(G, mesh)
    model = _monotone_model(G, p)
    tree = _merge_tree(G, p)
    D = finite_metric(G, net)

    n = len(net)
    places = [_place(G, model, x) for x in net]
    node_ids = [tree.node_of[u] for (u, _) in places]
    flev = [fx for (_, fx) in places]

    # cache ancestor chains once; pairwise LCA via the chains
    chains: List[Dict[int, int]] = []
    for nid in node_ids:
        depth: Dict[int, int] = {}
        k, cur = 0, nid
        while cur is not None:
            depth[cur] = k
            cur = tree.nodes[cur].parent
            k += 1
        chains.append(depth)

    worst = 0.0
    for i in range(n):
        ci = chains[i]
        for j in range(i + 1, n):
            cur = node_ids[j]
            while cur not in ci:
                cur = tree.nodes[cur].parent
            m = min(flev[i], flev[j], tree.nodes[cur].level)
            tp = flev[i] + flev[j] - 2.0 * m
            gap = D[i, j] - tp
            # rounding in d - t_p grows with the lengths, so the slack is
            # G's tolerance
            if gap < -G._tol:
                raise AssertionError("tree metric exceeded the graph metric")
            if gap > worst:
                worst = gap
    return TreeDistortionResult(value=worst, tau_upper=worst / 2.0)
