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

import numpy as np

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
    per_graph,
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


_TD_BLOCK = 256  # net rows per block in tree_distortion; bounds the temporaries


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
    return _merge_tree_at(G, G.canonical(p))


@per_graph
def _merge_tree_at(G: MetricGraph, cp: GraphPoint) -> MergeTree:
    return _merge_tree_from_model(_monotone_model(G, cp))


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

    A pair's merge level is min(f_i, f_j, L), L the level of the LCA of
    their nodes (see ``bottleneck_m``). A node's level is above its
    parent's, and the Euler tour between two nodes' first visits stays in
    their LCA's subtree and visits the LCA, so L is the least level there:
    a range minimum, two lookups in a sparse table (Bender and
    Farach-Colton, "The LCA problem revisited", LATIN 2000). The gap is the
    pair loop's float expression (tests/oracles/tree_distortion_pairs.py),
    so the two agree ``==``. Blocks of _TD_BLOCK rows bound the temporaries.
    """
    check_positive("mesh", mesh)
    net = epsilon_net(G, mesh)
    model = _monotone_model(G, p)
    tree = _merge_tree(G, p)
    D = finite_metric(G, net)

    # the merge tree's Euler tour, and each node's first visit on it
    kids: List[List[int]] = [[] for _ in tree.nodes]
    for nd in tree.nodes:
        if nd.parent is not None:
            kids[nd.parent].append(nd.id)
    first = [0] * len(tree.nodes)
    tour = [tree.root]
    stack = [(tree.root, iter(kids[tree.root]))]
    while stack:
        c = next(stack[-1][1], None)
        if c is None:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
        else:
            first[c] = len(tour)
            tour.append(c)
            stack.append((c, iter(kids[c])))
    # row k: the least level on each stretch of 2^k tour entries
    M = len(tour)
    table = np.full((M.bit_length(), M), np.inf)
    table[0] = [tree.nodes[v].level for v in tour]
    for k in range(1, len(table)):
        half, m = 1 << (k - 1), M - (1 << k) + 1
        table[k, :m] = np.minimum(table[k - 1, :m], table[k - 1, half:half + m])

    places = [_place(G, model, x) for x in net]
    at = np.array([first[tree.node_of[u]] for (u, _) in places])
    f = np.array([fx for (_, fx) in places])
    n = len(net)
    worst = 0.0
    for b0 in range(0, n - 1, _TD_BLOCK):
        i = np.arange(b0, min(b0 + _TD_BLOCK, n - 1))[:, None]
        j = np.arange(b0 + 1, n)
        lo, hi = np.minimum(at[i], at[j]), np.maximum(at[i], at[j])
        k = np.frexp(hi - lo + 1)[1] - 1
        L = np.minimum(table[k, lo], table[k, hi + 1 - (1 << k)])
        fi, fj = f[i], f[j]
        gap = (D[i, j] - ((fi + fj) - 2.0 * np.minimum(np.minimum(fi, fj), L)))[j > i]
        # rounding in d - t_p grows with the lengths, so the slack is
        # G's tolerance
        if gap.min() < -G._tol:
            raise AssertionError("tree metric exceeded the graph metric")
        worst = max(worst, float(gap.max()))
    return TreeDistortionResult(value=worst, tau_upper=worst / 2.0)
