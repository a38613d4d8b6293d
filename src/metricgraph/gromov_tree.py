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
    _best_route,
    _build_monotone_model,
    _model_arrays,
    _model_f,
    _net_metric,
    _net_places,
    _to_model_point,
    check_positive,
    per_graph,
)


def gromov_product(obj, p, x, y) -> float:
    """(d(p,x) + d(p,y) - d(x,y)) / 2.

    ``obj`` is a MetricGraph with GraphPoint arguments, or a square distance
    matrix with integer indices.
    """
    if isinstance(obj, MetricGraph):
        cp, cx, cy = obj.canonical(p), obj.canonical(x), obj.canonical(y)
        return (_best_route(obj, cp, cx)[0] + _best_route(obj, cp, cy)[0]
                - _best_route(obj, cx, cy)[0]) / 2.0
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
    """A node's level is above its parent's, so two nodes' merge level, the
    level of their LCA, is the least level on the Euler tour between their
    first visits: a range minimum, read from a sparse table (Bender and
    Farach-Colton, "The LCA problem revisited", LATIN 2000)."""

    nodes: Tuple[TreeNode, ...]
    root: int
    node_of: Dict[str, int]

    def __post_init__(self):
        kids: List[List[int]] = [[] for _ in self.nodes]
        for nd in self.nodes:
            if nd.parent is not None:
                kids[nd.parent].append(nd.id)
        # the Euler tour, and each node's first visit on it
        first = [0] * len(self.nodes)
        tour = [self.root]
        stack = [(self.root, iter(kids[self.root]))]
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
        table[0] = [self.nodes[v].level for v in tour]
        for k in range(1, len(table)):
            half, m = 1 << (k - 1), M - (1 << k) + 1
            table[k, :m] = np.minimum(table[k - 1, :m], table[k - 1, half:half + m])
        object.__setattr__(self, "_first", np.array(first))
        object.__setattr__(self, "_table", table)

    def merge_level(self, a: int, b: int) -> float:
        """Level of the LCA of nodes a and b, read as Python scalars."""
        lo, hi = sorted((self._first.item(a), self._first.item(b)))
        k = (hi - lo + 1).bit_length() - 1
        return min(self._table.item(k, lo), self._table.item(k, hi + 1 - (1 << k)))

    def merge_levels(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``merge_level`` over integer arrays of nodes, broadcast together."""
        fa, fb = self._first[a], self._first[b]
        lo, hi = np.minimum(fa, fb), np.maximum(fa, fb)
        k = np.frexp(hi - lo + 1)[1] - 1
        return np.minimum(self._table[k, lo], self._table[k, hi + 1 - (1 << k)])

    def to_json_obj(self) -> dict:
        return {"nodes": [{"id": n.id, "level": n.level, "parent": n.parent}
                          for n in self.nodes]}


_TD_BLOCK = 256  # net rows per block in tree_distortion; bounds the temporaries


class TreeDistortionResult(NamedTuple):
    value: float
    tau_upper: float


def _merge_tree_from_model(model: MonotoneModel) -> MergeTree:
    H, f = model.graph, model.f
    names, iadj, tol = H.vertices, H._iadj, H._tol
    # vertex indices ascend with names: ties and members sort as by name
    fv = [f[v] for v in names]
    order = sorted(range(len(names)), key=lambda v: (-fv[v], v))

    uf = [-1] * len(names)  # union-find parent; -1 below the current level

    def find(v: int) -> int:
        r = v
        while uf[r] != r:
            r = uf[r]
        while uf[v] != r:
            uf[v], v = r, uf[v]
        return r

    # provisional nodes in creation order
    levels: List[float] = []
    parents: List[Optional[int]] = []
    members: List[List[int]] = []
    node_at: Dict[int, int] = {}  # union-find root -> node of its component

    i = 0
    while i < len(order):
        j = i
        lvl = fv[order[i]]
        while j < len(order) and lvl - fv[order[j]] <= tol:
            j += 1
        group, i = order[i:j], j

        # roots of the components above this level that each vertex reaches
        reached = {v: {find(w) for (w, _, _) in iadj[v] if uf[w] >= 0} for v in group}
        for v in group:
            uf[v] = v
        for v in group:
            for (w, _, _) in iadj[v]:
                if uf[w] >= 0:
                    ra, rb = find(v), find(w)
                    if ra != rb:
                        uf[rb] = ra

        comps: Dict[int, List[int]] = {}
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
                 members=tuple(names[v] for v in members[old]))
        for old in order_ids
    )
    node_of = {v: n.id for n in nodes for v in n.members}
    return MergeTree(nodes=nodes, root=remap[live[0]], node_of=node_of)


@per_graph
def _merge_tree_at(G: MetricGraph, cp: GraphPoint) -> MergeTree:
    return _merge_tree_from_model(_build_monotone_model(G, cp))


def build_merge_tree(G: MetricGraph, p: GraphPoint) -> MergeTree:
    """Merge tree of d(p, .) over the monotone subdivision's vertices.

    Built once per (graph, canonical basepoint) and shared; do not mutate.
    """
    return _merge_tree_at(G, G.canonical(p))


def _place(G: MetricGraph, model: MonotoneModel, x: GraphPoint) -> Tuple[str, float]:
    """(x if it is a model vertex, else the upper end of its model edge;
    f(x)), for a canonical point x of G."""
    mp = _to_model_point(model, x)
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
    return _bottleneck(G, G.canonical(p), G.canonical(x), G.canonical(y))


def _bottleneck(G: MetricGraph, cp: GraphPoint, cx: GraphPoint, cy: GraphPoint) -> float:
    """``bottleneck_m`` at canonical points."""
    model = _build_monotone_model(G, cp)
    ux, fx = _place(G, model, cx)
    uy, fy = _place(G, model, cy)
    tree = _merge_tree_at(G, cp)
    return min(fx, fy, tree.merge_level(tree.node_of[ux], tree.node_of[uy]))


def t_p(G: MetricGraph, p: GraphPoint, x: GraphPoint, y: GraphPoint) -> float:
    """Tree distance induced by the merge tree of d(p, .). Never exceeds
    the graph distance."""
    cp, cx, cy = G.canonical(p), G.canonical(x), G.canonical(y)
    return (_best_route(G, cp, cx)[0] + _best_route(G, cp, cy)[0]
            - 2.0 * _bottleneck(G, cp, cx, cy))


def tree_distortion(G: MetricGraph, p: GraphPoint, mesh: float) -> TreeDistortionResult:
    """Max of d(x,y) - t_p(x,y) over pairs of an eps-net at the given mesh.

    The identity relation between G and its merge-tree quotient has this
    distortion on the net, so value/2 is reported as tau_upper, an upper
    bound for the Gromov-Hausdorff distance to the tree.

    A pair's merge level is min(f_i, f_j, L), L its nodes' merge level (see
    ``bottleneck_m``), read for blocks of _TD_BLOCK rows of pairs at a time.
    The gap is the pair loop's float expression
    (tests/oracles/tree_distortion_pairs.py), so the two agree ``==``. The
    net's distance block and its points' model elements and levels are G's
    memoised ones, shared with the quotient correspondence at this mesh.
    """
    check_positive("mesh", mesh)
    cp, mesh = G.canonical(p), float(mesh)
    H, tree = _build_monotone_model(G, cp).graph, _merge_tree_at(G, cp)
    M = _model_arrays(G, cp)
    D = _net_metric(G, mesh)

    # each net point's model vertex, or the upper end of its model edge
    # (see _place), and its level
    elem, f = _net_places(G, cp, mesh)
    up = elem - len(M.num)
    j = np.flatnonzero(up < 0)
    u, v = H._ends[M.edge_of[elem[j]]].T
    up[j] = np.where(M.f[v] >= M.f[u], v, u)
    node = np.array([tree.node_of[w] for w in H.vertices])[up]
    n = len(D)
    worst = 0.0
    for b0 in range(0, n - 1, _TD_BLOCK):
        i = np.arange(b0, min(b0 + _TD_BLOCK, n - 1))[:, None]
        j = np.arange(b0 + 1, n)
        L = tree.merge_levels(node[i], node[j])
        fi, fj = f[i], f[j]
        gap = (D[i, j] - ((fi + fj) - 2.0 * np.minimum(np.minimum(fi, fj), L)))[j > i]
        # rounding in d - t_p grows with the lengths, so the slack is
        # G's tolerance
        if gap.min() < -G._tol:
            raise AssertionError("tree metric exceeded the graph metric")
        worst = max(worst, float(gap.max()))
    return TreeDistortionResult(value=worst, tau_upper=worst / 2.0)
