"""The earlier merge-tree distortion, one net pair at a time.

For each net point it caches the chain of merge-tree ancestors of its node,
and for each pair walks the second point's chain up to the first ancestor
in the first point's chain: the LCA. A pair's tree distance is
f_i + f_j - 2.0 * min(f_i, f_j, LCA level), and the gap D - t_p below
-G._tol is an error. It reads the net, the monotone model, the merge tree
and the net's distance matrix from the library, so it sees the same floats
as ``metricgraph.gromov_tree.tree_distortion``, whose ``value`` and
``tau_upper`` must be ``==`` to these.

Run as a script, it checks itself against hand-derived distortions.
"""

from typing import Dict, List

from metricgraph.gromov_tree import TreeDistortionResult, _place, build_merge_tree as _merge_tree
from metricgraph.metric_graph import (
    GraphPoint,
    MetricGraph,
    _monotone_model,
    epsilon_net,
    finite_metric,
)


def tree_distortion(G: MetricGraph, p: GraphPoint, mesh: float) -> TreeDistortionResult:
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


if __name__ == "__main__":
    # the 12-cycle from p: at mesh 1 the net holds the offsets 1..5 of each
    # arc. Points at levels s, t on different arcs merge at min(s, t), so
    # t_p = |s - t| while d = min(s + t, 12 - s - t); on one arc
    # d = t_p. The gap is largest at the mirror points s = t = 3: 6 - 0.
    c12 = MetricGraph(["p", "q"], [("arc1", "p", "q", 6.0), ("arc2", "p", "q", 6.0)])
    p = GraphPoint(vertex="p")
    assert tree_distortion(c12, p, 1.0) == (6.0, 3.0)
    # from q the same holds by symmetry
    assert tree_distortion(c12, GraphPoint(vertex="q"), 1.0) == (6.0, 3.0)
    # a stem and a tail are trees hanging off the cycle and add no gap
    decorated = MetricGraph(["p", "a", "b", "q"],
                            [("stem", "p", "a", 2.0), ("c1", "a", "b", 6.0),
                             ("c2", "a", "b", 6.0), ("tail", "b", "q", 2.0)])
    assert tree_distortion(decorated, p, 1.0) == (6.0, 3.0)
    # a tree is its own merge tree: every gap is 0
    star = MetricGraph(["o", "a", "b", "c"], [("a", "o", "a", 1.0), ("b", "o", "b", 2.0),
                                              ("c", "o", "c", 3.0)])
    assert tree_distortion(star, GraphPoint(vertex="a"), 0.5) == (0.0, 0.0)
    # one vertex: no pairs
    assert tree_distortion(MetricGraph(["u"], []), GraphPoint(vertex="u"), 1.0) == (0.0, 0.0)
    print("expected values: ok")
