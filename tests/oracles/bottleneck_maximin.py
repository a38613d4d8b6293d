"""Bottleneck m_p(x, y) as a widest vertex path in a subdivision.

Subdivides G at p, x and y with the public MetricGraph constructor, takes
f = d(p, .) on G at every vertex of the subdivision, and returns the maximum
over vertex paths from x to y of the minimum of f. This is exact: along an
edge without p in its interior, d(p, .) is a minimum of functions of slope
+-1, hence concave, so the minimum of f along any path sits at one of its
vertices. (On the edge through p it is not concave, which is why p is made a
vertex too.) Shares nothing with the library's monotone subdivision or merge
tree.

Run as a script, it checks itself against hand-derived values.
"""

from metricgraph import GraphPoint, MetricGraph, distance


def _subdivide(G, pts):
    """(subdivided graph, vertex -> position on G, vertex name of each pt)."""
    cuts = {}  # edge id -> {offset: new vertex name}
    names = []
    for pt in pts:
        c = G.canonical(pt)
        if c.is_vertex():
            names.append(c.vertex)
            continue
        on_edge = cuts.setdefault(c.edge, {})
        if c.offset not in on_edge:
            on_edge[c.offset] = f"#{c.edge}#{len(on_edge)}"
        names.append(on_edge[c.offset])

    where = {v: GraphPoint(vertex=v) for v in G.vertices}
    edges = []
    for e in G.edges:
        prev_off, prev_v = 0.0, e.u
        for off, name in sorted(cuts.get(e.id, {}).items()):
            where[name] = GraphPoint(edge=e.id, offset=off)
            edges.append((f"{e.id}#{len(edges)}", prev_v, name, off - prev_off))
            prev_off, prev_v = off, name
        edges.append((f"{e.id}#{len(edges)}", prev_v, e.v, e.length - prev_off))
    return MetricGraph(list(where), edges), where, names


def bottleneck(G, p, x, y):
    H, where, (_, vx, vy) = _subdivide(G, [p, x, y])
    f = {v: distance(G, p, pt) for v, pt in where.items()}
    if vx == vy:
        return f[vx]
    # add vertices from the top down; x and y first share a component at
    # the level of the vertex that joins them
    parent = {}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v in sorted(f, key=lambda w: -f[w]):
        parent[v] = v
        for eid in H.incident(v):
            e = H.edge(eid)
            w = e.v if e.u == v else e.u
            if w in parent:
                parent[find(w)] = find(v)
        if vx in parent and vy in parent and find(vx) == find(vy):
            return f[v]
    raise AssertionError("x and y never connected")


if __name__ == "__main__":
    # the 12-cycle from p: f = d(p, .) runs 0 -> 6 -> 0 around it
    c12 = MetricGraph(["p", "q"], [("arc1", "p", "q", 6.0), ("arc2", "p", "q", 6.0)])
    p, q = GraphPoint(vertex="p"), GraphPoint(vertex="q")
    x, y = GraphPoint(edge="arc1", offset=3.0), GraphPoint(edge="arc2", offset=3.0)
    # mirror points at level 3 meet over q, so the path's lowest point is
    # an end: m_p = 3; through p the path would dip to 0
    assert bottleneck(c12, p, x, y) == 3.0
    # p itself is at level 0, so every path from it has minimum 0
    assert bottleneck(c12, p, p, q) == 0.0
    # two points on one arc: the arc between them stays above the lower
    assert bottleneck(c12, p, x, GraphPoint(edge="arc1", offset=5.0)) == 3.0
    assert bottleneck(c12, p, q, q) == 6.0
    # the theta graph (edges 1, 2, 3) from u: the peaks of e2 (1.5) and e3
    # (2) are joined only through u (0) or v (1), so m_p = 1
    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    assert bottleneck(theta, GraphPoint(vertex="u"), GraphPoint(edge="e2", offset=1.5),
                      GraphPoint(edge="e3", offset=2.0)) == 1.0
    print("expected values: ok")
