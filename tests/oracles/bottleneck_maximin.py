"""Bottleneck m_p(x, y) as a widest vertex path in a subdivision.

Subdivides G at p, x and y with the public MetricGraph constructor, takes
f = d(p, .) on G at every vertex of the subdivision, and returns the maximum
over vertex paths from x to y of the minimum of f. This is exact: along an
edge without p in its interior, d(p, .) is a minimum of functions of slope
+-1, hence concave, so the minimum of f along any path sits at one of its
vertices. (On the edge through p it is not concave, which is why p is made a
vertex too.) Shares nothing with the library's monotone subdivision or merge
tree.
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
