"""Exact diameter as a scalar loop over edge pairs.

For points s on e1 and t on e2 (offsets from the u ends), the distance is the
minimum of four affine routes (through u1 or v1, then u2 or v2). Its maximum
over the rectangle [0, l1] x [0, l2] sits at a corner, at a crossing of a
switch line (where two routes tie) with a side, or at a crossing of two switch
lines, so checking those candidates one by one is exact. A pair (e, e) uses
the two triangles s <= t and s >= t, each with the direct route |s - t| as a
fifth function.

This is the library's earlier implementation, one pair at a time. It reads
the vertex distances from ``G._vertex_dists`` so that it sees the same floats
as the vectorised kernel, which must agree with it exactly. Its candidate
tests use absolute constants set for lengths near 1, so, like the library, it
runs on lengths divided by the graph's length unit ``G._unit`` (a power of
two, so the division is exact) and multiplies the result back; the result
then scales exactly with the graph.

Run as a script, it checks itself against hand-computed diameters.
"""

import math


def _max_min_affine(funcs, corners):
    """Maximum over a convex polygon of the pointwise min of affine
    functions (alpha*s + beta*t + c). Candidates: corners, switch-line
    crossings with the boundary, and pairwise switch-line intersections."""
    cands = list(corners)
    m = len(corners)
    edges = [(corners[i], corners[(i + 1) % m]) for i in range(m)]

    lines = []
    for i in range(len(funcs)):
        for j in range(i + 1, len(funcs)):
            a1, b1, c1 = funcs[i]
            a2, b2, c2 = funcs[j]
            lines.append((a1 - a2, b1 - b2, c1 - c2))
    for (A, B, C) in lines:
        for (p, q) in edges:
            # intersect A*s+B*t+C=0 with segment p..q
            (x0, y0), (x1, y1) = p, q
            den = A * (x1 - x0) + B * (y1 - y0)
            if abs(den) < 1e-15:
                continue
            lam = -(A * x0 + B * y0 + C) / den
            if -1e-9 <= lam <= 1 + 1e-9:
                cands.append((x0 + lam * (x1 - x0), y0 + lam * (y1 - y0)))
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            A1, B1, C1 = lines[i]
            A2, B2, C2 = lines[j]
            den = A1 * B2 - A2 * B1
            if abs(den) < 1e-15:
                continue
            s = (-C1 * B2 + C2 * B1) / den
            t = (-A1 * C2 + A2 * C1) / den
            cands.append((s, t))

    # polygon membership via half-planes (corners are CCW for our callers)
    def inside(x):
        for (p, q) in edges:
            cross = (q[0] - p[0]) * (x[1] - p[1]) - (q[1] - p[1]) * (x[0] - p[0])
            if cross < -1e-9 * (1 + abs(x[0]) + abs(x[1])):
                return False
        return True

    best = -math.inf
    for x in cands:
        if not inside(x):
            continue
        val = min(a * x[0] + b * x[1] + c for (a, b, c) in funcs)
        if val > best:
            best = val
    return best


def diameter(G):
    if not G.edges:
        return 0.0
    es = G.edges
    unit = G._unit
    best = 0.0
    for i in range(len(es)):
        e1 = es[i]
        d_u = {w: x / unit for w, x in G._vertex_dists(e1.u).items()}
        d_v = {w: x / unit for w, x in G._vertex_dists(e1.v).items()}
        for j in range(i, len(es)):
            e2 = es[j]
            l1, l2 = e1.length / unit, e2.length / unit
            funcs = [
                (1.0, 1.0, d_u[e2.u]),
                (1.0, -1.0, d_u[e2.v] + l2),
                (-1.0, 1.0, d_v[e2.u] + l1),
                (-1.0, -1.0, d_v[e2.v] + l1 + l2),
            ]
            if i == j:
                lo = _max_min_affine(funcs + [(1.0, -1.0, 0.0)],
                                     [(0.0, 0.0), (l1, 0.0), (l1, l1)])
                hi = _max_min_affine(funcs + [(-1.0, 1.0, 0.0)],
                                     [(0.0, 0.0), (l1, l1), (0.0, l1)])
                val = max(lo, hi)
            else:
                val = _max_min_affine(funcs,
                                      [(0.0, 0.0), (l1, 0.0), (l1, l2), (0.0, l2)])
            if val > best:
                best = val
    return best * unit


if __name__ == "__main__":
    from metricgraph.metric_graph import MetricGraph

    # theta (1, 2, 3): the farthest pair sits midway round the 2 + 3 cycle
    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    # a circle of circumference 12: antipodes are 6 apart
    c12 = MetricGraph(["p", "q"], [("a1", "p", "q", 6.0), ("a2", "p", "q", 6.0)])
    # stem 2 + circle 12 + tail 2: end to end round half the circle
    decorated = MetricGraph(["p", "a", "b", "q"],
                            [("stem", "p", "a", 2.0), ("c1", "a", "b", 6.0),
                             ("c2", "a", "b", 6.0), ("tail", "b", "q", 2.0)])
    # a path: its length, end to end
    path = MetricGraph(list("wxyz"), [("wx", "w", "x", 1.5), ("xy", "x", "y", 2.0),
                                      ("yz", "y", "z", 0.25)])
    # a star: its two longest legs
    star = MetricGraph(list("oabc"), [("a", "o", "a", 1.0), ("b", "o", "b", 4.0),
                                      ("c", "o", "c", 2.5)])
    for name, G, want in (("theta", theta, 2.5), ("c12", c12, 6.0),
                          ("decorated c12", decorated, 10.0), ("path", path, 3.75),
                          ("star", star, 6.5)):
        for k in (-60, 0, 60):
            s = 2.0 ** k
            H = MetricGraph(G.vertices, [(e.id, e.u, e.v, e.length * s) for e in G.edges])
            got = diameter(H)
            assert got == want * s, (name, k, got)
        print(f"{name}: diameter {want}")
    # the path v1-v0-v2-v3 scaled by 2^60, which read an ulp short while
    # the candidate tests ran on unscaled lengths: its diameter is its
    # length, summed from one end
    big = [x * 2.0 ** 60 for x in (7.018535345654363, 7.98798761335163, 9.125551732756843)]
    G = MetricGraph(["v0", "v1", "v2", "v3"], [("c", "v2", "v3", big[2]),
                                               ("b", "v0", "v2", big[1]),
                                               ("a", "v0", "v1", big[0])])
    assert diameter(G) == big[0] + big[1] + big[2] == 2.7822387862912025e19
    print("expected values: ok")
