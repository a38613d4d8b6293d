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
as the vectorised kernel, which must agree with it exactly.
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
    best = 0.0
    for i in range(len(es)):
        e1 = es[i]
        d_u = G._vertex_dists(e1.u)
        d_v = G._vertex_dists(e1.v)
        for j in range(i, len(es)):
            e2 = es[j]
            l1, l2 = e1.length, e2.length
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
    return best
