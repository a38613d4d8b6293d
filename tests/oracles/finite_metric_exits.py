"""Finite metric of graph points by four gathers of a vertex-distance table.

This is the library's earlier ``finite_metric``. For each of the four pairs
of exits (ka, kb) it gathers VD[exit_a, exit_b] for all point pairs and sums
c_a + VD + c_b left to right. It rebuilds VD on every call from the
``G._vertex_dists`` rows of the exit vertices, symmetrised column by column
in vertex order, so each entry comes from the row of the lower-index root.
The point-to-vertex kernel in the library must agree with it exactly.

Run as a script, it checks itself against hand-computed distance matrices.
"""

from typing import Dict, List, Sequence

import numpy as np


def finite_metric(G, points: Sequence):
    """Pairwise distance matrix of the given points (numpy array).

    Duplicate points are fine; the result is then a pseudometric.
    """
    pts = [G.canonical(p) for p in points]
    n = len(pts)
    vidx = {v: i for i, v in enumerate(G.vertices)}
    need = sorted({v for p in pts for (v, _) in G._exits(p)})
    vd = {v: G._vertex_dists(v) for v in need}

    # exit representation: up to two (vertex, cost) rows per point
    exit_v = np.zeros((n, 2), dtype=np.int64)
    exit_c = np.zeros((n, 2), dtype=np.float64)
    for i, p in enumerate(pts):
        ex = G._exits(p)
        if len(ex) == 1:
            ex = [ex[0], ex[0]]
        for k, (v, c) in enumerate(ex):
            exit_v[i, k] = vidx[v]
            exit_c[i, k] = c

    nv = len(G.vertices)
    VD = np.zeros((nv, nv), dtype=np.float64)
    for v in need:
        row = vd[v]
        VD[vidx[v], :] = [row[w] for w in G.vertices]
    for v in need:  # symmetrize the rows we filled
        VD[:, vidx[v]] = VD[vidx[v], :]

    D = np.full((n, n), np.inf)
    for ka in range(2):
        for kb in range(2):
            cand = (exit_c[:, ka][:, None] + VD[np.ix_(exit_v[:, ka], exit_v[:, kb])]
                    + exit_c[:, kb][None, :])
            np.minimum(D, cand, out=D)

    # direct along a shared edge can beat every exit route
    by_edge: Dict[str, List[int]] = {}
    for i, p in enumerate(pts):
        if not p.is_vertex():
            by_edge.setdefault(p.edge, []).append(i)
    for eid, idxs in by_edge.items():
        off = np.array([pts[i].offset for i in idxs])
        direct = np.abs(off[:, None] - off[None, :])
        sub = np.ix_(idxs, idxs)
        D[sub] = np.minimum(D[sub], direct)

    np.fill_diagonal(D, 0.0)
    # c_a + VD + c_b is summed in another order for (i, j) than for (j, i),
    # so the two can differ by an ulp; both are lengths of real paths
    return np.minimum(D, D.T)


if __name__ == "__main__":
    from metricgraph.metric_graph import GraphPoint, MetricGraph

    # the path a -1- b -2- c -0.5- d; m sits 0.5 past b, q 0.25 past c
    path = MetricGraph(list("abcd"), [("ab", "a", "b", 1.0), ("bc", "b", "c", 2.0),
                                      ("cd", "c", "d", 0.5)])
    pts = [GraphPoint(vertex="a"), GraphPoint(vertex="c"), GraphPoint(edge="bc", offset=0.5),
           GraphPoint(vertex="d"), GraphPoint(edge="cd", offset=0.25)]
    want = [[0.0, 3.0, 1.5, 3.5, 3.25],
            [3.0, 0.0, 1.5, 0.5, 0.25],
            [1.5, 1.5, 0.0, 2.0, 1.75],
            [3.5, 0.5, 2.0, 0.0, 0.25],
            [3.25, 0.25, 1.75, 0.25, 0.0]]
    assert finite_metric(path, pts).tolist() == want
    print("path: ok")
    # theta (1, 2, 3): the midpoints of e2 and e3 are 2.5 apart, each way
    # round through u or v; two points on one edge meet along it
    theta = MetricGraph(["u", "v"], [("e1", "u", "v", 1.0), ("e2", "u", "v", 2.0),
                                     ("e3", "u", "v", 3.0)])
    pts = [GraphPoint(vertex="u"), GraphPoint(vertex="v"), GraphPoint(edge="e2", offset=1.0),
           GraphPoint(edge="e3", offset=1.5), GraphPoint(edge="e3", offset=2.5)]
    want = [[0.0, 1.0, 1.0, 1.5, 1.5],
            [1.0, 0.0, 1.0, 1.5, 0.5],
            [1.0, 1.0, 0.0, 2.5, 1.5],
            [1.5, 1.5, 2.5, 0.0, 1.0],
            [1.5, 0.5, 1.5, 1.0, 0.0]]
    assert finite_metric(theta, pts).tolist() == want
    print("theta: ok")
    print("expected values: ok")
